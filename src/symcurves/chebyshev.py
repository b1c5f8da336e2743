"""Monic Chebyshev polynomials T_d, normalized by T_d(z + 1/z) = z^d + z^-d.

T_1 = x, T_2 = x^2 - 2, and T_d = x*T_{d-1} - T_{d-2}.  These are monic with
integer coefficients, satisfy the nesting identity T_{nm} = T_n(T_m), and are
odd/even functions according to the parity of d.  The toolkit only ever
evaluates T_d, exactly, at a point (`cheb_eval`); the coefficient forms and
the value table on {0, +-1, +-2} live in the tests as references.
"""

from __future__ import annotations

from fractions import Fraction


def cheb_eval(d: int, x):
    """T_d(x), exactly: an int for an int x, a Fraction for anything else.

    One Lucas V-ladder over the bits of d: from (T_0, T_1) = (2, x), each bit
    maps the pair (T_k, T_{k+1}) to (T_{2k}, T_{2k+1}) or (T_{2k+1}, T_{2k+2})
    by T_{2k} = T_k^2 - 2 and T_{2k+1} = T_k*T_{k+1} - x, so O(log d) products.
    An int x runs the ladder on plain int; any other x (a Fraction, a float
    or a string) is first converted to an exact Fraction.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if not isinstance(x, int):
        x = Fraction(x)
    a, b = 2, x  # (T_k, T_{k+1}) with k = 0
    for bit in bin(d)[2:]:
        if bit == "1":
            a, b = a * b - x, b * b - 2
        else:
            a, b = a * a - 2, a * b - x
    return a
