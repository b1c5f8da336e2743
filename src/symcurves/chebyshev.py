"""Monic Chebyshev polynomials T_d, normalized by T_d(z + 1/z) = z^d + z^-d.

T_1 = x, T_2 = x^2 - 2, and T_d = x*T_{d-1} - T_{d-2}.  These are monic with
integer coefficients, satisfy the nesting identity T_{nm} = T_n(T_m), and are
odd/even functions according to the parity of d.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import IntPoly


class ChebPoly:
    """Degree-d monic Chebyshev polynomial with its coefficient form."""

    __slots__ = ("d", "poly")

    def __init__(self, d: int, poly: IntPoly):
        if d < 1:
            raise ValueError("degree must be >= 1 (T_0 convention excluded)")
        if poly.degree != d or poly.coeffs[-1] != 1:
            raise ValueError("not a monic degree-d polynomial")
        # Parity: T_d is an odd function for odd d, even for even d.
        for i, c in enumerate(poly.coeffs):
            if c != 0 and i % 2 != d % 2:
                raise ValueError("parity invariant violated")
        self.d = d
        self.poly = poly

    def __call__(self, x):
        return cheb_eval(self.d, x)

    def __repr__(self):
        return f"ChebPoly(d={self.d}, {self.poly!r})"


@lru_cache(maxsize=None)
def _cheb_coeffs(d: int) -> IntPoly:
    if d == 1:
        return IntPoly([0, 1])
    if d == 2:
        return IntPoly([-2, 0, 1])
    prev2, prev1 = _cheb_coeffs(d - 2), _cheb_coeffs(d - 1)
    return IntPoly([0, 1]) * prev1 - prev2


def cheb(d: int) -> ChebPoly:
    """The monic degree-d Chebyshev polynomial."""
    if d < 1:
        raise ValueError("degree must be >= 1 (T_0 convention excluded)")
    return ChebPoly(d, _cheb_coeffs(d))


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


def special_values(d: int) -> dict[int, int]:
    """Values of T_d on {0, +-1, +-2} for d not divisible by 3, as ints.

    Odd d acts as the identity on the set; even d sends +-1 to -1, +-2 to 2,
    and 0 to -2 when d = 2 mod 4 or to 2 when d = 0 mod 4.
    The table follows from T_d(2 cos t) = 2 cos(d t) at t = 0, pi/3, pi/2,
    2pi/3 and pi, and is returned without evaluating T_d.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d % 3 == 0:
        raise ValueError("values at +-1 differ when 3 | d; table not applicable")
    if d % 2 == 1:
        return {v: v for v in (0, 1, -1, 2, -2)}
    return {0: 2 if d % 4 == 0 else -2, 1: -1, -1: -1, 2: 2, -2: 2}
