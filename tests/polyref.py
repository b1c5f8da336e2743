"""Reference polynomial algebra for the tests.

`Poly` is the package's `IntPoly` with the ring operations that the tests'
reference kernels are built from.  `roots_mod_p` solves f mod p with the
package's own kernel `exact._roots_fp`, so the tests of its closed forms
exercise the code that the descent runs.
"""

from symcurves import exact
from symcurves.exact import IntPoly, _roots_fp


class Poly(IntPoly):
    """Dense integer polynomial, coefficients indexed by degree, with
    +, -, negation, * by a Poly or an int, and a readable repr."""

    __slots__ = ()

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __sub__(self, other):
        return self + Poly([-c for c in other.coeffs])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly([other * c for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __repr__(self):
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0 and self.degree > 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            else:
                mono = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        return " + ".join(terms).replace("+ -", "- ")


def derivative(f: Poly) -> Poly:
    """f', for the resultant and discriminant checks."""
    return Poly([i * c for i, c in enumerate(f.coeffs)][1:] or [0])


def roots_mod_p(f: IntPoly, p: int) -> set[int]:
    """All residues r in [0, p) with f(r) = 0 mod p: the coefficients of f
    reduced mod p and trimmed, solved by `exact._roots_fp`.  p must be
    prime (checked through `exact.is_prime`) and f nonzero mod p."""
    if not exact.is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    fp = [c % p for c in f.coeffs]
    while len(fp) > 1 and fp[-1] == 0:
        fp.pop()
    if fp == [0]:
        raise ValueError("polynomial is zero mod p")
    return _roots_fp(fp, p)
