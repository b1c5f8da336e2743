"""The symmetric quartic family x^4 + a*x^2 + a*y^2 + y^4 = b, its quadratic
twists, the two covering maps to the companion elliptic curve, exact preimage
solving, and the local height constant kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import is_squarefree, rational_sqrt, require
from .elliptic import INF, ECPoint, EllipticCurve


@dataclass(frozen=True)
class QuarticPoint:
    x: Fraction
    y: Fraction

    def swap(self) -> "QuarticPoint":
        return QuarticPoint(self.y, self.x)

    def __iter__(self):
        """Unpack as (x, y), like the int pairs of an X_d certificate."""
        return iter((self.x, self.y))

    def __repr__(self):
        return f"({self.x}, {self.y})"


class SymQuartic:
    """F: x^4 + a'x^2 + a'y^2 + y^4 = b' where (a', b') = (alpha*a, alpha^2*b)
    is the twist of (a, b) by a squarefree integer alpha (alpha = 1 untwisted).
    """

    def __init__(self, a, b, alpha: int = 1):
        self.a, self.b = Fraction(a), Fraction(b)
        if alpha == 0 or not is_squarefree(alpha):
            raise ValueError("twist parameter must be a squarefree nonzero integer")
        self.alpha = alpha
        a, b = self.a, self.b
        self._disc = b * (a * a + 2 * b) * (a * a + 4 * b)
        if self._disc == 0:
            raise ValueError("degenerate family: b*(a^2+2b)*(a^2+4b) = 0")
        # a' and b', computed once: a, b and alpha are never reassigned.
        self.a_eff = alpha * self.a
        self.b_eff = alpha * alpha * self.b
        # The equation with denominators cleared, for `contains`: D and the
        # integers D*a', D*b'.
        a, b = self.a_eff, self.b_eff
        self._D = math.lcm(a.denominator, b.denominator)
        self._Da, self._Db = int(self._D * a), int(self._D * b)
        self._companion = None      # built on first use by companion_curve

    def disc(self) -> Fraction:
        """b*(a^2 + 2b)*(a^2 + 4b), computed once by __init__."""
        return self._disc

    def contains(self, P: QuarticPoint) -> bool:
        """x^4 + a'x^2 + a'y^2 + y^4 = b' tested in integers: with x = p/q
        and y = r/s in lowest terms, times D*q^4*s^4 the equation reads
        D*(X^2 + Y^2) + Da'*W*(X + Y) = Db'*W^2, where X = p^2 s^2,
        Y = r^2 q^2 and W = q^2 s^2."""
        p, q = P.x.numerator, P.x.denominator
        r, s = P.y.numerator, P.y.denominator
        X, Y, W = (p * s) ** 2, (r * q) ** 2, (q * s) ** 2
        return self._D * (X * X + Y * Y) + self._Da * W * (X + Y) == self._Db * W * W

    def _require(self, P: QuarticPoint):
        if not self.contains(P):
            raise ValueError(f"point {P} is not on the quartic")

    def __repr__(self):
        return (f"x^4 + ({self.a_eff})x^2 + ({self.a_eff})y^2 + y^4"
                f" = {self.b_eff}")


def companion_curve(F: SymQuartic) -> EllipticCurve:
    """The elliptic curve y^2 = x(x^2 - 4a'x - (16b' + 4a'^2)) receiving the
    two covering maps; built once per quartic and cached on it."""
    if F._companion is None:
        a, b = F.a_eff, F.b_eff
        F._companion = EllipticCurve(-4 * a, -(16 * b + 4 * a * a), 0)
    return F._companion


def phi(i: int, P: QuarticPoint, F: SymQuartic) -> ECPoint:
    """The covering map: phi_1(x, y) = (-4x^2, x(8y^2 + 4a')), and phi_2 is
    phi_1 composed with the coordinate swap."""
    if i not in (1, 2):
        raise ValueError("map index must be 1 or 2")
    F._require(P)
    if i == 2:
        P = P.swap()
    a = F.a_eff
    img = ECPoint(-4 * P.x * P.x, P.x * (8 * P.y * P.y + 4 * a))
    require(companion_curve(F).contains(img),
            "phi image is not on the companion curve")
    return img


def biquadratic_roots(a, c) -> list[Fraction]:
    """The rational r with r^4 + a*r^2 + c = 0, in increasing order: r^2 is
    a root (-a +- s)/2 of t^2 + a*t + c, s a rational square root of
    a^2 - 4c, and r a rational square root of it."""
    s = rational_sqrt(a * a - 4 * c)
    if s is None:
        return []
    out = set()
    for t in {(-a + s) / 2, (-a - s) / 2}:
        r = rational_sqrt(t)
        if r is not None:
            out |= {r, -r}
    return sorted(out)


def phi_preimages(i: int, Q, F: SymQuartic) -> set[QuarticPoint]:
    """All rational points of F mapping to Q under phi_i.

    Requires -X/4 to be a rational square x^2; for x != 0 the second
    coordinate then forces y^2 = (Y/x - 4a')/8, and every candidate is
    verified on the curve exactly.  Q = (0, 0) is the image of the whole
    x = 0 (resp. y = 0) slice and is solved as a biquadratic.
    """
    if i not in (1, 2):
        raise ValueError("map index must be 1 or 2")
    if Q is INF:
        raise ValueError("no affine preimages of the point at infinity")
    if not companion_curve(F).contains(Q):
        raise ValueError("target point is not on the companion curve")
    a = F.a_eff
    pts: set[QuarticPoint] = set()
    if Q.x == 0:
        # phi_1 sends the x = 0 slice to the 2-torsion point (0, 0).
        for y in biquadratic_roots(a, -F.b_eff):
            pts.add(QuarticPoint(Fraction(0), y))
    else:
        t = rational_sqrt(-Q.x / 4)
        if t is None or t == 0:
            return set()
        for x in (t, -t):
            y2 = (Q.y / x - 4 * a) / 8
            s = rational_sqrt(y2)
            if s is None:
                continue
            for y in {s, -s}:
                P = QuarticPoint(x, y)
                if F.contains(P) and phi(1, P, F) == Q:
                    pts.add(P)
    if i == 2:
        pts = {P.swap() for P in pts}
    return pts


def kappa(a, b) -> Fraction:
    """Product over all places of max(|1/4|_v, |a/4|_v, |a|_v, |b|_v), for
    rationals a and b.

    At the archimedean place the factor is max(1/4, |a|, |b|).  At an odd
    prime p the term 1/4 is a unit, so the factor is p^k with k the larger
    of v_p(den a) and v_p(den b); at 2 it is 2^k with k the larger of
    2 + v_2(den a) (from 1/4 and a/4) and v_2(den b).  Their product over
    the primes is lcm(4 den(a), den(b)), which a = 0 or b = 0 leaves right
    since den(0) = 1.
    """
    an, ad, bn, bd = abs(a.numerator), a.denominator, abs(b.numerator), b.denominator
    num, den = 1, 4                     # the largest of 1/4, |a| and |b|
    if an * den > num * ad:
        num, den = an, ad
    if bn * den > num * bd:
        num, den = bn, bd
    return Fraction(num * math.lcm(4 * ad, bd), den)
