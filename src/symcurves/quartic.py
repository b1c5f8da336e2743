"""The symmetric quartic family x^4 + a*x^2 + a*y^2 + y^4 = b, its quadratic
twists, the two covering maps to the companion elliptic curve, exact preimage
solving, the local height constant kappa, and the higher-degree symmetric
family with its hyperelliptic membership identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import factorize, is_squarefree, p_valuation, rational_sqrt, require
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


def qpoint(x, y) -> QuarticPoint:
    return QuarticPoint(Fraction(x), Fraction(y))


class SymQuartic:
    """F: x^4 + a'x^2 + a'y^2 + y^4 = b' where (a', b') = (alpha*a, alpha^2*b)
    is the twist of (a, b) by a squarefree integer alpha (alpha = 1 untwisted).
    """

    def __init__(self, a, b, alpha: int = 1):
        self.a, self.b = Fraction(a), Fraction(b)
        if alpha == 0 or not is_squarefree(alpha):
            raise ValueError("twist parameter must be a squarefree nonzero integer")
        self.alpha = alpha
        if self.disc() == 0:
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
        self._bad_primes = None     # and by localglobal.bad_primes

    def disc(self) -> Fraction:
        a, b = self.a, self.b
        return b * (a * a + 2 * b) * (a * a + 4 * b)

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


def _y_candidates_on_vertical(F: SymQuartic, x0: Fraction) -> list[Fraction]:
    # Solve y^4 + a'y^2 + (x0^4 + a'x0^2 - b') = 0 exactly over Q.
    a = F.a_eff
    c = x0**4 + a * x0 * x0 - F.b_eff
    disc = a * a - 4 * c
    s = rational_sqrt(disc)
    if s is None:
        return []
    out = []
    for t in {(-a + s) / 2, (-a - s) / 2}:
        r = rational_sqrt(t)
        if r is not None:
            out.extend({r, -r})
    return sorted(set(out))


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
        for y in _y_candidates_on_vertical(F, Fraction(0)):
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
    """Product over all places of max(|1/4|_v, |a/4|_v, |a|_v, |b|_v).

    Only the archimedean place and primes dividing 2 or the numerators and
    denominators of a, b contribute a factor different from 1.
    """
    a, b = Fraction(a), Fraction(b)
    arch = max(Fraction(1, 4), abs(a) / 4, abs(a), abs(b))
    primes = {2}
    for q in (a, b):
        if q != 0:
            primes |= set(factorize(q.numerator))
            primes |= set(factorize(q.denominator))
    total = arch
    terms = [Fraction(1, 4), a / 4, a, b]
    for p in sorted(primes):
        total *= max(Fraction(p) ** -p_valuation(t, p)
                     for t in terms if t != 0)
    return total


def projective_height(P: QuarticPoint) -> int:
    """H([x, y, 1]) = max abs of the coprime integer coordinates."""
    den = (P.x.denominator * P.y.denominator
           // math.gcd(P.x.denominator, P.y.denominator))
    xs = P.x.numerator * (den // P.x.denominator)
    ys = P.y.numerator * (den // P.y.denominator)
    g = math.gcd(math.gcd(abs(xs), abs(ys)), den)
    return max(abs(xs) // g, abs(ys) // g, den // g)


def height_sandwich_check(P: QuarticPoint, F: SymQuartic) -> bool:
    """Exact check of H_F^2 / (12*kappa) <= H(x(phi_i(P))) <= 24*H_F^2 for
    both covering maps (the multiplicative form of the height sandwich)."""
    F._require(P)
    k = kappa(F.a_eff, F.b_eff)
    hf = projective_height(P)
    for i in (1, 2):
        img = phi(i, P, F)
        if img is INF or img.x == 0:
            he = 1
        else:
            he = max(abs(img.x.numerator), img.x.denominator)
        if not (Fraction(hf * hf) / (12 * k) <= he <= 24 * hf * hf):
            return False
    return True


def phi_sum_x_closed_form(P: QuarticPoint, F: SymQuartic):
    """x(phi_1(P) + phi_2(P)) via the closed form

        ((2xy)^2 + (2x+2y)^2 (x^2+y^2) + 4a(x^2+xy+y^2) + a^2)
        / (x+y)^2,

    at z = 1; returns the string "infinity" at the pole x + y = 0."""
    F._require(P)
    x, y, a = P.x, P.y, F.a_eff
    if x + y == 0:
        return "infinity"
    num = ((2 * x * y) ** 2 + (2 * x + 2 * y) ** 2 * (x * x + y * y)
           + 4 * a * (x * x + x * y + y * y) + a * a)
    return num / (x + y) ** 2


@dataclass(frozen=True)
class HigherSym:
    """C: X^2m + aX^m + aY^m + Y^2m = b with its companion hyperelliptic
    curve B: y^2 = -x^2m - ax^m + (a^2/4 + b), for odd m >= 3."""

    m: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.m < 3 or self.m % 2 == 0:
            raise ValueError("m must be an odd integer >= 3")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def on_c(self, x: Fraction, y: Fraction) -> bool:
        m = self.m
        return x**(2 * m) + self.a * x**m + self.a * y**m + y**(2 * m) == self.b

    def on_b(self, x: Fraction, y: Fraction) -> bool:
        m = self.m
        return y * y == -(x**(2 * m)) - self.a * x**m + (self.a * self.a / 4 + self.b)


def higher_membership(H: HigherSym, x, y) -> bool:
    """For (x, y) on C, check that (x, y^m + a/2) and (y, x^m + a/2) lie on
    B — the identity that makes both covering maps land in the Jacobian."""
    x, y = Fraction(x), Fraction(y)
    if not H.on_c(x, y):
        raise ValueError("point is not on the higher symmetric curve")
    return (H.on_b(x, y**H.m + H.a / 2)
            and H.on_b(y, x**H.m + H.a / 2))


def infinity_points(H: HigherSym) -> dict:
    """Rational points at infinity of C: classes [1, zeta, 0] with
    zeta^2m = -1, which never has rational solutions."""
    has_rational = any(Fraction(z) ** (2 * H.m) == -1 for z in (1, -1))
    return {
        "classes": "[1, zeta, 0] with zeta^(2m) + 1 = 0",
        "rational": has_rational,
        "note": "no rational point at infinity (x^(2m) = -1 has no real root)",
    }
