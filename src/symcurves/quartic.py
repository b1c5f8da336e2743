"""The symmetric quartic family x^4 + a*x^2 + a*y^2 + y^4 = b, its quadratic
twists, the companion elliptic curve, exact preimage solving under the two
covering maps, and the local height constant kappa.

Points and the coefficients a', b' are `Fraction`s; everything computed
from them here reads their numerators and denominators as ints and builds a
`Fraction` only for a value it returns.  `SymQuartic` holds only the twisted
equation: a', b', and the equation with denominators cleared (D, D*a',
D*b') for `contains`; `companion_curve` writes the curve's coefficients
from a' and b' the same way.  The covering map phi_1 is `_phi1`, whose
image is a pair of integer ratios; phi_2 is phi_1 after the swap, so its
preimages are the swaps of phi_1's.  `phi_preimages` checks its target on
the companion curve once, solves x and y by integer square roots of
ratios, and checks each preimage once on F and once against the target
(phi_1(P) = Q, by cross-multiplication); `biquadratic_roots` solves an
integer biquadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import _isqrt_exact, is_squarefree, require
from .elliptic import INF, EllipticCurve, _frac

_ZERO = Fraction(0)


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
        a, b = _frac(a), _frac(b)
        if alpha == 0 or not is_squarefree(alpha):
            raise ValueError("twist parameter must be a squarefree nonzero integer")
        # a' and b', computed once: the quartic is never reassigned.
        self.a_eff, self.b_eff = alpha * a, alpha * alpha * b
        an, ad = self.a_eff.numerator, self.a_eff.denominator
        bn, bd = self.b_eff.numerator, self.b_eff.denominator
        # b'(a'^2 + 2b')(a'^2 + 4b') = alpha^6 b(a^2 + 2b)(a^2 + 4b), over
        # the common denominator ad^4 bd^3.
        s, t = an * an * bd, bn * ad * ad
        if bn * (s + 2 * t) * (s + 4 * t) == 0:
            raise ValueError("degenerate family: b*(a^2+2b)*(a^2+4b) = 0")
        # The equation with denominators cleared, for `contains`: D and the
        # integers D*a', D*b'.
        D = self._D = math.lcm(ad, bd)
        self._Da, self._Db = an * (D // ad), bn * (D // bd)
        self._companion = None      # built on first use by companion_curve

    def contains(self, P: QuarticPoint) -> bool:
        """x^4 + a'x^2 + a'y^2 + y^4 = b' tested in integers: with x = p/q
        and y = r/s in lowest terms, times D*q^4*s^4 the equation reads
        D*(X^2 + Y^2) + Da'*W*(X + Y) = Db'*W^2, where X = p^2 s^2,
        Y = r^2 q^2 and W = q^2 s^2."""
        p, q = P.x.numerator, P.x.denominator
        r, s = P.y.numerator, P.y.denominator
        X, Y, W = (p * s) ** 2, (r * q) ** 2, (q * s) ** 2
        return self._D * (X * X + Y * Y) + self._Da * W * (X + Y) == self._Db * W * W

    def __repr__(self):
        return (f"x^4 + ({self.a_eff})x^2 + ({self.a_eff})y^2 + y^4"
                f" = {self.b_eff}")


def companion_curve(F: SymQuartic) -> EllipticCurve:
    """The elliptic curve y^2 = x(x^2 - 4a'x - (16b' + 4a'^2)) receiving the
    two covering maps; built once per quartic and cached on it."""
    if F._companion is None:
        an, ad = F.a_eff.numerator, F.a_eff.denominator
        bn, bd = F.b_eff.numerator, F.b_eff.denominator
        F._companion = EllipticCurve(
            Fraction(-4 * an, ad),
            Fraction(-4 * (4 * bn * ad * ad + an * an * bd), ad * ad * bd))
    return F._companion


def _phi1(P: QuarticPoint, F: SymQuartic) -> tuple[int, int, int, int]:
    """phi_1(P) as integers (Xn, Xd, Yn, Yd), X = Xn/Xd and Y = Yn/Yd with
    Xd, Yd > 0, not reduced: for x = p/q, y = r/s and a' = m/k in lowest
    terms, X = -4x^2 = -4p^2/q^2 and Y = x(8y^2 + 4a') = p(8r^2 k +
    4m s^2)/(q s^2 k)."""
    p, q = P.x.numerator, P.x.denominator
    r, s = P.y.numerator, P.y.denominator
    m, k = F.a_eff.numerator, F.a_eff.denominator
    ss = s * s
    return -4 * p * p, q * q, p * (8 * r * r * k + 4 * m * ss), q * ss * k


def biquadratic_roots(a, c) -> list[Fraction]:
    """The rational r with r^4 + a*r^2 + c = 0, in increasing order, for
    rationals a and c.  With k = lcm(den a, den c), z = k*r is a root of
    the monic integer biquadratic z^4 + A z^2 + C, A = a k^2 and C = c k^4,
    so z is an integer; z^2 is a root (-A +- S)/2 of t^2 + A t + C, where S
    is the integer square root of A^2 - 4C (S = A mod 2, so the halves are
    integers), and z an integer square root of it."""
    an, ad, cn, cd = a.numerator, a.denominator, c.numerator, c.denominator
    k = math.lcm(ad, cd)
    A, C = an * (k // ad) * k, cn * (k // cd) * k**3
    S = _isqrt_exact(A * A - 4 * C)
    if S is None:
        return []
    zs = set()
    for t in {(-A + S) // 2, (-A - S) // 2}:
        z = _isqrt_exact(t)
        if z is not None:
            zs |= {z, -z}
    return [Fraction(z, k) for z in sorted(zs)]


def phi_preimages(Q, F: SymQuartic) -> set[QuarticPoint]:
    """All rational points of F mapping to Q under phi_1; their swaps are
    the points mapping to Q under phi_2.

    Q = (X, Y) is checked on the companion curve once.  For X != 0,
    -X/4 = x^2 with X = n/d in lowest terms: as n and d are coprime, -n and
    d are squares u^2 and v^2, and x = +-u/(2v).  The second coordinate
    then forces y^2 = (Y/x - 4a')/8, a ratio of integers N/M, which is a
    square exactly when the integer N*M is.  Q = (0, 0) is the image of the
    whole x = 0 slice and is solved as the biquadratic y^4 + a'y^2 = b'.
    Each candidate P is checked on F once (`F.contains`) and phi_1(P) = Q
    once, by integer cross-multiplication of `_phi1`'s ratios with Q's.
    Both hold by construction (for x != 0, phi_1(P) = Q on the companion
    curve divided by x^2 is the equation of F), so either failing raises
    CheckFailed.
    """
    if Q is INF:
        raise ValueError("no affine preimages of the point at infinity")
    if not companion_curve(F).contains(Q):
        raise ValueError("target point is not on the companion curve")
    n, d = Q.x.numerator, Q.x.denominator
    yn, yd = Q.y.numerator, Q.y.denominator
    if n == 0:
        # phi_1 sends the x = 0 slice to the 2-torsion point (0, 0).
        candidates = [(_ZERO, y) for y in biquadratic_roots(F.a_eff, -F.b_eff)]
    else:
        u, v = _isqrt_exact(-n), _isqrt_exact(d)
        if u is None or v is None:
            return set()
        candidates = []
        m, k = F.a_eff.numerator, F.a_eff.denominator
        for w in (u, -u):
            # x = w/(2v), Y = yn/yd and a' = m/k: y^2 = (Y/x - 4a')/8 = N/M
            # with N = 2v yn k - 4m yd w and M = 8 yd w k, a square exactly
            # when N*M is, and then y = +-sqrt(N*M)/|M|.
            M = 8 * yd * w * k
            r = _isqrt_exact((2 * v * yn * k - 4 * m * yd * w) * M)
            if r is not None:
                x, y = Fraction(w, 2 * v), Fraction(r, abs(M))
                candidates += [(x, s) for s in {y, -y}]
    pts: set[QuarticPoint] = set()
    for x, y in candidates:
        P = QuarticPoint(x, y)
        require(F.contains(P), "pulled-back point is not on the quartic")
        Xn, Xd, Yn, Yd = _phi1(P, F)
        require(Xn * d == n * Xd and Yn * yd == yn * Yd,
                "phi_1 does not map the pulled-back point to its target")
        pts.add(P)
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
