"""Reference rational arithmetic for the tests: the quartic pull-back and
the curve invariants as they were written on `fractions.Fraction` before the
package moved them to integer numerators and denominators.

`phi` is the covering map, which no command computes forward any more;
`phi_preimages`, `rational_sqrt`, `biquadratic_roots` and
`equal_index_points` solve the pull-back by Fraction square roots;
`discriminant` and `cleared` are an `EllipticCurve`'s discriminant from
its b-invariants and its equation with denominators cleared.  The
differential tests compare the package's integer forms with these.
"""

import math
from fractions import Fraction

from symcurves.elliptic import INF, ECPoint
from symcurves.exact import require
from symcurves.quartic import QuarticPoint, companion_curve


def rational_sqrt(q):
    """The nonnegative rational square root of q, or None if q is not a
    square in Q."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def phi(i: int, P: QuarticPoint, F) -> ECPoint:
    """The covering map: phi_1(x, y) = (-4x^2, x(8y^2 + 4a')), and phi_2 is
    phi_1 composed with the coordinate swap."""
    if i not in (1, 2):
        raise ValueError("map index must be 1 or 2")
    if not F.contains(P):
        raise ValueError(f"point {P} is not on the quartic")
    if i == 2:
        P = P.swap()
    a = F.a_eff
    img = ECPoint(-4 * P.x * P.x, P.x * (8 * P.y * P.y + 4 * a))
    require(companion_curve(F).contains(img),
            "phi image is not on the companion curve")
    return img


def biquadratic_roots(a, c) -> list:
    """The rational r with r^4 + a*r^2 + c = 0, in increasing order."""
    a, c = Fraction(a), Fraction(c)
    s = rational_sqrt(a * a - 4 * c)
    if s is None:
        return []
    out = set()
    for t in {(-a + s) / 2, (-a - s) / 2}:
        r = rational_sqrt(t)
        if r is not None:
            out |= {r, -r}
    return sorted(out)


def phi_preimages(i: int, Q, F) -> set:
    """All rational points of F mapping to Q under phi_i: x^2 = -X/4, then
    y^2 = (Y/x - 4a')/8, each candidate checked on F and mapped forward;
    Q = (0, 0) pulls back to the x = 0 slice."""
    if i not in (1, 2):
        raise ValueError("map index must be 1 or 2")
    if Q is INF:
        raise ValueError("no affine preimages of the point at infinity")
    if not companion_curve(F).contains(Q):
        raise ValueError("target point is not on the companion curve")
    a = F.a_eff
    pts = set()
    if Q.x == 0:
        for y in biquadratic_roots(a, -F.b_eff):
            pts.add(QuarticPoint(Fraction(0), y))
    else:
        t = rational_sqrt(-Q.x / 4)
        if t is None or t == 0:
            return set()
        for x in (t, -t):
            s = rational_sqrt((Q.y / x - 4 * a) / 8)
            if s is None:
                continue
            for y in {s, -s}:
                P = QuarticPoint(x, y)
                if F.contains(P) and phi(1, P, F) == Q:
                    pts.add(P)
    if i == 2:
        pts = {P.swap() for P in pts}
    return pts


def equal_index_points(F) -> set:
    """The points of the classes n1 = +-n2 that the index window does not
    bound: x = +-y, and (xy)^2 = -(b + a^2/4) with xy != 0 solved through
    w = x^2 + y^2."""
    a, b = F.a_eff, F.b_eff
    out = set()
    for x in biquadratic_roots(a, -b / 2):
        out |= {QuarticPoint(x, x), QuarticPoint(x, -x)}
    s = rational_sqrt(-(b + a * a / 4))
    if s is not None and s != 0:
        for sigma in {s, -s}:
            d = rational_sqrt(a * a + 4 * (b + 2 * sigma * sigma))
            if d is None:
                continue
            for w in {(-a + d) / 2, (-a - d) / 2}:
                u = rational_sqrt(w + 2 * sigma)
                v = rational_sqrt(w - 2 * sigma)
                if u is None or v is None:
                    continue
                for su in (u, -u):
                    for sv in (v, -v):
                        out.add(QuarticPoint((su + sv) / 2, (su - sv) / 2))
    return {P for P in out if F.contains(P)}


def discriminant(a2, a4, a6) -> Fraction:
    """-b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6 of y^2 = x^3 + a2 x^2 +
    a4 x + a6, from its b-invariants."""
    a2, a4, a6 = Fraction(a2), Fraction(a4), Fraction(a6)
    b2, b4, b6 = 4 * a2, 2 * a4, 4 * a6
    b8 = 4 * a2 * a6 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def cleared(a2, a4, a6) -> tuple:
    """(D, (D*a2, D*a4, D*a6)) with D the lcm of the denominators."""
    cs = (Fraction(a2), Fraction(a4), Fraction(a6))
    D = math.lcm(*(c.denominator for c in cs))
    return D, tuple(int(D * c) for c in cs)
