"""Orbit machinery for quadratic dynamics and the Chebyshev curves
X_{d,k}: T_d(x) + T_d(y) = k: shifted-orbit intersections, rational
preperiodic points, the proven case analysis for the rational points of
X_d (k = 1), the nonsingularity criterion, and brute-force evidence scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .chebyshev import cheb_eval
from .demjanenko import PointCertificate, determine_points
from .exact import IntPoly, require
from .quartic import SymQuartic
from .elliptic import point

# Externally certified inputs for the proven cases.  The X_4 companion
# curve has Mordell-Weil rank one with the recorded generator; the X_5
# point list comes from a certified genus-2 computation; X_3 is empty
# because its Jacobian y^2 = x^3 - 27x + 189/4 has trivial Mordell-Weil
# group.  Each import is re-verified on-curve and guarded by bounded scans.
X4_GENERATOR = point(4, -16)
X5_POINTS = frozenset({(0, 1), (1, 0), (-1, 2), (2, -1)})

SMALL_SET = (0, 1, -1, 2, -2)


@dataclass(frozen=True)
class PolyMap:
    """A polynomial map together with an affine shift L(x) = u + v*x."""

    f: IntPoly
    u: Fraction = Fraction(0)
    v: Fraction = Fraction(1)

    def __post_init__(self):
        if self.f.degree < 2:
            raise ValueError("orbit machinery needs deg f >= 2")
        object.__setattr__(self, "u", Fraction(self.u))
        object.__setattr__(self, "v", Fraction(self.v))

    def shift(self, x: Fraction) -> Fraction:
        return self.u + self.v * x


@dataclass(frozen=True)
class ChebCurve:
    d: int
    k: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "k", Fraction(self.k))


@dataclass
class OrbitTail:
    values: list
    cycled: bool

    def as_set(self) -> set:
        return set(self.values)


def orbit_tail(pm: PolyMap, n: int, start, horizon: int) -> OrbitTail:
    """[f^n(start), f^(n+1)(start), ...] truncated at `horizon` values, with
    early stop and a cycle tag once a value repeats."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Fraction(start)
    for _ in range(n):
        x = pm.f(x)
    values, seen = [], set()
    for _ in range(horizon):
        if x in seen:
            return OrbitTail(values, True)
        values.append(x)
        seen.add(x)
        x = pm.f(x)
    return OrbitTail(values, x in seen)


def shifted_intersection(pm: PolyMap, n: int, alpha, beta, horizon: int):
    """(L(O_{f,n}(alpha)) intersect O_{f,n}(beta), exact_flag); exact when
    both orbits were detected periodic within the horizon."""
    ta = orbit_tail(pm, n, alpha, horizon)
    tb = orbit_tail(pm, n, beta, horizon)
    shifted = {pm.shift(x) for x in ta.values}
    return shifted & tb.as_set(), ta.cycled and tb.cycled


def preperiodic_points(f: IntPoly, height_cap: int) -> set[int]:
    """All rational preperiodic points of a monic integer quadratic with
    numerator/denominator at most height_cap, as ints.  Such points are
    integers, so the scan runs over |r| <= height_cap with an exact escape
    radius."""
    if f.degree != 2 or f.coeffs[-1] != 1:
        raise ValueError("monic integer quadratic required")
    b, c = abs(f.coeffs[1]), abs(f.coeffs[0])
    # |f(r)| > |r| outside this radius, so escape is monotone past it.
    radius = (b + 1 + math.isqrt((b + 1) ** 2 + 4 * c)) // 2 + 1
    out = set()
    for r in range(-height_cap, height_cap + 1):
        x, seen = r, set()
        while abs(x) <= max(radius, abs(r)) and x not in seen:
            seen.add(x)
            x = f(x)
        if x in seen:
            out.add(r)
    return out


def integral_pullback(d_prime: int, targets) -> set[int]:
    """All integers x0 with T_{d'}(x0) in targets, as ints, for targets inside
    {0, +-1, +-2}: the growth floor |T_{d'}(x)| >= 7 for |x| >= 3 confines
    the scan to {0, +-1, +-2}."""
    targets = {t if t in SMALL_SET else Fraction(t) for t in targets}
    if not targets <= set(SMALL_SET):
        raise ValueError("targets outside {0, +-1, +-2}: growth bound "
                         "does not apply")
    return {x for x in SMALL_SET if cheb_eval(d_prime, x) in targets}


@lru_cache(maxsize=1)
def _x4_certificate() -> PointCertificate:
    F = SymQuartic(-4, -3, 1)
    return determine_points(F, X4_GENERATOR, rank_claim=1)


def chebyshev_curve_points(d: int, scan_cap: int = 40) -> PointCertificate:
    """The rational points of X_d: T_d(x) + T_d(y) = 1 in the proven cases,
    with a bounded-scan consistency guard; a conjectural evidence record
    otherwise.

    Cases: 3 | d is empty (covering to the trivial-Jacobian X_3); otherwise
    4 | d reduces through the two-cover enumeration on X_4, and 5 | d
    reduces to the certified X_5 list, both pulled back through the
    integral-point argument and the special-value table.  Every proven
    point set is checked on X_d and against the guard scan; a failure
    raises CheckFailed.  The points are pairs of ints.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    if d % 3 == 0:
        pts, bound, window = set(), 0, 0
        conditions = ("imported certificate: the degree-3 curve has "
                      "trivial Jacobian Mordell-Weil group",)
    elif d % 4 == 0:
        base = _x4_certificate()
        pts = _pullback_pairs(d // 4, {(P.x, P.y) for P in base.points})
        bound, window = base.index_bound, base.n_window
        conditions = base.conditional_on
    elif d % 5 == 0:
        pts, bound, window = _pullback_pairs(d // 5, X5_POINTS), 0, 0
        conditions = ("imported certificate: degree-5 point list from "
                      "a certified genus-2 computation",)
    else:
        evidence = conjecture_scan(d, scan_cap)
        return PointCertificate(
            points=frozenset(evidence.inside_points),
            index_bound=0, n_window=0,
            conditional_on=(f"bounded scan to cap {scan_cap} only",),
            status="conjectural-evidence",
        )
    for x, y in pts:
        require(cheb_eval(d, x) + cheb_eval(d, y) == 1,
                "pulled-back point is not on X_d")
    _guard_scan(d, pts, scan_cap)
    return PointCertificate(points=frozenset(pts), index_bound=bound,
                            n_window=window, conditional_on=conditions)


def _pullback_pairs(d_prime: int, base_pairs) -> set:
    out = set()
    for u, v in base_pairs:
        xs = integral_pullback(d_prime, {u})
        ys = integral_pullback(d_prime, {v})
        out |= {(x, y) for x in xs for y in ys}
    return out


def _guard_scan(d: int, certified: set, cap: int):
    evidence = conjecture_scan(d, cap)
    require(evidence.inside_points <= certified
            and evidence.exceptional <= certified,
            "bounded scan found a point outside the certificate")


@dataclass
class ScanEvidence:
    d: int
    cap: int
    inside_points: set = field(default_factory=set)
    exceptional: set = field(default_factory=set)


def _integer_root(t: int, d: int) -> int:
    """floor(t^(1/d)) for t >= 0, fixed one binary digit at a time from the
    top: the root is below 2^ceil(bits(t)/d)."""
    r = 0
    for k in reversed(range(-(-t.bit_length() // d))):
        c = r | (1 << k)
        if c ** d <= t:
            r = c
    return r


def _table_value(d: int, table, y: int) -> int:
    """T_d(y) read from table[|y|], where table[a] = T_d(a), through the
    parity T_d(-y) = (-1)^d T_d(y); evaluated directly past the table."""
    a = -y if y < 0 else y
    v = table[a] if a < len(table) else cheb_eval(d, a)
    return -v if y < 0 and d % 2 else v


def _solve_cheb_value(d: int, t: int, small_values, table) -> set[int]:
    """All rational y with T_d(y) = t for an integer target t, as ints.

    Such y are integers by monicity.  `small_values` pairs each y in
    SMALL_SET with T_d(y), and `table` holds T_d(0), T_d(1), ... as far as
    the caller evaluated them, possibly none.  For y >= 3,
    (y-1)^d < T_d(y) < y^d + 1, so with r = floor(|t|^(1/d)) the only
    candidates are r and r + 1, each read from the table (or evaluated past
    its end) and checked exactly against |t|.  By the parity of T_d a match
    y gives -y as well for even d, and the sign of t for odd d.
    """
    out = {y for y, v in small_values if v == t}
    target = -t if d % 2 and t < 0 else t
    if target > 0:
        r = _integer_root(target, d)
        for y in (r, r + 1):
            if y >= 3 and _table_value(d, table, y) == target:
                out |= {y, -y} if d % 2 == 0 else {y if t > 0 else -y}
    return out


def conjecture_scan(d: int, cap: int) -> ScanEvidence:
    """Exhaustive scan for the rational points of X_d whose x is an integer
    of absolute value at most the cap, solving for y exactly; the points are
    int pairs, and those outside {0,+-1,+-2}^2 are recorded as exceptional.
    Rational points with a non-integral x are not scanned.

    T_d is evaluated once per scan, at 0, 1, ..., cap + 1, into one table.
    Negative arguments are read through parity, and every candidate y >= 3
    lies in the table: it has (y - 1)^d <= |1 - T_d(x)|, which is at most 3
    for |x| <= 2 and below |x|^d + 2 otherwise, so y <= cap + 1.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    ev = ScanEvidence(d, cap)
    small = set(SMALL_SET)
    table = [cheb_eval(d, x) for x in range(cap + 2)]
    small_values = [(y, _table_value(d, table, y)) for y in SMALL_SET]
    for x in range(-cap, cap + 1):
        t = 1 - _table_value(d, table, x)
        for y in _solve_cheb_value(d, t, small_values, table):
            if x in small and y in small:
                ev.inside_points.add((x, y))
            else:
                ev.exceptional.add((x, y))
    return ev


def nonsingular(dk: ChebCurve) -> bool:
    """Nonsingularity of X_{d,k} over Q-bar: certified whenever
    k is not in {0, 4, -4} (singular points force T_d' to vanish in both
    variables, pinning T_d to +-2 at each, so k must be a sum of two
    critical values)."""
    if dk.d < 2:
        raise ValueError("d must be >= 2")
    return dk.k not in (0, 4, -4)
