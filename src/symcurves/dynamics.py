"""Orbit machinery for quadratic dynamics and the Chebyshev curves
X_d: T_d(x) + T_d(y) = 1: shifted-orbit intersections, the proven case
analysis for the rational points of X_d, and brute-force evidence scans.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# group.  Each proven point set must equal the exact scan of X_d over a
# window that holds {0, +-1, +-2}^2 (`chebyshev_curve_points`).
X4_GENERATOR = point(4, -16)
X5_POINTS = frozenset({(0, 1), (1, 0), (-1, 2), (2, -1)})

SMALL_SET = (0, 1, -1, 2, -2)

# An orbit tail stops before a value whose numerator or denominator has more
# bits: 2^14284 < 10^4300, so every kept value prints under Python's default
# 4,300-digit limit on int-to-str conversion.  A wandering orbit's heights
# roughly double per step, so the cap also bounds the work of a tail.
TAIL_BIT_CAP = 14_284


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


@dataclass
class OrbitTail:
    values: list
    cycled: bool
    cut: bool = False       # stopped before a value past TAIL_BIT_CAP


def _too_big(x: Fraction) -> bool:
    return max(x.numerator.bit_length(),
               x.denominator.bit_length()) > TAIL_BIT_CAP


def orbit_tail(pm: PolyMap, n: int, start, horizon: int) -> OrbitTail:
    """[f^n(start), f^(n+1)(start), ...] truncated at `horizon` values, with
    early stop and a cycle tag once a value repeats.  A tail is also cut,
    tagged `cut`, before a value past TAIL_BIT_CAP.  Before step n a repeat
    skips whole periods, so reaching step n takes at most the preperiod
    plus two periods of steps, however large n is."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Fraction(start)
    values, seen = [], set()
    first = {}          # the step of each value met before step n
    step = 0
    while step < n + horizon:
        if x in seen:
            return OrbitTail(values, True)
        if _too_big(x):
            return OrbitTail(values, False, cut=True)
        if step >= n:
            values.append(x)
            seen.add(x)
        elif x in first:
            # x recurs with this period, so whole periods up to step n
            # leave it unchanged: skip them.
            period = step - first[x]
            step += (n - step) // period * period
            first.clear()
            continue
        else:
            first[x] = step
        x = pm.f(x)
        step += 1
    return OrbitTail(values, x in seen)


def shifted_intersection(pm: PolyMap, ta: OrbitTail, tb: OrbitTail):
    """(L(ta) intersect tb, exact_flag) for the tails of O_{f,n}(alpha) and
    O_{f,n}(beta); exact when both orbits were detected periodic."""
    shifted = {pm.shift(x) for x in ta.values}
    return shifted & set(tb.values), ta.cycled and tb.cycled


@lru_cache(maxsize=1)
def _x4_certificate() -> PointCertificate:
    F = SymQuartic(-4, -3, 1)
    return determine_points(F, X4_GENERATOR, rank_claim=1)


def chebyshev_curve_points(d: int, scan_cap: int = 40) -> PointCertificate:
    """The rational points of X_d: T_d(x) + T_d(y) = 1 in the proven cases,
    checked against the exact scan of X_d; a conjectural evidence record
    otherwise.

    Cases: 3 | d is empty (covering to the trivial-Jacobian X_3); otherwise
    4 | d reduces through the two-cover enumeration on X_4, and 5 | d
    reduces to the certified X_5 list, both pulled back through the
    integral-point argument (`_pullback_pairs`).  A proven point set must
    equal `conjecture_scan(d, max(scan_cap, 2))`: every proven point lies
    in {0, +-1, +-2}^2, inside that window, and the scan finds exactly the
    integral points of X_d there, so the equality shows each proven point
    on X_d and no other point in the window; a failure raises CheckFailed.
    Outside the proven cases the record holds every point the scan finds
    to `scan_cap`.  The points are pairs of ints.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    _require_cap(scan_cap)
    if d % 3 == 0:
        pts, bound, window = set(), 0, 0
        conditions = ("imported certificate: the degree-3 curve has "
                      "trivial Jacobian Mordell-Weil group",)
    elif d % 4 == 0:
        base = _x4_certificate()
        pts = _pullback_pairs(d // 4, base.points)
        bound, window = base.index_bound, base.n_window
        conditions = base.conditional_on
    elif d % 5 == 0:
        pts, bound, window = _pullback_pairs(d // 5, X5_POINTS), 0, 0
        conditions = ("imported certificate: degree-5 point list from "
                      "a certified genus-2 computation",)
    else:
        return PointCertificate(
            points=conjecture_scan(d, scan_cap),
            index_bound=0, n_window=0,
            conditional_on=(f"bounded scan to cap {scan_cap} only",),
            status="conjectural-evidence",
        )
    found = conjecture_scan(d, max(scan_cap, 2))
    require(found <= pts, "bounded scan found a point outside the certificate")
    require(pts <= found, "pulled-back point is not on X_d")
    return PointCertificate(points=found, index_bound=bound,
                            n_window=window, conditional_on=conditions)


def _pullback_pairs(d_prime: int, base_pairs) -> set:
    """Every integral (x, y) with (T_{d'}(x), T_{d'}(y)) a base pair, as
    ints, for base coordinates in {0, +-1, +-2}: the growth floor
    |T_{d'}(x)| >= 7 for |x| >= 3 confines x and y to {0, +-1, +-2}, which
    T_{d'} maps into itself, so T_{d'} is evaluated there once and
    inverted.  The base pairs are the package's own certificates, so a
    coordinate outside {0, +-1, +-2} raises CheckFailed."""
    preimages = {t: [] for t in SMALL_SET}
    for x in SMALL_SET:
        preimages[cheb_eval(d_prime, x)].append(x)
    out = set()
    for u, v in base_pairs:
        xs, ys = preimages.get(u), preimages.get(v)
        require(xs is not None and ys is not None,
                "base coordinate outside {0, +-1, +-2}: "
                "growth bound does not apply")
        out.update((x, y) for x in xs for y in ys)
    return out


def _require_cap(cap: int):
    # A negative cap scans no x, so its record would hold nothing.
    if cap < 0:
        raise ValueError(f"scan cap must be >= 0, got {cap}")


def conjecture_scan(d: int, cap: int) -> frozenset:
    """The rational points of X_d whose x is an integer of absolute value at
    most the cap, found exhaustively by solving for y exactly, as int
    pairs.  Rational points with a non-integral x are not scanned; a caller
    that wants the points outside {0, +-1, +-2}^2 filters the set.

    T_d is evaluated once per scan, at 0, 1, ..., cap + 1, into one table,
    which is inverted into one dict from each value to every y with
    |y| <= cap + 1; for odd d the negative y are read through T_d(-y) =
    -T_d(y).  Each x is then answered by one lookup of 1 - T_d(x).  For
    even d, T_d is even, so x and y run over 0, 1, ... only and each point
    found brings its sign changes.  Such y are integers by monicity, and
    the window holds every one of them.  For |y| >= 3, (|y| - 1)^d <
    |T_d(y)| = |1 - T_d(x)|, which is at most 3 for |x| <= 2 and below
    |x|^d + 2 otherwise, so |y| <= |x| + 1 <= cap + 1.  And T_d(+-2) = +-2
    equals 1 - T_d(x) only for T_d(x) = -1, at x = +-1.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    _require_cap(cap)
    table = [cheb_eval(d, y) for y in range(cap + 2)]
    values = list(enumerate(table))         # (y, T_d(y))
    if d % 2:
        values += [(-y, -v) for y, v in values[1:]]
    solutions = {}
    for y, v in values:
        solutions.setdefault(v, []).append(y)
    found = set()
    for x, v in values:
        if -cap <= x <= cap:
            for y in solutions.get(1 - v, ()):
                found.add((x, y))
                if d % 2 == 0:
                    found.update(((-x, y), (x, -y), (-x, -y)))
    return frozenset(found)
