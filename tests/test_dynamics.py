import functools
import math
from fractions import Fraction

import pytest

from symcurves import chebyshev, dynamics
from symcurves.chebyshev import cheb_eval
from symcurves.dynamics import (
    OrbitTail,
    SMALL_SET,
    TAIL_BIT_CAP,
    PolyMap,
    X5_POINTS,
    _pullback_pairs,
    _x4_certificate,
    chebyshev_curve_points,
    conjecture_scan,
    orbit_tail,
    shifted_intersection,
)
from symcurves.exact import IntPoly
from test_chebyshev import _cheb_coeffs
from test_elliptic import qpoly_ext_gcd
from test_exact import derivative

F_SQUARE_MINUS_2 = IntPoly([-2, 0, 1])
PM = PolyMap(F_SQUARE_MINUS_2, Fraction(1), Fraction(-1))  # L(x) = 1 - x

TWELVE = {(Fraction(x), Fraction(y)) for x, y in [
    (0, 1), (0, -1), (2, 1), (2, -1), (-2, 1), (-2, -1),
    (1, 0), (-1, 0), (1, 2), (1, -2), (-1, 2), (-1, -2)]}
EIGHT = {(Fraction(x), Fraction(y)) for x, y in [
    (1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1)]}
FOUR = {(Fraction(x), Fraction(y)) for x, y in [
    (0, 1), (1, 0), (-1, 2), (2, -1)]}


def preperiodic_points(f: IntPoly, height_cap: int) -> set[int]:
    """Reference: all rational preperiodic points of a monic integer
    quadratic with numerator/denominator at most height_cap, as ints.  Such
    points are integers, so the scan runs over |r| <= height_cap with an
    exact escape radius."""
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


def nonsingular(d: int, k) -> bool:
    """Reference: X_{d,k}: T_d(x) + T_d(y) = k is nonsingular over Q-bar
    whenever k is not in {0, 4, -4}.  A singular point forces T_d' to vanish
    in both variables, pinning T_d to +-2 at each, so k must be a sum of two
    critical values."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return k not in (0, 4, -4)


def test_orbit_tail_examples():
    t = orbit_tail(PM, 2, Fraction(0), 20)
    assert t.values == [Fraction(2)] and t.cycled
    t = orbit_tail(PM, 2, Fraction(1), 20)
    assert t.values == [Fraction(-1)] and t.cycled
    t = orbit_tail(PM, 0, Fraction(2), 5)
    assert t.values == [Fraction(2)] and t.cycled


def test_orbit_tail_partial():
    t = orbit_tail(PM, 0, Fraction(3), 4)
    assert t.values == [Fraction(3), Fraction(7), Fraction(47), Fraction(2207)]
    assert not t.cycled


def test_orbit_tail_validation():
    with pytest.raises(ValueError):
        orbit_tail(PM, 2, Fraction(0), 0)
    with pytest.raises(ValueError):
        PolyMap(IntPoly([1, 1]))


def intersect(pm, n, alpha, beta, horizon):
    return shifted_intersection(pm, orbit_tail(pm, n, alpha, horizon),
                                orbit_tail(pm, n, beta, horizon))


def test_shifted_intersection_example():
    meet, exact = intersect(PM, 2, Fraction(-1), Fraction(0), 20)
    assert meet == {Fraction(2)} and exact
    ident = PolyMap(F_SQUARE_MINUS_2)  # identity shift
    meet, exact = intersect(ident, 2, Fraction(0), Fraction(0), 20)
    assert meet == {Fraction(2)} and exact
    meet, exact = intersect(PM, 0, Fraction(5), Fraction(3), 4)
    assert meet == set() and not exact


def test_orbit_tail_stops_at_the_bit_cap():
    # f^k(3) has about 1.39 * 2^k bits: the tail from 3 keeps f^2(3) ..
    # f^13(3) and is cut, not cycled, before f^14(3), whatever the horizon.
    assert 2**TAIL_BIT_CAP < 10**4300 < 2**(TAIL_BIT_CAP + 1)
    t = orbit_tail(PM, 2, Fraction(3), 32)
    assert len(t.values) == 12 and not t.cycled
    assert t.values == orbit_tail(PM, 2, Fraction(3), 12).values
    assert all(x.numerator.bit_length() <= TAIL_BIT_CAP for x in t.values)
    assert F_SQUARE_MINUS_2(t.values[-1]).numerator.bit_length() > TAIL_BIT_CAP
    # The cap also ends the n steps before the tail, and it binds the
    # denominator as much as the numerator.
    assert orbit_tail(PM, 40, Fraction(3), 5).values == []
    t = orbit_tail(PM, 0, Fraction(1, 3), 32)
    assert not t.cycled and len(t.values) == 14
    assert t.values[-1].denominator.bit_length() <= TAIL_BIT_CAP


def test_orbit_tail_says_whether_it_was_cut():
    # Only the bit cap sets `cut`; a tail that cycles or runs out of horizon
    # is not cut, even when its last value is large.
    assert orbit_tail(PM, 2, Fraction(3), 32).cut
    assert orbit_tail(PM, 40, Fraction(3), 5).cut
    assert not orbit_tail(PM, 2, Fraction(3), 12).cut
    assert not orbit_tail(PM, 2, Fraction(0), 20).cut
    assert not orbit_tail(PM, 0, Fraction(3), 4).cut


def _direct_tail(pm, n, start, horizon):
    # Reference: every step of the walk up to n + horizon, no period skipped.
    x = Fraction(start)
    values, seen = [], set()
    for step in range(n + horizon):
        if x in seen:
            return OrbitTail(values, True)
        if max(x.numerator.bit_length(),
               x.denominator.bit_length()) > TAIL_BIT_CAP:
            return OrbitTail(values, False, cut=True)
        if step >= n:
            values.append(x)
            seen.add(x)
        x = pm.f(x)
    return OrbitTail(values, x in seen)


class _MemoPoly(IntPoly):
    # Each value is mapped once, however many walks of the grid reach it.
    __slots__ = ("memo",)

    def __init__(self, coeffs):
        super().__init__(coeffs)
        self.memo = {}

    def __call__(self, x):
        key = x.numerator, x.denominator     # cheaper to hash than x
        if key not in self.memo:
            self.memo[key] = super().__call__(x)
        return self.memo[key]


def test_orbit_tail_matches_a_direct_walk():
    # x^2 - 2, x^2 - 1, x^2, x^2 - 3, x^3 + x and -x^2 - 2: fixed points,
    # 2-cycles, preperiodic starts and wandering orbits cut at the bit cap.
    maps = [PolyMap(_MemoPoly(c)) for c in ([-2, 0, 1], [-1, 0, 1],
                                            [0, 0, 1], [-3, 0, 1],
                                            [0, 1, 0, 1], [-2, 0, -1])]
    starts = [Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)]
    for pm in maps:
        for start in starts:
            for n in range(30):
                for horizon in (1, 2, 3, 5, 32):
                    assert (orbit_tail(pm, n, start, horizon)
                            == _direct_tail(pm, n, start, horizon)), (
                        pm.f, start, n, horizon)


def test_preperiodic_points():
    assert preperiodic_points(F_SQUARE_MINUS_2, 100) == \
        {Fraction(v) for v in (0, 1, -1, 2, -2)}
    assert preperiodic_points(IntPoly([1, 0, 1]), 100) == set()
    assert preperiodic_points(IntPoly([0, 0, 1]), 10) == \
        {Fraction(0), Fraction(1), Fraction(-1)}
    with pytest.raises(ValueError):
        preperiodic_points(IntPoly([0, 0, 2]), 10)
    with pytest.raises(ValueError):
        preperiodic_points(IntPoly([0, 1]), 10)


def test_pullback_pairs():
    # (T_2(x), T_2(y)) = (-1, 2) at x = +-1, y = +-2, and T_2(0) = -2.
    assert _pullback_pairs(2, {(-1, 2), (Fraction(-2), -1)}) == \
        {(1, 2), (1, -2), (-1, 2), (-1, -2), (0, -1), (0, 1)}
    full = {(u, v) for u in SMALL_SET for v in SMALL_SET}
    assert _pullback_pairs(1, full) == full
    assert _pullback_pairs(5, {(Fraction(1), 0)}) == {(1, 0)}
    assert _pullback_pairs(7, {(1, 1)}) == {(1, 1)}
    assert _pullback_pairs(4, {(1, 1)}) == set()       # T_4 misses 1 on Z
    assert all(type(c) is int
               for P in _pullback_pairs(4, {(Fraction(2), Fraction(-2))})
               for c in P)
    for bad in ({(3, 0)}, {(0, Fraction(1, 2))}, {(1, 0), (-1, 7)}):
        with pytest.raises(ValueError, match="growth bound"):
            _pullback_pairs(2, bad)


def test_chebyshev_curve_points_cases():
    assert chebyshev_curve_points(12).points == frozenset()
    assert chebyshev_curve_points(9).points == frozenset()
    assert set(chebyshev_curve_points(8).points) == TWELVE
    assert set(chebyshev_curve_points(4).points) == TWELVE
    assert set(chebyshev_curve_points(5).points) == FOUR
    assert set(chebyshev_curve_points(25).points) == FOUR
    assert set(chebyshev_curve_points(10).points) == EIGHT
    with pytest.raises(ValueError):
        chebyshev_curve_points(2)


def test_x_d_certificates_hold_plain_ints(monkeypatch):
    # T_d is monic with integer coefficients, so no X_d case needs Fraction:
    # with it unusable in the Chebyshev and X_d layers, every case still
    # certifies, and every coordinate is an int.
    def no_fraction(*args):
        raise AssertionError("Fraction on the integral X_d path")

    monkeypatch.setattr(chebyshev, "Fraction", no_fraction)
    monkeypatch.setattr(dynamics, "Fraction", no_fraction)
    for d in (3, 4, 5, 7, 20, 25, 97, 200):
        cert = chebyshev_curve_points(d)
        assert all(type(c) is int for P in cert.points for c in P), d


def test_sorted_points_orders_pairs_and_quartic_points():
    # X_d certificates hold (x, y) pairs, the X_4 quartic certificate
    # QuarticPoints; both sort by (x, y).
    for d, expected in ((20, TWELVE), (25, FOUR)):
        pts = chebyshev_curve_points(d).sorted_points()
        assert pts == sorted(expected), d
    quartic = _x4_certificate().sorted_points()
    assert [(P.x, P.y) for P in quartic] == sorted(TWELVE)


def test_point_counts_in_theorem_range():
    for d in (4, 5, 8, 9, 10, 12, 15, 16, 20, 25, 35, 50):
        n = len(chebyshev_curve_points(d).points)
        assert n in (0, 4, 8, 12)


def test_conjectural_case():
    cert = chebyshev_curve_points(7, scan_cap=60)
    assert cert.status == "conjectural-evidence"
    assert set(cert.points) == FOUR  # odd-d pattern evidence


def test_covering_compatibility():
    # Points of X_d map onto points of X_e under T_{d/e} coordinate-wise.
    for d, e in ((8, 4), (16, 4), (10, 5), (50, 10), (25, 5)):
        dp = d // e
        big = chebyshev_curve_points(d).points
        small = chebyshev_curve_points(e).points
        for x, y in big:
            assert (cheb_eval(dp, x), cheb_eval(dp, y)) in small


def test_x5_import_on_curve():
    for x, y in X5_POINTS:
        assert cheb_eval(5, x) + cheb_eval(5, y) == 1


def test_genus2_substitution_identity():
    # T_5(x) + T_5(y) in the symmetric coordinates u = x+y, v = x^2+y^2:
    # -(1/4)u^5 + (5/2)u^3 + (5/4)uv^2 - (15/2)uv + 5u, verified symbolically.
    import sympy

    x, y = sympy.symbols("x y")
    u, v = x + y, x * x + y * y
    t5 = lambda t: t**5 - 5 * t**3 + 5 * t
    expr = (sympy.Rational(-1, 4) * u**5 + sympy.Rational(5, 2) * u**3
            + sympy.Rational(5, 4) * u * v**2 - sympy.Rational(15, 2) * u * v
            + 5 * u)
    assert sympy.expand(expr - (t5(x) + t5(y))) == 0
    # and the birational image points satisfy y^2 = 5x^6 - 50x^4 + 125x^2 + 20x
    for yy in (10, -10):
        assert yy * yy == 5 - 50 + 125 + 20


def test_nonsingular_criterion():
    assert nonsingular(4, Fraction(1))
    assert not nonsingular(4, Fraction(4))
    assert not nonsingular(5, Fraction(0))
    assert nonsingular(7, Fraction(3))
    with pytest.raises(ValueError):
        nonsingular(1, Fraction(1))


def _coprime(a, b):
    # Reference: whether a and b share no root, by the extended Euclid over
    # Fraction (the gcd it returns is monic).
    return qpoly_ext_gcd(a.coeffs, b.coeffs)[0] == [1]


def _critical_values(d):
    # Reference: the s in {2, -2} with T_d - s and T_d' sharing a root.
    td = _cheb_coeffs(d)
    deriv = derivative(td)
    return {s for s in (2, -2) if not _coprime(td - IntPoly([s]), deriv)}


def test_nonsingular_statement_by_critical_values():
    # The criterion's argument, checked exactly: T_d takes only the values
    # +-2 at its critical points, so a singular X_{d,k} has k in {0, 4, -4};
    # and every k the criterion calls nonsingular is no sum of two of them.
    for d in range(2, 13):
        crits = _critical_values(d)
        assert crits == ({-2} if d == 2 else {2, -2}), d
        td = _cheb_coeffs(d)
        for s in (1, -1, 0, 3):
            assert _coprime(td - IntPoly([s]), derivative(td))
        sums = {s + t for s in crits for t in crits}
        assert sums <= {0, 4, -4}
        for k in [Fraction(k) for k in range(-6, 7)] + [Fraction(1, 2)]:
            if nonsingular(d, k):
                assert k not in sums, (d, k)


def test_nonsingular_vs_resultants():
    # Independent check with resultants: the singular system
    # {T_d(x)+T_d(y)-k, T_d'(x), T_d'(y)} has a solution iff the resultant
    # chain vanishes; compare against the criterion for d <= 8.
    import sympy

    x, y = sympy.symbols("x y")
    for d in range(2, 9):
        td = sympy.Poly(_cheb_coeffs(d).coeffs[::-1], x).as_expr()
        tdy = td.subs(x, y)
        dtd = sympy.diff(td, x)
        dtdy = sympy.diff(tdy, y)
        for k in (0, 1, 4, -4, 3):
            r1 = sympy.resultant(td + tdy - k, dtdy, y)
            r2 = sympy.resultant(r1, dtd, x)
            singular = (r2 == 0)
            if nonsingular(d, Fraction(k)):
                assert not singular, (d, k)


def test_conjecture_scan():
    ev = conjecture_scan(7, 100)
    assert ev.exceptional == set()
    assert ev.inside_points == FOUR
    ev4 = conjecture_scan(4, 200)
    assert ev4.exceptional == set()
    assert ev4.inside_points == TWELVE
    ev3 = conjecture_scan(3, 200)
    assert ev3.exceptional == set() and ev3.inside_points == set()
    ev11 = conjecture_scan(11, 60)
    assert ev11.exceptional == set()
    assert ev11.inside_points == FOUR
    assert conjecture_scan(7, 0).inside_points == {(0, 1)}
    with pytest.raises(ValueError, match="scan cap must be >= 0"):
        conjecture_scan(7, -1)


def _cheb_table(d, bound):
    # T_d(y) for |y| <= bound by the three-term recurrence from T_0 = 2,
    # independent of the library's evaluator.
    table = {}
    for y in range(0, bound + 1):
        prev, cur = 2, y
        for _ in range(d - 1):
            prev, cur = cur, y * cur - prev
        table[y] = cur
        table[-y] = cur if d % 2 == 0 else -cur
    return table


def _integer_root(t: int, d: int) -> int:
    """Reference: floor(t^(1/d)) for t >= 0, fixed one binary digit at a
    time from the top: the root is below 2^ceil(bits(t)/d)."""
    r = 0
    for k in reversed(range(-(-t.bit_length() // d))):
        c = r | (1 << k)
        if c ** d <= t:
            r = c
    return r


def test_integer_root():
    for d in range(1, 12):
        for t in range(0, 3000):
            r = _integer_root(t, d)
            assert r ** d <= t < (r + 1) ** d, (t, d)
    for d in (2, 3, 7, 64, 67, 200):
        for r in (2, 3, 41, 10**6 + 3, 10**30 + 7):
            assert _integer_root(r ** d, d) == r
            assert _integer_root(r ** d - 1, d) == r - 1
            assert _integer_root(r ** d + 1, d) == r


def test_conjecture_scan_matches_bruteforce():
    # (|y| - 1)^d < |T_d(y)| <= |T_d(x)| + 1 < cap^d + 2 bounds |y| <= cap + 1.
    small = set(SMALL_SET)
    for d in range(3, 13):
        for cap in (5, 40):
            table = _cheb_table(d, cap + 1)
            found = {(Fraction(x), Fraction(y))
                     for x in range(-cap, cap + 1) for y in table
                     if table[x] + table[y] == 1}
            ev = conjecture_scan(d, cap)
            assert ev.inside_points == {p for p in found if set(p) <= small}
            assert ev.exceptional == {p for p in found if not set(p) <= small}


def _reference_solve(d, t, small_values):
    # The two-branch solver that evaluated T_d at every candidate.
    out = {y for y, v in small_values if v == t}
    for sign, target in ((1, t), (-1, -t if d % 2 else t)):
        if target <= 0:
            continue
        r = _integer_root(target, d)
        for y in (r, r + 1):
            if y >= 3 and cheb_eval(d, y) == target:
                out.add(sign * y)
    return out


@functools.cache
def _reference_scan(d, cap):
    # The scan that evaluated T_d at x and at -x separately.
    small = set(SMALL_SET)
    small_values = [(y, cheb_eval(d, y)) for y in SMALL_SET]
    inside, exceptional = set(), set()
    for x in range(-cap, cap + 1):
        for y in _reference_solve(d, 1 - cheb_eval(d, x), small_values):
            (inside if x in small and y in small else exceptional).add((x, y))
    return frozenset(inside), frozenset(exceptional)


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 40])
def test_conjecture_scan_table_matches_reference(cap):
    # Caps 0 to 3 put the table's edge inside SMALL_SET and the candidates
    # r, r + 1 past it; cap 40 covers the benchmark's degrees.
    for d in range(3, 221 if cap == 40 else 81):
        ev = conjecture_scan(d, cap)
        assert (ev.inside_points, ev.exceptional) == _reference_scan(d, cap), d


def test_certificates_match_the_reference_scan():
    # Brute-force completeness over d = 3..220: a proven certificate holds
    # exactly the points the per-x solver finds, exceptional ones included;
    # an open case holds exactly its inside points.
    for d in range(3, 221):
        cert = chebyshev_curve_points(d)
        inside, exceptional = _reference_scan(d, 40)
        proven = d % 3 == 0 or d % 4 == 0 or d % 5 == 0
        assert cert.points == (inside | exceptional if proven else inside), d
        assert (cert.status == "certified") == proven, d


def test_conjecture_scan_evaluates_one_table(monkeypatch):
    # A scan evaluates T_d at 0, 1, ..., cap + 1.  A proven case with points
    # adds T_d and T_{d'} on {0, +-1, +-2}, five values each.
    calls = []

    def counted(d, x):
        calls.append(x)
        return cheb_eval(d, x)

    monkeypatch.setattr(dynamics, "cheb_eval", counted)
    for cap in (0, 1, 2, 3, 40, 100):
        for d in (3, 4, 7, 8, 25, 64, 199):
            calls.clear()
            conjecture_scan(d, cap)
            assert len(calls) == cap + 2, (d, cap, len(calls))
        for d in (3, 4, 5, 7, 8, 10, 20, 25, 64, 100, 199, 200):
            calls.clear()
            chebyshev_curve_points(d, cap)
            pulled_back = d % 3 != 0 and (d % 4 == 0 or d % 5 == 0)
            assert len(calls) == cap + (12 if pulled_back else 2), (d, cap)
