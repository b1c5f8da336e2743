from fractions import Fraction

import pytest

from symcurves import chebyshev, dynamics
from symcurves.chebyshev import _cheb_coeffs, cheb, cheb_eval
from symcurves.dynamics import (
    SMALL_SET,
    ChebCurve,
    PolyMap,
    X5_POINTS,
    _integer_root,
    _x4_certificate,
    _solve_cheb_value,
    chebyshev_curve_points,
    conjecture_scan,
    integral_pullback,
    nonsingular,
    orbit_tail,
    preperiodic_points,
    shifted_intersection,
)
from symcurves.exact import IntPoly, bezout

F_SQUARE_MINUS_2 = IntPoly([-2, 0, 1])
PM = PolyMap(F_SQUARE_MINUS_2, Fraction(1), Fraction(-1))  # L(x) = 1 - x

TWELVE = {(Fraction(x), Fraction(y)) for x, y in [
    (0, 1), (0, -1), (2, 1), (2, -1), (-2, 1), (-2, -1),
    (1, 0), (-1, 0), (1, 2), (1, -2), (-1, 2), (-1, -2)]}
EIGHT = {(Fraction(x), Fraction(y)) for x, y in [
    (1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1)]}
FOUR = {(Fraction(x), Fraction(y)) for x, y in [
    (0, 1), (1, 0), (-1, 2), (2, -1)]}


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


def test_shifted_intersection_example():
    meet, exact = shifted_intersection(PM, 2, Fraction(-1), Fraction(0), 20)
    assert meet == {Fraction(2)} and exact
    ident = PolyMap(F_SQUARE_MINUS_2)  # identity shift
    meet, exact = shifted_intersection(ident, 2, Fraction(0), Fraction(0), 20)
    assert meet == {Fraction(2)} and exact
    meet, exact = shifted_intersection(PM, 0, Fraction(5), Fraction(3), 4)
    assert meet == set() and not exact


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


def test_integral_pullback():
    assert integral_pullback(2, {-1, 2}) == \
        {Fraction(-1), Fraction(1), Fraction(2), Fraction(-2)}
    full = {Fraction(v) for v in (0, 1, -1, 2, -2)}
    assert integral_pullback(1, full) == full
    assert integral_pullback(5, {Fraction(1)}) == {Fraction(1)}
    assert integral_pullback(7, {Fraction(1)}) == {Fraction(1)}
    with pytest.raises(ValueError):
        integral_pullback(2, {3})


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
    assert nonsingular(ChebCurve(4, Fraction(1)))
    assert not nonsingular(ChebCurve(4, Fraction(4)))
    assert not nonsingular(ChebCurve(5, Fraction(0)))
    assert nonsingular(ChebCurve(7, Fraction(3)))
    with pytest.raises(ValueError):
        nonsingular(ChebCurve(1, Fraction(1)))


def _critical_values(d):
    # Reference: the s in {2, -2} with T_d - s and T_d' sharing a root, by
    # the integer Bezout identity (None when they are not coprime).
    td = _cheb_coeffs(d)
    deriv = td.derivative()
    return {s for s in (2, -2) if bezout(td - IntPoly([s]), deriv) is None}


def test_nonsingular_statement_by_critical_values():
    # The criterion's argument, checked exactly: T_d takes only the values
    # +-2 at its critical points, so a singular X_{d,k} has k in {0, 4, -4};
    # and every k the criterion calls nonsingular is no sum of two of them.
    for d in range(2, 13):
        crits = _critical_values(d)
        assert crits == ({-2} if d == 2 else {2, -2}), d
        td = _cheb_coeffs(d)
        for s in (1, -1, 0, 3):
            assert bezout(td - IntPoly([s]), td.derivative()) is not None
        sums = {s + t for s in crits for t in crits}
        assert sums <= {0, 4, -4}
        for k in [Fraction(k) for k in range(-6, 7)] + [Fraction(1, 2)]:
            if nonsingular(ChebCurve(d, k)):
                assert k not in sums, (d, k)


def test_nonsingular_vs_resultants():
    # Independent check with resultants: the singular system
    # {T_d(x)+T_d(y)-k, T_d'(x), T_d'(y)} has a solution iff the resultant
    # chain vanishes; compare against the criterion for d <= 8.
    import sympy

    x, y = sympy.symbols("x y")
    for d in range(2, 9):
        td = sympy.Poly(cheb(d).poly.coeffs[::-1], x).as_expr()
        tdy = td.subs(x, y)
        dtd = sympy.diff(td, x)
        dtdy = sympy.diff(tdy, y)
        for k in (0, 1, 4, -4, 3):
            r1 = sympy.resultant(td + tdy - k, dtdy, y)
            r2 = sympy.resultant(r1, dtd, x)
            singular = (r2 == 0)
            if nonsingular(ChebCurve(d, Fraction(k))):
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


def test_solve_cheb_value_boundaries():
    for d in (3, 4, 5, 6, 7, 8, 12, 67, 128, 199, 200):
        small_values = [(y, cheb_eval(d, y)) for y in SMALL_SET]
        t3 = _cheb_table(d, 3)[3]
        targets = {t3, t3 - 1, t3 + 1, -t3, -t3 + 1, 0, 1, -1, 2, -2, 3}
        for r in (2, 3, 4, 11, 41):
            targets |= {r ** d, r ** d - 1, r ** d + 1, -r ** d, -r ** d - 1}
            targets |= {_cheb_table(d, r)[r], -_cheb_table(d, r)[r]}
        for t in targets:
            # |y| >= 3 forces (|y| - 1)^d < |t|, so this window is complete.
            bound = 2 ** -(-abs(t).bit_length() // d) + 3
            table = _cheb_table(d, bound)
            expected = {Fraction(y) for y, v in table.items() if v == t}
            assert _solve_cheb_value(d, t, small_values, ()) == expected, (d, t)
        # T_d >= -2 on the reals for even d.
        if d % 2 == 0:
            for t in (-3, -t3, -41 ** d):
                assert _solve_cheb_value(d, t, small_values, ()) == set()
    # Large roots are found exactly.
    d, y = 3, 10**9 + 7
    small_values = [(v, cheb_eval(d, v)) for v in SMALL_SET]
    assert _solve_cheb_value(d, y ** 3 - 3 * y, small_values, ()) == {Fraction(y)}


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


def _reference_scan(d, cap):
    # The scan that evaluated T_d at x and at -x separately.
    small = set(SMALL_SET)
    small_values = [(y, cheb_eval(d, y)) for y in SMALL_SET]
    inside, exceptional = set(), set()
    for x in range(-cap, cap + 1):
        for y in _reference_solve(d, 1 - cheb_eval(d, x), small_values):
            (inside if x in small and y in small else exceptional).add((x, y))
    return inside, exceptional


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 40])
def test_conjecture_scan_table_matches_reference(cap):
    # Caps 0 to 3 put the table's edge inside SMALL_SET and the candidates
    # r, r + 1, where values past the table are evaluated directly.
    for d in range(3, 81):
        ev = conjecture_scan(d, cap)
        assert (ev.inside_points, ev.exceptional) == _reference_scan(d, cap), d
    # X_d has no point with |y| >= 3 here, so solve values of T_d directly
    # to read matches from the table and past its end.
    for d in range(3, 81, 7):
        table = [cheb_eval(d, x) for x in range(cap + 2)]
        small_values = [(y, cheb_eval(d, y)) for y in SMALL_SET]
        for y in range(cap + 4):
            v = cheb_eval(d, y)
            for t in (v, v - 1, v + 1, -v, -v + 1):
                assert (_solve_cheb_value(d, t, small_values, table)
                        == _reference_solve(d, t, small_values)), (d, t)


def test_conjecture_scan_evaluates_one_table(monkeypatch):
    calls = []

    def counted(d, x):
        calls.append(x)
        return cheb_eval(d, x)

    monkeypatch.setattr(dynamics, "cheb_eval", counted)
    for cap in (0, 1, 2, 3, 40, 100):
        for d in (3, 4, 7, 8, 25, 64, 199):
            calls.clear()
            conjecture_scan(d, cap)
            assert len(calls) <= cap + 4, (d, cap, len(calls))
