"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from symcurves.chebyshev import cheb_eval
from symcurves.cli import main
from symcurves.descent import quartic_residue_criterion, root_number, selmer_rank_bound
from symcurves.dynamics import (
    PolyMap,
    X5_POINTS,
    chebyshev_curve_points,
    conjecture_scan,
    orbit_tail,
    shifted_intersection,
)
from symcurves.elliptic import (
    INF,
    EllipticCurve,
    canonical_height,
    point,
    torsion_subgroup,
)
from symcurves.exact import IntPoly, is_prime
from symcurves.localglobal import everywhere_locally_solvable
from symcurves.quartic import SymQuartic, kappa
from test_chebyshev import special_values
from test_cli import unrat
from test_dynamics import preperiodic_points
from test_quartic import height_sandwich_check, qpoint

TWELVE = {(Fraction(x), Fraction(y)) for x, y in [
    (0, 1), (0, -1), (2, 1), (2, -1), (-2, 1), (-2, -1),
    (1, 0), (-1, 0), (1, 2), (1, -2), (-1, 2), (-1, -2)]}
EIGHT = {(Fraction(x), Fraction(y)) for x, y in [
    (1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1)]}
FOUR = {(Fraction(x), Fraction(y)) for x, y in [
    (0, 1), (1, 0), (-1, 2), (2, -1)]}


def report(num, ok, text):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def primes(lo, hi):
    return [p for p in range(lo, hi) if is_prime(p)]


def test_criterion_01_x4_determination(capsys):
    t0 = time.time()
    code = main(["quartic", "-4", "-3", "1", "--generator", "4,-16",
                 "--rank", "1", "--json"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    env = json.loads(out)
    pts = {(unrat(x), unrat(y)) for x, y in env["payload"]["points"]}
    ok = (code == 0 and pts == TWELVE and elapsed < 120
          and env["payload"]["n_window"] >= 40
          and env["payload"]["index_bound"] <= 120)
    report(1, ok, f"X_4 gives exactly the 12 points "
           f"(B={env['payload']['index_bound']}, "
           f"N={env['payload']['n_window']}, {elapsed:.2f}s)")


def test_criterion_02_chebyshev_engine():
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        z = Fraction(rng.randrange(1, 60), rng.randrange(1, 60)) \
            * rng.choice((1, -1))
        x = z + 1 / z
        for d in range(1, 51):
            if cheb_eval(d, x) != z**d + z**-d:
                ok = False
    for n in range(1, 13):
        for m in range(1, 13):
            x = Fraction(rng.randrange(-40, 41), rng.randrange(1, 11))
            if cheb_eval(n * m, x) != cheb_eval(n, cheb_eval(m, x)):
                ok = False
    for d in range(1, 101):
        if d % 3 == 0:
            continue
        for v, img in special_values(d).items():
            if cheb_eval(d, v) != img:
                ok = False
    elapsed = time.time() - t0
    report(2, ok and elapsed < 60,
           f"characterization d<=50 x 100 rationals, nesting <=12x12, "
           f"value table d<=100 ({elapsed:.1f}s)")


def test_criterion_03_theorem_point_sets():
    expected = {9: set(), 12: set(), 15: set(),
                8: TWELVE, 16: TWELVE, 20: TWELVE,
                5: FOUR, 25: FOUR, 35: FOUR,
                10: EIGHT, 50: EIGHT}
    ok = True
    for d, want in expected.items():
        got = set(chebyshev_curve_points(d).points)
        if got != want:
            ok = False
    report(3, ok, "X_d point sets for d in {9,12,15 | 8,16,20 | 5,25,35 | 10,50}")


def test_criterion_04_root_numbers():
    bad = [p for p in primes(3, 2000) if root_number(p).W != -1]
    report(4, not bad, f"W(E^(p)) = -1 for all {len(primes(3, 2000))} odd "
           f"primes p < 2000")


def test_criterion_05_quartic_residue_law():
    # Brute force: an explicit scan of every residue, next to the criterion
    # (whose roots_mod_p solves the even f through the square roots of the
    # roots of s^2 - 4s + 2).
    f = IntPoly([2, 0, -4, 0, 1])
    bad = [p for p in primes(3, 5000)
           if quartic_residue_criterion(p) != (p % 16 in (1, 15))
           or any(f.eval_mod(x, p) == 0 for x in range(p)) != (p % 16 in (1, 15))]
    report(5, not bad, "x^4-4x^2+2 has a root mod p iff p = +-1 mod 16, "
           "all odd p < 5000")


def test_criterion_06_selmer_bound():
    ps = [p for p in primes(3, 2000) if p % 16 not in (1, 15)]
    bad = [p for p in ps if selmer_rank_bound(p) > 2]
    report(6, not bad, f"selmer_rank_bound(p) <= 2 for all {len(ps)} primes "
           "p < 2000 with p != +-1 mod 16")


def test_criterion_07_local_solvability():
    t0 = time.time()
    ps = [p for p in primes(3, 2000) if p % 24 == 1]
    ok = True
    for p in ps:
        solvable, reports = everywhere_locally_solvable(p)
        if not solvable:
            ok = False
        for r in reports:
            if r.method == "hensel-from-Fq":
                q = r.place
                count = r.detail["count"]
                if (count - q - 1) ** 2 > 36 * q:
                    ok = False
    elapsed = time.time() - t0
    report(7, ok and elapsed < 300,
           f"everywhere locally solvable for all {len(ps)} primes "
           f"p = 1 mod 24 below 2000; good q < 37 counts within the genus-3 "
           f"Weil bound ({elapsed:.1f}s)")


def test_criterion_08_height_sandwich():
    rng = random.Random(88)
    ok = kappa(-4, -3) == 16 and kappa(-4, -6) == 24
    ok = ok and abs(math.log(12 * kappa(-4, -3)) - math.log(192)) < 1e-12
    combined = math.log(24) + math.log(12) + math.log(kappa(-4, -6))
    ok = ok and abs(combined - (8 * math.log(2) + 3 * math.log(3))) < 1e-12
    ok = ok and combined <= 8.842
    checked = 0
    while checked < 500:
        x = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        y = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        a = Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
        b = x**4 + a * x * x + a * y * y + y**4
        try:
            F = SymQuartic(a, b, 1)
        except ValueError:
            continue
        if not height_sandwich_check(qpoint(x, y), F):
            ok = False
        checked += 1
    report(8, ok, "height sandwich on 500 constructed points; "
           "kappa(-4,-3)=16, kappa(-4,-6)=24, log constants to 1e-12")


def test_criterion_09_elliptic_heights():
    ok = True
    E = EllipticCurve(16, -16, 0)  # companion of (-4, -3)
    G = point(4, -16)
    h1 = canonical_height(E, G, 1e-8)
    for n in range(1, 6):
        hn = canonical_height(E, E.scalar_mul(n, G), 1e-8)
        if abs(hn - n * n * h1) >= 1e-6:
            ok = False
    if canonical_height(E, point(0, 0), 1e-8) >= 1e-8:
        ok = False
    for curve in (E, EllipticCurve(16, 32, 0)):
        tor = torsion_subgroup(curve)
        if len(tor) != 2 or tor[0] is not INF or tor[1] != point(0, 0):
            ok = False
        for P in tor:
            if canonical_height(curve, P, 1e-8) >= 1e-8:
                ok = False
    report(9, ok, "quadraticity |hhat(nG) - n^2 hhat(G)| < 1e-6 (n <= 5, "
           "tol 1e-8); torsion heights < 1e-8; torsion = Z/2Z on both "
           "companion curves")


def test_criterion_10_dynamics():
    f = IntPoly([-2, 0, 1])
    pm = PolyMap(f, Fraction(1), Fraction(-1))
    ok = preperiodic_points(f, 100) == {Fraction(v) for v in (0, 1, -1, 2, -2)}
    for start in (0, 2, -2):
        t = orbit_tail(pm, 2, Fraction(start), 32)
        ok = ok and t.values == [Fraction(2)] and t.cycled
    for start in (1, -1):
        meet, exact = shifted_intersection(
            pm, orbit_tail(pm, 2, Fraction(start), 32),
            orbit_tail(pm, 2, Fraction(0), 32))
        ok = ok and meet == {Fraction(2)} and exact
    report(10, ok, "PrePer(x^2-2) = {0,+-1,+-2}; shifted-orbit identities "
           "O_{f,2}(0) = O_{f,2}(+-2) = {2} = L(O_{f,2}(+-1))")


def test_criterion_11_bruteforce_completeness():
    ev4 = conjecture_scan(4, 1000)
    ev3 = conjecture_scan(3, 1000)
    ok = (ev4.exceptional == set() and ev4.inside_points == TWELVE
          and ev3.exceptional == set() and ev3.inside_points == set())
    # Imported certificates: exact on-curve checks + bounded-scan consistency.
    for x, y in X5_POINTS:
        if cheb_eval(5, x) + cheb_eval(5, y) != 1:
            ok = False
    ev5 = conjecture_scan(5, 1000)
    ok = ok and ev5.exceptional == set() and ev5.inside_points == set(X5_POINTS)
    report(11, ok, "integer-x scans to cap 1000: X_4 and X_3 have nothing "
           "outside the certified sets; imported X_5 list verified on-curve "
           "and scan-consistent")
