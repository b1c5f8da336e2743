import gc
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

import symcurves
from symcurves import elliptic, exact
from symcurves.cli import EXIT_CHECK_FAILED, main
from symcurves.elliptic import (
    INF,
    MAZUR_ORDER_CAP,
    ECPoint,
    EllipticCurve,
    _bezout_cofactors,
    _bezout_data,
    _duplication_forms,
    _eval_pair,
    _integer_roots_monic_cubic,
    _machine_for,
    _square_divisors,
    _val_capped,
    canonical_height,
    canonical_height_doubling,
    count_points_mod_p,
    height_gap_bounds,
    is_torsion,
    naive_height,
    point,
    torsion_subgroup,
)
from symcurves.exact import CheckFailed, factorize, is_prime
from symcurves.quartic import SymQuartic, companion_curve
from polyref import Poly

# companion curve of the degree-4 Chebyshev quartic
Y_CURVE = EllipticCurve(16, -16, 0)
G = point(4, -16)
T2 = point(0, 0)


def test_singular_rejected():
    with pytest.raises(ValueError):
        EllipticCurve(0, 0, 0)


def test_group_law_examples():
    assert Y_CURVE.add(G, T2) == point(-4, -16)
    assert Y_CURVE.add(G, INF) == G
    assert Y_CURVE.add(T2, T2) is INF
    assert Y_CURVE.scalar_mul(2, G) == point(1, 1)
    assert Y_CURVE.scalar_mul(0, G) is INF
    twoG = Y_CURVE.scalar_mul(2, G)
    assert Y_CURVE.add(twoG, T2) == point(-16, 16)


def test_off_curve_rejected():
    with pytest.raises(ValueError):
        Y_CURVE.add(point(1, 2), T2)


def fraction_contains(E, P):
    """The on-curve test in Fraction arithmetic, as `contains` was written
    before it cleared denominators: the reference for it."""
    return P is INF or P.y * P.y == ((P.x + E.a2) * P.x + E.a4) * P.x + E.a6


def _rand_q(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def test_contains_matches_fraction_reference():
    # Random curves with fractional coefficients, each through a random
    # point P; tested on P, -P, 2P, P + P' and perturbed points off the curve.
    rng = random.Random(2026)
    verdicts = []
    while len(verdicts) < 3000:
        a2, a4 = _rand_q(rng, 30, 12), _rand_q(rng, 30, 12)
        x, y = _rand_q(rng, 40, 9), _rand_q(rng, 40, 9)
        a6 = y * y - ((x + a2) * x + a4) * x
        if rng.random() < 0.2:
            a6 = 0                  # the shape of every companion curve
        try:
            E = EllipticCurve(a2, a4, a6)
        except ValueError:
            continue
        P = ECPoint(x, y)
        tests = [P, ECPoint(x, -y), ECPoint(x, y + _rand_q(rng, 3, 5)),
                 ECPoint(x + Fraction(1, rng.randint(1, 9)), y),
                 ECPoint(y, x), ECPoint(x / 4, y / 8), ECPoint(-x, y)]
        if fraction_contains(E, P):
            twoP = E.add(P, P)
            tests += [twoP]
            if twoP is not INF and twoP != P:
                tests += [E.add(twoP, P)]
        for Q in tests:
            verdicts.append(E.contains(Q))
            assert verdicts[-1] == fraction_contains(E, Q), (E, Q)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


def test_negation_and_inverse():
    assert Y_CURVE.add(G, Y_CURVE.neg(G)) is INF
    assert Y_CURVE.scalar_mul(-3, G) == Y_CURVE.neg(Y_CURVE.scalar_mul(3, G))


def test_points_stay_on_curve_exactly():
    P = G
    for n in range(2, 30):
        P = Y_CURVE.add(P, G)
        assert Y_CURVE.contains(P)


def test_associativity_and_commutativity():
    rng = random.Random(41)
    pool = [Y_CURVE.scalar_mul(n, G) for n in range(-4, 5)]
    pool += [Y_CURVE.add(P, T2) for P in pool if P is not INF]
    for _ in range(200):
        P, Q, R = (rng.choice(pool) for _ in range(3))
        assert Y_CURVE.add(P, Q) == Y_CURVE.add(Q, P)
        assert Y_CURVE.add(Y_CURVE.add(P, Q), R) == Y_CURVE.add(P, Y_CURVE.add(Q, R))


def brute_count(a2, a4, a6, p):
    cnt = 1
    for x in range(p):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
        cnt += sum(1 for y in range(p) if (y * y - rhs) % p == 0)
    return cnt


def test_count_points_examples():
    # Oracle: direct double loop.
    E = EllipticCurve(16, 32, 0)       # y^2 = x(x^2 + 16x + 32)
    assert brute_count(16, 32, 0, 5) == 6
    assert count_points_mod_p(E, 5) == 6
    assert brute_count(16, 32, 0, 7) == 8
    assert count_points_mod_p(E, 7) == 8
    E2 = EllipticCurve(0, 0, 1)        # y^2 = x^3 + 1
    assert brute_count(0, 0, 1, 5) == 6
    assert count_points_mod_p(E2, 5) == 6


def test_count_points_hasse_bound():
    for p in (5, 7, 11, 13, 17, 19, 23):
        try:
            n = count_points_mod_p(Y_CURVE, p)
        except ValueError:
            continue
        assert (n - p - 1) ** 2 <= 4 * p


def test_count_points_bad_prime_rejected():
    with pytest.raises(ValueError):
        count_points_mod_p(Y_CURVE, 2)
    disc = Y_CURVE.discriminant()
    bad = [p for p in (3, 5) if disc.numerator % p == 0]
    for p in bad:
        with pytest.raises(ValueError):
            count_points_mod_p(Y_CURVE, p)


def test_count_points_validates_p_once(monkeypatch):
    # The entry checks prove p prime once per call; the loop decides each
    # residue from the square-root table of F_p, not by the Legendre symbol.
    # The counts equal the double loop's.
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    def refuse(*args):
        raise AssertionError("legendre_symbol called")

    monkeypatch.setattr(elliptic, "is_prime", counting_is_prime)
    monkeypatch.setattr(exact, "legendre_symbol", refuse)
    monkeypatch.setattr(elliptic, "legendre_symbol", refuse, raising=False)
    rng = random.Random(7)
    checked = 0
    for p in (3, 5, 7, 11, 13, 37, 101):
        for _ in range(6):
            co = [rng.randrange(p) for _ in range(3)]
            try:
                E = EllipticCurve(*co)
                calls.clear()
                n = count_points_mod_p(E, p)
            except ValueError:      # singular over Q or bad at p
                continue
            assert calls == [p]
            assert n == brute_count(*co, p), (co, p)
            checked += 1
    assert checked >= 30


def test_torsion_subgroups():
    tor = torsion_subgroup(Y_CURVE)
    assert tor[0] is INF
    assert {(P.x, P.y) for P in tor[1:]} == {(Fraction(0), Fraction(0))}
    E = EllipticCurve(16, 32, 0)
    tor = torsion_subgroup(E)
    assert {(P.x, P.y) for P in tor[1:]} == {(Fraction(0), Fraction(0))}


def _divisors(n):
    """Every positive divisor of n, which `torsion_subgroup` walked before
    it listed only the y with y^2 | n."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def test_square_divisors_are_the_y_with_y_squared_dividing_n():
    rng = random.Random(14)
    ns = [1, 2, 4, 2**13, 3**7 * 5**4, 2**9 * 3**5 * 7**3 * 11**2]
    ns += [rng.randrange(1, 10**9) for _ in range(150)]
    ns += [math.prod(rng.choice((2, 3, 5, 7, 13, 97)) ** rng.randrange(9)
                     for _ in range(4)) for _ in range(150)]
    for n in ns:
        expected = sorted(y for y in _divisors(n) if n % (y * y) == 0)
        assert sorted(_square_divisors(n)) == expected, n


def test_torsion_closed_under_group_law():
    for E in (Y_CURVE, EllipticCurve(16, 32, 0), EllipticCurve(0, -1, 0)):
        tor = torsion_subgroup(E)
        reps = {(P.x, P.y) for P in tor[1:]}
        for P in tor:
            for Q in tor:
                R = E.add(P, Q)
                assert R is INF or (R.x, R.y) in reps


def test_torsion_richer_curve():
    # y^2 = x^3 + 4x has torsion Z/4Z generated by (2, 4).
    E = EllipticCurve(0, 4, 0)
    tor = torsion_subgroup(E)
    assert len(tor) == 4
    P = point(2, 4)
    assert E.scalar_mul(4, P) is INF and E.scalar_mul(2, P) is not INF


def brute_integer_roots(a2, a4, a6):
    """Oracle: every integer root divides a6 (or is 0), so test them all."""
    n = abs(a6)
    if n == 0:
        m = abs(a2) + abs(a4) + 1           # Cauchy bound for x^2 + a2 x + a4
        cands = set(range(-m, m + 1))
    else:
        cands = {s * d for d in range(1, math.isqrt(n) + 1) if n % d == 0
                 for s in (1, -1)}
        cands |= {n // c for c in cands}
    return sorted(x for x in cands if ((x + a2) * x + a4) * x + a6 == 0)


def test_integer_roots_small_box():
    for a2 in range(-7, 8):
        for a4 in range(-7, 8):
            for a6 in range(-7, 8):
                assert (_integer_roots_monic_cubic(a2, a4, a6)
                        == brute_integer_roots(a2, a4, a6)), (a2, a4, a6)


def test_integer_roots_known_factorizations():
    big = -(2**10) * 3**6
    cases = [
        (1, 1, 1), (2, 2, 2), (-3, -3, -3), (0, 0, 0), (5, 5, -7),
        (0, 0, 4), (1, -1, 0), (6, -6, 1), (-2**5 * 3**3, 2**5, 3**3),
        (-48, 1, 16), (12, 12, -5), (10**6, -10**6, 7), (-999, 1000, 1001),
    ]
    cases += list(itertools.combinations_with_replacement(range(-12, 13), 3))
    for roots in cases:
        r1, r2, r3 = roots
        a2, a4, a6 = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
        assert _integer_roots_monic_cubic(a2, a4, a6) == sorted(set(roots)), roots
    # Irreducible or rootless cubics with many-divisor constant terms.
    for a2, a4 in ((0, 0), (1, 0), (0, 1), (-7, 11), (3, -2)):
        assert _integer_roots_monic_cubic(a2, a4, big) == brute_integer_roots(a2, a4, big)
    assert _integer_roots_monic_cubic(0, 0, big) == []
    assert _integer_roots_monic_cubic(0, 0, -(144**3)) == [144]
    # Large coefficients, where every real root must lie inside Fujiwara's
    # bracket: three integer roots up to 10^12, then one root r times
    # x^2 + c with c > 0 (no other real root), and x^3 - r^3.
    rng = random.Random(11)
    for _ in range(1000):
        roots = [rng.randint(-10**12, 10**12) for _ in range(3)]
        r1, r2, r3 = roots
        a2, a4, a6 = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
        assert _integer_roots_monic_cubic(a2, a4, a6) == sorted(set(roots)), roots
        r, c = r1, rng.randint(1, 10**rng.randint(1, 26))
        assert _integer_roots_monic_cubic(-r, c, -r * c) == [r], (r, c)
        assert _integer_roots_monic_cubic(0, 0, -r**3) == [r], r


def test_integer_roots_random_against_brute_force():
    rng = random.Random(7)
    for _ in range(400):
        a2, a4 = rng.randint(-300, 300), rng.randint(-3000, 3000)
        r = rng.randint(-60, 60)
        a6 = rng.choice([rng.randint(-10**5, 10**5), -((r + a2) * r + a4) * r])
        assert (_integer_roots_monic_cubic(a2, a4, a6)
                == brute_integer_roots(a2, a4, a6)), (a2, a4, a6)


@pytest.mark.parametrize("ab,expected", [
    # torsion Z/2 x Z/2: y^2 = x^3 + 48x^2 - 208x
    ((-12, -23), [(-52, 0), (0, 0), (4, 0)]),
    # torsion Z/6: y^2 = x^3 + 24x^2 - 48x
    ((-6, -6), [(-12, -48), (-12, 48), (0, 0), (4, -16), (4, 16)]),
    # torsion Z/2 x Z/4: y^2 = x^3 + 8x^2 - 48x
    ((-2, 2), [(-12, 0), (-4, -16), (-4, 16), (0, 0), (4, 0), (12, -48), (12, 48)]),
])
def test_torsion_of_family_examples(ab, expected):
    # Point lists of the companion curves of F_(a, b), pinned from the
    # divisor-enumeration root finder.
    tor = torsion_subgroup(companion_curve(SymQuartic(*ab, 1)))
    assert tor[0] is INF
    assert [(P.x, P.y) for P in tor[1:]] == [(Fraction(x), Fraction(y)) for x, y in expected]


def lutz_nagell_torsion(E):
    """`torsion_subgroup` without the point-count shortcut: every integral
    (x, y) with y = 0 or y^2 | disc on the integral model whose order is at
    most the Mazur cap.  The reference for the shortcut."""
    Ei, u = E.integral_model()
    a2, a4, a6 = int(Ei.a2), int(Ei.a4), int(Ei.a6)
    candidates = {(x, 0) for x in _integer_roots_monic_cubic(a2, a4, a6)}
    for y in _square_divisors(abs(int(Ei.discriminant()))):
        for x in _integer_roots_monic_cubic(a2, a4, a6 - y * y):
            candidates |= {(x, y), (x, -y)}
    found = []
    for x, y in sorted(candidates):
        P = Q = point(x, y)
        for _ in range(MAZUR_ORDER_CAP):
            Q = Ei.add(Q, P)
            if Q is INF:
                found.append(P)
                break
    return [INF] + [ECPoint(P.x / u**2, P.y / u**3) for P in found]


FAMILY_BOX = [(a, b) for a in range(-12, 13) for b in range(-30, 31)
              if b * (a * a + 2 * b) * (a * a + 4 * b) != 0]


def test_torsion_matches_lutz_nagell_on_the_family_box():
    # The companion curves of F_(a, b) for integral |a| <= 12, |b| <= 30.
    assert len(FAMILY_BOX) == 1484
    larger = 0
    for a, b in FAMILY_BOX:
        E = companion_curve(SymQuartic(a, b, 1))
        tor = torsion_subgroup(E)
        assert tor == lutz_nagell_torsion(E), (a, b)
        larger += len(tor) > 1 + sum(P.y == 0 for P in tor[1:])
    assert larger > 0           # some torsion is not E[2](Q)


def test_torsion_shortcut_does_not_factor_the_discriminant(monkeypatch):
    calls = []
    real = exact.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    x4 = companion_curve(SymQuartic(-4, -3, 1))
    E = companion_curve(SymQuartic(-6, -6, 1))
    monkeypatch.setattr(exact, "factorize", counting)
    monkeypatch.setattr(elliptic, "factorize", counting)
    # X_4's companion curve: the point-count gcd is 2 = |E[2](Q)|.
    assert len(torsion_subgroup(x4)) == 2
    assert calls == []
    # Torsion Z/6 exceeds E[2](Q), so the Lutz-Nagell search runs.
    assert len(torsion_subgroup(E)) == 6
    assert calls == [abs(int(E.integral_model()[0].discriminant()))]


def test_is_torsion_matches_the_mazur_loop():
    # The early exit at a non-integral multiple against all twelve steps.
    def reference(E, P):
        Q = P
        for _ in range(MAZUR_ORDER_CAP):
            Q = E.add(Q, P)
            if Q is INF:
                return True
        return False

    # Companion curves of F_(a, b) with G = phi_1(P) of infinite order and
    # torsion up to order 4, curves with torsion Z/6 and Z/2 x Z/4 and no
    # generator, and two curves with non-integral coefficients: X_4's
    # companion scaled by u = 2, and the Z/6 curve scaled by u = 3, whose
    # torsion points are not integral on that model.
    def companion(a, b):
        return companion_curve(SymQuartic(a, b, 1))

    cases = [(companion(-4, -3), (4, -16)),
             (companion(Fraction(-1, 2), Fraction(287, 16)), (-9, 45)),
             (companion(-8, -23), (-16, 48)),
             (companion(Fraction(-9, 2), Fraction(-49, 8)), (-9, 24)),
             (companion(0, 2), (-4, 8)),
             (companion(-6, -6), None), (companion(-2, 2), None),
             (EllipticCurve(4, -1, 0), (1, -2)),
             (EllipticCurve(Fraction(8, 3), Fraction(-16, 27), 0), None)]
    checked = 0
    for E, gen in cases:
        pool = torsion_subgroup(E)[1:]
        if gen:
            pool += [E.add(E.scalar_mul(n, point(*gen)), T)
                     for n in range(1, 5) for T in [INF] + pool]
        for P in pool:
            assert is_torsion(E, P) == reference(E, P), (E, P)
            checked += 1
    assert checked > 60


def test_height_machine_bad_primes_are_those_of_the_content_bound():
    from test_heights_golden import CORPUS

    assert len(CORPUS) == 37
    for a, b, alpha, _ in CORPUS:
        m = _machine_for(companion_curve(SymQuartic(Fraction(a), Fraction(b),
                                                    int(alpha))))
        assert m.bad_primes == sorted(factorize(m.content_bound).items()), \
            (a, b, alpha)


def test_naive_height():
    assert naive_height(point(4, -16)) == pytest.approx(math.log(4))
    assert naive_height(INF) == 0.0
    P = point(Fraction(1, 2), 0)  # height only reads the x-coordinate
    assert naive_height(P) == pytest.approx(math.log(2))
    assert naive_height(T2) == 0.0


def test_canonical_height_torsion_zero():
    assert canonical_height(Y_CURVE, T2, 1e-10) == 0.0
    assert canonical_height(Y_CURVE, INF, 1e-10) == 0.0


def test_canonical_height_rejects_bad_tol():
    # Every public way to a height checks tol; the private
    # `_nontorsion_height` leaves that to `canonical_height`, and
    # `build_input` passes it the fixed `demjanenko.HEIGHT_TOL`.
    for tol in (0.0, -1e-8, math.nan, math.inf, -math.inf):
        for height in (lambda: canonical_height(Y_CURVE, G, tol),
                       lambda: canonical_height_doubling(Y_CURVE, G, tol)):
            with pytest.raises(ValueError, match="tol must be positive"):
                height()


def test_canonical_height_quadraticity():
    h1 = canonical_height(Y_CURVE, G, 1e-10)
    assert h1 > 0
    for n in range(2, 6):
        hn = canonical_height(Y_CURVE, Y_CURVE.scalar_mul(n, G), 1e-10)
        assert abs(hn - n * n * h1) < 1e-8


def test_canonical_height_parallelogram():
    P = Y_CURVE.scalar_mul(2, G)
    Q = Y_CURVE.add(G, T2)
    lhs = (canonical_height(Y_CURVE, Y_CURVE.add(P, Q), 1e-10)
           + canonical_height(Y_CURVE, Y_CURVE.add(P, Y_CURVE.neg(Q)), 1e-10))
    rhs = 2 * canonical_height(Y_CURVE, P, 1e-10) \
        + 2 * canonical_height(Y_CURVE, Q, 1e-10)
    assert abs(lhs - rhs) < 1e-7


def test_canonical_vs_doubling_oracle():
    # Independent check: the literal exact doubling limit at loose tolerance.
    fast = canonical_height(Y_CURVE, G, 1e-10)
    slow = canonical_height_doubling(Y_CURVE, G, 1e-3)
    assert abs(fast - slow) < 1e-3
    P = Y_CURVE.add(G, T2)
    assert abs(canonical_height(Y_CURVE, P, 1e-10)
               - canonical_height_doubling(Y_CURVE, P, 1e-3)) < 1e-3


def test_canonical_height_other_curve_oracle():
    E = EllipticCurve(0, -2, 0)  # y^2 = x^3 - 2x, rank 1, generator (-1, 1)
    P = point(-1, 1)
    fast = canonical_height(E, P, 1e-10)
    slow = canonical_height_doubling(E, P, 1e-3)
    assert abs(fast - slow) < 1e-3
    h2 = canonical_height(E, E.scalar_mul(2, P), 1e-10)
    assert abs(h2 - 4 * fast) < 1e-8


def test_height_difference_bound_contains_observed():
    up, low = height_gap_bounds(Y_CURVE)
    assert max(up, low) > 0
    for n in range(1, 8):
        P = Y_CURVE.scalar_mul(n, G)
        gap = canonical_height(Y_CURVE, P, 1e-10) - naive_height(P)
        assert -low - 1e-6 <= gap <= up + 1e-6


def test_height_invariant_under_integral_rescaling():
    # Same curve written with rational coefficients; hhat must agree.
    E = EllipticCurve(Fraction(16, 1), Fraction(-16, 1), 0)
    Eq = EllipticCurve(Fraction(16, 4), Fraction(-16, 16), 0)  # u = 2 scaling
    P = point(4, -16)
    Pq = point(Fraction(4, 4), Fraction(-16, 8))
    assert Eq.contains(Pq)
    assert abs(canonical_height(E, P, 1e-10)
               - canonical_height(Eq, Pq, 1e-10)) < 1e-8


def test_is_torsion():
    assert is_torsion(Y_CURVE, T2)
    assert not is_torsion(Y_CURVE, G)


def test_generator_height_supports_verified_index_bound():
    # The computed hhat(G) must make (log 24 + log 192 + 2*9.62)/hhat(G)
    # come out at most 78, the independently verified window arithmetic.
    h = canonical_height(Y_CURVE, G, 1e-10)
    assert (math.log(24) + math.log(192) + 2 * 9.62) / h <= 78


# -- reference: the Bezout data by the extended Euclid over Fraction
# coefficient lists --


def qpoly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def qpoly_divmod(a, b):
    a, b = [Fraction(x) for x in a], qpoly_trim([Fraction(x) for x in b])
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(qpoly_trim(a)) >= len(b) and a != [0]:
        k = len(a) - len(b)
        q[k] = c = a[-1] / b[-1]
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        a = a[:-1] or [Fraction(0)]
    return qpoly_trim(q), qpoly_trim(a)


def qpoly_ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g, g the monic gcd."""
    def add(x, y):
        n = max(len(x), len(y))
        return qpoly_trim([(x[i] if i < len(x) else 0) + (y[i] if i < len(y) else 0)
                           for i in range(n)])

    def mul(x, y):
        out = [Fraction(0)] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[i + j] += xi * yj
        return qpoly_trim(out)

    r0, r1 = qpoly_trim([Fraction(x) for x in a]), qpoly_trim([Fraction(x) for x in b])
    s0, s1, t0, t1 = [Fraction(1)], [Fraction(0)], [Fraction(0)], [Fraction(1)]
    while r1 != [0]:
        q, r = qpoly_divmod(r0, r1)
        minus_q = [-c for c in q]
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, mul(minus_q, s1))
        t0, t1 = t1, add(t0, mul(minus_q, t1))
    lc = r0[-1]
    return [c / lc for c in r0], [c / lc for c in s0], [c / lc for c in t0]


def integerize(u, v):
    # Scale u*N + v*D = 1 to integer cofactors U*N + V*D = c, c > 0 minimal.
    den = 1
    for c in u + v:
        den = den * c.denominator // math.gcd(den, c.denominator)
    U, V = [int(c * den) for c in u], [int(c * den) for c in v]
    content = math.gcd(den, *U, *V)
    return den // content, [c // content for c in U], [c // content for c in V]


def reference_bezout_data(E):
    N, D = _duplication_forms(E)
    out = ()
    for n, d in ((N, D), (N[::-1], D[::-1])):
        g, u, v = qpoly_ext_gcd(n, d)
        assert g == [1]
        out += integerize(u, v)
    return out


def _random_integral_curves(rng, count):
    # Small, large and a6 = 0 (companion-shaped) integer models, and the
    # integral models of curves with rational coefficients.
    out = []
    while len(out) < count:
        kind = len(out) % 4
        if kind == 0:
            co = [rng.randint(-50, 50) for _ in range(3)]
        elif kind == 1:
            co = [rng.randint(-50, 50), rng.randint(-50, 50), 0]
        elif kind == 2:
            co = [rng.randint(-10**6, 10**6) for _ in range(3)]
        else:
            co = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(3)]
        try:
            out.append(EllipticCurve(*co).integral_model()[0])
        except ValueError:          # singular
            continue
    return out


def _reversal_edge_curves(rng, count):
    # Integral curves with a4^2 = 4 a2 a6, where N reversed drops to degree
    # 3: a4 = 2m and a2 a6 = m^2.  Then a6 != 0, since a6 = 0 would force
    # a4 = 0, a singular curve; the curves with a6 = 0, where D reversed
    # drops to degree 3, are a quarter of `_random_integral_curves`.
    out = []
    while len(out) < count:
        m = rng.choice((1, -1)) * rng.randint(1, 60)
        d = rng.choice([d for d in range(1, m * m + 1) if m * m % d == 0])
        a2 = rng.choice((1, -1)) * d
        try:
            out.append(EllipticCurve(a2, 2 * m, m * m // a2))
        except ValueError:          # singular
            continue
    return out


def test_bezout_data_matches_fraction_reference():
    # Random curves, the a4^2 = 4 a2 a6 edge, the companion models of the
    # quartic goldens and of the seeded back-solved inputs, and Y_CURVE.
    # Each cofactor has as many entries as the other form has degree.
    from test_demjanenko import _random_back_solved_inputs
    from test_quartic_golden import CORPUS

    edge = _reversal_edge_curves(random.Random(46), 300)
    golden = [companion_curve(SymQuartic(Fraction(a), Fraction(b), 1))
              for a, b, _, _ in CORPUS]
    seeded = [inp.E for inp in _random_back_solved_inputs(11, 40)]
    curves = (_random_integral_curves(random.Random(2), 2000) + edge + golden
              + seeded + [Y_CURVE])
    assert len(golden) == 30 and len(seeded) == 40
    assert sum(E.a6 == 0 for E in curves) > 400
    for E in curves:
        E = E.integral_model()[0]
        N, D = _duplication_forms(E)
        cq, U, V, cp, Ur, Vr = got = _bezout_data(N, D)
        degree = [len(Poly(f).coeffs) - 1 for f in (D, N, D[::-1], N[::-1])]
        assert [len(U), len(V), len(Ur), len(Vr)] == degree, E
        got = (cq, list(Poly(U).coeffs), list(Poly(V).coeffs),
               cp, list(Poly(Ur).coeffs), list(Poly(Vr).coeffs))
        assert got == reference_bezout_data(E), E


def test_bezout_cofactors_are_identities_in_the_coefficients():
    # With a2, a4, a6 and x as symbols, u*N + v*D - 4 delta is the zero
    # polynomial on both charts, for N = f'(x)^2 - (8x + 4a2) f(x) and
    # D = 4 f(x) built from f here, and 4 delta is -4 disc(f).
    sympy = pytest.importorskip("sympy")
    a2, a4, a6, x = sympy.symbols("a2 a4 a6 x")
    f = x**3 + a2 * x**2 + a4 * x + a6
    N = sympy.expand(sympy.diff(f, x)**2 - (8 * x + 4 * a2) * f)
    D = 4 * f
    c, U, V, Ur, Vr = _bezout_cofactors(a2, a4, a6)
    assert sympy.expand(c + 4 * sympy.discriminant(f, x)) == 0

    def poly(coeffs):
        return sum(k * x**i for i, k in enumerate(coeffs))

    def reverse(g):                 # x^4 g(1/x): the chart p = 1, in q = x
        return sympy.expand(x**4 * g.subs(x, 1 / x))

    assert sympy.expand(poly(U) * N + poly(V) * D - c) == 0
    assert sympy.expand(poly(Ur) * reverse(N) + poly(Vr) * reverse(D) - c) == 0


def test_eval_pair_matches_the_sums_written_out():
    # N is a quartic list and D a cubic one, homogenized to degree 4 by one
    # more factor of q; both are compared with the sum written out term by
    # term, also modulo l^prec with prec as large as `height` takes it.
    rng = random.Random(3)
    for _ in range(2000):
        n = [rng.randint(-10**6, 10**6) for _ in range(5)]
        d = [rng.randint(-10**6, 10**6) for _ in range(4)]
        p, q = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
        if rng.random() < 0.2:
            p, q = rng.randint(-10**400, 10**400), rng.randint(-10**400, 10**400)
        mod = rng.choice((2, 3, 7, 13)) ** rng.choice((1, 2, 40, 160, 400))
        expected = tuple(sum(c * p**i * q**(4 - i) for i, c in enumerate(cs)) % mod
                         for cs in (n, d))
        assert _eval_pair(n, d, p, q, mod) == expected


def reference_content_deltas(machine, p0, q0, ell, e, n_steps):
    """The content valuations at ell of `height`'s finite part, all
    n_steps of them, read at (n_steps + 2)e + 4 digits."""
    mod = ell ** ((n_steps + 2) * e + 4)
    w0, w1 = p0 % mod, q0 % mod
    out = []
    for _ in range(n_steps):
        w0, w1 = _eval_pair(machine.N, machine.D, w0, w1, mod)
        delta = min(_val_capped(w0, ell, e), _val_capped(w1, ell, e))
        assert delta <= e
        out.append(delta)
        if delta:
            mod //= ell**delta
            w0, w1 = (w0 // ell**delta) % mod, (w1 // ell**delta) % mod
    return out


def first_zero_prefix(deltas):
    """The deltas up to and including the first 0, all of them if none is
    0: what `height` reads at one bad prime."""
    return deltas[:deltas.index(0) + 1] if 0 in deltas else deltas


def reference_height(machine, p0, q0, tol):
    """`height` as it was before its content loop stopped at the first 0:
    the same archimedean series, and all n_steps deltas at each bad prime,
    read in one pass by `reference_content_deltas`.  Returns hhat and the
    rows (ell, e, deltas) of its finite part."""
    total_const = machine.step_bound + (math.log(machine.content_bound)
                                        if machine.content_bound > 1 else 0.0)
    n_steps = max(3, math.ceil(math.log(total_const / (1.5 * tol)) / math.log(4)))
    shift = max(abs(p0).bit_length(), abs(q0).bit_length()) - 500
    if shift > 0:
        f0, f1 = float(p0 >> shift) if p0 >= 0 else -float(-p0 >> shift), \
                 float(q0 >> shift)
    else:
        f0, f1 = float(p0), float(q0)
    m = max(abs(f0), abs(f1))
    u0, u1 = f0 / m, f1 / m
    h = exact.log_abs(max(abs(p0), abs(q0)))
    weight = 1.0
    arch = 0.0
    for _ in range(n_steps):
        weight /= 4.0
        u0, u1, s = machine._arch_step(u0, u1)
        arch += weight * s
    fin = 0.0
    rows = []
    for ell, _ in machine.bad_primes:
        e = 0
        cb = machine.content_bound
        while cb % ell == 0:
            cb //= ell
            e += 1
        deltas = reference_content_deltas(machine, p0, q0, ell, e, n_steps)
        rows.append((ell, e, deltas))
        weight = 1.0
        for delta in deltas:
            weight /= 4.0
            if delta:
                fin += weight * delta * math.log(ell)
    return h + arch - fin, rows


def _golden_height_points():
    # The points of the heights golden corpus, on their companion curves.
    from test_heights_golden import CORPUS

    return [(companion_curve(SymQuartic(Fraction(a), Fraction(b), int(alpha))),
             point(*map(Fraction, gen.split(","))))
            for a, b, alpha, gen in CORPUS if gen is not None]


def _seeded_curve_points(seed, count):
    """(E, kP, u) for k = 1..4 on `count` seeded integral curves, each built
    through a chosen point P = (x0, y0) with a6 != 0.  30% of them are
    rescaled to the non-minimal model (u^2 a2, u^4 a4, u^6 a6) with P at
    (u^2 x0, u^3 y0), u in {2, 3, 4, 5, 6, 9}, the rest have u = 1; P of
    finite order is skipped."""
    rng = random.Random(seed)
    out = []
    curves = 0
    while curves < count:
        x0, y0 = rng.randint(-30, 30), rng.randint(1, 40)
        a2, a4 = rng.randint(-30, 30), rng.randint(-30, 30)
        a6 = y0 * y0 - ((x0 + a2) * x0 + a4) * x0
        if a6 == 0:
            continue
        u = rng.choice((2, 3, 4, 5, 6, 9)) if rng.random() < 0.3 else 1
        try:
            E = EllipticCurve(a2 * u**2, a4 * u**4, a6 * u**6)
        except ValueError:          # singular
            continue
        P = point(x0 * u**2, y0 * u**3)
        if is_torsion(E, P):
            continue
        curves += 1
        out += [(E, E.scalar_mul(k, P), u) for k in (1, 2, 3, 4)]
    return out


def _record_content_rows(monkeypatch):
    # Every call of `_content_deltas`, with its arguments and its result.
    rows = []
    content_deltas = elliptic._HeightMachine._content_deltas

    def recording(machine, p0, q0, ell, e, n_steps):
        deltas = content_deltas(machine, p0, q0, ell, e, n_steps)
        rows.append((machine, p0, q0, ell, e, n_steps, deltas))
        return deltas

    monkeypatch.setattr(elliptic._HeightMachine, "_content_deltas", recording)
    return rows


def drops_past_a_short_pass(e, prefix):
    """Whether reading `prefix` drops e + 2 or more digits before its last
    step: a pass carrying only 2e + 2 digits would start that step with e
    or fewer left, too few to read a valuation up to e + 1."""
    return sum(prefix[:-1]) >= e + 2


def test_one_pass_content_deltas_equal_the_reference_prefixes(monkeypatch):
    # On the golden curves and the seeded back-solved ones, every delta
    # sequence `height` uses is the first-zero prefix of the full-length
    # reference, also on rows that drop more digits than a pass at 2e + 2
    # digits could spare.
    from test_demjanenko import _random_back_solved_inputs

    rows = _record_content_rows(monkeypatch)
    for E, P in _golden_height_points():
        canonical_height(E, P)
    for inp in _random_back_solved_inputs(11, 40):
        canonical_height(inp.E, inp.generator, 1e-8)
    deep = 0
    for machine, p0, q0, ell, e, n_steps, deltas in rows:
        assert deltas == first_zero_prefix(reference_content_deltas(
            machine, p0, q0, ell, e, n_steps)), (ell, p0, q0)
        deep += drops_past_a_short_pass(e, deltas)
    assert len(rows) > 100 and deep


def test_content_deltas_stop_at_the_first_zero(monkeypatch):
    # At every bad prime, 2 included: the full-length reference has only
    # zeros after its first 0 (the multiples have entered E0(Q_ell), a
    # subgroup), and `height` reads exactly the prefix up to that 0.  On the
    # golden points, the seeded back-solved inputs and P, ..., 4P on
    # seeded curves with a6 != 0, some on non-minimal models.
    from test_demjanenko import _random_back_solved_inputs

    rows = _record_content_rows(monkeypatch)
    for E, P in _golden_height_points():
        canonical_height(E, P)
    for inp in _random_back_solved_inputs(11, 40):
        canonical_height(inp.E, inp.generator, 1e-8)
    seeded = _seeded_curve_points(45, 1000)
    scaled = set()
    for E, P, u in seeded:
        canonical_height(E, P)
        if u > 1:
            scaled.add(_machine_for(E))
    stopped = at_two = nonzero = on_scaled = 0
    for machine, p0, q0, ell, e, n_steps, deltas in rows:
        reference = reference_content_deltas(machine, p0, q0, ell, e, n_steps)
        prefix = first_zero_prefix(reference)
        assert not any(reference[len(prefix):]), (ell, p0, q0, reference)
        assert deltas == prefix, (ell, p0, q0)
        cut = len(prefix) < n_steps
        stopped += cut
        at_two += cut and ell == 2
        on_scaled += cut and machine in scaled
        nonzero += len(prefix) > 1
    assert len(seeded) == 4000 and 250 < len(scaled) < 350
    assert stopped > 10000 and at_two > 1000 and on_scaled > 2000
    assert nonzero > 1000


def test_height_evaluates_the_pair_only_up_to_each_first_zero(monkeypatch):
    # Over the heights golden corpus `canonical_height` calls `_eval_pair`
    # once per delta of each first-zero prefix (all n_steps where none is
    # 0), and no more: a loop that runs on past its proof, or reads a row
    # twice, fails here.  The corpus has rows that drop more digits than a
    # pass at 2e + 2 digits could spare.  The heights are those of the
    # full-length reference, bit for bit.
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return _eval_pair(*args)

    monkeypatch.setattr(elliptic, "_eval_pair", counting)
    expected = points = deep = 0
    for E, P in _golden_height_points():
        Ei, u = E.integral_model()
        x = P.x * u * u
        want, rows = reference_height(_machine_for(E), x.numerator,
                                      x.denominator, 1e-8)
        assert canonical_height(E, P, 1e-8) == want, (E, P)
        prefixes = [(e, first_zero_prefix(deltas)) for _, e, deltas in rows]
        expected += sum(len(prefix) for _, prefix in prefixes)
        deep += sum(drops_past_a_short_pass(e, prefix) for e, prefix in prefixes)
        points += 1
    assert points == 35 and calls == expected < 400 and deep


def test_duplication_numerator_has_no_cubic_term():
    # _arch_step skips the p^3 q coefficient of N and the p^4 one of D.  Both
    # are 0 on random curves, and N(x, 1)/D(x, 1) is x(2P) at a point
    # P = (x, y) built on each.
    rng = random.Random(5)
    for E in _random_integral_curves(rng, 400) + [Y_CURVE]:
        N, D = _duplication_forms(E)
        assert (len(N), len(D), N[3], N[4], D[3], D[4]) == (5, 5, 0, 1, 4, 0), E
    built = 0
    while built < 300:
        x, y = rng.randint(-50, 50), rng.randint(1, 50)
        a2, a4 = rng.randint(-50, 50), rng.randint(-50, 50)
        try:
            E = EllipticCurve(a2, a4, y * y - ((x + a2) * x + a4) * x)
        except ValueError:          # singular
            continue
        N, D = _duplication_forms(E)
        P = point(x, y)
        assert N[3] == D[4] == 0
        assert Fraction(Poly(N)(x), Poly(D)(x)) == E.add(P, P).x, (E, P)
        built += 1


# x^4 - 1 and 4x^3 - 4 share the root x = 1.
COMMON_ROOT = ((-1, 0, 0, 0, 1), (-4, 0, 0, 4, 0))


@pytest.fixture
def common_root_forms(monkeypatch):
    # Y_CURVE is its own integral model, so its height data lives on it.
    monkeypatch.setattr(Y_CURVE, "_heights", None)
    monkeypatch.setattr(elliptic, "_duplication_forms", lambda E: COMMON_ROOT)


def test_non_coprime_duplication_pair_raises_check_failed(common_root_forms,
                                                         monkeypatch):
    with pytest.raises(CheckFailed, match="not coprime"):
        height_gap_bounds(Y_CURVE)
    with pytest.raises(CheckFailed, match="not coprime"):
        canonical_height(Y_CURVE, G)
    # Coprime at q, but both reversed forms vanish at p = 0: x^2 + 1 and
    # 4x^3 + 1 reverse to t^4 + t^2 and t^4 + 4t.
    monkeypatch.setattr(elliptic, "_duplication_forms",
                        lambda E: ((1, 0, 1, 0, 0), (1, 0, 0, 4, 0)))
    with pytest.raises(CheckFailed, match="not coprime"):
        height_gap_bounds(Y_CURVE)


def test_non_coprime_duplication_pair_exits_4(common_root_forms, capsys):
    code = main(["heights", "--json", "--point=4,-16", "--", "-4", "-3", "1"])
    out = capsys.readouterr()
    assert code == EXIT_CHECK_FAILED == 4
    assert out.out == ""
    assert out.err.startswith("error: check failed: duplication pair not coprime")


def test_non_coprime_duplication_pair_exits_4_under_python_O():
    script = ("import sys\n"
              "assert False, 'asserts must be off'\n"
              "from symcurves import elliptic\n"
              "elliptic._duplication_forms = lambda E: ((-1, 0, 0, 0, 1),\n"
              "                                         (-4, 0, 0, 4, 0))\n"
              "from symcurves.cli import main\n"
              "sys.exit(main(['heights', '--', '-4', '-3', '1']))\n")
    src = str(pathlib.Path(symcurves.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-O", "-c", script],
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=src))
    assert child.returncode == 4, child.stderr
    assert child.stderr.startswith("error: check failed: duplication pair not coprime")
    assert "Traceback" not in child.stderr


def test_height_machine_is_built_once_per_curve_and_freed_with_it(monkeypatch):
    from test_quartic_golden import CORPUS, _run_quartic

    built = forms = 0

    class Counting(elliptic._HeightMachine):
        def __init__(self, E):
            nonlocal built
            built += 1
            super().__init__(E)

    def counting_forms(E, real=elliptic._duplication_forms):
        nonlocal forms
        forms += 1
        return real(E)

    monkeypatch.setattr(elliptic, "_HeightMachine", Counting)
    monkeypatch.setattr(elliptic, "_duplication_forms", counting_forms)
    for item in CORPUS:
        _run_quartic(item)
    # Each item asks twice (gap bounds and the height of G) and builds once,
    # and each build writes the duplication forms once.
    assert built == forms == len(CORPUS) == 30
    E = EllipticCurve(Fraction(1, 2), 7, 1)
    machine = weakref.ref(_machine_for(E))
    assert _machine_for(E) is machine() is E.integral_model()[0]._heights
    del E
    gc.collect()
    assert machine() is None
