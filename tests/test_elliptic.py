import itertools
import math
import random
from fractions import Fraction

import pytest

from symcurves.elliptic import (
    INF,
    EllipticCurve,
    _integer_roots_monic_cubic,
    canonical_height,
    canonical_height_doubling,
    count_points_mod_p,
    height_difference_bound,
    height_gap_bounds,
    is_torsion,
    naive_height,
    point,
    torsion_subgroup,
)
from symcurves.quartic import SymQuartic, companion_curve

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


def test_torsion_subgroups():
    tor = torsion_subgroup(Y_CURVE)
    assert tor[0] is INF
    assert {(P.x, P.y) for P in tor[1:]} == {(Fraction(0), Fraction(0))}
    E = EllipticCurve(16, 32, 0)
    tor = torsion_subgroup(E)
    assert {(P.x, P.y) for P in tor[1:]} == {(Fraction(0), Fraction(0))}


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
    with pytest.raises(ValueError):
        canonical_height(Y_CURVE, G, 0.0)


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
    bound = height_difference_bound(Y_CURVE)
    up, low = height_gap_bounds(Y_CURVE)
    assert bound == max(up, low) > 0
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
