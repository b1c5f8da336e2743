import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import symcurves
from symcurves import elliptic
from symcurves.cli import EXIT_CHECK_FAILED, main
from symcurves.elliptic import (
    HEIGHT_MACHINE_MEMO,
    INF,
    EllipticCurve,
    _bezout_data,
    _duplication_forms,
    _eval_homog,
    _height_machine,
    _integer_roots_monic_cubic,
    _square_divisors,
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
from symcurves.exact import CheckFailed, IntPoly, factorize
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


# -- reference: the Bezout data as the toolkit computed it over Fraction
# coefficient lists, before the integer `exact.bezout` --


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
    for n, d in ((N, D), (N.reverse(4), D.reverse(4))):
        g, u, v = qpoly_ext_gcd(n.coeffs, d.coeffs)
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


def test_bezout_data_matches_fraction_reference():
    for E in _random_integral_curves(random.Random(2), 2000) + [Y_CURVE]:
        cq, U, V, cp, Ur, Vr = _bezout_data(E)
        got = (cq, list(U.coeffs), list(V.coeffs), cp, list(Ur.coeffs), list(Vr.coeffs))
        assert got == reference_bezout_data(E), E


def test_eval_homog_on_the_cubic_d():
    # The duplication D is a cubic list, homogenized to degree 4 by one more
    # factor of q; compared with the sum written out term by term.
    rng = random.Random(3)
    for _ in range(2000):
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(4)]
        p, q = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
        mod = rng.choice((2, 3, 7)) ** rng.randint(1, 40)
        expected = sum(c * p**i * q**(4 - i) for i, c in enumerate(coeffs)) % mod
        assert _eval_homog(coeffs, p, q, mod) == expected


# x^4 - 1 and 4x^3 - 4 share the root x = 1.
COMMON_ROOT = (IntPoly([-1, 0, 0, 0, 1]), IntPoly([-4, 0, 0, 4]))


@pytest.fixture
def common_root_forms(monkeypatch):
    _height_machine.cache_clear()
    monkeypatch.setattr(elliptic, "_duplication_forms", lambda E: COMMON_ROOT)
    yield
    _height_machine.cache_clear()


def test_non_coprime_duplication_pair_raises_check_failed(common_root_forms,
                                                         monkeypatch):
    with pytest.raises(CheckFailed, match="not coprime"):
        height_gap_bounds(Y_CURVE)
    with pytest.raises(CheckFailed, match="not coprime"):
        canonical_height(Y_CURVE, G)
    # Coprime at q, but both reversed forms vanish at p = 0: x^2 + 1 and
    # 4x^3 + 1 reverse to t^4 + t^2 and t^4 + 4t.
    monkeypatch.setattr(elliptic, "_duplication_forms",
                        lambda E: (IntPoly([1, 0, 1]), IntPoly([1, 0, 0, 4])))
    with pytest.raises(CheckFailed, match="not coprime"):
        _bezout_data(Y_CURVE)


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
              "from symcurves.exact import IntPoly\n"
              "elliptic._duplication_forms = lambda E: (IntPoly([-1, 0, 0, 0, 1]),\n"
              "                                         IntPoly([-4, 0, 0, 4]))\n"
              "from symcurves.cli import main\n"
              "sys.exit(main(['heights', '--', '-4', '-3', '1']))\n")
    src = str(pathlib.Path(symcurves.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-O", "-c", script],
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=src))
    assert child.returncode == 4, child.stderr
    assert child.stderr.startswith("error: check failed: duplication pair not coprime")
    assert "Traceback" not in child.stderr


def test_height_machine_memo_is_bounded():
    info = _height_machine.cache_info()
    assert isinstance(info.maxsize, int) and info.maxsize == HEIGHT_MACHINE_MEMO > 0
    _height_machine.cache_clear()
    before = (height_gap_bounds(Y_CURVE), canonical_height(Y_CURVE, G))
    for a4 in range(1, HEIGHT_MACHINE_MEMO + 2):
        height_gap_bounds(EllipticCurve(0, a4, 1))
    info = _height_machine.cache_info()
    assert info.currsize == HEIGHT_MACHINE_MEMO
    # Y_CURVE was evicted: it is built once more, with the same results.
    after = (height_gap_bounds(Y_CURVE), canonical_height(Y_CURVE, G))
    assert _height_machine.cache_info().misses == info.misses + 1
    assert after == before
