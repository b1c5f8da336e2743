import ast
import functools
import inspect
import math
import os
import pathlib
import random
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import symcurves
from symcurves import demjanenko, elliptic
from symcurves.demjanenko import (
    SIEVE_PRIME_COUNT,
    VERIFIED_WINDOW_FLOOR,
    DemjanenkoInput,
    _sieve_primes,
    _sieve_survivors,
    build_input,
    determine_points,
    enumerate_and_pull_back,
    equal_index_points,
    index_bound,
    n_window,
)
from symcurves.elliptic import (
    INF,
    EllipticCurve,
    canonical_height,
    height_gap_bounds,
    point,
)
from symcurves.exact import (
    FIELD_TABLE_CACHE,
    _SIEVE_LIMIT,
    _field_tables,
    rational_sqrt,
)
from symcurves.quartic import SymQuartic, kappa, phi, phi_preimages
from test_quartic import qpoint
from test_quartic_golden import CORPUS as GOLDEN_CORPUS

X4 = SymQuartic(-4, -3, 1)
G = point(4, -16)

X4_POINTS = {qpoint(x, y) for x, y in [
    (0, 1), (0, -1), (2, 1), (2, -1), (-2, 1), (-2, -1),
    (1, 0), (-1, 0), (1, 2), (1, -2), (-1, 2), (-1, -2)]}


def brute_force_points(F, cap_num, cap_den=1):
    """Oracle: exhaustive scan over rationals with bounded numerator and
    denominator, solving the biquadratic in y exactly for each x."""
    a, b = F.a_eff, F.b_eff
    out = set()
    seen_x = set()
    for den in range(1, cap_den + 1):
        for num in range(-cap_num, cap_num + 1):
            x = Fraction(num, den)
            if x in seen_x:
                continue
            seen_x.add(x)
            c = x**4 + a * x * x - b
            disc = a * a - 4 * c
            s = rational_sqrt(disc)
            if s is None:
                continue
            for t in {(-a + s) / 2, (-a - s) / 2}:
                r = rational_sqrt(t)
                if r is None:
                    continue
                for y in {r, -r}:
                    P = qpoint(x, y)
                    if F.contains(P):
                        out.add(P)
    return out


def test_n_window_examples():
    assert n_window(78) == 40
    assert n_window(0) == 0
    assert n_window(1) == 1
    assert n_window(77) == 39
    with pytest.raises(ValueError):
        n_window(-1)


def test_index_bound_rank_zero():
    inp = build_input(SymQuartic(-4, -6, 5), None, rank_claim=0)
    assert index_bound(inp) == 0


def test_index_bound_small_numerator_forces_zero():
    inp = DemjanenkoInput(X4, None, G, [INF], 1, hhat_G=20.715,
                          height_gap_upper=5.0, height_gap_lower=5.0,
                          phi_gap=10.0)
    assert index_bound(inp) == 0  # 20.0 / 20.715 < 1


def test_index_bound_rejects_nonpositive_height():
    inp = DemjanenkoInput(X4, None, G, [INF], 1, hhat_G=0.0,
                          height_gap_upper=1.0, height_gap_lower=1.0,
                          phi_gap=1.0)
    with pytest.raises(ValueError):
        index_bound(inp)


def test_build_input_validates_generator():
    with pytest.raises(ValueError):
        build_input(X4, point(0, 0), 1)  # torsion generator
    with pytest.raises(ValueError):
        build_input(X4, point(3, 1), 1)  # off curve
    with pytest.raises(ValueError):
        build_input(X4, G, 2)


def test_rank_zero_claim_checks_a_given_generator():
    # G = (4, -16) is on the companion curve of X_4 and has infinite order,
    # so it refutes a rank-0 claim; off the curve it is rejected as for
    # rank 1.  A torsion point, INF or no generator leave the claim standing.
    with pytest.raises(ValueError,
                       match="generator has infinite order; rank-0 claim inconsistent"):
        build_input(X4, G, 0)
    with pytest.raises(ValueError, match="generator is not on the companion curve"):
        build_input(X4, point(3, 1), 0)
    for gen in (None, INF, point(0, 0)):
        inp = build_input(X4, gen, 0)
        assert (inp.rank_claim, inp.generator) == (0, INF)
    assert determine_points(X4, point(0, 0), 0).points == frozenset(
        {qpoint(0, 1), qpoint(0, -1), qpoint(1, 0), qpoint(-1, 0)})


def test_build_input_tests_the_generator_for_torsion_once(monkeypatch):
    # The generator's order is read from the torsion list, which
    # torsion_subgroup certifies complete: is_torsion runs only inside that
    # search.  X_4's quartic envelope is still its golden one, and both
    # inconsistent rank claims are still refused.
    from test_quartic_golden import _golden, _key, _run_quartic

    assert not hasattr(demjanenko, "is_torsion")
    hhat = canonical_height(build_input(X4, G, 1).E, G, 1e-8)
    inside = False
    real_is_torsion, real_subgroup = elliptic.is_torsion, demjanenko.torsion_subgroup

    def subgroup(E):
        nonlocal inside
        inside = True
        try:
            return real_subgroup(E)
        finally:
            inside = False

    def is_torsion(E, P):
        if not inside:
            raise AssertionError("is_torsion called outside torsion_subgroup")
        return real_is_torsion(E, P)

    monkeypatch.setattr(demjanenko, "torsion_subgroup", subgroup)
    monkeypatch.setattr(elliptic, "is_torsion", is_torsion)
    assert build_input(X4, G, 1).hhat_G == hhat
    item = GOLDEN_CORPUS[0]
    assert _key(item) == "a=-4 b=-3 G=(4,-16)"
    code, env = _run_quartic(item)
    assert (code, env) == (_golden()[_key(item)]["exit"],
                           _golden()[_key(item)]["envelope"])
    with pytest.raises(ValueError,
                       match="generator is torsion; rank-1 claim inconsistent"):
        build_input(X4, point(0, 0), 1)
    with pytest.raises(ValueError,
                       match="generator has infinite order; rank-0 claim inconsistent"):
        build_input(X4, G, 0)


def test_x4_certificate():
    cert = determine_points(X4, G, rank_claim=1)
    assert cert.points == frozenset(X4_POINTS)
    assert cert.n_window >= 40
    assert 0 < cert.index_bound <= 120
    assert any("rank" in c for c in cert.conditional_on)


def test_certificate_soundness():
    cert = determine_points(X4, G, rank_claim=1)
    for P in cert.points:
        assert X4.contains(P)


def test_certificate_symmetry_closure():
    cert = determine_points(X4, G, rank_claim=1)
    for P in cert.points:
        assert P.swap() in cert.points
        assert qpoint(-P.x, P.y) in cert.points
        assert qpoint(P.x, -P.y) in cert.points


def test_monotonicity_in_window():
    inp = build_input(X4, G, 1)
    base = enumerate_and_pull_back(inp, 40)
    wider = enumerate_and_pull_back(inp, 50)
    assert base.points == wider.points == frozenset(X4_POINTS)


def test_equal_index_points_x4():
    # The xy = 0 class; the x = +-y and translated classes are empty here.
    assert equal_index_points(X4) == {qpoint(0, 1), qpoint(0, -1),
                                      qpoint(1, 0), qpoint(-1, 0)}


def test_equal_index_points_hasse_twists():
    for alpha in (5, 7, 11, 13):
        assert equal_index_points(SymQuartic(-4, -6, alpha)) == set()
    # alpha = 3 is the known exception: x = +-y with x^2 = 3*alpha = 9.
    pts = equal_index_points(SymQuartic(-4, -6, 3))
    assert qpoint(3, 3) in pts and qpoint(3, -3) in pts
    # alpha = 1 admits the diagonal points (+-1, +-1) since x^2 = alpha.
    pts1 = equal_index_points(SymQuartic(-4, -6, 1))
    assert qpoint(1, 1) in pts1 and qpoint(-1, 1) in pts1


def test_equal_index_points_translated_class():
    # phi_1 +- phi_2 = (0, 0) with xy != 0: any x, y with
    # a = -2(x^2 + xy + y^2) gives one, since then (xy)^2 = -(b + a^2/4).
    # Against the brute-force search, the three classes together are all
    # the points with x = +-y, with xy = 0, or with (xy)^2 = -(b + a^2/4).
    # (1, 2) lies on (a, b) = (-14, -53).
    for x, y in [(1, 2), (1, -2), (1, 3), (2, 3), (Fraction(1, 2), 1), (2, -5)]:
        x, y = Fraction(x), Fraction(y)
        a = -2 * (x * x + x * y + y * y)
        b = x**4 + a * x * x + a * y * y + y**4
        F = SymQuartic(a, b, 1)
        target = -(b + a * a / 4)
        assert (x * y) ** 2 == target
        found = brute_force_points(F, 30, 4)
        assert qpoint(x, y) in found
        degenerate = {P for P in found if P.x in (P.y, -P.y)
                      or P.x * P.y == 0 or (P.x * P.y) ** 2 == target}
        assert equal_index_points(F) == degenerate, (x, y)


def test_hasse_twist_rank0_empty():
    cert = determine_points(SymQuartic(-4, -6, 5), None, rank_claim=0)
    assert cert.points == frozenset()
    assert cert.n_window == 0 and cert.index_bound == 0


def test_brute_force_completeness_x4_small_rationals():
    # Oracle sweep with denominators: nothing beyond the certificate.
    found = brute_force_points(X4, 40, 12)
    assert found == X4_POINTS


def test_brute_force_hasse_twists_empty():
    for alpha in (5, 7, 10, 11, 13):
        F = SymQuartic(-4, -6, alpha)
        assert brute_force_points(F, 30, 6) == set()


def test_phi_gap_matches_appendix_constant():
    inp = build_input(X4, G, 1)
    assert abs(inp.phi_gap - math.log(24 * 12 * 16)) < 1e-12
    inp6 = build_input(SymQuartic(-4, -6, 1), None, 0)
    assert abs(inp6.phi_gap - (8 * math.log(2) + 3 * math.log(3))) < 1e-12


# ------------------------------------------------------------ residue sieve

# (a, b, G): X_4 with G = (4, -16), then curves whose companion torsion has
# order 4, each with G = phi_1(P) for a seeded point P on F_(a, b), then two
# curves with a' = 0, where primes l = 3 (mod 4) alone reject no odd n*G.
SIEVE_CURVES = [
    (-4, -3, (4, -16)),
    (Fraction(-1, 2), Fraction(287, 16), (-9, 45)),
    (-8, -23, (-16, 48)),
    (Fraction(-9, 2), Fraction(-49, 8), (-9, 24)),
    (-12, Fraction(-527, 16), (-9, 60)),
    (-8, Fraction(-287, 16), (-25, 60)),
    (0, 2, (-4, 8)),
    (0, 1312, (-144, -192)),
]


def _sieve_input(case):
    a, b, (gx, gy) = SIEVE_CURVES[case]
    return build_input(SymQuartic(a, b, 1), point(gx, gy), 1)


@functools.lru_cache(maxsize=None)
def unsieved_walk(case):
    """The walk without the sieve: every n*G + T with |n| <= N = 40 built
    by repeated addition and pulled back through phi_1.  Returns the point
    set with the swap images and the equal-index classes, and for each
    pair (T index, n) the preimages of n*G + T and of its negative."""
    inp, N = _sieve_input(case), VERIFIED_WINDOW_FLOOR
    E, F = inp.E, inp.F
    preimages = {}
    for i, T in enumerate(inp.torsion):
        R = T
        for n in range(N + 1):
            if n:
                R = E.add(R, inp.generator)
            found = set()
            for Q in {R, E.neg(R)} - {INF}:
                found |= phi_preimages(1, Q, F)
            preimages[i, n] = found
    points = set(equal_index_points(F))
    for found in preimages.values():
        points |= found | {P.swap() for P in found}
    return points, preimages


@pytest.mark.parametrize("case", range(len(SIEVE_CURVES)))
def test_sieved_walk_matches_unsieved_walk(case):
    inp = _sieve_input(case)
    points, _ = unsieved_walk(case)
    assert enumerate_and_pull_back(inp, VERIFIED_WINDOW_FLOOR).points == points
    assert determine_points(inp.F, inp.generator, 1).points == points


@pytest.mark.parametrize("case", range(len(SIEVE_CURVES)))
def test_sieve_rejections_have_no_preimage(case):
    inp = _sieve_input(case)
    _, preimages = unsieved_walk(case)
    alive = _sieve_survivors(inp, VERIFIED_WINDOW_FLOOR, _sieve_primes(inp.E))
    rejected = [(i, n) for n, row in enumerate(alive)
                for i, survives in enumerate(row) if not survives]
    assert rejected  # the sieve does work on every curve of the corpus
    if inp.F.a_eff == 0:
        # Some odd n*G is not built at all: the sieve rejects n*G + T for
        # every torsion point T.
        assert any(n % 2 and not any(row) for n, row in enumerate(alive))
    for key in rejected:
        assert preimages[key] == set(), key
    assert all(alive[n][i] for (i, n), found in preimages.items() if found)


def test_sieve_primes_are_the_first_good_primes():
    for case in range(len(SIEVE_CURVES)):
        E = _sieve_input(case).E
        disc = E.discriminant()
        dens = (E.a2.denominator, E.a4.denominator)
        expected = [ell for ell in range(3, 400, 2)
                    if all(ell % q for q in range(2, ell))
                    and all(d % ell for d in dens) and disc.numerator % ell]
        assert _sieve_primes(E) == expected[:SIEVE_PRIME_COUNT]


def test_sieve_primes_read_the_sieve_table(monkeypatch):
    # Below exact's sieve limit no odd l is tested for primality.  Past it,
    # for a discriminant with all but 10 of the table's odd primes, the
    # list goes on with the primes above the limit.
    proved = []
    real = elliptic.is_prime

    def recording(n):
        proved.append(n)
        return real(n)

    curves = [_sieve_input(case).E for case in range(len(SIEVE_CURVES))]
    monkeypatch.setattr(elliptic, "is_prime", recording)
    for E in curves:
        _sieve_primes(E)
    assert proved == []
    table = [ell for ell in range(3, _SIEVE_LIMIT, 2) if real(ell)]
    big = types.SimpleNamespace(a2=Fraction(1), a4=Fraction(1), a6=Fraction(0),
                                discriminant=lambda: Fraction(math.prod(table[:-10])))
    beyond = [ell for ell in range(_SIEVE_LIMIT + 1, _SIEVE_LIMIT + 400, 2)
              if real(ell)]
    expected = (table[-10:] + beyond)[:SIEVE_PRIME_COUNT]
    assert _sieve_primes(big) == expected
    assert proved and max(proved) == expected[-1]


def test_sieve_preconditions_raise():
    # F_(-8, -23) has companion discriminant 2^18 * 3^2 * 7^2: 3 and 7 are
    # primes of bad reduction.
    inp = _sieve_input(2)
    assert inp.E.discriminant().numerator % 21 == 0
    for primes in ([2], [3], [7], [11, 7], [9], [15]):
        with pytest.raises(ValueError):
            _sieve_survivors(inp, 4, primes)
    # Good primes of both classes mod 4 are valid.
    assert _sieve_survivors(inp, 4, [11, 19])[0][0]
    assert _sieve_survivors(inp, 4, [5, 13, 11])[0][0]
    # The sieve is sound only on the companion curve of F, where a6 = 0.
    x4 = _sieve_input(0)
    for E in (EllipticCurve(16, -16, 1), EllipticCurve(16, -15, 0)):
        other = DemjanenkoInput(x4.F, E, x4.generator, [INF], 1,
                                1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            _sieve_survivors(other, 4, [7])


def test_sieve_preconditions_survive_python_O():
    script = (
        "from symcurves.demjanenko import build_input, _sieve_survivors\n"
        "from symcurves.elliptic import point\n"
        "from symcurves.quartic import SymQuartic\n"
        "assert False, 'asserts must be off'\n"
        "inp = build_input(SymQuartic(-8, -23, 1), point(-16, 48), 1)\n"
        "try:\n"
        "    _sieve_survivors(inp, 4, [7])\n"
        "except ValueError as exc:\n"
        "    print('refused:', exc)\n")
    src = str(pathlib.Path(symcurves.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-O", "-c", script],
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=src))
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("refused: 7 is not a prime")


def _small_good_primes(inp):
    # The odd primes l < 60 of good reduction for the companion curve.
    E = inp.E
    den = math.lcm(E.a2.denominator, E.a4.denominator)
    disc = E.discriminant().numerator
    return [ell for ell in range(3, 60, 2)
            if all(ell % q for q in range(2, ell)) and den % ell and disc % ell]


@pytest.mark.parametrize("case", [0, 1, 6])
def test_no_preimage_mod_is_the_lemma_at_every_small_prime(case):
    # For every odd good l < 60, of both classes mod 4, and every affine
    # point (X, Y) of E(F_l): the lemma rejects exactly when X != 0 and no
    # (x, y) in F_l^2 with x != 0 has -4x^2 = X and x(8y^2 + 4a') = +-Y.
    # `reference_no_preimage` is the lemma as the sieve's reference walk
    # applies it; test_live_pair_sieve_matches_the_row_walk holds the
    # sieve to that walk at each of these primes alone.
    inp = _sieve_input(case)
    E, F = inp.E, inp.F
    primes = _small_good_primes(inp)
    assert {ell % 4 for ell in primes} == {1, 3}
    for ell in primes:
        a2, a4, a = (q.numerator * pow(q.denominator, -1, ell) % ell
                     for q in (E.a2, E.a4, F.a_eff))
        images = {(-4 * x * x % ell, x * (8 * y * y + 4 * a) % ell)
                  for x in range(1, ell) for y in range(ell)}
        roots = {t * t % ell: t for t in range(ell)}
        for X in range(ell):
            for Y in range(ell):
                if (Y * Y - ((X + a2) * X + a4) * X) % ell:
                    continue
                hit = (X, Y) in images or (X, -Y % ell) in images
                rejected = reference_no_preimage((X, Y), a, ell, roots)
                assert rejected == (X != 0 and not hit), (ell, X, Y)


def test_field_tables_match_brute_force():
    # Every odd prime below 200: inv[x] inverts x, and root[v] is a square
    # root of v exactly when v is a square mod l (-1 otherwise).
    for ell in range(3, 200, 2):
        if any(ell % q == 0 for q in range(2, ell)):
            continue
        inv, root = _field_tables(ell)
        squares = {t * t % ell for t in range(ell)}
        assert len(inv) == len(root) == ell
        assert all(x * inv[x] % ell == 1 for x in range(1, ell)), ell
        for v in range(ell):
            if v in squares:
                assert 0 <= root[v] < ell and root[v] ** 2 % ell == v, (ell, v)
            else:
                assert root[v] == -1, (ell, v)


# ------------------------------------------------ reference row-by-row sieve

def reference_add_mod(P, Q, a2, a4, ell):
    # The group law mod l with an inverse computed for each addition.
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - a2 - x1 - x2) % ell
    return (x3, (lam * (x1 - x3) - y1) % ell)


def reference_no_preimage(R, a, ell, roots):
    # The lemma of the demjanenko docstring, with a dict of square roots.
    if R is None or R[0] == 0:
        return False
    X, Y = R
    t = roots.get(-X * pow(4, -1, ell) % ell)
    if t is None:
        return True
    yt, inv8 = Y * pow(t, -1, ell), pow(8, -1, ell)
    return not any(v in roots for v in ((yt - 4 * a) * inv8 % ell,
                                        (-yt - 4 * a) * inv8 % ell))


def reference_survivors(inp, N, primes):
    """The residue sieve as a full row walk: at every prime, n*G mod l for
    all rows 0 <= n <= N, and every entry still alive tested."""
    E, F = inp.E, inp.F

    def reduce(P, ell):
        if P is INF or P.x.denominator % ell == 0:
            return None
        return tuple(c.numerator * pow(c.denominator, -1, ell) % ell
                     for c in (P.x, P.y))

    alive = [[True] * len(inp.torsion) for _ in range(N + 1)]
    for ell in primes:
        a2, a4, a = (c.numerator * pow(c.denominator, -1, ell) % ell
                     for c in (E.a2, E.a4, F.a_eff))
        roots = {t * t % ell: t for t in range(ell)}
        G = reduce(inp.generator, ell)
        torsion = [reduce(T, ell) for T in inp.torsion]
        nG = None
        for row in alive:
            for i, T in enumerate(torsion):
                if row[i] and reference_no_preimage(
                        reference_add_mod(nG, T, a2, a4, ell), a, ell, roots):
                    row[i] = False
            nG = reference_add_mod(nG, G, a2, a4, ell)
    return alive


def _random_back_solved_inputs(seed, count, dens=(1, 1, 2)):
    """Curves F_(a, b) with b back-solved from a seeded point P = (x, y) and
    G = phi_1(P), as the benchmark corpus builds them; torsion G skipped.
    x, y and a are n/d with |n| <= 9 and d drawn from `dens`."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x, y, a = (Fraction(rng.randint(-9, 9), rng.choice(dens))
                   for _ in range(3))
        b = x**4 + a * x * x + a * y * y + y**4
        if x == 0 or b * (a * a + 2 * b) * (a * a + 4 * b) == 0:
            continue
        G = point(-4 * x * x, x * (8 * y * y + 4 * a))
        try:
            out.append(build_input(SymQuartic(a, b, 1), G, 1))
        except ValueError:              # G is torsion
            continue
    return out


def _differential_inputs():
    golden = [build_input(SymQuartic(Fraction(a), Fraction(b), 1),
                          point(int(gx), int(gy)), 1)
              for a, b, gx, gy in GOLDEN_CORPUS]
    sieve = [_sieve_input(case) for case in range(len(SIEVE_CURVES))]
    return golden + sieve + _random_back_solved_inputs(11, 40)


def test_index_bound_holds_on_every_certified_point(monkeypatch):
    # If phi_1(P) = +-n1*G + T and phi_2(P) = +-n2*G + T' with n1, n2 >= 0
    # and T, T' torsion, the proof needs |n1^2 - n2^2| <= B.  B is held to
    # the bound recomputed here from the three terms it rests on, phi_gap,
    # sup(hhat - h) and sup(h - hhat), with the height-gap and window floors
    # patched out so that neither can hide a term that is missing.  On these
    # curves G = phi_1(P0) need not generate E(Q) mod torsion, so a point
    # whose images lie outside <G> + E(Q)_tors is not indexed; the corpus
    # still has points with n1 != n2.
    monkeypatch.setattr(demjanenko, "CERTIFIED_GAP_FLOOR", 0.0)
    monkeypatch.setattr(demjanenko, "VERIFIED_WINDOW_FLOOR", 0)
    unequal = 0
    for inp in _random_back_solved_inputs(11, 40):
        E, F, G = inp.E, inp.F, inp.generator
        up, low = height_gap_bounds(E)
        phi_gap = math.log(24 * 12 * kappa(F.a_eff, F.b_eff))
        B = index_bound(inp)
        assert B >= math.floor((phi_gap + up + low) / canonical_height(E, G))
        cert = determine_points(F, G, 1)
        assert cert.index_bound == B and cert.n_window == n_window(B)
        # Each +-(n*G + T) indexed by the least n >= 0, well past the window.
        index, nG = {}, INF
        for n in range(2 * cert.n_window + 8):
            for T in inp.torsion:
                R = E.add(nG, T)
                for Q in (R, E.neg(R)):
                    index.setdefault(Q, n)
            nG = E.add(nG, G)
        for P in cert.points:
            n1, n2 = index.get(phi(1, P, F)), index.get(phi(2, P, F))
            if n1 is None or n2 is None:
                continue
            assert abs(n1 * n1 - n2 * n2) <= B, (F, P, n1, n2)
            unequal += n1 != n2
    assert unequal


def test_live_pair_sieve_matches_the_row_walk():
    # Each good prime l < 60 is also sieved alone, where no other prime
    # hides a wrong residue: these are the primes at which the lemma test
    # checks `reference_no_preimage` against every point of E(F_l).
    inputs = _differential_inputs()
    assert len(inputs) == 30 + len(SIEVE_CURVES) + 40
    for inp in inputs:
        primes = _sieve_primes(inp.E)
        alone = [(VERIFIED_WINDOW_FLOOR, [ell]) for ell in _small_good_primes(inp)]
        for N, chosen in ((VERIFIED_WINDOW_FLOOR, primes), (55, primes),
                          (7, primes[::-1]), (0, primes[:3]), (40, []), *alone):
            expected = reference_survivors(inp, N, chosen)
            assert _sieve_survivors(inp, N, chosen) == expected, (inp.F, N, chosen)


def test_sieve_doubles_where_a_multiple_meets_a_torsion_point():
    # With a torsion point T as the generator, n*G + T_i meets the doubling
    # T + T at n = 1 and T_i = T, mod every prime, in the filter as well as
    # in the walk; the corpora above rarely have n*G = T_i mod l.  The
    # sieve needs no infinite order, only points of E, so each torsion
    # point of curves with torsion Z/6, Z/2 x Z/4 and Z/4 serves, against
    # the row walk at all the sieve primes and at each good prime < 60 alone.
    for a, b in ((-6, -6), (-2, 2), (-8, -23), (-12, Fraction(-527, 16))):
        F = SymQuartic(a, b, 1)
        base = build_input(F, None, 0)
        assert len(base.torsion) in (4, 6, 8)
        primes = _sieve_primes(base.E)
        for T in base.torsion[1:]:
            inp = DemjanenkoInput(F, base.E, T, base.torsion, 1,
                                  1.0, 1.0, 1.0, 1.0)
            for chosen in [primes] + [[ell] for ell in _small_good_primes(inp)]:
                expected = reference_survivors(inp, 12, chosen)
                assert _sieve_survivors(inp, 12, chosen) == expected, (a, b, T, chosen)


def test_sieve_reduces_rationals_with_odd_denominators():
    # In the corpus above every point is integral, so no denominator of x or
    # y is inverted mod l.  Here x, y and a have denominators 3 and 5, and
    # G = phi_1(P) has x(G) with denominator d^2 and y(G) with d^3.  Then
    # kG on curves with torsion of order 4, whose x has sieve primes in its
    # denominator (5; 29 and 89; 3; 3; 5 and 11): kG is the identity mod
    # those l, which are also sieved alone, where no other prime hides a
    # wrong residue (inv[0] = 0 would read kG as (0, 0), which changes the
    # result on F_(-8, -23) at 5).
    inputs = _random_back_solved_inputs(5, 12, dens=(1, 3, 5))
    dens = {inp.generator.x.denominator for inp in inputs}
    assert dens & {9, 25} and any(
        inp.generator.y.denominator not in (1, inp.generator.x.denominator)
        for inp in inputs)
    for case, k in ((1, 2), (1, 3), (3, 2), (4, 2), (2, 4)):
        base = _sieve_input(case)
        inp = build_input(base.F, base.E.scalar_mul(k, base.generator), 1)
        assert len(inp.torsion) == 4 and any(
            inp.generator.x.denominator % ell == 0
            for ell in _sieve_primes(inp.E))
        inputs.append(inp)
    for inp in inputs:
        primes = _sieve_primes(inp.E)
        at_infinity = [ell for ell in primes
                       if inp.generator.x.denominator % ell == 0]
        for N, chosen in ((VERIFIED_WINDOW_FLOOR, primes), (7, primes[::-1]),
                          (VERIFIED_WINDOW_FLOOR, at_infinity)):
            expected = reference_survivors(inp, N, chosen)
            assert _sieve_survivors(inp, N, chosen) == expected, (inp.F, N)


def test_certificate_from_cold_and_warm_field_tables():
    # The tables are kept per process, in a cache of bounded size.
    assert _field_tables.cache_info().maxsize == FIELD_TABLE_CACHE
    assert isinstance(FIELD_TABLE_CACHE, int) and FIELD_TABLE_CACHE > 0
    for case in range(len(SIEVE_CURVES)):
        inp = _sieve_input(case)
        warm = determine_points(inp.F, inp.generator, 1)
        _field_tables.cache_clear()
        cold = determine_points(inp.F, inp.generator, 1)
        assert cold == warm
        assert _field_tables.cache_info().currsize > 0


def test_sieve_loop_computes_no_inverse():
    # Inverses and square roots mod l come from `_field_tables` only, and
    # the sieve reduces its rationals from their numerators and denominators
    # with that table, not through `rat_mod`.
    tree = ast.parse(inspect.getsource(_sieve_survivors))
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert "pow" not in calls and "rat_mod" not in calls


def test_sieve_leaves_no_false_multiple():
    # On every curve of the differential corpus, each pair (n, i) with
    # n >= 2 that the sieve leaves alive in the certificate's window pulls
    # back to a point of F at R = n*G + T_i or at -R: the exact walk sees
    # only rows that carry points.
    checked = 0
    for inp in _differential_inputs():
        E, F = inp.E, inp.F
        N = max(n_window(index_bound(inp)), VERIFIED_WINDOW_FLOOR)
        alive = _sieve_survivors(inp, N, _sieve_primes(E))
        for n, row in enumerate(alive):
            if n < 2 or not any(row):
                continue
            nG = E.scalar_mul(n, inp.generator)
            for T, survives in zip(inp.torsion, row):
                if survives:
                    R = E.add(nG, T)
                    found = set()
                    for Q in {R, E.neg(R)} - {INF}:
                        found |= phi_preimages(1, Q, F)
                    assert found, (F, n, T)
                    checked += 1
    assert checked  # the corpus has genuine points beyond n = 1
