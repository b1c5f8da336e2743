import importlib.util
import math
import pathlib
import random
from fractions import Fraction

import pytest

import quarticref
from symcurves import demjanenko
from symcurves.demjanenko import determine_points
from symcurves.elliptic import INF, EllipticCurve, point
from symcurves.exact import factorize
from symcurves.quartic import (
    QuarticPoint,
    SymQuartic,
    biquadratic_roots,
    companion_curve,
    kappa,
    phi_preimages,
)
from quarticref import phi
from test_exact import p_valuation
from test_quartic_golden import CORPUS as GOLDEN_CORPUS

X4 = SymQuartic(-4, -3, 1)
HASSE = SymQuartic(-4, -6, 1)


def qpoint(x, y) -> QuarticPoint:
    return QuarticPoint(Fraction(x), Fraction(y))


def projective_height(P: QuarticPoint) -> int:
    """H([x, y, 1]) = max abs of the coprime integer coordinates."""
    den = (P.x.denominator * P.y.denominator
           // math.gcd(P.x.denominator, P.y.denominator))
    xs = P.x.numerator * (den // P.x.denominator)
    ys = P.y.numerator * (den // P.y.denominator)
    g = math.gcd(math.gcd(abs(xs), abs(ys)), den)
    return max(abs(xs) // g, abs(ys) // g, den // g)


def height_sandwich_check(P: QuarticPoint, F: SymQuartic) -> bool:
    """Exact check of H_F^2 / (12*kappa) <= H(x(phi_i(P))) <= 24*H_F^2 for
    both covering maps (the multiplicative form of the height sandwich, the
    inequality behind `phi_gap` in `demjanenko.build_input`)."""
    assert F.contains(P)
    k = kappa(F.a_eff, F.b_eff)
    hf = projective_height(P)
    for i in (1, 2):
        img = phi(i, P, F)
        if img is INF or img.x == 0:
            he = 1
        else:
            he = max(abs(img.x.numerator), img.x.denominator)
        if not (Fraction(hf * hf) / (12 * k) <= he <= 24 * hf * hf):
            return False
    return True


def phi_sum_x_closed_form(P: QuarticPoint, F: SymQuartic):
    """x(phi_1(P) + phi_2(P)) via the closed form

        ((2xy)^2 + (2x+2y)^2 (x^2+y^2) + 4a(x^2+xy+y^2) + a^2)
        / (x+y)^2,

    at z = 1; returns the string "infinity" at the pole x + y = 0.  It is
    the form whose degree `test_degree_pairing_structure` counts."""
    assert F.contains(P)
    x, y, a = P.x, P.y, F.a_eff
    if x + y == 0:
        return "infinity"
    num = ((2 * x * y) ** 2 + (2 * x + 2 * y) ** 2 * (x * x + y * y)
           + 4 * a * (x * x + x * y + y * y) + a * a)
    return num / (x + y) ** 2


def random_on_curve(rng):
    """Backsolve b so that a random (x, y) lies on F_(a,b)."""
    while True:
        x = Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
        y = Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
        a = Fraction(rng.randrange(-10, 11), rng.randrange(1, 5))
        b = x**4 + a * x * x + a * y * y + y**4
        try:
            F = SymQuartic(a, b, 1)
        except ValueError:
            continue
        return F, qpoint(x, y)


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        SymQuartic(1, 0, 1)
    with pytest.raises(ValueError):
        SymQuartic(2, -1, 1)  # a^2 + 4b = 0
    with pytest.raises(ValueError):
        SymQuartic(-4, -3, 12)  # non-squarefree twist


def test_companion_curves():
    assert companion_curve(X4) == EllipticCurve(16, -16, 0)
    assert companion_curve(HASSE) == EllipticCurve(16, 32, 0)
    tw = SymQuartic(-4, -6, 5)
    assert companion_curve(tw) == EllipticCurve(80, 800, 0)


def test_phi_examples():
    assert phi(1, qpoint(1, 0), X4) == point(-4, -16)
    assert phi(1, qpoint(-2, 1), X4) == point(-16, 16)
    assert phi(2, qpoint(0, 1), X4) == point(-4, -16)


def test_phi_rejects_off_curve():
    with pytest.raises(ValueError):
        phi(1, qpoint(1, 1), X4)
    with pytest.raises(ValueError):
        phi(3, qpoint(1, 0), X4)


def test_phi_symmetry_on_diagonal():
    rng = random.Random(5)
    for _ in range(20):
        x = Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
        a = Fraction(rng.randrange(-6, 7))
        b = 2 * x**4 + 2 * a * x * x
        try:
            F = SymQuartic(a, b, 1)
        except ValueError:
            continue
        P = qpoint(x, x)
        assert phi(1, P, F) == phi(2, P, F)


def test_phi_lands_on_companion_exactly():
    rng = random.Random(9)
    for _ in range(50):
        F, P = random_on_curve(rng)
        E = companion_curve(F)
        assert E.contains(phi(1, P, F))
        assert E.contains(phi(2, P, F))


def fraction_contains(F, P):
    """The on-curve test in Fraction arithmetic, as `contains` was written
    before it cleared denominators: the reference for it."""
    x, y, a = P.x, P.y, F.a_eff
    return x**4 + a * x * x + a * y * y + y**4 == F.b_eff


def test_contains_matches_fraction_reference():
    # Random twists F_(a, b) by alpha through a random point P, with b
    # back-solved from P; tested on the images of P under signs and the swap,
    # on perturbed points off F, and on phi_1(P) and its perturbations
    # against the Fraction test of the companion curve.
    rng = random.Random(2027)
    verdicts = []
    while len(verdicts) < 3000:
        x = Fraction(rng.randint(-15, 15), rng.randint(1, 8))
        y = Fraction(rng.randint(-15, 15), rng.randint(1, 8))
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        alpha = rng.choice((1, 1, -1, 2, -3, 5, 6, -7, 10, -15))
        a_eff = alpha * a
        b = (x**4 + a_eff * x * x + a_eff * y * y + y**4) / alpha**2
        try:
            F = SymQuartic(a, b, alpha)
        except ValueError:
            continue
        P = qpoint(x, y)
        tests = [P, P.swap(), qpoint(-x, y), qpoint(x, -y),
                 qpoint(x + Fraction(1, rng.randint(1, 9)), y),
                 qpoint(x, y * rng.randint(2, 4)), qpoint(x / 2, 2 * y)]
        for Q in tests:
            verdicts.append(F.contains(Q))
            assert verdicts[-1] == fraction_contains(F, Q), (F, Q)
        E = companion_curve(F)
        img = phi(1, P, F)
        for R in (img, E.neg(img), point(img.x, img.y + 1), point(img.x / 9, img.y)):
            verdicts.append(E.contains(R))
            rhs = (R.x * R.x + E.a2 * R.x + E.a4) * R.x       # a6 = 0
            assert verdicts[-1] == (R.y * R.y == rhs), (E, R)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


def test_phi_equivariance():
    rng = random.Random(13)
    for _ in range(30):
        F, P = random_on_curve(rng)
        assert phi(1, P.swap(), F) == phi(2, P, F)


def test_phi_preimages_examples():
    assert phi_preimages(point(-4, -16), X4) == {qpoint(1, 0),
                                                 qpoint(-1, 2),
                                                 qpoint(-1, -2)}
    assert phi_preimages(point(-16, 16), X4) == {qpoint(-2, 1),
                                                 qpoint(-2, -1)}
    # positive x-coordinate has no preimage: -X/4 < 0 is not a square
    assert phi_preimages(point(4, -16), X4) == set()
    with pytest.raises(ValueError):
        phi_preimages(INF, X4)


def test_phi_preimages_roundtrip():
    rng = random.Random(21)
    for _ in range(40):
        F, P = random_on_curve(rng)
        Q = phi(1, P, F)
        pre = phi_preimages(Q, F)
        assert P in pre
        for R in pre:
            assert phi(1, R, F) == Q
        Q2 = phi(2, P, F)
        # phi_2 = phi_1 after the swap: its preimages are the swaps.
        assert P.swap() in phi_preimages(Q2, F)


def test_phi_preimages_of_two_torsion():
    # (0,0) pulls back to the x = 0 slice.
    pre = phi_preimages(point(0, 0), X4)
    assert pre == {qpoint(0, 1), qpoint(0, -1)}
    # phi_2 pulls it back to the y = 0 slice: the swaps.
    assert quarticref.phi_preimages(2, point(0, 0), X4) == \
        {P.swap() for P in pre} == {qpoint(1, 0), qpoint(-1, 0)}


def _benchmark_workloads():
    # The benchmark's corpus module, loaded from its file: it imports only
    # the standard library.
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _same_preimages(i, Q, F):
    # The integer pull-back against the Fraction reference under phi_i:
    # equal sets (the swaps of phi_1's for i = 2), or the same ValueError.
    try:
        want = quarticref.phi_preimages(i, Q, F)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            phi_preimages(Q, F)
        return None
    got = phi_preimages(Q, F)
    if i == 2:
        got = {P.swap() for P in got}
    assert got == want, (F, i, Q)
    return got


def test_phi_preimages_match_the_reference_on_every_certificate_call(monkeypatch):
    # Every pull-back that the certificates of both benchmark corpora
    # (quartic-certify, seeds 1 and 2: 720 curves) and of the 30 golden
    # curves make, each through phi_2 as well.
    calls = []
    real = demjanenko.phi_preimages

    def compared(Q, F):
        got = real(Q, F)
        assert got == quarticref.phi_preimages(1, Q, F), (F, Q)
        if Q.x != 0:
            assert {P.swap() for P in got} == _same_preimages(2, Q, F)
        calls.append(len(got))
        return got

    monkeypatch.setattr(demjanenko, "phi_preimages", compared)
    workload = _benchmark_workloads().WORKLOADS["quartic-certify"]()
    items = [(it["a"], it["b"], it["G"]) for seed in (1, 2)
             for it in workload.corpus(seed)]
    items += [(Fraction(a), Fraction(b), (Fraction(gx), Fraction(gy)))
              for a, b, gx, gy in GOLDEN_CORPUS]
    assert len(items) == 750
    for a, b, gen in items:
        determine_points(SymQuartic(a, b, 1), point(*gen))
    assert len(calls) > 1500 and sum(calls) > 1500 and calls.count(0) > 50


def test_phi_preimages_match_the_reference_on_twists_and_edge_targets():
    # Twists by alpha in {-1, 2, 3, -6} through a seeded point P, b
    # back-solved, and targets phi_1(P) and phi_2(P), their negatives,
    # doubles and triples and their sums with the 2-torsion point (0, 0)
    # (where Q = (0, 0) pulls back to the x = 0 slice), and points whose
    # -X/4 is a square but whose y^2 = (Y/x - 4a')/8 is negative for both
    # signs of x.  Both maps, and O and an off-curve point (ValueError).
    rng = random.Random(48)
    seen = {"zero": 0, "negative": 0, "found": 0, "empty": 0}
    for alpha in (-1, 2, 3, -6):
        checked = 0
        while checked < 25:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            y = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            a = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
            a_eff = alpha * a
            b = (x**4 + a_eff * x * x + a_eff * y * y + y**4) / alpha**2
            try:
                F = SymQuartic(a, b, alpha)
            except ValueError:
                continue
            checked += 1
            E = companion_curve(F)
            T = point(0, 0)
            targets = [T, point(1, 1)]
            for R in (quarticref.phi(1, qpoint(x, y), F),
                      quarticref.phi(2, qpoint(x, y), F)):
                for n in (1, -1, 2, 3):
                    S = E.scalar_mul(n, R)
                    targets += [S, E.add(S, T)]
            for Q in targets:
                if Q is INF:
                    continue
                if Q.x == 0:
                    seen["zero"] += 1
                elif Q.x < 0 and quarticref.rational_sqrt(-Q.x / 4) is not None:
                    t = quarticref.rational_sqrt(-Q.x / 4)
                    if all((Q.y / s - 4 * F.a_eff) / 8 < 0 for s in (t, -t)):
                        seen["negative"] += 1
                for i in (1, 2):
                    got = _same_preimages(i, Q, F)
                    if got is not None:
                        seen["found" if got else "empty"] += 1
            for i in (1, 2):
                _same_preimages(i, INF, F)
    assert min(seen.values()) > 10, seen


def test_biquadratic_roots_match_the_reference():
    # Integer roots z of z^4 + A z^2 + C against the Fraction square roots,
    # with denominators up to 10^6 and roots built in.
    rng = random.Random(49)
    for _ in range(600):
        if rng.random() < 0.5:
            u, v = (Fraction(rng.randint(-99, 99), rng.randint(1, 999)) ** 2
                    * rng.choice((1, -1)) for _ in range(2))
            a, c = -(u + v), u * v
        else:
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert biquadratic_roots(a, c) == quarticref.biquadratic_roots(a, c), (a, c)
    assert biquadratic_roots(-5, 4) == [-2, -1, 1, 2]


def test_biquadratic_roots_against_a_rational_scan():
    # Every rational root n/d with |n| <= 40, d <= 12 of r^4 + a r^2 + c,
    # on biquadratics built from rational roots r1^2, r2^2 and on random ones.
    scan = sorted({Fraction(n, d) for n in range(-40, 41) for d in range(1, 13)})
    rng = random.Random(32)
    for _ in range(150):
        if rng.random() < 0.6:
            u, v = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) ** 2
                    * rng.choice((1, 1, -1)) for _ in range(2))
            a, c = -(u + v), u * v
        else:
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 3))
            c = Fraction(rng.randint(-30, 30), rng.randint(1, 3))
        got = biquadratic_roots(a, c)
        assert got == sorted(set(got))
        assert all(r**4 + a * r * r + c == 0 for r in got), (a, c)
        assert [r for r in scan if r**4 + a * r * r + c == 0] == got, (a, c)


def test_kappa_values():
    assert kappa(-4, -3) == 16
    assert kappa(-4, -6) == 24
    # log(12 * kappa) and the combined two-sided constant
    assert abs(math.log(12 * 16) - math.log(192)) < 1e-12
    combined = math.log(24) + math.log(12) + math.log(24)
    assert abs(combined - (8 * math.log(2) + 3 * math.log(3))) < 1e-12
    assert combined <= 8.842


def test_kappa_rational_inputs():
    # At v=2 the |1/4| term contributes a factor 4 even for unit inputs.
    assert kappa(1, 1) == 4
    assert kappa(Fraction(1, 3), 1) == 4 * 3  # |a|_3 = 3 at v = 3
    assert kappa(0, 1) == 4


def reference_kappa(a, b) -> Fraction:
    """Reference: kappa as the library computed it before it read the
    product off the denominators, one max of p^-v_p over the terms at each
    prime of 2 and the numerators and denominators of a and b."""
    a, b = Fraction(a), Fraction(b)
    arch = max(Fraction(1, 4), abs(a) / 4, abs(a), abs(b))
    primes = {2}
    for q in (a, b):
        if q != 0:
            primes |= set(factorize(q.numerator))
            primes |= set(factorize(q.denominator))
    total = arch
    terms = [Fraction(1, 4), a / 4, a, b]
    for p in sorted(primes):
        total *= max(Fraction(p) ** -p_valuation(t, p)
                     for t in terms if t != 0)
    return total


def test_kappa_matches_the_valuation_reference():
    # Seeded rationals n/d with |n| <= 200 and d <= 64, a = 0 and b < 0
    # among them, as Fractions and as ints.
    rng = random.Random(7)
    cases = [(Fraction(rng.randint(-200, 200), rng.randint(1, 64)),
              Fraction(rng.randint(-200, 200), rng.randint(1, 64)))
             for _ in range(3000)]
    cases += [(Fraction(0), Fraction(-n, d)) for n in range(1, 201, 7)
              for d in (1, 2, 3, 4, 8, 12, 45, 64)]
    cases += [(a, b) for a in range(-12, 13) for b in range(-12, 13)]
    assert sum(a == 0 for a, _ in cases) > 200
    assert sum(b < 0 for _, b in cases) > 1500
    for a, b in cases:
        assert kappa(a, b) == reference_kappa(a, b), (a, b)


def test_projective_height():
    assert projective_height(qpoint(1, 0)) == 1
    assert projective_height(qpoint(Fraction(1, 2), Fraction(3, 2))) == 3
    assert projective_height(qpoint(Fraction(2, 3), Fraction(1, 5))) == 15


def test_height_sandwich_examples():
    assert height_sandwich_check(qpoint(1, 0), X4)
    rng = random.Random(33)
    for _ in range(100):
        F, P = random_on_curve(rng)
        assert height_sandwich_check(P, F)


def test_phi_sum_closed_form_example():
    assert phi_sum_x_closed_form(qpoint(1, 0), X4) == 4


def test_phi_sum_closed_form_vs_group_law():
    rng = random.Random(37)
    checked = 0
    while checked < 50:
        F, P = random_on_curve(rng)
        E = companion_curve(F)
        S = E.add(phi(1, P, F), phi(2, P, F))
        got = phi_sum_x_closed_form(P, F)
        if P.x + P.y == 0:
            assert got == "infinity" and S is INF
        else:
            if S is INF:
                continue
            assert got == S.x
        checked += 1


def test_phi_sum_pole():
    # x + y = 0 on the curve: backsolve b with y = -x.
    x = Fraction(2)
    a = Fraction(1)
    b = 2 * x**4 + 2 * a * x * x
    F = SymQuartic(a, b, 1)
    assert phi_sum_x_closed_form(qpoint(x, -x), F) == "infinity"


def test_phi_sum_diagonal_matches_doubling():
    x = Fraction(3, 2)
    a = Fraction(-2)
    b = 2 * x**4 + 2 * a * x * x
    F = SymQuartic(a, b, 1)
    P = qpoint(x, x)
    E = companion_curve(F)
    D = E.scalar_mul(2, phi(1, P, F))
    assert phi_sum_x_closed_form(P, F) == D.x


def test_twist_substitution():
    tw = SymQuartic(-4, -6, 7)
    assert tw.a_eff == -28 and tw.b_eff == -294
    assert companion_curve(tw) == EllipticCurve(112, 32 * 49, 0)


def test_degree_pairing_structure():
    # x(phi_1 + phi_2) is a ratio of coprime quartic forms; composed with
    # the degree-2 function x/z on a quartic curve this gives
    # deg(phi_1 + phi_2) = 4*4/2 = 8, so <phi_1, phi_2> = (8 - 4 - 4)/2 = 0:
    # the two covering maps are independent.
    import sympy

    x, y, z, a = sympy.symbols("x y z a")
    num = ((2 * x * y) ** 2 + (2 * x + 2 * y) ** 2 * (x * x + y * y)
           + 4 * a * z * z * (x * x + x * y + y * y) + a * a * z**4)
    den = (x + y) ** 2 * z * z
    assert sympy.Poly(num, x, y, z).total_degree() == 4
    assert sympy.Poly(den, x, y, z).total_degree() == 4
    assert sympy.gcd(num, den) == 1
    deg_sum_map = 4 * 4 // 2
    assert (deg_sum_map - 4 - 4) // 2 == 0
