import collections
import functools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import symcurves
from symcurves import descent, exact
from symcurves.cli import EXIT_CHECK_FAILED, main
from symcurves.descent import (
    HomSpace,
    _charts,
    _is_square_ql,
    _local_class,
    _ql_solvable,
    _real_solvable_space,
    _shift_scale,
    _square_class,
    _square_class_mod,
    _zl_solvable,
    hasse_candidate_verdict,
    homspace_locally_solvable,
    quartic_residue_criterion,
    root_number,
    selmer_rank_bound,
    selmer_sets,
)
from symcurves.exact import CheckFailed, factorize, is_prime
from polyref import Poly, derivative, roots_mod_p


def primes(lo, hi):
    return [p for p in range(lo, hi) if is_prime(p)]


def family_space(d: int, p: int) -> HomSpace:
    """The family's space d*w^2 = d^2 - 8pd*z^2 + 8p^2*z^4."""
    return HomSpace(d, -8 * p * d, 8 * p * p)


def multiplied_quartic(C: HomSpace) -> Poly:
    """y^2 = d * (d^2 + c2 z^2 + c4 z^4), y = d*w: the quartic whose charts
    the Q_ell kernel of `homspace_locally_solvable` searches."""
    return Poly([C.d**3, 0, C.d * C.c2, 0, C.d * C.c4])


def squarefree_part(n: int) -> int:
    """Reference: the squarefree s with n = s * (square), keeping the sign
    of n, by factoring n; `_square_class` is compared against it."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    s = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e % 2:
            s *= p
    return s


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    assert squarefree_part(1) == 1


# -- reference: the discriminant by a Fraction resultant, as the toolkit
# computed it before `HomSpace.discriminant()` had a closed form --


def qpoly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def qpoly_rem(a, b):
    """Remainder of a by b over Q (Fraction coefficient lists, b nonzero)."""
    a, b = qpoly_trim(list(a)), qpoly_trim(list(b))
    while len(a) >= len(b) and a != [0]:
        c, k = a[-1] / b[-1], len(a) - len(b)
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        a = qpoly_trim(a[:-1] or [Fraction(0)])
    return a


def qpoly_resultant(a, b) -> Fraction:
    """Resultant of two polynomials over Q, by the Euclidean recursion."""
    a = qpoly_trim([Fraction(x) for x in a])
    b = qpoly_trim([Fraction(x) for x in b])
    if a == [0] or b == [0]:
        return Fraction(0)
    da, db = len(a) - 1, len(b) - 1
    sign = -1 if (da * db) % 2 else 1
    if db == 0:
        return b[0] ** da
    if da < db:
        return sign * qpoly_resultant(b, a)
    r = qpoly_rem(a, b)
    if r == [0]:
        return Fraction(0)
    return sign * b[-1] ** (da - (len(r) - 1)) * qpoly_resultant(b, r)


def int_poly_disc(f: Poly) -> Fraction:
    """Discriminant of f: (-1)^(n(n-1)/2) * res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise ValueError("degree >= 1 required")
    res = qpoly_resultant(f.coeffs, derivative(f).coeffs)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res / f.coeffs[-1]


def test_qpoly_resultant_vs_root_product():
    # res(f, g) = lc(f)^deg g * prod g(roots of f) for f = (x-1)(x-2)(x-3)
    f = [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
    g = [Fraction(5), Fraction(0), Fraction(1)]  # x^2 + 5
    expected = Fraction(1) * (1 + 5) * (4 + 5) * (9 + 5)
    assert qpoly_resultant(g, f) in (expected, -expected)
    assert qpoly_resultant(f, g) == (1 + 5) * (4 + 5) * (9 + 5)


def test_int_poly_disc():
    # disc(x^2 + bx + c) = b^2 - 4c
    assert int_poly_disc(Poly([3, 5, 1])) == 25 - 12
    # disc(x^3 + px + q) = -4p^3 - 27q^2
    assert int_poly_disc(Poly([2, -1, 0, 1])) == -4 * (-1) ** 3 - 27 * 4


def test_root_number_examples():
    r5 = root_number(5)
    assert (r5.Wp, r5.W2, r5.W) == (1, -1, -1)
    r3 = root_number(3)
    assert (r3.Wp, r3.W2, r3.W) == (-1, 1, -1)
    assert r5.kodaira_at_p == "I0*" and r5.kodaira_at_2 == "III"
    assert r5.c4 == 2**5 * 5 * 25 and abs(r5.c6) == 2**8 * 7 * 125
    with pytest.raises(ValueError):
        root_number(2)


def test_root_number_always_minus_one():
    for p in primes(3, 500):
        assert root_number(p).W == -1


def test_family_space_matches_generic_construction():
    # The family's spaces are exactly the generic ones for the minimal
    # model y^2 = x(x^2 + 4px + 2p^2).
    for p in (5, 7, 11):
        generic = {(C.d, C.c2, C.c4) for C in isogeny_spaces(4 * p, 2 * p * p)}
        literal = {(d, -8 * p * d, 8 * p * p)
                   for d in (1, -1, 2, -2, p, -p, 2 * p, -2 * p)}
        assert literal == generic
        C = family_space(3, p)
        assert (C.c2, C.c4) == (-24 * p, 8 * p * p)


def test_homspace_real_place():
    p = 5
    assert not homspace_locally_solvable(family_space(-1, p), "real")
    assert not homspace_locally_solvable(family_space(-2, p), "real")
    assert homspace_locally_solvable(family_space(1, p), "real")
    assert homspace_locally_solvable(family_space(2, p), "real")


def reference_real_solvable_space(C):
    # The real-place test as the toolkit computed it through Fraction: the
    # minimum of g(s) = c4 s^2 + c2 s + d^2 over s >= 0 against 0.
    if C.d > 0:
        return True
    A, B, Cc = Fraction(C.c4), Fraction(C.c2), Fraction(C.d) ** 2
    if A < 0:
        return True
    if A == 0:
        return B < 0 or Cc <= 0
    vertex = -B / (2 * A)
    if vertex < 0:
        return Cc <= 0
    return Cc - B * B / (4 * A) <= 0


def test_real_solvable_space_matches_fraction_reference():
    rng = random.Random(19)
    branches = set()
    for _ in range(4000):
        d = rng.choice((1, -1)) * rng.randint(0, 40)
        c2, c4 = rng.randint(-60, 60), rng.choice((0, rng.randint(-60, 60)))
        if rng.random() < 0.3:      # near the vertex: 4 c4 d^2 = c2^2
            c4 = max(1, (c2 * c2) // (4 * d * d or 1) + rng.randint(-1, 1))
        C = HomSpace(d, c2, c4)
        got = _real_solvable_space(C)
        assert got == reference_real_solvable_space(C), C
        if d < 0:
            branch = ("A<0" if c4 < 0 else "A=0" if c4 == 0
                      else "B>0" if c2 > 0 else "vertex")
            branches.add((branch, got))
    assert branches == {("A<0", True), ("A=0", True), ("A=0", False),
                        ("B>0", False), ("vertex", True), ("vertex", False)}
    for p in primes(3, 600):
        a, b = 4 * p, 2 * p * p
        for C in isogeny_spaces(a, b) + dual_isogeny_spaces(a, b):
            assert _real_solvable_space(C) == reference_real_solvable_space(C)


def test_homspace_trivial_class_everywhere():
    for p in (5, 7, 11, 73):
        C = family_space(1, p)
        for place in ("real", 2, 3, p):
            assert homspace_locally_solvable(C, place)


def test_homspace_place_p_criterion():
    # d = p solvable at p requires x^4 - 4x^2 + 2 to have a root mod p,
    # i.e. p = +-1 mod 16.
    for p in primes(3, 120):
        got = homspace_locally_solvable(family_space(p, p), p)
        expected = quartic_residue_criterion(p)
        assert got == expected, p


def brute_zl_solvable(C: HomSpace, ell: int, k: int) -> bool:
    """Oracle: scan (z, w) mod ell^k for d*w^2 = d^2 + c2 z^2 + c4 z^4 with a
    liftability margin: a solution whose two sides agree to high ell-adic
    precision with a unit-square pattern."""
    mod = ell**k
    G = lambda z: C.d**3 + C.d * C.c2 * z * z + C.d * C.c4 * z**4
    for z in range(mod):
        val = G(z)
        if val == 0:
            return True
        v = 0
        t = val
        while t % ell == 0 and v < k:
            t //= ell
            v += 1
        if v >= k - 2 - (2 if ell == 2 else 0):
            continue  # precision exhausted; deeper structure decided elsewhere
        if v % 2:
            continue
        if ell == 2:
            if t % 8 == 1:
                return True
        elif pow(t % ell, (ell - 1) // 2, ell) == 1:
            return True
    return False


def test_recursive_solver_vs_bounded_bruteforce():
    # Dual route at small places: the recursive Hensel descent agrees with
    # an exhaustive residue scan at high precision.
    for p in (5, 7, 11, 13):
        for d in (1, -1, 2, -2, p, -p, 2 * p, -2 * p):
            C = family_space(d, p)
            for ell in (3, 5, 7):
                got = homspace_locally_solvable(C, ell)
                brute = brute_zl_solvable(C, ell, 6)
                # reversed chart (z with negative valuation) folds in, so the
                # recursive answer may be True when the Z_ell scan is not.
                if brute:
                    assert got, (p, d, ell)


def test_selmer_candidate_set_is_group():
    for p in (5, 7, 11, 29, 73):
        sols, dual = selmer_sets(4 * p, 2 * p * p)
        assert all(d > 0 for d in sols)  # d < 0 fails at the real place
        for group in (sols, dual):
            assert 1 in group
            for d1 in group:
                for d2 in group:
                    assert squarefree_part(d1 * d2) in group


def test_selmer_rank_bound_examples():
    assert selmer_rank_bound(5) <= 2
    assert selmer_rank_bound(7) <= 2
    assert selmer_rank_bound(73) <= 2
    for p in primes(3, 200):
        if p % 16 in (1, 15):
            continue
        b = selmer_rank_bound(p)
        assert 0 <= b <= 2, p


def test_quartic_residue_criterion():
    # The congruence against a scan of every residue for each odd prime
    # below 10^4, and against the closed-form root solve, Tonelli-Shanks
    # included, at two primes of about 100 bits, = 1 and = 9 mod 16.
    f = Poly([2, 0, -4, 0, 1])
    for p in primes(3, 10**4):
        assert quartic_residue_criterion(p) == any(f(r) % p == 0 for r in range(p)), p
    for p, has_root in ((1267650600228229401496703205953, True),
                        (1267650600228229401496703206297, False)):
        assert p.bit_length() == 101 and is_prime(p) and p % 8 == 1
        assert quartic_residue_criterion(p) is has_root
        assert bool(roots_mod_p(f, p)) is has_root


def test_dual_spaces_shape():
    spaces = dual_isogeny_spaces(4 * 5, 2 * 25)
    assert {(C.c2, C.c4) for C in spaces} == \
        {(16 * 5 * C.d, 32 * 25) for C in spaces}


def test_hasse_verdict_73():
    v = hasse_candidate_verdict(73, assume_parity=True)
    assert v.congruence_gate is True
    assert v.locally_solvable is True
    assert v.root_number == -1
    assert v.selmer_bound <= 2
    assert v.conditional_rank == 1
    assert "below explicit threshold" in v.conclusion


def test_hasse_verdict_gates():
    v = hasse_candidate_verdict(5, assume_parity=True)
    assert v.congruence_gate is False
    v = hasse_candidate_verdict(73, assume_parity=False)
    assert "unconditional conclusion unavailable" in v.conclusion


def _first_family_prime_above(n):
    # The least prime p = 25 (mod 48) with p > n.
    p = n + 1 + (25 - n - 1) % 48
    while not is_prime(p):
        p += 48
    return p


def test_hasse_verdict_above_the_explicit_threshold():
    # The parity-conditional conclusion is reached only past
    # EXPLICIT_PARITY_THRESHOLD = 3 * 10^74, where p is a probable prime.
    p = _first_family_prime_above(descent.EXPLICIT_PARITY_THRESHOLD)
    assert p == descent.EXPLICIT_PARITY_THRESHOLD + 3961
    v = hasse_candidate_verdict(p, assume_parity=True)
    assert v.conclusion == ("no rational points; local-global principle "
                            "fails (conditional on parity)")
    assert v.locally_solvable is True
    assert v.root_number == -1
    assert v.selmer_bound <= 2
    assert v.conditional_rank == 1


# p = 10^30 + 57 = 25 (mod 48): factoring 8p^2 used to send p^2 to Pollard
# rho, which never finished.
LARGE_FAMILY_PRIME = 10**30 + 57


def test_descent_at_a_large_prime_finishes_in_a_fresh_process():
    assert LARGE_FAMILY_PRIME % 48 == 25 and is_prime(LARGE_FAMILY_PRIME)
    src = str(pathlib.Path(symcurves.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-m", "symcurves.cli", "descent",
         str(LARGE_FAMILY_PRIME), "--json"],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src))
    assert child.returncode == 0, child.stderr
    env = json.loads(child.stdout)
    assert env["payload"]["selmer_rank_bound"] == 1
    assert env["assumptions"] == [exact.PROBABLE_PRIME_NOTE]


@pytest.mark.parametrize("argv, listed", [
    (["descent", str(LARGE_FAMILY_PRIME)], True),
    (["local", str(LARGE_FAMILY_PRIME)], True),
    (["hasse-scan", str(2**64), str(2**64 + 500)], True),
    (["hasse-scan", str(2**64 - 500), str(2**64 - 1)], False),
    (["descent", "73"], False),
    (["local", str(2**64 - 279)], False),    # the largest family prime < 2^64
])
def test_probable_prime_assumption_is_listed_from_2_64_on(argv, listed,
                                                         tmp_path, capsys):
    if argv[0] == "hasse-scan":
        argv = [*argv, "--cache-dir", str(tmp_path)]
    assert main([*argv, "--json"]) == 0
    assumptions = json.loads(capsys.readouterr().out)["assumptions"]
    assert (exact.PROBABLE_PRIME_NOTE in assumptions) is listed


def test_a_large_prime_is_tested_once_per_process(monkeypatch, capsys):
    # `descent` and `local` at p = 10^30 + 57 ask is_prime about p, and
    # factorize about other n >= 2^64, many times over.  Miller-Rabin runs
    # once per such n in the process, and every payload is the one computed
    # with no verdict kept.
    assert exact._probable_prime.cache_info().maxsize == exact.PROBABLE_PRIME_CACHE
    runs = collections.Counter()
    miller_rabin = exact._miller_rabin

    def counting(n):
        if n >= exact.PROBABLE_PRIME_BOUND:
            runs[n] += 1
        return miller_rabin(n)

    def payloads():
        out = []
        for command in ("descent", "local"):
            assert main([command, str(LARGE_FAMILY_PRIME), "--json"]) == 0
            out.append(json.loads(capsys.readouterr().out)["payload"])
        return out

    monkeypatch.setattr(exact, "_miller_rabin", counting)
    exact._probable_prime.cache_clear()
    kept = payloads()
    assert runs[LARGE_FAMILY_PRIME] == 1 and set(runs.values()) == {1}, runs
    runs.clear()
    monkeypatch.setattr(exact, "_probable_prime", counting)
    assert payloads() == kept
    assert runs[LARGE_FAMILY_PRIME] > 10


# ---------------------------------------------------------------------------
# The root-driven level scan of _zl_solvable against the two full residue
# scans it replaced, kept here as the reference.


def shift_scale(f: Poly, r: int, s: int) -> Poly:
    """Reference: f(r + s*t) in t, by composing with r + s*t through Horner
    in Poly arithmetic."""
    acc, lin = Poly([0]), Poly([r, s])
    for c in reversed(f.coeffs):
        acc = acc * lin + Poly([c])
    return acc


def test_shift_scale_matches_composition():
    f = Poly([2, 0, -4, 0, 1])
    assert Poly(_shift_scale(f.coeffs, 1, 2))(0) == f(1)
    assert Poly(_shift_scale(f.coeffs, 1, 2))(1) == f(3)
    rng = random.Random(16)
    for _ in range(500):
        co = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 6))]
        r, s = rng.randint(-50, 50), rng.choice((2, 3, 401, rng.randint(-9, 9)))
        got = _shift_scale(tuple(co), r, s)
        assert Poly(got) == shift_scale(Poly(co), r, s), (co, r, s)


def reference_zl_solvable(c, f, ell, depth, cap):
    if depth > cap:
        raise RuntimeError("depth cap")
    if ell == 2:
        for z0 in range(8):
            val = c * f(z0)
            if val == 0 or _is_square_ql(val, ell):
                return True
    else:
        half = (ell - 1) // 2
        for z0 in range(ell):
            r = c * f.eval_mod(z0, ell) % ell
            if r:
                if pow(r, half, ell) == 1:
                    return True
            else:
                val = c * f(z0)
                if val == 0 or _is_square_ql(val, ell):
                    return True
    for z0 in range(ell):
        if f.eval_mod(z0, ell) != 0:
            continue
        f1 = shift_scale(f, z0, ell)
        cont = math.gcd(*f1.coeffs)
        f1 = Poly([x // cont for x in f1.coeffs])
        if reference_zl_solvable(squarefree_part(c * cont), f1, ell,
                                 depth + 1, cap):
            return True
    return False


def reference_ql_solvable(G, ell):
    disc = int_poly_disc(G)
    if disc == 0:
        raise ValueError("homogeneous space quartic must be squarefree")
    v, d = 0, abs(disc.numerator)
    while d % ell == 0:
        d //= ell
        v += 1
    cap = v + 12
    cont = math.gcd(*G.coeffs)
    G0 = Poly([x // cont for x in G.coeffs])
    c = squarefree_part(cont)
    if reference_zl_solvable(c, G0, ell, 0, cap):
        return True
    Gr = Poly((G0.coeffs + (0,) * (4 - G0.degree))[::-1])
    contr = math.gcd(*Gr.coeffs)
    Gr = Poly([x // contr for x in Gr.coeffs])
    return reference_zl_solvable(squarefree_part(c * contr), Gr, ell, 0, cap)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (RuntimeError, CheckFailed):
        return "depth cap"
    except ValueError as exc:
        return f"ValueError: {exc}"


# The primes on either side of 400, kept from when roots_mod_p switched route
# there.
SCAN_EDGE_PRIMES = [397, 401]
ELLS = [3, 5, 7, 11, 13, 17, 19, 29, 97] + SCAN_EDGE_PRIMES + [1009]


def _nonresidue(ell):
    return next(u for u in range(2, ell) if pow(u, (ell - 1) // 2, ell) != 1)


def _assert_zl_matches(c, f, ell, cap=6):
    got = _outcome(_zl_solvable, c, f.coeffs, ell, 0, cap)
    ref = _outcome(reference_zl_solvable, c, f, ell, 0, cap)
    assert got == ref, (c, f, ell)
    return got


def test_ql_solvable_matches_residue_scans_on_random_quartics():
    rng = random.Random(2024)
    for ell in ELLS:
        for _ in range(60 if ell < 100 else 15):
            co = [rng.randint(-40, 40) * ell ** rng.choice((0, 0, 1, 2))
                  for _ in range(5)]
            co[4] = co[4] or rng.choice((1, -3, ell))
            G = Poly(co)
            disc = int_poly_disc(G).numerator
            got = _outcome(lambda: _ql_solvable(_charts(G.coeffs, disc), ell))
            assert got == _outcome(reference_ql_solvable, G, ell), (G, ell)


def residues(f: Poly, ell: int) -> list:
    """The residues of f mod ell, trimmed, as `_square_class_mod` takes them."""
    fbar = [x % ell for x in f.coeffs]
    while len(fbar) > 1 and fbar[-1] == 0:
        fbar.pop()
    return fbar


def test_square_class_mod_against_enumeration():
    # f = u*g^2 in F_ell[z] exactly when the closed form says so.
    rng = random.Random(3)
    for ell in (3, 5, 7, 11):
        squares = {}
        for s in range(ell):
            for t in range(ell):
                for g in (Poly([t, 1]), Poly([t, s, 1])):
                    sq = g * g
                    squares[tuple(x % ell for x in sq.coeffs)] = True
        for _ in range(400):
            deg = rng.choice((0, 1, 2, 3, 4))
            co = [rng.randrange(ell) for _ in range(deg)] + [rng.randrange(1, ell)]
            if rng.random() < 0.4 and deg in (2, 4):
                g = Poly([rng.randrange(ell) for _ in range(deg // 2)] + [1])
                co = list((g * g * co[-1]).coeffs)
            f = Poly(co)
            u = co[-1] % ell
            monic = tuple(x * pow(u, -1, ell) % ell for x in co)
            expected = u if deg == 0 or monic in squares else None
            assert _square_class_mod(residues(f, ell), ell) == expected, (f, ell)
            # f + ell*h reduces to the same polynomial mod ell
            lifted = f + Poly([ell * rng.randint(-3, 3) for _ in range(6)])
            assert _square_class_mod(residues(lifted, ell), ell) == expected


def test_square_class_has_the_class_of_the_squarefree_part():
    # c*f(z) depends on c only through its class in Q_ell*/Q_ell*^2; the
    # representative ell^e * u stands for squarefree_part(n) at ell.
    rng = random.Random(12)
    for ell in (2, 3, 5, 401):
        unit_mod = 8 if ell == 2 else ell
        ns = [rng.choice((1, -1)) * rng.randrange(1, 10**12) for _ in range(300)]
        ns += [rng.choice((1, -1, 3, -5, 7)) * ell**k * rng.randrange(1, 10**4)
               for k in range(9) for _ in range(8)]
        for n in ns:
            rep = _square_class(n, ell)
            unit = rep // ell if rep % ell == 0 else rep
            assert unit % ell and 0 < unit < unit_mod, (n, ell, rep)
            assert _is_square_ql(rep * squarefree_part(n), ell), (n, ell, rep)


def test_local_search_needs_no_legendre_symbol(monkeypatch):
    # Quadratic characters inside the l-adic search use Euler's criterion;
    # p is proved prime at the public entry points only.
    expected = {p: selmer_sets(4 * p, 2 * p * p) for p in (73, 401, 3001)}

    def refuse(*args):
        raise AssertionError("legendre_symbol called")

    monkeypatch.setattr(descent, "legendre_symbol", refuse)
    for p, sets in expected.items():
        assert selmer_sets(4 * p, 2 * p * p) == sets


# ---------------------------------------------------------------------------
# The 2-isogeny descent as the package ran it before `selmer_sets`, kept here
# as the reference: each side's spaces from its own factorization of a^2 - 4b
# or 16b, then each side's places factored again from the values |c4|, |d|
# and |c2^2 - 4 d^2 c4| of its spaces.


def isogeny_spaces(a: int, b: int) -> list[HomSpace]:
    """Homogeneous spaces d*w^2 = d^2 - 2ad*z^2 + (a^2-4b)*z^4 for the
    standard degree-2 isogeny on y^2 = x(x^2 + ax + b), over squarefree
    d | a^2 - 4b (both signs)."""
    disc = a * a - 4 * b
    if disc == 0 or b == 0:
        raise ValueError("curve must be nonsingular with full 2-isogeny data")
    divisors = _squarefree_divisors(disc)
    return [HomSpace(d, -2 * a * d, disc) for d in divisors]


def dual_isogeny_spaces(a: int, b: int) -> list[HomSpace]:
    """Spaces for the dual isogeny: the same construction applied to the
    isogenous curve y^2 = x(x^2 - 2ax + (a^2 - 4b))."""
    return isogeny_spaces(-2 * a, a * a - 4 * b)


def _squarefree_divisors(n: int) -> list[int]:
    primes = sorted(factorize(abs(n)))
    divs = [1]
    for p in primes:
        divs += [d * p for d in divs]
    return sorted([d for d in divs] + [-d for d in divs], key=abs)


def _relevant_places(spaces: list[HomSpace]) -> list:
    """All places where some space could fail: the real place, 2, and the
    odd primes of bad reduction.  The quartic y^2 = d^3 + d*c2 z^2 + d*c4 z^4
    has discriminant 16 d^8 c4 (c2^2 - 4 d^2 c4)^2, and at any odd prime
    away from it the space is a smooth genus-1 curve, hence solvable.

    The values |c4|, |d| and |c2^2 - 4 d^2 c4| share most of their primes.
    Taken in increasing order, each value is divided by every prime already
    found before it is factored: its primes are the primes of the cofactor
    together with known ones, so the union is the same for any list of
    spaces, and only a cofactor other than 1 is factored."""
    values = set()
    for C in spaces:
        tail = C.c2 * C.c2 - 4 * C.d * C.d * C.c4
        values |= {abs(C.c4), abs(C.d)} | ({abs(tail)} if tail else set())
    primes = {2}
    for n in sorted(values):
        if n:   # a zero value goes on to factorize, which rejects it
            for q in primes:
                while n % q == 0:
                    n //= q
        if n != 1:
            primes |= set(factorize(n))
    return ["real"] + sorted(primes)


def selmer_candidate_set(spaces: list[HomSpace]) -> list[int]:
    """Square classes whose space is solvable at every relevant place (all
    other places are automatically solvable by smoothness and the
    Hasse-Weil bound)."""
    places = _relevant_places(spaces)
    out = []
    for C in spaces:
        if all(homspace_locally_solvable(C, v) for v in places):
            out.append(C.d)
    return out


def reference_selmer_sets(a: int, b: int) -> tuple[list[int], list[int]]:
    return (selmer_candidate_set(isogeny_spaces(a, b)),
            selmer_candidate_set(dual_isogeny_spaces(a, b)))


@functools.lru_cache(maxsize=None)
def selmer_corpus() -> tuple:
    """The family curves a = 4p, b = 2p^2 for every odd prime p < 5000, then
    3000 seeded curves y^2 = x(x^2 + ax + b) with |a|, |b| <= 10^4."""
    curves = [(4 * p, 2 * p * p) for p in primes(3, 5000)]
    rng = random.Random(32)
    seeded = 0
    while seeded < 3000:
        a, b = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        if b and a * a != 4 * b:
            curves.append((a, b))
            seeded += 1
    return tuple(curves)


def test_selmer_sets_match_the_reference_chain():
    for a, b in selmer_corpus():
        assert selmer_sets(a, b) == reference_selmer_sets(a, b), (a, b)


def same_local_class(d, e, place) -> bool:
    """Reference: whether d and e are in one class of Q_v*/Q_v*^2, from
    the sign of d*e at the real place and `_is_square_ql` of d*e at ell."""
    return d * e > 0 if place == "real" else _is_square_ql(d * e, place)


def test_selmer_sets_ask_once_per_local_class(monkeypatch):
    # On each side the kernel is asked in the reference's order (its
    # spaces, and for each space its places), never twice at one place for
    # two d of one class, and at every place for d = 1, the first space:
    # it has the point (z, w) = (0, 1) everywhere.
    visits = []
    real = descent.homspace_locally_solvable

    def recording(C, place):
        visits.append((C, place))
        return real(C, place)

    monkeypatch.setattr(descent, "homspace_locally_solvable", recording)
    for a, b in selmer_corpus():
        visits.clear()
        selmer_sets(a, b)
        sides = (isogeny_spaces(a, b), dual_isogeny_spaces(a, b))
        order = {}
        for side, spaces in enumerate(sides):
            places = _relevant_places(spaces)
            assert [v for C, v in visits if C == spaces[0]] == places, (a, b)
            for i, C in enumerate(spaces):
                for j, v in enumerate(places):
                    order[C, v] = (side, i, j)
        steps = [order[visit] for visit in visits]
        assert steps == sorted(set(steps)), (a, b)
        asked = {}
        for (C, v), (side, _, _) in zip(visits, steps):
            for d in asked.setdefault((side, v), []):
                assert not same_local_class(d, C.d, v), (a, b, d, C.d, v)
            asked[side, v].append(C.d)


def test_local_class_fixes_local_solvability():
    # The space d*w^2 = d^2 + c2'*d*z^2 + c4*z^4 of d*u^2 is that of d under
    # (z, w) -> (u*z, u*w), so two squarefree d with equal `_local_class`
    # at a place are solvable there together.  Two distinct squarefree
    # integers never differ by a rational square, so every pair below is
    # one that only the place identifies, like 1 and 2 at 7 and at 17.
    rng = random.Random(33)
    squarefree = [n for n in range(-150, 151) if n and exact.is_squarefree(n)]
    for ell in (7, 17):
        assert _local_class(1, ell) == _local_class(2, ell)
    places, outcomes = ("real", 2, 3, 5, 7, 11, 13, 17), set()
    for place in places:
        classes = {}
        for d in squarefree:
            classes.setdefault(_local_class(d, place), []).append(d)
        # The key is the class: equal keys exactly for d*e a local square.
        for d in squarefree[::7]:
            for e in squarefree:
                assert ((_local_class(d, place) == _local_class(e, place))
                        == same_local_class(d, e, place)), (d, e, place)
        pairs = [(1, 2)] if place in (7, 17) else []
        while len(pairs) < 100:
            cls = rng.choice([c for c in classes.values() if len(c) > 1])
            pairs.append(tuple(rng.sample(cls, 2)))
        for d, e in pairs:
            while True:
                c2, c4 = rng.randint(-40, 40), rng.choice((1, -1)) * rng.randint(1, 300)
                c4 *= rng.choice((1, 1, place if place != "real" else 1))
                if c2 * c2 != 4 * c4:
                    break
            got = []
            for n in (d, e):
                C = HomSpace(n, n * c2, c4)
                got.append(_outcome(homspace_locally_solvable, C, place))
                want = (reference_real_solvable_space(C) if place == "real"
                        else _outcome(reference_ql_solvable,
                                      multiplied_quartic(C), place))
                assert got[-1] == want, (C, place)
            assert got[0] == got[1], (d, e, c2, c4, place)
            outcomes.add((place, got[0]))
    assert outcomes == {(v, ok) for v in places for ok in (True, False)}


def test_selmer_rank_bound_factors_twice(monkeypatch):
    # a^2 - 4b and b once each, and nothing else.
    factored = []
    real = descent.factorize

    def recording(n):
        factored.append(n)
        return real(n)

    monkeypatch.setattr(descent, "factorize", recording)
    for p in primes(3, 5000):
        factored.clear()
        selmer_rank_bound(p)
        assert factored == [8 * p * p, 2 * p * p]
    # On the seeded curves the spaces are built but not searched: the count
    # does not depend on the answers of the local kernel.
    monkeypatch.setattr(descent, "homspace_locally_solvable", lambda C, v: True)
    for a, b in selmer_corpus():
        factored.clear()
        selmer_sets(a, b)
        assert factored == [a * a - 4 * b, b]


def test_selmer_sets_reject_a_singular_curve():
    for a, b in ((4, 0), (0, 0), (4, 4), (-6, 9)):
        with pytest.raises(ValueError, match="full 2-isogeny data"):
            selmer_sets(a, b)


def test_zl_branch_ell_divides_c():
    rng = random.Random(7)
    for ell in ELLS:
        for k in (1, -1, 2, -2, 3):
            c = squarefree_part(k * ell)
            if c % ell:
                continue
            for _ in range(6):
                f = Poly([rng.randint(-30, 30) for _ in range(4)] + [1])
                _assert_zl_matches(c, f, ell)
            # roots at which c*f is an exact square or zero
            _assert_zl_matches(c, Poly([0, ell, 0, 0, 1]), ell)
            _assert_zl_matches(c, Poly([-ell, 0, 1]), ell)


def test_zl_branch_constant_times_square():
    rng = random.Random(8)
    for ell in ELLS:
        for u in (1, _nonresidue(ell)):
            for _ in range(5):
                s, t = rng.randrange(ell), rng.randrange(ell)
                g = Poly([t, s, 1])
                noise = Poly([ell * rng.randint(-5, 5) for _ in range(5)])
                f = g * g * u + noise
                if math.gcd(*f.coeffs) % ell == 0:
                    continue
                assert _square_class_mod(residues(f, ell), ell) == u
                for c in (1, -1, _nonresidue(ell)):
                    _assert_zl_matches(c, f, ell)
            lin = Poly([rng.randrange(ell), 1])
            f = lin * lin * u + Poly([ell, 0, ell])
            assert _square_class_mod(residues(f, ell), ell) == u
            _assert_zl_matches(1, f, ell)


def test_zl_branch_degree_drop_and_constant():
    rng = random.Random(9)
    for ell in ELLS:
        for _ in range(8):
            co = [rng.randint(-50, 50) for _ in range(4)] + [ell * rng.randint(1, 4)]
            co[1] = co[1] * ell + 1  # primitive, as _zl_solvable requires
            _assert_zl_matches(rng.choice((1, -1, 2, -3)), Poly(co), ell)
            const = Poly([rng.randint(1, 50) * rng.choice((1, -1))]
                            + [ell * rng.randint(-5, 5) for _ in range(4)])
            if const.coeffs[0] % ell:
                for c in (1, _nonresidue(ell)):
                    _assert_zl_matches(c, const, ell)
        # 8z^4 - 8z^2 + 1 after the content ell^3 was removed: constant 1.
        f = Poly([1, 0, -8 * ell, 0, 8 * ell * ell])
        _assert_zl_matches(1, f, ell)
        _assert_zl_matches(_nonresidue(ell), f, ell)


def test_zl_recursion_through_double_roots():
    # f = n*(z - r)^4 + n*ell^(4m) with n a non-residue: no unit value is a
    # residue and f(r) is no square, and f(r + ell*t) / n has the same shape
    # with m - 1, so the search goes m levels deep.
    depths = []
    original = descent._zl_solvable

    def tracking(c, f, ell, depth, cap):
        depths.append(depth)
        return original(c, f, ell, depth, cap)

    descent._zl_solvable = tracking
    try:
        for ell in (3, 5, 17, *SCAN_EDGE_PRIMES):
            n = _nonresidue(ell)
            for r in (0, 1, ell - 1):
                quartic = Poly([-r, 1]) * Poly([-r, 1])
                quartic = quartic * quartic * n
                for m in (1, 2, 3):
                    f = quartic + Poly([n * ell**(4 * m)])
                    depths.clear()
                    _assert_zl_matches(1, f, ell, cap=8)
                    assert max(depths) == m
                    _assert_zl_matches(n, f, ell, cap=8)
                    _assert_zl_matches(ell, f, ell, cap=8)
                f = quartic + Poly([n * ell**12])
                with pytest.raises(CheckFailed):
                    _zl_solvable(1, f.coeffs, ell, 0, 2)
    finally:
        descent._zl_solvable = original


def test_homspace_solvability_matches_residue_scans():
    for p in primes(3, 480) + SCAN_EDGE_PRIMES + [1009]:
        a, b = 4 * p, 2 * p * p
        for C in isogeny_spaces(a, b) + dual_isogeny_spaces(a, b):
            for place in (2, 3, 5, p):
                got = homspace_locally_solvable(C, place)
                assert got == reference_ql_solvable(multiplied_quartic(C), place)


# ---------------------------------------------------------------------------
# The Q_ell kernel on polynomial objects, as the package ran it before it
# moved to coefficient tuples with per-space charts, kept here as the
# reference: it rebuilds the quartic, the content-divided and reversed
# quartics and the discriminant valuation at every place, and shifts by
# composition in `polyref.Poly` arithmetic.


def intpoly_square_class(n, ell):
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return ell ** (v % 2) * (n % (8 if ell == 2 else ell))


def intpoly_is_square_ql(n, ell):
    c = intpoly_square_class(n, ell)
    if ell == 2:
        return c == 1
    return c % ell != 0 and pow(c, (ell - 1) // 2, ell) == 1


def intpoly_square_class_mod(f, ell):
    fbar = [x % ell for x in f.coeffs]
    while len(fbar) > 1 and fbar[-1] == 0:
        fbar.pop()
    n, u = len(fbar) - 1, fbar[-1]
    if n == 0:
        return u
    inv = pow(u, -1, ell)
    h = [x * inv % ell for x in fbar]
    if n == 2:
        return u if (h[1] * h[1] - 4 * h[0]) % ell == 0 else None
    if n == 4:
        half = (ell + 1) // 2
        s = h[3] * half % ell
        t = (h[2] - s * s) * half % ell
        if (2 * s * t - h[1]) % ell == 0 and (t * t - h[0]) % ell == 0:
            return u
    return None


def intpoly_unit_value_is_residue(c, f, ell):
    half = (ell - 1) // 2
    u = intpoly_square_class_mod(f, ell)
    if u is not None:
        return pow(c * u, half, ell) == 1
    for z0 in range(ell):
        r = c * f.eval_mod(z0, ell) % ell
        if r and pow(r, half, ell) == 1:
            return True
    return False


def intpoly_zl_solvable(c, f, ell, depth, cap):
    exact.require(depth <= cap, "local solvability recursion exceeded the "
                  "discriminant depth bound")
    if ell == 2:
        for z0 in range(8):
            val = c * f(z0)
            if val == 0 or intpoly_is_square_ql(val, ell):
                return True
        roots = [z0 for z0 in range(ell) if f.eval_mod(z0, ell) == 0]
    else:
        if c % ell and intpoly_unit_value_is_residue(c, f, ell):
            return True
        roots = sorted(roots_mod_p(f, ell))
        for z0 in roots:
            val = c * f(z0)
            if val == 0 or intpoly_is_square_ql(val, ell):
                return True
    for z0 in roots:
        f1 = shift_scale(f, z0, ell)
        cont = math.gcd(*f1.coeffs)
        f1 = Poly([x // cont for x in f1.coeffs])
        if intpoly_zl_solvable(intpoly_square_class(c * cont, ell), f1, ell,
                               depth + 1, cap):
            return True
    return False


def intpoly_ql_solvable(G, ell, disc):
    if disc == 0:
        raise ValueError("homogeneous space quartic must be squarefree")
    v = 0
    d = abs(disc)
    while d % ell == 0:
        d //= ell
        v += 1
    cap = v + 12
    cont = math.gcd(*G.coeffs)
    G0 = Poly([x // cont for x in G.coeffs])
    c = intpoly_square_class(cont, ell)
    if intpoly_zl_solvable(c, G0, ell, 0, cap):
        return True
    Gr = Poly((G0.coeffs + (0,) * (4 - G0.degree))[::-1])
    contr = math.gcd(*Gr.coeffs)
    Gr = Poly([x // contr for x in Gr.coeffs])
    return intpoly_zl_solvable(intpoly_square_class(c * contr, ell), Gr, ell,
                               0, cap)


def kernel_mismatches(odd_primes, pairs, seed):
    """(cases, mismatches): the tuple kernel against the Poly reference on
    the isogeny and dual spaces at every relevant prime place, for the
    family curve of each odd prime p (a = 4p, b = 2p^2) and for `pairs`
    seeded curves y^2 = x(x^2 + ax + b) with |a|, |b| <= 10^4."""
    curves = [(4 * p, 2 * p * p) for p in odd_primes]
    rng = random.Random(seed)
    while len(curves) < len(odd_primes) + pairs:
        a, b = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        if b and a * a != 4 * b:
            curves.append((a, b))
    cases, bad = 0, []
    for a, b in curves:
        for spaces in (isogeny_spaces(a, b), dual_isogeny_spaces(a, b)):
            for place in _relevant_places(spaces)[1:]:
                for C in spaces:
                    got = _outcome(homspace_locally_solvable, C, place)
                    want = _outcome(intpoly_ql_solvable, multiplied_quartic(C),
                                    place, C.discriminant())
                    cases += 1
                    if got != want:
                        bad.append((a, b, C, place, got, want))
    return cases, bad


def test_kernel_matches_the_intpoly_reference():
    cases, bad = kernel_mismatches(primes(3, 5000), 200, seed=28)
    assert bad == []
    assert cases > 30_000


def test_descent_never_reaches_the_root_scan(monkeypatch):
    # _roots_fp falls back to a scan of every residue only for f that are
    # neither even nor of degree <= 2 mod p; the descent never passes one.
    def scan(fp, p):
        raise AssertionError(f"root scan reached: {fp} mod {p}")

    monkeypatch.setattr(exact, "_scan_roots", scan)
    with pytest.raises(AssertionError, match="root scan reached"):
        roots_mod_p(Poly([-4, 1, 0, 2]), 397)
    for p in primes(3, 2000):
        selmer_rank_bound(p)
    rng = random.Random(15)
    pairs = 0
    while pairs < 200:
        a, b = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        if b == 0 or a * a == 4 * b:
            continue
        selmer_sets(a, b)
        pairs += 1


def test_homspace_discriminant_closed_form():
    rng = random.Random(10)
    for _ in range(200):
        d = rng.choice((1, -1)) * rng.randint(1, 60)
        c2 = rng.randint(-500, 500)
        c4 = rng.choice((1, -1)) * rng.randint(1, 500)
        C = HomSpace(d, c2, c4)
        assert C.discriminant() == int_poly_disc(multiplied_quartic(C))
    for p in (5, 73, 10007):
        for C in isogeny_spaces(4 * p, 2 * p * p):
            assert C.discriminant() == int_poly_disc(multiplied_quartic(C))


def test_singular_space_is_refused():
    with pytest.raises(ValueError, match="squarefree"):
        homspace_locally_solvable(HomSpace(1, 4, 4), 3)  # c2^2 = 4 d^2 c4


# ---------------------------------------------------------------------------
# Checks that gate the Selmer bound raise CheckFailed (exit code 4), also
# under python -O.

FORCE_SELMER = (
    "from symcurves import descent\n"
    "descent.selmer_sets = lambda a, b: ([1, 2, 3], [1])\n")
FORCE_EMPTY = (
    "from symcurves import descent\n"
    "descent.selmer_sets = lambda a, b: ([], [])\n")
FORCE_DEPTH = (
    "from symcurves import descent\n"
    "_zl = descent._zl_solvable\n"
    "descent._zl_solvable = (lambda c, f, ell, depth, cap:\n"
    "                        _zl(c, f, ell, depth + 100, cap))\n")
# The message of the check each forced case trips.
FORCED_MESSAGE = {FORCE_SELMER: "2-power order", FORCE_EMPTY: "2-power order",
                  FORCE_DEPTH: "depth bound"}


@pytest.mark.parametrize("force", [FORCE_SELMER, FORCE_DEPTH, FORCE_EMPTY],
                         ids=["selmer-2-power", "depth-cap", "selmer-empty"])
def test_forced_check_failure_exits_4(force, capsys, monkeypatch):
    with monkeypatch.context() as m:
        # Record the originals, so that what `force` patches is restored.
        m.setattr(descent, "selmer_sets", descent.selmer_sets)
        m.setattr(descent, "_zl_solvable", descent._zl_solvable)
        exec(force, {})
        with pytest.raises(CheckFailed):
            selmer_rank_bound(7)
        code = main(["descent", "7", "--json"])
    out = capsys.readouterr()
    assert code == EXIT_CHECK_FAILED == 4
    assert out.out == ""
    assert out.err.startswith("error: check failed: ")
    assert FORCED_MESSAGE[force] in out.err


@pytest.mark.parametrize("force", [FORCE_SELMER, FORCE_DEPTH, FORCE_EMPTY],
                         ids=["selmer-2-power", "depth-cap", "selmer-empty"])
def test_forced_check_failure_exits_4_under_python_O(force):
    script = ("import sys\n"
              "assert False, 'asserts must be off'\n"
              + force +
              "from symcurves.cli import main\n"
              "sys.exit(main(['descent', '7']))\n")
    src = str(pathlib.Path(symcurves.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-O", "-c", script],
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=src))
    assert child.returncode == 4, child.stderr
    assert child.stderr.startswith("error: check failed: ")
    assert FORCED_MESSAGE[force] in child.stderr
    assert "Traceback" not in child.stderr
