import math
import random
from fractions import Fraction

import pytest

from symcurves import exact
from symcurves.exact import (
    _miller_rabin,
    _pollard_rho,
    _sqrt_mod_p,
    _tonelli_shanks_constants,
    factorize,
    integer_root,
    is_prime,
    is_squarefree,
    legendre_symbol,
    log_abs,
    rational_sqrt,
    sqrt_mod_pk,
)
from polyref import Poly, derivative, roots_mod_p


def primes_below(n):
    return [p for p in range(2, n) if is_prime(p)]


def test_is_prime_small():
    assert primes_below(60) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                41, 43, 47, 53, 59]


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(1729)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    assert is_prime(577)  # squarefree example prime


def test_is_prime_table_matches_miller_rabin():
    # Below 10,000 is_prime reads the sieve table, from there on it runs
    # Miller-Rabin: both agree with Miller-Rabin across the boundary.
    for n in range(-5, 10_200):
        assert is_prime(n) == _miller_rabin(n), n
    assert is_prime(9973) and is_prime(10007)
    assert not any(is_prime(n) for n in range(9974, 10007))


def test_is_prime_rejects_non_int():
    for n in (7.0, 9973.0, Fraction(7), "7", None):
        with pytest.raises(TypeError, match="is_prime needs an int"):
            is_prime(n)
    assert is_prime(True) is False      # bool is an int


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 10**9)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_legendre_against_square_listing():
    # Oracle: exhaustive squares mod p for every odd prime p < 200.
    for p in primes_below(200):
        if p == 2:
            continue
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, p) == expected


def test_legendre_examples_and_euler():
    assert legendre_symbol(-1, 5) == 1
    assert legendre_symbol(-1, 3) == -1
    assert legendre_symbol(2, 7) == 1  # 4^2 = 16 = 2 mod 7
    for p in (11, 13, 101):
        for a in range(1, p):
            assert pow(a, (p - 1) // 2, p) % p == legendre_symbol(a, p) % p


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre_symbol(3, 10)
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)


def test_legendre_multiplicative():
    for p in (7, 19, 43):
        for a in range(1, p):
            for b in range(1, p):
                assert (legendre_symbol(a * b, p)
                        == legendre_symbol(a, p) * legendre_symbol(b, p))


def test_rational_sqrt():
    assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert rational_sqrt(2) is None
    assert rational_sqrt(0) == 0
    assert rational_sqrt(Fraction(49, 64)) == Fraction(7, 8)
    assert rational_sqrt(-4) is None
    rng = random.Random(3)
    for _ in range(100):
        q = Fraction(rng.randrange(1, 500), rng.randrange(1, 500))
        assert rational_sqrt(q * q) == abs(q)


def p_valuation(q, p: int):
    """Reference: v_p(q) for rational q, math.inf for q = 0, as the library
    read valuations before `quartic.kappa` took them from denominators; the
    reference `kappa` of test_quartic reads them here."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    q = Fraction(q)
    if q == 0:
        return math.inf

    def v(n):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return k

    return v(q.numerator) - v(q.denominator)


def test_p_valuation():
    assert p_valuation(50, 5) == 2
    assert p_valuation(Fraction(3, 8), 2) == -3
    assert p_valuation(7 * 11, 7) == 1
    assert p_valuation(0, 3) == math.inf
    for p in (2, 3, 5):
        x, y = Fraction(18, 5), Fraction(40, 27)
        assert p_valuation(x * y, p) == p_valuation(x, p) + p_valuation(y, p)
        assert p_valuation(x + y, p) >= min(p_valuation(x, p), p_valuation(y, p))


def test_is_squarefree():
    assert is_squarefree(6)
    assert not is_squarefree(12)
    assert is_squarefree(577)
    assert is_squarefree(-15)
    assert not is_squarefree(49)


def test_roots_mod_p_examples():
    f = Poly([2, 0, -4, 0, 1])  # x^4 - 4x^2 + 2
    assert roots_mod_p(f, 5) == set()
    assert roots_mod_p(f, 31) != set()
    assert roots_mod_p(Poly([-1, 0, 1]), 3) == {1, 2}


def test_roots_mod_p_vs_exhaustive():
    rng = random.Random(11)
    for p in primes_below(100):
        for _ in range(3):
            f = Poly([rng.randrange(-9, 10) for _ in range(rng.randrange(2, 8))])
            if all(c % p == 0 for c in f.coeffs):
                continue
            expected = {r for r in range(p) if f(r) % p == 0}
            assert roots_mod_p(f, p) == expected


def test_roots_mod_p_large_prime_gcd_path():
    f = Poly([2, 0, -4, 0, 1])
    p = 10007  # 10007 mod 16 = 7, expect no roots
    assert roots_mod_p(f, p) == {r for r in range(p) if f.eval_mod(r, p) == 0}
    p2 = 10111  # 10111 mod 16 = 15, expect roots
    got = roots_mod_p(f, p2)
    assert got and all(f.eval_mod(r, p2) == 0 for r in got)


def _brute_roots(f, p):
    return {r for r in range(p) if f.eval_mod(r, p) == 0}


def test_roots_mod_p_leading_coefficient_vanishing_mod_p():
    # The leading coefficient is 0 mod p: the reduction drops it before any
    # route inverts it.
    assert roots_mod_p(Poly([-1, 0, 10007]), 10007) == set()
    assert roots_mod_p(Poly([5, 1, 0, 10007]), 10007) == {10002}
    # The content-free quartic 8z^4 - 8z^2 + 1 after dividing out p^3
    # reaches the root search with its degree dropped.
    for p in (10007, 10009):
        f = Poly([1, 0, -8 * p, 0, 8 * p * p])
        assert roots_mod_p(f, p) == set()


def test_roots_mod_p_both_sides_of_scan_limit():
    # 397 and 401 are the primes on either side of 400, where a gcd route
    # once took over from the scan; every case stays a brute-force check.
    rng = random.Random(5)
    for p in (397, 401, 1009):
        cases = [
            Poly([3, 0, p]),                      # degree 2 -> constant
            Poly([-4, 1, 0, 2 * p]),              # degree 3 -> linear
            Poly([1, 7, p, p * p, -p]),           # degree 4 -> linear
            Poly([p + 6, 5 * p, 0, 0, 3 * p]),    # nonzero constant mod p
            Poly([6, -5, 1]),                     # (z - 2)(z - 3)
            Poly([-9, 0, 1]) * Poly([-9, 0, 1]),  # double roots
            Poly([24, -50, 35, -10, 1]),          # four roots 1..4
        ]
        for _ in range(40):
            co = [rng.randrange(-p, p) for _ in range(5)]
            co[rng.randrange(5)] = p * rng.randrange(-3, 4)
            cases.append(Poly(co))
        for f in cases:
            if all(c % p == 0 for c in f.coeffs):
                continue
            assert roots_mod_p(f, p) == _brute_roots(f, p), (p, f)
        assert roots_mod_p(Poly([24, -50, 35, -10, 1]), p) == {1, 2, 3, 4}


def _reference_factorize(n):
    """The trial division by every integer below 10^4 that `factorize` used
    before it divided by primes only."""
    n = abs(n)
    out = {}
    for p in range(2, 10_000):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


def test_factorize_matches_integer_trial_division():
    rng = random.Random(17)
    ns = [1, -1, 2, 9973, 9973**2, 10007, 9973 * 10007, 10007**2,
          2**40, -(3**5 * 7**3), 99_990_001, 8 * 5881**2 * 2, 32 * 10111**2]
    ns += [rng.randrange(1, 10**9) for _ in range(300)]
    ns += [rng.randrange(1, 10**6) * rng.choice([9967, 10007, 1_000_003])
           for _ in range(100)]
    ns += [8 * p * p * d for p in (73, 97, 5881) for d in (1, -2, 73, 2 * 97)]
    for n in ns:
        got, ref = factorize(n), _reference_factorize(n)
        assert list(got.items()) == list(ref.items()), n


def test_factorize_matches_reference_on_structured_inputs():
    # Prime powers, the family's 2^k * 3 * p^j, and products q*r of two
    # primes on either side of the trial-division bound 10^4: the cases
    # decided at the first trial prime whose cube exceeds the cofactor.
    ps = [3, 5, 97, 401, 5881, 9967, 9973, 10007, 10009, 65537, 999_983,
          1_000_003, 2**31 - 1]
    ns = [p**j for p in ps for j in (1, 2, 3, 4)]
    ns += [2**k * 3 * p**j for p in (5, 73, 5881, 10111, 65537)
           for k in (0, 1, 3, 5) for j in (1, 2, 3)]
    qs, rs = [2, 3, 97, 1009, 9967, 9973], [10007, 10009, 65537, 1_000_003,
                                            2**31 - 1]
    ns += [q * r for q in qs for r in rs]
    ns += [q * r * r for q in qs for r in rs]
    ns += [10007 * 10009, 10007 * 65537, 65537 * 1_000_003,
           97 * 101, 9967 * 9973, 1_000_003**2 * 10007]
    for n in ns + [-n for n in ns[::7]]:
        got, ref = factorize(n), _reference_factorize(n)
        assert list(got.items()) == list(ref.items()), n


def test_factorize_tests_each_cofactor_for_primality_once(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(exact, "is_prime", counting_is_prime)
    for n in (10007 * 10009, 2 * 3 * 10007 * 65537, 9973**2, 8 * 5881**2,
              5881**3, 1_000_003):
        calls.clear()
        factorize(n)
        assert len(calls) == len(set(calls)) <= 1, (n, calls)


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_integer_root_is_the_floor_of_the_real_root():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randrange(1, 8)
        r = rng.randrange(0, 2**rng.randrange(1, 90))
        for n in (r**k, r**k + 1, max(r**k - 1, 0), (r + 1)**k - 1):
            root = integer_root(n, k)
            assert root**k <= n < (root + 1)**k, (n, k)


def test_factorize_splits_perfect_powers_without_rho(monkeypatch):
    # Powers of primes above 2^64, or just above the trial-division bound
    # 10^4, factor through the exact k-th root test; Pollard rho on r^k
    # would take time like sqrt(r).  p^2 * q needs rho once, to split off
    # the smaller prime; a rho step on the other factor with both above
    # 2^64 would take about 2^32 steps, so each product pairs one prime of
    # each kind.
    big = [_next_prime(2**64), _next_prime(2**64 + 10**6), _next_prime(10**30)]
    small = [10007, 10009]
    for p in big + small:
        for k in (2, 3, 5):
            assert factorize(p**k) == {p: k}
    rho_calls = []

    def counting_rho(n):
        rho_calls.append(n)
        return _pollard_rho(n)

    monkeypatch.setattr(exact, "_pollard_rho", counting_rho)
    for p in big:
        for k in (2, 3, 5):
            assert factorize(8 * p**k) == {2: 3, p: k}
    assert rho_calls == []
    for p, q in [(big[0], 10007), (big[2], 10009), (10007, big[1]),
                 (10009, big[2])]:
        for n, want in ((p * p * q, {p: 2, q: 1}), (8 * p * p * q, {2: 3, p: 2, q: 1}),
                        (p**3 * q**2, {p: 3, q: 2})):
            got = factorize(n)
            assert math.prod(r**e for r, e in got.items()) == n
            assert got == want, n


def _brute_roots_all(f, p):
    return {r for r in range(p) if f(r) % p == 0}


def test_roots_mod_p_closed_forms_against_brute_force():
    # Every odd prime below 1000: even quartics (z^2 - s1)(z^2 - s2) with 0,
    # 2 and 4 roots and with s = 0, irreducible g, quadratics whose
    # discriminant is 0, a residue and a non-residue, linear polynomials, and
    # degree drops onto each of these shapes.
    rng = random.Random(41)
    for p in primes_below(1000)[1:]:
        squares = sorted({x * x % p for x in range(1, p)})
        nonsq = sorted(set(range(1, p)) - set(squares))
        r1, r2 = rng.choice(squares), rng.choice(squares)
        n1, n2 = rng.choice(nonsq), rng.choice(nonsq)
        u = rng.randrange(1, p)

        def even(s1, s2):
            return Poly([s1 * s2, 0, -(s1 + s2), 0, 1]) * u

        a, b = rng.randrange(p), rng.randrange(p)
        cases = [
            even(n1, n2), even(r1, n1), even(r1, (r1 * 4) % p or 1),
            even(r1, r1), even(0, r1), even(0, n1), even(0, 0),
            Poly([n1, 0, 0, 0, 1]),                 # z^4 = n1
            Poly([-n1 * u, 0, u]),                   # non-residue disc
            Poly([-r1, 0, 1]),                       # residue disc
            Poly([a * a, -2 * a, 1]) * u,            # (z - a)^2
            Poly([a * b, -(a + b), 1]),              # (z - a)(z - b)
            Poly([b, a, 1]),
            Poly([b, u]), Poly([0, u]),           # linear
            Poly([b, u, p]),                         # degree 2 -> 1
            Poly([-r1, 0, 1, 0, 5 * p]),             # degree 4 -> even 2
            Poly([r1 * n1, 0, -r1 - n1, 3 * p, 1]),  # even after reduction
            Poly([1, 0, -8 * p, 0, 8 * p * p]),      # constant mod p
            Poly([b, 0, a, 0, 0, 0, 1]),             # even sextic
            Poly([b, 1, a, 0, 1]),                   # not even
        ]
        for f in cases:
            if all(c % p == 0 for c in f.coeffs):
                continue
            assert roots_mod_p(f, p) == _brute_roots_all(f, p), (p, f)
    # Root counts of the even quartics at one prime, to show each shape is
    # reached: 0, 2 and 4 roots, and 0 as a double root.
    # At p = 97, 5 and 10 are non-residues.
    p = 97
    assert roots_mod_p(Poly([36, 0, -13, 0, 1]), p) == {2, 3, 94, 95}
    assert roots_mod_p(Poly([20, 0, -9, 0, 1]), p) == {2, 95}
    assert roots_mod_p(Poly([50, 0, -15, 0, 1]), p) == set()
    assert roots_mod_p(Poly([0, 0, -4, 0, 1]), p) == {0, 2, 95}


def test_roots_mod_p_proves_p_prime_once(monkeypatch):
    # The reference checks p once; the kernel `_roots_fp` checks it no more.
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(exact, "is_prime", counting_is_prime)
    for p in (3001, 10009, 12289):    # p = 1 mod 8: Tonelli-Shanks runs
        for f in (Poly([2, 0, -4, 0, 1]), Poly([-6, 0, 1]),
                  Poly([3, 0, -p - 4, 0, 1])):
            calls.clear()
            assert roots_mod_p(f, p) == _brute_roots(f, p)
            assert calls == [p]


def test_sqrt_mod_p_needs_no_legendre_symbol(monkeypatch):
    def refuse(*args):
        raise AssertionError("legendre_symbol called")

    monkeypatch.setattr(exact, "legendre_symbol", refuse)
    for p in (17, 97, 3001, 12289, 40961):    # 2-power parts 2^4 .. 2^13
        for a in (2, 3, 9, p - 1):
            if pow(a, (p - 1) // 2, p) == 1:
                r = _sqrt_mod_p(a, p)
                assert r * r % p == a


def test_sqrt_mod_p_from_cold_and_warm_constants():
    # The Tonelli-Shanks constants are kept per process, in a cache of
    # bounded size keyed by p alone; each is checked from its definition.
    info = _tonelli_shanks_constants.cache_info()
    assert info.maxsize == exact.TONELLI_SHANKS_CACHE > 0
    cases = [(p, a) for p in (13, 17, 97, 3001, 12289, 40961)
             for a in (2, 3, 9, 10, p - 1) if pow(a, (p - 1) // 2, p) == 1]
    warm = [_sqrt_mod_p(a, p) for p, a in cases]
    _tonelli_shanks_constants.cache_clear()
    cold = [_sqrt_mod_p(a, p) for p, a in cases]
    assert cold == warm and all(r * r % p == a for r, (p, a) in zip(cold, cases))
    assert _tonelli_shanks_constants.cache_info().currsize == 6
    for p in (13, 17, 97, 3001, 12289, 40961):
        q, s, c = _tonelli_shanks_constants(p)
        assert q % 2 == 1 and q << s == p - 1
        # c = z^q for a non-residue z has order exactly 2^s.
        assert pow(c, 1 << s, p) == 1 and pow(c, 1 << (s - 1), p) == p - 1


def test_sqrt_mod_pk():
    t = sqrt_mod_pk(73, 2, 8)
    assert t is not None and (t * t - 73) % 256 == 0
    t = sqrt_mod_pk(73, 3, 5)
    assert t is not None and (t * t - 73) % 243 == 0
    assert sqrt_mod_pk(5, 2, 8) is None  # 5 = 5 mod 8 is not a 2-adic square
    t = sqrt_mod_pk(2, 7, 4)
    assert t is not None and (t * t - 2) % 7**4 == 0


def test_intpoly_basics():
    f = Poly([2, 0, -4, 0, 1])
    assert f.degree == 4
    assert f(2) == 2
    assert f(Fraction(1, 2)) == Fraction(2, 1) - 1 + Fraction(1, 16)
    assert derivative(f) == Poly([0, -8, 0, 4])
    assert derivative(Poly([7])) == Poly([0])
    g = Poly([1, 1])
    assert (f * g).degree == 5


def test_log_abs_large():
    n = 12345**400
    assert abs(log_abs(n) - 400 * math.log(12345)) < 1e-9
    assert abs(log_abs(Fraction(3, 7)) - math.log(3 / 7)) < 1e-12
