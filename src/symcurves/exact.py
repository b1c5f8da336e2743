"""Number-theoretic substrate: primality, factorization, modular
arithmetic, and polynomials.

Rationals are plain ``fractions.Fraction`` values, which are always kept
in canonical form (reduced, positive denominator) by the standard library.
Polynomials are plain constant-first int tuples, evaluated by `_horner`
and, over F_p, solved by `_roots_fp` with closed forms where it can.
`IntPoly` wraps such a tuple as the map of `dynamics.PolyMap`.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

# Witnesses proving deterministic Miller-Rabin for all n < psi_12 ~ 3.187 * 10^23
# (Sorenson and Webster, Math. Comp. 86 (2017)), which covers every 64-bit input.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_ROUNDS_LARGE = 40

# From this bound on, `is_prime` is Miller-Rabin with _MR_ROUNDS_LARGE random
# bases seeded by n: what it calls prime is a probable prime.
PROBABLE_PRIME_BOUND = 2**64
PROBABLE_PRIME_NOTE = (f"primes >= 2^64 are probable primes (Miller-Rabin, "
                       f"{_MR_ROUNDS_LARGE} seeded random bases)")

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Primes p whose Tonelli-Shanks constants `_sqrt_mod_p` keeps per process.
TONELLI_SHANKS_CACHE = 128

# Inverse and square-root tables of F_l are kept for this many primes l.
FIELD_TABLE_CACHE = 128

# `is_prime` keeps its verdict on this many n >= PROBABLE_PRIME_BOUND.
PROBABLE_PRIME_CACHE = 128


class CheckFailed(Exception):
    """A check that gates a certificate failed: the result cannot be
    trusted.  Raised explicitly, so it also fires under `python -O`."""


def require(cond, msg: str) -> None:
    """Raise CheckFailed(msg) unless cond holds; unlike assert, it also runs
    under `python -O`."""
    if not cond:
        raise CheckFailed(msg)


def is_prime(n: int) -> bool:
    """Whether the int n is prime.  n below 10,000 (the trial-division bound
    of `factorize`) is answered from the sieve table; from there on by
    Miller-Rabin, deterministic below PROBABLE_PRIME_BOUND = 2^64 and a
    probable-prime test above it, whose verdict is kept per process for the
    last PROBABLE_PRIME_CACHE such n.  Any other type raises TypeError."""
    if not isinstance(n, int):
        raise TypeError(f"is_prime needs an int, not {type(n).__name__}")
    if n < _SIEVE_LIMIT:
        return n > 1 and _SIEVE[n] == 1
    return (_miller_rabin if n < PROBABLE_PRIME_BOUND else _probable_prime)(n)


@functools.lru_cache(maxsize=PROBABLE_PRIME_CACHE)
def _probable_prime(n: int) -> bool:
    # A function of n alone (the bases are seeded by n), which the descent
    # asks about one large p again and again.
    return _miller_rabin(n)


def require_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime: the precondition of every
    per-prime command of the Hasse family, an input error (exit code 2)."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")


def _miller_rabin(n: int) -> bool:
    # Trial division by _SMALL_PRIMES, then Miller-Rabin: answers any int,
    # deterministically below 2^64.
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a):
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < PROBABLE_PRIME_BOUND:
        bases = _MR_BASES_64
    else:
        # Probabilistic beyond 64 bits; seeded by n so results are stable.
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS_LARGE)]
    return not any(witness(a) for a in bases)


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; n odd composite, not a prime power of a small prime.
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _sieve(n: int) -> bytearray:
    # Sieve of Eratosthenes: entry i is 1 iff i is prime, for 0 <= i < n.
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return sieve


# The primality table of `is_prime` and the trial divisors of `factorize`;
# cofactors past them go to Pollard rho.
_SIEVE_LIMIT = 10_000
_SIEVE = _sieve(_SIEVE_LIMIT)
_TRIAL_PRIMES = tuple(i for i, flag in enumerate(_SIEVE) if flag)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for i, p in enumerate(_TRIAL_PRIMES):
        if p * p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    else:
        stack = [n] if n > 1 else []
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            power = _perfect_power(m)
            if power:
                stack.extend([power[0]] * power[1])
                continue
            d = _pollard_rho(m)
            stack.extend([d, m // d])
        return out
    # Every prime factor of n is at least p > n^(1/3): n is 1, a prime, r^2,
    # or q*r with primes q < r.
    if n == 1:
        return out
    if is_prime(n):
        out[n] = 1
        return out
    r = math.isqrt(n)
    if r * r == n:
        out[r] = 2
        return out
    # In the order that trial division, or else Pollard rho, finds them.
    q = next((t for t in _TRIAL_PRIMES[i:] if n % t == 0), None)
    q = q or n // _pollard_rho(n)
    out[q] = 1
    out[n // q] = 1
    return out


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for an int n >= 0 and k >= 1, exactly: Newton's
    iteration from 2^ceil(bits/k), which lies above the root and descends
    to its floor."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int):
    """(r, k) with r^k = m for the least prime k that has one, or None.
    For a cofactor m of `factorize`, which has no prime factor below
    _SIEVE_LIMIT, a k-th root exceeds _SIEVE_LIMIT, so only the prime
    k <= log m / log _SIEVE_LIMIT are tried.  Pollard rho on m = r^k would
    take time like sqrt(r)."""
    for k in _TRIAL_PRIMES:
        if _SIEVE_LIMIT ** k > m:
            return None
        r = integer_root(m, k)
        if r**k == m:
            return r, k
    return None


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n nonzero)."""
    if n == 0:
        raise ValueError("0 is not squarefree or squareful")
    return all(e == 1 for e in factorize(n).values())


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1}; p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def rational_sqrt(q):
    """The nonnegative rational square root of q, or None if q is not a
    square in Q."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def sqrt_mod_pk(a: int, p: int, k: int):
    """A square root of a modulo p^k, or None.  Assumes a is a p-adic unit
    square candidate (a not divisible by p)."""
    if a % p == 0:
        raise ValueError("unit argument required")
    if p == 2:
        if a % min(8, 2**k) != 1 % min(8, 2**k):
            return None
        # Lift x^2 = a from mod 8 upward one bit at a time.
        x, mod = 1, 8
        while mod < 2**k:
            mod *= 2
            if (x * x - a) % mod:
                x += mod // 4
        return x % 2**k
    if legendre_symbol(a, p) != 1:
        return None
    x = _sqrt_mod_p(a % p, p)
    mod = p
    while mod < p**k:
        # Newton step: x <- x - (x^2 - a)/(2x).
        mod *= mod
        inv = pow(2 * x, -1, mod)
        x = (x - (x * x - a) * inv) % mod
    return x % p**k


def _sqrt_mod_p(a: int, p: int) -> int:
    # Tonelli-Shanks; a is a nonzero QR mod p.
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, m, c = _tonelli_shanks_constants(p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


@functools.lru_cache(maxsize=TONELLI_SHANKS_CACHE)
def _tonelli_shanks_constants(p: int) -> tuple[int, int, int]:
    """(q, s, z^q mod p) for the prime p = 1 mod 4: p - 1 = q * 2^s with q
    odd, and z the least non-residue mod p.  A function of p alone, kept
    per process for the last TONELLI_SHANKS_CACHE primes."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:  # Euler's criterion
        z += 1
    return q, s, pow(z, q, p)


@functools.lru_cache(maxsize=FIELD_TABLE_CACHE)
def _field_tables(ell: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(inv, root) for the odd prime ell: inv[x] * x = 1 mod ell for x != 0
    (inv[0] = 0), and root[v] is a square root of v mod ell, or -1 when v is
    not a square.  Kept per process for the last FIELD_TABLE_CACHE primes."""
    inv, root = [0, 1] + [0] * (ell - 2), [-1] * ell
    for x in range(2, ell):
        inv[x] = -(ell // x) * inv[ell % x] % ell
    for t in range(ell):
        root[t * t % ell] = t
    return tuple(inv), tuple(root)


def log_abs(n) -> float:
    """log|n| for an integer or Fraction of any size (never overflows)."""
    if isinstance(n, Fraction):
        return log_abs(n.numerator) - log_abs(n.denominator)
    n = abs(n)
    if n == 0:
        raise ValueError("log of 0")
    if n.bit_length() <= 512:
        return math.log(n)
    shift = n.bit_length() - 64
    return math.log(n >> shift) + shift * math.log(2)


def _horner(f: tuple, z):
    # f(z) for the coefficient tuple f, constant term first.
    acc = 0
    for x in reversed(f):
        acc = acc * z + x
    return acc


class IntPoly:
    """Dense integer polynomial; coefficients indexed by degree.

    Each member has a reader: `coeffs`, `degree` and `__call__` for
    `dynamics.PolyMap`; `__eq__` and `__hash__` for the equality and hash
    that the frozen `PolyMap` dataclass generates; and `eval_mod`, which
    has no caller in the package, only while the benchmark tracer wraps it
    and `__call__` by name."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [int(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c) if c else (0,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return _horner(self.coeffs, x)

    def eval_mod(self, x: int, m: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % m
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


def _roots_fp(fp, p) -> set[int]:
    # fp: nonzero trimmed coefficient list over F_p, p prime.
    n = len(fp) - 1
    if n == 0:
        return set()
    if n == 1:
        return {-fp[0] * pow(fp[1], -1, p) % p}
    if p > 2 and n == 2:
        c, b, a = fp
        inv = pow(2 * a, -1, p)
        return {(r - b) * inv % p for r in _square_roots((b * b - 4 * a * c) % p, p)}
    if p > 2 and not any(fp[1::2]):
        return {r for s in _roots_fp(fp[::2], p) for r in _square_roots(s, p)}
    # The descent, the one caller in the package, never gets here: it
    # passes even quartics only, and its shift z0 + ell*t at a root leaves
    # one even again (z0 = 0) or of degree <= 2 mod ell (a triple root at
    # z0 != 0 forces one at -z0).
    return _scan_roots(fp, p)


def _scan_roots(fp, p) -> set[int]:
    # The roots of the coefficient list fp over F_p, by Horner at each residue.
    roots = set()
    for r in range(p):
        acc = 0
        for c in reversed(fp):
            acc = (acc * r + c) % p
        if acc == 0:
            roots.add(r)
    return roots


def _square_roots(a: int, p: int) -> set[int]:
    # Every x in [0, p) with x^2 = a, for a in [0, p) and p an odd prime.
    if a == 0:
        return {0}
    if pow(a, (p - 1) // 2, p) != 1:  # Euler's criterion
        return set()
    r = _sqrt_mod_p(a, p)
    return {r, p - r}

