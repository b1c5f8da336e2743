"""Number-theoretic substrate: primality, factorization, modular
arithmetic, and polynomials.

Rationals are plain ``fractions.Fraction`` values, which are always kept
in canonical form (reduced, positive denominator) by the standard library.
Polynomials are `IntPoly`; work over Q stays over Z through pseudo-division
(`IntPoly.pseudo_divmod`) and the integer Bezout identity (`bezout`).
`roots_mod_p` reduces f to a plain coefficient list mod p and solves it by
closed forms where it can.
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

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Primes p whose Tonelli-Shanks constants `_sqrt_mod_p` keeps per process.
TONELLI_SHANKS_CACHE = 128


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
    Miller-Rabin, deterministic below 2^64.  Any other type raises TypeError."""
    if not isinstance(n, int):
        raise TypeError(f"is_prime needs an int, not {type(n).__name__}")
    if n < _SIEVE_LIMIT:
        return n > 1 and _SIEVE[n] == 1
    return _miller_rabin(n)


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

    if n < 2**64:
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


def p_valuation(q, p: int):
    """v_p(q) for rational q; returns math.inf for q = 0."""
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


def rat_mod(q: Fraction, m: int) -> int:
    """The residue mod m of a rational whose denominator is prime to m."""
    return q.numerator * pow(q.denominator, -1, m) % m


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


class IntPoly:
    """Dense integer polynomial; coefficients indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [int(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c) if c else (0,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, m: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % m
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __sub__(self, other):
        return self + IntPoly([-c for c in other.coeffs])

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def pseudo_divmod(self, b: "IntPoly"):
        """(m, q, r) with m*self = q*b + r, deg r < deg b and
        m = lc(b)^(deg self - deg b + 1) (m = 1 when deg self < deg b)."""
        if b.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db, lb = b.degree, b.coeffs[-1]
        k = self.degree - db + 1
        if k <= 0:
            return 1, IntPoly([0]), self
        r, q = list(self.coeffs), [0] * k
        for i in range(k - 1, -1, -1):
            # Clear the coefficient of x^(db + i): r <- lb*r - c*x^i*b.
            c = r[db + i]
            q = [lb * x for x in q]
            q[i] = c
            r = [lb * x for x in r]
            for j, bc in enumerate(b.coeffs):
                r[i + j] -= c * bc
        return lb**k, IntPoly(q), IntPoly(r[:db] or [0])

    def content(self) -> int:
        return math.gcd(*self.coeffs) if len(self.coeffs) > 1 else abs(self.coeffs[0])

    def reverse(self, deg: int) -> "IntPoly":
        """t^deg * f(1/t); deg must be >= degree of f."""
        if deg < self.degree:
            raise ValueError("reversal degree too small")
        padded = list(self.coeffs) + [0] * (deg - self.degree)
        return IntPoly(padded[::-1])

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0 and self.degree > 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            else:
                mono = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        return " + ".join(terms).replace("+ -", "- ")


def bezout(a: IntPoly, b: IntPoly):
    """(c, u, v) with u*a + v*b = c, c a nonzero integer, deg u < deg b and
    deg v < deg a, scaled so that (u, v, c) is primitive with c > 0; None
    when a and b have a common root.  Extended Euclid on pseudo-remainders,
    each step divided by its content, so nothing leaves Z."""
    if a.degree == 0 and b.degree == 0:
        raise ValueError("bezout needs a non-constant polynomial")

    def divided(f, g):
        return IntPoly([c // g for c in f.coeffs])

    zero, one = IntPoly([0]), IntPoly([1])
    r0, u0, v0 = a, one, zero
    r1, u1, v1 = b, zero, one
    while r1.degree > 0:
        m, q, r = r0.pseudo_divmod(r1)
        u, v = u0 * m - q * u1, v0 * m - q * v1
        g = math.gcd(r.content(), u.content(), v.content())
        r0, u0, v0 = r1, u1, v1
        r1, u1, v1 = divided(r, g), divided(u, g), divided(v, g)
    if r1.is_zero():
        return None
    c = r1.coeffs[0]
    g = math.gcd(c, u1.content(), v1.content()) * (1 if c > 0 else -1)
    return c // g, divided(u1, g), divided(v1, g)


def roots_mod_p(f: IntPoly, p: int) -> set[int]:
    """All residues r in [0, p) with f(r) = 0 mod p.  For odd p, f mod p of
    degree 1 or 2 is solved by formula, and an even f = g(z^2) mod p through
    the roots s of g and the square roots of s.  Any other f is scanned at
    every residue."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    fp = [c % p for c in f.coeffs]
    while len(fp) > 1 and fp[-1] == 0:
        fp.pop()
    if fp == [0]:
        raise ValueError("polynomial is zero mod p")
    return _roots_fp(fp, p)


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
    # No caller in the package gets here: the descent passes even quartics
    # only, and its shift z0 + ell*t at a root leaves one even again (z0 = 0)
    # or of degree <= 2 mod ell (a triple root at z0 != 0 forces one at -z0).
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

