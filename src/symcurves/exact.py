"""Number-theoretic substrate: primality, factorization, modular and
polynomial arithmetic over Q and over prime fields.

Rationals are plain ``fractions.Fraction`` values, which are always kept
in canonical form (reduced, positive denominator) by the standard library.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Witnesses proving deterministic Miller-Rabin for all n < 3.3 * 10^24,
# which covers every 64-bit input.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_ROUNDS_LARGE = 40

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# `roots_mod_p` evaluates f at every residue below this prime and splits
# gcd(f, x^p - x) from it on.  Measured on the non-constant calls made by
# `selmer_rank_bound` for primes 101..1499 (Python 3.11, one core): scan
# 232 us against gcd 245 us per call for p in [300, 400), 292 against 265
# in [400, 500), 714 against 266 in [900, 1000).
_ROOT_SCAN_LIMIT = 400


class CheckFailed(Exception):
    """A check that gates a certificate failed: the result cannot be
    trusted.  Raised explicitly, so it also fires under `python -O`."""


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 2^64."""
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


def _primes_below(n: int) -> tuple[int, ...]:
    # Sieve of Eratosthenes.
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i in range(n) if sieve[i])


# Trial divisors of `factorize`; cofactors past them go to Pollard rho.
_TRIAL_PRIMES = _primes_below(10_000)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
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


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n nonzero)."""
    if n == 0:
        raise ValueError("0 is not squarefree or squareful")
    return all(e == 1 for e in factorize(n).values())


def squarefree_part(n: int) -> int:
    """The squarefree integer s with n = s * (square), keeping the sign of n."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    s = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e % 2:
            s *= p
    return s


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
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


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

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            return IntPoly([0])
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

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

    def compose(self, other: "IntPoly") -> "IntPoly":
        acc = IntPoly([0])
        for c in reversed(self.coeffs):
            acc = acc * other + IntPoly([c])
        return acc

    def content(self) -> int:
        return math.gcd(*self.coeffs) if len(self.coeffs) > 1 else abs(self.coeffs[0])

    def shift_scale(self, r: int, s: int) -> "IntPoly":
        """The polynomial f(r + s*t) in t."""
        return self.compose(IntPoly([r, s]))

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


def roots_mod_p(f: IntPoly, p: int) -> set[int]:
    """All residues r in [0, p) with f(r) = 0 mod p.  Exhaustive scan for
    p < _ROOT_SCAN_LIMIT, gcd splitting against x^p - x from there on."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    fp = _ptrim([c % p for c in f.coeffs])
    if fp == [0]:
        raise ValueError("polynomial is zero mod p")
    if len(fp) == 1:
        return set()
    if p < _ROOT_SCAN_LIMIT:
        return {r for r in range(p) if f.eval_mod(r, p) == 0}
    xp = _polymod_pow_x(fp, p)
    g = _polymod_gcd(_polymod_sub(xp, [0, 1], p), fp, p)
    return _split_linear(g, p)


# -- dense polynomial helpers over F_p (coefficient lists, low degree first) --


def _ptrim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _polymod_sub(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _polymod_divmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, -1, p)
    q = [0] * max(1, len(a) - db)
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - 1 - db
        c = a[-1] * inv % p
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] = (a[k + i] - c * bc) % p
        a.pop()
    return _ptrim(q), _ptrim(a if a else [0])


def _polymod_gcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b != [0]:
        _, r = _polymod_divmod(a, b, p)
        a, b = b, r
    if a[-1] != 1 and a != [0]:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _polymod_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    _, r = _polymod_divmod(_ptrim(out), f, p)
    return r


def _polymod_pow_x(f, p):
    # x^p mod f over F_p by square and multiply.
    result, base, e = [1], [0, 1], p
    while e:
        if e & 1:
            result = _polymod_mulmod(result, base, f, p)
        base = _polymod_mulmod(base, base, f, p)
        e >>= 1
    return result


def _split_linear(g, p) -> set[int]:
    # g is a product of distinct linear factors over F_p; extract the roots.
    g = _ptrim(list(g))
    if g == [0] or len(g) == 1:
        return set()
    if len(g) == 2:
        return {(-g[0] * pow(g[1], -1, p)) % p}
    rng = random.Random(0xC0FFEE ^ p)
    while True:
        a = rng.randrange(p)
        # gcd(g, (x+a)^((p-1)/2) - 1) splits the roots into two classes.
        h = _pow_shifted(a, (p - 1) // 2, g, p)
        h[0] = (h[0] - 1) % p
        d = _polymod_gcd(_ptrim(h), g, p)
        if 0 < len(d) - 1 < len(g) - 1:
            q, _ = _polymod_divmod(g, d, p)
            return _split_linear(d, p) | _split_linear(q, p)


def _pow_shifted(a, e, f, p):
    result, base = [1], [a % p, 1]
    while e:
        if e & 1:
            result = _polymod_mulmod(result, base, f, p)
        base = _polymod_mulmod(base, base, f, p)
        e >>= 1
    return list(result)


# -- polynomial arithmetic over Q (Fraction coefficient lists) --


def qpoly_trim(a: list[Fraction]) -> list[Fraction]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def qpoly_divmod(a, b):
    a = [Fraction(x) for x in a]
    b = qpoly_trim([Fraction(x) for x in b])
    if b == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(1, len(a) - db)
    while len(qpoly_trim(a)) - 1 >= db and qpoly_trim(a) != [Fraction(0)]:
        a = qpoly_trim(a)
        if len(a) - 1 < db:
            break
        k = len(a) - 1 - db
        c = a[-1] / lb
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        a = a[:-1] if a else [Fraction(0)]
    return qpoly_trim(q), qpoly_trim(a if a else [Fraction(0)])


def qpoly_gcd(a, b):
    """Monic gcd over Q."""
    a = qpoly_trim([Fraction(x) for x in a])
    b = qpoly_trim([Fraction(x) for x in b])
    while b != [Fraction(0)]:
        _, r = qpoly_divmod(a, b)
        a, b = b, r
    if a != [Fraction(0)] and a[-1] != 1:
        a = [c / a[-1] for c in a]
    return a


def qpoly_resultant(a, b) -> Fraction:
    """Resultant of two polynomials over Q, by the Euclidean recursion."""
    a = qpoly_trim([Fraction(x) for x in a])
    b = qpoly_trim([Fraction(x) for x in b])
    if a == [Fraction(0)] or b == [Fraction(0)]:
        return Fraction(0)
    da, db = len(a) - 1, len(b) - 1
    if db == 0:
        return b[0] ** da
    if da < db:
        sign = -1 if (da * db) % 2 else 1
        return sign * qpoly_resultant(b, a)
    _, r = qpoly_divmod(a, b)
    if r == [Fraction(0)]:
        return Fraction(0)
    dr = len(r) - 1
    sign = -1 if (da * db) % 2 else 1
    return sign * b[-1] ** (da - dr) * qpoly_resultant(b, r)


def int_poly_disc(f: IntPoly) -> Fraction:
    """Discriminant of f: (-1)^(n(n-1)/2) * res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise ValueError("degree >= 1 required")
    res = qpoly_resultant(
        [Fraction(c) for c in f.coeffs],
        [Fraction(c) for c in f.derivative().coeffs],
    )
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res / f.coeffs[-1]


def qpoly_ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g, g the monic gcd."""
    a = qpoly_trim([Fraction(x) for x in a])
    b = qpoly_trim([Fraction(x) for x in b])
    zero, one = [Fraction(0)], [Fraction(1)]

    def add(x, y):
        n = max(len(x), len(y))
        return qpoly_trim([(x[i] if i < len(x) else 0) + (y[i] if i < len(y) else 0)
                           for i in range(n)])

    def mul(x, y):
        out = [Fraction(0)] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    out[i + j] += xi * yj
        return qpoly_trim(out)

    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while r1 != [Fraction(0)]:
        q, r = qpoly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, mul([-c for c in q], s1))
        t0, t1 = t1, add(t0, mul([-c for c in q], t1))
    if r0 != [Fraction(0)] and r0[-1] != 1:
        lc = r0[-1]
        r0 = [c / lc for c in r0]
        s0 = [c / lc for c in s0]
        t0 = [c / lc for c in t0]
    return r0, s0, t0
