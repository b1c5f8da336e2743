"""Seeded corpora and independent output checks for the benchmark workloads.

A workload turns a seed into a list of CLI argument vectors (its corpus) and
checks each captured output with arithmetic of its own: nothing here calls
into ``symcurves``, so a check cannot pass because the program agreed with
itself.

Corpora are stratified: every stratum has a fixed share of any prefix of the
corpus, whatever the seed, so a run that stops on a time budget still sees
the same mix of inputs.  Within a finite stratum the order is a seeded
low-discrepancy permutation, so a prefix also spreads evenly over the
stratum's range.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

MAZUR_ORDER_CAP = 12


class CheckFailed(Exception):
    """An output that does not match what the benchmark computed itself."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ------------------------------------------------------------- reference math


def cheb_value(d: int, x) -> Fraction:
    """Monic T_d(x) by the three-term recurrence T_n = x T_{n-1} - T_{n-2}."""
    x = Fraction(x)
    prev, cur = Fraction(2), x
    for _ in range(d - 1):
        prev, cur = cur, x * cur - prev
    return cur


def family_primes(lo: int, hi: int) -> list[int]:
    """Primes p = 1 mod 24 with lo <= p <= hi, the ones hasse-scan reports."""
    return [p for p in range(lo, hi + 1) if p % 24 == 1 and is_prime(p)]


def quartic_lhs(a: Fraction, x: Fraction, y: Fraction) -> Fraction:
    return x**4 + a * x * x + a * y * y + y**4


def _ec_add(a2, a4, P, Q):
    # Chord-and-tangent law on y^2 = x^3 + a2 x^2 + a4 x; None is infinity.
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - a2 - x1 - x2
    return x3, lam * (x1 - x3) - y1


def _is_torsion(a2, a4, P) -> bool:
    # Lutz-Nagell: every multiple of a torsion point is integral on an
    # integral model; Mazur: a rational torsion point has order at most 12.
    u = _lcm(a2.denominator, a4.denominator)
    Q = P
    for _ in range(MAZUR_ORDER_CAP):
        if Q is None:
            return True
        if (Q[0] * u * u).denominator != 1 or (Q[1] * u**3).denominator != 1:
            return False
        Q = _ec_add(a2, a4, Q, P)
    return Q is None


def _rand_frac(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| > 0: trial division, then Pollard rho."""
    n, out = abs(n), {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        c = 1
        while True:
            x = y = 2
            g = 1
            while g == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                g = math.gcd(abs(x - y), m)
            if g != m:
                break
            c += 1
        stack += [g, m // g]
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases: exact below 3.3e24, which
    covers every prime the checks use; larger factors only size strata."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def companion_disc(a: Fraction, b: Fraction) -> int:
    """Discriminant of the integral model of the companion curve
    y^2 = x^3 - 4a x^2 - (16b + 4a^2) x, scaled by u = lcm of the
    coefficient denominators."""
    a2, a4 = -4 * a, -(16 * b + 4 * a * a)
    u = _lcm(a2.denominator, a4.denominator)
    a2, a4 = int(a2 * u * u), int(a4 * u**4)
    return 16 * a4 * a4 * (a2 * a2 - 4 * a4)


def lutz_nagell_size(disc: int) -> int:
    """Candidate x-values a Lutz-Nagell torsion search tests: the sum of
    tau(y^2) over the y with y^2 | disc."""
    size = 1
    for e in factor(disc).values():
        size *= (e // 2 + 1) ** 2
    return size


# ------------------------------------------------------------- ordering


def spread_order(n: int, rng: random.Random) -> list[int]:
    """A seeded permutation of range(n) whose every prefix spreads evenly
    over the range: the bit-reversal order with a random digit scramble,
    rotated by a random offset."""
    if n == 0:
        return []
    bits = max(1, (n - 1).bit_length())
    mask, shift = rng.randrange(1 << bits), rng.randrange(n)
    order = []
    for k in range(1 << bits):
        v = int(format(k ^ mask, f"0{bits}b")[::-1], 2)
        if v < n:
            order.append((v + shift) % n)
    return order


def spread_strata(strata: list[list], rng: random.Random) -> list:
    """Each stratum (sorted by cost) in spread order, merged so that any
    prefix holds every stratum in proportion to its size, within one item;
    the merge depends on the sizes only, not on the seed."""
    keyed = []
    for s, items in enumerate(strata):
        n = len(items)
        keyed.extend(((j + 0.5) / n, s, items[i])
                     for j, i in enumerate(spread_order(n, rng)))
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [item for _, _, item in keyed]


def _images(point) -> set:
    x, y = point
    return {(sx * u, sy * v) for u, v in ((x, y), (y, x))
            for sx in (1, -1) for sy in (1, -1)}


def _payload(out: str) -> dict:
    try:
        env = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    require(isinstance(env, dict) and "payload" in env, "no payload in output")
    return env["payload"]


def _points(payload) -> set:
    return {(Fraction(int(x["num"]), int(x["den"])),
             Fraction(int(y["num"]), int(y["den"])))
            for x, y in payload["points"]}


# ------------------------------------------------------------- workloads


class Workload:
    """One benchmark workload; an instance serves one process.

    ``corpus(seed)`` gives the items in run order; ``argv(item, workdir)``
    the CLI arguments of one item; ``check(item, code, out, workdir)`` raises
    CheckFailed when a captured output is wrong.  ``setup(run_cli, workdir)``
    is the one-time warm-up every process pays before it is ready.  The
    traced run replays the first ``trace_items`` items, so that its counts
    repeat exactly for a seed.
    """

    name = ""
    trace_items = 0

    def corpus(self, seed: int) -> list:
        raise NotImplementedError

    def argv(self, item, workdir: str) -> list[str]:
        raise NotImplementedError

    def check(self, item, code: int, out: str, workdir: str) -> None:
        raise NotImplementedError

    def setup(self, run_cli, workdir: str) -> None:
        pass

    def before_item(self, item, workdir: str) -> None:
        pass

    def cache_file(self, item, workdir: str):
        """The scan-cache file the item reads and writes, if any."""
        return None


CHEB_RANGE = range(3, 221)   # mostly d <= 200, with a few beyond
CHEB_WARMUP_D = 4            # fills the lru-cached X_4 certificate
CHEB_COEFF_CAP = 64          # the program's Horner / nesting switch-over


def cheb_case(d: int) -> str:
    if d % 3 == 0:
        return "3|d"
    if d % 4 == 0:
        return "4|d"
    if d % 5 == 0:
        return "5|d"
    return "open"


def cheb_path(d: int) -> str:
    if d <= CHEB_COEFF_CAP:
        return "horner"
    return "matrix" if is_prime(d) else "nesting"


CHEB_COUNTS = {"3|d": {0}, "4|d": {12}, "5|d": {4, 8}}


class ChebSweep(Workload):
    name = "cheb-sweep"
    trace_items = 24

    def corpus(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        strata = {}
        for d in CHEB_RANGE:
            if d != CHEB_WARMUP_D:
                key = (cheb_case(d), cheb_path(d), d % 2)
                strata.setdefault(key, []).append(d)
        return spread_strata([strata[k] for k in sorted(strata)], rng)

    def argv(self, d, workdir):
        return ["cheb", str(d), "--json"]

    def setup(self, run_cli, workdir):
        code, out = run_cli(self.argv(CHEB_WARMUP_D, workdir))
        self.check(CHEB_WARMUP_D, code, out, workdir)

    def check(self, d, code, out, workdir):
        payload = _payload(out)
        pts = _points(payload)
        require(payload["count"] == len(pts), "count disagrees with points")
        case = cheb_case(d)
        if case == "open":
            require(code == 3, f"exit {code}, expected 3 outside proven cases")
            require(payload["status"] == "conjectural-evidence",
                    f"status {payload['status']!r} outside proven cases")
        else:
            require(code == 0, f"exit {code} in proven case {case}")
            require(payload["status"] == "certified", "proven case not certified")
            require(len(pts) in CHEB_COUNTS[case], f"{len(pts)} points in case {case}")
        for x, y in pts:
            require(cheb_value(d, x) + cheb_value(d, y) == 1,
                    f"({x}, {y}) is not on T_d(x) + T_d(y) = 1")
        small = range(-2, 3)
        values = {v: cheb_value(d, v) for v in small}
        box = {(Fraction(x), Fraction(y)) for x in small for y in small
               if values[x] + values[y] == 1}
        require(box <= pts, "a point with |x|, |y| <= 2 is missing")


QUARTIC_XY = (6, 3)        # x, y = n/m with |n| <= 6, 1 <= m <= 3
QUARTIC_A = (6, 2)         # a = n/m with |n| <= 6, 1 <= m <= 2
QUARTIC_STRATA = ((48, 240), (96, 80), (None, 40))    # (bits below, curves)
QUARTIC_MAX_CANDIDATES = 2**20
X4_ITEM = {"a": Fraction(-4), "b": Fraction(-3),
           "P": (Fraction(1), Fraction(0)), "G": (Fraction(4), Fraction(-16))}


def quartic_cost_key(a2, a4, gen, disc: int) -> float:
    """What sets the cost of a quartic item: the height of the generator,
    estimated as h(x(4G)) / 16, which sizes the multiples n*G the walk to
    |n| <= 40 computes, plus the Lutz-Nagell search size of the torsion
    search in units of 2^17 candidates (about one unit of height of work on
    a 2-vCPU x86 VM; together they explain 89% of the item-time variance
    over 624 sampled curves)."""
    g2 = _ec_add(a2, a4, gen, gen)
    x4 = _ec_add(a2, a4, g2, g2)[0]
    height = math.log(max(abs(x4.numerator), x4.denominator)) / 16
    return height + lutz_nagell_size(disc) / 2**17


class QuarticCertify(Workload):
    name = "quartic-certify"
    trace_items = 18

    def corpus(self, seed):
        # Strata by the bit length of the integral-model discriminant, a
        # fixed number of curves each, taken in spread order of their cost
        # key.  Curves whose torsion search tests 2^20 candidates or more
        # (0.7 s to over 10 s for that search alone) are left out: a
        # 20-second run cannot sample them steadily.
        rng = random.Random(f"{self.name}:{seed}")
        strata = [[] for _ in QUARTIC_STRATA]
        seen = {(X4_ITEM["a"], X4_ITEM["b"])}   # X_4 is the warm-up item
        while any(len(p) < k for p, (_, k) in zip(strata, QUARTIC_STRATA)):
            # Back-solve b so that the seeded point P = (x, y) lies on
            # F_(a, b), and take G = phi_1(P) as the free generator.
            x, y = _rand_frac(rng, *QUARTIC_XY), _rand_frac(rng, *QUARTIC_XY)
            a = _rand_frac(rng, *QUARTIC_A)
            b = quartic_lhs(a, x, y)
            if x == 0 or (a, b) in seen or b * (a * a + 2 * b) * (a * a + 4 * b) == 0:
                continue
            disc = companion_disc(a, b)
            s = next(i for i, (edge, _) in enumerate(QUARTIC_STRATA)
                     if edge is None or abs(disc).bit_length() < edge)
            a2, a4 = -4 * a, -(16 * b + 4 * a * a)
            gen = (-4 * x * x, x * (8 * y * y + 4 * a))
            if (len(strata[s]) >= QUARTIC_STRATA[s][1] or _is_torsion(a2, a4, gen)
                    or lutz_nagell_size(disc) >= QUARTIC_MAX_CANDIDATES):
                continue
            seen.add((a, b))
            strata[s].append((quartic_cost_key(a2, a4, gen, disc),
                              {"a": a, "b": b, "P": (x, y), "G": gen}))
        return spread_strata([[item for _, item in sorted(p, key=lambda e: e[0])]
                               for p in strata], rng)

    def argv(self, item, workdir):
        gx, gy = item["G"]
        # Options first and "--" before the positionals: a and b may be
        # negative fractions, which argparse would take for options.
        return ["quartic", f"--generator={gx},{gy}", "--rank", "1", "--json",
                "--", str(item["a"]), str(item["b"]), "1"]

    def setup(self, run_cli, workdir):
        code, out = run_cli(self.argv(X4_ITEM, workdir))
        self.check(X4_ITEM, code, out, workdir)

    def check(self, item, code, out, workdir):
        require(code == 0, f"exit {code}")
        payload = _payload(out)
        pts = _points(payload)
        require(payload["count"] == len(pts), "count disagrees with points")
        require(payload["status"] == "certified", f"status {payload['status']!r}")
        a, b = item["a"], item["b"]
        for x, y in pts:
            require(quartic_lhs(a, x, y) == b, f"({x}, {y}) is not on F")
        require(_images(item["P"]) <= pts, "the seeded point or one of its "
                "sign and swap images is missing")
        # F is symmetric under sign changes and the swap, so a complete point
        # set is a union of such orbits.
        require(all(_images(p) <= pts for p in pts),
                "the point set is not closed under sign changes and the swap")


HASSE_BANDS = ((25, 2999), (3000, 5999))   # prime bands of the cold windows
HASSE_WINDOW_SIZES = (1, 2, 3)            # family primes per cold window
HASSE_WARM_RANGE = (3, 3000)              # the cache filled at set-up
HASSE_WARM_WIDTHS = ((0, 300), (300, 1000), (1000, 2998))
HASSE_WARM_ITEMS = 9000


def check_hasse(lo: int, hi: int, code: int, out: str) -> dict:
    """Cold-scan rules: every family prime of the window is reported once;
    p = 25 mod 48 is locally solvable with W = -1, Selmer bound <= 2 and a
    below-threshold candidate conclusion; p = 1 mod 48 is outside the gate."""
    require(code == 0, f"exit {code}")
    payload = _payload(out)
    verdicts = payload["verdicts"]
    require([v["p"] for v in verdicts] == family_primes(lo, hi),
            "reported primes differ from the family primes of the window")
    require(payload["primes_scanned"] == len(verdicts), "primes_scanned is wrong")
    for v in verdicts:
        p = v["p"]
        if p % 48 == 25:
            require(v["locally_solvable"] is True, f"p={p} not locally solvable")
            require(v["root_number"] == -1, f"p={p} root number {v['root_number']}")
            require(isinstance(v["selmer_bound"], int) and v["selmer_bound"] <= 2,
                    f"p={p} Selmer bound {v['selmer_bound']}")
            require(v["conclusion"] == "candidate (below explicit threshold)",
                    f"p={p} conclusion {v['conclusion']!r}")
        else:
            require(v["conclusion"] == "outside the p = 25 mod 48 rank gate",
                    f"p={p} conclusion {v['conclusion']!r}")
    return payload


def _hasse_cost(primes) -> int:
    # The place-p scan is O(p), and a p = 25 mod 48 verdict costs about four
    # times a p = 1 mod 48 one (measured below 12000).
    return sum(p * (4 if p % 48 == 25 else 1) for p in primes)


def _hasse_argv(lo, hi, cache_dir):
    return ["hasse-scan", str(lo), str(hi), "--assume-parity",
            "--cache-dir", cache_dir, "--json"]


class HasseCold(Workload):
    name = "hasse-cold"
    trace_items = 24

    def corpus(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        strata = []
        for lo, hi in HASSE_BANDS:
            primes = family_primes(lo, hi)
            for k in HASSE_WINDOW_SIZES:
                windows = [primes[i:i + k] for i in range(len(primes) - k + 1)]
                windows.sort(key=_hasse_cost)
                strata.append([(w[0], w[-1]) for w in windows])
        return spread_strata(strata, rng)

    def _cache_dir(self, item, workdir):
        return os.path.join(workdir, "cold-{}-{}".format(*item))

    def argv(self, item, workdir):
        return _hasse_argv(*item, self._cache_dir(item, workdir))

    def cache_file(self, item, workdir):
        return os.path.join(self._cache_dir(item, workdir), "hasse-scan.jsonl")

    def before_item(self, item, workdir):
        # Every cold item gets a fresh, empty cache directory.
        os.makedirs(self._cache_dir(item, workdir))

    def setup(self, run_cli, workdir):
        code, out = run_cli(_hasse_argv(3, 100, os.path.join(workdir, "warmup")))
        check_hasse(3, 100, code, out)

    def check(self, item, code, out, workdir):
        check_hasse(*item, code, out)


class HasseWarm(Workload):
    name = "hasse-warm"
    trace_items = 450

    def __init__(self):
        self.cold = {}
        self.cache_size = 0

    def corpus(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        lo0, hi0 = HASSE_WARM_RANGE
        primes = family_primes(lo0, hi0)
        per = HASSE_WARM_ITEMS // len(HASSE_WARM_WIDTHS)
        pools, seen = [], set()
        for wmin, wmax in HASSE_WARM_WIDTHS:
            pool = []
            while len(pool) < per:
                width = rng.randrange(wmin, wmax)
                lo = rng.randint(lo0, hi0 - width)
                hi = lo + width
                if (lo, hi) in seen or not any(lo <= p <= hi for p in primes):
                    continue
                seen.add((lo, hi))
                pool.append((lo, hi))
            pools.append(pool)
        return [item for rnd in zip(*pools) for item in rnd]

    def argv(self, item, workdir):
        return _hasse_argv(*item, os.path.join(workdir, "warm"))

    def cache_file(self, item, workdir):
        return os.path.join(workdir, "warm", "hasse-scan.jsonl")

    def setup(self, run_cli, workdir):
        # The cold fill: one scan over the whole range, checked like a cold item.
        lo0, hi0 = HASSE_WARM_RANGE
        code, out = run_cli(self.argv(HASSE_WARM_RANGE, workdir))
        payload = check_hasse(lo0, hi0, code, out)
        self.cold = {v["p"]: v for v in payload["verdicts"]}
        self.cache_size = os.path.getsize(self.cache_file(None, workdir))

    def check(self, item, code, out, workdir):
        require(code == 0, f"exit {code}")
        lo, hi = item
        verdicts = [self.cold[p] for p in sorted(self.cold) if lo <= p <= hi]
        expected = {"primes_scanned": len(verdicts), "verdicts": verdicts}
        require(json.dumps(_payload(out), sort_keys=True)
                == json.dumps(expected, sort_keys=True),
                "warm payload differs from the cold payload for the window")
        require(os.path.getsize(self.cache_file(item, workdir)) == self.cache_size,
                "the cache grew: a warm verdict was recomputed")


WORKLOADS = {w.name: w for w in (ChebSweep, QuarticCertify, HasseCold, HasseWarm)}
