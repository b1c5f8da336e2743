"""Effective two-cover enumeration: turn height-gap bounds into a finite
index window |n| <= N, walk n*G + T on the companion curve, pull every
candidate back through the covering maps, and emit a completeness
certificate for the rational points of the symmetric quartic.

The whole window is covered, but most R = n*G + T are ruled out modulo
good primes before any exact arithmetic (a Mordell-Weil sieve in the sense
of Bruin-Stoll, applied to the pull-back).  At an odd prime l of good
reduction, a pair (T, n) is skipped when R mod l is affine with x(R) != 0
and either -x(R)/4 is a non-residue, or both (+-y(R)/t - 4a')/8 are
non-zero non-residues, where t is any square root of -x(R)/4 mod l.
Proof: x(R) is then an l-adic unit, so a phi_1-preimage (x, y) of R or of
-R would have x^2 = -x(R)/4, hence x = +-t mod l, and y^2 =
(+-y(R)/x - 4a')/8 would be one of those two residues mod l; the pair of
residues is the same for R and -R and for either choice of t.

The sieve runs SIEVE_PRIME_COUNT = 48 primes, so that in practice only
rows that carry points reach the exact walk.  An odd multiple n*G lies in
the class of G in E(Q)/2E(Q), so -x(R)/4 is a square at every prime and
only the y-condition can reject such a row; a false row survives each
prime with probability about 0.8.  Fewer primes (24, say) let through a
few odd n >= 3 per curve with no preimage, each costing an exact n*G and
two big square roots.

Only the pairs still alive go on to the next prime, and each prime walks
n*G mod l only up to the last live pair.  The pairs (T, 0) with T = O or
x(T) = 0, which the test always keeps, are not tested at all.  The
rationals the sieve reduces are split into numerator and denominator once
per call; inverses and square roots mod l are read from the tables of
`exact._field_tables`, built once per process and kept for a bounded
number of primes (`exact.FIELD_TABLE_CACHE`), and the group law and the
test above run on plain ints with no call per pair.

Rank data is an external certificate: the engine verifies the supplied
generator is on the curve, and non-torsion for a rank-1 claim or torsion
for a rank-0 one, but does not prove the rank bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import (
    INF,
    EllipticCurve,
    _good_odd_primes,
    _nontorsion_height,
    height_gap_bounds,
    torsion_subgroup,
)
from .exact import _field_tables, is_prime, rational_sqrt, require
from .quartic import (
    QuarticPoint,
    SymQuartic,
    biquadratic_roots,
    companion_curve,
    kappa,
    phi_preimages,
)

# Externally certified per-side |hhat - h| budget for this family; our own
# rigorous bounds are floored at it so the enumeration window always contains
# the independently verified |n| <= 40 search.
CERTIFIED_GAP_FLOOR = 9.62

# Rank-1 enumerations never search a window smaller than the verified one.
VERIFIED_WINDOW_FLOOR = 40

# The residue sieve works modulo this many odd primes of good reduction.
SIEVE_PRIME_COUNT = 48

# hhat(G) is computed to within this tolerance.  It is fixed: the
# certificate does not record it, and `index_bound` reads hhat(G) as exact.
HEIGHT_TOL = 1e-8


@dataclass
class DemjanenkoInput:
    F: SymQuartic
    E: EllipticCurve
    generator: object            # ECPoint or INF when rank_claim = 0
    torsion: list
    rank_claim: int              # 0 or 1, certified externally
    hhat_G: float
    height_gap_upper: float      # sup(hhat - h)
    height_gap_lower: float      # sup(h - hhat)
    phi_gap: float               # |h(phi_1) - h(phi_2)| bound = log(24*12*kappa)


@dataclass(frozen=True)
class PointCertificate:
    points: frozenset
    index_bound: int
    n_window: int
    conditional_on: tuple = ()
    status: str = "certified"

    def sorted_points(self) -> list:
        """The points in (x, y) order: int pairs of X_d and QuarticPoints."""
        return sorted(self.points, key=tuple)


def build_input(F: SymQuartic, generator, rank_claim: int) -> DemjanenkoInput:
    """Assemble the enumeration input from a quartic, an externally
    certified rank claim, and (for rank 1) a generator of the free part.
    A generator given with a rank-0 claim is checked too: it must be on the
    companion curve and in its torsion subgroup, which is listed complete."""
    if rank_claim not in (0, 1):
        raise ValueError("rank claim must be 0 or 1 for this method")
    E = companion_curve(F)
    torsion = torsion_subgroup(E)
    k = kappa(F.a_eff, F.b_eff)
    phi_gap = math.log(24) + math.log(12) + math.log(k)
    gap_up, gap_low = height_gap_bounds(E)
    gap_up = max(gap_up, CERTIFIED_GAP_FLOOR)
    gap_low = max(gap_low, CERTIFIED_GAP_FLOOR)
    given = generator is not INF and generator is not None
    if given and not E.contains(generator):
        raise ValueError("generator is not on the companion curve")
    if rank_claim == 0:
        if given and generator not in torsion:
            raise ValueError("generator has infinite order; "
                             "rank-0 claim inconsistent")
        return DemjanenkoInput(F, E, INF, torsion, 0, 0.0, gap_up, gap_low, phi_gap)
    if not given:
        raise ValueError("rank 1 requires a generator point")
    if generator in torsion:
        raise ValueError("generator is torsion; rank-1 claim inconsistent")
    # Both checks of canonical_height were just made; do not repeat them.
    hhat = _nontorsion_height(E, generator, HEIGHT_TOL)
    return DemjanenkoInput(F, E, generator, torsion, 1, hhat, gap_up, gap_low, phi_gap)


def index_bound(inp: DemjanenkoInput) -> int:
    """B with |n1^2 - n2^2| <= B, from (phi_gap + gap_up + gap_low)/hhat(G).

    The bounded quantity is an integer, so the floor of the ratio is a valid
    bound; a small margin absorbs float rounding upward (never unsound)."""
    if inp.rank_claim == 0:
        return 0
    if inp.hhat_G <= 0:
        raise ValueError("positive canonical height required for rank 1")
    ratio = (inp.phi_gap + inp.height_gap_upper + inp.height_gap_lower) / inp.hhat_G
    return math.floor(ratio + 1e-9)


def n_window(B: int) -> int:
    """N with max(|n1|, |n2|) <= N whenever |n1| != |n2|: from
    |n1^2 - n2^2| >= 2*max - 1 one gets max <= (B+1)/2, rounded up so the
    window dominates the historically used one."""
    if B < 0:
        raise ValueError("negative index bound")
    if B == 0:
        return 0
    return math.ceil((B + 1) / 2)


def equal_index_points(F: SymQuartic) -> set[QuarticPoint]:
    """Rational points in the degenerate classes n1 = +-n2, solved exactly:

    * phi_1 = +-phi_2 forces x = +-y, a biquadratic in x;
    * a covering map landing on the 2-torsion point (0,0) forces xy = 0;
    * phi_1 +- phi_2 = (0,0) with xy != 0 reduces, via translation by the
      2-torsion point, to (xy)^2 = B/16 with B the curve's a4 coefficient,
      then to a solvable symmetric system in x + y and xy.
    """
    a, b = F.a_eff, F.b_eff
    out: set[QuarticPoint] = set()

    # x = +-y branch: 2x^4 + 2a x^2 - b = 0.
    for x in biquadratic_roots(a, -b / 2):
        out |= {QuarticPoint(x, x), QuarticPoint(x, -x)}

    # xy = 0 branch: y^4 + a y^2 - b = 0 and its mirror.
    for y in biquadratic_roots(a, -b):
        out |= {QuarticPoint(Fraction(0), y), QuarticPoint(y, Fraction(0))}

    # phi_1 +- phi_2 = (0,0), xy != 0: (xy)^2 = -(b + a^2/4).
    target = -(b + a * a / 4)
    s = rational_sqrt(target)
    if s is not None and s != 0:
        for sigma in {s, -s}:
            # w = x^2 + y^2 solves w^2 + a w - (b + 2 sigma^2) = 0.
            d = rational_sqrt(a * a + 4 * (b + 2 * sigma * sigma))
            if d is None:
                continue
            for w in {(-a + d) / 2, (-a - d) / 2}:
                u = rational_sqrt(w + 2 * sigma)
                v = rational_sqrt(w - 2 * sigma)
                if u is None or v is None:
                    continue
                for su in (u, -u):
                    for sv in (v, -v):
                        out.add(QuarticPoint((su + sv) / 2, (su - sv) / 2))

    return {P for P in out if F.contains(P)}


def _sieve_primes(E: EllipticCurve) -> list[int]:
    """The first SIEVE_PRIME_COUNT good odd primes of E."""
    return list(itertools.islice(_good_odd_primes(E), SIEVE_PRIME_COUNT))


def _sieve_survivors(inp: DemjanenkoInput, N: int, primes) -> list[list[bool]]:
    """alive[n][i] is False when some l in `primes` proves that neither
    n*G + T_i nor its negative has a phi_1-preimage, for 0 <= n <= N.

    The pairs (0, i) with T_i = O or x(T_i) = 0 are never tested: their R
    is O or has x(R) = 0 mod every l, which the lemma always keeps.  Only
    the other live pairs (n, i) go from one prime to the next, and each
    prime walks n*G mod l only up to the last live pair, the largest live
    n, or up to the order of G mod l when that comes first.  Each rational
    is reduced from its numerator and denominator, taken once per call,
    with the inverse table of `exact._field_tables`, kept per process for
    at most `exact.FIELD_TABLE_CACHE` primes.

    Raises ValueError unless E is the companion curve of F (so a6 = 0) and
    every l is an odd prime of good reduction for E."""
    E, F = inp.E, inp.F
    if E != companion_curve(F):
        raise ValueError("the sieve needs the companion curve of F (a6 = 0)")
    den = math.lcm(E.a2.denominator, E.a4.denominator)
    disc = E.discriminant().numerator
    # Every rational the sieve reduces, as integers once per call: a2, a4
    # and a' times their common denominator c, whose odd primes divide
    # `den` (a2 = -4a'), so l never divides c; then x and y of G and of
    # each torsion point as (numerator, denominator).  A point whose x has
    # l in its denominator is the identity mod l; otherwise l divides
    # neither denominator, as a2 and a4 are l-integral.
    c = math.lcm(den, F.a_eff.denominator)
    c2, c4, ca = (int(q * c) for q in (E.a2, E.a4, F.a_eff))
    gen = None if inp.generator is INF else (
        inp.generator.x.numerator, inp.generator.x.denominator,
        inp.generator.y.numerator, inp.generator.y.denominator)
    points = [None if T is INF else
              (T.x.numerator, T.x.denominator, T.y.numerator, T.y.denominator)
              for T in inp.torsion]
    kept_always = [(0, i) for i, T in enumerate(inp.torsion)
                   if T is INF or T.x == 0]
    live = [(n, i) for n in range(N + 1) for i in range(len(inp.torsion))
            if n or (0, i) not in kept_always]
    for ell in primes:
        if ell == 2 or not is_prime(ell) or den % ell == 0 or disc % ell == 0:
            raise ValueError(f"{ell} is not a prime > 2 of good reduction")
        if not live:
            continue
        inv, root = _field_tables(ell)
        ic = inv[c % ell]
        a2, a4, a = c2 * ic % ell, c4 * ic % ell, ca * ic % ell
        torsion = [None if T is None or T[1] % ell == 0 else
                   (T[0] * inv[T[1] % ell] % ell, T[2] * inv[T[3] % ell] % ell)
                   for T in points]
        # n*G mod ell for n up to the largest live n (live is sorted by n),
        # or for n below the order of G mod ell when that is smaller.  The
        # chord-and-tangent law below and in the filter reads `inv` at a
        # nonzero entry only: x1 != x2, or a doubling with y1 != 0.
        multiples = [None]
        if gen is not None and live[-1][0] and gen[1] % ell:
            gx, gy = gen[0] * inv[gen[1] % ell] % ell, gen[2] * inv[gen[3] % ell] % ell
            multiples.append((gx, gy))
            x1, y1, s = gx, gy, a2 + gx
            for _ in range(live[-1][0] - 1):
                if x1 != gx:
                    lam = (gy - y1) * inv[(gx - x1) % ell] % ell
                elif (y1 + gy) % ell:
                    lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * inv[2 * y1 % ell] % ell
                else:
                    break                   # (n + 1)*G is the identity
                x3 = (lam * lam - s - x1) % ell
                x1, y1 = x3, (lam * (x1 - x3) - y1) % ell
                multiples.append((x1, y1))
        order = len(multiples)
        # Keep (n, i) unless R = n*G + T_i passes the lemma of the module
        # docstring: R affine with X = x(R) != 0, and either -X/4 a
        # non-square, or both (+-Y/t - 4a')/8 non-squares, t = root(-X/4):
        # with u = Y/(8t) and h = a'/2, those are +-u - h.
        quarter, eighth = inv[4 % ell], inv[8 % ell]
        h = 4 * a * eighth
        kept = []
        for n, i in live:
            P, T = multiples[n % order], torsion[i]
            if P is None or T is None:
                R = T if P is None else P
            elif P[0] == T[0] and (P[1] + T[1]) % ell == 0:
                R = None
            else:
                (x1, y1), (x2, y2) = P, T
                if x1 != x2:
                    lam = (y2 - y1) * inv[(x2 - x1) % ell] % ell
                else:
                    lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * inv[2 * y1 % ell] % ell
                x3 = (lam * lam - a2 - x1 - x2) % ell
                R = (x3, (lam * (x1 - x3) - y1) % ell)
            if R is None or R[0] == 0:
                kept.append((n, i))
                continue
            t = root[-R[0] * quarter % ell]
            if t >= 0:
                u = R[1] * inv[t] * eighth
                if root[(u - h) % ell] >= 0 or root[(-u - h) % ell] >= 0:
                    kept.append((n, i))
        live = kept
    alive = [[False] * len(inp.torsion) for _ in range(N + 1)]
    for n, i in kept_always + live:
        alive[n][i] = True
    return alive


def enumerate_and_pull_back(inp: DemjanenkoInput, N: int) -> PointCertificate:
    """Pull back every n*G + T with |n| <= N through phi_1 (phi_2 follows by
    the swap symmetry), union the degenerate equal-index solutions, and
    certify the resulting point set.

    A pair (T, n) with 0 <= n <= N stands for R = n*G + T and -R, which
    covers the window since the torsion is a group.  Pairs that the
    residue sieve rejects are skipped: modulo an odd good prime l, x(R) is
    an l-adic unit and either x^2 = -x(R)/4 or both candidate values of
    y^2 = (+-y(R)/x - 4a')/8 are unsolvable, so neither R nor -R has a
    preimage.  Only surviving points are built exactly, each n*G once for
    all torsion points T."""
    E, F = inp.E, inp.F
    points: set[QuarticPoint] = set()

    def absorb(Q):
        if Q is INF:
            return
        for P in phi_preimages(1, Q, F):
            points.add(P)
            points.add(P.swap())

    alive = _sieve_survivors(inp, N, _sieve_primes(E))
    for n, row in enumerate(alive):
        if not any(row):
            continue
        nG = E.scalar_mul(n, inp.generator)
        for T, survives in zip(inp.torsion, row):
            if survives:
                R = E.add(nG, T)
                absorb(R)
                if n:
                    absorb(E.neg(R))

    points |= equal_index_points(F)
    for P in points:
        require(F.contains(P), "certificate point is not on the quartic")

    conditions = [f"rank <= {inp.rank_claim} certified externally"]
    if inp.rank_claim == 1:
        conditions.append("generator of the free part certified externally")
    return PointCertificate(
        points=frozenset(points),
        index_bound=index_bound(inp),
        n_window=N,
        conditional_on=tuple(conditions),
    )


def determine_points(F: SymQuartic, generator=None,
                     rank_claim: int = 1) -> PointCertificate:
    """Full pipeline: bounds, window, enumeration, certificate.  Over-covering
    is always sound, so rank-1 windows are floored at the verified 40."""
    inp = build_input(F, generator, rank_claim)
    B = index_bound(inp)
    N = max(n_window(B), VERIFIED_WINDOW_FLOOR) if inp.rank_claim == 1 else 0
    return enumerate_and_pull_back(inp, N)
