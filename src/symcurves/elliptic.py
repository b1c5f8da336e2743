"""Exact elliptic curve arithmetic over Q for models y^2 = x^3 + a2*x^2 +
a4*x + a6: group law, point counting mod p, torsion, Weil and canonical
heights.

The canonical height is normalized as hhat(P) = lim 4^-n h(x(2^n P)) with
h(p/q) = log max(|p|, |q|).  It is computed by splitting that limit into an
archimedean part (a normalized float iteration of the duplication polynomials
on directions, with a rigorous truncation bound) and exact p-adic content
corrections at the finitely many primes where the duplication pair can
acquire a common factor.  Those primes, and the gap bounds, come from the
pair's two Bezout identities, written out in the curve's coefficients and
checked exactly.  The correction at a prime ell is read in one pass of
residues mod a fixed power of ell, and ends at the first doubling with no
content at ell: that doubling starts from a point with nonsingular
reduction mod ell, and those points form a subgroup, so no later doubling
has content there either.  A literal big-integer doubling
limit is also provided (`canonical_height_doubling`) as an independent,
slower oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    _field_tables,
    factorize,
    integer_root,
    is_prime,
    log_abs,
    require,
)

MAZUR_ORDER_CAP = 12


class Infinity:
    """The point at infinity (group identity); a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "O"


INF = Infinity()


@dataclass(frozen=True)
class ECPoint:
    x: Fraction
    y: Fraction

    def __repr__(self):
        return f"({self.x}, {self.y})"


def point(x, y) -> ECPoint:
    return ECPoint(Fraction(x), Fraction(y))


class EllipticCurve:
    """y^2 = x^3 + a2*x^2 + a4*x + a6 over Q, nonsingular."""

    def __init__(self, a2, a4, a6=0):
        self.a2, self.a4, self.a6 = Fraction(a2), Fraction(a4), Fraction(a6)
        b2, b4, b6, b8 = self.b_invariants()
        self._disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if self._disc == 0:
            raise ValueError("singular curve (discriminant 0)")
        # The equation with denominators cleared, for `contains`: D and the
        # integers D*a2, D*a4, D*a6.
        self._D = math.lcm(self.a2.denominator, self.a4.denominator,
                           self.a6.denominator)
        self._Da = tuple(int(self._D * c) for c in (self.a2, self.a4, self.a6))
        self._integral = None       # built on first use by integral_model
        self._heights = None        # and by _machine_for

    def b_invariants(self):
        b2 = 4 * self.a2
        b4 = 2 * self.a4
        b6 = 4 * self.a6
        b8 = 4 * self.a2 * self.a6 - self.a4 * self.a4
        return b2, b4, b6, b8

    def discriminant(self) -> Fraction:
        return self._disc

    def contains(self, P) -> bool:
        """y^2 = x^3 + a2*x^2 + a4*x + a6 tested in integers: with x = p/q
        and y = r/s in lowest terms, it reads D*r^2*q^3 =
        s^2*(D*p^3 + Da2*p^2*q + Da4*p*q^2 + Da6*q^3)."""
        if P is INF:
            return True
        p, q = P.x.numerator, P.x.denominator
        r, s = P.y.numerator, P.y.denominator
        D, (c2, c4, c6) = self._D, self._Da
        q2 = q * q
        return D * r * r * q2 * q == s * s * (((D * p + c2 * q) * p + c4 * q2) * p
                                              + c6 * q2 * q)

    def _require(self, P):
        if P is not INF and not self.contains(P):
            raise ValueError(f"point {P} is not on {self}")

    def neg(self, P):
        if P is INF:
            return INF
        return ECPoint(P.x, -P.y)

    def add(self, P, Q):
        """Chord-and-tangent group law with O as identity."""
        self._require(P)
        self._require(Q)
        if P is INF:
            return Q
        if Q is INF:
            return P
        if P.x == Q.x:
            if P.y == -Q.y:
                return INF
            lam = (3 * P.x * P.x + 2 * self.a2 * P.x + self.a4) / (2 * P.y)
        else:
            lam = (Q.y - P.y) / (Q.x - P.x)
        x3 = lam * lam - self.a2 - P.x - Q.x
        y3 = lam * (P.x - x3) - P.y
        return ECPoint(x3, y3)

    def scalar_mul(self, n: int, P):
        """n*P by double-and-add; (-n)P = -(nP)."""
        self._require(P)
        if n < 0:
            return self.neg(self.scalar_mul(-n, P))
        R, Q = INF, P
        while n:
            if n & 1:
                R = self.add(R, Q)
            n >>= 1
            if n:
                Q = self.add(Q, Q)
        return R

    def integral_model(self):
        """(curve, u) with integer coefficients; points map (x, y) ->
        (u^2 x, u^3 y).  The canonical height is invariant under this.
        Built once per curve."""
        if self._integral is None:
            u = self._D
            self._integral = (self, 1) if u == 1 else (
                EllipticCurve(self.a2 * u * u, self.a4 * u**4, self.a6 * u**6), u)
        return self._integral

    def __repr__(self):
        terms = ["x^3"]
        for coef, mono in ((self.a2, "x^2"), (self.a4, "x"), (self.a6, "")):
            if coef == 0:
                continue
            sign = "-" if coef < 0 else "+"
            mag = abs(coef)
            body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else f"{mag}")
            terms.append(f"{sign} {body}")
        return "y^2 = " + " ".join(terms)

    def __eq__(self, other):
        return (isinstance(other, EllipticCurve)
                and (self.a2, self.a4, self.a6) == (other.a2, other.a4, other.a6))

    def __hash__(self):
        return hash((self.a2, self.a4, self.a6))


def count_points_mod_p(E: EllipticCurve, p: int) -> int:
    """#E(F_p) including infinity, by character sums read from the square
    roots of `_field_tables(p)`; p odd, good reduction."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    Ei, u = E.integral_model()
    if u % p == 0:
        raise ValueError(f"p = {p} divides a coefficient denominator")
    disc = Ei.discriminant()
    if disc.numerator % p == 0:
        raise ValueError(f"p = {p} is a prime of bad reduction")
    a2, a4, a6 = int(Ei.a2) % p, int(Ei.a4) % p, int(Ei.a6) % p
    root = _field_tables(p)[1]
    count = 1  # infinity
    for x in range(p):
        fx = (((x + a2) * x + a4) * x + a6) % p
        if fx == 0:
            count += 1
        elif root[fx] >= 0:  # fx is a nonzero square
            count += 2
    return count


def _torsion_multiple_bound(E: EllipticCurve) -> int:
    """gcd of #E(F_p) over the first ten good odd primes; a multiple of
    #E(Q)_tors."""
    g = 0
    p, found = 3, 0
    while found < 10:
        try:
            n = count_points_mod_p(E, p)
        except ValueError:
            p += 2
            continue
        g = math.gcd(g, n)
        found += 1
        p += 2
        if g == 1:
            break
    return g


def _integer_roots_monic_cubic(a2: int, a4: int, a6: int) -> list[int]:
    """The integer roots of f(x) = x^3 + a2 x^2 + a4 x + a6, sorted.

    Every complex root has modulus at most Fujiwara's bound
    2 max(|a2|, |a4|^(1/2), |a6/2|^(1/3)), so every real root lies in
    [-M, M] with M that bound, each term rounded up to an integer.  The
    critical points c- <= c+ of f are (-a2 -+ sqrt(s))/3 with
    s = a2^2 - 3 a4.  For s > 0, f is strictly increasing on the integers
    up to floor(c-), strictly decreasing from floor(c-) + 1 to floor(c+)
    and strictly increasing above; for s <= 0 it is strictly increasing
    everywhere.  Each piece holds at most one root, found by integer
    bisection."""
    def f(x):
        return ((x + a2) * x + a4) * x + a6

    def root_up(n, k):
        # The least integer r >= 0 with r^k >= n, for an int n >= 0.
        r = integer_root(n, k)
        return r if r**k == n else r + 1

    M = 2 * max(abs(a2), root_up(abs(a4), 2), root_up(-(-abs(a6) // 2), 3))
    s = a2 * a2 - 3 * a4
    if s > 0:
        k = math.isqrt(s)
        # floor((-a2 - sqrt(s)) / 3), exact for square and non-square s.
        lo_crit = (-a2 - k) // 3 if k * k == s else (-a2 - k - 1) // 3
        hi_crit = (-a2 + k) // 3
        pieces = [(-M, lo_crit, 1), (lo_crit + 1, hi_crit, -1), (hi_crit + 1, M, 1)]
    else:
        pieces = [(-M, M, 1)]
    roots = []
    for lo, hi, sign in pieces:
        # sign * f is strictly increasing on [lo, hi]: find its first x >= 0.
        if lo > hi or sign * f(lo) > 0 or sign * f(hi) < 0:
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        if f(lo) == 0:
            roots.append(lo)
    return roots


def _square_divisors(n: int) -> list[int]:
    """The y > 0 with y^2 | n: the divisors of the product of p^(e // 2)."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e // 2 + 1)]
    return divs


def torsion_subgroup(E: EllipticCurve) -> list:
    """All rational torsion points, O first.

    Candidates come from y = 0 (rational 2-torsion) and from the Lutz-Nagell
    divisibility y^2 | disc on an integral model; each candidate is certified
    by `is_torsion` (order at most the Mazur cap 12).  By Lutz-Nagell every
    torsion point of the integral model is such a candidate, so the points
    kept are all of E(Q)_tors, which is a group.

    The Lutz-Nagell search, which factors the discriminant, is skipped when
    the point-count gcd g of `_torsion_multiple_bound` equals |E[2](Q)| =
    1 + the number of integer roots of the cubic.  That is a proof: E[2](Q)
    is a subgroup of E(Q)_tors, whose order divides g, so both have order g
    and are equal.
    """
    Ei, u = E.integral_model()
    bound = _torsion_multiple_bound(Ei)
    found = {None}  # None stands for INF
    a2, a4, a6 = int(Ei.a2), int(Ei.a4), int(Ei.a6)
    roots = _integer_roots_monic_cubic(a2, a4, a6)
    candidates = {(Fraction(r), Fraction(0)) for r in roots}
    if bound != 1 + len(roots):
        disc = abs(int(Ei.discriminant()))
        for y in _square_divisors(disc):
            for x in _integer_roots_monic_cubic(a2, a4, a6 - y * y):
                candidates.add((Fraction(x), Fraction(y)))
                candidates.add((Fraction(x), Fraction(-y)))
    for x, y in candidates:
        P = ECPoint(x, y)
        if Ei.contains(P) and is_torsion(Ei, P):
            found.add((P.x, P.y))
    require(bound == 0 or bound % len(found) == 0,
            "torsion order does not divide the point-count gcd")
    # Map back from the integral model to the original coordinates.
    out = [INF]
    uu = Fraction(u)
    for xy in sorted(p for p in found if p):
        out.append(ECPoint(xy[0] / uu**2, xy[1] / uu**3))
    return out


def naive_height(P) -> float:
    """Weil height of the x-coordinate: log max(|num|, |den|); h(O) = 0."""
    if P is INF:
        return 0.0
    x = P.x
    return log_abs(max(abs(x.numerator), x.denominator))


def is_torsion(E: EllipticCurve, P) -> bool:
    """Whether P has finite order.  On the integral model (a1 = a3 = 0)
    every torsion point is integral (Lutz-Nagell), so the first multiple
    with a non-integral x proves infinite order; otherwise the order is at
    most the Mazur cap 12."""
    if P is INF:
        return True
    E._require(P)
    Ei, u = E.integral_model()
    P = ECPoint(P.x * u * u, P.y * u**3)
    Q = P
    for _ in range(MAZUR_ORDER_CAP):
        if Q.x.denominator != 1:
            return False
        Q = Ei.add(Q, P)
        if Q is INF:
            return True
    return False


def _duplication_forms(E: EllipticCurve):
    """Integer homogeneous quartics (N, D) with x(2P) = N(p, q)/D(p, q) for
    x(P) = p/q, on an integral model: coefficient tuples whose entry i is
    that of p^i * q^(4-i)."""
    a2, a4, a6 = int(E.a2), int(E.a4), int(E.a6)
    N = (a4 * a4 - 4 * a2 * a6, -8 * a6, -2 * a4, 0, 1)
    D = (4 * a6, 4 * a4, 4 * a2, 4, 0)
    return N, D


def _bezout_cofactors(a2, a4, a6):
    """(c, U, V, Ur, Vr): the Bezout identities U*N + V*D = c at q = 1 and
    Ur*N + Vr*D = c at p = 1 of the duplication pair of x^3 + a2 x^2 +
    a4 x + a6, written out.  c = 4 delta, where delta = 4a2^3 a6 -
    a2^2 a4^2 - 18a2 a4 a6 + 4a4^3 + 27a6^2 is minus the discriminant of
    the cubic.  U and V have 3 and 4 entries, the degrees of D and N at
    q = 1; Ur and Vr have 4 each."""
    c = 4 * (4 * a2**3 * a6 - a2 * a2 * a4 * a4 - 18 * a2 * a4 * a6
             + 4 * a4**3 + 27 * a6 * a6)
    s = 4 * a2 * a4 * a6 - a4**3 - 8 * a6 * a6
    t = 8 * a2 * a2 * a4 * a6 - 2 * a2 * a4**3 - 20 * a2 * a6 * a6 + a4 * a4 * a6
    return (c, (4 * (4 * a4 - a2 * a2), 8 * a2, 12),
            (27 * a6 - 2 * a2 * a4, 5 * a4, a2, -3),
            (c, -4 * t, 4 * (4 * a2 * a2 * a6 * a6 - 13 * a2 * a4 * a4 * a6
                             + 3 * a4**4 + 22 * a4 * a6 * a6),
             -12 * a6 * s),
            (t, 16 * a2 * a2 * a6 * a6 - 24 * a2 * a4 * a4 * a6 + 5 * a4**4
             + 32 * a4 * a6 * a6,
             16 * a2**3 * a6 * a6 - 8 * a2 * a2 * a4 * a4 * a6 + a2 * a4**4
             - 104 * a2 * a4 * a6 * a6 + 26 * a4**3 * a6 + 192 * a6**3,
             -3 * (4 * a2 * a6 - a4 * a4) * s))


def _bezout_data(N, D):
    """Certified constants for the duplication pair (N, D):

    returns (c_q, U, V, c_p, Ur, Vr) with U*N + V*D = c_q at q = 1 (the
    tuples as polynomials in p) and Ur*N + Vr*D = c_p at p = 1 (reversed,
    in q).  Any common divisor of (N(p,q), D(p,q)) for coprime (p, q)
    divides c_p * c_q.

    The identities are those of `_bezout_cofactors` at the a2, a4, a6 that
    D = 4(a6, a4, a2, 1, 0) carries.  On each chart U has deg D and V has
    deg N coefficients; under those bounds the solution is unique up to
    scale, and each is divided by its content, with the sign that makes
    c > 0.  Each identity is checked exactly against the N and D given
    before it is used, so a pair with a common root (c = 0) fails."""
    a6, a4, a2 = D[0] // 4, D[1] // 4, D[2] // 4
    c, U, V, Ur, Vr = _bezout_cofactors(a2, a4, a6)
    # Reversed, D and N have degree 4 unless a6 = 0 and a4^2 = 4a2 a6
    # respectively, and then degree 3 (both at once is a singular curve);
    # the entry that the lower degree drops is 0 there.
    at_p = Ur[:4 if a6 else 3], Vr[:4 if a4 * a4 != 4 * a2 * a6 else 3]
    out = ()
    for (u, v), n, d in (((U, V), N, D), (at_p, N[::-1], D[::-1])):
        lhs = [0] * (max(len(u) + len(n), len(v) + len(d)) - 1)
        for f, g in ((u, n), (v, d)):
            for i, x in enumerate(f):
                for j, y in enumerate(g):
                    lhs[i + j] += x * y
        require(c and lhs == [c] + [0] * (len(lhs) - 1),
                "duplication pair not coprime (singular curve?)")
        g = math.gcd(c, *u, *v) * (1 if c > 0 else -1)
        out += (c // g, tuple(x // g for x in u), tuple(x // g for x in v))
    return out


def _machine_for(E: EllipticCurve):
    """The height data of E, built once and kept on its integral model."""
    Ei, u = E.integral_model()
    if Ei._heights is None:
        Ei._heights = _HeightMachine(Ei)
    return Ei._heights


class _HeightMachine:
    """Per-curve data for canonical height computation (integral model)."""

    def __init__(self, E: EllipticCurve):
        self.N, self.D = N, D = _duplication_forms(E)
        cq, U, V, cp, Ur, Vr = _bezout_data(N, D)
        self.cq, self.cp = cq, cp
        self.content_bound = cp * cq
        sum_uv = sum(map(abs, U + V))
        sum_uvr = sum(map(abs, Ur + Vr))
        # Lower bound for max(|N|, |D|) on the max-norm unit sphere.
        self.m_min = min(cq / sum_uv, cp / sum_uvr)
        self.g_sum = max(sum(map(abs, N)), sum(map(abs, D)))
        self.c_upper = math.log(self.g_sum)
        self.c_lower = -math.log(self.m_min) + math.log(self.content_bound)
        # |hhat - h| <= (step bound)/3 from the telescoping series.
        self.step_bound = max(self.c_upper, self.c_lower)
        # (ell, e) for each prime ell of the content bound, e = v_ell(cp * cq):
        # factoring cp and cq apart is far cheaper than their product.
        fp, fq = factorize(cp), factorize(cq)
        self.bad_primes = sorted((ell, fp.get(ell, 0) + fq.get(ell, 0))
                                 for ell in fp.keys() | fq.keys())

    def gap_bounds(self):
        """(sup(hhat - h), sup(h - hhat)) over all rational points."""
        return self.c_upper / 3, self.c_lower / 3

    def _arch_step(self, u0, u1):
        # n[3] and d[4] are 0 (see _duplication_forms), so they are skipped.
        n, d = self.N, self.D
        w0 = ((u0 * u0 * u0 * u0) * n[4] + (u0 * u0) * (u1 * u1) * n[2]
              + u0 * (u1 * u1 * u1) * n[1] + (u1 * u1 * u1 * u1) * n[0])
        w1 = u1 * (d[3] * u0 * u0 * u0 + d[2] * u0 * u0 * u1
                   + d[1] * u0 * u1 * u1 + d[0] * u1 * u1 * u1)
        m = max(abs(w0), abs(w1))
        return w0 / m, w1 / m, math.log(m)

    def height(self, p0: int, q0: int, tol: float) -> float:
        """hhat of the point with x = p0/q0 to within tol: h(x), plus the
        archimedean series over n_steps normalized doublings, minus the
        content removed at each bad prime ell, sum_k 4^-k delta_k log ell."""
        total_const = self.step_bound + (math.log(self.content_bound)
                                         if self.content_bound > 1 else 0.0)
        n_steps = max(3, math.ceil(math.log(total_const / (1.5 * tol)) / math.log(4)))
        # Archimedean part: normalized direction iteration.
        shift = max(abs(p0).bit_length(), abs(q0).bit_length()) - 500
        if shift > 0:
            f0, f1 = float(p0 >> shift) if p0 >= 0 else -float(-p0 >> shift), \
                     float(q0 >> shift)
        else:
            f0, f1 = float(p0), float(q0)
        m = max(abs(f0), abs(f1))
        u0, u1 = f0 / m, f1 / m
        h = log_abs(max(abs(p0), abs(q0)))
        weight = 1.0
        arch = 0.0
        for _ in range(n_steps):
            weight /= 4.0
            u0, u1, s = self._arch_step(u0, u1)
            arch += weight * s
        # Finite part: exact content removal at the bad primes.
        fin = 0.0
        for ell, e in self.bad_primes:
            deltas = self._content_deltas(p0, q0, ell, e, n_steps)
            weight = 1.0
            log_ell = math.log(ell)
            for delta in deltas:
                weight /= 4.0
                if delta:
                    fin += weight * delta * log_ell
        return h + arch - fin

    def _content_deltas(self, p0, q0, ell, e, n_steps):
        """The valuations at ell of the contents removed at the doublings of
        x = p0/q0, up to and including the first 0 and at most n_steps of
        them, read from residues mod ell^((n_steps + 2)e + 4).  With e =
        v_ell of the content bound, each step reads a valuation up to e + 1
        and then drops delta <= e digits, so every step starts with at least
        2e + 4 digits left.

        Every delta after the first 0 is 0, so the list stops there.  Write
        P_k = 2^k P, x(P_k) = p/q with p, q coprime at ell, and N, D for the
        duplication pair: N(x) = f'(x)^2 - (8x + 4a2) f(x), D(x) = 4 f(x).
        The delta of step k + 1 is v_ell of the content of (N(p, q),
        D(p, q)).  If ell | q, then N(p, q) = p^4 mod ell is a unit: no
        content, and P_k reduces to O.  Otherwise x is ell-integral.  For
        odd ell there is content exactly when f(x) = f'(x) = 0 mod ell,
        that is, when P_k (whose y^2 = f(x)) reduces to a singular point.
        At ell = 2, D is always even and N = (x^2 + a4)^2 mod 2, which is
        even exactly when x = a4 mod 2, the x of the singular points mod 2.
        So delta_{k+1} = 0 exactly when P_k lies in E0(Q_ell), the points
        with nonsingular reduction on this integral model.  E0(Q_ell) is a
        subgroup (Silverman, The Arithmetic of Elliptic Curves, VII.2.1; the
        line argument there needs an integral model only, not a minimal
        one), so P_j lies in it for every j >= k and every later delta is
        0, which `height` would add nothing for."""
        mod = ell ** ((n_steps + 2) * e + 4)
        w0, w1 = p0 % mod, q0 % mod
        deltas = []
        for _ in range(n_steps):
            w0, w1 = _eval_pair(self.N, self.D, w0, w1, mod)
            delta = min(_val_capped(w0, ell, e), _val_capped(w1, ell, e))
            require(delta <= e, "duplication content exceeds its Bezout bound")
            deltas.append(delta)
            if not delta:
                break
            # w0 and w1 lie in [0, mod) and are divisible by ell^delta, so
            # their quotients are the residues mod mod // ell^delta.
            step = ell**delta
            mod //= step
            w0, w1 = w0 // step, w1 // step
        return deltas


def _eval_pair(n, d, p, q, mod):
    # (N(p, q), D(p, q)) mod `mod`, with N(p, q) = sum n[i] * p^i * q^(4-i)
    # and D the same sum over d: both read one list of the monomials
    # p^i * q^(4-i).
    p1, q1 = p % mod, q % mod
    p2, q2 = p1 * p1 % mod, q1 * q1 % mod
    mono = (q2 * q2 % mod, p1 * q1 * q2 % mod, p2 * q2 % mod,
            p1 * q1 * p2 % mod, p2 * p2 % mod)
    return (sum(map(operator.mul, n, mono)) % mod,
            sum(map(operator.mul, d, mono)) % mod)


def _val_capped(a, ell, cap):
    # v_ell(a) but never looking past cap (a may be a truncated residue).
    if a == 0:
        return cap + 1
    v = 0
    while v <= cap and a % ell == 0:
        a //= ell
        v += 1
    return v


def height_gap_bounds(E: EllipticCurve):
    """Rigorous (upper, lower) bounds: hhat - h <= upper and h - hhat <=
    lower for all rational points, from the duplication-polynomial Bezout
    identities on an integral model."""
    return _machine_for(E).gap_bounds()


def _require_tol(tol: float):
    # NaN fails both comparisons.
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def canonical_height(E: EllipticCurve, P, tol: float = 1e-10) -> float:
    """hhat(P) = lim 4^-n h(x(2^n P)) to within tol; exactly 0 on torsion."""
    _require_tol(tol)
    E._require(P)
    if is_torsion(E, P):
        return 0.0
    return _nontorsion_height(E, P, tol)


def _nontorsion_height(E: EllipticCurve, P, tol: float) -> float:
    """hhat(P) to within tol for a point the caller has already checked to
    lie on E and to have infinite order (`canonical_height` without those
    two checks, and the check of tol that both callers make)."""
    Ei, u = E.integral_model()
    x = P.x * u * u
    return _machine_for(E).height(x.numerator, x.denominator, tol)


def canonical_height_doubling(E: EllipticCurve, P, tol: float = 1e-2) -> float:
    """Literal doubling-limit oracle: iterate P -> 2P with exact coordinates
    and return 4^-n h(x(2^n P)) once the telescoping tail (step bound / 3 *
    4^-n) is below tol.  Feasible only for loose tolerances; the fast path
    in `canonical_height` computes the same limit."""
    _require_tol(tol)
    E._require(P)
    if is_torsion(E, P):
        return 0.0
    machine = _machine_for(E)
    n_steps = max(1, math.ceil(math.log(machine.step_bound / (3 * tol)) / math.log(4)))
    Ei, u = E.integral_model()
    Q = ECPoint(P.x * u * u, P.y * u**3)
    for _ in range(n_steps):
        Q = Ei.add(Q, Q)
    return naive_height(Q) / 4.0**n_steps
