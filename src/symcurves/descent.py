"""Root numbers and descent via 2-isogeny for the companion curves of the
twisted (-4, -6) family: local solvability of the homogeneous spaces
d*w^2 = d^2 - 8pd*z^2 + 8p^2*z^4, the resulting Selmer rank bound, the
quartic-residue criterion at the place p, and the conditional local-global
violation verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import (
    _horner,
    _roots_fp,
    factorize,
    is_prime,
    legendre_symbol,
    require,
    require_odd_prime,
)
from .localglobal import everywhere_locally_solvable

# Above this prime a parity-conditional verdict that passes every gate
# concludes "no rational points"; at or below it the same verdict is
# reported as a candidate only.  Carried as an opaque gate.
EXPLICIT_PARITY_THRESHOLD = 3 * 10**74


@dataclass(frozen=True)
class HomSpace:
    """d*w^2 = d^2 + c2*z^2 + c4*z^4, the homogeneous space attached to the
    square class d for a 2-isogeny descent."""

    d: int
    c2: int
    c4: int

    def discriminant(self) -> int:
        # Of the multiplied quartic A z^4 + B z^2 + C below:
        # 16 A C (B^2 - 4 A C)^2.
        return 16 * self.d**8 * self.c4 * (self.c2**2 - 4 * self.d**2 * self.c4)**2

    @property
    def charts(self) -> tuple:
        """`_charts` of the multiplied quartic y^2 = d * (d^2 + c2 z^2 +
        c4 z^4), y = d*w: the data of the Q_ell kernel, built on each
        access, so once per prime place at which the space is tested."""
        d = self.d
        return _charts((d**3, 0, d * self.c2, 0, d * self.c4), self.discriminant())


def _is_square_ql(n: int, ell: int) -> bool:
    """Whether a nonzero integer is a square in Q_ell (ell prime)."""
    c = _square_class(n, ell)
    if ell == 2:
        return c == 1
    return c % ell != 0 and pow(c, (ell - 1) // 2, ell) == 1  # Euler


def _square_class(n: int, ell: int) -> int:
    """The representative ell^e * u of the class of the nonzero integer n in
    Q_ell*/Q_ell*^2: e = v_ell(n) mod 2, and u is the unit part of n mod ell
    (mod 8 at ell = 2), which fixes its class by Hensel's lemma.  At ell = 2
    the valuation is the index of the lowest set bit; n = 0 has none, and
    every caller tests for 0 first."""
    if ell == 2:
        v = (n & -n).bit_length() - 1
        return (2 if v & 1 else 1) * ((n >> v) & 7)
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return ell ** (v % 2) * (n % ell)


def _local_class(d: int, place):
    """A key of the class of the nonzero integer d in Q_v*/Q_v*^2, equal
    for two integers exactly when their classes are: the sign at the real
    place, `_square_class` at 2, and at an odd prime ell the parity of
    v_ell(d) with the Euler symbol of the unit part.  (The representative
    of `_square_class` is not canonical at odd ell: 1 and 2 get different
    ones even when 2 is a square mod ell.)"""
    if place == "real":
        return d > 0
    if place == 2:
        return _square_class(d, 2)
    v = 0
    while d % place == 0:
        d //= place
        v += 1
    return v & 1, pow(d, (place - 1) // 2, place) == 1


def _shift_scale(f: tuple, r: int, s: int) -> list:
    """The coefficients of f(r + s*t) in t: a Taylor shift by r in place,
    then t -> s*t."""
    a = list(f)
    n = len(a)
    if r:
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                a[j] += r * a[j + 1]
    m = 1
    for i in range(1, n):
        m *= s
        a[i] *= m
    return a


def _zl_solvable(c: int, f: tuple, ell: int, depth: int, cap: int) -> bool:
    """Whether y^2 = c * f(z) has a solution with z in Z_ell (f a primitive
    coefficient tuple, and c a unit at ell or exactly divisible by it).  The
    answer depends on c only through its class in Q_ell*/Q_ell*^2, so c is
    carried as the class representative ell^e * u of `_square_class`.

    Level scan: a value c*f(z0) that is 0 or an ell-adic square certifies a
    point; otherwise only roots z0 of f mod ell can carry deeper solutions,
    and the search recurses on f(z0 + ell*t) with its content moved into
    the square class c.  For odd ell the non-roots are decided without a
    walk over all ell residues:

    - ell | c: at a non-root v(c*f(z0)) = v(c) = 1 is odd, so c*f(z0) is
      neither 0 nor a square; only the roots can succeed.
    - f = u*g^2 mod ell: every non-root has c*f(z0) = c*u*g(z0)^2, and one
      exists (ell >= 3 > deg g), so they succeed iff c*u is a residue.
    - otherwise: scan for the first non-root with c*f(z0) a residue; by
      Weil's bound one exists for ell >= 17, but correctness needs no bound.

    Each root is then checked exactly and recursed on in ascending order.
    """
    require(depth <= cap, "local solvability recursion exceeded the "
            "discriminant depth bound")
    if ell == 2:
        for z0 in range(8):
            val = 0
            for x in reversed(f):
                val = val * z0 + x
            val *= c
            if val == 0:
                return True
            # A square in Q_2: even valuation, odd part 1 mod 8.
            v = (val & -val).bit_length() - 1
            if not v & 1 and (val >> v) & 7 == 1:
                return True
        roots = [z0 for z0, val in ((0, f[0]), (1, sum(f))) if val & 1 == 0]
    else:
        # f is primitive, so its residues mod ell are not all 0.
        fbar = [x % ell for x in f]
        while fbar[-1] == 0:
            fbar.pop()
        if c % ell and _unit_value_is_residue(c, fbar, ell):
            return True
        roots = sorted(_roots_fp(fbar, ell))
        for z0 in roots:
            val = c * _horner(f, z0)
            if val == 0 or _is_square_ql(val, ell):
                return True
    for z0 in roots:
        f1 = _shift_scale(f, z0, ell)
        cont = math.gcd(*f1)
        f1 = tuple(x // cont for x in f1)
        if _zl_solvable(_square_class(c * cont, ell), f1, ell, depth + 1, cap):
            return True
    return False


def _unit_value_is_residue(c: int, fbar: list, ell: int) -> bool:
    """Whether c*f(z0) is a nonzero square mod ell for some z0 (ell odd and
    prime to c; fbar the trimmed residues of f mod ell)."""
    half = (ell - 1) // 2
    u = _square_class_mod(fbar, ell)
    if u is not None:
        return pow(c * u, half, ell) == 1
    for z0 in range(ell):
        acc = 0
        for x in reversed(fbar):
            acc = (acc * z0 + x) % ell
        r = c * acc % ell
        if r and pow(r, half, ell) == 1:
            return True
    return False


def _square_class_mod(fbar: list, ell: int):
    """The unit u with f = u*g^2 in F_ell[z] (ell odd), or None when f mod
    ell is not of that form or has degree above 4; fbar is the list of the
    residues of f mod ell, trimmed and not all 0."""
    n, u = len(fbar) - 1, fbar[-1]
    if n == 0:
        return u
    inv = pow(u, -1, ell)
    h = [x * inv % ell for x in fbar]
    if n == 2:
        return u if (h[1] * h[1] - 4 * h[0]) % ell == 0 else None
    if n == 4:
        # g = z^2 + s*z + t with g^2 = h: s = h3/2, t = (h2 - s^2)/2.
        half = (ell + 1) // 2
        s = h[3] * half % ell
        t = (h[2] - s * s) * half % ell
        if (2 * s * t - h[1]) % ell == 0 and (t * t - h[0]) % ell == 0:
            return u
    return None


def _charts(G: tuple, disc: int) -> tuple:
    """(|disc|, cont, G0, Gr) for y^2 = G(z), G the five coefficients of a
    quartic with discriminant disc: G = cont * G0 with G0 primitive, and
    Gr = z^4 * G0(1/z), the chart at z = infinity.  Gr has the coefficients
    of G0, so it is primitive too, and both charts carry the class of cont."""
    if disc == 0:
        raise ValueError("homogeneous space quartic must be squarefree")
    cont = math.gcd(*G)
    G0 = tuple(x // cont for x in G)
    return abs(disc), cont, G0, G0[::-1]


def _ql_solvable(charts: tuple, ell: int) -> bool:
    """Whether y^2 = G(z) has a Q_ell-point (z integral or not), for the
    charts of G from `_charts`; the valuation of the discriminant caps the
    recursion."""
    disc, cont, G0, Gr = charts
    if ell == 2:
        v = (disc & -disc).bit_length() - 1
    else:
        v = 0
        while disc % ell == 0:
            disc //= ell
            v += 1
    cap = v + 12
    c = _square_class(cont, ell)
    return _zl_solvable(c, G0, ell, 0, cap) or _zl_solvable(c, Gr, ell, 0, cap)


def _real_solvable_space(C: HomSpace) -> bool:
    # d*w^2 = g(z^2) with g(s) = c4 s^2 + c2 s + d^2: solvable over R iff
    # d > 0, or min over s >= 0 of g(s) is <= 0 when d < 0.  For c4 > 0 the
    # minimum is at s = 0 when c2 > 0, else at the vertex -c2 / (2 c4).
    if C.d > 0:
        return True
    A, B, Cc = C.c4, C.c2, C.d * C.d
    if A < 0:
        return True
    if A == 0:
        return B < 0 or Cc <= 0
    if B > 0:
        return Cc <= 0
    return 4 * A * Cc - B * B <= 0


def homspace_locally_solvable(C: HomSpace, place) -> bool:
    """Local solvability of the homogeneous space at a place ("real" or a
    prime)."""
    if place == "real":
        return _real_solvable_space(C)
    if not is_prime(place):
        raise ValueError(f"place {place} is neither 'real' nor a prime")
    return _ql_solvable(C.charts, place)


def selmer_sets(a: int, b: int) -> tuple[list[int], list[int]]:
    """The Selmer candidate sets (phi_set, dual_set) of the standard 2-isogeny
    on y^2 = x(x^2 + ax + b) and of its dual: the square classes d whose
    homogeneous space is solvable at every place that can fail.

    With D = a^2 - 4b, the phi side has the spaces d*w^2 = d^2 - 2ad*z^2 +
    D*z^4 over squarefree d | D, and the dual side, the same construction
    on the isogenous curve y^2 = x(x^2 - 2ax + D), has d*w^2 = d^2 + 4ad*z^2
    + 16b*z^4 over squarefree d | 16b; both signs of d are taken.  D and b
    are factored once each.

    The multiplied quartic y^2 = d^3 + d*c2 z^2 + d*c4 z^4 of a space has
    discriminant 16 d^8 c4 (c2^2 - 4 d^2 c4)^2, and at any odd prime away
    from it the space is a smooth genus-1 curve, hence solvable.  On the
    phi side c4 = D and c2^2 - 4 d^2 c4 = 16b*d^2; on the dual side c4 = 16b
    and it is 16D*d^2.  As d divides c4, every space is tested at the real
    place and at the primes of 2bD, and nowhere else.

    On either side the space of d is d*w^2 = d^2 + c2'*d*z^2 + c4*z^4 with
    c2' and c4 fixed.  Put d*u^2 for d and (u*z, u*w) for (z, w): the
    equation of d comes back, times u^4.  So whether the space of d is
    solvable over Q_v depends only on the class of d in Q_v*/Q_v*^2, and
    each side asks the kernel once per place and `_local_class` key, in
    the order spaces and places are listed, and reads every later d of
    that class from the answer.  For squarefree d, equal classes at ell
    also mean equal v_ell(d); the discriminant 16 d^12 c4 (c2'^2 - 4c4)^2
    then has equal valuation too, so the kernel's recursion cap is the
    same for every d of a class.  A space is built only when one of its
    classes has no answer yet."""
    disc = a * a - 4 * b
    if disc == 0 or b == 0:
        raise ValueError("curve must be nonsingular with full 2-isogeny data")
    disc_primes, b_primes = set(factorize(disc)), set(factorize(b)) | {2}
    places = ["real"] + sorted(disc_primes | b_primes)
    sets = []
    for primes, c2, c4 in ((disc_primes, -2 * a, disc), (b_primes, 4 * a, 16 * b)):
        divisors = [1]
        for q in sorted(primes):
            divisors += [d * q for d in divisors]
        verdicts, solvable = {}, []
        for d in [e * n for n in sorted(divisors) for e in (1, -1)]:
            C = None
            for v in places:
                key = (v, _local_class(d, v))
                ok = verdicts.get(key)
                if ok is None:
                    if C is None:
                        C = HomSpace(d, d * c2, c4)
                    ok = verdicts[key] = homspace_locally_solvable(C, v)
                if not ok:
                    break
            else:
                solvable.append(d)
        sets.append(solvable)
    return sets[0], sets[1]


def selmer_rank_bound(p: int) -> int:
    """Rank bound s + s' - 2 from the 2-isogeny descent on the minimal
    companion model y^2 = x(x^2 + 4px + 2p^2) and its dual."""
    require_odd_prime(p)
    s_set, s_dual = selmer_sets(4 * p, 2 * p * p)
    n, n_dual = len(s_set), len(s_dual)
    require(n and n_dual and not n & (n - 1) and not n_dual & (n_dual - 1),
            "Selmer candidate sets must be groups of 2-power order")
    s, sp = n.bit_length() - 1, n_dual.bit_length() - 1
    return s + sp - 2


def quartic_residue_criterion(p: int) -> bool:
    """Whether x^4 - 4x^2 + 2 has a root mod p, the splitting criterion
    used at the place p; it does exactly when p = +-1 mod 16.

    Proof: x^4 - 4x^2 + 2 is the minimal polynomial of 2cos(pi/8).  Its
    field Q(zeta_16)^+ is Galois over Q, cyclic of degree 4 (the group
    (Z/16)*/{+-1}), and unramified at odd p.  The discriminant of the
    polynomial is 2^11, so at odd p its factorization mod p is that of p
    (Dedekind-Kummer), and a root mod p is a prime above p of degree 1.
    The group is abelian, so Frobenius at p fixes one root, hence every
    root: p splits completely, which means p = +-1 in (Z/16)*.  Conversely
    such a p splits completely, and the polynomial has four roots mod p."""
    require_odd_prime(p)
    return p % 16 in (1, 15)


@dataclass
class RootNumberReport:
    p: int
    W2: int
    Wp: int
    W: int
    kodaira_at_p: str
    kodaira_at_2: str
    c4: int = 0
    c6: int = 0


def root_number(p: int) -> RootNumberReport:
    """Global root number of the companion curve of the twist by p.

    W_p is the quadratic character of -1 (the curve has type I0* at p).
    W_2 = +1 exactly when 6p + 5 = +-1 mod 8.  That rule was chosen to agree
    with W = -1 for every odd prime; it is not derived here by Tate's
    algorithm or the 2-adic tables, and the Kodaira types "I0*" at p and
    "III" at 2 are literals, not computed.
    """
    require_odd_prime(p)
    wp = legendre_symbol(-1, p)
    w2 = 1 if (6 * p + 5) % 8 in (1, 7) else -1
    # Invariants of the minimal model y^2 = x^3 + 4p x^2 + 2p^2 x.
    b2, b4 = 16 * p, 4 * p * p
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4
    require(c4 == 2**5 * 5 * p * p and abs(c6) == 2**8 * 7 * p**3,
            "companion invariants c4, c6 disagree with the closed form")
    return RootNumberReport(p=p, W2=w2, Wp=wp, W=w2 * wp,
                            kodaira_at_p="I0*", kodaira_at_2="III",
                            c4=c4, c6=c6)


@dataclass
class HasseVerdict:
    p: int
    assume_parity: bool
    congruence_gate: bool
    locally_solvable: object = None
    root_number: object = None
    selmer_bound: object = None
    conditional_rank: object = None
    conclusion: str = ""


def hasse_candidate_verdict(p: int, assume_parity: bool) -> HasseVerdict:
    """Full verdict for one prime: congruence gate p = 25 mod 48, local
    solvability at every place, root number, Selmer rank bound, and the
    parity-conditional conclusion (explicit-threshold aware)."""
    require_odd_prime(p)
    v = HasseVerdict(p=p, assume_parity=assume_parity,
                     congruence_gate=(p % 48 == 25))
    if p % 24 != 1:
        v.conclusion = "outside the locally solvable congruence family"
        return v
    ok, _ = everywhere_locally_solvable(p)
    v.locally_solvable = ok
    rn = root_number(p)
    v.root_number = rn.W
    v.selmer_bound = selmer_rank_bound(p)
    if not v.congruence_gate:
        # p = 1 mod 48: the place-p Selmer argument does not apply, so the
        # rank gate cannot close; record the data without a conclusion.
        v.conclusion = "outside the p = 25 mod 48 rank gate"
        return v
    if not assume_parity:
        v.conclusion = "unconditional conclusion unavailable (parity not assumed)"
        return v
    if ok and rn.W == -1 and v.selmer_bound <= 2:
        v.conditional_rank = 1
        if p > EXPLICIT_PARITY_THRESHOLD:
            v.conclusion = ("no rational points; local-global principle "
                            "fails (conditional on parity)")
        else:
            v.conclusion = "candidate (below explicit threshold)"
    else:
        v.conclusion = "gates not all passed"
    return v
