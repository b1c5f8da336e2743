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
    IntPoly,
    factorize,
    is_prime,
    legendre_symbol,
    require,
    roots_mod_p,
)
from .localglobal import everywhere_locally_solvable

# Above this prime a parity-conditional verdict that passes every gate
# concludes "no rational points"; at or below it the same verdict is
# reported as a candidate only.  Carried as an opaque gate.
EXPLICIT_PARITY_THRESHOLD = 3 * 10**74

QUARTIC_RESIDUE_POLY = IntPoly([2, 0, -4, 0, 1])  # x^4 - 4x^2 + 2


@dataclass(frozen=True)
class HomSpace:
    """d*w^2 = d^2 + c2*z^2 + c4*z^4, the homogeneous space attached to the
    square class d for a 2-isogeny descent."""

    d: int
    c2: int
    c4: int

    def multiplied_quartic(self) -> IntPoly:
        # y^2 = d * (d^2 + c2 z^2 + c4 z^4) with y = d*w.
        return IntPoly([self.d**3, 0, self.d * self.c2, 0, self.d * self.c4])

    def discriminant(self) -> int:
        # Of the biquadratic A z^4 + B z^2 + C: 16 A C (B^2 - 4 A C)^2.
        return 16 * self.d**8 * self.c4 * (self.c2**2 - 4 * self.d**2 * self.c4)**2


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


def _is_square_ql(n: int, ell: int) -> bool:
    """Whether a nonzero integer is a square in Q_ell (ell prime)."""
    c = _square_class(n, ell)
    if ell == 2:
        return c == 1
    return c % ell != 0 and pow(c, (ell - 1) // 2, ell) == 1  # Euler


def _square_class(n: int, ell: int) -> int:
    """The representative ell^e * u of the class of the nonzero integer n in
    Q_ell*/Q_ell*^2: e = v_ell(n) mod 2, and u is the unit part of n mod ell
    (mod 8 at ell = 2), which fixes its class by Hensel's lemma."""
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return ell ** (v % 2) * (n % (8 if ell == 2 else ell))


def _zl_solvable(c: int, f: IntPoly, ell: int, depth: int, cap: int) -> bool:
    """Whether y^2 = c * f(z) has a solution with z in Z_ell (f primitive,
    and c a unit at ell or exactly divisible by it).  The answer depends on
    c only through its class in Q_ell*/Q_ell*^2, so c is carried as the
    class representative ell^e * u of `_square_class`.

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
            val = c * f(z0)
            if val == 0 or _is_square_ql(val, ell):
                return True
        roots = [z0 for z0 in range(ell) if f.eval_mod(z0, ell) == 0]
    else:
        if c % ell and _unit_value_is_residue(c, f, ell):
            return True
        roots = sorted(roots_mod_p(f, ell))
        for z0 in roots:
            val = c * f(z0)
            if val == 0 or _is_square_ql(val, ell):
                return True
    for z0 in roots:
        f1 = f.shift_scale(z0, ell)
        cont = f1.content()
        f1 = IntPoly([x // cont for x in f1.coeffs])
        if _zl_solvable(_square_class(c * cont, ell), f1, ell, depth + 1, cap):
            return True
    return False


def _unit_value_is_residue(c: int, f: IntPoly, ell: int) -> bool:
    """Whether c*f(z0) is a nonzero square mod ell for some z0 (ell odd and
    prime to c)."""
    half = (ell - 1) // 2
    u = _square_class_mod(f, ell)
    if u is not None:
        return pow(c * u, half, ell) == 1
    for z0 in range(ell):
        r = c * f.eval_mod(z0, ell) % ell
        if r and pow(r, half, ell) == 1:
            return True
    return False


def _square_class_mod(f: IntPoly, ell: int):
    """The unit u with f = u*g^2 in F_ell[z] (ell odd), or None when f mod
    ell is not of that form or has degree above 4."""
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
        # g = z^2 + s*z + t with g^2 = h: s = h3/2, t = (h2 - s^2)/2.
        half = (ell + 1) // 2
        s = h[3] * half % ell
        t = (h[2] - s * s) * half % ell
        if (2 * s * t - h[1]) % ell == 0 and (t * t - h[0]) % ell == 0:
            return u
    return None


def _ql_solvable(G: IntPoly, ell: int, disc: int) -> bool:
    """Whether y^2 = G(z) has a Q_ell-point (z integral or not); disc is the
    discriminant of the quartic G, whose valuation caps the recursion."""
    if disc == 0:
        raise ValueError("homogeneous space quartic must be squarefree")
    v = 0
    d = abs(disc)
    while d % ell == 0:
        d //= ell
        v += 1
    cap = v + 12
    cont = G.content()
    G0 = IntPoly([x // cont for x in G.coeffs])
    c = _square_class(cont, ell)
    if _zl_solvable(c, G0, ell, 0, cap):
        return True
    Gr = G0.reverse(4)
    contr = Gr.content()
    Gr = IntPoly([x // contr for x in Gr.coeffs])
    return _zl_solvable(_square_class(c * contr, ell), Gr, ell, 0, cap)


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
    return _ql_solvable(C.multiplied_quartic(), place, C.discriminant())


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


def selmer_rank_bound(p: int) -> int:
    """Rank bound s + s' - 2 from the 2-isogeny descent on the minimal
    companion model y^2 = x(x^2 + 4px + 2p^2) and its dual."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    a, b = 4 * p, 2 * p * p
    s_set = selmer_candidate_set(isogeny_spaces(a, b))
    s_dual = selmer_candidate_set(dual_isogeny_spaces(a, b))
    s = int(math.log2(len(s_set)))
    sp = int(math.log2(len(s_dual)))
    require(2**s == len(s_set) and 2**sp == len(s_dual),
            "Selmer candidate sets must be groups of 2-power order")
    return s + sp - 2


def quartic_residue_criterion(p: int) -> bool:
    """Whether x^4 - 4x^2 + 2 has a root mod p (equivalent to
    p = +-1 mod 16; the splitting criterion used at the place p)."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    return bool(roots_mod_p(QUARTIC_RESIDUE_POLY, p))


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

    W_p is the quadratic character of -1 (the curve has type I0* at p), and
    W_2 = +1 exactly when 6p + 5 = +-1 mod 8 (type III at 2, decided by the
    standard 2-adic table through c4 and c6; the displayed criterion is the
    one consistent with W = -1 for every odd prime).
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
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
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
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
