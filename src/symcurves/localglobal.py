"""Everywhere-local solvability for the twisted family
x^4 - 4p x^2 - 4p y^2 + y^4 = -6p^2: projective point counting over small
prime fields with smooth (Hensel-liftable) witnesses, in O(q) steps per
field, constructive square / root-of-unity certificates at the bad places
2, 3, p, a Weil-bound shortcut for q >= 37, and an exact real-place
criterion.  Failed certificate checks raise `CheckFailed`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .exact import factorize, is_prime, rat_mod, require, sqrt_mod_pk
from .quartic import SymQuartic

WEIL_CUTOFF = 37  # genus 3: q + 1 - 6*sqrt(q) > 0 for all q >= 37
# The odd primes below it, the fields `everywhere_locally_solvable` counts.
_COUNTED_PRIMES = tuple(q for q in range(3, WEIL_CUTOFF) if is_prime(q))


@dataclass
class LocalReport:
    place: object                 # prime, or the string "real"
    solvable: object              # True / False / "undetermined"
    method: str
    witness: object = None
    detail: dict = field(default_factory=dict)


def family_curve(p: int) -> SymQuartic:
    """The twist of the (a, b) = (-4, -6) quartic by the prime p."""
    return SymQuartic(-4, -6, p)


def real_solvable(F: SymQuartic) -> bool:
    """Exact real-place test: the quartic form attains its global minimum on
    the diagonal, so F(R) is nonempty iff that minimum is <= b'."""
    a, b = F.a_eff, F.b_eff
    minimum = -a * a / 2 if a < 0 else 0
    return b >= minimum


def bad_primes(F: SymQuartic) -> frozenset[int]:
    """Primes where the projective closure may be singular: 2 and the primes
    of the family discriminant and coefficient denominators.  Computed once
    per quartic and kept on it."""
    if F._bad_primes is None:
        out = {2}
        d = F.disc() * F.alpha  # twist support
        for q in (d.numerator, d.denominator,
                  F.a_eff.denominator, F.b_eff.denominator):
            if q not in (0, 1, -1):
                out |= set(factorize(q))
        F._bad_primes = frozenset(out)
    return F._bad_primes


def count_smooth_points_quartic_Fq(F: SymQuartic, q: int):
    """(count, smooth_witness) for the projective closure of F over F_q.

    Counts all projective points and returns one at which some partial
    derivative is nonzero, hence liftable to Q_q by Hensel's lemma.
    Rejects primes of (possibly) bad reduction.  The answer depends only on
    (q, a' mod q, b' mod q); for q < WEIL_CUTOFF, the only fields the local
    check counts, it is kept per process under that key (at most 3,354
    keys), so a family that meets the same residues again counts nothing.
    """
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if q in bad_primes(F):
        raise ValueError(f"q = {q} is a prime of bad reduction; use the "
                         "special place handling")
    count = _count_small_field if q < WEIL_CUTOFF else _count_smooth_points
    return count(q, rat_mod(F.a_eff, q), rat_mod(F.b_eff, q))


def _count_smooth_points(q: int, a: int, b: int):
    """(count, smooth_witness) of h(x) + h(y) = b over P^2(F_q), with
    h(t) = t^4 + a*t^2.

    The count takes O(q) steps: the y in [0, q) are bucketed by h(y), and
    each x adds the size of the bucket at b - h(x).  The witness is the
    first affine point in (x, y) order with a nonzero partial derivative,
    or else the first such point at infinity.
    """
    def partials(x, y, z):
        dx = (4 * pow(x, 3, q) + 2 * a * x * z * z) % q
        dy = (4 * pow(y, 3, q) + 2 * a * y * z * z) % q
        dz = (2 * a * x * x * z + 2 * a * y * y * z - 4 * b * z * z * z) % q
        return dx, dy, dz

    h = [(t * t + a) * t * t % q for t in range(q)]
    buckets: dict[int, list[int]] = {}
    for y, hy in enumerate(h):
        buckets.setdefault(hy, []).append(y)
    count = 0
    witness = None
    for x, hx in enumerate(h):
        ys = buckets.get((b - hx) % q, ())
        count += len(ys)
        if witness is None:
            witness = next(((x, y, 1) for y in ys if any(partials(x, y, 1))),
                           None)
    # Line at infinity: [x : y : 0] with x^4 + y^4 = 0, y = 1.
    for x in range(q):
        if (pow(x, 4, q) + 1) % q == 0:
            count += 1
            if witness is None and any(partials(x, 1, 0)):
                witness = (x, 1, 0)
    return count, witness


# The table of `count_smooth_points_quartic_Fq` for q < WEIL_CUTOFF.  Its
# values are (int, tuple or None), so no caller can change an entry.
_count_small_field = functools.cache(_count_smooth_points)


def special_place_checks(p: int) -> list[LocalReport]:
    """Constructive certificates at the bad places 2, 3 and p for primes
    p = 1 mod 24: p is a 2-adic and 3-adic square (diagonal witness), and
    Q_p contains a primitive 8th root of unity (witness at infinity).
    Certificates carry Hensel lifts mod 2^8, 3^5 and p^2."""
    if not is_prime(p) or p % 24 != 1:
        raise ValueError("constructive certificates require a prime p = 1 mod 24")
    reports = []

    theta2 = sqrt_mod_pk(p, 2, 8)
    require(theta2 is not None and (theta2 * theta2 - p) % 2**8 == 0,
            "2-adic square root of p is wrong")
    require(_diag_value(p, theta2) % 2**8 == 0,
            "diagonal witness does not vanish mod 2^8")
    reports.append(LocalReport(2, True, "constructive-square",
                               witness=("diagonal", theta2),
                               detail={"precision": "2^8"}))

    theta3 = sqrt_mod_pk(p, 3, 5)
    require(theta3 is not None and (theta3 * theta3 - p) % 3**5 == 0,
            "3-adic square root of p is wrong")
    require(_diag_value(p, theta3) % 3**5 == 0,
            "diagonal witness does not vanish mod 3^5")
    reports.append(LocalReport(3, True, "constructive-square",
                               witness=("diagonal", theta3),
                               detail={"precision": "3^5"}))

    zeta = _eighth_root_mod_p2(p)
    require((pow(zeta, 4, p * p) + 1) % (p * p) == 0,
            "witness at infinity is not a primitive 8th root of unity mod p^2")
    reports.append(LocalReport(p, True, "constructive-root-of-unity",
                               witness=("infinity", zeta),
                               detail={"precision": "p^2"}))
    return reports


def _diag_value(p: int, t: int) -> int:
    # The twisted quartic on the diagonal (t, t): 2t^4 - 8p t^2 + 6p^2.
    return 2 * t**4 - 8 * p * t * t + 6 * p * p


def _eighth_root_mod_p2(p: int) -> int:
    # x^4 = -1 mod p exists iff p = 1 mod 8; lift by one Newton step.
    g = None
    for c in range(2, p):
        cand = pow(c, (p - 1) // 8, p)
        if pow(cand, 4, p) == p - 1:
            g = cand
            break
    if g is None:
        raise ValueError("no primitive 8th root of unity mod p")
    mod = p * p
    f = (pow(g, 4, mod) + 1) % mod
    df = 4 * pow(g, 3, mod) % mod
    return (g - f * pow(df, -1, mod)) % mod


def everywhere_locally_solvable(p: int):
    """(all_solvable, per-place reports) for the twist of the (-4, -6)
    family by the odd prime p.  Places it cannot certify are reported
    "undetermined", never silently solvable."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    F = family_curve(p)
    reports = [LocalReport("real", real_solvable(F), "real")]

    bad = sorted(bad_primes(F))
    if p % 24 == 1:
        reports.extend(special_place_checks(p))
        handled = {2, 3, p}
    else:
        handled = set()
        for q in bad:
            reports.append(LocalReport(q, "undetermined", "bad-reduction"))
            handled.add(q)

    for q in _COUNTED_PRIMES:
        if q in handled or q in bad:
            continue
        count, witness = count_smooth_points_quartic_Fq(F, q)
        ok = count > 0 and witness is not None
        reports.append(LocalReport(q, ok if ok else "undetermined",
                                   "hensel-from-Fq", witness=witness,
                                   detail={"count": count}))
    reports.append(LocalReport(f">={WEIL_CUTOFF}", True, "weil-bound",
                               detail={"genus": 3,
                                       "bound": "q + 1 - 6*sqrt(q) > 0"}))
    all_ok = all(r.solvable is True for r in reports)
    return all_ok, reports
