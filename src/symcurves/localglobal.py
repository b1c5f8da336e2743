"""Everywhere-local solvability for the twisted family
x^4 - 4p x^2 - 4p y^2 + y^4 = -6p^2, worked on its integer coefficients
a' = -4p and b' = -6p^2: projective point counting over small prime fields
with smooth (Hensel-liftable) witnesses, in O(q) steps per field,
constructive square / root-of-unity certificates at the bad places 2, 3, p,
a Weil-bound shortcut for q >= 37, and an exact real-place criterion.
Failed certificate checks raise `CheckFailed`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .exact import is_prime, require, require_odd_prime, sqrt_mod_pk

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


def real_solvable(a: int, b: int) -> bool:
    """Exact real-place test for x^4 + a x^2 + a y^2 + y^4 = b: the form
    attains its global minimum -a^2/2 (a < 0) or 0 (a >= 0) on the
    diagonal, so the real points exist iff b is at least that minimum."""
    return 2 * b >= -a * a if a < 0 else b >= 0


def count_smooth_points_quartic_Fq(q: int, a: int, b: int):
    """(count, smooth_witness) for the projective closure of
    x^4 + a x^2 + a y^2 + y^4 = b over F_q, for a prime q and residues a, b
    mod q.

    Counts all projective points and returns one at which some partial
    derivative is nonzero, hence liftable to Q_q by Hensel's lemma.  It
    does not test the reduction type: the caller keeps its bad places out.
    The answer depends only on (q, a, b) and is kept per process under that
    key: the fields the local check counts give at most 3,354 keys, so a
    family that meets the same residues again counts nothing.  A non-prime
    q raises ValueError.
    """
    return _count_smooth_points(q, a, b)


# The table of `count_smooth_points_quartic_Fq`.  Its values are
# (int, tuple or None), so no caller can change an entry; a non-prime q
# raises before anything is kept.
@functools.cache
def _count_smooth_points(q: int, a: int, b: int):
    """(count, smooth_witness) of h(x) + h(y) = b over P^2(F_q), with
    h(t) = t^4 + a*t^2.

    The count takes O(q) steps: the y in [0, q) are bucketed by h(y), and
    each x adds the size of the bucket at b - h(x).  The witness is the
    first affine point in (x, y) order with a nonzero partial derivative,
    or else the first such point at infinity.
    """
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")

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
    family by the odd prime p, that is (a', b') = (-4p, -6p^2).  Places it
    cannot certify are reported "undetermined", never silently solvable."""
    require_odd_prime(p)
    a, b = -4 * p, -6 * p * p
    reports = [LocalReport("real", real_solvable(a, b), "real")]

    # The places of possibly bad reduction: 2, and the primes of the
    # discriminant b(a^2 + 2b)(a^2 + 4b) of (-4, -6), which is 192 = 2^6 * 3,
    # and the twist adds p.  A set, so that at p = 3 the place 3 is once.
    bad = {2, 3, p}
    if p % 24 == 1:
        reports.extend(special_place_checks(p))
    else:
        reports.extend(LocalReport(q, "undetermined", "bad-reduction")
                       for q in sorted(bad))

    for q in _COUNTED_PRIMES:
        if q in bad:
            continue
        count, witness = count_smooth_points_quartic_Fq(q, a % q, b % q)
        ok = count > 0 and witness is not None
        reports.append(LocalReport(q, ok if ok else "undetermined",
                                   "hensel-from-Fq", witness=witness,
                                   detail={"count": count}))
    reports.append(LocalReport(f">={WEIL_CUTOFF}", True, "weil-bound",
                               detail={"genus": 3,
                                       "bound": "q + 1 - 6*sqrt(q) > 0"}))
    all_ok = all(r.solvable is True for r in reports)
    return all_ok, reports
