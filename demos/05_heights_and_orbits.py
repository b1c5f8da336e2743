"""Canonical heights on the companion curves, and the orbit problem that
motivates the degree-4 Chebyshev curve.

The canonical height hhat(P) = lim 4^-n h(x(2^n P)) vanishes exactly on
torsion and is quadratic in the group law; the toolkit computes it to any
tolerance and bounds |hhat - h| per curve.  The last section reproduces the
shifted-orbit identities for f(x) = x^2 - 2, whose intersection pattern is
governed by the rational points of T_4(x) + T_4(y) = 1.
"""

from fractions import Fraction

from symcurves import (
    EllipticCurve,
    IntPoly,
    PolyMap,
    canonical_height,
    canonical_height_doubling,
    height_gap_bounds,
    naive_height,
    orbit_tail,
    point,
    shifted_intersection,
    torsion_subgroup,
)

E = EllipticCurve(16, -16, 0)
G = point(4, -16)
print(f"curve   : {E}")
print(f"torsion : {torsion_subgroup(E)}")
print(f"|hhat - h| <= {max(height_gap_bounds(E)):.3f} on this model\n")

h1 = canonical_height(E, G, 1e-10)
print(f"hhat(G)  = {h1:.10f}   (naive h = {naive_height(G):.6f})")
print(f"doubling-limit oracle at tol 1e-3: {canonical_height_doubling(E, G, 1e-3):.6f}")
for n in (2, 3, 5):
    hn = canonical_height(E, E.scalar_mul(n, G), 1e-10)
    print(f"hhat({n}G) = {hn:.10f}   vs n^2*hhat(G) = {n * n * h1:.10f}")

print("\nOrbits of f(x) = x^2 - 2 under the shift L(x) = 1 - x:")
f = IntPoly([-2, 0, 1])
pm = PolyMap(f, Fraction(1), Fraction(-1))
for start in (0, 1, -1, 2):
    t = orbit_tail(pm, 2, Fraction(start), 16)
    print(f"  orbit tail from {start:>2}: {t.values} (cycled: {t.cycled})")
meet, exact = shifted_intersection(pm, orbit_tail(pm, 2, Fraction(-1), 16),
                                   orbit_tail(pm, 2, Fraction(0), 16))
print(f"  L(orbit(-1)) meets orbit(0) in {meet} (exact: {exact})")
