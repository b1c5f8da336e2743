"""Rational points on the Chebyshev curves X_d: T_d(x) + T_d(y) = 1.

The proven classification is by divisibility: 3 | d makes X_d empty,
4 | d reduces to the degree-4 curve (12 points), and 5 | d to the degree-5
curve (4 or 8 points according to d mod 4).  Everything else is covered by
scan evidence for the conjecture that coordinates always lie in
{0, +-1, +-2}.
"""

from symcurves import chebyshev_curve_points, conjecture_scan

for d in (9, 8, 5, 10, 20, 50):
    cert = chebyshev_curve_points(d)
    pts = ", ".join(f"({x},{y})" for x, y in sorted(cert.points)) or "none"
    print(f"X_{d:<2}  #= {len(cert.points):>2}  {pts}")

print("\nOutside the proven cases the count is conjectural; scan evidence:")
for d in (7, 11):
    ev = conjecture_scan(d, 300)
    inside = ", ".join(f"({x},{y})" for x, y in sorted(ev.inside_points))
    print(f"  d = {d}: inside = {inside}; "
          f"exceptional = {sorted(ev.exceptional) or 'none'}")
