"""Monic Chebyshev polynomials and the identities the whole toolkit rests on.

T_d is the unique monic integer polynomial with T_d(z + 1/z) = z^d + z^-d.
This script checks the characterization at rational points, shows the
nesting property T_{nm} = T_n(T_m), and prints the values on {0, +-1, +-2}
that drive the curve classification.
"""

from fractions import Fraction

from symcurves import cheb_eval

print("Characterization at z = 3/2 (so x = z + 1/z = 13/6):")
z = Fraction(3, 2)
x = z + 1 / z
for d in (2, 5, 12):
    lhs = cheb_eval(d, x)
    rhs = z**d + z**-d
    print(f"  T_{d}({x}) = {lhs}  ==  z^{d} + z^-{d} = {rhs}:  {lhs == rhs}")

print("\nNesting: T_15(x) = T_3(T_5(x)) = T_5(T_3(x)) at x = 7/3:")
x = Fraction(7, 3)
print(f"  direct  : {cheb_eval(15, x)}")
print(f"  T_3(T_5): {cheb_eval(3, cheb_eval(5, x))}")
print(f"  T_5(T_3): {cheb_eval(5, cheb_eval(3, x))}")

print("\nValues on {0, +-1, +-2} (d not divisible by 3):")
for d in (5, 10, 8):
    row = ", ".join(f"T({v}) = {cheb_eval(d, v)}" for v in range(-2, 3))
    print(f"  d = {d:>2} (d mod 4 = {d % 4}): {row}")
