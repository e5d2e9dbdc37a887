"""Factored rational functions: evaluation, residues, expansion coefficients.

Everything in this package runs on exact arithmetic; this demo shows the
basic moves on a few small functions.  Every expansion coefficient is read
off as a residue: the coefficient of (z-a)^j is Res_{z=a} f(z) (z-a)^(-j-1),
and the coefficient of z^-(j+1) at infinity is -Res_{z=inf} z^j f(z).
"""

from fractions import Fraction as F

from yangianpp import LinForm

# f(z) = z / ((z-1)(z-2)^2), kept in factored form
f = LinForm(1, [(F(0), 1), (F(1), -1), (F(2), -2)])
print("f(z) =", f)
print("f(5) =", f.eval(F(5)))

print("\nresidues:")
print("  at z=1:", f.residue_at(F(1)))
print("  at z=2 (double pole):", f.residue_at(F(2)))
print("  at infinity:", f.residue_at_infinity())
total = f.residue_at(F(1)) + f.residue_at(F(2)) + f.residue_at_infinity()
print("  sum over all residues (must be 0):", total)

print("\nexpansion of 1/(z-3) at infinity: coefficients of z^-1..z^-5")
g = LinForm(1, [(F(3), -1)])
print(" ", *[-g.residue_at_infinity(j) for j in range(5)])

print("\nTaylor expansion of f at z=0 (regular point), 4 terms:")
print(" ", *[f.residue_at(F(0), -j - 1) for j in range(4)])

print("\nLaurent data of f at the double pole z=2:")
laurent = [(f * LinForm(1, [(F(2), -j - 1)])).residue_at(F(2)) for j in (-2, -1, 0)]
print(" ", *laurent, "(coefficients of (z-2)^-2, (z-2)^-1, 1)")
