"""Exact arithmetic: factored rational functions and the step constants.

Everything in this package runs on exact arithmetic.  The diagonal series
h(z) of a basis vector is a factored rational function (`LinForm`).  A
raising step at weight x splits the residue of h at x between e and f:
rho = Res_{z=x} h(z), and fhat, the reduced value at x of the lowering
factor, so the e entry is rho / fhat and the f entry fhat.  The series
check reads -Res_{z=inf} z^n h(z) = the coefficient of z^-(n+1) at
infinity, every n from one expansion.
"""

from fractions import Fraction as F

from yangianpp import Geometry, LinForm, Params, Representation

# f(z) = z / ((z-1)(z-2)^2), kept in factored form
f = LinForm(1, [(F(0), 1), (F(1), -1), (F(2), -2)])
print("f(z) =", f)
print("poles:", *f.poles(), " degree at infinity:", f.degree())
print("Res_{z=inf} z^n f(z), n = 0..4:", *f.residues_at_infinity(range(5)))

print("\nexpansion of 1/(z-3) at infinity: coefficients of z^-1..z^-5")
g = LinForm(1, [(F(3), -1)])
print(" ", *[-r for r in g.residues_at_infinity(range(5))])

params = Params.make(F(101, 13), F(47, 7), F(7))
rep = Representation(Geometry("c3", params, 2))
print(f"\nc3 steps up to level 2 at {params}:")
for n in range(rep.basis.top_level):
    for si, ti, x, rho, fhat in rep.transitions(n):
        src, tgt = rep.basis.level(n)[si], rep.basis.level(n + 1)[ti]
        print(f"  {src} -> {tgt}")
        print(f"    x = {x}, rho = {rho}, fhat = {fhat}, e entry rho/fhat = {rho / fhat}")
for _, lab in rep.basis:
    h = rep.h_rat(lab)
    print(f"  h on {lab} = {h}")
    print("    Res_{z=inf} z^n h(z), n = 0..3:", *h.residues_at_infinity(range(4)))
