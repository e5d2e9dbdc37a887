"""Shift detection: the diagonal series is stone-local terms times one
universal linear factor, the head atom's.

`h_rat` lists one local factor per atom of a label; `detect_shift` reads
the head atoms alone and requires the same signed linear factor on every
basis vector.  On 3D partitions it is 1/(z - chi): a negative shift with
shift point chi.  On the length-m pyramid side it is +-(z - chi - m*t): a
positive shift at chi + m*t, the same in every sector.
"""

from fractions import Fraction as F

from yangianpp import Geometry, Params, Representation, detect_shift
from yangianpp.reps import h_rat

params = Params.make(F(101, 13), F(47, 7), F(7))

rep = Representation(Geometry("c3", params, 4))
print("c3:", detect_shift(rep))

lam = rep.basis.level(2)[0]
print("  sample basis vector:", lam)
print("  h(z)      =", h_rat(lam, rep.geometry))
print("  atoms     =", rep.geometry.atoms(lam)[2])

for m in (1, 2, 3):
    for sector in (0, 1, 2):
        try:
            repc = Representation(Geometry("conifold", params, 2, m=m, sector=sector))
            l, z1 = detect_shift(repc)
            print(f"conifold m={m} sector={sector}: l={l:+d}, z1={z1} "
                  f"(chi + {m}t = {params.chi + m*params.t})")
        except Exception as exc:
            print(f"conifold m={m} sector={sector}: {exc}")
