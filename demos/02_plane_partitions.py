"""3D plane partitions: the fixed-point basis on the Hilbert-scheme side."""

from fractions import Fraction as F

from yangianpp import FixedPointBasis, Geometry, Params, box_weight, enumerate_plane_partitions

levels = enumerate_plane_partitions(6)
print("plane partitions by box count:", [len(L) for L in levels])

params = Params.make(F(101, 13), F(47, 7), F(7))
basis = FixedPointBasis(Geometry("c3", params, 6))
lam = basis.level(3)[0]
print("\na 3-box partition:", lam)
# a step is (index of its target in the next level, weight, box)
print("addible boxes:  ", [b for _, _, b in basis.steps(3)[0]])
# the removals of a label are the steps into it from the level below
print("removable boxes:", sorted(b for steps in basis.steps(2) for t, _, b in steps if t == 0))

print("\nequivariant weights (chi + i*h1 + j*h2 + k*h3):")
for b in lam:
    print(f"  {b} -> {box_weight(b, params)}")
print("note: (1,1,1) would weigh", box_weight((1, 1, 1), params), "= chi, the CY collision")
