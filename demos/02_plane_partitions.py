"""3D plane partitions: the fixed-point basis on the Hilbert-scheme side."""

from fractions import Fraction as F

from yangianpp import Geometry, Params, box_weight, enumerate_plane_partitions

levels = enumerate_plane_partitions(6)
print("plane partitions by box count:", [len(L) for L in levels])

params = Params.make(F(101, 13), F(47, 7), F(7))
c3 = Geometry("c3", params, 6)
lam = levels[3][0]
print("\na 3-box partition:", lam)
print("addible boxes:  ", [b for _, _, b in c3.moves(lam)])
# the removals of a label are the moves into it from the level below
print("removable boxes:", sorted(b for mu in levels[2] for tgt, _, b in c3.moves(mu) if tgt == lam))

print("\nequivariant weights (chi + i*h1 + j*h2 + k*h3):")
for b in lam:
    print(f"  {b} -> {box_weight(b, params)}")
print("note: (1,1,1) would weigh", box_weight((1, 1, 1), params), "= chi, the CY collision")
