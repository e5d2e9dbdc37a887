"""Pyramid partitions of a length-m empty room configuration.

Black stones sit on odd layers, whites on even layers; a pyramid partition
is an upward-closed subset.  Raising and lowering operators act through
equal-weight black/white pairs, so the sector (#black - #white) is an
invariant of the whole ladder.
"""

from fractions import Fraction as F

from yangianpp import Geometry, Params, build_erc, enumerate_pyramids
from yangianpp.pyramid import addible_pairs, removable_pairs, stone_weight

m = 2
erc = build_erc(m)
print(f"ERC of length {m}: {len(erc.blacks)} blacks + {len(erc.whites)} whites")
print("equal-weight pairs:", [(p.black, p.white) for p in erc.pairs])

params = Params.make(F(101, 13), F(47, 7), F(7))
for s in sorted(erc.stones):
    print(f"  {s}  weight {stone_weight(s, params)}")

print("\nall pyramid partitions grouped by (#black, #white):")
for (b, w), pis in enumerate_pyramids(m, len(erc.stones)).items():
    print(f"  ({b},{w}) sector {b-w}: {len(pis)}")

groups = enumerate_pyramids(m, len(erc.stones), sector=1)
conifold = Geometry("conifold", params, 2, m=m, sector=1)
print("\nsector-1 pyramids, their pair moves and the lattice vectors (t, q, h)")
print("of their unpaired blacks, as the atoms of h(z) list them:")
for pis in groups.values():
    for pi in pis:
        _, _, atoms = conifold.atoms(pi)
        print(f"  {list(pi.stones)}")
        print(f"    addible pairs:   {addible_pairs(pi, erc)}")
        print(f"    removable pairs: {removable_pairs(pi, erc)}")
        print(f"    unpaired blacks: {[v for kind, v in atoms if kind == 'black']}")
