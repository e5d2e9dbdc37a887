"""Pyramid partitions of a length-m empty room configuration.

Black stones sit on odd layers, whites on even layers; a pyramid partition
is an upward-closed subset.  Raising and lowering operators act through
equal-weight black/white pairs, so the sector (#black - #white) is an
invariant of the whole ladder.
"""

from fractions import Fraction as F

from yangianpp import FixedPointBasis, Geometry, Params, box_weight, build_erc, enumerate_pyramids
from yangianpp.pyramid import black_vector

m = 2
erc = build_erc(m)
print(f"ERC of length {m}: {len(erc.blacks)} blacks + {len(erc.whites)} whites")
print("equal-weight pairs:", [(p.black, p.white) for p in erc.pairs])

params = Params.make(F(101, 13), F(47, 7), F(7))
print("blacks at their lattice vectors (t, q, h), weighed by box_weight:")
for s in erc.blacks:
    print(f"  {s}  at {black_vector(s)}  weight {box_weight(black_vector(s), params)}")

print("\nall pyramid partitions grouped by (#black, #white):")
for (b, w), pis in enumerate_pyramids(erc, len(erc.stones)).items():
    print(f"  ({b},{w}) sector {b-w}: {len(pis)}")

conifold = Geometry("conifold", params, 2, m=m, sector=1)
basis = FixedPointBasis(conifold)
pair_at = {black_vector(p.black): p for p in erc.pairs}  # a step names its pair by the black's vector
print("\nsector-1 pyramids, their pair moves, their removals (the moves into")
print("them: weight and black's lattice vector) and the lattice vectors of")
print("their unpaired blacks, as the atoms of h(z) list them:")
into = {}  # (level, index) -> the steps into it
for n, level in enumerate(basis.levels):
    for i, (pi, steps) in enumerate(zip(level, basis.steps(n))):
        _, _, atoms = conifold.atoms(pi)
        for t, x, v in steps:
            into.setdefault((n + 1, t), []).append(f"{x} at {v}")
        print(f"  {list(pi.stones)}")
        print(f"    addible pairs:   {[pair_at[v] for _, _, v in steps]}")
        print(f"    removals:        {', '.join(into.get((n, i), [])) or 'none'}")
        print(f"    unpaired blacks: {[v for kind, v in atoms if kind == 'black']}")
