"""Build the raising/lowering operators and verify the relation suite.

The commutator [e_i, f_j] must be diagonal with eigenvalues read off the
diagonal rational series h(z); the quadratic and Serre relations must vanish
exactly on every basis vector of every level the truncation can see.
"""

from fractions import Fraction as F

from yangianpp import Geometry, Params, Representation
from yangianpp.relations import OperatorSet, apply_table, ef_terms, quad_terms, run_suite

params = Params.make(F(101, 13), F(47, 7), F(7))

print("== 3D partitions, five levels ==")
g = Geometry("c3", params, 5)
rep = Representation(g)
print("basis sizes:", [len(L) for L in rep.basis.levels])

ops = OperatorSet(rep)
print("e_0 level-0 block:", ops.e(0).blocks[0])
# every relation is one table of (coefficient, word) pairs over the generators,
# applied to one basis vector at a time
[vacuum] = apply_table(ef_terms(0, 0), lambda g: getattr(ops, g[0])(g[1]), rep, [0])[0]
print("[e_0,f_0] on the vacuum:", vacuum[0])
print("quadratic relation (m,n)=(0,1):", len(quad_terms(0, 1, params.sigma2, params.sigma3)), "words")

reports, shift = run_suite(g, imax=2)
for r in reports:
    print(f"  {r.relation:15s} {r.status:6s} domain={r.domain:4d} {r.detail}")
print("shift factor:", shift)

print("\n== resolved conifold, m=3, sector 1 ==")
reports, shift = run_suite(Geometry("conifold", params, 3, m=3, sector=1), imax=2)
for r in reports:
    print(f"  {r.relation:15s} {r.status:12s} domain={r.domain:4d} {r.detail}")
print("shift factor:", shift, " (z1 = chi + 3t =", params.chi + 3 * params.t, ")")
