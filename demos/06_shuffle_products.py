"""Shuffle products for the three preset kernels, and their relation checks."""

from yangianpp import Kernel, Params, SymPoly, shuffle_mul
from yangianpp.shuffle import check_a1_anticomm, check_assoc, check_c3_ee, check_jordan_ee

params = Params.make(101, 47, 7)  # an integer draw gives integer coefficients here


def show(prod):
    """The terms of a product, each coefficient printed as a rational."""
    return "{" + ", ".join(f"{e}: {c}" for e, c in sorted(prod.poly.terms.items())) + "}"


print("arrowless kernel: x^0 * x^1 =", show(shuffle_mul(SymPoly.power(0), SymPoly.power(1), Kernel.a1())))

c3 = Kernel.c3(params)
prod = shuffle_mul(SymPoly.power(0), SymPoly.power(0), c3)
print("three-loop kernel: 1 * 1 =", show(prod))
print("  (= 2(x1-x2)^2 + 2*sigma2, sigma2 =", params.sigma2, ")")

for report in (
    check_a1_anticomm(),
    check_c3_ee(params, imax=2),
    check_jordan_ee(5),
    check_assoc(c3, trials=10),
):
    print(f"{report.relation:18s} {report.status:5s} domain={report.domain:3d} {report.detail}")
