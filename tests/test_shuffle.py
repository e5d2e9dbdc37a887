import re
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import box_local_factor, flipped_param, orbit_terms, sympy_shuffle
from yangianpp import Kernel, LinForm, Params, SymPoly, shuffle, shuffle_mul
from yangianpp.errors import DenominatorNotCancelled
from yangianpp.exact import GFP, PRIME, QQ, random_params
from yangianpp.shuffle import MPoly, check_a1_anticomm, check_assoc, check_c3_ee, check_jordan_ee


def test_a1_x0_star_x1_is_minus_one():
    prod = shuffle_mul(SymPoly.power(0), SymPoly.power(1), Kernel.a1())
    assert prod.poly == MPoly.monomial(2, (0, 0), F(-1))


@pytest.fixture
def iparams():
    # Params.make maps these integers to Fractions of denominator 1, so every
    # kernel weight, and every shuffle coefficient, is an integral Fraction
    return Params.make(101, 47, 7)


def test_c3_one_star_one(iparams):
    params = iparams  # 2(x1-x2)^2 + 2 sigma2
    prod = shuffle_mul(SymPoly.power(0), SymPoly.power(0), Kernel.c3(params))
    u2 = MPoly(2, {(2, 0): F(2), (1, 1): F(-4), (0, 2): F(2)})
    expect = u2 + MPoly.monomial(2, (0, 0), 2 * params.sigma2)
    assert prod.poly == expect


def test_unit_on_either_side(iparams):
    params = iparams
    one = SymPoly(MPoly.monomial(0, (), QQ.one))
    f = SymPoly.power(3)
    for k in (Kernel.a1(), Kernel.c3(params)):
        assert shuffle_mul(f, one, k) == f
        assert shuffle_mul(one, f, k) == f


@pytest.mark.parametrize("field", [QQ, GFP])
def test_power_refuses_a_negative_exponent(field):
    with pytest.raises(ValueError, match="^shuffle elements are polynomials, got exponent -1$"):
        SymPoly.power(-1, field=field)
    assert SymPoly.power(0, field=field).poly.terms == {(0,): field.one}


def test_a1_anticommutator_check():
    r = check_a1_anticomm()
    assert (r.status, r.domain) == ("pass", 36)  # r1, r2 = 0..5


@pytest.mark.parametrize("r1,r2", [(0, 0), (0, 1), (2, 5)])
def test_a1_anticomm_instances(r1, r2):
    a, b, k = SymPoly.power(r1), SymPoly.power(r2), Kernel.a1()
    assert (shuffle_mul(a, b, k) + shuffle_mul(b, a, k)).is_zero()


def test_c3_ee_relation(iparams):
    params = iparams
    assert check_c3_ee(params, imax=2).status == "pass"


def test_c3_ee_sigma3_flip_is_nonzero(iparams, monkeypatch):
    monkeypatch.setattr(Params, "sigma3", flipped_param("sigma3"))
    assert check_c3_ee(iparams, imax=1).status == "fail"


def test_c3_ee_sigma2_flip_is_nonzero(iparams):
    params = iparams
    assert check_c3_ee(params, imax=1, sigma2_sign=+1).status == "fail"


def test_jordan_sign_discrimination():
    r = check_jordan_ee(F(5, 3))
    assert r.status == "pass" and "+1" in r.detail


def test_assoc_presets(iparams):
    params = iparams
    for k in (Kernel.a1(), Kernel.c3(params), Kernel.jordan(F(2, 7))):
        assert check_assoc(k, trials=8).status == "pass"


def test_asymmetric_input_rejected():
    bad = MPoly(2, {(2, 0): F(1)})
    with pytest.raises(DenominatorNotCancelled):
        SymPoly(bad)


def test_symmetry_of_products(iparams):
    params = iparams
    f = SymPoly.power(2)
    g = SymPoly(MPoly(2, {(1, 0): F(1), (0, 1): F(1)}))
    prod = shuffle_mul(f, g, Kernel.c3(params))
    assert prod.poly.is_symmetric() and prod.v == 3


def test_conjugation_ratios(params):
    x = F(9, 2)
    # arrowless kernel: fac(z|x)/fac(x|z) = -1
    a1 = LinForm(*Kernel.a1().ratio(x))
    assert a1.factors == () and a1.const == -1
    # three-loop kernel reproduces the per-box eigenvalue factor
    c3 = LinForm(*Kernel.c3(params).ratio(x))
    assert c3 == box_local_factor(x, params)


def test_orbit_terms_view(iparams):
    params = iparams
    prod = shuffle_mul(SymPoly.power(0), SymPoly.power(0), Kernel.c3(params))
    ot = orbit_terms(prod)
    assert ot[(2, 0)] == 2 and ot[(1, 1)] == -4


def _sym(v, orbits):
    """Sum of monomial symmetric polynomials: orbits is [(exponent, coeff)]."""
    terms = {}
    for e, c in orbits:
        for p in set(permutations(e)):
            terms[p] = terms.get(p, 0) + c
    return SymPoly(MPoly(v, terms))


ORACLE_INPUTS = {
    1: _sym(1, [((2,), F(3)), ((0,), F(-1, 2))]),
    2: _sym(2, [((2, 0), F(1)), ((1, 1), F(-2, 3))]),
    3: _sym(3, [((1, 0, 0), F(2)), ((1, 1, 1), F(5))]),
}

ORACLE_KERNELS = {
    "a1": Kernel.a1(),
    "jordan:2/7": Kernel.jordan(F(2, 7)),
    "c3:101,47,7": Kernel.c3(Params.make(101, 47, 7)),
    # seed 2024 draws h1 = 3851/12, h2 = -9476/39
    "c3:seed2024": Kernel.c3(random_params(2024)),
}


# the c3 kernels again, in the prime field
PRIME_KERNELS = {
    "c3:101,47,7": Kernel.c3(Params.make(101, 47, 7, mode="prime-field")),
    "c3:seed2024": Kernel.c3(random_params(2024, mode="prime-field")),
}

SHAPES = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]


@lru_cache(maxsize=None)
def oracle(kernel, v1, v2):
    """The sympy product of the oracle inputs of weights v1 and v2, computed
    once for both fields."""
    k = ORACLE_KERNELS[kernel]
    f, g = ORACLE_INPUTS[v1], ORACLE_INPUTS[v2]
    return sympy_shuffle(f.poly.terms, v1, g.poly.terms, v2, k.numerator_weights, 1)


@pytest.mark.parametrize("v1,v2", SHAPES)
@pytest.mark.parametrize("kernel", sorted(ORACLE_KERNELS))
def test_shuffle_mul_matches_sympy_oracle(kernel, v1, v2):
    k = ORACLE_KERNELS[kernel]
    if kernel == "c3:seed2024":
        assert any(F(w).denominator != 1 for w in k.numerator_weights)
    got = shuffle_mul(ORACLE_INPUTS[v1], ORACLE_INPUTS[v2], k)
    assert got.v == v1 + v2
    assert got.poly.terms == oracle(kernel, v1, v2)


@pytest.mark.parametrize("v1,v2", SHAPES)
@pytest.mark.parametrize("kernel", sorted(PRIME_KERNELS))
def test_shuffle_mul_matches_sympy_oracle_prime_field(kernel, v1, v2):
    """The prime-field product is the oracle's rational product mapped
    through GFP.of, coefficient by coefficient."""
    k = PRIME_KERNELS[kernel]
    assert k.numerator_weights == tuple(GFP.of(w) for w in ORACLE_KERNELS[kernel].numerator_weights)

    def residues(sym):
        return SymPoly(MPoly(sym.v, {e: GFP.of(c) for e, c in sym.poly.terms.items()}, GFP))

    got = shuffle_mul(residues(ORACLE_INPUTS[v1]), residues(ORACLE_INPUTS[v2]), k)
    assert got.v == v1 + v2
    assert got.poly.terms == GFP.nonzero({e: GFP.of(c) for e, c in oracle(kernel, v1, v2).items()})


def test_operands_of_another_field_are_refused():
    kernel = Kernel.c3(random_params(2024, mode="prime-field"))
    half = SymPoly.power(1) * F(1, 2)  # a rational operand
    with pytest.raises(ValueError, match="do not mix"):
        shuffle_mul(half, SymPoly.power(0), kernel)
    with pytest.raises(ValueError, match="do not mix"):
        shuffle_mul(SymPoly.power(0, field=GFP), half, kernel)
    with pytest.raises(ValueError, match="do not mix"):
        MPoly(1, {(1,): 1}, GFP) + MPoly(1, {(1,): 1})
    with pytest.raises(ValueError, match="do not mix"):
        MPoly(1, {(1,): 1}) - MPoly(1, {(1,): 1}, GFP)
    # built in the kernel's field, the half is the residue of 1/2
    prod = shuffle_mul(SymPoly.power(1, field=GFP) * GFP.of(F(1, 2)), SymPoly.power(0, field=GFP), kernel)
    rational = shuffle_mul(half, SymPoly.power(0), Kernel.c3(random_params(2024)))
    assert prod.poly.terms == {e: GFP.of(c) for e, c in rational.poly.terms.items()}
    assert all(type(c) is int and 0 <= c < PRIME for c in prod.poly.terms.values())


def test_scalars_of_another_field_are_refused():
    """A polynomial times a scalar of another field is an error, as for +
    and -; ints scale polynomials of either field."""
    with pytest.raises(ValueError, match="do not mix"):
        MPoly(1, {(1,): 3}, GFP) * F(1, 2)
    with pytest.raises(ValueError, match="do not mix"):
        F(1, 2) * SymPoly.power(1, field=GFP)
    assert (MPoly(1, {(1,): 3}, GFP) * -1).terms == {(1,): PRIME - 3}
    assert (2 * MPoly(1, {(1,): F(1, 3)})).terms == {(1,): F(2, 3)}
    assert (MPoly(1, {(1,): F(1, 3)}) * F(3, 2)).terms == {(1,): F(1, 2)}


def test_symmetry_is_checked_on_products_and_outside_input_only(monkeypatch):
    """Sums, differences and scalar multiples of SymPolys skip the symmetry
    check; shuffle products and SymPolys built from a polynomial run it,
    and a non-symmetric polynomial is still refused."""
    calls = []
    check = MPoly.is_symmetric
    monkeypatch.setattr(MPoly, "is_symmetric", lambda self: calls.append(self.nvars) or check(self))
    a, b = SymPoly.power(1), SymPoly.power(2)
    assert len(calls) == 2
    (a + b) - 3 * a
    a * F(1, 2)
    assert len(calls) == 2
    shuffle_mul(a, b, Kernel.a1())
    assert len(calls) == 3
    with pytest.raises(DenominatorNotCancelled):
        SymPoly(MPoly(2, {(2, 0): F(1)}))
    assert len(calls) == 4


@st.composite
def linear_division(draw):
    """(nvars, i, j, coefficient dict of a quotient, exponent of a
    remainder monomial free of x_i)."""
    nvars = draw(st.integers(2, 3))
    i, j = draw(st.permutations(range(nvars)))[:2]
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    quotient = draw(st.dictionaries(exps, st.fractions(-9, 9, max_denominator=4), max_size=6))
    rest = list(draw(exps))
    rest[i] = 0
    return nvars, i, j, quotient, tuple(rest)


@pytest.mark.parametrize("field", [QQ, GFP], ids=["rational", "prime-field"])
@given(linear_division(), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_divide_exact_linear(field, case, k):
    nvars, i, j, coeffs, rest = case
    q = MPoly(nvars, {e: field.of(c) for e, c in coeffs.items()}, field)
    p = MPoly(nvars, q.terms, field)
    p.mul_linear(i, j)  # (x_i - x_j) * q
    assert p.divide_exact_linear(i, j) == q
    # a remainder free of x_i does not vanish at x_i = x_j
    with pytest.raises(DenominatorNotCancelled):
        (p + MPoly.monomial(nvars, rest, field.of(k), field)).divide_exact_linear(i, j)
    # an unreduced remainder k*PRIME is zero in the prime field only
    p.terms[rest] = p.terms.get(rest, 0) + k * PRIME
    if field is GFP:
        assert p.divide_exact_linear(i, j) == q
    else:
        with pytest.raises(DenominatorNotCancelled):
            p.divide_exact_linear(i, j)


def test_assoc_failure_names_trial_shape_and_exponents(iparams, monkeypatch):
    k = Kernel.c3(iparams)
    assert check_assoc(k, trials=5).detail == ""
    raw = shuffle.shuffle_mul

    def flipped(f, g, kernel):
        # wrong sign on a 3|1 split only: (f*g)*h flips, f*(g*h) does not
        prod = raw(f, g, kernel)
        return prod * -1 if f.v == 3 and g.v == 1 else prod

    monkeypatch.setattr(shuffle, "shuffle_mul", flipped)
    r = check_assoc(k, trials=5)
    assert r.status == "fail"
    # trials 0-3 have shape (1,1,1); trial 4 is the first four-variable one
    assert re.fullmatch(
        r"trial 4, \(v1,v2,v3\)=\(2,1,1\), exponents f=\(\d, \d\) g=\(\d,\) h=\(\d,\)", r.detail
    ), r.detail


def test_a1_anticomm_failure_names_instance(monkeypatch):
    assert check_a1_anticomm().detail == ""
    raw = shuffle.shuffle_mul

    def flipped(f, g, kernel):
        # wrong sign whenever the left exponent is the larger one
        prod = raw(f, g, kernel)
        return prod * -1 if max(f.poly.terms) > max(g.poly.terms) else prod

    monkeypatch.setattr(shuffle, "shuffle_mul", flipped)
    r = check_a1_anticomm()
    assert r.status == "fail"
    # x^0 * x^0 = 0, so the first failing instance is (0, 1)
    assert r.detail == "(r1,r2)=(0, 1)"
