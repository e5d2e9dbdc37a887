from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    PoleAtPoint,
    _product_coeffs,
    div,
    eval_form,
    eval_reduced,
    exponent_of,
    first_resonance,
    mul,
    partial_fraction_residue,
    residue_at,
    sympy_residue,
)
from yangianpp import LinForm, Params, Resonance
from yangianpp.errors import RetrySpecialization
from yangianpp.exact import FIELDS, GFP, PRIME, QQ, _check_generic, rational_str


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_identity():
    assert eval_form(LinForm(1, [(F(0), 1)]), F(5)) == 5


def test_eval_simple_pole_factor():
    assert eval_form(LinForm(2, [(F(1), -1)]), F(3)) == 1


def test_eval_at_pole_raises():
    with pytest.raises(PoleAtPoint):
        eval_form(LinForm(1, [(F(1), -1)]), F(1))


def test_eval_reduced_drops_vanishing_factors():
    f = LinForm(1, [(F(1), -1), (F(2), 1)])
    assert eval_reduced(f, F(1)) == -1  # pole factor dropped, (z-2) at 1 remains
    assert eval_reduced(f, F(3)) == eval_form(f, F(3))


# ---------------------------------------------------------------------------
# residues at finite points
# ---------------------------------------------------------------------------


def test_residue_simple():
    assert residue_at(LinForm(1, [(F(0), -1)]), F(0), 0) == 1


def test_residue_partial_fractions():
    f = LinForm(1, [(F(1), -1), (F(3), -1)])
    assert residue_at(f, F(1), 0) == F(-1, 2)


def test_residue_double_pole():
    # z / ((z-1)(z-2)^2): coefficient of 1/(z-2) is -1 (partial fractions)
    f = LinForm(1, [(F(0), 1), (F(2), -2), (F(1), -1)])
    assert residue_at(f, F(2), 0) == -1
    assert residue_at(f, F(2), 0) == sympy_residue(f, F(2), 0)
    assert residue_at(f, F(2), 0) == partial_fraction_residue(f, F(2))


def test_residues_match_partial_fraction_solve():
    forms = [
        LinForm(F(5, 3), [(F(1, 2), -3), (F(2), -1), (F(-1), 2)]),
        LinForm(F(-2), [(F(0), -2), (F(3, 4), -2), (F(1), 1)]),
    ]
    for f in forms:
        for a in f.poles():
            assert residue_at(f, a) == partial_fraction_residue(f, a)


def test_residue_not_a_pole_is_zero():
    f = LinForm(1, [(F(2), 1)])
    assert residue_at(f, F(2), 0) == 0
    assert residue_at(f, F(5), 3) == 0


@pytest.mark.parametrize("power", [0, 1, 2, 3])
def test_residue_matches_sympy_on_mixed_form(power):
    f = LinForm(F(3, 7), [(F(1, 2), -2), (F(-1), -1), (F(4), 1)])
    for a in (F(1, 2), F(-1)):
        assert residue_at(f, a, power) == sympy_residue(f, a, power)


# ---------------------------------------------------------------------------
# residue at infinity and expansions
# ---------------------------------------------------------------------------


def test_residue_at_infinity_simple():
    assert LinForm(1, [(F(5), -1)]).residue_at_infinity(0) == -1


def test_residue_at_infinity_polynomial():
    assert LinForm(1, [(F(0), 1)]).residue_at_infinity(0) == 0


def test_residue_at_infinity_balances_finite_residues():
    f = LinForm(1, [(F(1), -1), (F(2), -1), (F(-1), 1)])
    assert f.residue_at_infinity(0) == -1
    total = residue_at(f, F(1)) + residue_at(f, F(2)) + f.residue_at_infinity()
    assert total == 0


def tail(form, K):
    """Coefficients of z^-1 .. z^-K in the expansion of form at infinity."""
    return [-form.residue_at_infinity(j) for j in range(K)]


def laurent(form, a, K, offset=0):
    """Coefficients of (z-a)^-offset .. (z-a)^(K-1-offset) of form around a."""
    return [residue_at(mul(form, LinForm(1, [(a, offset - j - 1)])), a) for j in range(K)]


def test_expand_geometric():
    chi = F(7)
    assert tail(LinForm(1, [(chi, -1)]), 3) == [1, chi, chi**2]


def test_expand_polynomial_has_no_tail():
    assert tail(LinForm(1, [(F(0), 2)]), 2) == [0, 0]


def test_expand_product_of_two_geometrics():
    f = LinForm(1, [(F(1), -1), (F(2), -1)])
    assert tail(f, 3) == [0, 1, 3]


def test_expand_finite_center_regular():
    f = LinForm(1, [(F(1), -1)])
    assert laurent(f, F(0), 3) == [-1, -1, -1]  # 1/(z-1) = -1 - z - z^2 - ...
    # the same Taylor coefficients through a negative power at the center 0
    assert [residue_at(f, F(0), -j - 1) for j in range(3)] == [-1, -1, -1]


def test_expand_finite_center_pole_requires_offset():
    f = LinForm(1, [(F(0), -2)])
    assert laurent(f, F(0), 3) == [0, 0, 0]  # no regular part
    assert laurent(f, F(0), 3, offset=2) == [1, 0, 0]
    assert [residue_at(f, F(0), 1 - j) for j in range(3)] == [1, 0, 0]


def test_product_coeffs_convolution():
    a = _product_coeffs(F(1), [(F(1), -2)], 2, QQ)  # (1 - w)^-2
    b = _product_coeffs(F(1), [(F(1), 1)], 2, QQ)  # 1 - w
    assert a == [1, 2, 3] and b == [1, -1, 0]
    assert _product_coeffs(F(1), [(F(1), -1)], 2, QQ) == [1, 1, 1]  # a * b
    assert _product_coeffs(F(1), [(F(1), -1), (F(1), 1)], 2, QQ) == [1, 0, 0]  # b^-1 * b


# ---------------------------------------------------------------------------
# invariants on random forms
# ---------------------------------------------------------------------------

small_rationals = st.builds(
    F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=4)
)


@st.composite
def lin_forms(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    roots = draw(
        st.lists(small_rationals, min_size=n, max_size=n, unique=True)
    )
    exps = draw(
        st.lists(st.integers(min_value=-3, max_value=3).filter(bool), min_size=n, max_size=n)
    )
    const = draw(small_rationals.filter(bool))
    return LinForm(const, list(zip(roots, exps)))


@given(lin_forms(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_residue_theorem_random(form, k):
    total = form.residue_at_infinity(k)
    for a in form.poles():
        total += residue_at(form, a, k)
    assert total == 0


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@given(lin_forms(), st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_batched_residues_at_infinity(mode, form, nmax):
    """One series serves every power; a power whose index degree + p + 1 is
    negative gives 0, and the finite residues balance each value."""
    field = FIELDS[mode]
    form = LinForm(field.of(form.const), [(field.of(r), e) for r, e in form.factors], field)
    batch = form.residues_at_infinity(range(nmax + 1))
    assert batch == [form.residue_at_infinity(p) for p in range(nmax + 1)]
    for p, value in enumerate(batch):
        assert type(value) is type(form.const)
        assert value == field.reduce(-sum(residue_at(form, a, p) for a in form.poles()))
        if form.degree() + p + 1 < 0:
            assert value == 0


def test_batched_residues_at_infinity_negative_degree():
    # z^p / (z - 1)^3: the z^-1 coefficient is 0, 0, then 1, 3, 6
    assert LinForm(F(1), [(F(1), -3)]).residues_at_infinity(range(5)) == [0, 0, -1, -3, -6]


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@given(lin_forms(), st.lists(st.integers(min_value=-6, max_value=6), max_size=6))
@example(LinForm(F(5, 3), [(F(1, 2), -3), (F(-2, 3), 3), (F(3, 4), -1)]), [-4, 2, 0, 5])
@example(LinForm(F(-7, 2), [(F(1, 3), 2)]), [])
@settings(max_examples=80, deadline=None)
def test_integer_series_equals_newton_oracle(mode, form, powers):
    """The fraction-free series over the roots' common denominator gives
    Newton's residues at infinity, in any order of powers, 0 where the
    index degree + p + 1 is negative and nothing for no powers."""
    field = FIELDS[mode]
    form = LinForm(field.of(form.const), [(field.of(r), e) for r, e in form.factors], field)
    ks = [form.degree() + p + 1 for p in powers]
    series = _product_coeffs(form.const, form.factors, max(ks, default=0), field)
    expected = [field.reduce(-series[k]) if k >= 0 else field.zero for k in ks]
    got = form.residues_at_infinity(powers)
    assert got == expected and all(type(v) is type(field.one) for v in got)


@given(lin_forms())
@settings(max_examples=40, deadline=None)
def test_simple_pole_residue_equals_reduced_eval(form):
    for a, e in form.factors:
        if e == -1 and exponent_of(form, a) == -1:
            expected = eval_reduced(div(form, LinForm(1, [(a, -1)])), a)
            # only valid when no other factor vanishes at a (true by distinctness)
            assert residue_at(form, a) == expected


def test_simple_pole_residue_cross_check_200_forms():
    import random

    rng = random.Random(99)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        roots = []
        while len(roots) < n:
            r = F(rng.randint(-9, 9), rng.randint(1, 5))
            if r not in roots:
                roots.append(r)
        exps = [rng.choice([-2, -1, -1, 1, 2]) for _ in range(n)]
        form = LinForm(F(rng.randint(1, 9)), list(zip(roots, exps)))
        for a, e in form.factors:
            if e == -1:
                deleted = div(form, LinForm(1, [(a, -1)]))
                assert residue_at(form, a) == eval_reduced(deleted, a)
        checked += 1


def convolve(a, b):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


@given(lin_forms(), lin_forms())
@settings(max_examples=40, deadline=None)
def test_expand_multiplicative(f, g):
    K = 6
    fg = mul(f, g)
    # const * prod (1 - r*w)^e is multiplicative, whatever the degrees
    assert _product_coeffs(fg.const, fg.factors, K, QQ) == convolve(
        _product_coeffs(f.const, f.factors, K, QQ), _product_coeffs(g.const, g.factors, K, QQ)
    )
    # tails at infinity multiply as series in 1/z when both degrees are negative
    if f.degree() < 0 and g.degree() < 0:
        assert tail(fg, K) == [0] + convolve(tail(f, K), tail(g, K))[: K - 1]


@pytest.mark.parametrize("power", [-1, 0, 1, 2, 4])
def test_integer_forms_give_exact_residues(power):
    exact_types = (int, F)
    int_form = LinForm(3, [(1, -2), (2, -1), (-1, 3), (4, -3)])
    frac_form = LinForm(F(3), [(F(r), e) for r, e in int_form.factors])
    for a in (1, 2, 4, 5):
        value = residue_at(int_form, a, power)
        assert isinstance(value, exact_types) and value == residue_at(frac_form, F(a), power)
    value = int_form.residue_at_infinity(power)
    assert isinstance(value, exact_types) and value == frac_form.residue_at_infinity(power)
    constant = LinForm(5)
    for value in (residue_at(constant, 0, power), constant.residue_at_infinity(power)):
        assert isinstance(value, exact_types)
    assert constant.residue_at_infinity(power) == (-5 if power == -1 else 0)


# ---------------------------------------------------------------------------
# prime-field mode
# ---------------------------------------------------------------------------


def test_prime_field_arithmetic_and_inversion():
    a, b = GFP.of(10), GFP.of(4)
    assert GFP.reduce(a + b) == 14 and GFP.reduce(a * b) == 40
    assert GFP.reduce(a - b * 3) == PRIME - 2
    assert GFP.reduce(a * GFP.inv(b) * b) == a
    assert GFP.of(F(1, 3)) == GFP.inv(3) and GFP.reduce(GFP.of(F(1, 3)) * 3) == 1
    assert GFP.power(3, -2) == GFP.inv(9) and GFP.power(3, 0) == 1
    for x in (a, b, GFP.inv(b), GFP.of(F(-7, 5)), GFP.power(b, -3)):
        assert type(x) is int and 0 <= x < PRIME
    for zero in (0, PRIME, -PRIME):
        with pytest.raises(RetrySpecialization):
            GFP.inv(zero)
    with pytest.raises(RetrySpecialization):
        GFP.power(0, -1)


@pytest.mark.parametrize("rational", [F(1, PRIME), F(3, 2 * PRIME), "5/" + str(PRIME)])
def test_prime_field_refuses_denominator_divisible_by_prime(rational):
    with pytest.raises(RetrySpecialization):
        GFP.of(rational)


def test_mode_reduction_commutes_with_residues():
    roots = [F(1, 2), F(-3), F(5)]
    f_q = LinForm(F(2, 3), [(roots[0], -2), (roots[1], -1), (roots[2], 1)])
    f_p = LinForm(GFP.of(F(2, 3)), [(GFP.of(r), e) for (r, e) in zip(roots, (-2, -1, 1))], GFP)
    for r_q, e in f_q.factors:
        if e < 0:
            lhs = GFP.of(residue_at(f_q, r_q, 2))
            rhs = residue_at(f_p, GFP.of(r_q), 2)
            assert lhs == rhs
    assert GFP.of(f_q.residue_at_infinity(1)) == f_p.residue_at_infinity(1)


def test_prime_is_large():
    assert PRIME > 2**60


@given(lin_forms(), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_prime_field_agrees_on_random_forms(form, k):
    reduce = GFP.of
    form_p = LinForm(reduce(form.const), [(reduce(r), e) for r, e in form.factors], GFP)
    assert reduce(form.residue_at_infinity(k)) == form_p.residue_at_infinity(k)
    for a in form.poles():
        assert reduce(residue_at(form, a, k)) == residue_at(form_p, reduce(a), k)


factor_lists = st.lists(
    st.tuples(
        st.sampled_from([F(-2), F(0), F(1, 3), F(5, 2), F(7)]),
        st.integers(min_value=-2, max_value=2),
    ),
    max_size=8,
)


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@given(a=factor_lists, b=factor_lists, const=small_rationals.filter(bool))
@settings(max_examples=60, deadline=None)
def test_one_factor_list_equals_product(mode, a, b, const):
    """One list merges like a product: repeated roots add their exponents,
    cancelled roots vanish, the rest come sorted and distinct."""
    b = b + [(r, -e) for r, e in a[: len(a) // 2]]  # cancel part of a
    field = FIELDS[mode]
    in_mode = lambda fs: [(field.of(r), e) for r, e in fs]
    c, both = field.of(const), in_mode(a + b)
    whole = LinForm(c, both, field)
    assert whole == mul(LinForm(c, in_mode(a), field), LinForm(field.one, in_mode(b), field))
    for r, _ in both:
        assert exponent_of(whole, r) == sum(e for r2, e in both if r2 == r)
    factors = list(whole.factors)
    assert factors == sorted(factors, key=lambda f: field.split(f[0]))
    assert len({r for r, _ in factors}) == len(factors)
    assert all(e != 0 for _, e in whole.factors)


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def test_params_cy_constraint(params):
    assert params.h1 + params.h2 + params.h3 == 0
    assert params.t + params.q + params.h == 0


@given(small_rationals, small_rationals, st.integers(min_value=-1, max_value=64))
@settings(max_examples=150, deadline=None)
def test_genericity_gate_matches_scan(h1, h2, bound):
    try:
        _check_generic(h1, h2, bound)
        message = None
    except Resonance as exc:
        message = str(exc)
    assert message == first_resonance(h1, h2, bound)


def test_params_resonance_rejected():
    with pytest.raises(Resonance):
        Params.make(F(1), F(-1), F(0))  # h3 = 0
    with pytest.raises(Resonance):
        Params.make(F(2), F(3), F(0))  # 3*h1 - 2*h2 = 0


def test_rational_serialization_roundtrip():
    x = F(-22, 7)
    assert QQ.str(x) == rational_str(x) == "-22/7"
    assert QQ.of(rational_str(x)) == x
    r = GFP.of(x)
    assert GFP.str(r) == rational_str(r) == str(r) and GFP.of(GFP.str(r)) == r


def test_linform_refuses_mixed_fields(params_fp):
    """A rational form times or over a prime-field h_rat (c3, N=2) is an
    error, not a rational form holding a residue."""
    from yangianpp import Geometry, Representation

    rep = Representation(Geometry("c3", params_fp, 2))
    h = rep.h_rat(rep.basis.level(1)[0])
    rational = LinForm(1, [(params_fp.chi, -1)])
    for combine in (lambda: mul(rational, h), lambda: div(rational, h), lambda: mul(h, rational), lambda: div(h, rational)):
        with pytest.raises(ValueError, match="^rational and prime-field scalars do not mix$|"
                           "^prime-field and rational scalars do not mix$"):
            combine()
    assert mul(LinForm(1, [(params_fp.chi, -1)], GFP), h).field is GFP
