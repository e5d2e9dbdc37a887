import json
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_in_field,
    box_local_factor,
    div,
    ef_letters,
    eval_form,
    eval_reduced,
    exponent_of,
    integrand_e,
    lowering_form,
    mul,
    residue_at,
    steps_scan,
    stone_product,
    transitions_oracle,
)
from yangianpp import Geometry, LinForm, Params, Representation, Resonance, detect_shift, run_suite
from yangianpp import partitions3d as p3
from yangianpp import pyramid as pyr
from yangianpp.cli import main
from yangianpp.exact import FIELDS, GFP, QQ, random_params
from yangianpp.partitions3d import Partition3D, box_weight
from yangianpp.pyramid import PyramidPartition, Stone
from yangianpp.relations import OperatorSet, apply_table, ef_terms
from yangianpp.shuffle import Kernel, SymPoly, shuffle_mul
from yangianpp.reps import SparseOperator, dump_operators, h_rat


@pytest.fixture
def c3(params):
    return Geometry("c3", params, 5)


@pytest.fixture
def coni2(params):
    return Geometry("conifold", params, 3, m=2, sector=1)


EMPTY = Partition3D()
ONE = Partition3D([(0, 0, 0)])
TWO = Partition3D([(0, 0, 0), (1, 0, 0)])


# ---------------------------------------------------------------------------
# integrands and diagonal series
# ---------------------------------------------------------------------------


def test_integrand_e_vacuum(c3, params):
    assert integrand_e(EMPTY, c3) == LinForm(1, [(params.chi, -1)])


def test_integrand_e_one_box_cancels_zero(c3, params):
    chi, hb = params.chi, params.hbars
    expect = LinForm(1, [(chi + h, -1) for h in hb])
    assert integrand_e(ONE, c3) == expect


def test_integrand_e_conifold_one_black(coni2, params):
    chi, t = params.chi, params.t
    b00 = PyramidPartition(2, [Stone("B", 0, 0, 0)])
    # -(z-chi)/(z-chi-t) * 1/((z-chi)(z-chi-t)) merged
    expect = LinForm(-1, [(chi + t, -2)])
    assert integrand_e(b00, coni2) == expect


def test_h_rat_c3_examples(c3, params):
    chi, hb = params.chi, params.hbars
    assert h_rat(EMPTY, c3) == LinForm(1, [(chi, -1)])
    expect = mul(LinForm(1, [(chi, -1)]), LinForm(
        1, [(chi - h, 1) for h in hb] + [(chi + h, -1) for h in hb]
    ))
    assert h_rat(ONE, c3) == expect


def test_h_rat_conifold_m1(params):
    g = Geometry("conifold", params, 1, m=1, sector=0)
    chi, t, q, h = params.chi, params.t, params.q, params.h
    assert h_rat(PyramidPartition(1), g) == LinForm(1, [(chi + t, 1)])
    g1 = Geometry("conifold", params, 1, m=1, sector=1)
    one = PyramidPartition(1, [Stone("B", 0, 0, 0)])
    expect = LinForm(-1, [(chi, 1), (chi - q, 1), (chi - h, 1)])
    assert h_rat(one, g1) == expect


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@pytest.mark.parametrize(
    "kind,level,m,sector",
    [("c3", 5, 0, 0), ("c3", 6, 0, 0), ("conifold", 3, 2, 1)]
    + [("conifold", 5, m, s) for m in (3, 4, 5) for s in (1, 2)],
)
def test_h_rat_equals_raising_times_lowering(kind, level, m, sector, mode):
    """h_rat, read off the atoms, is the raising integrand times the
    lowering factor, both stated independently in the oracles."""
    params = Params.make(F(101, 13), F(47, 7), F(7), mode=mode)
    rep = Representation(Geometry(kind, params, level, m=m, sector=sector))
    g = rep.geometry
    for _, lab in rep.basis:
        assert mul(integrand_e(lab, g), lowering_form(lab, g)) == rep.h_rat(lab)


@pytest.mark.parametrize("kind,level,m,sector", [("c3", 6, 0, 0), ("conifold", 5, 5, 2)])
def test_prime_h_is_the_rational_h_reduced(kind, level, m, sector):
    """On every label, the prime h_rat's factors are the rational ones
    reduced, in the prime field's order, and each prime residue at
    infinity is the rational one reduced: the two fields' merging and
    series cannot drift apart."""
    geoms = [Geometry(kind, random_params(2024, mode), level, m=m, sector=sector)
             for mode in ("rational", "prime-field")]
    (h_q, h_p), powers = [Representation(g).h_rat for g in geoms], range(-2, 7)
    for _, lab in Representation(geoms[0]).basis:
        q, p = h_q(lab), h_p(lab)
        assert p.const == GFP.of(q.const)
        assert list(p.factors) == sorted((GFP.of(r), e) for r, e in q.factors)
        assert p.residues_at_infinity(powers) == [GFP.of(v) for v in q.residues_at_infinity(powers)]


def test_psi_eigenvalue(c3, params):
    assert stone_product(EMPTY, c3) == LinForm(1)
    assert stone_product(ONE, c3) == box_local_factor(params.chi, params)
    x2 = box_weight((1, 0, 0), params)
    assert stone_product(TWO, c3) == mul(box_local_factor(params.chi, params), box_local_factor(x2, params))


def test_psi_recursion_direction(c3, params):
    # adding a box multiplies the eigenvalue by the local factor at its weight
    for lam in (EMPTY, ONE, TWO):
        for _, x, b in c3.steps([lam], None)[0]:
            bigger = Partition3D(lam.boxes + (b,))
            assert stone_product(bigger, c3) == mul(stone_product(lam, c3), box_local_factor(x, params))


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
def test_geometries_read_the_kernel(mode):
    """C3's stone product is the product over boxes of the kernel's ratio
    form, and every step's reduced lowering value is that of the product
    over boxes of the kernel's fac form (c3, N <= 6); each completed
    conifold pair multiplies the stone product by the kernel's ratio form;
    and the ratio form is fac(z|x)/fac(x|z) pointwise."""
    params = random_params(2024, mode=mode)
    field = params.field
    one = LinForm(1, (), field)
    c3 = Geometry("c3", params, 6)
    kernel = c3.kernel
    assert kernel == Kernel.c3(params)
    labels = [lab for level in c3.basis() for lab in level]
    assert len(labels) == 96
    for lab in labels:
        ratio = reduce(mul, (LinForm(*kernel.ratio(box_weight(b, params)), field) for b in lab), one)
        assert stone_product(lab, c3) == ratio
    rep = Representation(c3)
    for n in range(rep.basis.top_level):
        for si, _, x, _, fhat in rep.transitions(n):
            lab = rep.basis.level(n)[si]
            fac = reduce(mul, (LinForm(1, kernel.fac(box_weight(b, params)), field) for b in lab), one)
            assert fhat == eval_reduced(fac, x)
    for x in {box_weight(b, params) for lab in labels for b in lab}:
        z = field.reduce(x + field.of(F(7, 3)))
        fac_zx = eval_form(LinForm(1, kernel.fac(x), field), z)
        fac_xz = eval_form(LinForm(1, kernel.fac(z), field), x)
        assert eval_form(LinForm(*kernel.ratio(x), field), z) == field.reduce(fac_zx * field.inv(fac_xz))
    for m, sector in [(3, 1), (3, 2), (4, 1), (4, 2)]:
        rep = Representation(Geometry("conifold", params, 4, m=m, sector=sector))
        g = rep.geometry
        pairs = 0
        for n in range(rep.basis.top_level):
            for si, ti, x, _, _ in rep.transitions(n):
                src, tgt = rep.basis.level(n)[si], rep.basis.level(n + 1)[ti]
                assert stone_product(tgt, g) == mul(stone_product(src, g), LinForm(*g.kernel.ratio(x), field))
                pairs += 1
        assert pairs > 0


# ---------------------------------------------------------------------------
# matrix coefficients
# ---------------------------------------------------------------------------


def oracle_split(label, x, geometry):
    """(rho, fhat) by definition: the residue at x of integrand_e times the
    lowering factor, and the reduced evaluation of that factor at x."""
    low = lowering_form(label, geometry)
    return residue_at(mul(integrand_e(label, geometry), low), x), eval_reduced(low, x)


def matcoef_e(label, x, i, geometry):
    """<label| e_i |label + (box/pair at weight x)>, read from the split.

    Equals Res_{z=x} z^i * integrand_e wherever that naive reading is
    nondegenerate; defined through the balanced residue split in general.
    """
    rho, fhat = oracle_split(label, x, geometry)
    return x**i * rho / fhat


def matcoef_f(label, x, j, geometry):
    """<label + (box/pair at weight x)| f_j |label>, read from the split.

    Equals z^j * lowering_form evaluated at x wherever no factor vanishes;
    the reduced evaluation keeps it finite and nonzero in general.
    """
    _, fhat = oracle_split(label, x, geometry)
    return x**j * fhat


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@pytest.mark.parametrize(
    "kind,m,sector,steps",
    [("c3", 0, 0, 82), ("conifold", 2, 1, 1), ("conifold", 2, 2, 0), ("conifold", 3, 1, 3),
     ("conifold", 3, 2, 6)],
)
def test_transitions_match_oracle_split(kind, m, sector, steps, mode):
    params = Params.make(F(101, 13), F(47, 7), F(7), mode=mode)
    rep = Representation(Geometry(kind, params, 5 if kind == "c3" else 3, m=m, sector=sector))
    count = 0
    for n in range(rep.basis.top_level):
        for si, ti, x, rho, fhat in rep.transitions(n):
            lab = rep.basis.level(n)[si]
            assert set(lab) < set(rep.basis.level(n + 1)[ti])
            assert (rho, fhat) == oracle_split(lab, x, rep.geometry)
            count += 1
    assert count == steps


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@pytest.mark.parametrize("seed", [2024000, 7411000])
@pytest.mark.parametrize(
    "kind,level,m,sector,steps",
    [("c3", 8, 0, 0, 818)] + [("conifold", 5, m, s, n) for (m, s), n in
                              zip([(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)], [3, 6, 6, 30, 10, 82])],
)
def test_transitions_equal_the_whole_form_oracle(kind, level, m, sector, steps, seed, mode):
    """The step constants read from per-displacement values are the
    residues and reduced evaluations of whole forms, tuple for tuple and
    scalar type for scalar type."""
    rep = Representation(Geometry(kind, random_params(seed, mode=mode), level, m=m, sector=sector))
    count = 0
    for n in range(rep.basis.top_level):
        got, want = rep.transitions(n), transitions_oracle(rep, n)
        assert got == want
        assert [type(v) for t in got for v in t] == [type(v) for t in want for v in t]
        count += len(got)
    assert count == steps


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@pytest.mark.parametrize(
    "kind,level,m,sector",
    [("c3", 8, 0, 0)] + [("conifold", 5, m, s) for m, s in [(3, 1), (3, 2), (4, 2), (5, 2)]],
)
def test_steps_are_the_scans(kind, level, m, sector, mode):
    """On every label of every level, the top's included, the basis's steps
    are the definitional scans: the addible boxes (pairs) in order, at their
    weights and lattice vectors, each target the index in the next level of
    the label built afresh with the atom, and None at the top."""
    rep = Representation(Geometry(kind, random_params(2024, mode=mode), level, m=m, sector=sector))
    g, basis = rep.geometry, rep.basis
    for n, labels in enumerate(basis.levels):
        above = basis.level(n + 1) if n < basis.top_level else None
        assert basis.steps(n) == [steps_scan(g, lab, above) for lab in labels], n
    assert any(any(basis.steps(n)) for n in range(basis.top_level + 1))


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@pytest.mark.parametrize("kind,level,m,sector,n", [("c3", 2, 0, 0, 1), ("conifold", 4, 4, 2, 2)])
def test_steps_sharing_a_weight_raise_resonance(kind, level, m, sector, n, mode):
    """With h1 = h2 (t = q), ungated: (1, 0, 0) and (0, 1, 0) weigh the same
    over the one-box label, and two pairs over a sector-2 pyramid of length 4
    do too, so the transitions from that label's level are refused."""
    field = FIELDS[mode]
    params = Params(*map(field.of, (1, 1, -2, 7)), field)
    rep = Representation(Geometry(kind, params, level, m=m, sector=sector))
    assert rep.transitions(n - 1)
    if kind == "c3":
        msg = "addible boxes of Partition3D([(0, 0, 0)]) share a weight"
    else:
        msg = ("addible pairs of PyramidPartition(m=4, stones=[Stone(color='B', k=0, a=0, c=0), "
               "Stone(color='B', k=0, a=0, c=1), Stone(color='B', k=0, a=0, c=2), "
               "Stone(color='W', k=1, a=0, c=1), Stone(color='W', k=1, a=0, c=2), "
               "Stone(color='B', k=1, a=1, c=1)]) share a weight")
    with pytest.raises(Resonance) as exc:
        rep.transitions(n)
    assert str(exc.value) == msg


def test_steps_are_built_once_per_level(monkeypatch, tmp_path):
    """The relation suite asks the geometry for each level's steps once, the
    top's included (pole support reads it); rep build asks for every level
    but the top, once each."""
    asked = []
    for cls in (p3.C3, pyr.Conifold):
        monkeypatch.setattr(cls, "steps", lambda self, level, above, steps=cls.steps:
                            asked.append((level, above)) or steps(self, level, above))
    cases = [("c3", 5, 0, 0), ("conifold", 4, 4, 2)]
    for kind, level, m, sector in cases:
        asked.clear()
        run_suite(Geometry(kind, random_params(2024), level, m=m, sector=sector))
        assert len({id(lv) for lv, _ in asked}) == len(asked) == level + 1
        assert [above is None for _, above in asked].count(True) == 1
    for kind, level, m, sector in cases:
        asked.clear()
        geometry = f"{kind}:{m}" if m else kind
        argv = ["rep", "build", "--geometry", geometry, "--level", str(level), "--sector", str(sector),
                "--imax", "1", "--out", str(tmp_path / "ops.json")]
        assert main(argv) == 0
        assert len({id(lv) for lv, _ in asked}) == len(asked) == level
        assert all(above is not None for _, above in asked)


def _zero_moved(kernel, x):
    """The ratio form with its zero at x - h1 moved to x + h1."""
    ws = kernel.numerator_weights
    return 1, [(x + ws[0], 1)] + [(x - w, 1) for w in ws[1:]] + [(x + w, -1) for w in ws]


def _h1_flipped(kernel, x):
    """The ratio form of the weights (-h1, h2, h3), fac left alone."""
    ws = (-kernel.numerator_weights[0],) + kernel.numerator_weights[1:]
    return 1, [(x - w, 1) for w in ws] + [(x + w, -1) for w in ws]


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@pytest.mark.parametrize("ratio,order", [(_zero_moved, 2), (_h1_flipped, 3)])
def test_pole_of_higher_order_raises_resonance(monkeypatch, mode, ratio, order):
    """A ratio form broken on one side leaves a pole of order 2 or 3 at the
    weight chi - h1 of the step to (0, 1, 1) over (0, 0, 0), (0, 0, 1) and
    (0, 1, 0), and that step is refused with the pole's order, as by the
    whole-form oracle.  Levels below it have no such step."""
    params = Params.make(F(101, 13), F(47, 7), F(7), mode=mode)
    monkeypatch.setattr(Kernel, "ratio", ratio)
    rep = Representation(Geometry("c3", params, 4))
    assert rep.transitions(2)
    x = params.field.str(box_weight((0, 1, 1), params))
    msg = f"diagonal integrand has a pole of order {order} at {x}$"
    with pytest.raises(Resonance, match=msg):
        rep.transitions(3)
    with pytest.raises(Resonance, match=msg):
        transitions_oracle(rep, 3)


def test_matcoef_e_vacuum(c3, params):
    chi = params.chi
    for i in range(4):
        assert matcoef_e(EMPTY, chi, i, c3) == chi**i


def test_matcoef_e_one_box(c3, params):
    h1, h2, h3 = params.hbars
    x = params.chi + h1
    assert matcoef_e(ONE, x, 0, c3) == 1 / ((h1 - h2) * (h1 - h3))


def test_matcoef_f_examples(c3, params):
    chi = params.chi
    assert matcoef_f(EMPTY, chi, 0, c3) == 1
    h1, h2, h3 = params.hbars
    assert matcoef_f(ONE, chi + h1, 0, c3) == 2 * h2 * h3


def test_matcoef_matches_naive_residue_when_nondegenerate(c3, params):
    for lam in (EMPTY, ONE, TWO):
        E = integrand_e(lam, c3)
        Fm = lowering_form(lam, c3)
        for _, x, _ in c3.steps([lam], None)[0]:
            if exponent_of(E, x) == -1 and eval_form(Fm, x) != 0:
                for i in range(3):
                    assert matcoef_e(lam, x, i, c3) == residue_at(E, x, i)
                    assert matcoef_f(lam, x, i, c3) == x**i * eval_form(Fm, x)


def test_balanced_split_at_weight_collision(c3, params):
    """At the first CY-forced collision the raising integrand has a double
    pole and the naive lowering evaluation vanishes, but the balanced split
    keeps e * f equal to the residue of the diagonal integrand."""
    lam = Partition3D([(0, 0, 0), (0, 0, 1), (0, 1, 0)])
    b = (0, 1, 1)
    x = box_weight(b, params)  # equals chi - h1
    assert x == params.chi - params.h1
    E = integrand_e(lam, c3)
    assert exponent_of(E, x) == -2
    assert eval_form(lowering_form(lam, c3), x) == 0
    rho, fhat = oracle_split(lam, x, c3)
    assert fhat != 0
    h_int = mul(E, lowering_form(lam, c3))
    assert exponent_of(h_int, x) == -1
    for i in range(2):
        for j in range(2):
            prod = matcoef_e(lam, x, i, c3) * matcoef_f(lam, x, j, c3)
            assert prod == residue_at(h_int, x, i + j)


def test_conifold_degenerate_vacuum_transition(coni2, params):
    chi, t, q, h = params.chi, params.t, params.q, params.h
    b00 = PyramidPartition(2, [Stone("B", 0, 0, 0)])
    x = chi + t
    # balanced values, derived by hand from the residue split
    assert matcoef_e(b00, x, 0, coni2) == -1
    for j in range(3):
        assert matcoef_f(b00, x, j, coni2) == x**j * t**2 * q * h


# ---------------------------------------------------------------------------
# operators, bases, shift
# ---------------------------------------------------------------------------


def test_basis_levels_c3(c3):
    rep = Representation(c3)
    assert [len(L) for L in rep.basis.levels] == [1, 1, 3, 6, 13, 24]


def test_basis_levels_conifold_sector1(coni2):
    rep = Representation(coni2)
    assert [len(L) for L in rep.basis.levels] == [2, 1, 0, 0]


def test_no_level_below_the_vacuum():
    """A negative level is refused by name, not read from the top by list
    indexing; so are the transitions from it, and from the top level, whose
    targets would lie above the basis."""
    rep = Representation(Geometry("c3", Params.make(F(101, 13), F(47, 7), F(7)), 3))
    for read in (rep.basis.level, rep.basis.steps, rep.transitions):
        with pytest.raises(ValueError, match="level must be nonnegative, got -1"):
            read(-1)
    assert rep.transitions(0) and rep.basis.level(3)
    for n in (3, 4):
        with pytest.raises(ValueError, match=f"no raising step from the top level 3, got {n}"):
            rep.transitions(n)
    assert rep.transitions(2)


def test_operator_grading(c3):
    rep = Representation(c3)
    e0 = rep.build_e(0)
    f0 = rep.build_f(0)
    assert e0.shift == 1 and f0.shift == -1
    assert set(e0.blocks) <= set(range(0, 5))
    assert set(f0.blocks) <= set(range(1, 6))


def test_ef_vacuum_commutator(c3):
    rep = Representation(c3)
    [vacuum] = apply_table(ef_terms(0, 0), ef_letters(OperatorSet(rep)), rep, [0])[0]
    assert vacuum == {0: -1}  # [e_0, f_0] acts by -1 on the vacuum


def test_conifold_m1_operators_vanish(params):
    g = Geometry("conifold", params, 2, m=1, sector=1)
    rep = Representation(g)
    assert rep.build_e(0).blocks == {}
    assert rep.build_f(0).blocks == {}


def test_detect_shift_c3(c3, params):
    rep = Representation(c3)
    assert detect_shift(rep) == (-1, params.chi)


@pytest.mark.parametrize("m,sector", [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2)])
def test_detect_shift_conifold(params, m, sector):
    g = Geometry("conifold", params, 2, m=m, sector=sector)
    rep = Representation(g)
    assert detect_shift(rep) == (+1, params.chi + m * params.t)


@pytest.mark.parametrize("kind,m", [("conifold", 2), ("c3", 0)])
def test_stone_product_divides_h_exactly(params, kind, m):
    """h_rat over the stone product is one signed linear factor, and
    detect_shift, which reads the head atoms alone, finds that factor."""
    rep = Representation(Geometry(kind, params, 3, m=m, sector=1))
    l, z1 = detect_shift(rep)
    for _, lab in rep.basis:
        resid = div(rep.h_rat(lab), stone_product(lab, rep.geometry))
        assert len(resid.factors) == 1 and abs(resid.factors[0][1]) == 1
        assert resid.const in (1, -1) and resid.factors == ((z1, l),)


def test_operator_json_roundtrip(c3):
    rep = Representation(c3)
    op = rep.build_e(1)
    assert SparseOperator.from_json(op.to_json(), QQ).to_json() == op.to_json()


def _first_e0_entry_halved(ops):
    """The first e_0 entry written as two halves: the same sum, one key twice."""
    entries = ops["e"]["0"]["levels"][0]["entries"]
    i, j, v = entries[0]
    half = F(v) / 2
    entries[:1] = [[i, j, f"{half.numerator}/{half.denominator}"]] * 2


def _e0_level_split(ops):
    """The first e_0 level of two or more entries written as two levels of one n."""
    levels = ops["e"]["0"]["levels"]
    k = next(k for k, lev in enumerate(levels) if len(lev["entries"]) > 1)
    n, entries = levels[k]["n"], levels[k]["entries"]
    levels[k:k + 1] = [{"n": n, "entries": entries[:1]}, {"n": n, "entries": entries[1:]}]


def _e0_first(ops):
    """e_0's first level and that level's first entry, [0, 0, "1/1"]."""
    level = ops["e"]["0"]["levels"][0]
    return level, level["entries"][0]


#: (id, edit of a c3 N=3 file's operators): e_0 written otherwise than
#: to_json writes it, though it reads as the same operator
E0_REWRITES = [
    ("key-repeated", _first_e0_entry_halved),
    ("level-repeated", _e0_level_split),
    ("zero-entry-out-of-range", lambda ops: ops["e"]["0"]["levels"][0]["entries"].append([5, 0, "0/1"])),
    ("shift-float", lambda ops: ops["e"]["0"].update(shift=1.5)),
    ("shift-string", lambda ops: ops["e"]["0"].update(shift="1")),
    ("index-float", lambda ops: _e0_first(ops)[1].__setitem__(0, 0.0)),
    ("index-bool", lambda ops: _e0_first(ops)[1].__setitem__(1, False)),
    ("level-float", lambda ops: _e0_first(ops)[0].update(n=0.0)),
    ("entry-float", lambda ops: _e0_first(ops)[1].__setitem__(2, 1.0)),
    ("entry-not-canonical", lambda ops: _e0_first(ops)[1].__setitem__(2, "2/2")),
]


@pytest.mark.parametrize("edit", [edit for _, edit in E0_REWRITES], ids=[name for name, _ in E0_REWRITES])
def test_from_json_refuses_what_to_json_never_writes(params, edit):
    """from_json reads only what to_json writes: each rewrite of e_0 raises."""
    ops = json.loads(dump_operators(Representation(Geometry("c3", params, 3)), 1))["operators"]
    edit(ops)
    with pytest.raises((TypeError, ValueError)):
        SparseOperator.from_json(ops["e"]["0"], QQ)


def test_operator_dump_deterministic(params):
    g = Geometry("c3", params, 3)
    assert dump_operators(Representation(g), 1) == dump_operators(Representation(g), 1)


def test_prime_field_mode_builds_same_support(params, params_fp):
    g_q = Geometry("c3", params, 3)
    g_p = Geometry("c3", params_fp, 3)
    e_q = Representation(g_q).build_e(0)
    e_p = Representation(g_p).build_e(0)
    support_q = {(n, k) for n, blk in e_q.blocks.items() for k in blk}
    support_p = {(n, k) for n, blk in e_p.blocks.items() for k in blk}
    assert support_q == support_p


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@pytest.mark.parametrize(
    "kind,m,sector,level",
    [("c3", 0, 0, 5), ("conifold", 2, 1, 4), ("conifold", 2, 2, 4), ("conifold", 3, 1, 4),
     ("conifold", 3, 2, 4)],
)
def test_no_foreign_scalar_types(kind, m, sector, level, mode):
    """Every transition scalar, every e/f entry and every h_rat constant and
    root is a scalar of the mode's field: a Fraction in the rationals, a
    reduced int in the prime field (no int for the c3 vacuum's rho and fhat,
    no float).  So is every coefficient of a c3 shuffle product."""
    params = Params.make(F(101, 13), F(47, 7), F(7), mode=mode)
    field = FIELDS[mode]
    rep = Representation(Geometry(kind, params, level, m=m, sector=sector))
    scalars = []
    for n in range(rep.basis.top_level):
        for si, ti, x, rho, fhat in rep.transitions(n):
            scalars += [x, rho, fhat]
    for op in (rep.build_e(0), rep.build_e(2), rep.build_f(0), rep.build_f(2)):
        scalars += [v for blk in op.blocks.values() for v in blk.values()]
    for _, lab in rep.basis:
        h = rep.h_rat(lab)
        scalars += [h.const] + [r for r, _ in h.factors]
    if kind == "c3":
        kernel = Kernel.c3(params)
        for a, b in ((0, 0), (1, 2), (2, 1)):
            prod = shuffle_mul(SymPoly.power(a, field=field), SymPoly.power(b, field=field), kernel)
            scalars += list(prod.poly.terms.values())
    assert scalars
    for v in scalars:
        assert_in_field(v, field)


# ---------------------------------------------------------------------------
# sparse kernel against a dict-of-dicts reference
# ---------------------------------------------------------------------------

kernel_values = st.sampled_from([F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)])
kernel_entries = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), kernel_values),
    max_size=10,
)


def reference(entries, field):
    """Block -> {(tgt, src): sum}, zero sums and empty blocks dropped."""
    ref = {}
    for n, i, j, v in entries:
        blk = ref.setdefault(n, {})
        blk[(i, j)] = field.reduce(blk.get((i, j), 0) + v)
    ref = {n: {k: v for k, v in blk.items() if v != 0} for n, blk in ref.items()}
    return {n: blk for n, blk in ref.items() if blk}


def built(shift, entries, field):
    """The operator summing entries, add_entry by add_entry."""
    op = SparseOperator(shift, field=field)
    for n, i, j, v in entries:
        op.add_entry(n, i, j, v)
    return op


def stored(op, field):
    """op's nonempty blocks, after asserting no zero and no foreign scalar
    is stored."""
    out = {}
    for n, blk in op.blocks.items():
        for (i, j), v in blk.items():
            assert v != 0
            assert_in_field(v, field)
            out.setdefault(n, {})[(i, j)] = v
    return out


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@given(a=kernel_entries, b=kernel_entries, cancel=st.integers(0, 10))
@settings(max_examples=80, deadline=None)
def test_sparse_kernel_matches_reference(mode, a, b, cancel):
    """add_entry and compose equal the Fraction reference entry by entry."""
    field = FIELDS[mode]
    in_mode = lambda es: [(n, i, j, field.of(v)) for n, i, j, v in es]
    a = in_mode(a + [(n, i, j, -v) for n, i, j, v in a[:cancel]])  # sums that cancel
    b = in_mode(b)
    assert stored(built(+1, a, field), field) == reference(a, field)

    # a after b, for a of shift +1 and b of shift -1: sum over the middle index
    prod = built(+1, a, field).compose(built(-1, b, field))
    want = [
        (n, i, k, av * bv)
        for n, j, k, bv in b
        for m, i, j2, av in a
        if m == n - 1 and j2 == j
    ]
    assert prod.shift == 0
    assert stored(prod, field) == reference(want, field)


def test_compose_cancellation_leaves_no_entry():
    a = built(+1, [(0, 0, 0, F(1)), (0, 0, 1, F(1))], QQ)
    b = built(0, [(0, 0, 0, F(2)), (0, 1, 0, F(-2)), (0, 1, 1, F(3))], QQ)
    assert stored(a.compose(b), QQ) == {0: {(0, 1): F(3)}}


def test_operators_over_different_fields_do_not_mix(params_fp):
    """A prime-field operator combined with a rational one (the default
    field) is an error, not a sum left unreduced mod PRIME."""
    e0 = Representation(Geometry("c3", params_fp, 3)).build_e(0)
    with pytest.raises(ValueError, match="rational and prime-field"):
        built(-1, [(1, 0, 0, F(1))], QQ).compose(e0)
