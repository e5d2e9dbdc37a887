from fractions import Fraction as F

import itertools
import json

import pytest

from oracles import (
    assert_in_field,
    ef_bracket,
    ef_letters,
    evaluate,
    flipped_param,
    operator_sum,
    power_form_scalars,
    psi_e_worst,
    psi_scalars,
    reference_statuses,
    removable_boxes,
    removable_pairs_scan,
    stone_weight,
    verdicts,
)
from yangianpp import Geometry, LinForm, Params, Representation, cli
from yangianpp import relations, reps
from yangianpp.exact import random_params
from yangianpp.relations import (
    OperatorSet,
    apply_table,
    check_ee,
    check_ef_diag,
    check_ef_matches_h,
    check_ff,
    check_pole_support,
    check_psi_e_compat,
    check_serre_e,
    check_serre_f,
    check_shift,
    ef_terms,
    full_suite,
    quad_terms,
    run_suite,
    serre_terms,
)
from yangianpp.partitions3d import box_weight
from yangianpp.reps import SparseOperator


@pytest.fixture(scope="module")
def c3_ops():
    from yangianpp import Params

    params = Params.make(F(101, 13), F(47, 7), F(7))
    return OperatorSet(Representation(Geometry("c3", params, 5)))


@pytest.fixture(scope="module")
def coni_ops():
    from yangianpp import Params

    params = Params.make(F(101, 13), F(47, 7), F(7))
    return OperatorSet(Representation(Geometry("conifold", params, 3, m=3, sector=1)))


def test_c3_ef_diag(c3_ops):
    r = check_ef_diag(c3_ops, 2)
    assert r.status == "pass" and r.domain > 0


def test_c3_ef_matches_h(c3_ops):
    r = check_ef_matches_h(c3_ops, 3)
    assert r.status == "pass" and "eps=+1" in r.detail


def test_c3_ef_matches_h_convention_flip(c3_ops, monkeypatch):
    """The opposite residue-at-infinity convention flips eps globally."""
    raw = LinForm.residues_at_infinity
    monkeypatch.setattr(LinForm, "residues_at_infinity", lambda self, powers: [-r for r in raw(self, powers)])
    r = check_ef_matches_h(c3_ops, 2)
    assert r.status == "pass" and "eps=-1" in r.detail


def test_c3_ee_ff(c3_ops):
    assert check_ee(c3_ops, 2).status == "pass"
    assert check_ff(c3_ops, 2).status == "pass"


def test_c3_serre(c3_ops):
    assert check_serre_e(c3_ops, 1).status == "pass"
    assert check_serre_f(c3_ops, 1).status == "pass"


def test_c3_psi_compat_and_poles(c3_ops):
    assert check_psi_e_compat(c3_ops, 2).status == "pass"
    assert check_pole_support(c3_ops.rep).status == "pass"


def test_c3_shift(c3_ops):
    params = c3_ops.rep.geometry.params
    r = check_shift(c3_ops.rep, expect=(-1, params.chi))
    assert r.status == "pass"


def test_conifold_suite(coni_ops):
    assert check_ef_diag(coni_ops, 2).status == "pass"
    assert check_ef_matches_h(coni_ops, 3).status == "pass"
    assert check_ee(coni_ops, 2).status == "pass"
    assert check_ff(coni_ops, 2).status == "pass"
    assert check_psi_e_compat(coni_ops, 2).status == "pass"
    assert check_pole_support(coni_ops.rep).status == "pass"


def test_conifold_serre_statuses(coni_ops, params):
    # with the full sector in view the triple raise is genuinely zero (the
    # sector has no level-3 states at all), so the check passes honestly
    assert check_serre_e(coni_ops, 1).status == "pass"
    # a truncation that cuts the triple raise must report an empty domain
    shallow = OperatorSet(Representation(Geometry("conifold", params, 2, m=3, sector=1)))
    r = check_serre_e(shallow, 1)
    assert r.status == "empty-domain" and r.domain == 0


def test_c3_deeper_truncation_with_more_collisions(params):
    # level 6 sees many equal-weight box configurations; the balanced split
    # must keep the commutator exactly diagonal through all of them
    ops = OperatorSet(Representation(Geometry("c3", params, 6)))
    assert check_ef_diag(ops, 1).status == "pass"
    assert check_ef_matches_h(ops, 2).status == "pass"


def test_conifold_serre_nontrivial_in_sector_two(params):
    # sector 2 of the m=3 room has a four-level ladder, so the triple-Serre
    # relations run with genuine content there
    ops = OperatorSet(Representation(Geometry("conifold", params, 3, m=3, sector=2)))
    for chk in (check_serre_e, check_serre_f):
        r = chk(ops, 1)
        assert r.status == "pass" and r.domain > 0


def test_wrong_sigma2_sign_fails(c3_ops):
    """Negative control: the quadratic relation with the opposite sigma2 sign
    must not hold (this pins the convention); read by the matrix route."""
    p = c3_ops.rep.geometry.params
    combo = evaluate(quad_terms(0, 0, -p.sigma2, p.sigma3), c3_ops.e)  # flips to +sigma2
    levels = range(0, c3_ops.top - 1)
    assert any(combo.blocks.get(n) for n in levels)


def test_wrong_sigma3_sign_fails(c3_ops):
    p = c3_ops.rep.geometry.params
    combo = evaluate(quad_terms(0, 0, p.sigma2, -p.sigma3), c3_ops.e)
    levels = range(0, c3_ops.top - 1)
    assert any(combo.blocks.get(n) for n in levels)


class _BumpedE0(OperatorSet):
    """e_0 with its first level-1 entry raised by 1; every other generator as built."""

    def e(self, i):
        op = super().e(i)
        if i != 0:
            return op
        bumped = SparseOperator(op.shift, {n: dict(b) for n, b in op.blocks.items()}, op.field)
        bumped.add_entry(1, *min(bumped.blocks[1]), 1)
        return bumped


def test_failing_ee_detail_names_instance_and_level(c3_ops):
    r = check_ee(_BumpedE0(c3_ops.rep), 1)
    assert r.status == "fail" and r.discrepancy != "0"
    assert r.detail.startswith("(m,n)=(0,")
    assert ", level " in r.detail and "Partition3D" in r.detail and " -> " in r.detail


def _bump_last(op, n):
    """A copy of op with its last level-n entry raised by 1."""
    bumped = SparseOperator(op.shift, {k: dict(b) for k, b in op.blocks.items()}, op.field)
    bumped.add_entry(n, *max(bumped.blocks[n]), 1)
    return bumped


class _BumpedE0Level2(OperatorSet):
    """e_0 with its last level-2 entry raised by 1: level 2 lies inside the
    checked window of ee-quadratic, serre-e and ef-diagonal at N=5."""

    def e(self, i):
        op = super().e(i)
        return _bump_last(op, 2) if i == 0 else op


class _BumpedF0Level3(OperatorSet):
    """f_0 with its last level-3 entry raised by 1: level 3 lies inside the
    checked window of ff-quadratic, serre-f and ef-diagonal at N=5."""

    def f(self, j):
        op = super().f(j)
        return _bump_last(op, 3) if j == 0 else op


@pytest.fixture(scope="module")
def c3_ops_by_mode(c3_ops):
    from yangianpp import Params

    params = Params.make(F(101, 13), F(47, 7), F(7), mode="prime-field")
    return {"rational": c3_ops, "prime-field": OperatorSet(Representation(Geometry("c3", params, 5)))}


BUMPED_LEVEL2 = {  # relation -> (check, discrepancy, detail) as first reported
    "ee-quadratic": (
        check_ee,
        "114563/9720",
        "(m,n)=(0,0), level 1, entry (5,0): Partition3D([(0, 0, 0)]) -> "
        "Partition3D([(0, 0, 0), (1, 0, 0), (2, 0, 0)])",
    ),
    "serre-e": (
        check_serre_e,
        "-186641/32400",
        "(i1,i2,i3)=(0,0,0), level 0, entry (5,0): Partition3D([]) -> "
        "Partition3D([(0, 0, 0), (1, 0, 0), (2, 0, 0)])",
    ),
    "ef-diagonal": (
        check_ef_diag,
        "8449915844312/217997325",
        "[e_0,f_0] off the diagonal, level 3, entry (5,2): Partition3D([(0, 0, 0), "
        "(0, 0, 1), (1, 0, 0)]) -> Partition3D([(0, 0, 0), (1, 0, 0), (2, 0, 0)])",
    ),
}


BUMPED_F0_LEVEL3 = {  # relation -> (check, discrepancy, detail) as first reported
    "ff-quadratic": (
        check_ff,
        "283868783920/5274997",
        "(m,n)=(0,0), level 3, entry (0,5): Partition3D([(0, 0, 0), (1, 0, 0), (2, 0, 0)]) -> "
        "Partition3D([(0, 0, 0)])",
    ),
    "serre-f": (
        check_serre_f,
        "217802136/8281",
        "(i1,i2,i3)=(0,0,0), level 3, entry (0,5): Partition3D([(0, 0, 0), (1, 0, 0), "
        "(2, 0, 0)]) -> Partition3D([])",
    ),
    "ef-diagonal": (
        check_ef_diag,
        "9796423/1403071174608",
        "[e_0,f_0] off the diagonal, level 3, entry (2,5): Partition3D([(0, 0, 0), (1, 0, 0), "
        "(2, 0, 0)]) -> Partition3D([(0, 0, 0), (0, 0, 1), (1, 0, 0)])",
    ),
}

#: The same failures in the prime field: the bumped entry and every
#: discrepancy are residues mod PRIME, the failing cell is the same.
BUMPED_PRIME_DISCREPANCY = {
    ("e", "ee-quadratic"): "129762975930029908",
    ("e", "serre-e"): "1209215387949070177",
    ("e", "ef-diagonal"): "758753700869830926",
    ("f", "ff-quadratic"): "752254717008785841",
    ("f", "serre-f"): "555785852721984172",
    ("f", "ef-diagonal"): "675220133410887276",
}

BUMPED = {"e": (_BumpedE0Level2, BUMPED_LEVEL2), "f": (_BumpedF0Level3, BUMPED_F0_LEVEL3)}


@pytest.mark.parametrize("relation", sorted(BUMPED_LEVEL2))
def test_bumped_e0_inside_window_fails_with_same_detail(c3_ops, relation):
    check, discrepancy, detail = BUMPED_LEVEL2[relation]
    r = check(_BumpedE0Level2(c3_ops.rep), 1)
    assert (r.relation, r.status, r.discrepancy, r.detail) == (
        relation, "fail", discrepancy, detail
    )


@pytest.mark.parametrize("mode,family,relation", [
    (mode, family, relation)
    for mode in ("rational", "prime-field")
    for family, relation in sorted(BUMPED_PRIME_DISCREPANCY)
    if (mode, family) != ("rational", "e")  # the test above
])
def test_bumped_generator_fails_with_pinned_report(c3_ops_by_mode, mode, family, relation):
    """f_0 bumped in both fields, and e_0 bumped in the prime field, fail
    with the pinned (status, discrepancy, detail)."""
    bump, pins = BUMPED[family]
    check, discrepancy, detail = pins[relation]
    if mode == "prime-field":
        discrepancy = BUMPED_PRIME_DISCREPANCY[family, relation]
    r = check(bump(c3_ops_by_mode[mode].rep), 1)
    assert (r.relation, r.status, r.discrepancy, r.detail) == (
        relation, "fail", discrepancy, detail
    )


def test_suite_builds_h_rat_once_per_label(monkeypatch):
    built = []
    build = reps.h_rat
    monkeypatch.setattr(reps, "h_rat", lambda label, *a, **k: built.append(label) or build(label, *a, **k))
    geometry = Geometry("c3", random_params(2024, mode="prime-field"), 6)
    reports, shift = run_suite(geometry, imax=2)
    assert all(r.passed for r in reports) and shift is not None
    assert len(built) == len(set(built)) <= 96


class _ShiftedF1(OperatorSet):
    """f_1 replaced by f_1 + f_0: [e_i, f_j] stays diagonal, but its
    eigenvalues no longer depend on i + j alone."""

    def f(self, j):
        op = super().f(j)
        return operator_sum([(1, op), (1, super().f(0))]) if j == 1 else op


def test_ef_diag_detail_names_level_and_state(c3_ops):
    r = check_ef_diag(_BumpedE0(c3_ops.rep), 1)
    assert r.status == "fail"
    assert r.detail.startswith("[e_0,f_") and ", level " in r.detail
    r = check_ef_diag(_ShiftedF1(c3_ops.rep), 1)
    assert r.status == "fail" and r.discrepancy != "0"
    assert r.detail == "f_1 != x^1 f_0, level 1, entry (0,0): Partition3D([(0, 0, 0)]) -> Partition3D([])"


MODES = ("rational", "prime-field")


@pytest.mark.parametrize("mode", MODES)
def test_shifted_f1_fails_serre_f_through_the_power_form_guard(c3_ops_by_mode, mode):
    """f_1 + f_0 passes Serre's generating instance, which reads f_0 and f_1
    alone, but it is not x f_0 on the steps, so the guard fails it."""
    r = check_serre_f(_ShiftedF1(c3_ops_by_mode[mode].rep), 1)
    assert r.status == "fail" and r.discrepancy != "0"
    assert r.detail.startswith("f_1 != x^1 f_0, level 1, entry (0,0): Partition3D([(0, 0, 0)])")


class _BumpedE4Level4(OperatorSet):
    """e_4 with its last level-4 entry raised by 1.  Only non-generating
    quadratic instances read e_4, and at N=5 a checked path reaches level 4
    only on its second step."""

    def e(self, i):
        op = super().e(i)
        return _bump_last(op, 4) if i == 4 else op


class _BumpedF2Level1(OperatorSet):
    """f_2 with its last level-1 entry raised by 1.  Only non-generating
    Serre instances read f_2, and a checked path reaches level 1 only on
    its third step."""

    def f(self, j):
        op = super().f(j)
        return _bump_last(op, 1) if j == 2 else op


class _BumpedE1Level4(OperatorSet):
    """e_1 with its last level-4 entry raised by 1.  [e_0, f_0] never reads
    e_1, and of the checked levels only level 4 raises from level 4."""

    def e(self, i):
        op = super().e(i)
        return _bump_last(op, 4) if i == 1 else op


class _BumpedF1Level5(OperatorSet):
    """f_1 with its last level-5 entry raised by 1.  [e_0, f_0] never reads
    f_1, and of the checked levels only level 4 lowers from level 5."""

    def f(self, j):
        op = super().f(j)
        return _bump_last(op, 5) if j == 1 else op


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bump,check,prefix", [
    (_BumpedE4Level4, check_ee, "e_4 != x^4 e_0, level 4, entry "),
    (_BumpedF2Level1, check_serre_f, "f_2 != x^2 f_0, level 1, entry "),
    (_BumpedE1Level4, check_ef_diag, "e_1 != x^1 e_0, level 4, entry "),
    (_BumpedF1Level5, check_ef_diag, "f_1 != x^1 f_0, level 5, entry "),
])
def test_power_form_guard_fails_a_letter_only_other_instances_read(c3_ops_by_mode, mode, bump, check, prefix):
    """The generating instance never reads the bumped letter; the guard
    names it, its level and the labels, and the matrix route fails too."""
    ops = bump(c3_ops_by_mode[mode].rep)
    r = check(ops, 1)
    assert r.status == "fail" and r.discrepancy != "0"
    assert r.detail.startswith(prefix) and " -> Partition3D(" in r.detail
    assert reference_statuses(ops, 1, 2)[r.relation] == "fail"


class _RationalE0(OperatorSet):
    """e_0 relabelled as a rational operator, whatever the representation's field."""

    def e(self, i):
        op = super().e(i)
        return SparseOperator(op.shift, op.blocks) if i == 0 else op


def test_generators_of_another_field_are_refused(c3_ops_by_mode):
    ops = _RationalE0(c3_ops_by_mode["prime-field"].rep)
    for check in (check_ee, check_serre_e, check_ef_diag, check_ef_matches_h, check_psi_e_compat):
        with pytest.raises(ValueError, match="do not mix"):
            check(ops, 1)


def _statuses(ops, imax, nmax):
    checks = (check_ef_diag, check_ee, check_ff, check_serre_e, check_serre_f)
    reports = [chk(ops, imax) for chk in checks] + [check_ef_matches_h(ops, nmax)]
    return {r.relation: r.status for r in reports}


AGREEMENT_CASES = [("c3", level, 0, 0) for level in range(1, 6)] + [
    ("conifold", level, m, sector) for level, m, sector in ((3, 3, 1), (2, 3, 1), (3, 3, 2), (2, 2, 1))
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind,level,m,sector", AGREEMENT_CASES)
def test_statuses_agree_with_matrix_route(mode, kind, level, m, sector):
    params = Params.make(F(101, 13), F(47, 7), F(7), mode=mode)
    ops = OperatorSet(Representation(Geometry(kind, params, level, m=m, sector=sector)))
    assert _statuses(ops, 2, 3) == reference_statuses(ops, 2, 3)


class _NegatedF(OperatorSet):
    """Every f_j with its entries from source level 3 up negated.  [e_0, f_0]
    keeps its eigenvalues up to level 1 and negates them on level 3, so the
    vacuum and a level-3 state demand opposite signs eps of ef-matches-h."""

    def f(self, j):
        op = super().f(j)
        blocks = {n: {k: op.field.reduce(-v) if n >= 3 else v for k, v in b.items()} for n, b in op.blocks.items()}
        return SparseOperator(op.shift, blocks, op.field)


@pytest.mark.parametrize("mode", MODES)
def test_sign_conflict_fails_a_named_cell(c3_ops_by_mode, mode):
    """A real sign conflict: eps = +1 is read off the vacuum, a level-3 state
    demands -1, and the first cell off eps = +1 fails with its level and labels."""
    ops = _NegatedF(c3_ops_by_mode[mode].rep)
    rep, field = ops.rep, ops.rep.geometry.params.field
    vecs = apply_table(ef_terms(0, 0), ef_letters(ops), rep, [0, 3])

    def sides(n, k):  # (eigenvalue of [e_0, f_0], Res_inf h) on state k of level n
        return vecs[n][k].get(k, 0), rep.h_rat(rep.basis.level(n)[k]).residue_at_infinity(0)

    lhs, rhs = sides(0, 0)
    assert lhs == rhs != 0
    assert any(a == field.reduce(-b) != 0 for a, b in (sides(3, k) for k in range(len(vecs[3]))))
    r = check_ef_matches_h(ops, 2)
    assert (r.relation, r.status) == ("ef-matches-h", "fail")
    assert r.detail == (
        "[e_0,f_0], level 2, entry (0,0): Partition3D([(0, 0, 0), (0, 0, 1)]) -> "
        "Partition3D([(0, 0, 0), (0, 0, 1)])"
    )
    assert r.discrepancy == {"rational": "9540358/3906225", "prime-field": "1892569545064910705"}[mode]


def test_sign_conflict_fails_rep_check(monkeypatch, capsys):
    """The conflict reaches `rep check` as a failing ef-matches-h report, exit 1."""
    monkeypatch.setattr(relations, "OperatorSet", _NegatedF)
    argv = ["rep", "check", "--level", "5", "--imax", "1", "--specializations", "1", "--relations", "ef"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    (report,) = [r for r in json.loads(out)["relations"] if r["id"] == "ef-matches-h"]
    assert report["status"] == "fail" and report["detail"].startswith("[e_0,f_0], level 2, entry ")
    assert "FAILED: ef-diagonal, ef-matches-h" in err


CONTROLS = [_BumpedE0, _BumpedE0Level2, _BumpedF0Level3, _BumpedE4Level4, _BumpedF2Level1, _ShiftedF1, _NegatedF]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("control", CONTROLS)
def test_control_statuses_agree_with_matrix_route(c3_ops_by_mode, mode, control):
    ops = control(c3_ops_by_mode[mode].rep)
    got = _statuses(ops, 1, 2)
    assert got == reference_statuses(ops, 1, 2) and "fail" in got.values()


def _diagonal(op):
    """{(level, state index): entry} of the diagonal of a shift-0 operator."""
    return {(n, s): v for n, blk in op.blocks.items() for (t, s), v in blk.items() if t == s}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", ["c3", (4, 2)])
def test_psi_is_the_diagonal_of_the_bracket(coni_ops_by_case, mode, case):
    """psi_k, k = 0..5, is the diagonal of [e_0, f_k] by the matrix route on
    every level, the top level's truncated one included: c3 N=6 and
    conifold (4, 2) N=5."""
    if case == "c3":
        ops = OperatorSet(Representation(Geometry("c3", Params.make(F(101, 13), F(47, 7), F(7), mode=mode), 6)))
    else:
        ops = coni_ops_by_case[(*case, mode)]
    field = ops.rep.geometry.params.field
    for k in range(6):
        psi = ops.psi(k)
        assert psi == _diagonal(ef_bracket(ops, 0, k)) and psi, k
        assert ops.psi(k) is psi
        for v in psi.values():
            assert_in_field(v, field)


class _OffStepEF(OperatorSet):
    """e_0 and every f_k with one entry added on no step, at the first
    (level 3, level 2) pair of states that no step joins, transposed for f."""

    def _key(self):
        blk = super().e(0).blocks[2]
        sizes = [len(self.rep.basis.level(n)) for n in (2, 3)]
        return min((t, s) for t in range(sizes[1]) for s in range(sizes[0]) if (t, s) not in blk)

    def e(self, i):
        op = super().e(i)
        if i != 0:
            return op
        out = SparseOperator(op.shift, {n: dict(b) for n, b in op.blocks.items()}, op.field)
        out.add_entry(2, *self._key(), 1)
        return out

    def f(self, j):
        op = super().f(j)
        out = SparseOperator(op.shift, {n: dict(b) for n, b in op.blocks.items()}, op.field)
        out.add_entry(3, *self._key()[::-1], 1)
        return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("control", CONTROLS + [_OffStepEF])
def test_psi_of_a_control_is_the_diagonal_of_its_bracket(c3_ops_by_mode, mode, control):
    """The same on each control, whose generators it reads through e and f,
    and on an e_0 and f_k with an entry on no step."""
    ops = control(c3_ops_by_mode[mode].rep)
    for k in range(6):
        assert ops.psi(k) == _diagonal(ef_bracket(ops, 0, k)), k


SCALAR_CASES = ["c3 N=6", (4, 2), (5, 2)] + CONTROLS + [_BumpedE1Level4, _BumpedF1Level5, _OffStepEF]


def _worst(v):
    """A (discrepancy, where) pair or None, with the discrepancy's type."""
    return v and (v, type(v[0]))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", SCALAR_CASES, ids=lambda c: getattr(c, "__name__", str(c)))
def test_cleared_integers_equal_the_scalar_route(c3_ops_by_mode, monkeypatch, mode, case):
    """psi, the power-form guard and psi-e-compat's R_m compare cleared
    integers; the oracles build every value as a field scalar.  The psi
    values, the guard's (discrepancy, where) and each check's reported one
    agree with them, scalar types included, on c3 N=6 at the seed-2024
    draw, conifold (4, 2) and (5, 2) at N=5, and on every control."""
    if case == "c3 N=6":
        ops = OperatorSet(Representation(Geometry("c3", random_params(2024, mode=mode), 6)))
    elif isinstance(case, tuple):
        params = Params.make(F(101, 13), F(47, 7), F(7), mode=mode)
        ops = OperatorSet(Representation(Geometry("conifold", params, 5, m=case[0], sector=case[1])))
    else:
        ops = case(c3_ops_by_mode[mode].rep)
    for k in range(6):
        got, want = ops.psi(k), psi_scalars(ops, k)
        assert got == want and {key: type(v) for key, v in got.items()} == {key: type(v) for key, v in want.items()}
    for family, levels in (("e", range(0, ops.top)), ("f", range(1, ops.top + 1))):
        for letters in (range(6), range(2, 5)):
            args = (ops.rep, family, getattr(ops, family), levels, letters)
            assert _worst(relations._power_form(*args)) == _worst(power_form_scalars(*args))
    reported, report = [], relations._report
    monkeypatch.setattr(relations, "_report", lambda *a, **k: reported.append(_worst(a[3])) or report(*a, **k))
    checks = (check_ef_diag, check_ee, check_ff, check_serre_e, check_serre_f)
    for check in checks:
        check(ops, 1)
    check_psi_e_compat(ops, 2)
    monkeypatch.setattr(relations, "_power_form", power_form_scalars)
    for check in checks:
        check(ops, 1)
    assert reported[:len(checks)] == reported[len(checks) + 1:]
    assert reported[len(checks)] == _worst(psi_e_worst(ops, 2))


@pytest.mark.parametrize("kind,level,m,sector", [("c3", 8, 0, 0)] + [
    ("conifold", 5, m, sector) for m in (3, 4, 5) for sector in (1, 2)
])
def test_removals_are_the_moves_into_a_label(kind, level, m, sector):
    """The removals pole-support reads, the basis's steps into each label,
    are the oracle's removal rule on every label of the basis: each
    removable box at its box weight on c3, each removable pair at its
    black's weight on the conifold, with the atom's lattice vector."""
    params = Params.make(F(101, 13), F(47, 7), F(7))
    g = Geometry(kind, params, level, m=m, sector=sector)
    basis = Representation(g).basis
    into = {}
    for n in range(basis.top_level):
        for steps in basis.steps(n):
            for t, x, v in steps:
                into.setdefault((n + 1, t), []).append((x, v))
    for n, lab in basis:
        if kind == "c3":
            want = [(box_weight(b, params), b) for b in removable_boxes(lab)]
        else:
            blacks = [p.black for p in removable_pairs_scan(lab, g.erc)]
            want = [(stone_weight(b, params), (b.c, b.a, b.k - b.a)) for b in blacks]
        assert sorted(into.get((n, basis.level(n).index(lab)), [])) == sorted(want), lab
    assert into


@pytest.fixture(scope="module")
def c3_ops_seed2024():
    """c3 N=5 at the seed-2024 draw: a fractional sigma2, and block
    denominators that differ by generator and level (1 to 216 digits)."""
    return {mode: OperatorSet(Representation(Geometry("c3", random_params(2024, mode=mode), 5))) for mode in MODES}


COLUMN_CASES = [  # (operator set fixture, family, table of the params)
    ("c3_ops_by_mode", "e", lambda p: quad_terms(1, 0, 2, 3)),
    ("c3_ops_by_mode", "f", lambda p: quad_terms(0, 1, 2, -3)),
    ("c3_ops_by_mode", "e", lambda p: serre_terms(0, 0, 1)),
    ("c3_ops_by_mode", "f", lambda p: serre_terms(1, 0, 0)),
    ("c3_ops_by_mode", "ef", lambda p: ef_terms(1, 2)),
    ("c3_ops_seed2024", "e", lambda p: quad_terms(0, 0, p.sigma2, p.sigma3)),  # every cell cancels
    ("c3_ops_seed2024", "f", lambda p: quad_terms(1, 0, p.sigma2, -p.sigma3)),
    ("c3_ops_seed2024", "e", lambda p: quad_terms(0, 1, p.sigma2, 2 * p.sigma3)),  # all but sigma3's words cancel
    ("c3_ops_seed2024", "f", lambda p: quad_terms(0, 0, 2 * p.sigma2, -p.sigma3)),
    ("c3_ops_seed2024", "e", lambda p: serre_terms(0, 1, 1)),
    ("c3_ops_seed2024", "ef", lambda p: ef_terms(0, 0) + [(p.sigma2, (("e", 1), ("f", 0)))]),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("draw,family,table", COLUMN_CASES)
def test_tables_applied_per_source_are_the_operator_columns(request, mode, draw, family, table):
    """apply_table, on int numerators, equals the matrix route's columns,
    also for tables with a fractional sigma2 and cancelling words over
    generators whose block denominators differ; every value it returns is
    a scalar of the field."""
    ops = request.getfixturevalue(draw)[mode]
    field = ops.rep.geometry.params.field
    table = table(ops.rep.geometry.params)
    get = ef_letters(ops) if family == "ef" else getattr(ops, family)
    levels = range(0, ops.top + 1)
    matrix = evaluate(table, get)
    vecs = apply_table(table, get, ops.rep, levels)
    for n in levels:
        for s, vec in enumerate(vecs[n]):
            assert vec == {t: v for (t, src), v in matrix.blocks.get(n, {}).items() if src == s}
            for v in vec.values():
                assert_in_field(v, field)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("flip", [(-1, 1), (1, -1)])
def test_wrong_sigma_signs_fail_the_quadratic_checks(c3_ops_by_mode, monkeypatch, mode, flip):
    """The sigma2 and sigma3 flips of the matrix-route controls above,
    through check_ee and check_ff."""
    quad = relations.quad_terms
    monkeypatch.setattr(relations, "quad_terms", lambda m, n, s2, s3: quad(m, n, flip[0] * s2, flip[1] * s3))
    ops = c3_ops_by_mode[mode]
    assert check_ee(ops, 1).status == "fail"
    assert check_ff(ops, 1).status == "fail"


@pytest.fixture(scope="module")
def coni_ops_by_case():
    """Conifold operator sets at N=5, keyed (m, sector, mode)."""
    return {
        (m, sector, mode): OperatorSet(Representation(Geometry(
            "conifold", Params.make(F(101, 13), F(47, 7), F(7), mode=mode), 5, m=m, sector=sector
        )))
        for m, sector in ((3, 1), (4, 2)) for mode in MODES
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", ["c3", (4, 2)])
def test_psi_e_compat_reads_the_operators(c3_ops_by_mode, coni_ops_by_case, monkeypatch, mode, case):
    """psi-e-compat passes on c3 N=5 (domain 34: the steps from levels 0-3,
    below the top level) and on conifold (4, 2) N=5, and the sigma2 and
    sigma3 flips fail psi-e-compat itself, with no h_rat read."""
    ops = c3_ops_by_mode[mode] if case == "c3" else coni_ops_by_case[(*case, mode)]
    r = check_psi_e_compat(ops, 2)
    assert r.status == "pass" and r.domain == sum(len(ops.rep.transitions(n)) for n in range(ops.top - 1))
    if case == "c3":
        assert r.domain == 34 and ops.top == 5
    monkeypatch.setattr(Representation, "h_rat", None)
    for name in ("sigma2", "sigma3"):
        with monkeypatch.context() as m:
            m.setattr(Params, name, flipped_param(name))
            flipped = check_psi_e_compat(ops, 2)
        assert (flipped.status, flipped.domain) == ("fail", r.domain), name
        assert flipped.detail.startswith("(m,n)=(") and ", level 0, entry " in flipped.detail


@pytest.mark.parametrize("mode", MODES)
def test_bumped_e0_fails_psi_e_compat(c3_ops_by_mode, coni_ops_by_case, mode):
    """A bumped e_0 entry fails the relation on c3 N=5, naming the step's
    labels; on conifold (3, 1) N=5 every R_m still vanishes, and the
    power-form guard catches it."""
    r = check_psi_e_compat(_BumpedE0(c3_ops_by_mode[mode].rep), 2)
    assert (r.relation, r.status) == ("psi-e-compat", "fail") and r.discrepancy != "0"
    assert r.detail == (
        "(m,n)=(0,0), level 1, entry (1,0): Partition3D([(0, 0, 0)]) -> Partition3D([(0, 0, 0), (0, 1, 0)])"
    )
    r = check_psi_e_compat(_BumpedE0(coni_ops_by_case[3, 1, mode].rep), 2)
    assert r.status == "fail" and r.detail.startswith("e_1 != x^1 e_0, level 1, entry (0,0): PyramidPartition(")


def _word_polynomial(table, zs):
    """A table on power-form generators along one path: the r-th letter to
    act, X_i, contributes z_r^i."""
    import sympy as sp

    return sp.expand(sum(c * sp.Mul(*(z**i for z, i in zip(zs, reversed(word)))) for c, word in table))


def _symmetric_multiple(table, generating, zs):
    """True when table's word polynomial is the generating one's times a
    symmetric polynomial in zs."""
    import sympy as sp

    q = sp.cancel(_word_polynomial(table, zs) / _word_polynomial(generating, zs))
    num, den = sp.fraction(q)
    if den.free_symbols & set(zs):
        return False
    swaps = [{a: b, b: a} for a, b in zip(zs, zs[1:])]
    return all(sp.expand(q - q.subs(swap, simultaneous=True)) == 0 for swap in swaps)


def test_instances_are_symmetric_multiples_of_the_generating_instance():
    """The reduction the quadratic and Serre checks rest on: every instance
    with indices <= 2 is a symmetric multiple of (0,0) or (0,0,0), for both
    signs of sigma3; a non-instance table is not."""
    import sympy as sp

    s2, s3 = sp.symbols("s2 s3")
    z2, z3 = sp.symbols("z1:3"), sp.symbols("z1:4")
    for sign in (1, -1):
        generating = quad_terms(0, 0, s2, sign * s3)
        for m, n in itertools.product(range(3), repeat=2):
            assert _symmetric_multiple(quad_terms(m, n, s2, sign * s3), generating, z2), (sign, m, n)
    for triple in itertools.combinations_with_replacement(range(3), 3):
        assert _symmetric_multiple(serre_terms(*triple), serre_terms(0, 0, 0), z3), triple
    assert not _symmetric_multiple(quad_terms(0, 1, s2, -s3), quad_terms(0, 0, s2, s3), z2)
    assert not _symmetric_multiple([(1, (2, 0, 0))], serre_terms(0, 0, 0), z3)


def test_ef_instances_are_cell_multiples_of_the_generating_instance():
    """The reduction check_ef_diag rests on, derived from ef_terms: on power-
    form generators both paths of a cell that adds weight x and removes
    weight y read e_i as x^i e_0 and f_j as y^j f_0, so every [e_i, f_j],
    i, j <= 2, is x^i y^j times [e_0, f_0] cell by cell; on the diagonal
    x = y and the factor depends on i + j alone.  A table that reads other
    letters on its two paths is no such multiple."""
    import sympy as sp

    x, y, ef, fe = sp.symbols("x y ef fe")  # ef, fe: the cell's e_0 f_0 and f_0 e_0 paths

    def cell(table):
        path = {"ef": ef, "fe": fe}
        weight = {"e": x, "f": y}
        return sp.expand(sum(
            c * path["".join(g for g, _ in word)] * sp.Mul(*(weight[g] ** k for g, k in word))
            for c, word in table
        ))

    generating = cell(ef_terms(0, 0))
    for i, j in itertools.product(range(3), repeat=2):
        q = sp.cancel(cell(ef_terms(i, j)) / generating)
        assert q == x**i * y**j and q.subs(y, x) == x ** (i + j), (i, j)
    other = [(1, (("e", 1), ("f", 0))), (-1, (("f", 0), ("e", 0)))]
    assert sp.cancel(cell(other) / generating).free_symbols & {ef, fe}


def test_psi_e_instances_are_x_to_the_n_times_the_step_form():
    """The per-step form check_psi_e_compat evaluates, derived from
    quad_terms(m + K, n, ...): letters >= K stand for psi_{letter - K}.  On
    a raising step lam -> mu at weight x, e_j reads x^j a and psi_k reads
    its value on the state it acts on, so every instance (m, n) <= 2 is
    x^n a R_m; the sigma3-flipped table is not."""
    import sympy as sp

    x, a, s2, s3 = sp.symbols("x a s2 s3")
    lam, mu = sp.symbols("l0:6"), sp.symbols("u0:6")  # psi_k(lam), psi_k(mu)
    K = 6  # > n + 3, so no e letter reaches K

    def on_step(table):
        total = 0
        for c, (i, j) in table:  # X_i X_j: X_j acts first
            assert (i >= K) != (j >= K)
            total += c * a * (x**j * mu[i - K] if i >= K else x**i * lam[j - K])
        return sp.expand(total)

    def r(m):
        d = [v - u for u, v in zip(lam, mu)]
        return (3 * x * d[m + 2] - 3 * x**2 * d[m + 1] - d[m + 3] + x**3 * d[m]
                - s2 * (d[m + 1] - x * d[m]) + s3 * (lam[m] + mu[m]))

    for m, n in itertools.product(range(3), repeat=2):
        want = sp.expand(x**n * a * r(m))
        assert on_step(quad_terms(m + K, n, s2, s3)) == want, (m, n)
        assert on_step(quad_terms(m + K, n, s2, -s3)) != want, (m, n)


@pytest.mark.parametrize("mode", MODES)
def test_rep_check_makes_no_compose_call(monkeypatch, capsys, mode):
    def refuse(*args):
        raise AssertionError("compose called")

    monkeypatch.setattr(reps.SparseOperator, "compose", refuse)
    argv = ["rep", "check", "--level", "4", "--imax", "2", "--specializations", "1", "--mode", mode]
    assert cli.main(argv) == 0
    assert '"status": "pass"' in capsys.readouterr().out
    assert not any(hasattr(relations, k) for k in ("evaluate", "_cut_leaves", "_ef_letters"))
    gone = ("den", "cleared", "_store", "accumulate", "first_nonzero_on", "diagonal")
    assert not any(hasattr(reps.SparseOperator, k) for k in gone)


def test_corrupted_operator_fails_ef(c3_ops):
    import copy

    bad = copy.deepcopy(c3_ops)
    e0 = bad.e(0)
    n, (i, j) = 1, next(iter(bad.e(0).blocks[1]))
    e0.blocks[1][(i, j)] = e0.blocks[1][(i, j)] + 1
    r = check_ef_diag(bad, 1)
    assert r.status == "fail"


def test_empty_domain_is_not_a_pass(params):
    g = Geometry("c3", params, 1)  # too shallow for the quadratic relation
    ops = OperatorSet(Representation(g))
    r = check_ee(ops, 0)
    assert r.status == "empty-domain"


def test_run_suite_c3(params):
    reports, shift = run_suite(Geometry("c3", params, 4), imax=1)
    assert all(r.status != "fail" for r in reports)
    assert shift == (-1, params.chi)


def test_full_suite_bundle_verdicts_agree():
    bundle = full_suite("c3", 3, imax=1, specializations=2, seed=11)
    assert bundle.all_pass
    for statuses in verdicts(bundle).values():
        assert len(set(statuses)) == 1


def test_full_suite_modes_agree():
    rational = full_suite("conifold", 2, imax=1, m=2, sector=1, specializations=1, seed=5)
    prime = full_suite(
        "conifold", 2, imax=1, m=2, sector=1, specializations=1, seed=5, mode="prime-field"
    )
    assert verdicts(rational) == verdicts(prime)
    assert rational.shift is not None and prime.shift is not None


def test_report_json_shape():
    bundle = full_suite("c3", 2, imax=1, specializations=1, seed=3)
    obj = bundle.to_json()
    assert {"geometry", "params", "relations", "shift"} <= set(obj)
    for entry in obj["relations"]:
        assert {"id", "status", "domain", "discrepancy", "time"} <= set(entry)


@pytest.mark.parametrize("mode", MODES)
def test_pole_support_and_shift_write_a_failed_property_alike(mode):
    """With the conifold head's root moved by q (m=4, sector 2, N=5), both
    pole-support and shift fail, and each writes its failed property as the
    field's one."""
    params = random_params(2024, mode=mode)
    field = params.field
    g = Geometry("conifold", params, 5, m=4, sector=2)
    assert g.kinds["head"] == ([(0, 1)], [])
    g.kinds["head"] = ([(params.q, 1)], [])
    rep = Representation(g)
    poles = check_pole_support(rep)
    shift = check_shift(rep, expect=rep.geometry.expected_shift())
    assert poles.status == shift.status == "fail"
    assert poles.discrepancy == shift.discrepancy == field.str(field.one)
