import json

import pytest

from test_reps import E0_REWRITES
from yangianpp.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enum_pp_counts(capsys):
    code, out, _ = run(capsys, "enum", "pp", "--max-boxes", "5")
    assert code == 0
    assert json.loads(out)["counts"] == [1, 1, 3, 6, 13, 24]


def test_enum_pp_negative_is_usage_error(capsys):
    code, _, err = run(capsys, "enum", "pp", "--max-boxes", "-1")
    assert code == 2


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["pp", "--max-boxes", "10"], 0, ""),
        (["pp", "--max-boxes", "11"], 3, "cap exceeded: max_boxes 11 exceeds cap 10\n"),
        (["pyramid", "--length", "5", "--max-stones", "2"], 0, ""),
        (["pyramid", "--length", "6", "--max-stones", "2"], 3, "cap exceeded: length 6 exceeds cap 5\n"),
        (["pyramid", "--length", "2", "--max-stones", "5"], 0, ""),
        (["pyramid", "--length", "2", "--max-stones", "6"], 3, "cap exceeded: max_stones 6 exceeds ERC size 5\n"),
    ],
    ids=["pp-10", "pp-11", "length-5", "length-6", "stones-5-of-5", "stones-6-of-5"],
)
def test_enum_limits(capsys, argv, code, err):
    """enum caps --max-boxes at 10 and --length at 5, and the room's size
    bounds --max-stones: the limit itself runs, one past it exits 3."""
    got, out, got_err = run(capsys, "enum", *argv)
    assert (got, got_err) == (code, err) and bool(out) == (code == 0)


RANDOM = {"params": "random", "seed": 2024}
REP = {"mode": "rational", "sector": 1, "out": None}


@pytest.mark.parametrize(
    "argv,parsed",
    [
        (["enum", "pp", "--max-boxes", "1"], {"command": "enum", "what": "pp", "max_boxes": 1, "out": None}),
        (["enum", "pyramid", "--length", "1", "--max-stones", "1"],
         {"command": "enum", "what": "pyramid", "length": 1, "max_stones": 1, "sector": None, "out": None}),
        (["rep", "build", "--geometry", "c3"],
         {**RANDOM, **REP, "command": "rep", "action": "build", "geometry": "c3", "level": 3, "imax": 1}),
        (["rep", "check"],
         {**REP, "command": "rep", "action": "check", "geometry": "c3", "level": 5, "imax": 2, "seed": 2024,
          "relations": "all", "specializations": 3, "operators": None}),
        (["shift", "--geometry", "c3"], {**RANDOM, **REP, "command": "shift", "geometry": "c3", "level": 3}),
        (["shuffle", "mul", "1", "x"],
         {**RANDOM, "command": "shuffle", "action": "mul", "left": "1", "right": "x", "kernel": "c3", "out": None}),
        (["shuffle", "check"], {**RANDOM, "command": "shuffle", "action": "check", "kernel": "c3", "out": None}),
    ],
    ids=["enum-pp", "enum-pyramid", "rep-build", "rep-check", "shift", "shuffle-mul", "shuffle-check"],
)
def test_parsed_defaults(argv, parsed):
    """Each command's namespace with no optional flag.  Shared flags are
    declared once and share their argparse actions, so a default set for
    one command would show up in the others."""
    args = vars(build_parser().parse_args(argv))
    assert callable(args.pop("func"))
    assert args == parsed


def test_enum_pyramid_m1(capsys):
    code, out, _ = run(capsys, "enum", "pyramid", "--length", "1", "--max-stones", "1")
    assert code == 0
    groups = json.loads(out)["groups"]
    assert [(g["blacks"], g["whites"], g["count"]) for g in groups] == [
        (0, 0, 1),
        (1, 0, 1),
    ]


def test_rep_build_golden_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = [
        "rep", "build", "--geometry", "c3", "--level", "3", "--imax", "1",
        "--params", "101/13,47/7,7",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    blob = json.loads(a.read_text())
    assert set(blob["operators"]["e"]) == {"0", "1"}
    assert set(blob["operators"]["f"]) == {"0", "1"}


def test_rep_build_conifold_m1_zero_operators(tmp_path, capsys):
    out = tmp_path / "m1.json"
    code = main([
        "rep", "build", "--geometry", "conifold:1", "--level", "1", "--imax", "0",
        "--sector", "1", "--params", "101/13,47/7,7", "--out", str(out),
    ])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["operators"]["e"]["0"]["levels"] == []
    assert blob["operators"]["f"]["0"]["levels"] == []


def test_rep_build_resonant_params_exit4(capsys):
    code, _, err = run(
        capsys, "rep", "build", "--geometry", "c3", "--params", "1,-1,0"
    )
    assert code == 4 and "resonance" in err


def test_rep_check_c3_small(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "rep", "check", "--geometry", "c3", "--level", "3", "--imax", "1",
        "--specializations", "1", "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["shift"]["l"] == -1
    statuses = {r["id"]: r["status"] for r in report["relations"]}
    assert statuses["ef-diagonal"] == "pass"


def test_rep_check_conifold_shift(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "rep", "check", "--geometry", "conifold:2", "--level", "2", "--imax", "1",
        "--sector", "1", "--specializations", "1", "--relations", "shift,poles",
        "--out", str(out_file),
    )
    assert code == 0
    assert json.loads(out_file.read_text())["shift"]["l"] == 1


@pytest.mark.parametrize("flags,message", [
    (["--specializations", "0"], "specializations must be at least 1"),
    (["--relations", "bogus"], "unknown relation group 'bogus'"),
    (["--relations", "ef,bogus"], "unknown relation group 'bogus'"),
    (["--imax", "-1"], "imax must be nonnegative"),
], ids=["no-specialization", "unknown-group", "one-unknown-group", "negative-imax"])
def test_rep_check_that_would_check_nothing_is_usage_error(capsys, flags, message):
    code, out, err = run(capsys, "rep", "check", "--geometry", "c3", "--level", "2", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_rep_check_operator_file_roundtrip_and_corruption(tmp_path, capsys):
    op_file = tmp_path / "ops.json"
    argv = [
        "rep", "build", "--geometry", "c3", "--level", "3", "--imax", "1",
        "--params", "101/13,47/7,7", "--out", str(op_file),
    ]
    assert main(argv) == 0
    code, out, _ = run(capsys, "rep", "check", "--operators", str(op_file))
    assert code == 0 and "verified" in out
    blob = json.loads(op_file.read_text())
    blob["operators"]["e"]["0"]["levels"][0]["entries"][0][2] = "9999/1"
    op_file.write_text(json.dumps(blob))
    code, _, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert code == 1 and "mismatch" in err


def test_shift_command(capsys):
    code, out, _ = run(
        capsys,
        "shift", "--geometry", "conifold:3", "--level", "1", "--sector", "1",
        "--params", "101/13,47/7,7",
    )
    assert code == 0
    blob = json.loads(out)
    # chi + 3t = 7 + 3*101/13 = 394/13
    assert blob == {"l": 1, "z1": "394/13"}


def test_shuffle_mul_a1(capsys):
    code, out, _ = run(capsys, "shuffle", "mul", "1", "x", "--kernel", "a1")
    assert code == 0
    blob = json.loads(out)
    assert blob["terms"] == {"0,0": "-1/1"}


def test_shuffle_mul_bad_operand_usage(capsys):
    code, _, _ = run(capsys, "shuffle", "mul", "y", "x", "--kernel", "a1")
    assert code == 2


@pytest.mark.parametrize("left,right", [("x^-1", "x"), ("x^-2", "1")])
def test_shuffle_mul_negative_exponent_is_usage_error(capsys, left, right):
    """A negative exponent is no shuffle element: refused as usage, not
    multiplied into a Laurent "product" or a kernel error."""
    code, out, err = run(capsys, "shuffle", "mul", left, right)
    assert code == 2 and out == ""
    assert err == f"error: shuffle elements are polynomials, got exponent {left[2:]}\n"


def test_shuffle_check_kernels(capsys):
    for kernel in ("a1", "c3", "jordan:2/3"):
        code, out, _ = run(
            capsys, "shuffle", "check", "--kernel", kernel, "--params", "101,47,7"
        )
        assert code == 0, kernel
        blob = json.loads(out)
        assert all(r["status"] == "pass" for r in blob["relations"])


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
def test_rep_check_operator_file_roundtrip_each_mode(tmp_path, capsys, mode):
    op_file = tmp_path / "ops.json"
    argv = ["rep", "build", "--geometry", "c3", "--level", "3", "--imax", "1", "--mode", mode]
    assert main(argv + ["--out", str(op_file)]) == 0
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert code == 0 and "verified" in out, err
    entries = json.loads(op_file.read_text())["operators"]["e"]["0"]["levels"][0]["entries"]
    # prime-field entries stay plain residues
    assert all(("/" in v) == (mode == "rational") for _, _, v in entries)


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
@pytest.mark.parametrize("geometry", [["c3"], ["conifold:3", "--sector", "2"]], ids=["c3", "conifold-3-2"])
def test_rep_check_operator_file_written_compactly_still_verifies(tmp_path, capsys, geometry, mode):
    """The file is compared as parsed, not as laid out: written again as
    compact JSON, without indent, it still verifies."""
    op_file = tmp_path / "ops.json"
    argv = ["rep", "build", "--geometry", *geometry, "--level", "3", "--imax", "1", "--mode", mode]
    assert main(argv + ["--out", str(op_file)]) == 0
    op_file.write_text(json.dumps(json.loads(op_file.read_text())))
    assert "\n" not in op_file.read_text()
    assert run(capsys, "rep", "check", "--operators", str(op_file)) == (0, "operator file verified\n", "")


def test_rep_check_conifold_operator_file_of_another_sector_fails(tmp_path, capsys):
    """A file whose geometry.sector is edited is rebuilt for the edited
    sector, whose basis differs from the stored one from level 0 on."""
    op_file = tmp_path / "ops.json"
    argv = ["rep", "build", "--geometry", "conifold:3", "--sector", "2", "--level", "3", "--imax", "1"]
    assert main(argv + ["--out", str(op_file)]) == 0
    blob = json.loads(op_file.read_text())
    blob["geometry"]["sector"] = 1
    op_file.write_text(json.dumps(blob))
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert (code, out, err) == (1, "", "operator file mismatch: basis level 0 disagrees with recomputation\n")


def test_prime_operator_file_stores_source_rationals(tmp_path):
    from yangianpp.exact import random_params, rational_str

    op_file = tmp_path / "ops.json"
    argv = ["rep", "build", "--geometry", "c3", "--level", "2", "--imax", "0",
            "--mode", "prime-field", "--seed", "2024", "--out", str(op_file)]
    assert main(argv) == 0
    stored = json.loads(op_file.read_text())["params"]
    seed = random_params(2024)
    assert stored["mode"] == "prime-field"
    assert stored["h1"] == rational_str(seed.h1) == "3851/12"
    assert (stored["h2"], stored["chi"]) == (rational_str(seed.h2), rational_str(seed.chi))


def test_prime_operator_file_with_residue_params_still_loads(tmp_path, capsys):
    from yangianpp.exact import random_params, rational_str

    op_file = tmp_path / "ops.json"
    argv = ["rep", "build", "--geometry", "c3", "--level", "2", "--imax", "1",
            "--mode", "prime-field", "--seed", "2024", "--out", str(op_file)]
    assert main(argv) == 0
    data = json.loads(op_file.read_text())
    # the older layout: h1/h2/h3/chi as field residues
    p = random_params(2024, mode="prime-field")
    residues = {k: rational_str(getattr(p, k)) for k in ("h1", "h2", "h3", "chi")}
    assert "/" not in residues["h1"]
    data["params"].update(residues)
    data["geometry"]["params"].update(residues)
    op_file.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert code == 0 and "verified" in out, err


def test_inconsistent_shift_is_relation_failure(monkeypatch, capsys):
    from yangianpp import cli
    from yangianpp.errors import InconsistentShift

    def broken(rep):
        raise InconsistentShift("shift varies across the basis")

    monkeypatch.setattr(cli, "detect_shift", broken)
    code, _, err = run(capsys, "shift", "--geometry", "c3", "--level", "1")
    assert code == 1 and "shift varies" in err


def test_check_shift_lets_retry_specialization_through(monkeypatch, capsys):
    from yangianpp import relations
    from yangianpp.errors import RetrySpecialization

    def broken(rep):
        raise RetrySpecialization("division by zero mod PRIME")

    monkeypatch.setattr(relations, "detect_shift", broken)
    code, _, err = run(
        capsys, "rep", "check", "--geometry", "c3", "--level", "2", "--imax", "0",
        "--specializations", "1", "--relations", "shift",
    )
    assert code == 2 and "error: division by zero mod PRIME" in err


def test_check_shift_reports_inconsistent_shift(monkeypatch, capsys):
    from yangianpp import relations
    from yangianpp.errors import InconsistentShift

    def broken(rep):
        raise InconsistentShift("shift varies across the basis")

    monkeypatch.setattr(relations, "detect_shift", broken)
    code, out, _ = run(
        capsys, "rep", "check", "--geometry", "c3", "--level", "2", "--imax", "0",
        "--specializations", "1", "--relations", "shift",
    )
    (report,) = json.loads(out)["relations"]
    assert code == 1
    assert report["status"] == "fail" and report["detail"] == "shift varies across the basis"


@pytest.fixture
def op_file(tmp_path):
    path = tmp_path / "ops.json"
    argv = [
        "rep", "build", "--geometry", "c3", "--level", "3", "--imax", "1",
        "--params", "101/13,47/7,7", "--out", str(path),
    ]
    assert main(argv) == 0
    return path


@pytest.mark.parametrize(
    "edit,missing",
    [
        (lambda ops: ops["e"].pop("1"), "e_1"),
        (lambda ops: ops["f"].pop("0"), "f_0"),
        (lambda ops: ops.update(e={}, f={}), "e_0"),
    ],
    ids=["no-e1", "no-f0", "empty-families"],
)
def test_rep_check_incomplete_operator_file_fails(op_file, capsys, edit, missing):
    blob = json.loads(op_file.read_text())
    edit(blob["operators"])
    op_file.write_text(json.dumps(blob))
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert code == 1 and f"{missing} is missing" in err and "verified" not in out


@pytest.mark.parametrize(
    "edit",
    [
        None,
        lambda blob: blob.pop("operators"),
        lambda blob: blob.pop("params"),
        lambda blob: blob["params"].pop("h1"),
        lambda blob: blob["operators"].pop("f"),
        lambda blob: blob["geometry"].pop("kind"),
        lambda blob: blob["geometry"].pop("N"),
        lambda blob: blob.update(geometry=["c3"]),
        lambda blob: blob["geometry"].update(N="2"),
        lambda blob: blob["geometry"].update(m=0.0),
        lambda blob: blob["geometry"].update(sector=True),
        lambda blob: blob["operators"].update(e=["0", "1"]),
        lambda blob: blob["params"].update(mode="exact"),
        lambda blob: blob["params"].update(chi=float("inf")),
    ],
    ids=["missing-file", "no-operators", "no-params", "no-h1", "no-f-family", "no-kind", "no-N",
         "geometry-list", "N-string", "m-float", "sector-bool", "e-family-list", "unknown-mode",
         "chi-infinite"],
)
def test_rep_check_unreadable_operator_file_is_usage_error(op_file, capsys, edit):
    if edit is None:
        op_file.unlink()
    else:
        blob = json.loads(op_file.read_text())
        edit(blob)
        op_file.write_text(json.dumps(blob))
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert code == 2 and err.startswith("error: ") and out == ""


def test_rep_check_operator_file_that_is_no_json_is_usage_error(op_file, capsys):
    op_file.write_text(op_file.read_text()[:-3])
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert code == 2 and err.startswith("error: ") and out == ""


def _note_in_both_params(blob):
    """A key rep build never writes, in params and in geometry.params."""
    blob["params"]["note"] = blob["geometry"]["params"]["note"] = "x"


def _no_mode_anywhere(blob):
    """A rational file with mode in neither params nor geometry.params."""
    del blob["params"]["mode"], blob["geometry"]["params"]["mode"]


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda blob: blob.pop("basis"), "basis level 0 disagrees with recomputation"),
        (lambda blob: blob["basis"].update(levels=5), "basis level 0 disagrees with recomputation"),
        (lambda blob: blob["operators"]["e"]["0"].pop("shift"), "e_0 disagrees with recomputation"),
        (lambda blob: blob["operators"]["e"]["0"]["levels"][0].pop("n"), "e_0 disagrees with recomputation"),
        (lambda blob: blob["operators"]["f"]["1"]["levels"][0].pop("entries"), "f_1 disagrees with recomputation"),
        (lambda blob: blob["operators"]["e"]["0"]["levels"][0]["entries"][0].pop(),
         "e_0 disagrees with recomputation"),
        (lambda blob: blob["params"].update(chi=7), "params.chi 7 is not '7/1'"),
        (lambda blob: blob["params"].update(chi=7.0), "params.chi 7.0 is not '7/1'"),
        (lambda blob: blob.update(note="built by hand"), "note disagrees with recomputation"),
        (lambda blob: blob["geometry"].update(m=0), "geometry disagrees with recomputation"),
        (_note_in_both_params, "params.note 'x' is not None"),
        (lambda blob: blob["basis"].update(note=[]), "basis disagrees with recomputation"),
        (lambda blob: blob["operators"]["e"]["0"].update(note=0), "e_0 disagrees with recomputation"),
        (lambda blob: blob["operators"]["f"]["0"]["levels"][0].update(note=0), "f_0 disagrees with recomputation"),
        (lambda blob: blob["operators"].update(g={}), "operators.g disagrees with recomputation"),
        (lambda blob: blob["params"].pop("mode"), "params.mode None is not 'rational'"),
        (_no_mode_anywhere, "params.mode None is not 'rational'"),
    ],
    ids=["no-basis", "levels-int", "op-no-shift", "level-no-n", "level-no-entries", "entry-two-values",
         "chi-int", "chi-float", "extra-top-key", "extra-geometry-m", "extra-params-key", "extra-basis-key",
         "extra-operator-key", "extra-level-key", "extra-family", "no-mode", "no-mode-anywhere"],
)
def test_rep_check_operator_file_rep_build_cannot_write_fails(op_file, capsys, edit, message):
    """A file whose header says what to rebuild but which differs from what
    rep build writes for it anywhere else, a key added or missing included,
    fails naming the first section that differs."""
    blob = json.loads(op_file.read_text())
    edit(blob)
    op_file.write_text(json.dumps(blob))
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert (code, out, err) == (1, "", f"operator file mismatch: {message}\n")


@pytest.mark.parametrize("edit", [edit for _, edit in E0_REWRITES], ids=[name for name, _ in E0_REWRITES])
def test_rep_check_operator_file_rewritten_to_the_same_operator_fails(op_file, capsys, edit):
    """An operator file that rep build cannot have written fails, even where
    it reads as the built operator: a (target, source) key or a level given
    twice, an explicit zero entry, here at a target index outside level 1, a
    shift, level or index that is not an int, or an entry that is not the
    field's own string of it."""
    blob = json.loads(op_file.read_text())
    edit(blob["operators"])
    op_file.write_text(json.dumps(blob))
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert (code, out, err) == (1, "", "operator file mismatch: e_0 disagrees with recomputation\n")


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda blob: blob["params"].update(chi="14/2"), "params.chi '14/2' is not '7/1'"),
        (lambda blob: blob["params"].update(h3="999/1"), "params.h3 '999/1' is not '-1318/91'"),
        (lambda blob: blob["geometry"]["params"].update(h1="5/1"), "geometry.params.h1 differs from params.h1"),
        (lambda blob: blob["geometry"]["params"].pop("mode"), "geometry.params.mode differs from params.mode"),
    ],
    ids=["chi-not-lowest-terms", "h3-not-minus-h1-minus-h2", "geometry-h1-differs", "geometry-mode-missing"],
)
def test_rep_check_operator_file_with_params_rep_build_never_writes_fails(op_file, capsys, edit, message):
    """The params are certified too: written in lowest terms, with h3 =
    -h1 - h2, and repeated unchanged as geometry.params; else exit 1 naming
    the field."""
    blob = json.loads(op_file.read_text())
    edit(blob)
    op_file.write_text(json.dumps(blob))
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert (code, out, err) == (1, "", f"operator file mismatch: {message}\n")


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--mode", "prime-field", "--level", "9"], "--mode, --level"),
        (["--geometry", "conifold:2", "--relations", "ee"], "--geometry, --relations"),
        (["--out", "report.json"], "--out"),
        (["--mode", "rational"], "--mode"),
        (["--level", "5"], "--level"),
        (["--seed", "2024"], "--seed"),
        (["--level", "5", "--mode", "rational"], "--mode, --level"),
    ],
)
def test_rep_check_operators_refuses_the_suite_flags(op_file, capsys, flags, named):
    """With --operators, rep check reads only the file: a suite flag given,
    even at its default, is a usage error that names it."""
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file), *flags)
    assert (code, out) == (2, "")
    assert err == f"error: rep check --operators reads only the file, not {named}\n"


@pytest.mark.parametrize(
    "edit,level",
    [
        (lambda levels: levels[1].clear(), 1),
        (lambda levels: levels[2].reverse(), 2),
        (lambda levels: levels.pop(), 3),
        (lambda levels: levels.append([]), 4),
    ],
    ids=["level-1-emptied", "level-2-reordered", "top-level-dropped", "extra-level"],
)
def test_rep_check_operator_file_with_altered_basis_fails(op_file, capsys, edit, level):
    blob = json.loads(op_file.read_text())
    edit(blob["basis"]["levels"])
    op_file.write_text(json.dumps(blob))
    code, out, err = run(capsys, "rep", "check", "--operators", str(op_file))
    assert code == 1 and f"basis level {level} disagrees" in err and "verified" not in out


def test_rep_build_negative_imax_is_usage_error(tmp_path, capsys):
    out_file = tmp_path / "ops.json"
    code, out, err = run(capsys, "rep", "build", "--geometry", "c3", "--level", "2",
                         "--imax", "-1", "--out", str(out_file))
    assert code == 2 and err.startswith("error: ") and "imax must be nonnegative" in err
    assert out == "" and not out_file.exists()


@pytest.mark.parametrize("command", [["rep", "build"], ["rep", "check"], ["shift"]],
                         ids=" ".join)
def test_empty_basis_is_usage_error(tmp_path, capsys, command):
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, *command, "--geometry", "conifold:3", "--sector", "9",
                         "--level", "2", "--out", str(out_file))
    assert code == 2 and out == "" and not out_file.exists()
    assert err.startswith("error: ") and "empty basis" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rep", "build", "--geometry", "c3", "--params", "1/0,2,3"],
        ["shift", "--geometry", "c3", "--params", "1,2,1/0"],
        ["shuffle", "mul", "x", "x", "--kernel", "jordan:1/0"],
        ["shuffle", "check", "--kernel", "c3", "--params", "1,0/0,3"],
        ["rep", "check", "--operators"],
    ],
    ids=["rep-build", "shift", "shuffle-mul", "shuffle-check", "rep-check-operators"],
)
def test_zero_denominator_is_usage_error(op_file, capsys, argv):
    """A rational with a zero denominator, on the command line or as an
    operator file's h1, is a malformed input: exit 2 with an error line."""
    if argv[-1] == "--operators":
        blob = json.loads(op_file.read_text())
        blob["params"]["h1"] = "1/0"
        op_file.write_text(json.dumps(blob))
        argv = argv + [str(op_file)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ") and "zero denominator" in err
