"""Mutation gate: each mutant patches one spot of a temporary copy of
`src/`, and the fast test it names must fail on that copy.

    python tests/mutants.py                  # every mutant
    python tests/mutants.py guard-skipped    # the named mutants only

First every named test must pass on the unpatched copy, so a broken test
cannot pass for a killer.  The exit code is 0 when every mutant is killed,
1 otherwise.  A surviving mutant is a gap in the tests: strengthen a test
until it fails, and keep the mutant in the table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REL = "tests/test_relations.py::"
REPS = "tests/test_reps.py::"
SHUF = "tests/test_shuffle.py::"
EXACT = "tests/test_exact.py::"
CLI = "tests/test_cli.py::"
PYR = "tests/test_pyramid.py::"

#: (name, file under src/yangianpp, old text, new text, killing test)
MUTANTS = [
    (
        "guard-skipped",
        "relations.py",
        "worst = _power_form(rep, family, get, steps, letters)",
        "worst = None",
        REL + "test_power_form_guard_fails_a_letter_only_other_instances_read",
    ),
    (
        "guard-first-step-only",
        "relations.py",
        "for n in levels for r in range(length)}",
        "for n in levels for r in range(1)}",
        REL + "test_power_form_guard_fails_a_letter_only_other_instances_read",
    ),
    (
        "guard-generating-letters-only",
        "relations.py",
        "letters = sorted({a for table in instances.values() for _, word in table for a in word})",
        "letters = sorted({a for _, word in terms for a in word})",
        REL + "test_power_form_guard_fails_a_letter_only_other_instances_read",
    ),
    (
        "guard-power-capped",
        "relations.py",
        "if i > last:",
        "if last < i <= 1:",
        REL + "test_c3_ee_ff",
    ),
    # The guard compares cleared integers: c b q^i against d a p^i.
    (
        "guard-denominator-power-dropped",
        "relations.py",
        "b * q**e, p, q)",
        "b, p, q)",
        REL + "test_c3_ee_ff",
    ),
    (
        "ff-sigma3-unflipped",
        "relations.py",
        "_quads(imax, p.sigma2, -p.sigma3)",
        "_quads(imax, p.sigma2, p.sigma3)",
        REL + "test_c3_ee_ff",
    ),
    (
        "last-failing-cell",
        "relations.py",
        "n, t, s, v = min(cells)",
        "n, t, s, v = max(cells)",
        REL + "test_bumped_e0_inside_window_fails_with_same_detail",
    ),
    (
        "generating-instance-last",
        "relations.py",
        "name, terms = next(iter(instances.items()))",
        "name, terms = list(instances.items())[-1]",
        REL + "test_bumped_e0_inside_window_fails_with_same_detail",
    ),
    (
        "prime-cells-unreduced",
        "relations.py",
        "for t, v in field.nonzero(acc).items()})",
        "for t, v in acc.items() if v})",
        REL + "test_statuses_agree_with_matrix_route",
    ),
    (
        "word-step-block-denominator-dropped",
        "relations.py",
        "memo[word] = n + shift, field.nonzero(acc), d * bd",
        "memo[word] = n + shift, field.nonzero(acc), d",
        REL + "test_tables_applied_per_source_are_the_operator_columns",
    ),
    (
        "table-sum-lcm-scaling-dropped",
        "relations.py",
        "k = p * (d // (q * vd))",
        "k = p",
        REL + "test_tables_applied_per_source_are_the_operator_columns",
    ),
    (
        "ef-eigenvalues-unchecked",
        "relations.py",
        'worst = _power_form(rep, "e", ops.e, raising, letters) or _power_form(rep, "f", ops.f, lowering, letters)',
        "worst = None",
        REL + "test_ef_diag_detail_names_level_and_state",
    ),
    (
        "ef-raising-from-level-unchecked",
        "relations.py",
        "for k in (n - 1, n) if k >= 0}",
        "for k in (n - 1,) if k >= 0}",
        REL + "test_power_form_guard_fails_a_letter_only_other_instances_read",
    ),
    (
        "ef-lowering-from-level-above-unchecked",
        "relations.py",
        "for k in (n, n + 1) if k > 0}",
        "for k in (n,) if k > 0}",
        REL + "test_power_form_guard_fails_a_letter_only_other_instances_read",
    ),
    (
        "ef-eps-fixed",
        "relations.py",
        "eps = next((1 if a == b else -1 for *_, a, b in cells if a != 0 and a in (b, field.reduce(-b))), 1)",
        "eps = 1",
        REL + "test_c3_ef_matches_h_convention_flip",
    ),
    (
        "foreign-field-generator-read",
        "relations.py",
        "        same_field(field, op.field)\n",
        "",
        REL + "test_generators_of_another_field_are_refused",
    ),
    (
        "psi-sigma3-sign",
        "relations.py",
        "+ S3 * (lam[m] + mu[m]))",
        "- S3 * (lam[m] + mu[m]))",
        REL + "test_psi_e_compat_reads_the_operators",
    ),
    (
        "psi-first-bracket-index",
        "relations.py",
        "3 * X * d[m + 2]",
        "3 * X * d[m + 1]",
        REL + "test_psi_e_compat_reads_the_operators",
    ),
    (
        "psi-e-cleared-power-short",
        "relations.py",
        "- D * d[m + 3]",
        "- d[m + 3]",
        REL + "test_psi_e_compat_reads_the_operators",
    ),
    (
        "psi-e-state-denominator-swapped",
        "relations.py",
        "[v * (D // Ll) for v in lam]",
        "[v * (D // Lm) for v in lam]",
        REL + "test_psi_e_compat_reads_the_operators",
    ),
    (
        "psi-top-level-checked",
        "relations.py",
        "_nonempty(rep, range(ops.top - 1))",
        "_nonempty(rep, range(ops.top))",
        REL + "test_psi_e_compat_reads_the_operators",
    ),
    # psi_k is one pass over e_0's entries, summed as unreduced pairs and
    # shared by both Cartan checks, and pole support reads a label's
    # removals off the basis's steps into it.
    (
        "psi-outgoing-sign-flipped",
        "relations.py",
        "((n, s), -v)",
        "((n, s), v)",
        REL + "test_c3_ef_matches_h",
    ),
    (
        "psi-f-untransposed",
        "relations.py",
        "(b := col.get((s, t)))",
        "(b := col.get((t, s)))",
        REL + "test_c3_ef_matches_h",
    ),
    (
        "psi-pair-sum-without-cross-denominators",
        "relations.py",
        "(c * w + v * d, d * w)",
        "(c + v, d * w)",
        REL + "test_c3_ef_matches_h",
    ),
    (
        "psi-foreign-field-read",
        "relations.py",
        "field = same_field(same_field(self.rep.geometry.params.field, e0.field), fk.field)",
        "field = self.rep.geometry.params.field",
        REL + "test_generators_of_another_field_are_refused",
    ),
    (
        "pole-support-moves-into-dropped",
        "relations.py",
        "expected = {x for _, x, _ in steps} | into.pop((n, si), set())",
        "expected = {x for _, x, _ in steps}",
        REL + "test_c3_psi_compat_and_poles",
    ),
    # The bond is stated once, in exact.Kernel: one flipped c3 weight must
    # fail a check on each side, the representations and the shuffle algebra.
    (
        "c3-weight-flipped",
        "exact.py",
        "return cls(params.hbars, params.field)",
        "return cls((-params.h1,) + params.hbars[1:], params.field)",
        REL + "test_c3_ee_ff",
    ),
    (
        "c3-weight-flipped",
        "exact.py",
        "return cls(params.hbars, params.field)",
        "return cls((-params.h1,) + params.hbars[1:], params.field)",
        SHUF + "test_c3_ee_relation",
    ),
    (
        "ratio-weight-flipped",
        "exact.py",
        "ws = self.numerator_weights",
        "ws = (-self.numerator_weights[0],) + self.numerator_weights[1:]",
        REPS + "test_geometries_read_the_kernel",
    ),
    (
        "fac-self-loop-dropped",
        "exact.py",
        "for w in self.numerator_weights] + [(x, -1)]",
        "for w in self.numerator_weights]",
        REPS + "test_h_rat_equals_raising_times_lowering",
    ),
    (
        "fac-weight-sign",
        "exact.py",
        "[(x - w, 1) for w in self.numerator_weights]",
        "[(x + w, 1) for w in self.numerator_weights]",
        REL + "test_c3_ee_ff",
    ),
    (
        "residue-index-off-by-one",
        "exact.py",
        "ks = [self.degree() + p + 1 for p in powers]",
        "ks = [self.degree() + p for p in powers]",
        EXACT + "test_residue_at_infinity_balances_finite_residues",
    ),
    # Residues at infinity: one integer series over the roots' common denominator.
    (
        "pole-takes-descending-pass",
        "exact.py",
        "for k in up:",
        "for k in down:",
        EXACT + "test_integer_series_equals_newton_oracle",
    ),
    (
        "series-denominator-power-short",
        "exact.py",
        "den * D**k)",
        "den * D ** max(k - 1, 0))",
        REPS + "test_prime_h_is_the_rational_h_reduced",
    ),
    (
        "genericity-bound-exclusive",
        "exact.py",
        "if ratio.denominator <= bound and",
        "if ratio.denominator < bound and",
        EXACT + "test_genericity_gate_matches_scan",
    ),
    # Step constants multiply one value per (kind, displacement) of an atom.
    (
        "displacement-sign-flipped",
        "reps.py",
        "(kind, a - i, b - j, c - k)",
        "(kind, i - a, j - b, k - c)",
        REPS + "test_transitions_equal_the_whole_form_oracle",
    ),
    (
        "head-pole-order-dropped",
        "reps.py",
        "order = sum(order)",
        "order = sum(order[1:])",
        REPS + "test_transitions_equal_the_whole_form_oracle",
    ),
    (
        "pole-guard-loosened",
        "reps.py",
        "if order > 1:",
        "if order > 2:",
        REPS + "test_pole_of_higher_order_raises_resonance",
    ),
    # h is stated once, per atom (atoms and kinds): a kind's factor, the
    # head atoms that alone carry the shift and an atom's weight.
    (
        "black-t-factor-sign",
        "pyramid.py",
        "(-h, 1), (t, -1)]",
        "(-h, 1), (-t, -1)]",
        REPS + "test_h_rat_equals_raising_times_lowering",
    ),
    (
        "black-self-factor-dropped",
        "pyramid.py",
        '"black": ([(0, 1), (-q, 1),',
        '"black": ([(-q, 1),',
        REPS + "test_h_rat_equals_raising_times_lowering",
    ),
    (
        "stone-product-keeps-head",
        "reps.py",
        'for kind, v in atoms if kind == "head"]',
        "for kind, v in atoms]",
        REPS + "test_detect_shift_c3",
    ),
    (
        "atom-weight-reversed",
        "reps.py",
        "x = p3.box_weight(v, params)",
        "x = p3.box_weight(v[::-1], params)",
        REPS + "test_h_rat_equals_raising_times_lowering",
    ),
    # Pyramid growth and the pair steps read the ERC's masks; the steps are
    # the crystal's graph, which the whole-label scans restate.
    (
        "tops-dropped",
        "pyramid.py",
        "self.top_bits = self.mask(",
        "self.top_bits = 0 * self.mask(",
        PYR + "test_frontier_enumeration_equals_the_rescan[2-4]",
    ),
    (
        "below-first-cover-only",
        "pyramid.py",
        "            for c in cs:\n",
        "            for c in cs[:1]:\n",
        PYR + "test_frontier_tables_invert_the_covers",
    ),
    (
        "growth-covers-unchecked",
        "pyramid.py",
        "if (c := covers[low]) & ideal == c:",
        "if (c := covers[low]) or True:",
        PYR + "test_frontier_enumeration_equals_the_rescan[None-3]",
    ),
    (
        "pair-needs-its-own-black",
        "pyramid.py",
        "\n                                & ~self.bit[p.black])",
        ")",
        REPS + "test_steps_are_the_scans[conifold-5-3-1-prime-field]",
    ),
    (
        "pair-presence-unchecked",
        "pyramid.py",
        "if not ideal & own and ideal & need == need for",
        "if ideal & need == need for",
        REPS + "test_steps_are_the_scans[conifold-5-3-1-prime-field]",
    ),
    (
        "step-dropped",
        "partitions3d.py",
        "index[boxes | {b}], x, b) for b, x in ws])",
        "index[boxes | {b}], x, b) for b, x in ws][1:])",
        REPS + "test_steps_are_the_scans[c3-8-0-0-prime-field]",
    ),
    (
        "division-leftover-unchecked",
        "shuffle.py",
        "            if self.field.reduce(q + col.get(0, 0)):\n"
        '                raise DenominatorNotCancelled(f"polynomial not divisible by (x_{i} - x_{j})")\n',
        "",
        SHUF + "test_divide_exact_linear",
    ),
    (
        "resonance-exits-as-cap",
        "cli.py",
        "return EXIT_RESONANCE",
        "return EXIT_CAP",
        CLI + "test_rep_build_resonant_params_exit4",
    ),
    # Shared CLI flags are declared once, caps bound only enum's input, and an
    # operator file verifies only as the JSON text rep build writes; from_json
    # reads only what to_json writes.
    (
        "rep-build-level-default",
        "cli.py",
        'rb.add_argument("--level", type=int, default=3)',
        'rb.add_argument("--level", type=int, default=5)',
        CLI + "test_parsed_defaults[rep-build]",
    ),
    (
        "enum-box-cap-inclusive",
        "cli.py",
        "if args.max_boxes > MAX_BOXES:",
        "if args.max_boxes >= MAX_BOXES:",
        CLI + "test_enum_limits[pp-10]",
    ),
    (
        "operator-file-ints-coerced",
        "reps.py",
        "    if type(x) is not int:\n"
        '        raise TypeError(f"expected an integer, got {x!r}")\n'
        "    return x\n",
        "    return int(x)\n",
        REPS + "test_from_json_refuses_what_to_json_never_writes[shift-float]",
    ),
    (
        "operator-file-compared-by-value",
        "cli.py",
        "    return json.dumps(x, sort_keys=True)\n",
        "    return x\n",
        CLI + "test_rep_check_operator_file_rewritten_to_the_same_operator_fails[index-bool]",
    ),
    (
        "jordan-sign-term-dropped",
        "shuffle.py",
        " + [(-s * c, (p, q)), (-s * c, (q, p))]",
        "",
        SHUF + "test_jordan_sign_discrimination",
    ),
]


def run_test(src, test):
    """True when `test` passes on the package under `src`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
        cwd=ROOT, env=env, capture_output=True, timeout=600,
    )
    return proc.returncode == 0


def imported_from(src):
    """The directory the package is imported from with `src` on the path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import yangianpp; print(yangianpp.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return Path(out.stdout.strip()).resolve().parent


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        package = src / "yangianpp"
        if imported_from(src) != package.resolve():
            print("the copy under test is not the package that imports", file=sys.stderr)
            return 2
        for test in sorted({m[4] for m in chosen}):
            if not run_test(src, test):
                print(f"{test} fails on the unpatched source", file=sys.stderr)
                return 1
        survivors = []
        for name, file, old, new, test in chosen:
            path = package / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: the patched text occurs {text.count(old)} times in {file}", file=sys.stderr)
                return 2
            path.write_text(text.replace(old, new))
            try:
                killed = not run_test(src, test)
            finally:
                path.write_text(text)
            print(f"{'killed ' if killed else 'SURVIVED'} {name}  ({test})")
            if not killed:
                survivors.append(name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
