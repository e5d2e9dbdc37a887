"""Call trace: the functions under `src/yangianpp` that no command runs.

    python tests/unrun.py

Under `sys.setprofile` this runs every CLI command of
tests/golden_reports.json and a `rep build` -> `rep check --operators`
round trip in both scalar modes, then prints each function defined in
`src/yangianpp` that never ran.  ALLOWED names the ones that may stay
unrun, each with its reason: failure paths, protocol dunders and the names
the benchmark patches.  The exit code is 1 when an unrun function is not
on ALLOWED, when an ALLOWED entry ran or no longer exists, so the list
cannot go stale, or when a command exits nonzero; 0 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "yangianpp"

FAILURE = "failure path: runs only when a check or an input fails"
PROTOCOL = "container protocol of a label"
EQUALITY = "value equality: without it `==` and `!=` on the type compare identities"
BENCH = "benchmarks/ patches it by name"

#: module.qualname -> why it may stay although no command runs it
ALLOWED = {
    "exact.LinForm.__eq__": EQUALITY,
    "exact.LinForm.__hash__": "the hash of a value type that defines __eq__",
    "exact.LinForm.__repr__": FAILURE + " (InconsistentShift shows the residual form)",
    "exact.LinForm.residue_at_infinity": BENCH + " (tracer span exact.residue_inf)",
    "exact.Params.__repr__": FAILURE,
    "partitions3d.Partition3D.__contains__": PROTOCOL,
    "partitions3d.Partition3D.__eq__": EQUALITY,
    "partitions3d.Partition3D.__init__": "a label from boxes in any order; the commands build theirs in order (_partition)",
    "partitions3d.Partition3D.__len__": PROTOCOL,
    "partitions3d.Partition3D.__repr__": FAILURE + " (labels in failing cells)",
    "pyramid.PyramidPartition.__contains__": PROTOCOL,
    "pyramid.PyramidPartition.__eq__": EQUALITY,
    "pyramid.PyramidPartition.__init__": "a label from stones in any order; the commands build theirs in order (_label)",
    "pyramid.PyramidPartition.__len__": PROTOCOL,
    "pyramid.PyramidPartition.__repr__": FAILURE + " (labels in failing cells)",
    "relations._entry": FAILURE + " (names a failing cell)",
    "reps.SparseOperator.compose": BENCH + " (tracer span reps.compose)",
    "reps.SparseOperator.from_json": BENCH + " (tracer span reps.load)",
    "reps._int": BENCH + " (tracer span reps.load, through from_json)",
    "shuffle.MPoly.__repr__": FAILURE,
    "shuffle.SymPoly.__eq__": EQUALITY,
    "shuffle.SymPoly.__repr__": FAILURE,
}


def defined_functions():
    """(file, first line) -> module.qualname of every def under the package;
    the first line is a decorated function's first decorator, as in its code
    object."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        out[str(path), first] = name
                    visit(child, name)
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), path.stem)
    return out


def commands(tmp):
    """Every golden CLI argv, then the operator-file round trip per mode."""
    from test_golden_reports import runs

    yield from runs()
    for mode in ("rational", "prime-field"):
        out = str(Path(tmp) / f"ops-{mode}.json")
        yield ["rep", "build", "--geometry", "c3", "--level", "4", "--imax", "2", "--mode", mode, "--out", out]
        yield ["rep", "check", "--operators", out]


def trace():
    """(file, first line) of every package function that ran, and each
    command with its exit code."""
    ran = set()
    prefix = str(PACKAGE)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            import yangianpp
            from yangianpp.cli import main

            if Path(yangianpp.__file__).resolve().parent != PACKAGE.resolve():
                raise SystemExit(f"yangianpp imports from {yangianpp.__file__}, not {PACKAGE}")
            codes = []
            for argv in commands(tmp):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    codes.append((" ".join(argv), main(argv)))
        finally:
            sys.setprofile(None)
    return ran, codes


def main():
    defined = defined_functions()
    ran, codes = trace()
    failed = [argv for argv, code in codes if code != 0]
    for argv in failed:
        print(f"command failed: {argv}", file=sys.stderr)
    unrun = sorted(name for key, name in defined.items() if key not in ran)
    bad = [name for name in unrun if name not in ALLOWED]
    stale = sorted(set(ALLOWED) - set(unrun))
    for name in unrun:
        print(f"{'allowed' if name in ALLOWED else 'UNRUN  '} {name}  {ALLOWED.get(name, '')}".rstrip())
    for name in stale:
        print(f"STALE   {name}: allowed, but it ran or is gone", file=sys.stderr)
    print(f"{len(codes)} commands; {len(defined)} functions, {len(unrun)} unrun, "
          f"{len(bad)} not allowed, {len(stale)} stale allowances")
    return 1 if bad or stale or failed else 0


if __name__ == "__main__":
    sys.exit(main())
