"""The CLI's JSON outputs, byte for byte, against tests/golden_reports.json.

`rep check` reports (without their `time` fields) and `shift` outputs for
c3 N=5 and conifold m in {2, 3} x sectors {1, 2} N=4, both modes, seed 2024;
the SHA-256 of the `rep build` files for c3 N=5 and conifold m=3 x sectors
{1, 2} N=4 at `--imax 2`, for c3 N=8 at `--imax 3` (the benchmark's
round-trip file, seed 2024000) and for conifold m=5 sector 2 N=5 at
`--imax 2`, both modes; and the `enum` outputs for plane
partitions up to 6 boxes and length-3 pyramids up to 8 stones, in every
sector and in sectors 1 and 2; `shuffle mul` of `x x^2` and `1 x` and the
`shuffle check` reports (without `time`) for the kernels c3, a1 and
jordan:3/2; and the SHA-256 of each demo's stdout, which
tests/test_demos.py compares.
A change that should leave every output alone must pass this unchanged.
Regenerate the file only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from yangianpp.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")
ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

GEOMETRIES = [("c3", "1", "5")] + [
    (f"conifold:{m}", str(sector), "4") for m in (2, 3) for sector in (1, 2)
]
BUILDS = [("c3", "1", "5", "2", "2024")] + [("conifold:3", str(sector), "4", "2", "2024") for sector in (1, 2)] + [
    ("c3", "1", "8", "3", "2024000"),  # the file of the benchmark's c3-roundtrip, first repeat
    ("conifold:5", "2", "5", "2", "2024"),
]
MODES = ("rational", "prime-field")
ENUMS = [
    ["enum", "pp", "--max-boxes", "6"],
    ["enum", "pyramid", "--length", "3", "--max-stones", "8"],
] + [["enum", "pyramid", "--length", "3", "--max-stones", "8", "--sector", s] for s in ("1", "2")]
KERNELS = ("c3", "a1", "jordan:3/2")
OPERANDS = (("x", "x^2"), ("1", "x"))


def runs():
    for geometry, sector, level in GEOMETRIES:
        common = ["--geometry", geometry, "--sector", sector, "--level", level]
        for mode in MODES:
            tail = ["--mode", mode, "--seed", "2024"]
            yield ["rep", "check"] + common + ["--imax", "2"] + tail
            yield ["shift"] + common + tail
    for geometry, sector, level, imax, seed in BUILDS:
        for mode in MODES:
            yield ["rep", "build", "--geometry", geometry, "--sector", sector, "--level", level,
                   "--imax", imax, "--mode", mode, "--seed", seed]
    yield from ENUMS
    for kernel in KERNELS:
        for left, right in OPERANDS:
            yield ["shuffle", "mul", left, right, "--kernel", kernel, "--seed", "2024"]
        yield ["shuffle", "check", "--kernel", kernel, "--seed", "2024"]


def demo_sha256(demo):
    """SHA-256 of one demo's stdout, run on this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(proc.stdout).hexdigest()


def canonical(argv):
    """Exit code and stdout of one CLI run, with report times dropped; the
    SHA-256 of the stdout stands in for a `rep build` file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if argv[:2] == ["rep", "build"]:
        return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    data = json.loads(out.getvalue())
    for report in data.get("relations", ()):
        del report["time"]
    return {"exit": code, "stdout": json.dumps(data, sort_keys=True, indent=1)}


def generate():
    out = {" ".join(argv): canonical(argv) for argv in runs()}
    out.update({f"demo {d.name}": {"sha256": demo_sha256(d)} for d in DEMOS})
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", list(runs()), ids=" ".join)
def test_output_matches_golden(golden, argv):
    assert canonical(argv) == golden[" ".join(argv)]


def test_golden_covers_every_run(golden):
    want = [" ".join(argv) for argv in runs()] + [f"demo {d.name}" for d in DEMOS]
    assert sorted(golden) == sorted(want)


if __name__ == "__main__":
    json.dump(generate(), sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
