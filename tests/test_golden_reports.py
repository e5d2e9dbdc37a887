"""The CLI's JSON outputs, byte for byte, against tests/golden_reports.json.

`rep check` reports (without their `time` fields) and `shift` outputs for
c3 N=5 and conifold m in {2, 3} x sectors {1, 2} N=4, both modes, seed 2024.
A change that should leave every output alone must pass this unchanged.
Regenerate the file only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from yangianpp.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

GEOMETRIES = [("c3", "1", "5")] + [
    (f"conifold:{m}", str(sector), "4") for m in (2, 3) for sector in (1, 2)
]
MODES = ("rational", "prime-field")


def runs():
    for geometry, sector, level in GEOMETRIES:
        common = ["--geometry", geometry, "--sector", sector, "--level", level]
        for mode in MODES:
            tail = ["--mode", mode, "--seed", "2024"]
            yield ["rep", "check"] + common + ["--imax", "2"] + tail
            yield ["shift"] + common + tail


def canonical(argv):
    """Exit code and stdout of one CLI run, with report times dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    data = json.loads(out.getvalue())
    for report in data.get("relations", ()):
        del report["time"]
    return {"exit": code, "stdout": json.dumps(data, sort_keys=True, indent=1)}


def generate():
    return {" ".join(argv): canonical(argv) for argv in runs()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", list(runs()), ids=" ".join)
def test_output_matches_golden(golden, argv):
    assert canonical(argv) == golden[" ".join(argv)]


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in runs())


if __name__ == "__main__":
    json.dump(generate(), sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
