"""Every demo runs to completion and prints what tests/golden_reports.json
pins for it."""

import json

import pytest

from test_golden_reports import DEMOS, GOLDEN, demo_sha256


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    golden = json.loads(GOLDEN.read_text())
    assert demo_sha256(demo) == golden[f"demo {demo.name}"]["sha256"]
