"""Smoke check of the benchmark harness at tiny sizes.

    python3 benchmarks/smoke.py

Runs every workload once untraced and twice traced with the same seed, at
c3 N=3, conifold m=2 and 2 shuffle trials for the prime-field shuffle unit
(the rational unit is `shuffle check`, which always runs 12, so the smoke
check exercises the same CLI path as a full run), and checks that each run emits
every metric BENCHMARK.json names, that each negative control fails, that
the verdicts are as expected and that counters repeat across the two traced
runs.  Prints the problems and exits 1 if there are any.
"""

from __future__ import annotations

import shutil
import sys

import run


def check(workload, trace, out_dir):
    import workloads

    result, lines, record = run.run(workload, run.DEFAULT_SEED, 0, trace,
                                    sizes=workloads.SMOKE, out_dir=out_dir)
    problems = []
    want = run.expected_metrics(trace)
    got = set(result["metrics"])
    if got != want:
        problems.append(f"missing {sorted(want - got)}, unexpected {sorted(got - want)}")
    for name, m in result["metrics"].items():
        if type(m["value"]) not in (int, float):
            problems.append(f"{name} is not a number: {m['value']!r}")
    if not record["control"]["failed_as_required"]:
        problems.append(f"negative control passed: {record['control']['detail']}")
    if not result["correct"]:
        problems.append("run not correct: " + "; ".join(
            line.strip() for line in lines
            if "FAILED" in line or "MISMATCH" in line or "wrong" in line))
    return [f"{workload} trace {trace}: {p}" for p in problems]


def main():
    if not run.import_package():
        print(f"smoke: no yangianpp package under {run.SRC}", file=sys.stderr)
        return 2
    import workloads

    out_dir = run.OUT / "smoke"
    shutil.rmtree(out_dir, ignore_errors=True)
    problems = []
    listed = [w["name"] for w in run.benchmark_spec()["workloads"]]
    if listed != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json lists {listed}, the harness has {list(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        for trace in (0, 1, 1):
            problems += check(name, trace, out_dir)
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
