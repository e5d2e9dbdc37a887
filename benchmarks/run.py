"""yangianpp benchmark: time to a certified verdict, per scalar mode.

Run from the repository root:

    python3 benchmarks/run.py --workload c3-suite --seed 2024 --seconds 20 --trace 0

The package is imported from ./src; nothing is installed or built.  With
`--trace 0` the run reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates untraced and traced repeats and reports the
per-layer metrics, including the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object.  A run record (and, when
traced, every span) is written under .bench_out/.

Repeats run back to back until --seconds have passed (at least one).  Repeat
k draws its parameters from seed * 1000 + k, so the same seed always gives
the same inputs.  Default seed 2024; claims must also hold on the held-out
seed 7411.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 2024
HELD_OUT_SEED = 7411
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import yangianpp, yangianpp.cli\n"
    "from yangianpp.exact import random_params\n"
    "random_params({seed}, mode='rational')\n"
    "random_params({seed}, mode='prime-field')\n"
)


def import_package():
    """Import yangianpp from ./src and nowhere else; False when absent."""
    if not (SRC / "yangianpp" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import yangianpp

    return Path(yangianpp.__file__).resolve().is_relative_to(SRC)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def code_hash():
    """Checksum of every file under src/ and of the benchmark's own code, as
    16 hex digits: two runs with the same checksum run the same code,
    committed or not.  zlib rather than hashlib, whose OpenSSL library would
    add some 3.6 MB of the harness's own to `peak_rss_mb`."""
    crc, adler = 0, 1
    files = sorted(f for f in SRC.rglob("*") if f.is_file() and "__pycache__" not in f.parts)
    files += sorted(Path(__file__).parent.glob("*.py"))
    for f in files:
        data = f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes() + b"\0"
        crc, adler = zlib.crc32(data, crc), zlib.adler32(data, adler)
    return f"{crc:08x}{adler:08x}"


def measure_setup(seed):
    """Wall seconds for fresh interpreters to import and specialize.

    One untimed start first writes the bytecode caches, which users pay once.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE.format(seed=seed)]
    times = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
        if k:
            times.append(time.perf_counter() - t0)
    return times


def run_repeat(workload, seed, rec=None):
    """Run every unit of one repeat; returns (unit results, shared context)."""
    ctx = {}
    results = []
    for unit in workload.units(seed, ctx):
        span = rec.open("unit") if rec else None
        error, value = None, None
        t0 = time.perf_counter()
        try:
            value = unit.call()
        except Exception as exc:  # a crash is a failed unit, not a harness error
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if rec:
            rec.close(span)
        if error is None:
            try:
                error = unit.verify(value)
            except Exception as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        results.append({
            "label": unit.label, "mode": unit.mode, "seed": seed, "seconds": dt,
            "verdict": unit.verdict, "error": error, "known_defect": unit.classify(error),
            "span": span,
        })
    return results, ctx


def verdict_time(results, mode):
    """Seconds to the mode's verdict in one repeat; None unless all passed."""
    units = [r for r in results if r["mode"] == mode and r["verdict"]]
    if not units or any(r["error"] for r in units):
        return None
    return sum(r["seconds"] for r in units)


def describe(values):
    """Median, quartiles, sample count and, once there are more than ten
    samples, the highest percentile that has at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    p = int(100 * (1 - 10 / n)) if n > 10 else 0
    if p > 50:
        out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return out


def layer_totals(rec, results, ctx):
    """Self time per span name and counters over one traced repeat's units."""
    import tracer

    times = dict.fromkeys(tracer.span_names(), 0.0)
    units = []
    for r in results:
        own = rec.self_times(r["span"])
        unattributed = own.pop("unit", 0.0)
        for name, t in own.items():
            times[name] += t
        units.append({"label": r["label"], "mode": r["mode"], "wall_s": r["seconds"],
                      "layers_s": sum(own.values()), "unattributed_s": unattributed})
    counts = {name: rec.counts.get(name, 0) for name in tracer.COUNTERS}
    counts["reps.file_bytes"] = ctx.get("file_bytes", 0)
    return {"self_s": times, "counts": counts, "units": units}


def self_metric_name(span):
    return "cli.self_s" if span == "cli.main" else span + "_s"


def end_to_end_metrics(setup, untraced, modes, rss_mb):
    stats = {"setup_s": describe(setup)}
    for m in modes:
        times = [verdict_time(rep, m) for rep in untraced]
        stats[f"verdict_s.{m}"] = describe([t for t in times if t is not None])
    metrics = {name: {"value": st["median"], "unit": "s"}
               for name, st in stats.items() if st["median"] is not None}
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return metrics, stats


def per_layer_metrics(layers, untraced, traced, modes):
    import tracer

    metrics, stats = {}, {}
    for span in tracer.span_names():
        name = self_metric_name(span)
        stats[name] = describe([lay["self_s"][span] for lay in layers])
        metrics[name] = {"value": stats[name]["median"], "unit": "s"}
    for name, value in layers[0]["counts"].items():
        metrics[name] = {"value": value, "unit": "bytes" if name.endswith("bytes") else "count"}
    units = [u for lay in layers for u in lay["units"]]
    wall = sum(u["wall_s"] for u in units)
    metrics["trace.attributed_share"] = {
        "value": 1 - sum(u["unattributed_s"] for u in units) / wall, "unit": "ratio"}
    for m in modes:
        pairs = [(verdict_time(t, m), verdict_time(u, m)) for u, t in zip(untraced, traced)]
        diffs = [t - u for t, u in pairs if t is not None and u is not None]
        if diffs:
            stats[f"trace.overhead_s.{m}"] = describe(diffs)
            metrics[f"trace.overhead_s.{m}"] = {"value": stats[f"trace.overhead_s.{m}"]["median"],
                                                "unit": "s"}
    return metrics, stats


def _metric_line(name, value, unit, stats=None):
    shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
    text = f"{name:34s} {shown} {unit}"
    if stats:
        extra = f"n={stats['n']}"
        if "q1" in stats:
            extra += f", q1={stats['q1']:.6g}, q3={stats['q3']:.6g}"
        highs = [k for k in stats if k.startswith("p")]
        extra += f", {highs[0]}={stats[highs[0]]:.6g}" if highs else ", no high percentile (n <= 10)"
        text += f"   ({extra})"
    return text


def run(workload_name, seed, seconds, trace, sizes=None, out_dir=OUT):
    """One benchmark run; returns (result object, summary lines, run record)."""
    import tracer
    import workloads

    sizes = sizes or workloads.FULL
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[workload_name](sizes, out_dir)
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(), "git_sha": git_sha(), "code_hash": code_hash(),
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
        "sizes": {k: getattr(sizes, k) for k in sizes.__dataclass_fields__},
    }
    setup = [] if trace else measure_setup(seed)

    untraced, traced, layers, spans = [], [], [], []
    counter_mismatch, counter_changes = [], []
    start = time.perf_counter()
    k = 0

    def traced_repeat(sub_seed):
        rec = tracer.Recorder()
        with tracer.installed(rec):
            results, ctx = run_repeat(workload, sub_seed, rec)
        traced.append(results)
        layers.append(layer_totals(rec, results, ctx))
        record.setdefault("states_per_level", rec.level_sizes)
        record.setdefault("nnz_per_operator", rec.operator_nnz)
        now, first = (tracer.structural(lay["counts"]) for lay in (layers[-1], layers[0]))
        if now != first:
            counter_mismatch.append(f"repeat {k}: {now} != {first}")
        spans.append({"repeat": k, "spans": rec.spans})

    while k == 0 or time.perf_counter() - start < seconds:
        sub_seed = seed * 1000 + k
        # a traced run pairs each untraced repeat with a traced one on the same
        # inputs, alternating which goes first so drift in machine speed does
        # not bias the overhead
        if trace and k % 2:
            traced_repeat(sub_seed)
        untraced.append(run_repeat(workload, sub_seed)[0])
        if trace and not k % 2:
            traced_repeat(sub_seed)
        k += 1
    measured = time.perf_counter() - start
    # read before the checks below parse outputs, which the peak must not include
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.deferred(untraced[-1])

    control_ok, control_detail = workload.control(seed)
    record["control"] = {"failed_as_required": control_ok, "detail": control_detail}

    units = [r for rep in untraced + traced for r in rep]
    unexpected = [r for r in units if r["error"] and not r["known_defect"]]
    known = [r for r in units if r["error"] and r["known_defect"]]
    attempted = len(units) + 1
    failed = len(unexpected) + len(known) + (0 if control_ok else 1)

    lines = [
        f"workload {workload_name}  seed {seed}  trace {trace}  repeats {k}  "
        f"measured {measured:.1f} s  python {record['python']}  nproc {record['nproc']}  "
        f"sha {record['git_sha'][:12]}  code {record['code_hash']}",
    ]
    if trace:
        metrics, stats = per_layer_metrics(layers, untraced, traced, workloads.MODES)
        record["per_unit_trace"] = [lay["units"] for lay in layers]
        earlier, counter_changes = _compare_saved_counts(
            out_dir, workload_name, seed, record["code_hash"], layers[0]["counts"])
        counter_mismatch += earlier
    else:
        metrics, stats = end_to_end_metrics(setup, untraced, workloads.MODES, rss_mb)

    for name, m in metrics.items():
        lines.append(_metric_line(name, m["value"], m["unit"], stats.get(name)))
    lines.append(
        f"{'fail_ratio':34s} {failed / attempted:>14.6g} ratio   ({failed} failed of "
        f"{attempted} attempted: {len(units)} units, 1 negative control)"
    )
    plain = [r for rep in untraced for r in rep]
    for m in workloads.MODES:
        for label in sorted({r["label"] for r in plain if r["mode"] == m and not r["verdict"]}):
            vals = [r["seconds"] for r in plain if r["label"] == label and not r["error"]]
            if vals:
                lines.append(f"  not in verdict_s: {label}: median {statistics.median(vals):.4f} s (n={len(vals)})")
    for r in known[:1]:
        lines.append(f"  known defect, counted as failed: {r['label']}: {r['known_defect']}: {r['error']}")
    for r in unexpected[:5]:
        lines.append(f"  FAILED: {r['label']} [{r['mode']}] seed {r['seed']}: {r['error']}")
    lines.append(f"  negative control ({control_detail}): "
                 + ("failed as required" if control_ok else "PASSED, which is wrong"))
    for text in counter_mismatch:
        lines.append(f"  COUNTER MISMATCH: {text}")
    for text in counter_changes:
        lines.append(f"  counters changed with the code: {text}")
    if trace:
        worst = min(u["layers_s"] / u["wall_s"] for rep in record["per_unit_trace"] for u in rep)
        lines.append(f"  layers account for {metrics['trace.attributed_share']['value']:.4%} "
                     f"of traced unit time (lowest unit {worst:.4%}); the rest is harness "
                     "glue around each call")

    expected = expected_metrics(trace)
    correct = (not unexpected and control_ok and not counter_mismatch
               and set(metrics) == expected)
    record["loadavg_end"] = os.getloadavg()
    record["units"] = units
    record["metrics"] = metrics
    record["stats"] = stats
    record["counter_mismatch"] = counter_mismatch
    record["setup_samples"] = setup
    if spans:
        (out_dir / f"{workload_name}-seed{seed}-spans.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in spans)
        )
    (out_dir / f"{workload_name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    lines.append(f"  load average {record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines, record


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(trace):
    return {m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]}


def _compare_saved_counts(out_dir, workload_name, seed, code, counts):
    """Compare with earlier traced runs of this workload and seed.

    Returns (mismatches, changes).  A counter that differs from a run of the
    same code (same `code_hash`) is a mismatch; one that differs from the
    latest run of other code is only a change, since a change to the code may
    change a count on purpose.
    """
    stem = f"{workload_name}-seed{seed}-counts-"
    path = out_dir / f"{stem}{code}.json"
    mismatches, changes = [], []
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            mismatches.append(f"earlier run of this code with seed {seed}: {before} != {counts}")
    else:
        others = sorted(out_dir.glob(stem + "*.json"), key=lambda f: f.stat().st_mtime)
        if others:
            before = json.loads(others[-1].read_text())
            changes = [f"{k}: {before.get(k)} -> {v} (since code {others[-1].stem[len(stem):]})"
                       for k, v in counts.items() if before.get(k) != v]
        path.write_text(json.dumps(counts, sort_keys=True) + "\n")
    return mismatches, changes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in benchmark_spec()["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not import_package():
        print(f"benchmark: no yangianpp package under {SRC}", file=sys.stderr)
        return 2
    result, lines, _ = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
