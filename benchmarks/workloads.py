"""The benchmark's workloads: program calls to time, and how to check them.

A unit is one call into the package (the CLI's `main` or a public library
function) plus a check of what it returned; only the call is timed.  A
workload yields its units for one repeat at one parameter seed, and has one
negative control: a deliberately broken input that the package must reject.
Checks that must parse large outputs run once after the timed repeats
(`deferred`), so that the parsed data stays out of the measured peak memory.

Why each workload exists, which layer it stresses and which it bypasses is
recorded in BENCHMARK.json and README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from yangianpp import cli, relations, shuffle
from yangianpp.exact import PRIME, random_params, rational_str
from yangianpp.relations import OperatorSet
from yangianpp.reps import Geometry, Representation, SparseOperator

#: Benchmark mode name -> the package's mode name.
MODES = {"rational": "rational", "prime": "prime-field"}

#: Plane partitions with n boxes (OEIS A000219): an oracle for c3 bases.
PLANE_PARTITION_COUNTS = (1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500)

#: Relations one specialization of `rep check` reports.
SUITE_RELATIONS = (
    "ef-diagonal", "ef-matches-h", "ee-quadratic", "ff-quadratic", "serre-e",
    "serre-f", "psi-e-compat", "pole-support", "shift",
)

#: (geometry, sector, level) -> relations whose domain was empty when this
#: benchmark was defined (the finite pyramid bases are too shallow for them).
#: Every other relation must pass; an empty domain there is a failure.
EXPECTED_EMPTY = {
    ("conifold:3", 1, 5): {"serre-f"},
    ("conifold:2", 1, 3): {"ff-quadratic", "serre-f"},
    ("conifold:2", 2, 3): {"ff-quadratic", "psi-e-compat", "serre-f"},
}


@dataclass(frozen=True)
class Sizes:
    c3_level: int = 6
    imax: int = 2
    conifold_ms: tuple = (3, 4, 5)
    conifold_sectors: tuple = (1, 2)
    conifold_level: int = 5
    shuffle_trials: int = 12  # prime-field unit; `shuffle check` always runs 12
    shuffle_imax: int = 2
    roundtrip_level: int = 8
    roundtrip_imax: int = 3


FULL = Sizes()
SMOKE = Sizes(
    c3_level=3, conifold_ms=(2,), conifold_level=3, shuffle_trials=2,
    shuffle_imax=1, roundtrip_level=3, roundtrip_imax=1,
)


@dataclass
class Unit:
    label: str
    mode: str  # key of MODES
    call: Callable[[], object]
    verify: Callable[[object], str | None]  # error text, or None when right
    verdict: bool = True  # counts toward verdict_s.<mode>
    known_defect: str = ""  # failure known when this benchmark was defined, and why
    known_symptom: str = ""  # the exact error of that failure; any other error is new

    def classify(self, error):
        """The known defect this error is, or "" when it is not one."""
        return self.known_defect if error and error == self.known_symptom else ""


def run_cli(argv):
    """cli.main with stdout/stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_error(code, err, want=0):
    if code != want:
        return f"exit {code} (want {want}): {err.strip()[:200]}"
    return None


def _expected_shift(kind, level, m, sector, seed, mode):
    """(l, z1) as the CLI prints them, for specialization 0 of `seed`."""
    params = random_params(seed, mode=MODES[mode])
    l, z1 = relations.expected_shift(Geometry(kind, params, level, m=m, sector=sector))
    return {"l": l, "z1": rational_str(z1)}


def _suite_unit(kind, level, imax, m, sector, seed, mode):
    geometry = "c3" if kind == "c3" else f"conifold:{m}"
    argv = [
        "rep", "check", "--geometry", geometry, "--sector", str(sector),
        "--level", str(level), "--imax", str(imax), "--specializations", "1",
        "--mode", MODES[mode], "--seed", str(seed),
    ]

    def verify(res):
        code, out, err = res
        if code != 0:
            return _exit_error(code, err)
        data = json.loads(out)
        got = [r["id"] for r in data["relations"]]
        if sorted(got) != sorted(SUITE_RELATIONS):
            return f"relations reported {got}"
        may_be_empty = EXPECTED_EMPTY.get((geometry, sector, level), set())
        bad = [
            f"{r['id']}={r['status']}" for r in data["relations"]
            if r["status"] != "pass" and not (r["status"] == "empty-domain" and r["id"] in may_be_empty)
        ]
        if bad:
            return "not passing: " + ", ".join(bad)
        want = _expected_shift(kind, level, m, sector, seed, mode)
        if data.get("shift") != want:
            return f"shift {data.get('shift')} != expected {want}"
        return None

    return Unit(f"rep check {geometry} sector {sector} N={level}", mode,
                lambda: run_cli(argv), verify)


def _shift_unit(m, sector, level, seed, mode):
    argv = [
        "shift", "--geometry", f"conifold:{m}", "--sector", str(sector),
        "--level", str(level), "--mode", MODES[mode], "--seed", str(seed),
    ]

    def verify(res):
        code, out, err = res
        if code != 0:
            return _exit_error(code, err)
        want = _expected_shift("conifold", level, m, sector, seed, mode)
        got = json.loads(out)
        return None if got == want else f"shift {got} != expected {want}"

    return Unit(f"shift conifold:{m} sector {sector}", mode, lambda: run_cli(argv), verify)


class _PerturbedE0(OperatorSet):
    """The representation's operators with one entry of e_0 bumped by 1."""

    def __init__(self, rep):
        super().__init__(rep)
        e0 = rep.build_e(0)
        self.e0 = SparseOperator(e0.shift, {n: dict(b) for n, b in e0.blocks.items()})
        n = min(self.e0.blocks)
        tgt, src = min(self.e0.blocks[n])
        self.e0.add_entry(n, tgt, src, 1)

    def e(self, i):
        return self.e0 if i == 0 else super().e(i)


def _ef_control(kind, level, imax, m, sector, seed):
    rep = Representation(Geometry(kind, random_params(seed), level, m=m, sector=sector))
    report = relations.check_ef_diag(_PerturbedE0(rep), imax)
    return report.status == "fail", f"check_ef_diag on a perturbed e_0: {report.status}"


class Workload:
    def __init__(self, sizes, workdir):
        self.s = sizes
        self.workdir = Path(workdir)

    def deferred(self, results):
        """Checks of the last repeat's `results` that run after the timed
        repeats; they mark a failing unit by setting its "error"."""


class C3Suite(Workload):
    name = "c3-suite"

    def units(self, seed, ctx):
        for mode in MODES:
            yield _suite_unit("c3", self.s.c3_level, self.s.imax, 0, 1, seed, mode)

    def control(self, seed):
        return _ef_control("c3", self.s.c3_level, self.s.imax, 0, 1, seed)


class ConifoldSweep(Workload):
    name = "conifold-sweep"

    def units(self, seed, ctx):
        s = self.s
        for mode in MODES:
            for m in s.conifold_ms:
                for sector in s.conifold_sectors:
                    yield _suite_unit("conifold", s.conifold_level, s.imax, m, sector, seed, mode)
                    yield _shift_unit(m, sector, s.conifold_level, seed, mode)

    def control(self, seed):
        s = self.s
        return _ef_control("conifold", s.conifold_level, s.imax, s.conifold_ms[0],
                           s.conifold_sectors[0], seed)


def _reports_error(reports):
    bad = [f"{r.relation}={r.status}" for r in reports if r.status != "pass"]
    return "not passing: " + ", ".join(bad) if bad else None


class ShuffleC3(Workload):
    name = "shuffle-c3"

    def _prime_checks(self, seed):
        params = random_params(seed, mode=MODES["prime"])
        kernel = shuffle.Kernel.c3(params)
        return [
            shuffle.check_assoc(kernel, trials=self.s.shuffle_trials),
            shuffle.check_c3_ee(params, imax=self.s.shuffle_imax),
        ]

    def units(self, seed, ctx):
        argv = ["shuffle", "check", "--kernel", "c3", "--params", "random", "--seed", str(seed)]

        def verify(res):
            code, out, err = res
            if code != 0:
                return _exit_error(code, err)
            rels = json.loads(out)["relations"]
            ids = [r["id"] for r in rels]
            if ids != ["associativity", "c3-ee-quadratic"]:
                return f"relations reported {ids}"
            bad = [f"{r['id']}={r['status']}" for r in rels if r["status"] != "pass"]
            return "not passing: " + ", ".join(bad) if bad else None

        yield Unit("shuffle check --kernel c3", "rational", lambda: run_cli(argv), verify)
        # `shuffle check` has no --mode, so prime-field runs through the library
        yield Unit("check_assoc + check_c3_ee", "prime",
                   lambda: self._prime_checks(seed), _reports_error)

    def control(self, seed):
        report = shuffle.check_c3_ee(random_params(seed), imax=1, sigma2_sign=+1)
        return report.status == "fail", f"check_c3_ee with sigma2_sign=+1: {report.status}"


def _field_value(s):
    """A file entry 'p/q' as an element of GF(PRIME)."""
    fr = Fraction(s)
    return fr.numerator * pow(fr.denominator, -1, PRIME) % PRIME


def _same_operators_mod_p(rational, prime):
    """None when every prime-mode entry is the rational entry reduced mod p."""
    for fam in ("e", "f"):
        for key, rop in rational["operators"][fam].items():
            pop = prime["operators"][fam][key]
            for rlev, plev in zip(rop["levels"], pop["levels"], strict=True):
                for (i, j, rv), (pi, pj, pv) in zip(rlev["entries"], plev["entries"], strict=True):
                    if (i, j) != (pi, pj) or _field_value(rv) != int(pv):
                        return f"{fam}_{key} level {rlev['n']} entry ({i},{j}): {pv} != {rv} mod p"
    return None


class C3Roundtrip(Workload):
    name = "c3-roundtrip"

    #: How the prime-field round trip fails (see ROADMAP.md), exactly.
    PRIME_SYMPTOM = "exit 1 (want 0): operator file mismatch: e_0 disagrees with recomputation"

    def path(self, mode):
        return self.workdir / f"ops-{mode}.json"

    def units(self, seed, ctx):
        s = self.s
        for mode in MODES:
            path = self.path(mode)
            build = [
                "rep", "build", "--geometry", "c3", "--level", str(s.roundtrip_level),
                "--imax", str(s.roundtrip_imax), "--mode", MODES[mode],
                "--seed", str(seed), "--out", str(path),
            ]
            yield Unit(f"rep build ({MODES[mode]})", mode,
                       lambda argv=build, p=path: (run_cli(argv), p.stat().st_size),
                       lambda res: self._verify_build(res, ctx))
            check = ["rep", "check", "--operators", str(path)]
            prime = mode == "prime"
            # the prime check fails by a known defect, so it stays out of
            # verdict_s.prime: fixing the defect must not read as a slowdown
            yield Unit(
                f"rep check --operators ({MODES[mode]})", mode,
                lambda argv=check: run_cli(argv), self._verify_check, verdict=not prime,
                known_defect="a prime-field operator file fails its own round trip "
                "(see ROADMAP.md)" if prime else "",
                known_symptom=self.PRIME_SYMPTOM if prime else "",
            )

    @staticmethod
    def _verify_build(res, ctx):
        (code, out, err), size = res
        if code != 0:
            return _exit_error(code, err)
        ctx["file_bytes"] = ctx.get("file_bytes", 0) + size
        return None if size else "empty operator file"

    @staticmethod
    def _verify_check(res):
        code, out, err = res
        if code != 0:
            return _exit_error(code, err)
        return None if out.strip() == "operator file verified" else f"stdout {out.strip()!r}"

    def _file_error(self, data):
        counts = [len(L) for L in data["basis"]["levels"]]
        if counts != list(PLANE_PARTITION_COUNTS[: self.s.roundtrip_level + 1]):
            return f"basis sizes {counts}"
        keys = [str(i) for i in range(self.s.roundtrip_imax + 1)]
        if sorted(data["operators"]["e"]) != keys or sorted(data["operators"]["f"]) != keys:
            return "operator set incomplete"
        return None

    def deferred(self, results):
        """Parse the files the last repeat wrote: basis sizes against the
        plane-partition counts, a complete operator set, and every prime-field
        entry equal to the rational entry reduced mod p.  Marks the build unit
        of a bad file as failed."""
        builds = {r["mode"]: r for r in results if r["label"].startswith("rep build")}
        if any(r["error"] for r in builds.values()):
            return
        data = {}
        for mode, r in builds.items():
            data[mode] = json.loads(self.path(mode).read_text())
            r["error"] = self._file_error(data[mode])
        if not any(r["error"] for r in builds.values()):
            builds["prime"]["error"] = _same_operators_mod_p(data["rational"], data["prime"])

    def control(self, seed):
        good = self.path("rational")
        if not good.exists():
            run_cli(["rep", "build", "--geometry", "c3", "--level", str(self.s.roundtrip_level),
                     "--imax", str(self.s.roundtrip_imax), "--seed", str(seed), "--out", str(good)])
        data = json.loads(good.read_text())
        entry = data["operators"]["e"]["0"]["levels"][0]["entries"][0]
        entry[2] = rational_str(Fraction(entry[2]) + 1)
        bad = self.workdir / "ops-altered.json"
        bad.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
        code, out, err = run_cli(["rep", "check", "--operators", str(bad)])
        return code == 1 and "disagrees" in err, f"altered operator file: exit {code}"


WORKLOADS = {w.name: w for w in (C3Suite, ConifoldSweep, ShuffleC3, C3Roundtrip)}
