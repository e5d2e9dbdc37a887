"""Span and counter recording around the package's public callables.

The benchmark, not the package, owns the instrumentation: `installed`
swaps each target callable for a wrapper that records a span (name, start,
end, parent) and bumps counters from the call's arguments and result, and
puts the originals back on exit.  Spans stay in memory until the run ends.

Functions that other modules import by name (``detect_shift``,
``dump_operators``) are patched in every module that bound them, so a call
is recorded whichever module makes it.
"""

from __future__ import annotations

import contextlib
import time
import weakref
from collections import Counter, defaultdict

from yangianpp import cli, exact, partitions3d, pyramid, relations, reps, shuffle


class Recorder:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.level_sizes = []  # one list of states per level per enumeration
        self.operator_nnz = []  # nnz of every assembled operator, in build order
        self._stack = []
        self._transitions_seen = weakref.WeakKeyDictionary()

    def open(self, name) -> int:
        """Start a span as a child of the innermost open one; its index."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self, root):
        """Span name -> summed self time (duration minus child durations) over
        span `root` and its descendants."""
        keep = {root}
        for k in range(root + 1, len(self.spans)):  # children start after parents
            if self.spans[k][3] in keep:
                keep.add(k)
        child = defaultdict(float)
        for k in keep:
            name, start, end, parent = self.spans[k]
            child[parent] += end - start
        out = defaultdict(float)
        for k in keep:
            name, start, end, _ = self.spans[k]
            out[name] += end - start - child[k]
        return dict(out)


def _nnz(op):
    return sum(len(b) for b in op.blocks.values())


def _count_pp(rec, args, levels):
    rec.counts["partitions3d.states"] += sum(len(L) for L in levels)
    rec.level_sizes.append(["partitions3d"] + [len(L) for L in levels])


def _count_pyramids(rec, args, groups):
    rec.counts["pyramid.states"] += sum(len(p) for p in groups.values())
    rec.level_sizes.append(["pyramid"] + [len(groups[k]) for k in sorted(groups)])


def _count_transitions(rec, args, result):
    rep, n = args[0], args[1]
    seen = rec._transitions_seen.setdefault(rep, set())
    if n not in seen:  # Representation memoizes per level; count computed ones
        seen.add(n)
        rec.counts["exact.transitions"] += len(result)


def _count_operator(rec, args, op):
    rec.counts["reps.operators"] += 1
    rec.counts["reps.nnz"] += _nnz(op)
    rec.operator_nnz.append(_nnz(op))


def _count_compose(rec, args, op):
    rec.counts["reps.compose_calls"] += 1
    rec.counts["reps.compose_nnz_out"] += _nnz(op)


def _count_domain(rec, args, report):
    rec.counts["relations.domain"] += report.domain


def _counter(name):
    def count(rec, args, result):
        rec.counts[name] += 1

    return count


def _count_expanded(rec, args, result):
    rec.counts["shuffle.expanded_terms"] += len(args[0].terms)


# (owners, attribute, span name, counter).  Owners is every object whose
# attribute a caller may look the callable up on.
TARGETS = [
    ((partitions3d,), "enumerate_plane_partitions", "partitions3d.enum", _count_pp),
    ((pyramid,), "enumerate_pyramids", "pyramid.enum", _count_pyramids),
    ((pyramid,), "build_erc", "pyramid.enum", None),
    ((exact.Params,), "make", "exact.params", None),
    ((reps.Representation,), "transitions", "exact.transition", _count_transitions),
    ((exact.LinForm,), "residue_at_infinity", "exact.residue_inf", _counter("exact.residue_inf_calls")),
    ((reps.Representation,), "build_e", "reps.assembly", _count_operator),
    ((reps.Representation,), "build_f", "reps.assembly", _count_operator),
    ((reps.SparseOperator,), "compose", "reps.compose", _count_compose),
    ((reps.SparseOperator,), "from_json", "reps.load", None),
    ((reps, cli), "dump_operators", "reps.dump", None),
    ((reps, relations, cli), "detect_shift", "reps.shift", None),
    ((relations,), "check_ef_diag", "relations.ef_diagonal", _count_domain),
    ((relations,), "check_ef_matches_h", "relations.ef_matches_h", _count_domain),
    ((relations,), "check_ee", "relations.ee_quadratic", _count_domain),
    ((relations,), "check_ff", "relations.ff_quadratic", _count_domain),
    ((relations,), "check_serre_e", "relations.serre_e", _count_domain),
    ((relations,), "check_serre_f", "relations.serre_f", _count_domain),
    ((relations,), "check_psi_e_compat", "relations.psi_e_compat", _count_domain),
    ((relations,), "check_pole_support", "relations.pole_support", _count_domain),
    ((relations,), "check_shift", "relations.shift", _count_domain),
    ((shuffle,), "shuffle_mul", "shuffle.mul", _counter("shuffle.mul_calls")),
    ((shuffle.MPoly,), "divide_exact_linear", "shuffle.divide", _count_expanded),
    ((shuffle,), "check_assoc", "shuffle.assoc", None),
    ((shuffle,), "check_c3_ee", "shuffle.ee", None),
    ((cli,), "main", "cli.main", None),
]

#: Every counter a traced repeat reports, present even when its layer idles.
COUNTERS = (
    "partitions3d.states",
    "pyramid.states",
    "exact.transitions",
    "exact.residue_inf_calls",
    "reps.operators",
    "reps.nnz",
    "reps.compose_calls",
    "reps.compose_nnz_out",
    "reps.file_bytes",
    "relations.domain",
    "shuffle.mul_calls",
    "shuffle.expanded_terms",
)


#: Counters that depend on the digits of the parameter draw, so they repeat
#: only between runs with the same seed, not between repeats of one run.
PARAMETER_DEPENDENT = ("reps.file_bytes",)


def structural(counts):
    """The counters every repeat of a run must reproduce exactly."""
    return {k: v for k, v in counts.items() if k not in PARAMETER_DEPENDENT}


def span_names():
    return sorted({name for _, _, name, _ in TARGETS})


def _wrapped(rec, raw, name, count):
    if isinstance(raw, classmethod):
        return classmethod(rec.wrap(name, raw.__func__, count))
    return rec.wrap(name, raw, count)


@contextlib.contextmanager
def installed(rec: Recorder):
    """Route every target through `rec` for the duration of the block."""
    saved = []
    try:
        for owners, attr, name, count in TARGETS:
            new = _wrapped(rec, owners[0].__dict__[attr], name, count)
            for owner in owners:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
