"""Exact verification of the shifted-Yangian relation suite on a truncated
fixed-point representation.

The (coefficient, word) tables of `quad_terms`, `serre_terms` and
`commutator` are the single statement of each relation, and the shuffle
check reads the quadratic table.  No check multiplies operators:
`apply_table` applies one table to one source basis vector at a time, by
sparse matrix-vector steps, and a check's cells are the entries of those
vectors.  ef-matches-h and psi-e-compat share psi_k, the diagonal of
[e_0, f_k], built once per k in one pass over e_0's entries (`OperatorSet.psi`).
psi (each state's sum an unreduced (numerator, denominator) pair), the
power-form guard and R_m run on ints read from a scalar's `numerator` and
`denominator` (a prime-field int is itself over 1); only a failing cell's
discrepancy becomes a `Fraction`.

The quadratic, Serre and ef-diagonal checks evaluate only their generating
instance, (m,n)=(0,0), (i1,i2,i3)=(0,0,0) and [e_0,f_0].  On operators of
power form, e_i = x^i e_0 and f_j = x^j f_0 with x the weight of the step,
every instance's word polynomial along a path is the generating one's times
a polynomial of the path's weights that every path of a cell shares
(symmetric for one family; x^i y^j for [e_i,f_j], x added and y removed);
so each check then verifies that power form on every step of its paths,
for every letter its instances read.

Every check runs only on the levels where all intermediate steps stay
inside the truncation; pass means every checked cell is exactly zero.
Reports carry the domain size, (level, instance) cells over every instance,
so an empty domain can never be mistaken for a pass.  No check raises on a
relation failure: the report names the first failing cell.

Sign conventions, pinned by direct computation on the representations and by
the one-vertex shuffle kernel (the tests exercise both, plus the flipped
variants as negative controls):

    quadratic e-relation:  3[e_{m+2},e_{n+1}] - 3[e_{m+1},e_{n+2}]
                           - [e_{m+3},e_n] + [e_m,e_{n+3}]
                           - sigma2 ([e_{m+1},e_n] - [e_m,e_{n+1}])
                           + sigma3 (e_m e_n + e_n e_m) = 0
    quadratic f-relation:  same bracket pattern, with
                           - sigma2 (...) - sigma3 (f_m f_n + f_n f_m) = 0
    psi-e relation:        the e-relation's pattern, with psi_k, the
                           diagonal of [e_0, f_k], as its first letter
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

from .errors import InconsistentShift
from .exact import rational_str, same_field
from .reps import Geometry, Representation, SparseOperator, detect_shift


@dataclass
class RelationReport:
    relation: str
    status: str  # "pass" | "fail" | "empty-domain"
    domain: int  # number of (instance, level) cells checked
    discrepancy: str = "0"
    seconds: float = 0.0
    detail: str = ""

    @property
    def passed(self):
        return self.status == "pass"

    def to_json(self):
        out = {
            "id": self.relation,
            "status": self.status,
            "domain": self.domain,
            "discrepancy": self.discrepancy,
            "time": round(self.seconds, 6),
        }
        if self.detail:
            out["detail"] = self.detail
        return out


class OperatorSet:
    """e_i / f_j operators and psi_k on one representation, built lazily."""

    def __init__(self, rep: Representation):
        self.rep = rep
        self._e = {}
        self._f = {}
        self._psi = {}

    def e(self, i) -> SparseOperator:
        if i not in self._e:
            self._e[i] = self.rep.build_e(i)
        return self._e[i]

    def f(self, j) -> SparseOperator:
        if j not in self._f:
            self._f[j] = self.rep.build_f(j)
        return self._f[j]

    def psi(self, k):
        """psi_k, the diagonal of [e_0, f_k], as {(level, state index): nonzero
        scalar}, one pass over e_0: an entry a at (t, s) from level n and f_k's
        (s, t) entry b at level n + 1 add a*b at (n + 1, t) and take it from
        (n, s), each state's sum kept as an unreduced (numerator, denominator) pair."""
        if k not in self._psi:
            e0, fk = self.e(0), self.f(k)
            field = same_field(same_field(self.rep.geometry.params.field, e0.field), fk.field)
            num, den = {}, {}  # state -> numerator, denominator (absent: 1)
            for n, blk in e0.blocks.items():
                col = fk.blocks.get(n + 1, {})
                for (t, s), a in blk.items():
                    if (b := col.get((s, t))) is None:
                        continue
                    v, w = a.numerator * b.numerator, a.denominator * b.denominator
                    if w == 1 and not den:  # every denominator so far is 1
                        num[n + 1, t] = num.get((n + 1, t), 0) + v
                        num[n, s] = num.get((n, s), 0) - v
                        continue
                    for key, v in (((n + 1, t), v), ((n, s), -v)):
                        c, d = num.get(key, 0), den.get(key, 1)
                        num[key], den[key] = (c + v, d) if d == w else (c * w + v * d, d * w)
            self._psi[k] = field.nonzero({key: field.ratio(v, den.get(key, 1)) for key, v in num.items()})
        return self._psi[k]

    @property
    def top(self):
        return self.rep.basis.top_level


def _nonempty(rep, levels):
    return [n for n in levels if rep.basis.level(n)]


def gen(letter):
    """The one-word table of a single generator."""
    return [(1, (letter,))]


def _table(terms):
    """Collect (coef, word) pairs: equal words add up, zero sums drop out."""
    out = {}
    for c, word in terms:
        out[word] = out.get(word, 0) + c
    return [(c, word) for word, c in out.items() if c != 0]


def commutator(x, y):
    """[x, y] = xy - yx for (coef, word) tables x and y."""
    pairs = [(a * b, u, v) for a, u in x for b, v in y]
    return _table([(c, u + v) for c, u, v in pairs] + [(-c, v + u) for c, u, v in pairs])


def quad_terms(m, n, s2, s3):
    """The quadratic relation for (m, n) on one family of generators X:

        3[X_{m+2},X_{n+1}] - 3[X_{m+1},X_{n+2}] - [X_{m+3},X_n] + [X_m,X_{n+3}]
        - s2 ([X_{m+1},X_n] - [X_m,X_{n+1}]) + s3 (X_m X_n + X_n X_m) = 0

    with s2 = sigma2 and s3 = sigma3 for e, s3 = -sigma3 for f.
    """

    def c(k, i, j):  # k [X_i, X_j]
        return [(k, (i, j)), (-k, (j, i))]

    return _table(
        c(3, m + 2, n + 1) + c(-3, m + 1, n + 2) + c(-1, m + 3, n) + c(1, m, n + 3)
        + c(-s2, m + 1, n) + c(s2, m, n + 1) + [(s3, (m, n)), (s3, (n, m))]
    )


def serre_terms(i1, i2, i3):
    """The cubic Serre relation: sum over permutations (a, b, c) of
    (i1, i2, i3) of [X_a, [X_b, X_{c+1}]] = 0."""
    perms = itertools.permutations((i1, i2, i3))
    return _table(t for a, b, c in perms for t in commutator(gen(a), commutator(gen(b), gen(c + 1))))


def ef_terms(i, j):
    """The table of [e_i, f_j], over the letters ("e", i) and ("f", j)."""
    return commutator(gen(("e", i)), gen(("f", j)))


def apply_table(terms, get, rep, levels):
    """The table applied to every basis vector of each level in `levels`.

    out[n][s] is the vector sum c * X_{w0} ... X_{wr} |s> over the table's
    (c, word) pairs, X_a = get(a), for the basis vector s of level n, as
    {target index: nonzero scalar}.  Words act right to left, by sparse
    matrix-vector steps over the generators' entries; each word suffix is
    applied once per source.  Words run on int numerators over one
    denominator per vector (`field.clear` of each generator block), and the
    table sums its words over the lcm of their denominators; only a nonzero
    cell becomes a scalar (`field.ratio`).
    """
    field = rep.geometry.params.field

    @functools.cache
    def columns(a):  # (shift, source level -> source index -> [(target, numerator)], level -> denominator)
        op = get(a)
        same_field(field, op.field)
        cols, dens = {}, {}
        for n, blk in op.blocks.items():
            nums, dens[n] = field.clear(blk)
            for (t, s), v in nums.items():
                cols.setdefault(n, {}).setdefault(s, []).append((t, v))
        return op.shift, cols, dens

    splits = [(*field.split(c), word) for c, word in terms]
    out = {}
    for n in levels:
        out[n] = rows = []
        for s in range(len(rep.basis.level(n))):
            memo = {(): (n, {s: 1}, 1)}  # word suffix -> (level, numerators, denominator) of it on s
            words = [(p, q, *_applied(word, memo, columns, field)[1:]) for p, q, word in splits]
            d = math.lcm(*{q * vd for _, q, _, vd in words})
            acc = {}
            for p, q, vec, vd in words:
                k = p * (d // (q * vd))
                for t, v in vec.items():
                    acc[t] = acc.get(t, 0) + k * v
            rows.append({t: field.ratio(v, d) for t, v in field.nonzero(acc).items()})
    return out


def _applied(word, memo, columns, field):
    """(level, numerators, denominator) of word on memo[()], each suffix once."""
    if word not in memo:
        n, vec, d = _applied(word[1:], memo, columns, field)
        shift, cols, dens = columns(word[0])
        col, bd = cols.get(n, {}), dens.get(n, 1)
        acc = {}
        for s, c in vec.items():
            for t, v in col.get(s, ()):
                acc[t] = acc.get(t, 0) + v * c
        memo[word] = n + shift, field.nonzero(acc), d * bd
    return memo[word]


def _entry(rep, n, shift, tgt, src):
    """Level, (target, source) indices and labels of one matrix entry."""
    labels = f"{rep.basis.level(n)[src]!r} -> {rep.basis.level(n + shift)[tgt]!r}"
    return f"level {n}, entry ({tgt},{src}): {labels}"


def _report(relation, start, domain, worst, field, detail=""):
    """worst is None or (discrepancy, where) of the first failing cell; the
    discrepancy is a scalar of `field` (its one for a failed property)."""
    dt = time.monotonic() - start
    if domain == 0:
        return RelationReport(relation, "empty-domain", 0, "0", dt)
    if worst is None:
        return RelationReport(relation, "pass", domain, "0", dt, detail)
    v, where = worst
    return RelationReport(relation, "fail", domain, field.str(v), dt, detail=where)


def check_ef_diag(ops: OperatorSet, imax: int) -> RelationReport:
    """[e_i, f_j] is diagonal and its eigenvalues depend only on i + j:
    [e_0, f_0] is diagonal, and e_i, f_j, i, j <= imax, have power form on
    the steps of its paths.  On power-form generators a diagonal entry is a
    sum of (step weight)^(i+j) terms."""
    start = time.monotonic()
    rep = ops.rep
    levels = _nonempty(rep, range(0, ops.top))  # one raising level of headroom
    vecs = apply_table(ef_terms(0, 0), lambda g: getattr(ops, g[0])(g[1]), rep, levels)
    off = [(n, t, s, v) for n in levels for s, vec in enumerate(vecs[n]) for t, v in vec.items() if t != s]
    if off:
        n, t, s, v = min(off)
        worst = (v, f"[e_0,f_0] off the diagonal, {_entry(rep, n, 0, t, s)}")
    else:
        letters = range(imax + 1)
        raising = sorted({k for n in levels for k in (n - 1, n) if k >= 0})
        lowering = sorted({k for n in levels for k in (n, n + 1) if k > 0})  # nothing lowers from level 0
        worst = _power_form(rep, "e", ops.e, raising, letters) or _power_form(rep, "f", ops.f, lowering, letters)
    return _report("ef-diagonal", start, len(levels) * (imax + 1) ** 2, worst, field=rep.geometry.params.field)


def check_ef_matches_h(ops: OperatorSet, nmax: int) -> RelationReport:
    """Eigenvalue of [e_0, f_n] equals eps * Res_inf z^n h(z) with one global eps.

    eps is read off the first cell, in report order, whose two sides are
    nonzero and equal up to sign: the vacuum's [e_0, f_0] cell first.  A
    state that demands the other sign fails like any other cell.  Flipping
    the residue-at-infinity convention flips eps globally.
    """
    start = time.monotonic()
    rep = ops.rep
    field = rep.geometry.params.field
    levels = _nonempty(rep, range(0, ops.top))
    res_inf = {  # label -> Res_inf z^nn h for nn = 0..nmax
        lab: rep.h_rat(lab).residues_at_infinity(range(nmax + 1))
        for n in levels for lab in rep.basis.level(n)
    }
    cells = [  # (level, state index, n, lhs, rhs)
        (n, idx, nn, ops.psi(nn).get((n, idx), field.zero), res_inf[lab][nn])
        for nn in range(nmax + 1) for n in levels for idx, lab in enumerate(rep.basis.level(n))
    ]
    eps = next((1 if a == b else -1 for *_, a, b in cells if a != 0 and a in (b, field.reduce(-b))), 1)
    worst = next(
        ((lhs - eps * rhs, f"[e_0,f_{nn}], {_entry(rep, n, 0, idx, idx)}")
         for n, idx, nn, lhs, rhs in cells if lhs != field.reduce(eps * rhs)),
        None,
    )
    return _report("ef-matches-h", start, len(cells), worst, detail=f"eps={eps:+d}", field=field)


def _power_form(rep, family, get, levels, letters):
    """None when X_i = x^i X_0 entrywise, X = `family`, on the steps from
    every source level in `levels` for every i in `letters`, x the weight
    of the step; else (discrepancy, where) of the first entry that breaks
    it.  An entry on no step breaks it too.  With X_0 = a/b and x = p/q, an
    entry c/d passes when c b q^i = d a p^i, on ints, one power per letter
    (ascending); only a failing x^i X_0 is built as a scalar."""
    field = rep.geometry.params.field
    base = get(0)
    for n in levels:
        if base.shift > 0:  # raising steps from level n, keyed (target, source)
            steps = {(ti, si): x for si, ti, x, _, _ in rep.transitions(n)}
        else:  # lowering steps from level n reverse the raising steps from n - 1
            steps = {(si, ti): x for si, ti, x, _, _ in rep.transitions(n - 1)}
        x0 = base.blocks.get(n, {})
        want = {key: (v.numerator, v.denominator, x.numerator, x.denominator)  # (a p^i, b q^i, p, q)
                for key, x in steps.items() if key in x0 for v in [x0[key]]}
        last = 0
        for i in letters:
            if i > last:
                e, last = i - last, i
                want = {key: (field.reduce(a * p**e), b * q**e, p, q) for key, (a, b, p, q) in want.items()}
            got = get(i).blocks.get(n, {})
            bad = got.keys() - want.keys()
            bad |= {key for key, (a, b, _, _) in want.items()
                    for c in [got.get(key, 0)] if c.numerator * b != c.denominator * a}
            if bad:
                key = min(bad)
                where = f"{family}_{i} != x^{i} {family}_0, {_entry(rep, n, base.shift, *key)}"
                return got.get(key, 0) - (field.reduce(steps[key] ** i * x0[key]) if key in want else 0), where
    return None


def _check(relation, ops, family, levels, instances):
    """A relation family on the generators of `family`, "e" or "f": the
    generating instance, the first of `instances` (name -> table), on every
    source of every nonempty level of `levels`; then the power form of every
    letter the instances read, on every step of those sources' paths."""
    start = time.monotonic()
    rep = ops.rep
    levels = _nonempty(rep, levels)
    get = getattr(ops, family)
    shift = get(0).shift
    name, terms = next(iter(instances.items()))
    length = len(terms[0][1])
    vecs = apply_table(terms, get, rep, levels)
    cells = [(n, t, s, v) for n in levels for s, vec in enumerate(vecs[n]) for t, v in vec.items()]
    if cells:
        n, t, s, v = min(cells)
        worst = (v, f"{name}, {_entry(rep, n, length * shift, t, s)}")
    else:
        steps = sorted({n + r * shift for n in levels for r in range(length)})
        letters = sorted({a for table in instances.values() for _, word in table for a in word})
        worst = _power_form(rep, family, get, steps, letters)
    return _report(relation, start, len(levels) * len(instances), worst, field=rep.geometry.params.field)


def _quads(imax, s2, s3):
    pairs = itertools.product(range(imax + 1), repeat=2)
    return {f"(m,n)=({m},{n})": quad_terms(m, n, s2, s3) for m, n in pairs}


def _serres(imax):
    triples = itertools.combinations_with_replacement(range(imax + 1), 3)
    return {"(i1,i2,i3)=({},{},{})".format(*t): serre_terms(*t) for t in triples}


def check_ee(ops: OperatorSet, imax: int) -> RelationReport:
    p = ops.rep.geometry.params
    return _check("ee-quadratic", ops, "e", range(0, ops.top - 1), _quads(imax, p.sigma2, p.sigma3))


def check_ff(ops: OperatorSet, imax: int) -> RelationReport:
    p = ops.rep.geometry.params
    return _check("ff-quadratic", ops, "f", range(2, ops.top + 1), _quads(imax, p.sigma2, -p.sigma3))


def check_serre_e(ops: OperatorSet, imax: int) -> RelationReport:
    return _check("serre-e", ops, "e", range(0, ops.top - 2), _serres(imax))


def check_serre_f(ops: OperatorSet, imax: int) -> RelationReport:
    return _check("serre-f", ops, "f", range(3, ops.top + 1), _serres(imax))


def check_psi_e_compat(ops: OperatorSet, imax: int) -> RelationReport:
    """The psi-e relation on each raising step lam -> mu at weight x below
    the top level, whose psi is truncated.  With psi_k = ops.psi(k), the
    diagonal of [e_0, f_k] that ef-matches-h reads too, and D_k =
    psi_k(mu) - psi_k(lam), instance (m, 0) is e_0 R_m,

        R_m = 3x D_{m+2} - 3x^2 D_{m+1} - D_{m+3} + x^3 D_m
              - sigma2 (D_{m+1} - x D_m) + sigma3 (psi_m(lam) + psi_m(mu)),

    and on power-form e instance (m, n) is x^n times it: the guard then
    checks e_0..e_{imax+3}.  R_m = 0, whatever the sigmas and the step's
    e_0 f_0, on a step whose two states lie on no other step.  A step's x,
    sigmas and psi values are cleared over one D (each state's psi once),
    and D^4 R_m is an int.
    """
    start = time.monotonic()
    rep, p = ops.rep, ops.rep.geometry.params
    field, ks = p.field, range(imax + 4)
    (s2, s2d), (s3, s3d) = ((s.numerator, s.denominator) for s in (p.sigma2, p.sigma3))
    psis = [ops.psi(k) for k in ks]
    e0 = ops.e(0).blocks
    levels = _nonempty(rep, range(ops.top - 1))  # n + 1 < top
    steps = [(n, si, ti, x) for n in levels for si, ti, x, _, _ in rep.transitions(n)]
    cleared, worst = {}, None  # state -> (its psi_k values times L, L)
    for n, si, ti, x in steps:
        for st in ((n, si), (n + 1, ti)):
            if st not in cleared:
                nums, L = field.clear(dict(enumerate(psi.get(st, 0) for psi in psis)))
                cleared[st] = list(nums.values()), L
        (lam, Ll), (mu, Lm), X, xd = cleared[n, si], cleared[n + 1, ti], x.numerator, x.denominator
        D, S2, S3 = math.lcm(xd, s2d, s3d, Ll, Lm), s2, s3
        if D > 1:  # each value times D
            X, S2, S3 = X * (D // xd), s2 * (D // s2d), s3 * (D // s3d)
            lam, mu = [v * (D // Ll) for v in lam], [v * (D // Lm) for v in mu]
        a, d = e0.get(n, {}).get((ti, si), 0), [y - z for z, y in zip(lam, mu)]
        for m in range(imax + 1):  # D^4 R_m by powers of D
            r = (D * (D * (3 * X * d[m + 2] - D * d[m + 3] - S2 * d[m + 1] + S3 * (lam[m] + mu[m]))
                      - X * (3 * X * d[m + 1] - S2 * d[m])) + X**3 * d[m])
            if worst is None and field.reduce(r) and (v := field.reduce(a * field.ratio(r, D**4))):
                worst = (v, f"(m,n)=({m},0), {_entry(rep, n, 1, ti, si)}")
    worst = worst or _power_form(rep, "e", ops.e, levels, ks)
    return _report("psi-e-compat", start, len(steps), worst, field=field)


def check_pole_support(rep: Representation) -> RelationReport:
    """Pole set of h(z) on each basis vector equals the weights of its steps
    out and in exactly, with all poles simple: the levels come in order and
    are complete, so the steps into a label are all its removals.  Each
    level's steps are the basis's, which `transitions` reads too."""
    start = time.monotonic()
    g, basis = rep.geometry, rep.basis
    into = {}  # (level, index) -> weights of the steps into it
    worst = None
    for n, level in enumerate(basis.levels):
        for si, (lab, steps) in enumerate(zip(level, basis.steps(n))):
            for ti, x, _ in steps:
                into.setdefault((n + 1, ti), set()).add(x)
            expected = {x for _, x, _ in steps} | into.pop((n, si), set())
            h = rep.h_rat(lab)
            if worst is None and (any(e < -1 for _, e in h.factors) or set(h.poles()) != expected):
                worst = (1, f"level {n}: {lab!r}")
    return _report("pole-support", start, basis.size(), worst, g.params.field)


def check_shift(rep: Representation, expect) -> RelationReport:
    start, field = time.monotonic(), rep.geometry.params.field
    try:
        l, z1 = detect_shift(rep)
    except InconsistentShift as exc:
        return _report("shift", start, rep.basis.size(), (field.one, str(exc)), field)
    detail = f"l={l:+d}, z1={field.str(z1)}"
    worst = None if (l, z1) == expect else (field.one, detail)
    return _report("shift", start, rep.basis.size(), worst, field, detail)


def expected_shift(geometry):
    """The geometry's own statement of its shift (l, z1)."""
    return geometry.expected_shift()


#: The relation groups `which` may name, besides "all".
GROUPS = ("ef", "ee", "serre", "psi", "poles", "shift")

#: The suite checks [e_0, f_n] against h for n = 0..NMAX.
NMAX = 3


def run_suite(geometry, imax: int = 2, which=("all",)):
    """Run the requested checks on one specialization.

    Returns (reports, shift) where shift is the detected (l, z1) when the
    shift check ran and succeeded, else None.  A negative imax or an unknown
    group in `which` is a ValueError, so no selection checks nothing.
    """
    sel = set(which)
    unknown = sel - {"all", *GROUPS}
    if unknown:
        raise ValueError(
            f"unknown relation group {', '.join(sorted(unknown))!r}; "
            f"choose all or from {', '.join(GROUPS)}"
        )
    if imax < 0:
        raise ValueError(f"imax must be nonnegative, got {imax}")
    rep = Representation(geometry)
    ops = OperatorSet(rep)
    want = lambda k: "all" in sel or k in sel
    reports = []
    shift = None
    if want("ef"):
        reports.append(check_ef_diag(ops, imax))
        reports.append(check_ef_matches_h(ops, NMAX))
    if want("ee"):
        reports.append(check_ee(ops, imax))
        reports.append(check_ff(ops, imax))
    if want("serre"):
        reports.append(check_serre_e(ops, imax))
        reports.append(check_serre_f(ops, imax))
    if want("psi"):
        reports.append(check_psi_e_compat(ops, imax))
    if want("poles"):
        reports.append(check_pole_support(rep))
    if want("shift"):
        expect = expected_shift(geometry)
        reports.append(check_shift(rep, expect))
        shift = expect if reports[-1].passed else None
    return reports, shift


@dataclass
class SuiteBundle:
    geometry_tag: str
    params: list
    reports: list  # one report list per specialization
    shift: tuple = None

    @property
    def all_pass(self):
        return all(r.status != "fail" for reps in self.reports for r in reps)

    def to_json(self):
        merged = []
        for k, reps in enumerate(self.reports):
            for r in reps:
                merged.append({"specialization": k, **r.to_json()})
        out = {
            "geometry": self.geometry_tag,
            "params": self.params,
            "relations": merged,
        }
        if self.shift is not None:
            l, z1 = self.shift
            out["shift"] = {"l": l, "z1": rational_str(z1)}
        return out


def full_suite(
    kind: str,
    level_cap: int,
    imax: int = 2,
    m: int = 1,
    sector: int = 1,
    specializations: int = 3,
    seed: int = 2024,
    mode: str = "rational",
    which=("all",),
) -> SuiteBundle:
    """Run the suite under several independent generic specializations.

    The aggregate passes only when every check passes under every
    specialization.  Identities are rational in the parameters with bounded
    degree, so agreement under independent generic draws certifies them
    (polynomial identity testing).
    """
    from .exact import random_params

    if specializations < 1:
        raise ValueError(f"specializations must be at least 1, got {specializations}")
    params_json = []
    all_reports = []
    shift = None
    for k in range(specializations):
        params = random_params(seed + 1000 * k, mode=mode)
        params_json.append(params.to_json())
        geometry = Geometry(kind, params, level_cap, m=m, sector=sector)
        reports, sh = run_suite(geometry, imax=imax, which=which)
        all_reports.append(reports)
        shift = shift or sh
    return SuiteBundle(geometry.tag, params_json, all_reports, shift)
