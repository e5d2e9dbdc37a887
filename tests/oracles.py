"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's incremental algorithms: partitions by
filtering raw box subsets, pyramids by filtering raw stone subsets or by
rescanning the whole room at each growth step, counts by
the classical generating function, residues by an independent CAS,
resonances by scanning every integer pair, the raising integrand by one
product per box, the step constants by residues of whole forms, the
per-box eigenvalue factor written out, and relations
by the matrix route: every word of every instance one product of whole
operators.  The functions on a form that no command runs live here too:
products, quotients, values and finite residues (`mul`, `div`,
`eval_form`, `eval_reduced`, `residue_at`), and the series of a product of
factors by Newton's identities over the field (`_product_coeffs`, the
oracle of the integer series behind the residues at infinity), with the
stone product, a pyramid's color counts (`stone_counts`), the
unpaired-black count and a bundle's verdicts, and a parameter with its
sign flipped for the negative controls.  The
addition and removal rules by whole-label tests (`addible_boxes_scan`,
`addible_pairs_scan`, `removable_boxes`, `removable_pairs_scan`), the steps
they give with each target found by value in the next level (`steps_scan`),
and the weight of every stone, white or black (`stone_weight`), are stated
here only: the package reads a label's removals off the steps into it.
The Cartan half and the power-form guard are restated on field scalars
(`psi_scalars`, `psi_e_worst`, `power_form_scalars`): each sum, power and
product one normalised scalar, where the package compares cleared integers.
"""

from fractions import Fraction
from itertools import combinations, product
from operator import sub

from yangianpp import partitions3d as p3
from yangianpp import pyramid as pyr
from yangianpp.errors import Resonance, YangianppError
from yangianpp.exact import GFP, PRIME, LinForm, Params, same_field
from yangianpp.relations import _entry, ef_terms, quad_terms, serre_terms
from yangianpp.reps import SparseOperator, _atom_form, h_rat


# ---------------------------------------------------------------------------
# Functions on a form: products, quotients, values and finite residues
# ---------------------------------------------------------------------------


def _product_coeffs(lead, factors, n, field):
    """Coefficients c_0..c_n of lead * prod (1 - r*w)^e over (r, e) in factors.

    Newton's identities: with the power sums p_k = sum e*r^k, the
    logarithmic derivative gives k*c_k = -sum_{j=1..k} p_j*c_{k-j}.
    """
    reduce = field.reduce
    p = [reduce(sum(e * r**k for r, e in factors)) for k in range(1, n + 1)]
    c = [lead]
    for k in range(1, n + 1):
        c.append(reduce(-sum(p[j - 1] * c[k - j] for j in range(1, k + 1)) * field.inv(k)))
    return c


class PoleAtPoint(YangianppError):
    """Evaluation of a factored rational function at one of its poles."""


def exponent_of(form, root) -> int:
    """The exponent of (z - root) in form; 0 when root is no root of it."""
    for r, e in form.factors:
        if r == root:
            return e
    return 0


def mul(f, g):
    """The product f * g of two forms of one field."""
    return LinForm(f.const * g.const, f.factors + g.factors, same_field(f.field, g.field))


def div(f, g):
    """The quotient f / g of two forms of one field."""
    field = same_field(f.field, g.field)
    if g.const == 0:
        raise ZeroDivisionError("division by the zero form")
    inv = tuple((r, -e) for r, e in g.factors)
    return LinForm(f.const * field.inv(g.const), f.factors + inv, field)


def eval_form(form, z0):
    """form at z0; PoleAtPoint if z0 sits on a negative-exponent root."""
    f = form.field
    z0 = f.reduce(z0)
    v = form.const
    for r, e in form.factors:
        d = z0 - r
        if d == 0:
            if e < 0:
                raise PoleAtPoint(f"evaluation at pole z = {f.str(z0)}")
            return f.zero
        v = v * f.power(d, e)
    return f.reduce(v)


def eval_reduced(form, z0):
    """form at z0 with every (z - z0) factor deleted first.

    Equals eval_form(form, z0) whenever no factor vanishes there; at a zero
    or pole it returns the nonzero leading coefficient of the local
    expansion.
    """
    f = form.field
    z0 = f.reduce(z0)
    v = form.const
    for r, e in form.factors:
        d = z0 - r
        if d != 0:
            v = v * f.power(d, e)
    return f.reduce(v)


def residue_at(form, a, power: int = 0):
    """Res_{z=a} of z^power * form, exact; 0 when a is not a pole.

    With u = z - a and m the pole order, the regular part is
    eval_reduced(form, a) * prod_{r != a} (1 - u/(r - a))^e, and the
    residue is its u^(m-1) coefficient; a simple pole needs no series.
    """
    f = form.field
    a = f.reduce(a)
    if power:
        form = mul(form, LinForm(f.one, [(f.zero, power)], f))
    m = -exponent_of(form, a)
    if m <= 0:
        return f.zero
    lead = eval_reduced(form, a)
    if m == 1:
        return lead
    roots = [(f.inv(r - a), e) for r, e in form.factors if r != a]
    return _product_coeffs(lead, roots, m - 1, f)[m - 1]


def stone_product(label, geometry) -> LinForm:
    """The label-dependent part of the diagonal series: one local factor
    per atom of the label but the head, with constant one.  This is also
    the eigenvalue of the diagonal psi-series."""
    _, _, atoms = geometry.atoms(label)
    return _atom_form(1, [(kind, v) for kind, v in atoms if kind != "head"], geometry)


def stone_counts(pi):
    """(#black, #white) of a pyramid partition."""
    blacks = sum(s.color == "B" for s in pi.stones)
    return blacks, len(pi.stones) - blacks


def black_only_count(pi, erc) -> int:
    """Blacks in pi whose equal-weight paired white is absent.

    Counts blacks whose pair slot does not even exist in the ERC; always
    equals the sector of pi, which the tests assert.
    """
    s = set(pi.stones)
    return sum(erc.pair_white.get(b) not in s for b in pi.blacks())


def verdicts(bundle):
    """relation id -> tuple of a SuiteBundle's statuses across specializations."""
    out = {}
    for reps in bundle.reports:
        for r in reps:
            out.setdefault(r.relation, []).append(r.status)
    return {k: tuple(v) for k, v in out.items()}


def plane_partition_subsets(n):
    """All n-box order ideals, by filtering subsets of {i+j+k <= n-1}."""
    if n == 0:
        return [tuple()]
    cells = [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if i + j + k <= n - 1
    ]
    return sorted(tuple(sorted(combo)) for combo in combinations(cells, n) if is_plane_partition(combo))


def is_plane_partition(boxes):
    """Every box's lower neighbours (i-1, j, k), (i, j-1, k), (i, j, k-1)
    inside the first octant are boxes too."""
    s = set(boxes)
    return all(
        p in s for (i, j, k) in s for p in ((i - 1, j, k), (i, j - 1, k), (i, j, k - 1)) if min(p) >= 0
    )


def removable_boxes(lam):
    """Boxes of lam with no box of lam directly above them, (i+1, j, k),
    (i, j+1, k) or (i, j, k+1): the removal rule, sorted."""
    s = set(lam)
    return sorted(b for b in lam if not any(x in s for x in p3._succs(b)))


def addible_boxes_scan(lam):
    """Boxes outside lam whose addition leaves a plane partition, sorted, by
    testing every box of lam's bounding cube grown by one.  Purely
    definitional."""
    bound = max((max(b) for b in lam), default=-1) + 2
    return [b for b in product(range(bound), repeat=3) if b not in lam and is_plane_partition([*lam, b])]


def addible_weights(lam, params):
    """Weights of the addible boxes of lam, each weighed afresh; Resonance
    if two collide."""
    ws = [(b, p3.box_weight(b, params)) for b in addible_boxes_scan(lam)]
    return p3.distinct_weights(ws, "addible boxes", lam)


def plane_partition_counts_gf(nmax):
    """Counts from the classical product generating function
    prod_k (1 - q^k)^(-k), exact integer arithmetic."""
    coeffs = [0] * (nmax + 1)
    coeffs[0] = 1
    for k in range(1, nmax + 1):
        # multiply by (1 - q^k)^(-k): repeated geometric factors
        for _ in range(k):
            for idx in range(k, nmax + 1):
                coeffs[idx] += coeffs[idx - k]
    return coeffs


def stone_weight(s, params):
    """chi + a*q + b*h + c*t of a stone (k; a, c): b = k - a for a black,
    k - 1 - a for a white."""
    q, h, t = params.q, params.h, params.t
    b = (s.k - s.a) if s.color == "B" else (s.k - 1 - s.a)
    return params.field.reduce(params.chi + s.a * q + b * h + s.c * t)


def upward_closed_subsets(erc):
    """All upward-closed stone subsets of an ERC, by raw subset filter."""
    stones = sorted(erc.stones)
    n = len(stones)
    subsets = ({stones[i] for i in range(n) if mask >> i & 1} for mask in range(1 << n))
    return [frozenset(subset) for subset in subsets if is_upward_closed(subset, erc)]


def is_upward_closed(stones, erc):
    """Every stone directly above a stone of the set is in the set."""
    s = set(stones)
    return all(c in s for st in s for c in erc.covers[st])


def enumerate_pyramids_rescan(m, max_stones, sector=None):
    """enumerate_pyramids by rescanning the whole room: each growth step tests
    every absent stone, every grown ideal becomes a sorted PyramidPartition
    before the sector filter, and the sort compares partitions by their
stones' sort keys."""
    erc = pyr.build_erc(m)
    nb = nw = max_stones
    if sector is not None:
        nb, nw = (max_stones + sector) // 2, (max_stones - sector) // 2

    def addible(cur):
        b = sum(s.color == "B" for s in cur)
        room = {"B": b < nb, "W": len(cur) - b < nw}
        return [s for s in erc.stones - cur if room[s.color] and all(c in cur for c in erc.covers[s])]

    ideals = p3.grow(frozenset(), max_stones, lambda cur: [cur | {s} for s in addible(cur)])
    pis = (pyr.PyramidPartition(m, fs) for level in ideals for fs in level)
    groups = {}
    kept = (pi for pi in pis if sector is None or sub(*stone_counts(pi)) == sector)
    for pi in sorted(kept, key=lambda pi: tuple(map(pyr._stone_sort_key, pi.stones))):
        groups.setdefault(stone_counts(pi), []).append(pi)
    return dict(sorted(groups.items()))


def addible_pairs_scan(pi, erc):
    """Pairs not in pi whose addition keeps the subset upward-closed, by
    testing the whole enlarged subset.  Purely definitional."""
    s = set(pi.stones)
    return [p for p in erc.pairs if p.black not in s and p.white not in s
            and is_upward_closed(s | {p.black, p.white}, erc)]


def steps_scan(geometry, label, above=None):
    """geometry.steps([label], above)[0] by the scans: per addible box, or
    pair by its black, (the index in `above` of the label built afresh with
    it, or None without `above`; its weight; its lattice vector)."""
    p = geometry.params
    if geometry.kind == "c3":
        grown = [(p3.Partition3D(label.boxes + (b,)), p3.box_weight(b, p), b) for b in addible_boxes_scan(label)]
    else:
        grown = [(pyr.PyramidPartition(geometry.m, label.stones + pair), stone_weight(pair.black, p),
                  (pair.black.c, pair.black.a, pair.black.k - pair.black.a))
                 for pair in addible_pairs_scan(label, geometry.erc)]
    return [(None if above is None else above.index(mu), x, v) for mu, x, v in grown]


def removable_pairs_scan(pi, erc):
    """Pairs inside pi whose removal keeps the subset upward-closed, by
    testing the whole reduced subset.  Purely definitional."""
    s = set(pi.stones)
    return [p for p in erc.pairs if p.black in s and p.white in s
            and is_upward_closed(s - {p.black, p.white}, erc)]


def orbit_terms(sym):
    """A symmetric polynomial's coefficients keyed by descending exponent
    tuples, one per orbit."""
    return {e: c for e, c in sym.poly.terms.items() if tuple(sorted(e, reverse=True)) == e}


def first_resonance(h1, h2, bound):
    """Message of the first a*h1 + b*h2 = 0 found by scanning a = 0..bound,
    b = -bound..bound ((a, b) != (0, 0), a = 0 only with b > 0); None if
    there is none.  The brute-force reference for the genericity gate."""
    if h1 == 0 or h2 == 0:
        return "h1 and h2 must be nonzero"
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 and b <= 0:
                continue
            if a * h1 + b * h2 == 0:
                return f"resonance {a}*h1 + {b}*h2 = 0"
    return None


def integrand_e(label, geometry):
    """Raising integrand E(z): products over the stones/boxes of the source label.

    E(z) times the lowering factor is the diagonal integrand h_rat(label);
    the transition split is Res_{z=x} of that product and the reduced
    evaluation of the lowering factor at x.
    """
    p = geometry.params
    if geometry.kind == "c3":
        f = LinForm(1, [(p.chi, -1)], p.field)
        for b in label:
            x = p3.box_weight(b, p)
            f = mul(f, LinForm(1, [(x, 1)] + [(x + hb, -1) for hb in p.hbars], p.field))
        return f
    sign = (-1) ** black_only_count(label, geometry.erc)
    f = LinForm(sign, [(p.chi + i * p.t, -1) for i in range(geometry.m)], p.field)
    for s in label:
        x = stone_weight(s, p)
        if s.color == "B":
            f = mul(f, LinForm(1, [(x, 1), (x + p.t, -1)], p.field))
        else:
            f = mul(f, LinForm(1, [(x + p.q, -1), (x + p.h, -1)], p.field))
    return f


def lowering_form(label, geometry):
    """Lowering factor F(z) of the smaller label of a step: on c3 the
    kernel's fac(z|x) per box; on the conifold the kernel's fac(z|x) per
    completed pair and (z-x+q)(z-x+h) per unpaired black, times
    prod_{i=0..m} (z - chi - i*t) and the sign (-1)^(m+1).  A white lies
    directly below its paired black, so is never unpaired."""
    p = geometry.params
    if geometry.kind == "c3":
        return LinForm(p.field.one, [f for b in label for f in geometry.kernel.fac(p3.box_weight(b, p))], p.field)
    present = set(label.stones)
    factors = [(p.chi + i * p.t, 1) for i in range(geometry.m + 1)]
    for st in label.blacks():
        x = stone_weight(st, p)
        paired = geometry.erc.pair_white.get(st) in present
        factors += geometry.kernel.fac(x) if paired else [(x - p.q, 1), (x - p.h, 1)]
    return LinForm((-1) ** (geometry.m + 1) * p.field.one, factors, p.field)


def transitions_oracle(rep, n):
    """rep.transitions(n) by whole forms: for each step from a level-n label
    at weight x, the residue at x of h_rat(label) and the reduced
    evaluation of the lowering form there, with the same Resonance on a
    pole of order above 1."""
    g, basis = rep.geometry, rep.basis
    out = []
    for si, lab in enumerate(basis.level(n)):
        h = h_rat(lab, g)
        low = lowering_form(lab, g)
        for ti, x, _ in steps_scan(g, lab, basis.level(n + 1)):
            order = -exponent_of(h, x)
            if order > 1:
                raise Resonance(f"diagonal integrand has a pole of order {order} at {g.params.field.str(x)}")
            out.append((si, ti, x, residue_at(h, x), eval_reduced(low, x)))
    return out


def box_local_factor(x, params):
    """Per-box factor of the diagonal series: prod (z-x+h_i)/(z-x-h_i)."""
    hbars = params.hbars
    return LinForm(1, [(x - hb, 1) for hb in hbars] + [(x + hb, -1) for hb in hbars], params.field)


def sympy_residue(form, a, power=0):
    """Residue via sympy, fully independent of the LinForm code path."""
    import sympy as sp

    z = sp.symbols("z")
    expr = sp.Rational(Fraction(form.const))
    for r, e in form.factors:
        expr *= (z - sp.Rational(Fraction(r))) ** e
    val = sp.residue(expr * z**power, z, sp.Rational(Fraction(a)))
    return Fraction(sp.nsimplify(val))


def partial_fraction_residue(form, a):
    """Coefficient of 1/(z-a) by exact linear solve.

    Writes form = polynomial + sum A_{p,k}/(z-p)^k, samples the function at
    enough non-pole rational points, solves the dense linear system by
    Gaussian elimination over Fraction, and reads off A_{a,1}.
    """
    poles = {p: -e for p, e in form.factors if e < 0}
    if a not in poles:
        return Fraction(0)
    poly_deg = max(0, form.degree()) + 1  # poly part has degree <= degree()
    unknowns = []  # (kind, data)
    for _ in range(poly_deg + 1):
        unknowns.append(("poly", len(unknowns)))
    keys = {}
    for p, m in sorted(poles.items()):
        for k in range(1, m + 1):
            keys[(p, k)] = len(unknowns)
            unknowns.append(("pole", (p, k)))
    n = len(unknowns)
    # sample points avoiding poles
    samples = []
    x = Fraction(1, 7)
    while len(samples) < n:
        if all(x != p for p in poles):
            samples.append(x)
        x += Fraction(3, 5)
    rows = []
    for x in samples:
        row = []
        for kind, data in unknowns:
            if kind == "poly":
                row.append(x**data)
            else:
                p, k = data
                row.append(Fraction(1) / (x - p) ** k)
        rows.append(row + [eval_form(form, x)])
    # gaussian elimination
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = Fraction(1) / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return rows[keys[(a, 1)]][n]


def sympy_shuffle(f_terms, v1, g_terms, v2, weights, denominator_exponent):
    """Shuffle product of f (v1 variables) and g (v2 variables), as {exponent: Fraction}.

    Sums f(x_S) g(x_T) prod_{s in S, t in T} fac(x_s|x_t) over every
    order-preserving splitting S|T, with fac(x|y) = prod_w (x - y + w) /
    (x - y)^e, e = denominator_exponent, in sympy's polynomial ring: over
    the common denominator D = prod_{i<j} (x_i - x_j)^e, each splitting's
    numerator is multiplied by D / den_S, the (x_i - x_j)^e of the pairs it
    does not split, with the sign of its reversed pairs.  One division by D
    then gives the product, and a nonzero remainder means the denominators
    did not cancel.
    """
    import sympy as sp

    def q(c):
        c = Fraction(c)
        return sp.QQ(c.numerator, c.denominator)

    v = v1 + v2
    ring, *xs = sp.ring(",".join(f"x{k}" for k in range(v)), sp.QQ)

    def at(terms, vars_):
        out = ring(0)
        for e, c in terms.items():
            mono = ring(q(c))
            for x, k in zip(vars_, e):
                mono *= x**k
            out += mono
        return out

    total = ring(0)
    for S in combinations(range(v), v1):
        T = [k for k in range(v) if k not in S]
        num = at(f_terms, [xs[s] for s in S]) * at(g_terms, [xs[t] for t in T])
        for s in S:
            for t in T:
                for w in weights:
                    num *= xs[s] - xs[t] + q(w)
        for i, j in combinations(range(v), 2):
            if (i in S) == (j in S):
                num *= (xs[i] - xs[j]) ** denominator_exponent
            elif i in T:  # the splitting's factor is (x_j - x_i)^e
                num *= (-1) ** denominator_exponent
        total += num
    D = ring(1)
    for i, j in combinations(range(v), 2):
        D *= (xs[i] - xs[j]) ** denominator_exponent
    quo, rem = total.div(D)
    if rem:
        raise AssertionError(f"denominator {D} did not cancel: remainder {rem}")
    return {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in quo.terms()}


def assert_in_field(v, field):
    """v is a scalar of `field`: a reduced int in the prime field, else a Fraction."""
    if field is GFP:
        assert type(v) is int and 0 <= v < PRIME, v
    else:
        assert type(v) is Fraction, v


def operator_sum(terms):
    """The operator sum of c * X over (c, X) pairs of one shift and field."""
    terms = list(terms)
    out = SparseOperator(terms[0][1].shift, field=terms[0][1].field)
    for c, op in terms:
        same_field(out.field, op.field)
        for n, blk in op.blocks.items():
            for (i, j), v in blk.items():
                out.add_entry(n, i, j, c * v)
    return out


def evaluate(terms, get):
    """The operator of a (coefficient, word) table: the sum of
    c * X_{w0} ... X_{wk}, X_a = get(a), each word one chain of composes."""

    def product(word):
        op = get(word[-1])
        for a in reversed(word[:-1]):
            op = get(a).compose(op)
        return op

    return operator_sum((c, product(word)) for c, word in terms)


def ef_letters(ops):
    """Letters ("e", i) and ("f", j) looked up on an OperatorSet."""
    return lambda g: getattr(ops, g[0])(g[1])


def flipped_param(name):
    """The Params property `name` with its sign flipped, to monkeypatch in."""
    prop = getattr(Params, name)
    return property(lambda self: self.field.reduce(-prop.fget(self)))


def ef_bracket(ops, i, j):
    """[e_i, f_j] as one operator."""
    return evaluate(ef_terms(i, j), ef_letters(ops))


def reference_statuses(ops, imax, nmax):
    """Relation id -> status of the six operator relations, by the matrix
    route: every instance of every relation evaluated as an operator and
    read on every level of the check's window."""
    rep, top = ops.rep, ops.top
    p = rep.geometry.params
    field = p.field
    nonempty = lambda levels: [n for n in levels if rep.basis.level(n)]

    def vanishing(get, levels, tables):
        levels = nonempty(levels)
        if not levels:
            return "empty-domain"
        combos = [evaluate(t, get) for t in tables]
        return "fail" if any(op.blocks.get(n) for op in combos for n in levels) else "pass"

    pairs = [(m, n) for m in range(imax + 1) for n in range(imax + 1)]
    triples = [(a, b, c) for a in range(imax + 1) for b in range(a, imax + 1) for c in range(b, imax + 1)]
    quads = lambda s3: [quad_terms(m, n, p.sigma2, s3) for m, n in pairs]
    out = {
        "ee-quadratic": vanishing(ops.e, range(0, top - 1), quads(p.sigma3)),
        "ff-quadratic": vanishing(ops.f, range(2, top + 1), quads(-p.sigma3)),
        "serre-e": vanishing(ops.e, range(0, top - 2), [serre_terms(*t) for t in triples]),
        "serre-f": vanishing(ops.f, range(3, top + 1), [serre_terms(*t) for t in triples]),
    }

    levels = nonempty(range(0, top))
    sizes = [(n, len(rep.basis.level(n))) for n in levels]
    diag = lambda op: [op.blocks.get(n, {}).get((k, k)) or field.zero for n, size in sizes for k in range(size)]
    eigen, ok = {}, True
    for i, j in pairs:
        op = ef_bracket(ops, i, j)
        ok &= all(a == b for n in levels for a, b in op.blocks.get(n, {}))
        ok &= eigen.setdefault(i + j, diag(op)) == diag(op)
    out["ef-diagonal"] = ("pass" if ok else "fail") if levels else "empty-domain"

    lhs = [v for nn in range(nmax + 1) for v in diag(ef_bracket(ops, 0, nn))]
    rhs = [
        rep.h_rat(lab).residue_at_infinity(nn)
        for nn in range(nmax + 1) for n in levels for lab in rep.basis.level(n)
    ]
    ok = any(all(a == field.reduce(eps * b) for a, b in zip(lhs, rhs)) for eps in (1, -1))
    out["ef-matches-h"] = ("pass" if ok else "fail") if levels else "empty-domain"
    return out


# ---------------------------------------------------------------------------
# The Cartan half and the power-form guard on field scalars
# ---------------------------------------------------------------------------


def psi_scalars(ops, k):
    """OperatorSet.psi(k) with every product and sum a field scalar."""
    e0, fk = ops.e(0), ops.f(k)
    field = same_field(same_field(ops.rep.geometry.params.field, e0.field), fk.field)
    acc = {}
    for n, blk in e0.blocks.items():
        col = fk.blocks.get(n + 1, {})
        for (t, s), a in blk.items():
            ab = a * col.get((s, t), 0)
            acc[n + 1, t] = acc.get((n + 1, t), 0) + ab
            acc[n, s] = acc.get((n, s), 0) - ab
    return field.nonzero(acc)


def power_form_scalars(rep, family, get, levels, letters):
    """relations._power_form with x^i X_0 built as a scalar for every entry
    and letter, and compared as one."""
    field = rep.geometry.params.field
    base = get(0)
    for n in levels:
        if base.shift > 0:
            steps = {(ti, si): x for si, ti, x, _, _ in rep.transitions(n)}
        else:
            steps = {(si, ti): x for si, ti, x, _, _ in rep.transitions(n - 1)}
        x0 = base.blocks.get(n, {})
        for i in letters:
            want = field.nonzero({key: x**i * x0[key] for key, x in steps.items() if key in x0})
            got = get(i).blocks.get(n, {})
            bad = [key for key in got.keys() | want.keys() if got.get(key) != want.get(key)]
            if bad:
                key = min(bad)
                where = f"{family}_{i} != x^{i} {family}_0, {_entry(rep, n, base.shift, *key)}"
                return got.get(key, 0) - want.get(key, 0), where
    return None


def psi_e_worst(ops, imax):
    """The (discrepancy, where) that check_psi_e_compat reports, or None:
    R_m summed in field scalars on every step, then the power-form guard."""
    rep, p = ops.rep, ops.rep.geometry.params
    field, s2, s3, ks = p.field, p.sigma2, p.sigma3, range(imax + 4)
    psis = [psi_scalars(ops, k) for k in ks]
    e0 = ops.e(0).blocks
    levels = [n for n in range(ops.top - 1) if rep.basis.level(n)]
    for n in levels:
        for si, ti, x, _, _ in rep.transitions(n):
            lam, mu = [psi.get((n, si), 0) for psi in psis], [psi.get((n + 1, ti), 0) for psi in psis]
            d = [b - a for a, b in zip(lam, mu)]
            for m in range(imax + 1):
                r = (3 * x * d[m + 2] - 3 * x * x * d[m + 1] - d[m + 3] + x**3 * d[m]
                     - s2 * (d[m + 1] - x * d[m]) + s3 * (lam[m] + mu[m]))
                if v := field.reduce(e0.get(n, {}).get((ti, si), 0) * r):
                    return v, f"(m,n)=({m},0), {_entry(rep, n, 1, ti, si)}"
    return power_form_scalars(rep, "e", ops.e, levels, ks)
