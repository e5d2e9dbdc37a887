"""One-vertex shuffle algebra with pluggable kernel.

Elements of weight v are symmetric polynomials in v variables; the product
of f (v1 variables) and g (v2 variables) sums f(x_S) g(x_T) times the kernel
factor over all order-preserving splittings S|T of the v1+v2 variables.  The
kernel is fac(x|y) = prod_a (x - y + w_a) / (x - y); the sum always clears
the denominators and the exact polynomial division is asserted, so a
non-symmetric input or a wrong kernel fails loudly.

The product is computed from one splitting: the numerator over the common
Vandermonde denominator is expanded once for S = {0..v1-1}, every other
splitting's numerator is its order-preserving relabelling x_S, x_T with
the sign of the crossing pairs it reorders, and the summed numerator is
divided by the Vandermonde exactly, one linear factor at a time, by
synthetic division.  All of it runs on int numerators over one int
denominator, which is divided out once at the end.

Presets of `exact.Kernel`: "a1" has no numerator weights (fac = 1/(x-y)),
forced by the ratio fac(z|x)/fac(x|z) = -1; "jordan:c" has one weight c,
whose sign the quadratic raising relation discriminates (check_jordan_ee);
"c3" has weights (h1, h2, h3), whose ratio is the per-box eigenvalue factor
the representations read from the same kernel.  The relation checks read
(coefficient, word) tables, X_a = x^a, each word folded from the left.
"""

from __future__ import annotations

import itertools
import random
import time
from functools import reduce
from operator import add, itemgetter

from .errors import DenominatorNotCancelled
from .exact import QQ, Kernel, same_field
from .relations import RelationReport, commutator, gen, quad_terms


# ---------------------------------------------------------------------------
# dense-dict multivariate polynomials (internal)
# ---------------------------------------------------------------------------


class MPoly:
    """Multivariate polynomial over `field`: {exponent tuple: scalar}, zero
    terms dropped.  The shuffle product keeps int numerators in it."""

    __slots__ = ("nvars", "terms", "field")

    def __init__(self, nvars, terms=None, field=QQ):
        self.nvars = nvars
        self.field = field
        self.terms = field.nonzero(terms or {})

    @classmethod
    def monomial(cls, nvars, exps, c=1, field=QQ):
        return cls(nvars, {tuple(exps): c}, field)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.nvars, out, same_field(self.field, other.field))

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return MPoly(self.nvars, out, same_field(self.field, other.field))

    def __mul__(self, scalar):
        """self times an int or a scalar of self's field; a ValueError for
        a scalar of another field."""
        if not isinstance(scalar, (int, type(self.field.one))):
            raise ValueError(f"{type(scalar).__name__} and {self.field.mode} scalars do not mix")
        return MPoly(self.nvars, {e: c * scalar for e, c in self.terms.items()}, self.field)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def embed(self, nvars, positions):
        """View in a larger ring, variable i going to slot positions[i]."""
        out = {}
        for e, c in self.terms.items():
            ne = [0] * nvars
            for i, p in enumerate(positions):
                ne[p] = e[i]
            out[tuple(ne)] = c
        return MPoly(nvars, out, self.field)

    def mul_linear(self, i, j, p=0, q=1):
        """Multiply in place by (q*x_i - q*x_j + p)."""
        out = {}
        get = out.get
        for e, c in self.terms.items():
            qc = q * c
            up = e[:i] + (e[i] + 1,) + e[i + 1 :]
            out[up] = get(up, 0) + qc
            up = e[:j] + (e[j] + 1,) + e[j + 1 :]
            out[up] = get(up, 0) - qc
            if p:
                out[e] = get(e, 0) + p * c
        self.terms = self.field.nonzero(out)

    def divide_exact_linear(self, i, j):
        """Exact division by (x_i - x_j); DenominatorNotCancelled if inexact.

        Synthetic division: the terms fall into groups with the same
        exponents of the other variables and the same s = e_i + e_j.  In a
        group, sum_a c_a x_i^a x_j^(s-a) = (x_i - x_j) sum_a q_a x_i^a
        x_j^(s-1-a) gives q_(a-1) = c_a + q_a down from q_s = 0, and leaves
        c_0 + q_0, which must vanish (mod PRIME in the prime field).
        """
        groups = {}
        for e, c in self.terms.items():
            key = list(e)
            key[i] += key[j]
            key[j] = 0
            groups.setdefault(tuple(key), {})[e[i]] = c
        out = {}
        for key, col in groups.items():
            s = key[i]
            e = list(key)
            q = 0
            for a in range(s, 0, -1):
                q += col.get(a, 0)
                e[i], e[j] = a - 1, s - a
                out[tuple(e)] = q
            if self.field.reduce(q + col.get(0, 0)):
                raise DenominatorNotCancelled(f"polynomial not divisible by (x_{i} - x_{j})")
        return MPoly(self.nvars, out, self.field)

    def is_symmetric(self):
        """Invariance under all adjacent transpositions (hence all of S_v)."""
        for i in range(self.nvars - 1):
            perm = list(range(self.nvars))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            if self.embed(self.nvars, perm) != self:
                return False
        return True

    def __repr__(self):
        return f"MPoly({self.nvars}, {self.terms})"


# ---------------------------------------------------------------------------
# symmetric elements
# ---------------------------------------------------------------------------


class SymPoly:
    """A symmetric polynomial viewed as a weight-v shuffle element.

    The constructor checks symmetry; sums, differences and scalar multiples
    of SymPolys are symmetric already and skip the check.
    """

    __slots__ = ("v", "poly")

    def __init__(self, poly: MPoly):
        if not poly.is_symmetric():
            raise DenominatorNotCancelled("shuffle element is not symmetric")
        self.v = poly.nvars
        self.poly = poly

    @classmethod
    def _symmetric(cls, poly: MPoly):
        """poly, known to be symmetric, as a SymPoly."""
        out = cls.__new__(cls)
        out.v, out.poly = poly.nvars, poly
        return out

    @classmethod
    def power(cls, r, field=QQ):
        """x^r in one variable over `field` (scale it with *); a negative r
        is a ValueError."""
        if r < 0:
            raise ValueError(f"shuffle elements are polynomials, got exponent {r}")
        return cls(MPoly.monomial(1, (r,), field.one, field))

    def is_zero(self):
        return self.poly.is_zero()

    def __add__(self, other):
        return SymPoly._symmetric(self.poly + other.poly)

    def __sub__(self, other):
        return SymPoly._symmetric(self.poly - other.poly)

    def __mul__(self, scalar):
        return SymPoly._symmetric(self.poly * scalar)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self.poly == other.poly

    def __repr__(self):
        return f"SymPoly(v={self.v}, {self.poly.terms})"


def shuffle_mul(f: SymPoly, g: SymPoly, kernel: Kernel) -> SymPoly:
    """Shuffle product: sum over splittings with the kernel factor.

    Works over the common denominator prod_{i<j}(x_i - x_j) and divides it
    back out exactly; DenominatorNotCancelled signals a wrong kernel or
    asymmetric input.  The numerator is built once, for the splitting
    S = {0..v1-1}; every other splitting's numerator is its signed
    order-preserving relabelling.  It runs fraction-free: int numerators
    over one int denominator, which picks up each operand's and each
    kernel weight's denominator, divided out once at the end.  Operands of
    a field other than the kernel's are a ValueError.
    """
    field = same_field(same_field(kernel.field, f.poly.field), g.poly.field)
    v1, v2 = f.v, g.v
    v = v1 + v2
    if v1 == 0 or v2 == 0:  # a constant factor scales the other one
        const, other = (f, g) if v1 == 0 else (g, f)
        c = next(iter(const.poly.terms.values()), 0)
        return SymPoly(MPoly(other.v, {e: x * c for e, x in other.poly.terms.items()}, field))
    (fn, fd), (gn, gd) = field.clear(f.poly.terms), field.clear(g.poly.terms)
    den = fd * gd
    # A0 = f(x_S) g(x_T) prod_{s<v1<=t} num(x_s - x_t) * V_S * V_T for S = {0..v1-1},
    # each weight w = p/q entering as q*x_s - q*x_t + p
    base = MPoly(v, {ef + eg: cf * cg for ef, cf in fn.items() for eg, cg in gn.items()}, field)
    weights = [field.split(w) for w in kernel.numerator_weights]
    for i, j in itertools.combinations(range(v), 2):
        if i < v1 <= j:
            for p, q in weights:
                base.mul_linear(i, j, p, q)
                den *= q
        else:  # V_S and V_T complete the cross denominator to the Vandermonde
            base.mul_linear(i, j)
    total = {}
    get = total.get
    for S in itertools.combinations(range(v), v1):
        T = [k for k in range(v) if k not in S]
        # variable k of base goes to slot (S + T)[k]
        relabel = itemgetter(*sorted(range(v), key=(list(S) + T).__getitem__))
        # (x_s - x_t) = -(x_t - x_s) for every crossing pair with s > t
        sign = -1 if sum(s > t for s in S for t in T) % 2 else 1
        for e, c in base.terms.items():
            e = relabel(e)
            total[e] = get(e, 0) + sign * c
    total = MPoly(v, total, field)
    for i, j in itertools.combinations(range(v), 2):
        total = total.divide_exact_linear(i, j)
    return SymPoly(MPoly(v, {e: field.ratio(c, den) for e, c in total.terms.items()}, field))


# ---------------------------------------------------------------------------
# relation checks
# ---------------------------------------------------------------------------

#: check_jordan_ee reads the instances p, q = 0..JORDAN_PMAX.
JORDAN_PMAX = 2
#: check_a1_anticomm reads the instances r1, r2 = 0..A1_RMAX.
A1_RMAX = 5
#: check_assoc draws its trial inputs from random.Random(ASSOC_SEED).
ASSOC_SEED = 7


def _word(word, memo, kernel):
    """x^a0 * ... * x^ar for word = (a0, ..., ar), folded from the left,
    each prefix once per memo."""
    if word not in memo:
        last = SymPoly.power(word[-1], field=kernel.field)
        memo[word] = last if len(word) == 1 else shuffle_mul(_word(word[:-1], memo, kernel), last, kernel)
    return memo[word]


def _first_nonzero(instances, kernel, memo):
    """The first name in `instances`, {name: (coef, word) table}, whose
    table sums to a nonzero shuffle element; None when all vanish."""
    for name, terms in instances.items():
        if not reduce(add, (c * _word(w, memo, kernel) for c, w in terms)).is_zero():
            return name
    return None


def _report(relation, start, domain, failure, detail=""):
    """A fail whose detail is `failure` when that is set, else a pass."""
    dt = time.monotonic() - start
    if failure:
        return RelationReport(relation, "fail", domain, "1", dt, failure)
    return RelationReport(relation, "pass", domain, "0", dt, detail)


def check_a1_anticomm() -> RelationReport:
    """x^r1 * x^r2 + x^r2 * x^r1 = 0 for the arrowless kernel."""
    start = time.monotonic()
    rs = range(A1_RMAX + 1)
    instances = {f"(r1,r2)={(a, b)}": [(1, (a, b)), (1, (b, a))] for a in rs for b in rs}
    return _report("a1-anticommutator", start, len(instances), _first_nonzero(instances, Kernel.a1(), {}))


def check_c3_ee(params, imax: int, sigma2_sign: int = -1) -> RelationReport:
    """Quadratic raising relation inside the shuffle algebra, e_m = x^m.

    sigma2_sign = +1 flips the sigma2 term, a negative control that must
    fail; the default is the verified convention.
    """
    start = time.monotonic()
    s2, s3 = -sigma2_sign * params.sigma2, params.sigma3
    ms = range(imax + 1)
    instances = {f"(m,n)={(m, n)}": quad_terms(m, n, s2, s3) for m in ms for n in ms}
    return _report("c3-ee-quadratic", start, len(instances), _first_nonzero(instances, Kernel.c3(params), {}))


def jordan_terms(p, q, s, c):
    """[X_{p+1}, X_q] - [X_p, X_{q+1}] - s*c (X_p X_q + X_q X_p)."""
    lower = [(-k, w) for k, w in commutator(gen(p), gen(q + 1))]
    return commutator(gen(p + 1), gen(q)) + lower + [(-s * c, (p, q)), (-s * c, (q, p))]


def check_jordan_ee(c) -> RelationReport:
    """Discriminate the loop-weight sign for the one-loop kernel.

    Tests [e_{p+1}, e_q] - [e_p, e_{q+1}] = s*c (e_p e_q + e_q e_p) for
    s = +1 and s = -1 against fac = (x - y + c)/(x - y); the surviving sign
    is recorded in the report rather than asserted a priori.
    """
    start = time.monotonic()
    kernel = Kernel.jordan(c)
    memo = {}
    ps = range(JORDAN_PMAX + 1)
    instances = {s: {(p, q): jordan_terms(p, q, s, c) for p in ps for q in ps} for s in (+1, -1)}
    surviving = [s for s, tables in instances.items() if _first_nonzero(tables, kernel, memo) is None]
    domain = 2 * len(ps) ** 2
    if len(surviving) == 1:
        return _report("jordan-ee", start, domain, None, f"loop weight sign {surviving[0]:+d}")
    return _report("jordan-ee", start, domain, str(surviving))


def check_assoc(kernel: Kernel, trials: int) -> RelationReport:
    """(f*g)*h == f*(g*h) on random monomial inputs.

    A failure names the first failing trial, its shape (v1,v2,v3) and the
    leading exponent of each symmetrized monomial input.
    """
    start = time.monotonic()
    rng = random.Random(ASSOC_SEED)
    field = kernel.field
    detail = ""
    wide = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    for trial in range(trials):
        # mostly three single-variable factors; every fifth trial walks a
        # four-variable split (the expensive shape)
        v1, v2, v3 = wide[trial // 5 % 3] if trial % 5 == 4 else (1, 1, 1)
        def rand_sym(v):
            if v == 1:
                return SymPoly.power(rng.randint(0, 2), field=field)
            # symmetrized random monomial in two variables
            a, b = sorted((rng.randint(0, 2), rng.randint(0, 2)), reverse=True)
            m = MPoly.monomial(v, (a, b), field.one, field)
            return SymPoly(m + MPoly.monomial(v, (b, a), field.one, field) if a != b else m)
        f, g, h = rand_sym(v1), rand_sym(v2), rand_sym(v3)
        lhs = shuffle_mul(shuffle_mul(f, g, kernel), h, kernel)
        rhs = shuffle_mul(f, shuffle_mul(g, h, kernel), kernel)
        if not (lhs - rhs).is_zero() and not detail:
            f_e, g_e, h_e = (max(x.poly.terms) for x in (f, g, h))
            detail = f"trial {trial}, (v1,v2,v3)=({v1},{v2},{v3}), exponents f={f_e} g={g_e} h={h_e}"
    return _report("associativity", start, trials, detail)
