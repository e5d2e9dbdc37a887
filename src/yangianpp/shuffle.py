"""One-vertex shuffle algebra with pluggable kernel.

Elements of weight v are symmetric polynomials in v variables; the product
of f (v1 variables) and g (v2 variables) sums f(x_S) g(x_T) times the kernel
factor over all order-preserving splittings S|T of the v1+v2 variables.  The
kernel is fac(x|y) = prod_a (x - y + w_a) / (x - y)^d with d in {0, 1}; the
sum always clears the denominators and the exact polynomial division is
asserted, so a non-symmetric input or a wrong kernel fails loudly.

The product is computed from one splitting: the numerator over the common
Vandermonde denominator is expanded once for S = {0..v1-1}, every other
splitting's numerator is its order-preserving relabelling x_S, x_T with
the sign of the crossing pairs it reorders, and the summed numerator is
divided by the Vandermonde exactly, one linear factor at a time.

Presets: "a1" has no numerator weights (fac = 1/(x-y)); "jordan:c" has one
weight c; "c3" has weights (h1, h2, h3).  The presets are reconstructed from
conjugation-ratio constraints: a1 is forced by fac(z|x)/fac(x|z) = -1, c3 by
the per-box eigenvalue ratio prod (z-x+h_i)/(z-x-h_i), and the jordan weight
sign is discriminated by the quadratic raising relation (see
check_jordan_ee), not assumed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .errors import DenominatorNotCancelled
from .exact import QQ, LinForm
from .relations import RelationReport, quad_terms


# ---------------------------------------------------------------------------
# dense-dict multivariate polynomials (internal)
# ---------------------------------------------------------------------------


def _add_term(terms, e, c):
    """terms[e] += c, without adding c to an int 0 first."""
    prev = terms.get(e)
    terms[e] = c if prev is None else prev + c


class MPoly:
    """Multivariate polynomial over `field`: {exponent tuple: scalar}, zero
    terms dropped."""

    __slots__ = ("nvars", "terms", "field")

    def __init__(self, nvars, terms=(), field=QQ):
        self.nvars = nvars
        self.field = field
        d = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            if c == 0:
                continue
            _add_term(d, tuple(e), c)
        self.terms = field.nonzero(d)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): c})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.nvars, out, self.field)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return MPoly(self.nvars, out, self.field)

    def __mul__(self, scalar):
        return MPoly(self.nvars, {e: c * scalar for e, c in self.terms.items()}, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()}, self.field)

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

    def mul_linear(self, i, j, w):
        """Multiply in place by (x_i - x_j + w)."""
        out = {}
        for e, c in self.terms.items():
            up = list(e)
            up[i] += 1
            _add_term(out, tuple(up), c)
            up = list(e)
            up[j] += 1
            _add_term(out, tuple(up), -c)
            if w:
                _add_term(out, e, c * w)
        self.terms = self.field.nonzero(out)

    def divide_exact_linear(self, i, j):
        """Exact division by (x_i - x_j); DenominatorNotCancelled if inexact.

        Terms are consumed in descending lex order off a heap (lazy
        deletion), so each reduction step is logarithmic.
        """
        import heapq

        rem = dict(self.terms)
        heap = [tuple(-x for x in e) for e in rem]
        heapq.heapify(heap)
        out = {}
        while heap:
            e = tuple(-x for x in heapq.heappop(heap))
            c = rem.pop(e, None)
            if c is None or c == 0:
                continue
            if e[i] == 0:
                if self.field.reduce(c) == 0:  # a prime sum that vanishes mod PRIME
                    continue
                raise DenominatorNotCancelled(
                    f"polynomial not divisible by (x_{i} - x_{j})"
                )
            qe = list(e)
            qe[i] -= 1
            qe = tuple(qe)
            _add_term(out, qe, c)
            # subtract c * x^qe * (x_i - x_j): the x_i part cancels the lead,
            # the x_j part flows back into the remainder (lex-smallerterm)
            se = list(qe)
            se[j] += 1
            se = tuple(se)
            prev = rem.get(se)
            if prev is None:
                rem[se] = c
                heapq.heappush(heap, tuple(-x for x in se))
            else:
                tot = prev + c
                if tot == 0:
                    rem.pop(se)
                else:
                    rem[se] = tot
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
# symmetric elements and kernels
# ---------------------------------------------------------------------------


class SymPoly:
    """A symmetric polynomial viewed as a weight-v shuffle element."""

    __slots__ = ("v", "poly")

    def __init__(self, poly: MPoly):
        if not poly.is_symmetric():
            raise DenominatorNotCancelled("shuffle element is not symmetric")
        self.v = poly.nvars
        self.poly = poly

    @classmethod
    def one(cls):
        return cls(MPoly.constant(0, 1))

    @classmethod
    def power(cls, r, coeff=1):
        """x^r in one variable."""
        return cls(MPoly.monomial(1, (r,), coeff))

    def orbit_terms(self):
        """Map from sorted (descending) exponent tuples to coefficients."""
        return {
            tuple(sorted(e, reverse=True)): c
            for e, c in self.poly.terms.items()
            if tuple(sorted(e, reverse=True)) == e
        }

    def is_zero(self):
        return self.poly.is_zero()

    def __add__(self, other):
        return SymPoly(self.poly + other.poly)

    def __sub__(self, other):
        return SymPoly(self.poly - other.poly)

    def __mul__(self, scalar):
        return SymPoly(self.poly * scalar)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self.poly == other.poly

    def __repr__(self):
        return f"SymPoly(v={self.v}, {self.poly.terms})"


@dataclass(frozen=True)
class Kernel:
    """fac(x|y) = prod_a (x - y + w_a) * (x - y)^(-denominator_exponent),
    with weights and products in `field`."""

    numerator_weights: tuple
    denominator_exponent: int = 1
    field: object = QQ

    @classmethod
    def a1(cls):
        return cls((), 1)

    @classmethod
    def jordan(cls, c):
        return cls((c,), 1)

    @classmethod
    def c3(cls, params):
        return cls(params.hbars, 1, params.field)

    def conjugation_ratio(self, z, x) -> LinForm:
        """fac(z|x)/fac(x|z) as a factored form in z, for scalar x."""
        f = self.field
        num = LinForm(f.one, [(x - w, 1) for w in self.numerator_weights], f)
        den = LinForm((-1) ** len(self.numerator_weights), [(x + w, 1) for w in self.numerator_weights], f)
        ratio = num / den
        if self.denominator_exponent:
            ratio = ratio * LinForm(-1, (), f)  # (z-x)/(x-z)
        return ratio


def shuffle_mul(f: SymPoly, g: SymPoly, kernel: Kernel) -> SymPoly:
    """Shuffle product: sum over splittings with the kernel factor.

    Works over the common denominator prod_{i<j}(x_i - x_j) and divides it
    back out exactly; DenominatorNotCancelled signals a wrong kernel or
    asymmetric input.  The numerator is built once, for the splitting
    S = {0..v1-1}; every other splitting's numerator is its signed
    order-preserving relabelling.
    """
    v1, v2 = f.v, g.v
    v = v1 + v2
    field = kernel.field
    if v1 == 0 or v2 == 0:  # a constant factor scales the other one
        const, other = (f, g) if v1 == 0 else (g, f)
        c = next(iter(const.poly.terms.values()), 0)
        return SymPoly(MPoly(other.v, {e: x * c for e, x in other.poly.terms.items()}, field))
    delta = kernel.denominator_exponent
    # A0 = f(x_S) g(x_T) prod_{s<v1<=t} num(x_s - x_t) * V_S * V_T for S = {0..v1-1}
    base = MPoly(v, {ef + eg: cf * cg for ef, cf in f.poly.terms.items() for eg, cg in g.poly.terms.items()}, field)
    for s in range(v1):
        for t in range(v1, v):
            for w in kernel.numerator_weights:
                base.mul_linear(s, t, w)
    if delta:
        # complete the cross denominator to the full Vandermonde
        for i, j in itertools.combinations(range(v), 2):
            if (i < v1) == (j < v1):
                base.mul_linear(i, j, 0)
    total = {}
    for S in itertools.combinations(range(v), v1):
        T = [k for k in range(v) if k not in S]
        # (x_s - x_t) = -(x_t - x_s) for every crossing pair with s > t
        negate = delta and sum(s > t for s in S for t in T) % 2
        for e, c in base.embed(v, list(S) + T).terms.items():
            _add_term(total, e, -c if negate else c)
    total = MPoly(v, total, field)
    if delta:
        for i, j in itertools.combinations(range(v), 2):
            total = total.divide_exact_linear(i, j)
    return SymPoly(total)


def star_commutator(a, b, kernel):
    return shuffle_mul(a, b, kernel) - shuffle_mul(b, a, kernel)


def star_anticommutator(a, b, kernel):
    return shuffle_mul(a, b, kernel) + shuffle_mul(b, a, kernel)


# ---------------------------------------------------------------------------
# relation checks
# ---------------------------------------------------------------------------


def check_a1_anticomm(rmax: int) -> RelationReport:
    """x^r1 * x^r2 + x^r2 * x^r1 = 0 for the arrowless kernel."""
    start = time.monotonic()
    k = Kernel.a1()
    domain = 0
    worst = None
    for r1 in range(rmax + 1):
        for r2 in range(rmax + 1):
            domain += 1
            s = star_anticommutator(SymPoly.power(r1), SymPoly.power(r2), k)
            if not s.is_zero() and worst is None:
                worst = (r1, r2)
    dt = time.monotonic() - start
    if worst:
        return RelationReport("a1-anticommutator", "fail", domain, "1", dt, f"(r1,r2)={worst}")
    return RelationReport("a1-anticommutator", "pass", domain, "0", dt)


def check_c3_ee(params, imax: int, sigma2_sign: int = -1, sigma3_sign: int = +1) -> RelationReport:
    """Quadratic raising relation inside the shuffle algebra, e_m = x^m.

    The sign arguments exist so tests can flip either term as a negative
    control; the defaults are the verified convention.
    """
    start = time.monotonic()
    k = Kernel.c3(params)
    s2, s3 = -sigma2_sign * params.sigma2, sigma3_sign * params.sigma3
    domain = 0
    worst = None
    e = SymPoly.power
    for m in range(imax + 1):
        for n in range(imax + 1):
            domain += 1
            combo = SymPoly(MPoly(2, field=k.field))
            for c, (a, b) in quad_terms(m, n, s2, s3):
                combo = combo + c * shuffle_mul(e(a), e(b), k)
            if not combo.is_zero() and worst is None:
                worst = (m, n)
    dt = time.monotonic() - start
    if worst:
        return RelationReport("c3-ee-quadratic", "fail", domain, "1", dt, f"(m,n)={worst}")
    return RelationReport("c3-ee-quadratic", "pass", domain, "0", dt)


def check_jordan_ee(c, pmax: int = 2) -> RelationReport:
    """Discriminate the loop-weight sign for the one-loop kernel.

    Tests [e_{p+1}, e_q] - [e_p, e_{q+1}] = s*c (e_p e_q + e_q e_p) for
    s = +1 and s = -1 against fac = (x - y + c)/(x - y); the surviving sign
    is recorded in the report rather than asserted a priori.
    """
    start = time.monotonic()
    k = Kernel.jordan(c)
    e = SymPoly.power
    surviving = []
    for s in (+1, -1):
        ok = True
        for p in range(pmax + 1):
            for q in range(pmax + 1):
                lhs = star_commutator(e(p + 1), e(q), k) - star_commutator(e(p), e(q + 1), k)
                rhs = (s * c) * star_anticommutator(e(p), e(q), k)
                if not (lhs - rhs).is_zero():
                    ok = False
                    break
            if not ok:
                break
        if ok:
            surviving.append(s)
    dt = time.monotonic() - start
    domain = 2 * (pmax + 1) ** 2
    if len(surviving) == 1:
        return RelationReport(
            "jordan-ee", "pass", domain, "0", dt, detail=f"loop weight sign {surviving[0]:+d}"
        )
    return RelationReport("jordan-ee", "fail", domain, "1", dt, detail=str(surviving))


def check_assoc(kernel: Kernel, trials: int, seed: int = 7) -> RelationReport:
    """(f*g)*h == f*(g*h) on random monomial inputs.

    A failure names the first failing trial, its shape (v1,v2,v3) and the
    leading exponent of each symmetrized monomial input.
    """
    start = time.monotonic()
    rng = random.Random(seed)
    detail = ""
    wide = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    for trial in range(trials):
        # mostly three single-variable factors; every fifth trial walks a
        # four-variable split (the expensive shape)
        v1, v2, v3 = wide[trial // 5 % 3] if trial % 5 == 4 else (1, 1, 1)
        def rand_sym(v):
            if v == 1:
                return SymPoly.power(rng.randint(0, 2))
            # symmetrized random monomial in two variables
            a, b = sorted((rng.randint(0, 2), rng.randint(0, 2)), reverse=True)
            m = MPoly.monomial(v, (a, b)) + (MPoly.monomial(v, (b, a)) if a != b else MPoly(v))
            return SymPoly(m)
        f, g, h = rand_sym(v1), rand_sym(v2), rand_sym(v3)
        lhs = shuffle_mul(shuffle_mul(f, g, kernel), h, kernel)
        rhs = shuffle_mul(f, shuffle_mul(g, h, kernel), kernel)
        if not (lhs - rhs).is_zero() and not detail:
            f_e, g_e, h_e = (max(x.poly.terms) for x in (f, g, h))
            detail = f"trial {trial}, (v1,v2,v3)=({v1},{v2},{v3}), exponents f={f_e} g={g_e} h={h_e}"
    dt = time.monotonic() - start
    if detail:
        return RelationReport("associativity", "fail", trials, "1", dt, detail)
    return RelationReport("associativity", "pass", trials, "0", dt)
