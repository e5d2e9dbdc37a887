"""One-vertex shuffle algebra with pluggable kernel.

Elements of weight v are symmetric polynomials in v variables; the product
of f (v1 variables) and g (v2 variables) sums f(x_S) g(x_T) times the kernel
factor over all order-preserving splittings S|T of the v1+v2 variables.  The
kernel is fac(x|y) = prod_a (x - y + w_a) / (x - y)^d with d in {0, 1}; the
sum always clears the denominators and the exact polynomial division is
asserted, so a non-symmetric input or a wrong kernel fails loudly.

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
from .exact import LinForm
from .relations import RelationReport, quad_terms


# ---------------------------------------------------------------------------
# dense-dict multivariate polynomials (internal)
# ---------------------------------------------------------------------------


class MPoly:
    """Multivariate polynomial: {exponent tuple: scalar}, zero terms dropped."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        d = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            if c == 0:
                continue
            d[tuple(e)] = d.get(tuple(e), 0) + c
        self.terms = {e: c for e, c in d.items() if c != 0}

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): c})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return MPoly(self.nvars, out)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def permute(self, perm):
        """Apply x_i -> x_perm[i]."""
        out = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            for i, p in enumerate(perm):
                ne[p] = e[i]
            ne = tuple(ne)
            out[ne] = out.get(ne, 0) + c
        return MPoly(self.nvars, out)

    def embed(self, nvars, positions):
        """View in a larger ring, variable i going to slot positions[i]."""
        out = {}
        for e, c in self.terms.items():
            ne = [0] * nvars
            for i, p in enumerate(positions):
                ne[p] = e[i]
            out[tuple(ne)] = c
        return MPoly(nvars, out)

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
                raise DenominatorNotCancelled(
                    f"polynomial not divisible by (x_{i} - x_{j})"
                )
            qe = list(e)
            qe[i] -= 1
            qe = tuple(qe)
            out[qe] = out.get(qe, 0) + c
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
        return MPoly(self.nvars, out)

    def is_symmetric(self):
        """Invariance under all adjacent transpositions (hence all of S_v)."""
        for i in range(self.nvars - 1):
            perm = list(range(self.nvars))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            if self.permute(perm) != self:
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
            raise DenominatorNotCancelled("shuffle input is not symmetric")
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
    """fac(x|y) = prod_a (x - y + w_a) * (x - y)^(-denominator_exponent)."""

    numerator_weights: tuple
    denominator_exponent: int = 1

    @classmethod
    def a1(cls):
        return cls((), 1)

    @classmethod
    def jordan(cls, c):
        return cls((c,), 1)

    @classmethod
    def c3(cls, params):
        return cls(params.hbars, 1)

    def conjugation_ratio(self, z, x) -> LinForm:
        """fac(z|x)/fac(x|z) as a factored form in z, for scalar x."""
        num = LinForm(1, [(x - w, 1) for w in self.numerator_weights])
        den = LinForm((-1) ** len(self.numerator_weights), [(x + w, 1) for w in self.numerator_weights])
        ratio = num / den
        if self.denominator_exponent:
            ratio = ratio * LinForm(-1)  # (z-x)/(x-z)
        return ratio


def shuffle_mul(f: SymPoly, g: SymPoly, kernel: Kernel) -> SymPoly:
    """Shuffle product: sum over splittings with the kernel factor.

    Works over the common denominator prod_{i<j}(x_i - x_j) and divides it
    back out exactly; DenominatorNotCancelled signals a wrong kernel or
    asymmetric input.
    """
    v1, v2 = f.v, g.v
    v = v1 + v2
    if v1 == 0:
        return SymPoly(g.poly * next(iter(f.poly.terms.values()), 0)) if f.poly.terms else SymPoly(MPoly(v2))
    if v2 == 0:
        return SymPoly(f.poly * next(iter(g.poly.terms.values()), 0)) if g.poly.terms else SymPoly(MPoly(v1))
    delta = kernel.denominator_exponent
    total = MPoly(v)
    for S in itertools.combinations(range(v), v1):
        T = tuple(k for k in range(v) if k not in S)
        term = f.poly.embed(v, S) * g.poly.embed(v, T)
        for s in S:
            for t in T:
                # numerator of fac(x_s | x_t)
                for w in kernel.numerator_weights:
                    mono = MPoly(
                        v,
                        {
                            tuple(1 if k == s else 0 for k in range(v)): 1,
                            tuple(1 if k == t else 0 for k in range(v)): -1,
                            (0,) * v: w,
                        },
                    )
                    term = term * mono
        if delta:
            sign = 1
            for s in S:
                for t in T:
                    if s > t:
                        sign = -sign
            # complete the cross denominator to the full Vandermonde
            for i, j in itertools.combinations(range(v), 2):
                crosses = (i in S) != (j in S)
                if not crosses:
                    diff = MPoly(
                        v,
                        {
                            tuple(1 if k == i else 0 for k in range(v)): 1,
                            tuple(1 if k == j else 0 for k in range(v)): -1,
                        },
                    )
                    term = term * diff
            term = term * sign
        total = total + term
    if delta:
        for i, j in itertools.combinations(range(v), 2):
            total = total.divide_exact_linear(i, j)
    if not total.is_symmetric():
        raise DenominatorNotCancelled("shuffle product came out asymmetric")
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
                worst = (0, (r1, r2), 1)
    dt = time.monotonic() - start
    if worst:
        return RelationReport("a1-anticommutator", "fail", domain, "1", dt)
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
            combo = SymPoly(MPoly(2))
            for c, (a, b) in quad_terms(m, n, s2, s3):
                combo = combo + c * shuffle_mul(e(a), e(b), k)
            if not combo.is_zero() and worst is None:
                worst = (0, (m, n), 1)
    dt = time.monotonic() - start
    if worst:
        return RelationReport("c3-ee-quadratic", "fail", domain, "1", dt, f"(m,n)={worst[1]}")
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


def check_assoc(kernel: Kernel, trials: int, seed: int = 7, max_total_vars: int = 4) -> RelationReport:
    """(f*g)*h == f*(g*h) on random monomial inputs."""
    start = time.monotonic()
    rng = random.Random(seed)
    worst = None
    wide = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    for trial in range(trials):
        # mostly three single-variable factors; every fifth trial walks a
        # four-variable split (the expensive shape, still within the cap)
        v1, v2, v3 = wide[trial // 5 % 3] if trial % 5 == 4 else (1, 1, 1)
        if v1 + v2 + v3 > max_total_vars:
            v1 = v2 = v3 = 1
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
        if not (lhs - rhs).is_zero() and worst is None:
            worst = (0, (trial, 0), 1)
    dt = time.monotonic() - start
    if worst:
        return RelationReport("associativity", "fail", trials, "1", dt, f"trial {worst[1][0]}")
    return RelationReport("associativity", "pass", trials, "0", dt)
