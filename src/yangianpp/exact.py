"""Exact scalar fields, factored rational functions in z, the bond kernel.

Everything downstream (operator matrix coefficients, diagonal series,
relation checks) reduces to arithmetic in this module.  A scalar mode is a
field object: `QQ`, the rationals as `fractions.Fraction`, or `GFP`, the
prime field GF(PRIME) as plain ints in [0, PRIME) used as a fast
verification mode.  The type of a scalar names its field.  Scalars combine
with the plain + - * operators; the field object alone maps rationals into
the mode, reduces, inverts, and serializes.  Prime values may leave [0,
PRIME) inside a computation and are reduced wherever they are stored or
compared.  Univariate rational functions are kept in fully factored form: a
constant times a product of (z - root)^e with exact roots, so residues
never lose the factor structure.  `Kernel` states the bond once, for the
shuffle product and the representations alike.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

from .errors import Resonance, RetrySpecialization

#: Modulus of the prime-field fast mode.  2^61 - 1 is a Mersenne prime above
#: the 2^60 floor that makes accidental collisions of random data
#: essentially impossible.
PRIME = (1 << 61) - 1

#: Largest |a|, |b| of a resonance a*h1 + b*h2 = 0 that `Params.make` rejects.
RESONANCE_BOUND = 64


class RationalField:
    """The rationals: scalars are `Fraction`s (ints mix in exactly), and
    values need no reduction."""

    mode = "rational"
    zero, one = Fraction(0), Fraction(1)

    def of(self, x):
        """A rational (int, Fraction or 'p/q' string) as a scalar; ValueError on a zero denominator."""
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None

    def reduce(self, x):
        return x

    def nonzero(self, terms):
        """The nonzero entries of a dict of scalars, reduced."""
        return {k: v for k, v in terms.items() if v}

    def inv(self, x):
        return Fraction(x.denominator, x.numerator)

    def power(self, x, e: int):
        return x**e if e >= 0 else self.inv(x) ** -e

    def str(self, x) -> str:
        return f"{x.numerator}/{x.denominator}"

    def split(self, x):
        return x.numerator, x.denominator

    def ratio(self, p, q):
        return Fraction(p, q)

    def clear(self, blk):
        d = math.lcm(*(v.denominator for v in blk.values()))
        return {k: v.numerator * (d // v.denominator) for k, v in blk.items()}, d


class PrimeField:
    """GF(PRIME): scalars are ints, reduced into [0, PRIME) when stored."""

    mode = "prime-field"
    zero, one = 0, 1

    def of(self, x):
        """A rational (int, Fraction or 'p/q' string) as a residue."""
        fr = QQ.of(x)
        if fr.denominator % PRIME == 0:
            raise RetrySpecialization("denominator divisible by PRIME")
        return fr.numerator * pow(fr.denominator, -1, PRIME) % PRIME

    def reduce(self, x):
        return x % PRIME

    def nonzero(self, terms):
        """The nonzero entries of a dict of scalars, reduced."""
        return {k: r for k, v in terms.items() if (r := v % PRIME)}

    def inv(self, x):
        x %= PRIME
        if not x:
            raise RetrySpecialization("inverting zero mod PRIME")
        return pow(x, -1, PRIME)

    def power(self, x, e: int):
        return pow(x if e >= 0 else self.inv(x), abs(e), PRIME)

    def str(self, x) -> str:
        return str(x % PRIME)

    def split(self, x):
        return x, 1

    def ratio(self, p, q):
        return p % PRIME if q == 1 else p * self.inv(q) % PRIME

    def clear(self, blk):
        return dict(blk), 1


QQ = RationalField()
GFP = PrimeField()
FIELDS = {field.mode: field for field in (QQ, GFP)}


def same_field(a, b):
    """a, when the fields a and b are one; a ValueError for two fields."""
    if a is not b:
        raise ValueError(f"{a.mode} and {b.mode} scalars do not mix")
    return a


def rational_str(x) -> str:
    """Serialize a scalar whose type names its field: a Fraction as 'p/q',
    an int as its residue mod PRIME."""
    return (GFP if type(x) is int else QQ).str(x)


class LinForm:
    """const * prod (z - root)^exponent over one field, stored exactly.

    Roots are pairwise distinct scalars; exponents are nonzero integers.
    Construction reduces the constant and the roots, merges equal roots and
    drops exponent zero, so cancellation is automatic and exact; factors
    sort by `field.split` of their roots, and rational roots merge by that
    int pair, prime ones by their residue: no `Fraction` is hashed.
    """

    __slots__ = ("const", "factors", "field")

    def __init__(self, const, factors=(), field=QQ):
        reduce, merged, roots = field.reduce, {}, {}
        if field is QQ:
            for root, e in factors:
                k = field.split(root)
                roots.setdefault(k, root)
                merged[k] = merged.get(k, 0) + e
            factors = [(roots[k], e) for k, e in sorted(merged.items()) if e]
        else:
            for root, e in factors:
                root = reduce(root)
                merged[root] = merged.get(root, 0) + e
            factors = sorted([f for f in merged.items() if f[1]])
        self.field = field
        self.const = reduce(const)
        self.factors = tuple(factors)

    # -- structure -----------------------------------------------------------

    def poles(self):
        return [r for r, e in self.factors if e < 0]

    def degree(self) -> int:
        """Degree at infinity: numerator degree minus denominator degree."""
        return sum(e for _, e in self.factors)

    def __eq__(self, other):
        return isinstance(other, LinForm) and (self.const, self.factors) == (other.const, other.factors)

    def __hash__(self):
        return hash((self.const, self.factors))

    def __repr__(self):
        show = self.field.str
        return " * ".join([show(self.const)] + [f"(z - {show(r)})^{e}" for r, e in self.factors])

    # -- residues at infinity ----------------------------------------------------

    def residue_at_infinity(self, power: int = 0):
        """-(coefficient of z^-1 in z^power * self).

        The sign convention is pinned by the residue theorem: finite residues
        plus the residue at infinity sum to zero exactly.
        """
        return self.residues_at_infinity([power])[0]

    def residues_at_infinity(self, powers):
        """[residue_at_infinity(p) for p in powers], read from one series.

        With w = 1/z, self = const * z^degree * sum c_k w^k, the series of
        prod (1 - r*w)^e; power p reads k = degree + p + 1.  Over the roots'
        common denominator D (1 in GF(p)) R = r*D and C_k = c_k*D^k are ints.
        """
        f = self.field
        ks = [self.degree() + p + 1 for p in powers]
        n = max(ks, default=0)
        cleared, D = f.clear(dict(enumerate(r for r, _ in self.factors)))
        c, down, up = [1] + [0] * n, range(n, 0, -1), range(1, n + 1)
        for R, (_, e) in zip(cleared.values(), self.factors):
            if e > 0:  # a zero: times (1 - R*w)
                for _ in range(e):
                    for k in down:
                        c[k] -= R * c[k - 1]
            else:  # a pole: over (1 - R*w)
                for _ in range(-e):
                    for k in up:
                        c[k] += R * c[k - 1]
        num, den = f.split(self.const)
        return [f.ratio(-num * c[k], den * D**k) if k >= 0 else f.zero for k in ks]


# ---------------------------------------------------------------------------
# Parameters and the bond kernel
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Params:
    """Exact specialization of the deformation parameters and framing weight.

    h1 + h2 + h3 = 0 always; the conifold aliases are t = h1, q = h2,
    h = h3.  `make` rejects a resonance a*h1 + b*h2 = 0 up to
    RESONANCE_BOUND.  `field` is the scalar field of the mode; `source`
    keeps the rationals (h1, h2, chi) that `make` mapped into it, so a
    prime-field specialization serializes as the draw it came from.
    """

    h1: object
    h2: object
    h3: object
    chi: object
    field: object = QQ
    source: tuple = dataclasses.field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def make(cls, h1, h2, chi, mode="rational"):
        if mode not in FIELDS:
            raise ValueError(f"unknown mode {mode!r}")
        h1, h2, chi = QQ.of(h1), QQ.of(h2), QQ.of(chi)
        _check_generic(h1, h2, RESONANCE_BOUND)
        f = FIELDS[mode]
        params = cls(f.of(h1), f.of(h2), f.of(-h1 - h2), f.of(chi), f)
        object.__setattr__(params, "source", (h1, h2, chi))
        return params

    @property
    def mode(self) -> str:
        return self.field.mode

    # conifold aliases
    @property
    def t(self):
        return self.h1

    @property
    def q(self):
        return self.h2

    @property
    def h(self):
        return self.h3

    @property
    def hbars(self):
        return (self.h1, self.h2, self.h3)

    @property
    def sigma2(self):
        return self.field.reduce(self.h1 * self.h2 + self.h1 * self.h3 + self.h2 * self.h3)

    @property
    def sigma3(self):
        return self.field.reduce(self.h1 * self.h2 * self.h3)

    def to_json(self):
        """The mode and the source rationals (mode values when built directly)."""
        h1, h2, chi = self.source or (self.h1, self.h2, self.chi)
        return {
            "mode": self.mode,
            "h1": rational_str(h1),
            "h2": rational_str(h2),
            "h3": rational_str(-h1 - h2),
            "chi": rational_str(chi),
        }

    def __repr__(self):
        h1, h2, chi = self.source or (self.h1, self.h2, self.chi)
        return (
            f"Params(h1={rational_str(h1)}, h2={rational_str(h2)}, "
            f"chi={rational_str(chi)}, mode={self.mode})"
        )


def _check_generic(h1: Fraction, h2: Fraction, bound: int):
    """Resonance if a*h1 + b*h2 = 0 for integers, not both zero, |a|, |b| <= bound.

    With h1/h2 = p/q in lowest terms (q > 0), the solutions are the
    multiples of (a, b) = (q, -p), so one exists exactly when
    q <= bound and |p| <= bound, and (q, -p) is the smallest.
    """
    if h1 == 0 or h2 == 0:
        raise Resonance("h1 and h2 must be nonzero")
    ratio = h1 / h2
    if ratio.denominator <= bound and abs(ratio.numerator) <= bound:
        raise Resonance(f"resonance {ratio.denominator}*h1 + {-ratio.numerator}*h2 = 0")


def random_params(seed, mode="rational"):
    """Seeded generic parameter draw.

    Numerators up to 4 digits and denominators up to 2, rejection-sampled
    against the resonance predicate so repeated draws stay reproducible.
    """
    rng = random.Random(seed)
    while True:
        h1 = Fraction(rng.randint(1, 9999), rng.randint(1, 99))
        h2 = Fraction(rng.randint(1, 9999), rng.randint(1, 99))
        if rng.random() < 0.5:
            h2 = -h2
        chi = Fraction(rng.randint(-9999, 9999), rng.randint(1, 99))
        try:
            return Params.make(h1, h2, chi, mode=mode)
        except Resonance:
            continue


@dataclasses.dataclass(frozen=True)
class Kernel:
    """The bond fac(z|x) = prod_w (z - x + w) / (z - x) over the numerator
    weights w, in `field`."""

    numerator_weights: tuple
    field: object = QQ

    @classmethod
    def a1(cls):
        return cls(())

    @classmethod
    def jordan(cls, c):
        return cls((c,))

    @classmethod
    def c3(cls, params):
        return cls(params.hbars, params.field)

    def fac(self, x):
        """The (root, exponent) factors of fac(z|x) as a form in z."""
        return [(x - w, 1) for w in self.numerator_weights] + [(x, -1)]

    def ratio(self, x):
        """(constant, factors) of fac(z|x)/fac(x|z) as a form in z: the
        (z - x) factors cancel to -1, and x - z + w = -(z - x - w)."""
        ws = self.numerator_weights
        return (-1) ** (len(ws) + 1), [(x - w, 1) for w in ws] + [(x + w, -1) for w in ws]

