"""Exact scalar arithmetic and factored rational functions in one variable.

Everything downstream (operator matrix coefficients, diagonal series,
relation checks) reduces to arithmetic in this module.  Scalars are either
arbitrary-precision rationals (`fractions.Fraction`) or elements of a fixed
prime field used as a fast verification mode.  Univariate rational functions
are kept in fully factored form: a constant times a product of (z - root)^e
with exact roots, so products, quotients and residues never lose the factor
structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PoleAtPoint, Resonance, RetrySpecialization

#: Modulus of the prime-field fast mode.  2^61 - 1 is a Mersenne prime above
#: the 2^60 floor that makes accidental collisions of random data
#: essentially impossible.
PRIME = (1 << 61) - 1


class Fp:
    """Element of GF(PRIME).

    Supports mixed arithmetic with ints; never with Fraction (conversion
    between modes happens once, at parameter specialization).
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v.v if isinstance(v, Fp) else int(v) % PRIME

    @staticmethod
    def _coerce(other):
        if isinstance(other, Fp):
            return other
        if isinstance(other, int):
            return Fp(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.v + o.v)

    __radd__ = __add__

    def __neg__(self):
        return Fp(-self.v)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise RetrySpecialization("division by zero mod PRIME")
        return Fp(self.v * pow(o.v, PRIME - 2, PRIME))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o.__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.v == 0:
                raise RetrySpecialization("inverting zero mod PRIME")
            return Fp(pow(pow(self.v, PRIME - 2, PRIME), -n, PRIME))
        return Fp(pow(self.v, n, PRIME))

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.v == other.v
        if isinstance(other, int):
            return self.v == other % PRIME
        return NotImplemented

    def __hash__(self):
        return hash(("Fp", self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"Fp({self.v})"


def _div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def _pow(b, e: int):
    """b**e, exact for negative e even when b is a plain int."""
    if e >= 0 or not isinstance(b, int):
        return b**e
    return Fraction(1, b ** (-e))


def scalar_key(x):
    """Canonical sort key for roots of one mode."""
    if isinstance(x, Fp):
        return (1, x.v, 1)
    fr = Fraction(x)
    return (0, fr.numerator, fr.denominator)


def rational_str(x) -> str:
    """Serialize an exact scalar as 'p/q' (or the residue in prime mode)."""
    if isinstance(x, Fp):
        return str(x.v)
    fr = Fraction(x)
    return f"{fr.numerator}/{fr.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def to_mode(x, mode: str):
    """Map an exact rational into the scalar domain of the given mode."""
    fr = Fraction(x)
    if mode == "rational":
        return fr
    if mode == "prime-field":
        if fr.denominator % PRIME == 0:
            raise RetrySpecialization("denominator divisible by PRIME")
        return Fp(fr.numerator) / Fp(fr.denominator)
    raise ValueError(f"unknown mode {mode!r}")


def _product_coeffs(lead, factors, n):
    """Coefficients c_0..c_n of lead * prod (1 - r*w)^e over (r, e) in factors.

    Newton's identities: with the power sums p_k = sum e*r^k, the
    logarithmic derivative gives k*c_k = -sum_{j=1..k} p_j*c_{k-j}.
    """
    p = [sum(e * r**k for r, e in factors) for k in range(1, n + 1)]
    c = [lead]
    for k in range(1, n + 1):
        c.append(_div(-sum(p[j - 1] * c[k - j] for j in range(1, k + 1)), k))
    return c


class LinForm:
    """const * prod (z - root)^exponent, stored exactly.

    Roots are pairwise distinct scalars of one mode; exponents are nonzero
    integers.  Construction merges equal roots and drops exponent zero, so
    cancellation is automatic and exact.  The merge keys a dict by root: the
    roots of one form share one scalar type (int/Fraction or Fp, never
    both), so hashing agrees with ==.
    """

    __slots__ = ("const", "factors")

    def __init__(self, const, factors=()):
        merged = {}
        for root, e in factors:
            merged[root] = merged.get(root, 0) + e
        self.const = const
        self.factors = tuple(
            sorted(((r, e) for r, e in merged.items() if e != 0), key=lambda t: scalar_key(t[0]))
        )

    # -- structure -----------------------------------------------------------

    def exponent_of(self, root) -> int:
        for r, e in self.factors:
            if r == root:
                return e
        return 0

    def poles(self):
        return [r for r, e in self.factors if e < 0]

    def degree(self) -> int:
        """Degree at infinity: numerator degree minus denominator degree."""
        return sum(e for _, e in self.factors)

    def is_zero(self) -> bool:
        return self.const == 0

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LinForm):
            return LinForm(self.const * other, self.factors)
        return LinForm(self.const * other.const, self.factors + other.factors)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, LinForm):
            return LinForm(_div(self.const, other), self.factors)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero form")
        inv = tuple((r, -e) for r, e in other.factors)
        return LinForm(_div(self.const, other.const), self.factors + inv)

    def __pow__(self, n: int):
        if n == 0:
            return LinForm(self.const**0)
        return LinForm(_pow(self.const, n), [(r, e * n) for r, e in self.factors])

    def __eq__(self, other):
        return (
            isinstance(other, LinForm)
            and self.const == other.const
            and self.factors == other.factors
        )

    def __hash__(self):
        return hash((self.const, self.factors))

    def __repr__(self):
        parts = [rational_str(self.const)]
        for r, e in self.factors:
            parts.append(f"(z - {rational_str(r)})^{e}")
        return " * ".join(parts)

    # -- evaluation and residues -----------------------------------------------

    def eval(self, z0):
        """Evaluate at z0; PoleAtPoint if z0 sits on a negative-exponent root."""
        v = self.const
        for r, e in self.factors:
            d = z0 - r
            if d == 0:
                if e < 0:
                    raise PoleAtPoint(f"evaluation at pole z = {rational_str(z0)}")
                return self.const * 0
            v = v * _pow(d, e)
        return v

    def eval_reduced(self, z0):
        """Evaluate with every (z - z0) factor deleted first.

        Equals eval(z0) whenever no factor vanishes there; at a zero or pole
        it returns the nonzero leading coefficient of the local expansion.
        """
        v = self.const
        for r, e in self.factors:
            d = z0 - r
            if d == 0:
                continue
            v = v * _pow(d, e)
        return v

    def residue_at(self, a, power: int = 0):
        """Res_{z=a} of z^power * self, exact; 0 when a is not a pole.

        With u = z - a and m the pole order, the regular part is
        eval_reduced(a) * prod_{r != a} (1 - u/(r - a))^e, and the residue
        is its u^(m-1) coefficient; a simple pole needs no series.
        """
        form = self if power == 0 else self * LinForm(1, [(a * 0, power)])
        m = -form.exponent_of(a)
        if m <= 0:
            return self.const * 0
        lead = form.eval_reduced(a)
        if m == 1:
            return lead
        roots = [(_pow(r - a, -1), e) for r, e in form.factors if r != a]
        return _product_coeffs(lead, roots, m - 1)[m - 1]

    def residue_at_infinity(self, power: int = 0):
        """-(coefficient of z^-1 in z^power * self).

        The sign convention is pinned by the residue theorem: finite residues
        plus the residue at infinity sum to zero exactly.
        """
        return self.residues_at_infinity([power])[0]

    def residues_at_infinity(self, powers):
        """[residue_at_infinity(p) for p in powers], read from one series.

        With w = 1/z the form is const * z^degree * prod (1 - r*w)^e, so the
        coefficient of z^-1 in z^p * self sits at w^(degree + p + 1).
        """
        ks = [self.degree() + p + 1 for p in powers]
        series = _product_coeffs(self.const, self.factors, max(ks, default=0))
        zero = self.const * 0
        return [-series[k] if k >= 0 else zero for k in ks]

    def to_json(self):
        return {
            "const": rational_str(self.const),
            "factors": [[rational_str(r), e] for r, e in self.factors],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            parse_rational(obj["const"]),
            [(parse_rational(r), int(e)) for r, e in obj["factors"]],
        )


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Params:
    """Exact specialization of the deformation parameters and framing weight.

    h1 + h2 + h3 = 0 always; the conifold aliases are t = h1, q = h2,
    h = h3.  Genericity demands no relation a*h1 + b*h2 = 0 for integers
    with |a|, |b| <= resonance_bound (not both zero).  `source` keeps the
    rationals (h1, h2, chi) that `make` mapped into the mode, so a
    prime-field specialization serializes as the draw it came from.
    """

    h1: object
    h2: object
    h3: object
    chi: object
    mode: str = "rational"
    resonance_bound: int = 64
    source: tuple = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def make(cls, h1, h2, chi, mode="rational", resonance_bound=64):
        h1, h2, chi = Fraction(h1), Fraction(h2), Fraction(chi)
        _check_generic(h1, h2, resonance_bound)
        h3 = -h1 - h2
        params = cls(
            to_mode(h1, mode),
            to_mode(h2, mode),
            to_mode(h3, mode),
            to_mode(chi, mode),
            mode,
            resonance_bound,
        )
        object.__setattr__(params, "source", (h1, h2, chi))
        return params

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
    def one(self):
        """The unit scalar of the mode."""
        return to_mode(1, self.mode)

    @property
    def hbars(self):
        return (self.h1, self.h2, self.h3)

    @property
    def sigma2(self):
        return self.h1 * self.h2 + self.h1 * self.h3 + self.h2 * self.h3

    @property
    def sigma3(self):
        return self.h1 * self.h2 * self.h3

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


def random_params(seed, mode="rational", resonance_bound=64, chi=None):
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
        c = Fraction(rng.randint(-9999, 9999), rng.randint(1, 99)) if chi is None else Fraction(chi)
        try:
            return Params.make(h1, h2, c, mode=mode, resonance_bound=resonance_bound)
        except Resonance:
            continue
