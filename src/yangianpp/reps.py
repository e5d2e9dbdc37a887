"""Fixed-point representations: raising/lowering operators and the diagonal
rational series, on the crystal of a geometry: `partitions3d.C3` (3D
partitions) or `pyramid.Conifold` (length-m pyramid partitions).

Matrix coefficients come from equivariant residue calculus.  On a transition
lam -> lam + box (or + pair) at spectral position x, the diagonal series
h(z) = h_rat(lam) of the smaller configuration has a simple pole at x, and
the transition reads its residue there.  The split of that residue between
e and f is pinned by

    <lam|e_i|lam+box> * <lam+box|f_j|lam> = Res_{z=x} z^(i+j) h(z)

with the f side normalized to the reduced evaluation at x of the lowering
factor F(z) (all factors vanishing at x deleted first).  h factors as
E(z)*F(z), with E the raising integrand that the tests keep as their oracle.
Wherever E has a simple pole and F is nonvanishing at x, the split
reproduces the naive Res(z^i E) and z^j F(x) coefficients verbatim; it
remains finite and correct at the weight collisions forced by
h1 + h2 + h3 = 0, where the naive split degenerates.

Operators are stored on field scalars.
"""

from __future__ import annotations

import dataclasses
import json

from . import partitions3d as p3
from . import pyramid as pyr
from .errors import InconsistentShift, Resonance
from .exact import QQ, LinForm, same_field


def Geometry(kind, params, level_cap, m=0, sector=0):
    """The crystal to build a representation on, truncated at level N
    (boxes for c3, pairs above the floor for conifold): a `C3`, or a
    length-m `Conifold` of one sector (#black - #white)."""
    if level_cap < 0:
        raise ValueError("level cap must be nonnegative")
    if kind == "c3":
        return p3.C3(params, level_cap)
    if kind == "conifold":
        return pyr.Conifold(params, level_cap, m, sector)
    raise ValueError(f"unknown geometry {kind!r}")


class FixedPointBasis:
    """The geometry's canonically ordered fixed-point labels, graded by level.

    An empty basis is a ValueError: a check of nothing would pass vacuously.
    """

    def __init__(self, geometry):
        self.geometry = geometry
        self.levels = geometry.basis()
        if not any(self.levels):
            raise ValueError("empty basis")
        self._index = [{lab: i for i, lab in enumerate(level)} for level in self.levels]

    @property
    def top_level(self) -> int:
        return len(self.levels) - 1

    def level(self, n):
        if n < 0:
            raise ValueError(f"level must be nonnegative, got {n}")
        return self.levels[n]

    def index(self, n, label) -> int:
        return self._index[n][label]

    def size(self) -> int:
        return sum(len(L) for L in self.levels)

    def __iter__(self):
        for n, L in enumerate(self.levels):
            for lab in L:
                yield n, lab

    def to_json(self):
        return [[lab.to_json() for lab in L] for L in self.levels]


@dataclasses.dataclass
class SparseOperator:
    """Level-graded sparse matrix with a fixed level shift.

    blocks[n] maps (target_index, source_index) -> scalar of `field`, for
    sources at level n and targets at level n + shift (zero entries
    omitted).
    """

    shift: int
    blocks: dict = dataclasses.field(default_factory=dict)
    field: object = QQ

    def entry(self, n, tgt, src):
        return self.blocks.get(n, {}).get((tgt, src))

    def add_entry(self, n, tgt, src, value):
        """Add value at (tgt, src) of block n: a new key stores value itself,
        an existing one adds onto its entry, and a zero sum drops the key."""
        value = self.field.reduce(value)
        if value == 0:
            return
        blk = self.blocks.setdefault(n, {})
        key = (tgt, src)
        v = value if key not in blk else self.field.reduce(blk[key] + value)
        if v == 0:
            del blk[key]
        else:
            blk[key] = v

    def compose(self, other: "SparseOperator") -> "SparseOperator":
        """self applied after other; blocks outside the truncation vanish."""
        same_field(self.field, other.field)
        out = SparseOperator(self.shift + other.shift, field=self.field)
        for n, blk in other.blocks.items():
            ablk = self.blocks.get(n + other.shift)
            if not ablk:
                continue
            col = {}
            for (j, k), bv in blk.items():
                col.setdefault(j, []).append((k, bv))
            acc = {}
            for (i, j), av in ablk.items():
                for k, bv in col.get(j, ()):
                    acc[(i, k)] = acc.get((i, k), 0) + av * bv
            acc = self.field.nonzero(acc)
            if acc:
                out.blocks[n] = acc
        return out

    def to_json(self):
        levels = []
        for n in sorted(self.blocks):
            entries = [[i, j, self.field.str(v)] for (i, j), v in sorted(self.blocks[n].items())]
            levels.append({"n": n, "entries": entries})
        return {"shift": self.shift, "levels": levels}

    @classmethod
    def from_json(cls, obj, field):
        """Inverse of to_json, reading entries as scalars of `field`."""
        op = cls(int(obj["shift"]), field=field)
        for lev in obj["levels"]:
            n = int(lev["n"])
            for i, j, v in lev["entries"]:
                op.add_entry(n, int(i), int(j), field.of(v))
        return op


# ---------------------------------------------------------------------------
# Diagonal series and lowering factor
# ---------------------------------------------------------------------------


def lowering_form(label, geometry) -> LinForm:
    """Lowering factor F(z): products over the stones/boxes of the smaller label."""
    return LinForm(*geometry.lowering(label), geometry.params.field)


def stone_product(label, geometry) -> LinForm:
    """The label-dependent part of the diagonal series: one local factor
    per atom of the label, as the geometry lists them.  This is also the
    eigenvalue of the diagonal psi-series."""
    field = geometry.params.field
    return LinForm(field.one, geometry.stone_factors(label), field)


def h_rat(label, geometry) -> LinForm:
    """Diagonal rational series h(z) on a basis vector: the geometry's head
    times the stone product.

    Over the smaller label of a transition this is the diagonal integrand,
    the raising integrand times lowering_form, which the tests assert.
    """
    return LinForm(*geometry.head(label), geometry.params.field) * stone_product(label, geometry)


# ---------------------------------------------------------------------------
# Transitions and operator assembly
# ---------------------------------------------------------------------------


class Representation:
    """Basis plus cached transition data and diagonal series; builds
    e_i / f_j on demand."""

    def __init__(self, geometry):
        self.geometry = geometry
        self.basis = FixedPointBasis(geometry)
        self._trans = {}  # level n -> list of (si, ti, x, rho, fhat)
        self._h = {}  # label -> h_rat(label)

    def transitions(self, n):
        """(src_idx, tgt_idx, x, rho, fhat) for every raising step from level n.

        For the step label -> label + (box/pair at weight x), rho is the
        residue at x of h_rat(label) (the pole must be simple: weight
        collisions of higher order would make the raising/lowering split
        ill-posed) and fhat is the reduced evaluation of the lowering factor
        there.
        """
        if n not in self._trans:
            g, basis = self.geometry, self.basis
            out = []
            for si, lab in enumerate(basis.level(n)):
                steps = g.steps(lab)
                h = self.h_rat(lab)
                low = lowering_form(lab, g)
                for tgt, x in steps:
                    order = -h.exponent_of(x)
                    if order > 1:
                        raise Resonance(
                            f"diagonal integrand has a pole of order {order} at {g.params.field.str(x)}"
                        )
                    # the enumeration is complete per level, so tgt has an index
                    ti = basis.index(n + 1, tgt)
                    out.append((si, ti, x, h.residue_at(x), low.eval_reduced(x)))
            self._trans[n] = out
        return self._trans[n]

    def build_e(self, i: int) -> SparseOperator:
        field = self.geometry.params.field
        op = SparseOperator(+1, field=field)
        for n in range(self.basis.top_level):
            for si, ti, x, rho, fhat in self.transitions(n):
                op.add_entry(n, ti, si, x**i * rho * field.inv(fhat))
        return op

    def build_f(self, j: int) -> SparseOperator:
        op = SparseOperator(-1, field=self.geometry.params.field)
        for n in range(self.basis.top_level):
            for si, ti, x, rho, fhat in self.transitions(n):
                # source of f is the level-(n+1) target of the raising step
                op.add_entry(n + 1, si, ti, x**j * fhat)
        return op

    def h_rat(self, label) -> LinForm:
        """h_rat(label), built on the first call for the label and cached."""
        h = self._h.get(label)
        if h is None:
            h = self._h[label] = h_rat(label, self.geometry)
        return h


def detect_shift(rep):
    """Shift degree l and shift point z1 of the diagonal series.

    Divides h_rat by the stone product exactly; the residual must be a
    single linear factor (z - z1)^(+-1) with unit constant, identical across
    the whole basis.  Returns (l, z1).
    """
    field = rep.geometry.params.field
    signs = (field.one, field.reduce(-1))
    found = None
    for n, lab in rep.basis:
        resid = rep.h_rat(lab) / stone_product(lab, rep.geometry)
        fac = resid.factors
        if len(fac) != 1 or abs(fac[0][1]) != 1 or resid.const not in signs:
            raise InconsistentShift(
                f"residual factor {resid!r} of {lab!r} is not a signed linear factor"
            )
        l, z1 = fac[0][1], fac[0][0]
        if found is None:
            found = (l, z1)
        elif found != (l, z1):
            raise InconsistentShift(
                f"shift {found} vs ({l}, {field.str(z1)}) at {lab!r}"
            )
    return found


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def operators_to_json(rep: Representation, imax: int):
    """Deterministic JSON blob with the basis and e_0..imax, f_0..imax."""
    if imax < 0:
        raise ValueError(f"imax must be nonnegative, got {imax}")
    return {
        "geometry": rep.geometry.to_json(),
        "params": rep.geometry.params.to_json(),
        "basis": {"levels": rep.basis.to_json()},
        "operators": {
            "e": {str(i): rep.build_e(i).to_json() for i in range(imax + 1)},
            "f": {str(j): rep.build_f(j).to_json() for j in range(imax + 1)},
        },
    }


def dump_operators(rep: Representation, imax: int) -> str:
    return json.dumps(operators_to_json(rep, imax), sort_keys=True, indent=1)
