"""Fixed-point representations: raising/lowering operators and the diagonal
rational series, on the crystal of a geometry: `partitions3d.C3` (3D
partitions) or `pyramid.Conifold` (length-m pyramid partitions).

A step lam -> lam + box (or + pair) at weight x splits the residue at x of
the diagonal series h(z) of lam between e and f,

    <lam|e_i|lam+box> * <lam+box|f_j|lam> = Res_{z=x} z^(i+j) h(z),

the f side being the reduced evaluation at x of the lowering factor F(z),
finite at the collisions forced by h1 + h2 + h3 = 0.  The steps are the
crystal's graph: the basis asks the geometry for one level's steps on the
first request, each a target index in the next level, a weight and a
lattice vector, and keeps them.  The geometry states its factors once, per
atom: `atoms(label)` lists the label's signs and atoms, and `kinds` each
kind's factors of h and F.  An atom's values at x depend only on its
displacement to the step, and `transitions` multiplies those values;
`h_rat` is the whole form of the same statement, which the checks read,
and `detect_shift` reads the form of the head atoms alone.  The
independent statements of h are in the tests (the raising integrand times
the lowering factor).  Operators are stored on field scalars.
"""

from __future__ import annotations

import dataclasses
import json
import weakref
from math import prod

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
        self._steps = {}  # level n -> geometry.steps of level n

    @property
    def top_level(self) -> int:
        return len(self.levels) - 1

    def level(self, n):
        if n < 0:
            raise ValueError(f"level must be nonnegative, got {n}")
        return self.levels[n]

    def steps(self, n):
        """Per label of level n, its steps (index of the target in level n + 1,
        or None at the top; weight; lattice vector), built on the first call
        for the level."""
        if n not in self._steps:
            above = self.level(n + 1) if n < self.top_level else None
            self._steps[n] = self.geometry.steps(self.level(n), above)
        return self._steps[n]

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
        """Inverse of to_json, reading only what to_json writes: the shift,
        levels and indices as ints, each entry as `field`'s own string of a
        nonzero scalar, each level and (target, source) key once.  Anything
        else is a TypeError or a ValueError."""
        op = cls(_int(obj["shift"]), field=field)
        for lev in obj["levels"]:
            n, blk = _int(lev["n"]), {}
            if op.blocks.setdefault(n, blk) is not blk:
                raise ValueError(f"level {n} is repeated")
            for i, j, v in lev["entries"]:
                key, x = (_int(i), _int(j)), field.of(v)
                if field.str(x) != v:
                    raise ValueError(f"entry {key} of level {n} is not written as {field.str(x)!r}")
                if key in blk or not x:
                    raise ValueError(f"entry {key} of level {n} is repeated or zero")
                blk[key] = x
        return op


def _int(x):
    """x when it is an int (a bool is not); else a TypeError."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# Diagonal series
# ---------------------------------------------------------------------------


_ROOTS = weakref.WeakKeyDictionary()  # geometry -> {(kind, lattice vector): h factors}; kinds stay fixed


def _atom_form(sign, atoms, geometry):
    """sign times the h factors of `atoms` at their weights, read once per
    (kind, lattice vector) and geometry."""
    params, roots = geometry.params, _ROOTS.setdefault(geometry, {})
    factors = []
    for kind, v in atoms:
        fs = roots.get((kind, v))
        if fs is None:
            x = p3.box_weight(v, params)
            fs = roots[kind, v] = [(x + r, e) for r, e in geometry.kinds[kind][0]]
        factors += fs
    return LinForm(sign * params.field.one, factors, params.field)


def h_rat(label, geometry) -> LinForm:
    """Diagonal rational series h(z) on a basis vector: the label's sign
    times one local factor per atom, the head's included; over the smaller
    label of a step, the raising integrand times the lowering factor."""
    sign, _, atoms = geometry.atoms(label)
    return _atom_form(sign, atoms, geometry)


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
        self._values = {}  # (kind, displacement) -> _value of an atom at a step
        self._h = {}  # label -> h_rat(label)

    def transitions(self, n):
        """(src_idx, tgt_idx, x, rho, fhat) for every raising step from level n,
        in the order of `basis.steps(n)`.

        For the step label -> label + (box/pair at weight x), rho is the
        residue of h(z) on label at x and fhat the reduced evaluation of F(z)
        there: the label's sign times one value per atom, read once per
        (kind, displacement).  The atoms' pole orders at x add up; above 1,
        the raising/lowering split would be ill-posed.
        """
        if n not in self._trans:
            if n >= self.basis.top_level:  # its targets would lie above the basis
                raise ValueError(f"no raising step from the top level {self.basis.top_level}, got {n}")
            g, basis, field = self.geometry, self.basis, self.geometry.params.field
            values, out = self._values, []
            for si, (lab, steps) in enumerate(zip(basis.level(n), basis.steps(n))):
                hsign, fsign, atoms = g.atoms(lab)
                for ti, x, (a, b, c) in steps:
                    keys = [(kind, a - i, b - j, c - k) for kind, (i, j, k) in atoms]
                    order, hn, hd, fn, fd = zip(*[values.get(key) or self._value(key) for key in keys])
                    order = sum(order)
                    if order > 1:
                        raise Resonance(f"diagonal integrand has a pole of order {order} at {field.str(x)}")
                    rho = field.ratio(hsign * prod(hn), prod(hd)) if order == 1 else field.zero
                    out.append((si, ti, x, rho, field.ratio(fsign * prod(fn), prod(fd))))
            self._trans[n] = out
        return self._trans[n]

    def _value(self, key):
        """(pole order, h numerator, h denominator, F numerator, F denominator)
        of one atom at a step, key = (kind, displacement): the products of its
        factors there, vanishing ones deleted and their exponents in h summed."""
        (kind, i, j, k), p = key, self.geometry.params
        field, u = p.field, p.field.reduce(i * p.h1 + j * p.h2 + k * p.h3)
        hf, ff = ([(field.reduce(u - r), e) for r, e in fs] for fs in self.geometry.kinds[kind])
        value = [-sum(e for w, e in hf if not w)]
        for fs in (hf, ff):
            value += field.split(field.reduce(prod((field.power(w, e) for w, e in fs if w), start=field.one)))
        self._values[key] = value = tuple(value)
        return value

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

    The residual of h_rat over its label-dependent atoms is the label's
    sign times the head atoms' factors; it must be a single linear factor
    (z - z1)^(+-1) with unit constant, identical across the whole basis.
    Returns (l, z1).
    """
    g, field = rep.geometry, rep.geometry.params.field
    signs = (field.one, field.reduce(-1))
    found = None
    for n, lab in rep.basis:
        sign, _, atoms = g.atoms(lab)
        resid = _atom_form(sign, [(kind, v) for kind, v in atoms if kind == "head"], g)
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


def operators_header(rep: Representation):
    """An operator file's sections besides its operators: geometry, params and basis."""
    g = rep.geometry
    return {"geometry": g.to_json(), "params": g.params.to_json(), "basis": {"levels": rep.basis.to_json()}}


def operators_built(rep: Representation, imax: int):
    """(family, key, JSON) of e_0..imax, then f_0..imax, each built when asked for."""
    for fam, build in (("e", rep.build_e), ("f", rep.build_f)):
        for i in range(imax + 1):
            yield fam, str(i), build(i).to_json()


def dump_operators(rep: Representation, imax: int) -> str:
    """The operator file, header and e_0..imax, f_0..imax, as deterministic JSON text."""
    if imax < 0:
        raise ValueError(f"imax must be nonnegative, got {imax}")
    ops = {}
    for fam, key, op in operators_built(rep, imax):
        ops.setdefault(fam, {})[key] = op
    return json.dumps(operators_header(rep) | {"operators": ops}, sort_keys=True, indent=1)
