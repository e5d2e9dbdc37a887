"""3D plane partitions: finite order ideals in N^3, and the C^3 crystal.

These index the torus-fixed basis of the rank-one Hilbert-scheme side.
Boxes are (i, j, k) tuples with the corner box at (0, 0, 0); a partition is
canonically stored as a lexicographically sorted tuple of boxes.  `grow`
enumerates graded order ideals of any poset.  `C3` is the geometry: its
`steps` are a level's addible boxes, each target an index in the next level
found by the boxes as a frozenset (a label's removals are the steps into
it), its `atoms` and `kinds` state h(z) and the lowering factor once, per
box, and `reps.h_rat` is their whole form (the tests state both
independently).
"""

from __future__ import annotations

from .errors import Resonance
from .exact import Kernel


def _preds(box):
    i, j, k = box
    return [p for p in ((i - 1, j, k), (i, j - 1, k), (i, j, k - 1)) if min(p) >= 0]


def _succs(box):
    i, j, k = box
    return ((i + 1, j, k), (i, j + 1, k), (i, j, k + 1))


def _addible(boxes):
    """Boxes whose addition to the set `boxes` keeps it an order ideal."""
    cands = {(0, 0, 0)}.union(*map(_succs, boxes))
    return [c for c in cands if c not in boxes and all(p in boxes for p in _preds(c))]


def grow(empty, max_size, children):
    """Graded order ideals: level n is the set of n-element ideals.

    Growth is from the empty ideal by single-element addition, where
    children(ideal) lists the ideals one element larger.  Holding an element
    back prunes every ideal that only that addition would reach.
    """
    levels = [{empty}]
    for _ in range(max_size):
        levels.append({child for cur in levels[-1] for child in children(cur)})
    return levels


class Partition3D:
    """A finite order ideal of boxes, canonically sorted."""

    __slots__ = ("boxes",)

    def __init__(self, boxes=()):
        bs = tuple(sorted(set(map(tuple, boxes))))
        if not all(len(b) == 3 and min(b) >= 0 for b in bs):
            raise ValueError("boxes must be nonnegative integer triples")
        self.boxes = bs

    def __len__(self):
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)

    def __contains__(self, box):
        return tuple(box) in self.boxes

    def __eq__(self, other):
        return isinstance(other, Partition3D) and self.boxes == other.boxes

    def __lt__(self, other):
        return self.boxes < other.boxes

    def __hash__(self):
        return hash(self.boxes)

    def __repr__(self):
        return f"Partition3D({list(self.boxes)})"

    def to_json(self):
        return [list(b) for b in self.boxes]


def box_weight(box, params):
    """Equivariant weight chi + i*h1 + j*h2 + k*h3 of a box."""
    i, j, k = box
    return params.field.reduce(params.chi + i * params.h1 + j * params.h2 + k * params.h3)


def distinct_weights(ws, what, label):
    """ws, the (item, weight) pairs of the `what` of label; Resonance on a collision."""
    if len({w for _, w in ws}) != len(ws):
        raise Resonance(f"{what} of {label!r} share a weight")
    return ws


def enumerate_plane_partitions(max_boxes: int):
    """All plane partitions with 0..max_boxes boxes, grouped by box count.

    Levels are complete, duplicate-free and canonically ordered; growth is by
    single-box addition.  The size is the caller's to bound (`enum pp` caps it).
    """
    if max_boxes < 0:
        raise ValueError("max_boxes must be nonnegative")
    levels = grow(frozenset(), max_boxes, lambda boxes: [boxes | {b} for b in _addible(boxes)])
    return [sorted(map(Partition3D, level)) for level in levels]


class C3:
    """The C^3 crystal truncated at level_cap boxes: level n of the basis
    lists the plane partitions with n boxes, and each box is one atom."""

    kind = "c3"
    tag = "c3"

    def __init__(self, params, level_cap):
        self.params = params
        self.level_cap = level_cap
        self.kernel = Kernel.c3(params)
        self._weights = {}  # box -> box_weight(box)
        # kind -> (h factors, F factors) of one atom, roots relative to its weight
        self.kinds = {"head": ([(0, -1)], []), "box": (self.kernel.ratio(0)[1], self.kernel.fac(0))}

    def to_json(self):
        return {"kind": self.kind, "N": self.level_cap, "params": self.params.to_json()}

    def basis(self):
        return enumerate_plane_partitions(self.level_cap)

    def steps(self, level, above):
        """Per label of `level`, (index in `above` of the label plus the box,
        or None when `above` is None; weight; box) per addible box, sorted;
        Resonance on a collision."""
        index = None if above is None else {frozenset(mu.boxes): i for i, mu in enumerate(above)}
        out = []
        for lam in level:
            boxes = frozenset(lam.boxes)
            ws = distinct_weights([(b, self._weight(b)) for b in sorted(_addible(boxes))], "addible boxes", lam)
            out.append([(None if index is None else index[boxes | {b}], x, b) for b, x in ws])
        return out

    def atoms(self, lam):
        """(sign of h, sign of F, [(kind, lattice vector)]): the head's pole at
        the corner, which the diagonal boxes (k, k, k) share, then the boxes."""
        return 1, 1, [("head", (0, 0, 0))] + [("box", b) for b in lam]

    def _weight(self, box):
        """box_weight(box), computed once per box."""
        x = self._weights.get(box)
        if x is None:
            x = self._weights[box] = box_weight(box, self.params)
        return x

    def expected_shift(self):
        """(l, z1) of the shift: l = -1 at the framing weight."""
        return -1, self.params.chi
