"""3D plane partitions: finite order ideals in N^3.

These index the torus-fixed basis of the rank-one Hilbert-scheme side.
Boxes are (i, j, k) tuples with the corner box at (0, 0, 0); a partition is
canonically stored as a lexicographically sorted tuple of boxes.
"""

from __future__ import annotations

from .errors import CapExceeded, Resonance

Box = tuple  # (i, j, k), componentwise nonnegative

_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

DEFAULT_CAP = 10


def _preds(box):
    i, j, k = box
    out = []
    if i:
        out.append((i - 1, j, k))
    if j:
        out.append((i, j - 1, k))
    if k:
        out.append((i, j, k - 1))
    return out


def _succs(box):
    i, j, k = box
    return ((i + 1, j, k), (i, j + 1, k), (i, j, k + 1))


class Partition3D:
    """A finite order ideal of boxes, canonically sorted."""

    __slots__ = ("boxes",)

    def __init__(self, boxes=()):
        bs = tuple(sorted(set(map(tuple, boxes))))
        if not all(len(b) == 3 and min(b) >= 0 for b in bs):
            raise ValueError("boxes must be nonnegative integer triples")
        self.boxes = bs

    def is_valid(self) -> bool:
        s = set(self.boxes)
        return all(p in s for b in self.boxes for p in _preds(b))

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

    def add(self, box) -> "Partition3D":
        return Partition3D(self.boxes + (tuple(box),))

    def remove(self, box) -> "Partition3D":
        b = tuple(box)
        return Partition3D(tuple(x for x in self.boxes if x != b))

    def addible_boxes(self):
        """Boxes whose addition keeps the order-ideal property."""
        s = set(self.boxes)
        cands = {(0, 0, 0)}
        for b in self.boxes:
            cands.update(_succs(b))
        out = [c for c in cands if c not in s and all(p in s for p in _preds(c))]
        return sorted(out)

    def removable_boxes(self):
        """Boxes whose removal keeps the order-ideal property."""
        s = set(self.boxes)
        return sorted(b for b in self.boxes if not any(x in s for x in _succs(b)))

    def to_json(self):
        return [list(b) for b in self.boxes]

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(map(tuple, obj)))


def box_weight(box, params):
    """Equivariant weight chi + i*h1 + j*h2 + k*h3 of a box."""
    i, j, k = box
    return params.chi + i * params.h1 + j * params.h2 + k * params.h3


def addible_weights(lam: Partition3D, params):
    """Weights of the addible boxes; Resonance if two collide."""
    ws = [(b, box_weight(b, params)) for b in lam.addible_boxes()]
    if len({w for _, w in ws}) != len(ws):
        raise Resonance(f"addible boxes of {lam!r} share a weight")
    return ws


def enumerate_plane_partitions(max_boxes: int, cap: int = DEFAULT_CAP):
    """All plane partitions with 0..max_boxes boxes, grouped by box count.

    Levels are complete, duplicate-free and canonically ordered; growth is by
    single-box addition with memoized canonical forms.
    """
    if max_boxes < 0:
        raise ValueError("max_boxes must be nonnegative")
    if max_boxes > cap:
        raise CapExceeded(f"max_boxes {max_boxes} exceeds cap {cap}")
    levels = [[Partition3D()]]
    for _ in range(max_boxes):
        nxt = set()
        for lam in levels[-1]:
            for b in lam.addible_boxes():
                nxt.add(lam.add(b))
        levels.append(sorted(nxt))
    return levels
