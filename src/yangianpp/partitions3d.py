"""Crystals as rooms of atoms, 3D plane partitions, and the C^3 crystal.

A crystal's labels are the finite order ideals of a poset of atoms.  A
`Room` gives each atom a bit in canonical order, so an ideal is an int, and
holds the one grower and the one step rule: a step (own, need, lattice
vector, weight) applies to an ideal I when not I & own and I & need == need.
Boxes are (i, j, k) tuples with the corner box at (0, 0, 0); a partition is
a lexicographically sorted tuple of boxes.  `C3` is the geometry: its room
holds the boxes (i+1)(j+1)(k+1) <= N+1, those that levels <= N can add,
one step each; its `atoms` and `kinds` state h(z) and the lowering factor
once, per box, and `reps.h_rat` is their whole form (the tests state both
independently).
"""

from __future__ import annotations

from .errors import Resonance
from .exact import Kernel


class Room:
    """A finite poset of atoms in canonical order, atom i the bit 1 << i.
    covers maps an atom to those that must be present before it joins; per
    bit, `cover_bits` holds theirs and `below_bits` the atoms waiting on it,
    and `top_bits` holds the atoms waiting on none."""

    def __init__(self, order, covers):
        self.order = tuple(order)
        self.bit = {a: 1 << i for i, a in enumerate(self.order)}
        self.cover_bits = {self.bit[a]: self.mask(cs) for a, cs in covers.items()}
        self.below_bits = dict.fromkeys(self.cover_bits, 0)
        for a, cs in covers.items():
            for c in cs:
                self.below_bits[self.bit[c]] |= self.bit[a]
        self.top_bits = self.mask(a for a, cs in covers.items() if not cs)

    def mask(self, atoms) -> int:
        """The int whose set bits are the given atoms."""
        return sum(map(self.bit.__getitem__, atoms))

    def atoms_of(self, ideal) -> tuple:
        """The atoms of an int, in canonical order."""
        return tuple(self.order[i] for i, d in enumerate(bin(ideal)[:1:-1]) if d == "1")

    def levels(self, max_size, limits=()):
        """The ideals of 0..max_size atoms as ints, level by level in
        canonical order.  An ideal grows by an atom whose covers it holds,
        among the tops and the atoms waiting on its atoms; each (mask, cap)
        of limits keeps out the ideals with more than cap atoms in mask."""
        top, covers, below = self.top_bits, self.cover_bits, self.below_bits
        level, levels = {0: 0}, [[0]]  # ideal -> the atoms waiting on its atoms
        for _ in range(max_size):
            grown = {}
            for ideal, under in level.items():
                cands = (top | under) & ~ideal
                for mask, cap in limits:
                    if (ideal & mask).bit_count() >= cap:
                        cands &= ~mask
                while cands:
                    low = cands & -cands
                    cands ^= low
                    if (c := covers[low]) & ideal == c:
                        grown[ideal | low] = under | below[low]
            level = grown
            # of two ideals of one size, the one holding the lowest atom where
            # they differ comes first, and its bits read from bit 0 are greater
            levels.append(sorted(grown, key=lambda ideal: bin(ideal)[:1:-1], reverse=True))
        return levels

    def steps(self, labels, above, table, what):
        """Per label, whose atoms form the ideal I: (the index in `above` of
        I | own, or None without `above`; weight; lattice vector) per step
        (own, need, lattice vector, weight) of `table` that applies to I, in
        table order; Resonance when two share a weight, naming `what`."""
        index = None if above is None else {self.mask(mu): i for i, mu in enumerate(above)}
        out = []
        for lab in labels:
            ideal = self.mask(lab)
            steps = [(own, v, x) for own, need, v, x in table if not ideal & own and ideal & need == need]
            if len({x for _, _, x in steps}) != len(steps):
                raise Resonance(f"{what} of {lab!r} share a weight")
            out.append([(None if index is None else index[ideal | own], x, v) for own, v, x in steps])
        return out


def c3_room(n):
    """The boxes (i, j, k) with (i+1)(j+1)(k+1) <= n, lexicographically: a
    box's own down-set has that many boxes, so these are exactly the boxes
    of the plane partitions of at most n boxes."""
    boxes = [(i, j, k) for i in range(n) for j in range(n // (i + 1)) for k in range(n // ((i + 1) * (j + 1)))]
    return Room(boxes, {(i, j, k): [p for p in ((i - 1, j, k), (i, j - 1, k), (i, j, k - 1)) if min(p) >= 0]
                        for i, j, k in boxes})


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


def _partition(boxes: tuple) -> Partition3D:
    """The partition of boxes already in canonical order, kept as given."""
    new = object.__new__(Partition3D)
    new.boxes = boxes
    return new


def enumerate_plane_partitions(max_boxes: int):
    """All plane partitions with 0..max_boxes boxes, grouped by box count.

    Levels are complete, duplicate-free and canonically ordered; growth is by
    single-box addition in `c3_room(max_boxes)`.  The size is the caller's to
    bound (`enum pp` caps it).
    """
    if max_boxes < 0:
        raise ValueError("max_boxes must be nonnegative")
    room = c3_room(max_boxes)
    return [[_partition(room.atoms_of(ideal)) for ideal in level] for level in room.levels(max_boxes)]


class C3:
    """The C^3 crystal truncated at level_cap boxes: level n of the basis
    lists the plane partitions with n boxes, and each box is one atom."""

    kind = "c3"
    tag = "c3"

    def __init__(self, params, level_cap):
        self.params = params
        self.level_cap = level_cap
        self.kernel = Kernel.c3(params)
        self.room = room = c3_room(level_cap + 1)
        # one step per box: its bit, the boxes below it, the box and its weight
        self.table = [(bit, room.cover_bits[bit], b, box_weight(b, params)) for b, bit in room.bit.items()]
        # kind -> (h factors, F factors) of one atom, roots relative to its weight
        self.kinds = {"head": ([(0, -1)], []), "box": (self.kernel.ratio(0)[1], self.kernel.fac(0))}

    def to_json(self):
        return {"kind": self.kind, "N": self.level_cap, "params": self.params.to_json()}

    def basis(self):
        return enumerate_plane_partitions(self.level_cap)

    def steps(self, level, above):
        """Per label of `level`, its addible boxes in sorted order, as
        `Room.steps` gives them."""
        return self.room.steps(level, above, self.table, "addible boxes")

    def atoms(self, lam):
        """(sign of h, sign of F, [(kind, lattice vector)]): the head's pole at
        the corner, which the diagonal boxes (k, k, k) share, then the boxes."""
        return 1, 1, [("head", (0, 0, 0))] + [("box", b) for b in lam]

    def expected_shift(self):
        """(l, z1) of the shift: l = -1 at the framing weight."""
        return -1, self.params.chi
