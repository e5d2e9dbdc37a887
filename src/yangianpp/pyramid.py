"""Length-m empty room configurations and finite-type pyramid partitions.

Stones come in two colors.  Blacks live on odd layers 2k+1 (k = 0..m-1) and
carry indices a in [0, k] (q/h position) and c in [k, m-1] (t position);
whites live on even layers 2k (k = 1..m-1) with a in [0, k-1], c in [k, m-1].
A black (k; a, c) sits at the lattice vector (c, a, k-a) on the axes t, q, h
(`black_vector`) and weighs `box_weight` of it, chi + c*t + a*q + (k-a)*h; a
white (k; a, c) weighs chi + c*t + a*q + (k-1-a)*h, so the white (k+1; a, c)
weighs the same as the black (k; a, c).

The covering relation ("directly above") is reconstructed from the arrow
weights: a white sits directly below the blacks one layer up whose weight
exceeds it by q or h; a black sits directly below the whites one layer up at
weight offset 0 or t.  `ERC` tables it once as a `partitions3d.Room` of the
stones in canonical order, which grows pyramids as ints; it adds the mask of
the blacks (a color count is a popcount) and per pair its two stones and
those that must be present before it joins.

A pyramid partition is an upward-closed subset; adding or removing happens
through equal-weight black/white pairs (black (k; a, c) with white
(k+1; a, c)).  `Conifold` is the geometry: its `steps` are one per pair, by
the room's step rule, and a pyramid's removals are the steps into it; its
`atoms` and `kinds` state h(z) and the lowering factor once, per pair or
unpaired black; `reps.h_rat` is their whole form.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CapExceeded
from .exact import Kernel
from .partitions3d import Room, box_weight

Stone = namedtuple("Stone", ["color", "k", "a", "c"])  # color: 'B' | 'W'

Pair = namedtuple("Pair", ["black", "white"])


def black_vector(s: Stone):
    """The lattice vector (c, a, k - a) of a black (k; a, c), on the axes t, q, h."""
    return s.c, s.a, s.k - s.a


def stone_layer(s: Stone) -> int:
    return 2 * s.k + 1 if s.color == "B" else 2 * s.k


class ERC(Room):
    """The full stone arrangement of length m >= 1, with its covering
    relation, as a room whose atoms are the stones in canonical order; the
    `enum pyramid` command caps m, the library does not."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("length m must be positive")
        self.m = m
        blacks = [Stone("B", k, a, c) for k in range(m) for a in range(k + 1) for c in range(k, m)]
        whites = [Stone("W", k, a, c) for k in range(1, m) for a in range(k) for c in range(k, m)]
        self.blacks = tuple(blacks)
        self.whites = tuple(whites)
        self.stones = frozenset(blacks) | frozenset(whites)
        # pairs: black (k;a,c) with the equal-weight white one layer below
        below = ((b, Stone("W", b.k + 1, b.a, b.c)) for b in blacks)
        self.pairs = tuple(Pair(b, w) for b, w in below if w in self.stones)
        self.pair_white = {p.black: p.white for p in self.pairs}  # a black's pair white, if in the room
        self.covers = {s: self._directly_above(s) for s in self.stones}  # the stones directly above s
        super().__init__(sorted(self.stones, key=_stone_sort_key), self.covers)
        self.black_bits = self.mask(blacks)
        # (pair, its two bits, the bits that must be present before it joins)
        self.pair_bits = tuple((p, self.mask(p), self.mask(self.covers[p.black] + self.covers[p.white])
                                & ~self.bit[p.black]) for p in self.pairs)

    def _directly_above(self, s: Stone):
        if s.color == "W":
            cands = (Stone("B", s.k - 1, s.a, s.c), Stone("B", s.k - 1, s.a, s.c - 1))
        else:
            cands = (Stone("W", s.k, s.a, s.c), Stone("W", s.k, s.a - 1, s.c))
        return tuple(c for c in cands if c in self.stones)


def _stone_sort_key(s: Stone):
    return (stone_layer(s), s.a, s.c, s.color)


class PyramidPartition:
    """An upward-closed subset of an ERC, canonically sorted."""

    __slots__ = ("m", "stones")

    def __init__(self, m: int, stones=()):
        self.m = m
        self.stones = tuple(sorted(set(stones), key=_stone_sort_key))

    def __len__(self):
        return len(self.stones)

    def __iter__(self):
        return iter(self.stones)

    def __contains__(self, stone):
        return stone in set(self.stones)

    def __eq__(self, other):
        return (
            isinstance(other, PyramidPartition)
            and self.m == other.m
            and self.stones == other.stones
        )

    def __hash__(self):
        return hash((self.m, self.stones))

    def __repr__(self):
        return f"PyramidPartition(m={self.m}, stones={list(self.stones)})"

    def blacks(self):
        return [s for s in self.stones if s.color == "B"]

    def to_json(self):
        return [{"color": s.color, "k": s.k, "a": s.a, "c": s.c} for s in self.stones]


def _label(m: int, stones: tuple) -> PyramidPartition:
    """The partition of stones already in canonical order, kept as given."""
    new = object.__new__(PyramidPartition)
    new.m, new.stones = m, stones
    return new


def build_erc(m: int) -> ERC:
    return ERC(m)


def enumerate_pyramids(erc: ERC, max_stones: int, sector=None):
    """All pyramid partitions of the room erc with at most max_stones stones.

    Returns a dict keyed by (#black, #white) with canonically ordered lists,
    optionally filtered to one sector.  Enumeration is the room's growth by
    single stones (a stone may be added once everything directly above it
    is present), which reaches exactly the upward-closed subsets.  With a
    sector s, growth stops at (max_stones+s)//2 blacks and (max_stones-s)//2
    whites: every pyramid of the sector lies within those bounds, and so do
    all its sub-pyramids.  The color counts are popcounts.  A max_stones
    beyond the room's size is CapExceeded, a bound the room itself sets.
    """
    if max_stones < 0:
        raise ValueError("max_stones must be nonnegative")
    if max_stones > len(erc.stones):
        raise CapExceeded(f"max_stones {max_stones} exceeds ERC size {len(erc.stones)}")
    black, limits = erc.black_bits, ()
    if sector is not None:
        limits = (black, (max_stones + sector) // 2), (~black, (max_stones - sector) // 2)
    groups = {}
    for level in erc.levels(max_stones, limits):
        for ideal in level:
            b = (ideal & black).bit_count()
            w = ideal.bit_count() - b
            if sector is None or b - w == sector:
                groups.setdefault((b, w), []).append(_label(erc.m, erc.atoms_of(ideal)))
    return dict(sorted(groups.items()))


class Conifold:
    """The resolved-conifold crystal: the length-m pyramid partitions of one
    sector (#black - #white), graded by their number of whites up to
    level_cap.  Each raising step adds one equal-weight black/white pair."""

    kind = "conifold"

    def __init__(self, params, level_cap, m, sector):
        self.params = params
        self.level_cap = level_cap
        self.m = m
        self.sector = sector
        self.erc = build_erc(m)
        # one step per pair: its two bits, the bits it needs, its black's vector and weight
        self.table = [(own, need, v, box_weight(v, params)) for p, own, need in self.erc.pair_bits
                      for v in [black_vector(p.black)]]
        self.kernel = Kernel.c3(params)
        self.tag = f"conifold:{m}(sector {sector})"
        q, h, t = params.q, params.h, params.t
        # kind -> (h factors, F factors) of one atom, roots relative to its weight
        self.kinds = {"head": ([(0, 1)], []), "framing": ([], [(0, 1)]),
                      "pair": (self.kernel.ratio(0)[1], self.kernel.fac(0)),
                      "black": ([(0, 1), (-q, 1), (-h, 1), (t, -1)], [(-q, 1), (-h, 1)])}

    def to_json(self):
        return {"kind": self.kind, "N": self.level_cap, "params": self.params.to_json(),
                "m": self.m, "sector": self.sector}

    def basis(self):
        # a sector below 0 holds no pyramid, so it grows none
        max_stones = max(0, min(self.sector + 2 * self.level_cap, len(self.erc.stones)))
        groups = enumerate_pyramids(self.erc, max_stones, sector=self.sector)
        return [groups.get((self.sector + nw, nw), []) for nw in range(self.level_cap + 1)]

    def steps(self, level, above):
        """Per label of `level`, its addible pairs in `erc.pair_bits` order:
        the pair is absent and every stone directly above it but its black is
        present."""
        return self.erc.steps(level, above, self.table, "addible pairs")

    def atoms(self, pi):
        """(sign of h, sign of F, [(kind, lattice vector)]) on the axes t, q, h:
        the head at (m, 0, 0), the framing factors at (i, 0, 0), i = 0..m, and
        each black (k; a, c) at (c, a, k - a), as a completed pair or unpaired."""
        present, m = set(pi.stones), self.m
        blacks = [("pair" if self.erc.pair_white.get(s) in present else "black", black_vector(s))
                  for s in pi.blacks()]
        sign = (-1) ** (m + 1)
        atoms = [("head", (m, 0, 0))] + [("framing", (i, 0, 0)) for i in range(m + 1)] + blacks
        return sign * (-1) ** sum(kind == "black" for kind, _ in blacks), sign, atoms

    def expected_shift(self):
        """(l, z1) of the shift: l = +1 at chi + m*t."""
        p = self.params
        return +1, p.field.reduce(p.chi + self.m * p.t)
