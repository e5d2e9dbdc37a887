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
weight offset 0 or t.  `ERC` tables it once and gives every stone a bit in
the canonical stone order, so a subset of the room is an int.  Its masks
(per stone its covers and the stones directly below, the blacks, the tops,
per pair its two stones and those that must be present) let growth and the
pair steps look only at the stones next to a pyramid, never at the whole room.

A pyramid partition is an upward-closed subset; adding or removing happens
through equal-weight black/white pairs (black (k; a, c) with white
(k+1; a, c)).  `Conifold` is the geometry: its `steps` add the pairs, each
target found in the next level by its ideal's int, and a pyramid's removals
are the steps into it; its `atoms` and `kinds` state h(z) and the lowering
factor once, per pair or unpaired black; `reps.h_rat` is their whole form.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CapExceeded
from .exact import Kernel
from .partitions3d import box_weight, distinct_weights, grow

Stone = namedtuple("Stone", ["color", "k", "a", "c"])  # color: 'B' | 'W'

Pair = namedtuple("Pair", ["black", "white"])


def black_vector(s: Stone):
    """The lattice vector (c, a, k - a) of a black (k; a, c), on the axes t, q, h."""
    return s.c, s.a, s.k - s.a


def stone_layer(s: Stone) -> int:
    return 2 * s.k + 1 if s.color == "B" else 2 * s.k


class ERC:
    """The full stone arrangement of length m >= 1, with its covering
    relation; the `enum pyramid` command caps m, the library does not."""

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
        # Stone i of the canonical order is the bit 1 << i, so an int is a subset.
        self.order = tuple(sorted(self.stones, key=_stone_sort_key))
        self.bit = {s: 1 << i for i, s in enumerate(self.order)}
        # per bit, the stones directly above and directly below; the blacks; the tops
        self.cover_bits = {self.bit[s]: self.mask(cs) for s, cs in self.covers.items()}
        self.below_bits = dict.fromkeys(self.cover_bits, 0)
        for s, cs in self.covers.items():
            for c in cs:
                self.below_bits[self.bit[c]] |= self.bit[s]
        self.black_bits = self.mask(blacks)
        self.top_bits = self.mask(s for s, cs in self.covers.items() if not cs)
        # (pair, its two bits, the bits that must be present before it joins)
        self.pair_bits = tuple((p, self.mask(p), self.mask(self.covers[p.black] + self.covers[p.white])
                                & ~self.bit[p.black]) for p in self.pairs)

    def _directly_above(self, s: Stone):
        if s.color == "W":
            cands = (Stone("B", s.k - 1, s.a, s.c), Stone("B", s.k - 1, s.a, s.c - 1))
        else:
            cands = (Stone("W", s.k, s.a, s.c), Stone("W", s.k, s.a - 1, s.c))
        return tuple(c for c in cands if c in self.stones)

    def mask(self, stones) -> int:
        """The int whose set bits are the given stones."""
        return sum(map(self.bit.__getitem__, stones))


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
    optionally filtered to one sector.  Enumeration is by single-stone
    addition (a stone may be added once everything directly above it is
    present), which reaches exactly the upward-closed subsets.  With a
    sector s, growth stops at (max_stones+s)//2 blacks and (max_stones-s)//2
    whites: every pyramid of the sector lies within those bounds, and so do
    all its sub-pyramids.  Ideals grow as ints over `ERC.bit`, each with the
    mask of the stones directly below its stones: a stone's candidates are
    the tops and that mask, and the color counts are popcounts.  Bit order
    is the canonical stone order, so sorting the ideals by their set bits
    sorts the partitions.  A max_stones beyond the room's size is
    CapExceeded, a bound the room itself sets.
    """
    if max_stones < 0:
        raise ValueError("max_stones must be nonnegative")
    if max_stones > len(erc.stones):
        raise CapExceeded(f"max_stones {max_stones} exceeds ERC size {len(erc.stones)}")
    nb = nw = max_stones
    if sector is not None:
        nb, nw = (max_stones + sector) // 2, (max_stones - sector) // 2
    black, top, covers, below = erc.black_bits, erc.top_bits, erc.cover_bits, erc.below_bits

    def children(node):  # (ideal, the stones directly below its stones)
        ideal, under = node
        b = (ideal & black).bit_count()
        room = (black if b < nb else 0) | (~black if ideal.bit_count() - b < nw else 0)
        cands = (top | under) & room & ~ideal
        out = []
        while cands:
            low = cands & -cands
            cands ^= low
            if (c := covers[low]) & ideal == c:
                out.append((ideal | low, under | below[low]))
        return out

    kept = (ideal for level in grow((0, 0), max_stones, children) for ideal, _ in level
            if sector is None or 2 * (ideal & black).bit_count() - ideal.bit_count() == sector)
    groups = {}
    for bits, ideal in sorted(([i for i, d in enumerate(bin(ideal)[:1:-1]) if d == "1"], ideal) for ideal in kept):
        b = (ideal & black).bit_count()
        groups.setdefault((b, len(bits) - b), []).append(_label(erc.m, tuple(erc.order[i] for i in bits)))
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
        max_stones = min(self.sector + 2 * self.level_cap, len(self.erc.stones))
        groups = enumerate_pyramids(self.erc, max_stones, sector=self.sector)
        return [groups.get((self.sector + nw, nw), []) for nw in range(self.level_cap + 1)]

    def steps(self, level, above):
        """Per label of `level`, (index in `above` of the label plus the pair,
        or None when `above` is None; box_weight(v); v, its black's lattice
        vector) per addible pair, in `erc.pair_bits` order: the pair is absent
        and every stone directly above it but its black is present.
        Resonance on a collision."""
        mask, params = self.erc.mask, self.params
        index = None if above is None else {mask(mu.stones): i for i, mu in enumerate(above)}
        out = []
        for pi in level:
            ideal = mask(pi.stones)
            ws = [((own, v), box_weight(v, params)) for p, own, need in self.erc.pair_bits
                  if not ideal & own and ideal & need == need for v in [black_vector(p.black)]]
            out.append([(None if index is None else index[ideal | own], x, v)
                        for (own, v), x in distinct_weights(ws, "addible pairs", pi)])
        return out

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
