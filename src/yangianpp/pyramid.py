"""Length-m empty room configurations and finite-type pyramid partitions.

Stones come in two colors.  Blacks live on odd layers 2k+1 (k = 0..m-1) and
carry indices a in [0, k] (q/h position) and c in [k, m-1] (t position);
whites live on even layers 2k (k = 1..m-1) with a in [0, k-1], c in [k, m-1].
Weights:

    black (k; a, c):  chi + a*q + (k-a)*h + c*t
    white (k; a, c):  chi + a*q + (k-1-a)*h + c*t

The covering relation ("directly above") is reconstructed from the arrow
weights: a white sits directly below the blacks one layer up whose weight
exceeds it by q or h; a black sits directly below the whites one layer up at
weight offset 0 or t.  A pyramid partition is an upward-closed subset; adding
or removing happens through equal-weight black/white pairs
(black (k; a, c) with white (k+1; a, c)).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CapExceeded, Resonance

Stone = namedtuple("Stone", ["color", "k", "a", "c"])  # color: 'B' | 'W'

Pair = namedtuple("Pair", ["black", "white"])

DEFAULT_CAP = 5


def stone_weight(s: Stone, params):
    q, h, t = params.q, params.h, params.t
    b = (s.k - s.a) if s.color == "B" else (s.k - 1 - s.a)
    return params.chi + s.a * q + b * h + s.c * t


def stone_layer(s: Stone) -> int:
    return 2 * s.k + 1 if s.color == "B" else 2 * s.k


class ERC:
    """The full stone arrangement of length m, with its covering relation."""

    def __init__(self, m: int, cap: int = DEFAULT_CAP):
        if m < 1:
            raise ValueError("length m must be positive")
        if m > cap:
            raise CapExceeded(f"length {m} exceeds cap {cap}")
        self.m = m
        blacks, whites = [], []
        for k in range(m):
            for a in range(k + 1):
                for c in range(k, m):
                    blacks.append(Stone("B", k, a, c))
        for k in range(1, m):
            for a in range(k):
                for c in range(k, m):
                    whites.append(Stone("W", k, a, c))
        self.blacks = tuple(blacks)
        self.whites = tuple(whites)
        self.stones = frozenset(blacks) | frozenset(whites)
        # pairs: black (k;a,c) with the equal-weight white one layer below
        self.pairs = tuple(
            Pair(b, Stone("W", b.k + 1, b.a, b.c))
            for b in blacks
            if Stone("W", b.k + 1, b.a, b.c) in self.stones
        )
        self._pair_white_of_black = {p.black: p.white for p in self.pairs}
        self._covers = {s: self._directly_above(s) for s in self.stones}

    def _directly_above(self, s: Stone):
        if s.color == "W":
            cands = (Stone("B", s.k - 1, s.a, s.c), Stone("B", s.k - 1, s.a, s.c - 1))
        else:
            cands = (Stone("W", s.k, s.a, s.c), Stone("W", s.k, s.a - 1, s.c))
        return tuple(c for c in cands if c in self.stones)

    def covers(self, s: Stone):
        """Stones directly above s (one layer toward the top), tabled once
        per ERC."""
        return self._covers[s]

    def pair_white_of(self, black: Stone):
        """The equal-weight white below a black, or None if the slot is absent."""
        return self._pair_white_of_black.get(black)


def _stone_sort_key(s: Stone):
    return (stone_layer(s), s.a, s.c, s.color)


class PyramidPartition:
    """An upward-closed subset of an ERC, canonically sorted."""

    __slots__ = ("m", "stones")

    def __init__(self, m: int, stones=()):
        self.m = m
        self.stones = tuple(sorted(set(stones), key=_stone_sort_key))

    def is_valid(self, erc: ERC) -> bool:
        s = set(self.stones)
        return all(c in s for st in self.stones for c in erc.covers(st))

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

    def __lt__(self, other):
        return tuple(map(_stone_sort_key, self.stones)) < tuple(
            map(_stone_sort_key, other.stones)
        )

    def __hash__(self):
        return hash((self.m, self.stones))

    def __repr__(self):
        return f"PyramidPartition(m={self.m}, stones={list(self.stones)})"

    @property
    def black_count(self):
        return sum(1 for s in self.stones if s.color == "B")

    @property
    def white_count(self):
        return len(self.stones) - self.black_count

    @property
    def sector(self):
        """#black - #white; preserved by pair addition and removal."""
        return self.black_count - self.white_count

    def blacks(self):
        return [s for s in self.stones if s.color == "B"]

    def whites(self):
        return [s for s in self.stones if s.color == "W"]

    def with_pair(self, pair: Pair) -> "PyramidPartition":
        return PyramidPartition(self.m, self.stones + (pair.black, pair.white))

    def without_pair(self, pair: Pair) -> "PyramidPartition":
        drop = {pair.black, pair.white}
        return PyramidPartition(self.m, tuple(s for s in self.stones if s not in drop))

    def to_json(self):
        return [{"color": s.color, "k": s.k, "a": s.a, "c": s.c} for s in self.stones]

    @classmethod
    def from_json(cls, m, obj):
        return cls(m, (Stone(d["color"], d["k"], d["a"], d["c"]) for d in obj))


def build_erc(m: int, cap: int = DEFAULT_CAP) -> ERC:
    return ERC(m, cap=cap)


def addible_pairs(pi: PyramidPartition, erc: ERC):
    """Pairs not in pi whose addition keeps the subset upward-closed.

    Purely definitional; the chain characterization of addibility is tested
    against this, not assumed.
    """
    s = set(pi.stones)
    out = []
    for p in erc.pairs:
        if p.black in s or p.white in s:
            continue
        s2 = s | {p.black, p.white}
        if all(c in s2 for st in (p.black, p.white) for c in erc.covers(st)):
            out.append(p)
    return out


def removable_pairs(pi: PyramidPartition, erc: ERC):
    """Pairs inside pi whose removal keeps the subset upward-closed."""
    s = set(pi.stones)
    out = []
    for p in erc.pairs:
        if p.black not in s or p.white not in s:
            continue
        s2 = s - {p.black, p.white}
        if all(c in s2 for st in s2 for c in erc.covers(st)):
            out.append(p)
    return out


def black_only_count(pi: PyramidPartition, erc: ERC) -> int:
    """Blacks in pi whose equal-weight paired white is absent.

    Counts blacks whose pair slot does not even exist in the ERC; always
    equals the sector of pi, which the tests assert.
    """
    s = set(pi.stones)
    n = 0
    for st in pi.stones:
        if st.color != "B":
            continue
        w = erc.pair_white_of(st)
        if w is None or w not in s:
            n += 1
    return n


def pair_weights(pi: PyramidPartition, erc: ERC, params, which="addible"):
    """(pair, weight) list for addible or removable pairs; Resonance on collision."""
    pairs = addible_pairs(pi, erc) if which == "addible" else removable_pairs(pi, erc)
    ws = [(p, stone_weight(p.black, params)) for p in pairs]
    if len({w for _, w in ws}) != len(ws):
        raise Resonance(f"{which} pairs of {pi!r} share a weight")
    return ws


def enumerate_pyramids(m: int, max_stones: int, sector=None, cap: int = DEFAULT_CAP):
    """All pyramid partitions of length m with at most max_stones stones.

    Returns a dict keyed by (#black, #white) with canonically ordered lists,
    optionally filtered to one sector.  Enumeration is by single-stone
    addition (a stone may be added once everything directly above it is
    present), which reaches exactly the upward-closed subsets.
    """
    erc = build_erc(m, cap=cap)
    if max_stones > len(erc.stones):
        raise CapExceeded(
            f"max_stones {max_stones} exceeds ERC size {len(erc.stones)}"
        )
    seen = {frozenset()}
    frontier = [frozenset()]
    for _ in range(max_stones):
        nxt = []
        for cur in frontier:
            for s in erc.stones - cur:
                if all(c in cur for c in erc.covers(s)):
                    new = cur | {s}
                    if new not in seen:
                        seen.add(new)
                        nxt.append(new)
        frontier = nxt
    groups = {}
    for fs in seen:
        pi = PyramidPartition(m, fs)
        if sector is not None and pi.sector != sector:
            continue
        groups.setdefault((pi.black_count, pi.white_count), []).append(pi)
    for v in groups.values():
        v.sort()
    return dict(sorted(groups.items()))
