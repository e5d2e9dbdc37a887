from fractions import Fraction as F
from operator import sub

import pytest

from oracles import (
    addible_pairs_scan,
    black_only_count,
    enumerate_pyramids_rescan,
    is_upward_closed,
    removable_pairs_scan,
    stone_counts,
    stone_weight,
    upward_closed_subsets,
)
from yangianpp import CapExceeded, Geometry, Params, build_erc, enumerate_pyramids, pyramid
from yangianpp.pyramid import PyramidPartition, Stone, black_vector

PARAMS = Params.make(F(101, 13), F(47, 7), F(7))


def pair_steps(m, labels, above=None):
    """Per label, its steps as a length-m Conifold gives them, each with the
    pair whose black sits at the step's lattice vector."""
    g = Geometry("conifold", PARAMS, 0, m=m, sector=0)
    pair_at = {black_vector(p.black): p for p in g.erc.pairs}
    return [[(t, x, pair_at[v]) for t, x, v in steps] for steps in g.steps(labels, above)]


def grown(m, max_stones, small):
    """The pyramids of length m with at most max_stones stones, and the
    steps of those with at most small stones, targets indexed in the former."""
    groups = enumerate_pyramids(build_erc(m), max_stones)
    pis = [pi for group in groups.values() for pi in group]
    sources = [pi for pi in pis if len(pi) <= small]
    return pis, sources, pair_steps(m, sources, pis)


def test_erc_m1_is_one_black_stone():
    erc = build_erc(1)
    assert len(erc.blacks) == 1 and len(erc.whites) == 0
    assert erc.pairs == ()


def test_erc_m2_layer_structure():
    erc = build_erc(2)
    assert len(erc.blacks) == 4 and len(erc.whites) == 1
    layers = {}
    for s in erc.stones:
        layer = 2 * s.k + 1 if s.color == "B" else 2 * s.k
        layers.setdefault(layer, 0)
        layers[layer] += 1
    assert layers == {1: 2, 2: 1, 3: 2}


def test_erc_m3_counts():
    erc = build_erc(3)
    assert len(erc.blacks) == 10 and len(erc.whites) == 4
    # layer-count formulas
    m = 3
    assert len(erc.blacks) == sum((k + 1) * (m - k) for k in range(m))
    assert len(erc.whites) == sum(k * (m - k) for k in range(1, m))


def test_top_layer_black_weights(params):
    erc = build_erc(3)
    tops = sorted(
        stone_weight(s, params) for s in erc.blacks if s.k == 0
    )
    expect = sorted(params.chi + c * params.t for c in range(3))
    assert tops == expect


def test_pair_weights_are_equal(params):
    erc = build_erc(3)
    for p in erc.pairs:
        assert stone_weight(p.black, params) == stone_weight(p.white, params)
        assert p.white.k == p.black.k + 1


def test_room_bounds_max_stones_and_the_library_caps_no_length():
    """Only the enum command caps --length (at 5): a length-6 room builds.
    A max_stones beyond the room is refused whatever the caller."""
    assert len(build_erc(6).stones) == 91
    with pytest.raises(CapExceeded):
        enumerate_pyramids(build_erc(2), 99)


def test_enumerate_m1():
    groups = enumerate_pyramids(build_erc(1), 1)
    assert {k: len(v) for k, v in groups.items()} == {(0, 0): 1, (1, 0): 1}


def test_enumerate_m2_small():
    groups = enumerate_pyramids(build_erc(2), 2)
    sizes = {}
    for (b, w), pis in groups.items():
        sizes[b + w] = sizes.get(b + w, 0) + len(pis)
    assert sizes == {0: 1, 1: 2, 2: 1}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_enumeration_matches_subset_oracle(m):
    erc = build_erc(m)
    oracle = {fs for fs in upward_closed_subsets(erc) if len(fs) <= 8}
    groups = enumerate_pyramids(erc, min(8, len(erc.stones)))
    ours = {frozenset(pi.stones) for pis in groups.values() for pi in pis}
    assert ours == oracle


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sector_enumeration_matches_subset_oracle(m):
    """Sector-bounded growth keeps exactly the oracle's subsets of the sector."""
    erc = build_erc(m)
    subsets = upward_closed_subsets(erc)
    for max_stones in range(min(8, len(erc.stones)) + 1):
        for sector in (-1, 0, 1, 2, 3):
            oracle = {
                fs for fs in subsets
                if len(fs) <= max_stones and 2 * sum(s.color == "B" for s in fs) - len(fs) == sector
            }
            groups = enumerate_pyramids(erc, max_stones, sector=sector)
            ours = [frozenset(pi.stones) for pis in groups.values() for pi in pis]
            assert len(ours) == len(oracle) and set(ours) == oracle, (max_stones, sector)


def test_negative_max_stones_is_refused():
    with pytest.raises(ValueError, match="max_stones must be nonnegative"):
        enumerate_pyramids(build_erc(2), -1)
    with pytest.raises(ValueError):
        enumerate_pyramids(build_erc(2), -1, sector=0)


def test_frontier_tables_invert_the_covers():
    """Each stone's bit round-trips through the canonical order, and every
    mask holds the stones its definition names: the covers, their inverse,
    the blacks, the tops, and per pair its own two stones and the stones
    that must already be present (everything above either, but the black)."""
    for m in range(1, 6):
        erc = build_erc(m)

        def stones(mask):
            return {s for s in erc.stones if erc.bit[s] & mask}

        assert list(erc.order) == sorted(erc.stones, key=pyramid._stone_sort_key)
        assert sorted(erc.bit.values()) == [1 << i for i in range(len(erc.stones))]
        for s in erc.stones:
            assert erc.order[erc.bit[s].bit_length() - 1] == s
            assert stones(erc.cover_bits[erc.bit[s]]) == set(erc.covers[s])
            assert stones(erc.below_bits[erc.bit[s]]) == {t for t in erc.stones if s in erc.covers[t]}
        assert stones(erc.black_bits) == set(erc.blacks)
        assert stones(erc.top_bits) == {s for s in erc.stones if not erc.covers[s]}
        assert stones(erc.top_bits) == {Stone("B", 0, 0, c) for c in range(m)}
        assert [p for p, _, _ in erc.pair_bits] == list(erc.pairs)
        for p, own, need in erc.pair_bits:
            assert stones(own) == {p.black, p.white}
            assert stones(need) == set(erc.covers[p.black] + erc.covers[p.white]) - {p.black}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("sector", [None, 0, 1, 2, 3])
def test_frontier_enumeration_equals_the_rescan(m, sector):
    """Up to the conifold sweep's max_stones (sector + 2 * level 5) or the
    room's size: the same groups in the same order as the whole-room
    rescan, and on every label enumerated the pairs of its steps equal the
    addible pairs' definitional scan (the removals, read off the steps, are
    checked in test_relations)."""
    erc = build_erc(m)
    labels = set()
    for max_stones in range(min(len(erc.stones), (sector or 0) + 10) + 1):
        groups = enumerate_pyramids(erc, max_stones, sector=sector)
        assert list(groups.items()) == list(enumerate_pyramids_rescan(m, max_stones, sector).items()), max_stones
        labels.update(pi for pis in groups.values() for pi in pis)
    labels = sorted(labels, key=lambda pi: pi.stones)
    pairs = [[p for _, _, p in steps] for steps in pair_steps(m, labels)]
    assert pairs == [addible_pairs_scan(pi, erc) for pi in labels]
    # sector 0 holds only the empty pyramid; from length 3 on, every other
    # enumeration has steps
    assert any(pairs) == (sector != 0) or m < 3


def test_addible_pairs_examples():
    erc = build_erc(2)
    b00 = Stone("B", 0, 0, 0)
    b01 = Stone("B", 0, 0, 1)
    w11 = Stone("W", 1, 0, 1)
    labels = [PyramidPartition(2), PyramidPartition(2, [b00]), PyramidPartition(2, erc.stones)]
    assert [[p for _, _, p in steps] for steps in pair_steps(2, labels)] == [[], [(b01, w11)], []]


def test_removable_pairs_examples():
    erc = build_erc(2)
    b00 = Stone("B", 0, 0, 0)
    assert removable_pairs_scan(PyramidPartition(2, [b00]), erc) == []
    assert removable_pairs_scan(PyramidPartition(2), erc) == []
    b01 = Stone("B", 0, 0, 1)
    w11 = Stone("W", 1, 0, 1)
    pi = PyramidPartition(2, [b00, b01, w11])
    pairs = removable_pairs_scan(pi, erc)
    assert len(pairs) == 1 and pairs[0].black == b01


def test_add_then_remove_roundtrip():
    """Each step's target is the pyramid plus the step's pair, upward-closed,
    with that pair removable."""
    for m in (2, 3):
        erc = build_erc(m)
        pis, sources, steps = grown(m, min(10, len(erc.stones)), 8)
        assert any(steps)
        for pi, out in zip(sources, steps):
            for t, _, p in out:
                bigger = pis[t]
                assert is_upward_closed(bigger, erc)
                assert p in removable_pairs_scan(bigger, erc)
                assert PyramidPartition(m, set(bigger) - {p.black, p.white}) == pi


@pytest.mark.parametrize("m", [2, 3, 4])
def test_labels_built_in_order_equal_the_sorted_ones(m):
    """Enumeration builds labels without sorting them: each equals the label
    of the same stones sorted, on every pyramid of the room."""
    erc = build_erc(m)
    pis = [pi for group in enumerate_pyramids(erc, len(erc.stones)).values() for pi in group]
    assert all(pi == PyramidPartition(m, pi.stones) for pi in pis)


def test_black_only_count(params):
    erc = build_erc(2)
    b00 = Stone("B", 0, 0, 0)
    assert black_only_count(PyramidPartition(2, [b00]), erc) == 1
    assert black_only_count(PyramidPartition(2), erc) == 0
    b01 = Stone("B", 0, 0, 1)
    w11 = Stone("W", 1, 0, 1)
    paired = PyramidPartition(2, [b00, b01, w11])
    # one completed pair plus one unpaired black
    assert black_only_count(paired, erc) == 1


def test_black_only_equals_sector():
    for m in (1, 2, 3):
        erc = build_erc(m)
        groups = enumerate_pyramids(erc, min(8, len(erc.stones)))
        for pis in groups.values():
            for pi in pis:
                assert black_only_count(pi, erc) == sub(*stone_counts(pi))


def test_every_white_is_paired_upward():
    for m in (2, 3):
        erc = build_erc(m)
        groups = enumerate_pyramids(erc, min(8, len(erc.stones)))
        for pis in groups.values():
            for pi in pis:
                stones = set(pi.stones)
                for w in [s for s in pi.stones if s.color == "W"]:
                    assert Stone("B", w.k - 1, w.a, w.c) in stones


def test_addible_implies_black_condition(params):
    """The definitional predicate implies the chain characterization: the
    added black has the stone one step in front of it already present."""
    for m in (2, 3):
        erc = build_erc(m)
        pis = [pi for group in enumerate_pyramids(erc, min(8, len(erc.stones))).values() for pi in group]
        for pi, steps in zip(pis, pair_steps(m, pis)):
            for _, _, p in steps:
                b = p.black
                front = Stone("B", b.k, b.a, b.c - 1)
                assert front in erc.stones and front in pi.stones


def test_pair_weight_distinctness(params):
    g = Geometry("conifold", params, 4, m=3, sector=0)
    groups = enumerate_pyramids(g.erc, 8)
    for pis in groups.values():
        for steps in g.steps(pis, None):
            ws = [x for _, x, _ in steps]
            assert len(set(ws)) == len(ws)


def test_sector_preserved_by_pairs():
    """Over every sector at once, each step's target is a pyramid of its
    source's sector."""
    pis, sources, steps = grown(3, 10, 8)
    assert any(steps)
    for pi, out in zip(sources, steps):
        for t, _, _ in out:
            assert sub(*stone_counts(pis[t])) == sub(*stone_counts(pi))


def test_conifold_builds_its_room_once(monkeypatch, params):
    """The basis grows in the Conifold's own ERC; enumeration builds none."""
    built = []
    monkeypatch.setattr(pyramid, "build_erc", lambda *a, **k: built.append(a) or build_erc(*a, **k))
    g = Geometry("conifold", params, 5, m=4, sector=2)
    assert g.basis()[2] and len(built) == 1
