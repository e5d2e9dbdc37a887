from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    addible_boxes_scan,
    is_plane_partition,
    mul,
    plane_partition_counts_gf,
    plane_partition_subsets,
    removable_boxes,
    stone_product,
)
from yangianpp import LinForm, Params, Partition3D, box_weight, enumerate_plane_partitions
from yangianpp import partitions3d as p3
from yangianpp.exact import random_params
from yangianpp.reps import h_rat

GEOMETRY = p3.C3(Params.make(F(101, 13), F(47, 7), F(7)), 0)


def addible(lam):
    """The boxes of lam's steps, in their order."""
    return [b for _, _, b in GEOMETRY.steps([lam], None)[0]]


def test_level_zero_is_empty_partition():
    levels = enumerate_plane_partitions(0)
    assert levels == [[Partition3D()]]


def test_level_sizes_up_to_five():
    levels = enumerate_plane_partitions(5)
    assert [len(L) for L in levels] == [1, 1, 3, 6, 13, 24]


def test_level_two_is_three_axis_directions():
    levels = enumerate_plane_partitions(2)
    assert [lam.boxes for lam in levels[2]] == [
        ((0, 0, 0), (0, 0, 1)),
        ((0, 0, 0), (0, 1, 0)),
        ((0, 0, 0), (1, 0, 0)),
    ]


@pytest.mark.parametrize("n", range(6))
def test_levels_match_subset_filter_oracle(n):
    levels = enumerate_plane_partitions(n)
    assert [lam.boxes for lam in levels[n]] == plane_partition_subsets(n)


def test_counts_match_generating_function():
    levels = enumerate_plane_partitions(8)
    assert [len(L) for L in levels] == plane_partition_counts_gf(8)


def test_library_enumerates_past_the_enum_cap():
    """Only the enum command caps --max-boxes (at 10); the counts at 11 are
    OEIS A000219."""
    levels = enumerate_plane_partitions(11)
    assert [len(L) for L in levels] == [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859]


def test_addible_of_empty_and_single():
    assert addible(Partition3D()) == [(0, 0, 0)]
    one = Partition3D([(0, 0, 0)])
    assert addible(one) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_addible_excludes_non_ideal_entries():
    lam = Partition3D([(0, 0, 0), (1, 0, 0)])
    assert addible(lam) == [(0, 0, 1), (0, 1, 0), (2, 0, 0)]


def test_removable():
    assert removable_boxes(Partition3D([(0, 0, 0)])) == [(0, 0, 0)]
    assert removable_boxes(Partition3D()) == []
    lam = Partition3D([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert removable_boxes(lam) == [(0, 1, 0), (1, 0, 0)]


def test_box_weight_examples(params):
    assert box_weight((0, 0, 0), params) == params.chi
    assert box_weight((1, 1, 1), params) == params.chi  # CY constraint
    # direct construction: (3, 5) is fine for a pure weight evaluation even
    # though the genericity gate would reject it for operator work
    p = Params(F(3), F(5), F(-8), F(0))
    assert box_weight((1, 2, 0), p) == 13


partitions_by_growth = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.builds(
        lambda seed: _grow(n, seed),
        st.integers(min_value=0, max_value=10**6),
    )
)


def _grow(n, seed):
    import random

    rng = random.Random(seed)
    lam = Partition3D()
    for _ in range(n):
        lam = Partition3D(lam.boxes + (rng.choice(addible(lam)),))
    return lam


@given(partitions_by_growth)
@settings(max_examples=60, deadline=None)
def test_addible_roundtrip(lam):
    for b in addible(lam):
        bigger = Partition3D(lam.boxes + (b,))
        assert is_plane_partition(bigger)
        assert b in removable_boxes(bigger)


@given(partitions_by_growth)
@settings(max_examples=60, deadline=None)
def test_brute_force_addible_removable(lam):
    # every box in the bounding cube of lam plus one is tested
    assert addible_boxes_scan(lam) == addible(lam)
    removable = [b for b in lam if is_plane_partition(set(lam) - {b})]
    assert sorted(removable) == removable_boxes(lam)


@given(partitions_by_growth)
@settings(max_examples=40, deadline=None)
def test_distinct_addible_weights_and_translate_exclusion(lam):
    p = Params.make(F(101, 13), F(47, 7), F(7))
    ws = [box_weight(b, p) for b in addible(lam)]
    assert len(set(ws)) == len(ws)
    rem = [box_weight(b, p) for b in removable_boxes(lam)]
    assert len(set(rem)) == len(rem)
    add = set(addible(lam))
    for (i, j, k) in add:
        assert (i + 1, j + 1, k + 1) not in add


@pytest.mark.parametrize("mode", ["rational", "prime-field"])
def test_c3_box_memo_is_the_per_box_kernel_products(monkeypatch, mode):
    """C3's kinds are the kernel's ratio and fac forms at 0 and the head's
    1/(z - chi); on all 96 labels of N=6 the stone product is the per-box
    product of the kernel's ratio form and h_rat that times the head, each
    of the labels' 25 boxes weighed once per kind (the corner also as the
    head); and the steps of each level are the addible boxes at their box
    weights, each target the index of the label built afresh with the box
    (None at the top), each addible box weighed once."""
    params = random_params(2024, mode=mode)
    field = params.field
    c3 = p3.C3(params, 6)
    kernel = c3.kernel
    assert c3.kinds == {"head": ([(0, -1)], []), "box": (kernel.ratio(0)[1], kernel.fac(0))}
    levels = c3.basis()
    labels = [lab for level in levels for lab in level]
    assert len(labels) == 96
    weighed = []
    monkeypatch.setattr(p3, "box_weight", lambda b, p: weighed.append(b) or box_weight(b, p))
    one, head = LinForm(1, (), field), LinForm(1, [(params.chi, -1)], field)
    for lab in labels:
        stone = reduce(mul, (LinForm(*kernel.ratio(box_weight(b, params)), field) for b in lab), one)
        assert stone_product(lab, c3) == stone
        assert h_rat(lab, c3) == mul(head, stone)
    boxes = {b for lab in labels for b in lab}
    assert len(boxes) == 25 and sorted(weighed) == sorted([(0, 0, 0), *boxes])
    weighed.clear()
    for level, above in zip(levels, levels[1:] + [None]):
        want = [[(None if above is None else above.index(Partition3D(lab.boxes + (b,))), box_weight(b, params), b)
                 for b in addible_boxes_scan(lab)] for lab in level]
        assert c3.steps(level, above) == want
    assert len(weighed) == len(set(weighed)) == len({b for lab in labels for b in addible_boxes_scan(lab)})
