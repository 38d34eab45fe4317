from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from oidrd import graphs as G
from oidrd.labeling import (
    Labeling,
    LabelingError,
    classes,
    is_drd,
    is_oidrd,
    is_oird,
    is_rd,
    weight,
    zeros_independent,
)


def test_weight():
    assert weight([0, 3, 0]) == 3
    assert weight([2, 0, 2, 0]) == 4
    assert weight([0] * 5) == 0


def test_labeling_text_round_trip():
    lab = Labeling.from_text("0,3,1")
    assert lab.values == (0, 3, 1) and lab.to_text() == "0,3,1"
    with pytest.raises(LabelingError):
        Labeling.from_text("0,4,1")
    with pytest.raises(LabelingError):
        Labeling.from_text("zebra")


def test_is_drd_examples():
    p3 = G.path(3)
    assert is_drd(p3, [0, 3, 0])
    assert not is_drd(p3, [0, 2, 0])
    assert is_drd(G.cycle(4), [2, 0, 2, 0])


def test_is_oidrd_examples():
    assert is_oidrd(G.path(2), [0, 3])
    p4 = G.path(4)
    assert is_oidrd(p4, [0, 3, 3, 0])
    assert not is_oidrd(p4, [3, 0, 0, 3])
    assert not is_oidrd(G.empty(2), [1, 1])


def test_is_oird_examples():
    assert is_oird(G.path(3), [0, 2, 0])
    assert is_oird(G.empty(3), [1, 1, 1])
    assert not is_oird(G.cycle(4), [0, 1, 0, 1])
    assert not is_oird(G.path(2), [0, 3])


def test_roman_predicates_reject_a_three():
    # each labeling would be a Roman labeling if its 3 counted as a 2
    assert is_rd(G.path(3), [2, 2, 2]) and not is_rd(G.path(3), [2, 2, 3])
    assert is_oird(G.path(2), [2, 2]) and not is_oird(G.path(2), [3, 2])
    assert not is_rd(G.path(3), [0, 3, 0]) and not is_oird(G.path(3), [0, 3, 0])


def test_size_mismatch_raises():
    with pytest.raises(LabelingError):
        is_drd(G.path(3), [0, 3])


def test_classes_partition():
    part = classes([0, 3, 0])
    assert part.v0 == {0, 2} and part.v3 == {1} and not part.v1 and not part.v2
    part = classes([1, 2, 3, 0])
    assert (part.v1, part.v2, part.v3, part.v0) == ({0}, {1}, {2}, {3})
    assert classes([2, 2]).v2 == {0, 1}


@st.composite
def graph_and_labeling(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    values = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return G.build(n, edges), Labeling(values)


@given(graph_and_labeling())
def test_outer_independent_implies_plain_double_roman(gf):
    g, f = gf
    if is_oidrd(g, f):
        assert is_drd(g, f)


@given(graph_and_labeling())
def test_all_threes_is_always_valid(gf):
    g, _ = gf
    all3 = Labeling((3,) * g.n)
    assert is_oidrd(g, all3)
    assert weight(all3) == 3 * g.n


@given(graph_and_labeling())
def test_partition_sizes_and_weight_identity(gf):
    g, f = gf
    part = classes(f)
    sizes = (len(part.v0), len(part.v1), len(part.v2), len(part.v3))
    assert sum(sizes) == g.n
    assert weight(f) == sizes[1] + 2 * sizes[2] + 3 * sizes[3]


@given(graph_and_labeling())
def test_zeros_independent_matches_definition(gf):
    g, f = gf
    expected = all(not (f[u] == 0 and f[v] == 0) for u, v in g.edges())
    assert zeros_independent(g, f) == expected


def test_is_rd_puts_no_condition_on_ones():
    assert is_rd(G.path(4), [0, 2, 0, 1])
    assert not is_rd(G.path(4), [0, 1, 2, 0])
