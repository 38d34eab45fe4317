from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from oidrd import graphs as G
from oidrd import labeling as L
from oidrd import solver as S
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


# The definitions as loops over each vertex's neighbour list: the reference
# that the mask form in oidrd.labeling is checked against.  They take
# well-formed labelings only.


def _ref_zeros_independent(g, vals):
    return not any(vals[u] == 0 and any(vals[w] == 0 for w in G.bits(g.nbr_masks[u]))
                   for u in range(g.n))


def _ref_drd(g, vals):
    for v, x in enumerate(vals):
        if x == 0:
            twos = 0
            ok = False
            for w in G.bits(g.nbr_masks[v]):
                if vals[w] == 3:
                    ok = True
                    break
                if vals[w] == 2:
                    twos += 1
                    if twos >= 2:
                        ok = True
                        break
            if not ok:
                return False
        elif x == 1:
            if not any(vals[w] >= 2 for w in G.bits(g.nbr_masks[v])):
                return False
    return True


def _ref_rd(g, vals):
    if 3 in vals:
        return False
    for v, x in enumerate(vals):
        if x == 0 and not any(vals[w] == 2 for w in G.bits(g.nbr_masks[v])):
            return False
    return True


def _ref_dominating(g, vals):
    return max(vals) <= 1 and all(x == 1 or any(vals[w] == 1 for w in G.bits(g.nbr_masks[v]))
                                  for v, x in enumerate(vals))


def _ref_cover(g, vals):
    return max(vals) <= 1 and _ref_zeros_independent(g, vals)


def _ref_independent(g, vals):
    return max(vals) <= 1 and not any(vals[u] == 1 and any(vals[w] == 1
                                                           for w in G.bits(g.nbr_masks[u]))
                                      for u in range(g.n))


_REFERENCE = {
    "zeros_independent": _ref_zeros_independent,
    "is_drd": _ref_drd,
    "is_oidrd": lambda g, vals: _ref_zeros_independent(g, vals) and _ref_drd(g, vals),
    "is_rd": _ref_rd,
    "is_oird": lambda g, vals: _ref_zeros_independent(g, vals) and _ref_rd(g, vals),
    "is_dominating_labeling": _ref_dominating,
    "is_cover_labeling": _ref_cover,
    "is_independent_labeling": _ref_independent,
}


def _every_small_graph():
    # every labeled graph with n <= 4, disconnected ones and ones with
    # isolated vertices among them
    return [g for n in range(1, 5) for g in G.enumerate_graphs(n)]


def test_mask_predicates_match_the_definitions_exhaustively():
    graphs = _every_small_graph()
    assert sum(not G.is_connected(g) for g in graphs) > 20
    assert sum(0 in g.nbr_masks for g in graphs) > 20
    for g in graphs:
        for vals in product(range(4), repeat=g.n):
            for name, reference in _REFERENCE.items():
                assert getattr(L, name)(g, vals) == reference(g, vals), \
                    (name, G.to_edge_list_text(g), vals)


def test_mask_predicates_match_the_oracle_valid_sets():
    # a second route: membership in the oracle's valid set, the AND of the
    # columns _scan builds, indexed in lex order; alpha's labeling is valid
    # iff its complement is in the cover set, and a label above an
    # invariant's range makes it invalid
    for g in _every_small_graph():
        for name, (prob, predicate) in S.INVARIANTS.items():
            (_, valid, _, _), = S._scan(g, prob)
            for vals in product(range(4), repeat=g.n):
                if max(vals) >= prob.base:
                    member = False
                else:
                    idx = sum(x * prob.base ** (g.n - 1 - v) for v, x in enumerate(vals))
                    if name == "alpha":
                        idx = 2 ** g.n - 1 - idx
                    member = bool(valid >> idx & 1)
                assert getattr(L, predicate)(g, vals) == member, (name, G.to_edge_list_text(g), vals)


@pytest.mark.parametrize("name", list(_REFERENCE))
def test_predicates_reject_malformed_labelings(name):
    predicate = getattr(L, name)
    with pytest.raises(LabelingError, match="2 values for a graph on 3 vertices"):
        predicate(G.path(3), [0, 3])
    for label in (4, -1):
        with pytest.raises(LabelingError, match="out of range"):
            predicate(G.path(3), [0, label, 0])
