"""A Graph is its neighbour bitmasks, one per vertex: every builder writes
the masks, and no library path keeps any other view on the instance."""

import pickle

from hypothesis import given, settings, strategies as st

from oidrd import forest
from oidrd import graphs as G
from oidrd import harness as H
from oidrd import solver as S
from oidrd.characterize import OTHER, classify, verify_classification
from oidrd.formulas import corona_value
from oidrd.reduction import verify_identity, witness_from_independent_set


@st.composite
def _edge_lists(draw):
    """A vertex count and an edge list over it with repeats in both orientations."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=40)) if n > 1 else []
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    return n, pairs + [(v, u) for u, v in repeats] + repeats


@settings(max_examples=200, deadline=None)
@given(_edge_lists())
def test_build_writes_symmetric_loop_free_masks(case):
    n, edges = case
    g = G.build(n, edges)
    nbr = g.nbr_masks
    assert len(nbr) == n
    assert all(not mask >> v & 1 for v, mask in enumerate(nbr))
    assert all((nbr[u] >> v & 1) == (nbr[v] >> u & 1) for u in range(n) for v in range(n))
    assert 2 * g.m == sum(mask.bit_count() for mask in nbr)
    want = {(min(e), max(e)) for e in edges}
    assert g.edges() == sorted(want)
    adj = [[w for w in range(n) if (min(v, w), max(v, w)) in want] for v in range(n)]
    assert [G.bits(mask) for mask in nbr] == adj
    assert [g.degree(v) for v in range(n)] == [len(a) for a in adj]


def _rebuilt_alike(graphs):
    for g in graphs:
        twin = G.build(g.n, g.edges())
        assert g == twin and hash(g) == hash(twin), G.to_edge_list_text(g)


def test_mask_builders_equal_build_of_their_edges():
    _rebuilt_alike(G.prufer_decode(seq, n) for n in range(1, 7) for seq in G.prufer_sequences(n))
    _rebuilt_alike(G.prufer_decode(seq, 9) for seq in G.prufer_sequences(9, 50, seed=3))
    _rebuilt_alike(g for n in range(1, 7) for g in G.enumerate_trees(n))
    _rebuilt_alike(g for n in range(1, 6) for g in G.enumerate_graphs(n))
    _rebuilt_alike(g for n in range(1, 6) for g in G.enumerate_connected_graphs(n))
    _rebuilt_alike(G.sample_connected_graphs(8, 30, seed=8))
    _rebuilt_alike(G.sample_connected_graphs(6, 30, seed=6, max_deg=3))


def test_pickle_carries_the_masks_alone():
    for g in (G.path(1), G.cycle(9), G.gadget(G.complete(4)), *G.enumerate_connected_graphs(4)):
        data = pickle.dumps(g)
        back = pickle.loads(data)
        assert back == g and hash(back) == hash(g) and vars(back) == vars(g)
        # constructor arguments only: no instance dict, so no field names
        assert b"nbr_masks" not in data


def _guard_graphs():
    tree = G.double_star(1, 2)  # n = 5, small enough for the gadget identity
    gadget = G.gadget(G.path(2))
    # base 4 at n = 10 exceeds one oracle chunk, so the oracle scans in chunks
    big = next(G.sample_connected_graphs(10, 1, seed=10))
    assert 4 ** big.n > S._CACHE_LIMIT
    return tree, gadget, big


def test_no_library_path_stores_a_view_on_the_graph():
    tree, gadget, big = _guard_graphs()
    graphs = (tree, gadget, big)
    for g in graphs:
        for key in S.SOLVERS:
            r, b = S.SOLVERS[key](g), S.BRUTE_SOLVERS[key](g)
            assert (r.value, r.witness) == (b.value, b.witness), (key, G.to_edge_list_text(g))
        res = classify(g)
        assert res.value_class == OTHER or verify_classification(g, res)
        H.sandwich(g)
        S.bundle(g)
    assert verify_identity(tree).equal
    witness_from_independent_set(tree, S._greedy_max_independent(tree))
    assert (forest.tree_oidrd(tree), forest.tree_beta(tree)) == (S.solve_oidrd(tree).value,
                                                               S.solve_beta(tree).value)
    corona_value(tree, G.empty(2))
    # nothing above caches a view on the graph: it keeps its three fields
    for g in graphs:
        assert vars(g) == {"n": g.n, "nbr_masks": g.nbr_masks, "m": g.m}, G.to_edge_list_text(g)
