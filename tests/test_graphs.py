import hashlib
import time
from itertools import product

import pytest

from conftest import isomorphic, labeled_connected_count
from oidrd import graphs as G
from oidrd.graphs import GraphError


def test_build_path():
    g = G.build(3, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]
    assert g.m == 2


def test_build_single_vertex():
    g = G.build(1, [])
    assert g.n == 1 and g.m == 0 and g.max_degree == 0


def test_build_deduplicates_parallel_edges():
    g = G.build(4, [(0, 1), (1, 0)])
    assert g.m == 1


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        G.build(4, [(2, 2)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        G.build(3, [(0, 3)])


def test_connectivity_queries():
    assert not G.is_connected(G.empty(2))
    assert G.is_connected(G.cycle(7))
    assert G.star(5).max_degree == 5


def _dfs_connected(g):
    seen, stack = {0}, [0]
    while stack:
        for w in G.bits(g.nbr_masks[stack.pop()]):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def test_is_connected_agrees_with_a_plain_dfs():
    # every labeled graph with n <= 5, the disconnected ones and n = 1 included
    for n in range(1, 6):
        for g in G.enumerate_graphs(n):
            assert G.is_connected(g) == _dfs_connected(g), (n, g.edges())


def test_g3_with_two_common_neighbors_is_a_four_cycle():
    assert isomorphic(G.g3(2), G.cycle(4))


def test_g3_requires_two_common_neighbors():
    with pytest.raises(GraphError):
        G.g3(1)


def test_g1_requires_a_leaf():
    with pytest.raises(GraphError):
        G.g1(2, 0)
    g = G.g1(2, 1)
    assert g.n == 5 and g.degree(0) == 4 and g.degree(1) == 3


def test_corona_of_point_with_two_isolated_is_a_star():
    assert isomorphic(G.corona(G.path(1), G.empty(2)), G.star(2))


def test_corona_of_edge_with_single_pendants_is_a_path():
    assert isomorphic(G.corona(G.path(2), G.empty(1)), G.path(4))


def test_corona_sizes():
    assert G.corona(G.cycle(3), G.empty(2)).n == 9
    for g in (G.path(2), G.cycle(4), G.complete(3)):
        for h in (G.empty(2), G.path(3), G.complete(3)):
            c = G.corona(g, h)
            assert c.n == g.n * (1 + h.n)
            assert c.m == g.m + g.n * (h.m + h.n)


def test_sharpness_graph_layout():
    h = G.sharpness_h([2, 2, 2])
    assert h.n == 15
    # block i: x, y at degree m_i + 1; z at degree 4; large part at degree 2
    for off in (0, 5, 10):
        assert h.degree(off) == 3 and h.degree(off + 1) == 3
        assert h.degree(off + 2) == 4
        assert h.degree(off + 3) == 2 and h.degree(off + 4) == 2
    assert G.is_connected(h)


def test_sharpness_rejects_degenerate_cycle():
    with pytest.raises(GraphError):
        G.sharpness_h([2, 2])


def test_gadget_layout():
    g = G.gadget(G.cycle(4))
    assert g.n == 16 and g.max_degree == 3
    for i in range(4):
        assert g.degree(4 + i) == 3
        assert g.degree(8 + 2 * i) == 1 and g.degree(8 + 2 * i + 1) == 1


def test_h_family_generators_validate_subcases():
    assert G.h1("a1", 2).n == 5
    assert G.h2("a2", 1, 1, 0, 2).n == 7
    assert G.h3(1, 1).n == 4
    with pytest.raises(GraphError):
        G.h1("a1", 1)
    with pytest.raises(GraphError):
        G.h3(0, 1)
    with pytest.raises(GraphError):
        G.h5("a5", 1, 0)
    with pytest.raises(GraphError):
        G.h6("zz", 1, 1)


# sha256 of repr((tag, subcase, params, (n, edges()) or None if rejected)) for
# every g/h spec with each block size in 0..2, as the nine hand-written
# builders produced them; a spec with a size of -1 must raise instead
_FAMILY_DIGEST = "f4b30524cd4bc41845678f2534b28245372c73283b6f7367a31098523c2d1bbf"


def test_g_and_h_builders_are_pinned():
    digest = hashlib.sha256()
    for tag in ("g1", "g2", "g3", "h1", "h2", "h3", "h4", "h5", "h6"):
        fam = G.FAMILIES[tag]
        for sub in fam.subcases or (None,):
            for count in range(fam.least, fam.most + 1):
                for params in product(range(-1, 3), repeat=count):
                    spec = G.FamilySpec(tag, params, sub)
                    if min(params, default=0) < 0:
                        with pytest.raises(GraphError, match="negative size"):
                            G.family(spec)
                        continue
                    try:
                        g = G.family(spec)
                        built = (g.n, g.edges())
                    except GraphError:
                        built = None
                    digest.update(repr((tag, sub, params, built)).encode())
    assert digest.hexdigest() == _FAMILY_DIGEST


def test_negative_block_size_is_named():
    # the H1 b1 rule alone would read V_ab = -1 as nonempty and build G2
    with pytest.raises(GraphError, match="h1 block V_ab has negative size -1"):
        G.h1("b1", 1, -1)
    # the size cap still counts a negative size as 0
    spec = G.parse_family_spec("h1:a1,2,0,0,-3")
    assert G.spec_order(spec) == 5
    with pytest.raises(GraphError, match="V_b has negative size -3"):
        G.family(spec)


def test_family_dispatch_and_dsl():
    assert isomorphic(G.family(G.parse_family_spec("kbipartite:2,3")),
                      G.complete_bipartite(2, 3))
    assert G.family(G.parse_family_spec("kpartite:1,2,3")).n == 6
    assert G.family(G.parse_family_spec("corona(path:2,empty:2)")).n == 6
    assert G.family(G.parse_family_spec("gadget(path:3)")).n == 12
    assert G.family(G.parse_family_spec("h1:a1,2")).n == 5
    assert G.family(G.parse_family_spec("dstar:2,3")).n == 7
    with pytest.raises(GraphError):
        G.parse_family_spec("path")
    with pytest.raises(GraphError):
        G.parse_family_spec("h1:q9,2")
    with pytest.raises(GraphError):
        G.parse_family_spec("corona(path:2")


def test_enumerate_connected_counts_match_inclusion_exclusion():
    assert labeled_connected_count(4) == 38
    for n in range(1, 7):
        got = sum(1 for _ in G.enumerate_connected_graphs(n))
        assert got == labeled_connected_count(n)


def test_enumerate_connected_yields_connected():
    for g in G.enumerate_connected_graphs(4):
        assert G.is_connected(g)


def test_enumeration_rejects_large_n():
    with pytest.raises(GraphError):
        next(G.enumerate_connected_graphs(8))
    with pytest.raises(GraphError):
        next(G.enumerate_trees(11))


def test_tree_counts_follow_cayley():
    for n in range(3, 8):
        assert sum(1 for _ in G.enumerate_trees(n)) == n ** (n - 2)
    assert sum(1 for _ in G.enumerate_trees(2)) == 1


def test_trees_are_acyclic_connected():
    for t in G.enumerate_trees(5):
        assert t.m == t.n - 1 and G.is_connected(t)
    for n in (3,):
        trees = list(G.enumerate_trees(n))
        assert all(isomorphic(t, G.path(3)) for t in trees)


def test_sampling_is_deterministic():
    a = [G.to_edge_list_text(g) for g in G.sample_connected_graphs(6, 5, seed=7)]
    b = [G.to_edge_list_text(g) for g in G.sample_connected_graphs(6, 5, seed=7)]
    c = [G.to_edge_list_text(g) for g in G.sample_connected_graphs(6, 5, seed=8)]
    assert a == b
    assert a != c
    for g in G.sample_connected_graphs(5, 10, seed=1, max_deg=3):
        assert G.is_connected(g) and g.max_degree <= 3
    t1 = [G.to_edge_list_text(g) for g in G.sample_trees(9, 4, seed=3)]
    t2 = [G.to_edge_list_text(g) for g in G.sample_trees(9, 4, seed=3)]
    assert t1 == t2
    assert all(g.count(" ") >= 0 for g in t1)


def _digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(G.to_edge_list_text(g).encode() + b"\n")
    return h.hexdigest()


def test_tree_sources_keep_their_sequences():
    # recorded before the tree generators shared one Prufer source: the same
    # seeded draws, and the same trees in the same order
    sampled = (g for n in range(1, 11) for seed in range(20)
               for g in G.sample_trees(n, 50, seed))
    assert _digest(sampled) == "6a3b99a3a77eca2bc36e79c25093957398aed8a6977f89c36222fc30330a9d6d"
    enumerated = (g for n in range(1, 8) for g in G.enumerate_trees(n))
    assert _digest(enumerated) == "9b4ab39d82f2bdbd7cddb13823d01cdd6e197ce354e9b0e34119d59d1cd7f213"


def test_sampling_gives_up_on_unsatisfiable_constraints():
    # no connected graph on 4 vertices has max degree 1
    t0 = time.monotonic()
    with pytest.raises(G.GraphError, match="unsatisfiable"):
        list(G.sample_connected_graphs(4, 1, seed=0, max_deg=1))
    assert time.monotonic() - t0 < 10


def test_samplers_reject_negative_counts():
    with pytest.raises(G.GraphError, match="at least 0"):
        list(G.prufer_sequences(5, -1))
    with pytest.raises(G.GraphError, match="at least 0"):
        list(G.sample_connected_graphs(5, -1, seed=0))


@pytest.mark.parametrize("seq, n, match", [
    ((0, 0, 0), 4, "has length 2, got 3"),  # once decoded silently to K_{1,3}
    ((0,), 4, "has length 2, got 1"),
    ((), 3, "has length 1, got 0"),
    ((-1,), 3, r"out of range 0\.\.2"),
    ((7,), 3, r"out of range 0\.\.2"),
    ((), 0, "at least 1"),
])
def test_prufer_decode_rejects_malformed_sequences(seq, n, match):
    with pytest.raises(GraphError, match=match):
        G.prufer_decode(seq, n)


def test_prufer_decode_is_pinned():
    # (n, nbr_masks) of every labeled tree with n <= 7 in Prufer order, then
    # 50 seeded sequences each at n = 9, 10 and 100; digest recorded before
    # the decoder wrote masks in one pass
    sequences = [(n, seq) for n in range(1, 8) for seq in G.prufer_sequences(n)]
    sequences += [(n, seq) for n in (9, 10, 100) for seq in G.prufer_sequences(n, 50, seed=n)]
    h = hashlib.sha256()
    for n, seq in sequences:
        h.update(repr((n, G.prufer_decode(seq, n).nbr_masks)).encode())
    assert len(sequences) == 18249 + 150
    assert h.hexdigest() == "36a42e452723a857d61685ba14eb27f9e4965644a2f6039ea3820d745a602dad"


def test_edge_list_round_trip():
    for g in (G.path(3), G.complete_bipartite(2, 3), G.gadget(G.path(2))):
        again = G.from_edge_list_text(G.to_edge_list_text(g))
        assert again.n == g.n and again.edges() == g.edges()


def test_edge_list_parse_errors():
    assert G.from_edge_list_text("3 2\n0 1\n1 2").m == 2
    with pytest.raises(GraphError, match="expected 2 edges, found 1"):
        G.from_edge_list_text("3 2\n0 1")
    with pytest.raises(GraphError, match="line 2"):
        G.from_edge_list_text("3 1\n0 9")
    with pytest.raises(GraphError, match="header"):
        G.from_edge_list_text("oops")


_SPECS = ["path:1", "path:6", "cycle:5", "complete:4", "empty:3", "star:5", "dstar:2,3",
          "double_star:1,1", "kbipartite:3,7", "kpartite:1,2,3", "g1:2,1", "g2:1", "g3:4",
          "h1:a1,2", "h1:c1,1,2,3,4", "h1:a1,2,0,0,3", "h2:b2,0,1,1,2", "h3:1,1", "h4:b4,2,1",
          "h5:a5,1,1", "h6:b6,3", "sharph:2,2,2", "sharph:3,2,4,2",
          "corona(path:2,empty:2)", "corona(cycle:3,star:2)", "gadget(path:3)",
          "gadget(corona(path:2,star:1))", "corona(gadget(path:1),path:2)"]


@pytest.mark.parametrize("spec", _SPECS)
def test_spec_order_is_the_built_order(spec):
    parsed = G.parse_family_spec(spec)
    assert G.spec_order(parsed) == G.family(parsed).n


def _tags(spec):
    yield spec.tag
    for inner in spec.inner:
        yield from _tags(inner)


def test_spec_cases_cover_every_registered_tag():
    # a new tag needs a spec_order case above before this passes
    parsed = {tag for spec in _SPECS for tag in _tags(G.parse_family_spec(spec))}
    assert parsed == set(G.FAMILIES)


@pytest.mark.parametrize("spec,lower", [("Corona(path:2,path:2)", "corona(path:2,path:2)"),
                                        ("GADGET(path:3)", "gadget(path:3)"),
                                        ("corona (path:2,path:2)", "corona(path:2,path:2)"),
                                        ("gadget( CYCLE:3 )", "gadget(cycle:3)"),
                                        ("PATH:3", "path:3")])
def test_tags_and_wrappers_are_case_insensitive(spec, lower):
    parsed = G.parse_family_spec(spec)
    assert parsed == G.parse_family_spec(lower)
    assert G.family(parsed) == G.family(G.parse_family_spec(lower))


_NESTED = {
    "corona(kbipartite:2,3,path:2)": lambda: G.corona(G.complete_bipartite(2, 3), G.path(2)),
    "gadget(kpartite:1,2,3)": lambda: G.gadget(G.complete_multipartite((1, 2, 3))),
    "corona(h1:a1,2,path:2)": lambda: G.corona(G.h1("a1", 2), G.path(2)),
}


@pytest.mark.parametrize("spec", _NESTED)
def test_wrappers_nest_multi_parameter_families(spec):
    # a piece with neither ':' nor '(' is one more parameter of the spec before it
    parsed = G.parse_family_spec(spec)
    built, expected = G.family(parsed), _NESTED[spec]()
    assert (built.n, built.edges()) == (expected.n, expected.edges())
    assert G.spec_order(parsed) == built.n


def test_spec_order_builds_nothing(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("spec_order built a graph")

    monkeypatch.setattr(G, "build", unreachable)
    spec = G.parse_family_spec("corona(complete:100000,gadget(star:1999))")
    assert G.spec_order(spec) == 100000 * (1 + 4 * 2000)
    assert G.spec_order(G.parse_family_spec("sharph:10000,2,2")) == 3 * 3 + 10004
    with pytest.raises(GraphError, match="exactly two inner specs"):
        G.spec_order(G.parse_family_spec("corona(path:2)"))
    with pytest.raises(GraphError, match="exactly one inner spec"):
        G.spec_order(G.parse_family_spec("gadget(path:2,path:3)"))


def test_nbr_masks_are_the_adjacency_and_leave_identity_alone():
    for g in (G.path(5), G.complete(4), G.empty(3), G.sharpness_h([2, 3, 2])):
        twin = G.build(g.n, g.edges())
        edges = set(g.edges())
        adj = [[w for w in range(g.n) if (min(v, w), max(v, w)) in edges] for v in range(g.n)]
        assert [G.bits(mask) for mask in g.nbr_masks] == adj
        # the instance holds its three fields and nothing else
        assert vars(g) == {"n": g.n, "nbr_masks": g.nbr_masks, "m": g.m}
        assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
