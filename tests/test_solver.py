import hashlib
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oidrd import forest
from oidrd import formulas as F
from oidrd import graphs as G
from oidrd import harness as H
from oidrd import solver as S
from oidrd.labeling import classes, is_cover_labeling, is_drd, is_oidrd, is_oird, is_rd, weight
from oidrd.labeling import LabelingError


def test_known_values():
    cases = [
        (G.path(3), 3),
        (G.complete_bipartite(4, 7), 8),
        (G.double_star(2, 3), 6),
        (G.empty(3), 6),
        (G.cycle(5), 6),
        (G.cycle(6), 6),
        (G.complete(4), 5),
    ]
    for g, expected in cases:
        assert S.solve_oidrd(g).value == expected
        assert S.brute_force_oidrd(g).value == expected


def test_witness_is_valid_and_optimal():
    for g in (G.path(7), G.star(4), G.gadget(G.path(2)), G.complete_bipartite(3, 4)):
        res = S.solve_oidrd(g)
        assert is_oidrd(g, res.witness)
        assert weight(res.witness) == res.value


def test_witness_is_lexicographically_first():
    for g in (G.path(5), G.cycle(6), G.complete(4), G.double_star(1, 2)):
        best = S.solve_oidrd(g).witness.values
        optima = [f.values for f in S.enumerate_optimal_oidrd(g)]
        assert best == min(optima)
        assert optima == sorted(optima)


def test_enumerate_optimal_on_edge():
    # oracle-computed: four optima of weight 3 on a single edge
    optima = [f.values for f in S.enumerate_optimal_oidrd(G.path(2))]
    assert optima == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_enumerate_optimal_on_point():
    assert [f.values for f in S.enumerate_optimal_oidrd(G.path(1))] == [(2,)]


def test_cover_optima_are_the_minimum_covers():
    # _optimal_labelings takes a problem, not a row name, so no read-off can
    # apply: the cover problem yields its minimum covers, never alpha's sets
    for n in range(1, 6):
        for g in G.enumerate_graphs(n):
            beta = S.solve_beta(g).value
            covers = [f for f in product((0, 1), repeat=n)
                      if sum(f) == beta and is_cover_labeling(g, f)]
            assert [f.values for f in S._optimal_labelings(g, S._COVER)] == covers


def test_count_optimal():
    res = S.solve_oidrd(G.path(2), count_optimal=True)
    assert res.optimal_count == 4
    assert S.solve_oidrd(G.path(2)).optimal_count is None


def test_balanced_bipartite_optima_all_use_ones():
    k55 = G.complete_bipartite(5, 5)
    assert S.solve_oidrd(k55).value == 9
    for f in S.enumerate_optimal_oidrd(k55):
        assert len(classes(f).v1) > 0


def test_auxiliary_values():
    assert S.solve_alpha(G.cycle(5)).value == 2
    assert S.solve_gamma(G.path(6)).value == 2
    assert S.solve_gamma_oir(G.empty(4)).value == 4
    assert S.solve_gamma_oir(G.cycle(4)).value == 3
    assert S.solve_beta(G.star(5)).value == 1


def test_beta_witness_complements_alpha():
    for g in (G.path(5), G.cycle(6), G.complete_bipartite(2, 3)):
        a = S.solve_alpha(g)
        b = S.solve_beta(g)
        assert b.value == g.n - a.value
        assert tuple(1 - x for x in a.witness.values) == b.witness.values


def test_bundle_consistency():
    b = S.bundle(G.star(5))
    assert (b.alpha, b.beta, b.gamma, b.gamma_oidr) == (5, 1, 1, 3)
    b = S.bundle(G.path(4))
    assert (b.beta, b.gamma_oidr) == (2, 5)
    b = S.bundle(G.cycle(4))
    assert (b.gamma_oidr, b.gamma_oir) == (4, 3)
    assert b.alpha + b.beta == 4


def _one_too_high(solve):
    def wrong(g):
        r = solve(g)
        return replace(r, value=r.value + 1)
    return wrong


def test_bundle_rejects_gamma_above_alpha(monkeypatch):
    monkeypatch.setattr(S, "solve_gamma", _one_too_high(S.solve_gamma))
    with pytest.raises(S.CertificationError, match="gamma = 3 > alpha = 2"):
        S.bundle(G.path(4))


def test_bundle_rejects_gamma_oidr_above_the_cover_labeling(monkeypatch):
    # one edge and two isolated vertices: 3 beta + 2 * 2 = 7 is attained
    g = G.build(4, [(0, 1)])
    b = S.bundle(g)
    assert (b.beta, b.gamma_oidr) == (1, 7)
    monkeypatch.setattr(S, "solve_oidrd", _one_too_high(S.solve_oidrd))
    with pytest.raises(S.CertificationError, match=r"gamma_oidr = 8 > 3 beta \+ 2 \(isolated\) = 7"):
        S.bundle(g)


def test_brute_cap_enforced():
    big = G.path(13)
    with pytest.raises(ValueError, match="capped"):
        S.brute_force_oidrd(big)
    with pytest.raises(ValueError, match="capped"):
        list(S.enumerate_optimal_oidrd(big))
    with pytest.raises(ValueError, match="capped"):
        S.solve_oidrd(big, count_optimal=True)


def test_engine_matches_oracle_exhaustively_small():
    for n in range(1, 5):
        for g in G.enumerate_graphs(n):
            for key, solve in S.SOLVERS.items():
                r = solve(g)
                b = S.BRUTE_SOLVERS[key](g)
                assert r.value == b.value, (n, key)
                assert r.witness.values == b.witness.values, (n, key)


def test_engine_matches_oracle_on_samples():
    for g in G.sample_connected_graphs(7, 20, seed=11):
        for key, solve in S.SOLVERS.items():
            r = solve(g)
            b = S.BRUTE_SOLVERS[key](g)
            assert r.value == b.value, key
            assert r.witness.values == b.witness.values, key


def test_strict_gap_between_roman_variants():
    for n in range(1, 6):
        for g in G.enumerate_graphs(n):
            assert S.solve_gamma_oir(g).value < S.solve_oidrd(g).value


def test_node_count_positive():
    assert S.solve_oidrd(G.cycle(5)).node_count > 0


_LABEL_PROBLEMS = {"gamma_oidr": S._OIDR, "gamma_dr": S._DR, "gamma_oir": S._OIR,
                   "gamma_r": S._R, "gamma": S._DOM}


@st.composite
def relabeled_graph(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    perm = draw(st.permutations(range(n)))
    return G.build(n, edges), G.build(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=40, deadline=None)
@given(relabeled_graph())
def test_engine_matches_oracle_and_ignores_labels(pair):
    # any edge set on n <= 7: disconnected graphs and isolated vertices included
    g, relabeled = pair
    for key, solve in S.SOLVERS.items():
        r = solve(g)
        b = S.BRUTE_SOLVERS[key](g)
        assert (r.value, r.witness.values) == (b.value, b.witness.values), key
        assert solve(relabeled).value == r.value, key


@pytest.mark.parametrize("spec", ["complete:1", "complete:2", "empty:4", "star:3"])
def test_search_starts_above_an_optimal_incumbent(spec):
    # the greedy incumbent is already optimal here, so the one-pass search
    # must start strictly above it to meet any labeling at all
    g = G.family(G.parse_family_spec(spec))
    for key, prob in _LABEL_PROBLEMS.items():
        r = S.SOLVERS[key](g)
        b = S.BRUTE_SOLVERS[key](g)
        assert S._initial_ub(g, prob) == r.value, key
        assert (r.value, r.witness.values) == (b.value, b.witness.values), key


@pytest.mark.parametrize("base,n,chunks", [pytest.param(4, 10, 4, id="10-4"),
                                           pytest.param(4, 11, 16, id="11-16"),
                                           pytest.param(3, 12, 3, id="base3-12-3")])
def test_oracle_chunks_match_engine(base, n, chunks):
    # base-4 tables are cached for the last 9 vertices, so n = 10 scans them
    # under one prefix digit and n = 11 under two; base-3 tables for the last
    # 11, so n = 12 scans them under one prefix digit
    assert sum(1 for _ in S._chunks(base, n)) == chunks
    keys = ("gamma_oidr", "gamma_dr") if base == 4 else ("gamma_oir", "gamma_r")
    for g in G.sample_connected_graphs(n, 2, seed=n):
        for key in keys:
            r = S.SOLVERS[key](g)
            assert S._brute_min(g, _LABEL_PROBLEMS[key]) == (r.value, r.witness.values), key


_LABEL_PREDICATES = {"gamma_oidr": is_oidrd, "gamma_dr": is_drd, "gamma_oir": is_oird,
                     "gamma_r": is_rd, "gamma": S.is_dominating_labeling}


def _seeded_graphs():
    # every order up to 8, sparse to dense; the sparse ones have isolated vertices
    rng = random.Random(2024)
    graphs = []
    for n in range(1, 9):
        for density in (0.0, 0.2, 0.5, 0.9):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
            graphs.append(G.build(n, edges))
    return graphs


def _labeling_sample(rng, valid, base, n):
    # every labeling while there are at most 256, otherwise random ones drawn
    # from skewed label weights (so that some are valid) plus ones the
    # kernel accepts
    if base ** n <= 256:
        return range(base ** n)
    picks = []
    for _ in range(300):
        w = [rng.random() ** 2 for _ in range(base)]
        picks.append(sum(rng.choices(range(base), w)[0] * base ** (n - 1 - v) for v in range(n)))
    accepted = [i for i, bit in enumerate(bin(valid)[:1:-1]) if bit == "1"]
    return picks + rng.sample(accepted, min(100, len(accepted)))


def test_packed_columns_match_the_predicates():
    rng = random.Random(7)
    isolated = 0
    for g in _seeded_graphs():
        isolated += 0 in g.nbr_masks
        for key, predicate in _LABEL_PREDICATES.items():
            prob = _LABEL_PROBLEMS[key]
            (_, valid, weights, offset), = S._scan(g, prob)
            assert offset == 0 and valid >> prob.base ** g.n == 0
            for idx in _labeling_sample(rng, valid, prob.base, g.n):
                f = S._decode(idx, prob.base, g.n)
                assert bool(valid >> idx & 1) == predicate(g, f), (key, G.to_edge_list_text(g), f)
                assert weights[sum(f)] >> idx & 1
        # 0/1 indicators: the cover scan, whose complement index is the
        # independent set alpha reads
        (_, cover, weights, _), = S._scan(g, S._COVER)
        for idx in _labeling_sample(rng, cover, 2, g.n):
            f = S._decode(idx, 2, g.n)
            assert bool(cover >> idx & 1) == S.is_cover_labeling(g, f), G.to_edge_list_text(g)
            assert bool(cover >> (2 ** g.n - 1 - idx) & 1) == S.is_independent_labeling(g, f), \
                G.to_edge_list_text(g)
            assert weights[sum(f)] >> idx & 1
    assert isolated > 8


def test_oracle_without_column_memo_is_unchanged(monkeypatch):
    graphs = _seeded_graphs()[::3] + list(G.enumerate_connected_graphs(4))
    def results():
        return [(key, f(g)) for g in graphs for key, f in S.BRUTE_SOLVERS.items()]
    def optima():
        return [[f.values for f in S.enumerate_optimal_oidrd(g)] +
                [f.values for f in S.enumerate_optimal_oir(g)] for g in graphs[:20]]
    memoized = results(), optima()
    assert S._column_memo
    monkeypatch.setattr(S, "_column_memo", {})
    monkeypatch.setattr(S, "_MEMO_LIMIT", 0)
    assert (results(), optima()) == memoized
    assert not S._column_memo


def test_chunked_oracle_with_column_memo_matches_engine(monkeypatch):
    # chunks of 32 labelings: a chunk's columns must not be memoized for the
    # other chunks, and the cover (32 chunks at n = 10) keeps its lex-largest
    # minimum across chunks, as the engine does.  The base-4 rows would scan
    # 65,536 chunks per n = 10 graph, so they run on the orders 8 and 9 here;
    # test_oracle_chunks_match_engine[10-4] chunks them at n = 10
    monkeypatch.setattr(S, "_CACHE_LIMIT", 1 << 5)
    assert sum(1 for _ in S._chunks(2, 10)) == 32
    graphs = [*G.sample_connected_graphs(8, 6, seed=8), *G.sample_connected_graphs(10, 3, seed=10),
              G.family(G.parse_family_spec("empty:9")), G.family(G.parse_family_spec("star:8"))]
    for g in graphs:
        for key, solve in S.SOLVERS.items():
            if g.n == 10 and key in ("gamma_oidr", "gamma_dr"):
                continue
            r, b = solve(g), S.BRUTE_SOLVERS[key](g)
            assert (r.value, r.witness) == (b.value, b.witness), (key, G.to_edge_list_text(g))


def test_count_optimal_checks_the_cap_before_the_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before the full-enumeration cap was checked")
    monkeypatch.setattr(S, "_branch_and_bound", no_search)
    with pytest.raises(ValueError, match="full enumeration capped"):
        S.solve_oidrd(G.cycle(13), count_optimal=True)


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import oidrd
from oidrd import cli, graphs as G, solver as S

assert cli.main(["solve", "path:5"]) == 0
assert S.brute_force_oidrd(G.path(6)).value == 7
assert [f.values for f in S.enumerate_optimal_oir(G.cycle(5))]
"""


def test_package_runs_without_numpy():
    src = str(Path(S.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_optimal_count_skips_chunks_heavier_than_the_value():
    # n = 11 is scanned in 16 chunks, and most prefixes weigh more than the value 3
    assert S.solve_oidrd(G.star(10), count_optimal=True).optimal_count == 1


def test_balanced_bipartite_optimal_count_is_pinned():
    # K_{5,5} takes the chunked path; 150 optima as counted by the earlier
    # int64-index enumeration
    res = S.solve_oidrd(G.complete_bipartite(5, 5), count_optimal=True)
    assert (res.value, res.optimal_count) == (9, 150)


def _components(g):
    seen, count = set(), 0
    for r in range(g.n):
        if r not in seen:
            count += 1
            stack = [r]
            seen.add(r)
            while stack:
                for w in G.bits(g.nbr_masks[stack.pop()]):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return count


def test_forest_routes_match_engine_on_every_small_forest():
    forests = 0
    for n in range(1, 7):
        for g in G.enumerate_graphs(n):
            if g.m != n - _components(g):
                continue
            forests += 1
            assert forest.tree_oidrd(g) == S.solve_oidrd(g).value, G.to_edge_list_text(g)
            assert forest.tree_beta(g) == S.solve_beta(g).value, G.to_edge_list_text(g)
    # labeled forests on 1..6 vertices (OEIS A001858)
    assert forests == 1 + 2 + 7 + 38 + 291 + 2932


def test_forest_routes_match_oracle_on_sampled_trees():
    for n in (8, 9, 10):
        for t in G.sample_trees(n, 8, seed=n):
            assert forest.tree_oidrd(t) == S.brute_force_oidrd(t).value, G.to_edge_list_text(t)
            assert forest.tree_beta(t) == S.brute_force_beta(t).value, G.to_edge_list_text(t)


def _graph_offset(seq, n: int) -> int:
    """gamma_oidr - 2 beta of the tree with Prufer sequence seq, by the graph route."""
    beta, gamma = forest._forest_routes(G.prufer_decode(tuple(seq), n))
    return gamma - 2 * beta


def test_prufer_route_matches_the_graph_route():
    sequences = [(n, seq) for n in range(1, 8) for seq in G.prufer_sequences(n)]
    sequences += [(n, seq) for n in (9, 10) for seq in G.prufer_sequences(n, 1000, seed=n)]
    for n, seq in sequences:
        assert forest._prufer_offsets(n, seq, 1) == [_graph_offset(seq, n)], (n, seq)
    assert len(sequences) == 18249 + 2000


def test_forest_routes_match_engine_on_sampled_deeper_trees():
    for n in range(7, 15):
        for t in G.sample_trees(n, 25, seed=n):
            routes = forest._forest_routes(t)
            assert routes == (S.solve_beta(t).value, S.solve_oidrd(t).value), G.to_edge_list_text(t)


def test_forest_routes_are_pinned_on_every_small_tree():
    # (beta, gamma_oidr) of every labeled tree with n <= 7, one byte each, in
    # Prufer order; digest recorded before the routes became one loop
    h = hashlib.sha256()
    for n in range(1, 8):
        for seq in G.prufer_sequences(n):
            h.update(bytes(forest._forest_routes(G.prufer_decode(seq, n))))
    assert h.hexdigest() == "9cea6a65d17c36a7ebb37b729041f5df28c11017e2537f13c6dc40be57284202"


def test_forest_routes_on_one_and_two_vertices():
    assert forest._forest_routes(G.prufer_decode((), 1)) == (0, 2)
    assert forest._forest_routes(G.prufer_decode((), 2)) == (1, 3)
    assert G.prufer_decode((), 1).m == 0 and G.prufer_decode((), 2).edges() == [(0, 1)]


def test_one_pass_prufer_routes_match_the_graph_route_on_every_small_tree():
    # one range per order, the odometer turning through every sequence
    h = hashlib.sha256()
    trees = 0
    for n in range(1, 8):
        sequences = list(G.prufer_sequences(n))
        offsets = forest._prufer_offsets(n, sequences[0], len(sequences))
        assert offsets == [_graph_offset(seq, n) for seq in sequences], n
        h.update(bytes(offsets))
        trees += len(offsets)
    assert trees == 18249
    # gamma_oidr - 2 beta per tree, one byte each, recorded from the one-pass
    # (beta, gamma_oidr) route the offsets replaced
    assert h.hexdigest() == "c034e1b1ebb41064d7cf8e23d5c7ca8eb3191c4947880eb86877da66936e7f98"


@pytest.mark.parametrize("n,count", [(9, 300), (10, 300), (20, 200), (100, 50), (1000, 20)])
def test_one_pass_prufer_routes_match_the_graph_route_on_samples(n, count):
    for seq in G.prufer_sequences(n, count, seed=n):
        assert forest._prufer_offsets(n, seq, 1) == [_graph_offset(seq, n)], (n, seq)


def test_one_pass_prufer_routes_on_small_orders_and_bytes():
    assert forest._prufer_offsets(1, (), 1) == forest._prufer_offsets(1, b"", 1) == [2]
    assert forest._prufer_offsets(2, (), 1) == forest._prufer_offsets(2, b"", 1) == [1]
    for n in range(3, 9):
        for seq in G.prufer_sequences(n, 50, seed=n):
            assert forest._prufer_offsets(n, bytes(seq), 3) == forest._prufer_offsets(n, seq, 3)


def _successors(seq: tuple, n: int, count: int) -> list[tuple]:
    """seq and the count - 1 Prufer sequences after it in lexicographic order."""
    out = [seq]
    while len(out) < count:
        digits = list(out[-1])
        i = len(digits) - 1
        while digits[i] == n - 1:
            digits[i] = 0
            i -= 1
        digits[i] += 1
        out.append(tuple(digits))
    return out


def test_prufer_offset_ranges_cross_a_carry_at_every_digit():
    for n in range(3, 8):
        sequences = list(G.prufer_sequences(n))
        whole = forest._prufer_offsets(n, sequences[0], len(sequences))
        # the odometer carries into digit i, wrapping every later digit, at
        # each multiple of n^(n - 3 - i); take a range across one, mid-order
        for i in range(n - 2):
            turn = n ** (n - 3 - i) * (1 + (i > 0))
            first = max(turn - 3, 0)
            count = min(7, len(sequences) - first)
            assert forest._prufer_offsets(n, sequences[first], count) == \
                whole[first:first + count], (n, i)
        # the last sequence, whose odometer wraps past the end of the order
        assert forest._prufer_offsets(n, sequences[-1], 1) == whole[-1:]
    for n in (9, 10):
        for seq in G.prufer_sequences(n, 20, seed=n):
            # end in n - 1 at every digit but the first, so the range carries through all
            start = (seq[0] if seq[0] < n - 1 else 0, *(n - 1,) * (n - 3))
            run = _successors(start, n, 4)
            assert forest._prufer_offsets(n, start, 4) == [_graph_offset(q, n) for q in run]
            run = _successors(seq, n, 30)
            assert forest._prufer_offsets(n, seq, 30) == [_graph_offset(q, n) for q in run]


def test_labeled_equality_counts_are_pinned():
    # trees with gamma_oidr = 2 beta + 1 per order n = 2..8; their running sums
    # are audit_trees' equality_cases, 4,928 at n <= 7 and 107,752 at n <= 8
    counts = []
    for n in range(2, 9):
        offsets = forest._prufer_offsets(n, (0,) * (n - 2), n ** (n - 2))
        assert min(offsets) == 1
        counts.append(offsets.count(1))
    assert counts == [1, 3, 16, 65, 846, 3997, 102824]
    assert sum(counts[:-1]) == 4928 and sum(counts) == 107752


def _automaton_closure() -> set[tuple]:
    """Every normalised vector reachable from the leaf, both merge orders."""
    states, frontier = {forest._LEAF}, [forest._LEAF]
    while frontier:
        a = frontier.pop()
        for b in list(states):
            for p, c in ((a, b), (b, a)):
                x = forest._normalised(forest._merge(p, c))[0]
                if x not in states:
                    states.add(x)
                    frontier.append(x)
    return states


def test_forest_automaton_closure_is_finite_with_costs_in_0_to_3():
    closure = _automaton_closure()
    assert len(closure) == 99
    for x in closure:
        kept = [c for c in x if c != forest._INF]
        # H is kept, the minimum is 0, and every other kept state costs less than H
        assert x[6] == kept[-1] and min(kept) == 0, x
        assert all(c in range(4) for c in kept) and all(c < x[6] for c in kept[:-1]), x


def test_forest_table_stays_within_the_closure():
    H.audit_trees(8, workers=1)
    closure = _automaton_closure()
    assert set(forest._STATES) <= closure and len(forest._STATES) == len(forest._STATE_IDS)
    assert sum(map(len, forest._MOVES)) <= len(closure) ** 2


def test_product_table_stays_within_twice_the_closure():
    # fill every move among the closure's states with both bits
    closure = _automaton_closure()
    for x in closure:
        forest._intern(x)
    ids = range(2 * len(forest._STATES))
    for a in ids:
        for b in ids:
            forest._close_pair(a, b)
    assert len(forest._STATES) == len(closure) == 99
    assert len(forest._PAIR_MOVES) == 2 * 99
    for a, moves in enumerate(forest._PAIR_MOVES):
        assert set(moves) == set(ids)
        for b, (c, inc) in moves.items():
            state, low = forest._MOVES[a >> 1][b >> 1]
            taken = not (a & 1 or b & 1)  # a free child matches a free parent
            assert (c, inc) == (2 * state + (a & 1 or not b & 1), low - 2 * taken), (a, b)


def _unclipped_routes(g: G.Graph) -> tuple[int, int]:
    """(gamma_oidr, largest relative cost met) of the tree g by folding _merge
    on absolute costs, children first along a breadth-first order from
    vertex 0: no table, no clipping, no leaf peeling."""
    order, parent = [0], [-1] * g.n
    for v in order:
        for w in G.bits(g.nbr_masks[v]):
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    vec = [forest._LEAF] * g.n
    gamma = spread = 0
    for v in reversed(order):
        finite = [c for c in vec[v] if c != forest._INF]
        spread = max(spread, max(finite) - min(finite))
        p = parent[v]
        if p < 0:
            z0, z1, z2, o0, o1, t, h = vec[v]
            gamma += min(z2, o1, t, h)
        else:
            vec[p] = forest._merge(vec[p], vec[v])
    return gamma, spread


def _spider(legs: int, length: int) -> G.Graph:
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges += [(0, first)] + [(first + i, first + i + 1) for i in range(length - 1)]
    return G.build(1 + legs * length, edges)


def _caterpillar(spine: int, leaves: int) -> G.Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * leaves + j) for i in range(spine) for j in range(leaves)]
    return G.build(spine * (1 + leaves), edges)


def test_forest_table_matches_the_unclipped_fold_on_high_degree_trees():
    ks = (*range(1, 25), 50, 100, 199, 200, 300)
    trees = [(G.star(k), F.formula_complete_bipartite(1, k)) for k in ks]
    trees += [(_spider(k, length), None) for k in ks for length in (2, 3)]
    trees += [(G.path(2000), F.formula_path(2000))]
    trees += [(_caterpillar(s, j), None) for s, j in ((5, 40), (40, 5), (60, 1), (3, 300))]
    spread = 0
    for g, formula in trees:
        gamma, wide = _unclipped_routes(g)
        spread = max(spread, wide)
        assert forest._forest_routes(g)[1] == gamma, G.to_edge_list_text(g)
        assert formula in (None, gamma)
    # the relative costs the clipping keeps in 0..3 grow with the degree
    assert spread > 100


@st.composite
def relabeled_forest(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    parent = [draw(st.integers(-1, v - 1)) for v in range(n)]
    perm = draw(st.permutations(range(n)))
    edges = [(v, p) for v, p in enumerate(parent) if p >= 0]
    return G.build(n, edges), G.build(n, [(perm[v], perm[p]) for v, p in edges])


@settings(deadline=None)
@given(relabeled_forest())
def test_forest_routes_match_engine_and_ignore_labels(pair):
    g, relabeled = pair
    value = forest.tree_oidrd(g)
    assert value == S.solve_oidrd(g).value == forest.tree_oidrd(relabeled)
    assert forest.tree_beta(g) == S.solve_beta(g).value == forest.tree_beta(relabeled)


def test_forest_routes_on_families():
    assert forest.tree_oidrd(G.path(2000)) == F.formula_path(2000)
    assert forest.tree_beta(G.path(2000)) == 1000
    for k in range(1, 30):
        assert forest.tree_oidrd(G.star(k)) == F.formula_complete_bipartite(1, k)
        assert forest.tree_beta(G.star(k)) == 1
    # forests: components add up, an isolated vertex costs 2
    assert forest.tree_oidrd(G.empty(5)) == 10 and forest.tree_beta(G.empty(5)) == 0
    two_p3 = G.build(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert forest.tree_oidrd(two_p3) == 6 and forest.tree_beta(two_p3) == 2


def test_forest_routes_reject_graphs_with_cycles():
    with_cycle = G.build(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    # the pendant path and the isolated vertex peel away before the triangle
    pendant = G.build(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    for g in (G.cycle(3), G.complete(4), with_cycle, pendant):
        with pytest.raises(G.GraphError, match="not a forest"):
            forest.tree_oidrd(g)
        with pytest.raises(G.GraphError, match="not a forest"):
            forest.tree_beta(g)


_PATCHED_PREDICATES = """
import sys
from oidrd import graphs as G, reduction as R, solver as S

if not sys.flags.optimize:
    sys.exit("expected python -O")
{target}.{name} = lambda g, f: False
try:
    {call}
except S.CertificationError as e:
    print("CertificationError:", e)
"""


@pytest.mark.parametrize("target,name,call", [
    ("S", "is_oidrd", "S.solve_oidrd(G.path(4))"),
    ("S", "is_cover_labeling", "S.solve_beta(G.path(4))"),
    ("S", "is_independent_labeling", "S.solve_alpha(G.path(4))"),
    ("R", "is_oidrd", "R.witness_from_independent_set(G.path(2), [0])"),
    ("S", "is_oidrd", "S._solve_below('gamma_oidr', G.path(4), 6)"),
])
def test_certification_checks_survive_optimize(target, name, call):
    src = str(Path(S.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = textwrap.dedent(_PATCHED_PREDICATES).format(target=target, name=name, call=call)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificationError:"), out.stdout


_PINNED_TREES = {
    "gamma_oidr": [("corona(cycle:3,cycle:4)", 12680), ("sharph:3,2,2", 7365),
                   ("cycle:15", 2605), ("path:17", 1830), ("kpartite:4,4,4,4,4,4", 935),
                   ("gadget(path:3)", 30), ("corona(cycle:5,empty:2)", 30)],
    "beta": [("corona(cycle:3,cycle:4)", 26), ("sharph:3,2,2", 47), ("cycle:15", 23),
             ("path:17", 25), ("kpartite:4,4,4,4,4,4", 44)],
    "gamma_dr": [("corona(cycle:3,cycle:4)", 9389), ("sharph:3,2,2", 33034), ("cycle:15", 6415),
                 ("path:17", 17174), ("kpartite:4,4,4,4,4,4", 129359)],
    "gamma_oir": [("corona(cycle:3,cycle:4)", 1966), ("sharph:3,2,2", 2209), ("cycle:15", 3653),
                  ("path:17", 3080), ("kpartite:4,4,4,4,4,4", 215)],
    "gamma_r": [("corona(cycle:3,cycle:4)", 4440), ("sharph:3,2,2", 11500), ("cycle:15", 2168),
                ("path:17", 5694), ("kpartite:4,4,4,4,4,4", 5448)],
    "gamma": [("corona(cycle:3,cycle:4)", 97), ("sharph:3,2,2", 1022), ("cycle:15", 23),
              ("path:17", 26), ("kpartite:4,4,4,4,4,4", 96)],
}


# upper bounds on gamma_oidr's counts: when it pruned on the packing and the
# clique bound apart, and for the two graphs with pendant groups, before the
# bounds credited each group its least weight
_SEPARATE_BOUND_TREES = {"corona(cycle:3,cycle:4)": 40871, "sharph:3,2,2": 33756,
                         "cycle:15": 16175, "path:17": 12395, "kpartite:4,4,4,4,4,4": 3805,
                         "gadget(path:3)": 102, "corona(cycle:5,empty:2)": 272}


@pytest.mark.parametrize("key,spec,nodes", [
    pytest.param(key, spec, nodes, id=f"{key}-{spec}")
    for key, cases in _PINNED_TREES.items() for spec, nodes in cases])
def test_search_tree_is_pinned(key, spec, nodes):
    # gamma_oidr counts recorded when it began to prune on the packing and
    # the clique bound together: that may only cut nodes, so each count is
    # also at most the one of the two bounds taken apart; beta counts
    # recorded when the cover search moved onto the one-pass engine; the
    # other label problems' counts before the bounds went bitwise
    count = S.SOLVERS[key](G.family(G.parse_family_spec(spec))).node_count
    assert count == nodes
    if key == "gamma_oidr":
        assert count <= _SEPARATE_BOUND_TREES[spec]


def _sampled_graphs():
    graphs = [g for n in range(8, 12) for g in G.sample_connected_graphs(n, 25, seed=n)]
    return graphs + [G.family(G.parse_family_spec(spec)) for spec in
                     ("gadget(path:3)", "corona(path:2,empty:4)", "sharph:2,2,2")]


def test_small_graph_results_are_pinned():
    # sha256 over (invariant, value, witness, node count) of every SOLVERS
    # entry on every connected graph with n <= 5, recorded when gamma_oidr
    # began to prune on the packing and the clique bound together (only its
    # node counts moved; test_values_and_witnesses_are_pinned holds the rest);
    # alpha and beta node counts enter as None and are pinned by total below
    h = hashlib.sha256()
    cover_nodes = {"alpha": 0, "beta": 0}
    for n in range(1, 6):
        for g in G.enumerate_connected_graphs(n):
            for key, solve in S.SOLVERS.items():
                r = solve(g)
                nodes = r.node_count
                if key in cover_nodes:
                    cover_nodes[key] += nodes
                    nodes = None
                h.update(repr((key, r.value, r.witness.values, nodes)).encode())
    assert h.hexdigest() == "62217135a2ae6d5a661eb9e040d5d51641f788abd813bc5577e5fed2a58e45d0"
    assert cover_nodes == {"alpha": 6184, "beta": 6184}


def test_sampled_graph_results_are_pinned():
    # sha256 over (invariant, value, witness, node count) of every SOLVERS
    # entry on seeded samples deep enough for the labels of one search node
    # to share their bound lookups, recorded when gamma_oidr began to prune
    # on the packing and the clique bound together, and again when the bounds
    # began to credit pendant groups (only node counts moved both times)
    h = hashlib.sha256()
    for g in _sampled_graphs():
        for key, solve in S.SOLVERS.items():
            r = solve(g)
            h.update(repr((key, r.value, r.witness.values, r.node_count)).encode())
    assert h.hexdigest() == "2e0209432c8cef282ccc2d699a318dc1e79a54d530dfc440a082aad600407de8"


def test_values_and_witnesses_are_pinned():
    # sha256 over (invariant, value, witness) of every SOLVERS entry on the
    # graphs of the two tests above, with node counts left out, recorded
    # before gamma_oidr pruned on the packing and the clique bound together:
    # a search that only prunes more keeps every value and canonical witness
    graphs = [g for n in range(1, 6) for g in G.enumerate_connected_graphs(n)]
    h = hashlib.sha256()
    for g in graphs + _sampled_graphs():
        for key, solve in S.SOLVERS.items():
            r = solve(g)
            h.update(repr((key, r.value, r.witness.values)).encode())
    assert h.hexdigest() == "5cbf3f74a6addadc92d874ead5cea9c75abb87e3578810d41df0513f0e7f0f49"


def test_search_below_a_bound_decides_it_and_leaves_no_trace():
    # for every bound up to two past the value: None iff the value is at
    # least the bound, and otherwise the exact value and canonical witness;
    # then a full solve on the same object is the one a fresh twin gets,
    # with the node counts that the small and sampled graph pins hold, so no
    # bounded run is kept as the session result
    graphs = [g for n in range(1, 6) for g in G.enumerate_connected_graphs(n)]
    for g in graphs + _sampled_graphs():
        twin = G.build(g.n, g.edges())
        exact = S.solve_oidrd(twin)
        for bound in range(exact.value + 3):
            below = S._solve_below("gamma_oidr", g, bound)
            if bound <= exact.value:
                assert below is None, (bound, G.to_edge_list_text(g))
            else:
                assert (below.value, below.witness) == (exact.value, exact.witness), bound
        assert S.solve_oidrd(g) == exact, G.to_edge_list_text(g)


def test_proof_node_count_is_within_the_search():
    for spec in {spec for cases in _PINNED_TREES.values() for spec, _ in cases}:
        g = G.family(G.parse_family_spec(spec))
        for key, solve in S.SOLVERS.items():
            r = solve(g)
            assert 0 <= r.proof_node_count <= r.node_count, (key, spec)
        assert S.solve_alpha(g).proof_node_count == S.solve_beta(g).proof_node_count
    res = S.solve_oidrd(G.path(2), count_optimal=True)
    assert res.proof_node_count == S.solve_oidrd(G.path(2)).proof_node_count
    assert S.brute_force_oidrd(G.path(2)).proof_node_count is None


def test_alpha_and_beta_share_one_cover_search(monkeypatch):
    runs = []
    search = S._branch_and_bound
    monkeypatch.setattr(S, "_branch_and_bound",
                        lambda g, prob, ub: runs.append(prob) or search(g, prob, ub))
    g = G.corona(G.cycle(4), G.path(2))
    alpha, beta = S.solve_alpha(g), S.solve_beta(g)
    assert runs == [S.INVARIANTS["beta"][0]]
    assert (alpha.value, alpha.node_count) == (g.n - beta.value, beta.node_count)
    # another graph gets a cover search of its own
    S.solve_beta(G.cycle(4))
    assert len(runs) == 2


def test_each_problem_is_searched_once_per_graph(monkeypatch):
    runs = []
    search = S._branch_and_bound
    monkeypatch.setattr(S, "_branch_and_bound",
                        lambda g, prob, ub: runs.append(prob) or search(g, prob, ub))
    g = G.corona(G.cycle(4), G.path(2))
    first = S.solve_oidrd(g), S.solve_gamma(g)
    assert (S.solve_oidrd(g), S.solve_gamma(g)) == first
    assert runs == [S.INVARIANTS["gamma_oidr"][0], S.INVARIANTS["gamma"][0]]
    # an equal graph is another object, so it is searched again
    twin = G.corona(G.cycle(4), G.path(2))
    assert (S.solve_oidrd(twin), S.solve_gamma(twin)) == first
    assert len(runs) == 4


@pytest.mark.parametrize("limit", [0, 1, 100])
def test_full_bound_memo_changes_nothing(monkeypatch, limit):
    graphs = [G.family(G.parse_family_spec(spec)) for spec in
              ("cycle:12", "sharph:2,2,2", "corona(path:2,empty:4)", "gadget(path:3)")]
    graphs += G.sample_connected_graphs(11, 2, seed=3)
    uncapped = [(solve(g), k) for g in graphs for k, solve in S.SOLVERS.items()]
    monkeypatch.setattr(S, "_BOUND_MEMO_LIMIT", limit)
    capped = [(solve(g), k) for g in graphs for k, solve in S.SOLVERS.items()]
    assert capped == uncapped


def test_shared_bound_memos_are_exact_and_order_free():
    # each invariant gives the same result alone on a fresh graph object as
    # after the other six filled the memos of the same object, in either order
    specs = ("cycle:12", "sharph:2,2,2", "corona(path:2,empty:4)", "gadget(path:3)")
    graphs = [G.family(G.parse_family_spec(spec)) for spec in specs]
    graphs += [g for n in range(1, 6) for g in G.enumerate_connected_graphs(n)]
    keys = list(S.SOLVERS)
    for g in graphs:
        for key in keys:
            results = []
            for before in ([], [k for k in keys if k != key], [k for k in reversed(keys) if k != key]):
                h = G.build(g.n, g.edges())
                for k in before:
                    S.SOLVERS[k](h)
                r = S.SOLVERS[key](h)
                results.append((r.value, r.witness, r.node_count, r.proof_node_count))
            assert results[0] == results[1] == results[2], (key, G.to_edge_list_text(g))


def test_five_label_problems_share_one_packing_memo(monkeypatch):
    # one packing memo per depth serves gamma_oidr and gamma_dr, which read
    # twice the count, and gamma_oir, gamma_r and gamma, which read the count
    labels = [key for key, (prob, _) in S.INVARIANTS.items() if prob.zero_mode]
    specs = ("cycle:12", "sharph:2,2,2", "corona(path:2,empty:4)")
    unpatched = [[S.SOLVERS[key](G.family(G.parse_family_spec(spec))) for key in labels]
                 for spec in specs]
    calls = []
    packing = S._packing
    monkeypatch.setattr(S, "_packing", lambda opened, avail:
                        calls.append((id(opened), avail)) or packing(opened, avail))
    for spec, expected in zip(specs, unpatched):
        calls.clear()
        g = G.family(G.parse_family_spec(spec))
        assert [S.SOLVERS[key](g) for key in labels] == expected, spec
        assert calls and len(set(calls)) == len(calls), spec


def _matching(opened: list[tuple[int, int]], avail: int) -> int:
    # vertex cover: a forced 1 at each opened vertex outside avail, which
    # has a 0-neighbor, plus a greedy matching inside avail
    count = len(opened) - avail.bit_count()
    for low, near in opened:
        if low & avail:
            cand = near & avail & -(low << 1)
            if cand:
                count += 1
                avail ^= cand & -cand
    return count


def test_clique_bound_is_never_below_the_greedy_matching():
    # the cover search prunes on the clique bound alone, which cuts every
    # node the greedy matching would: every graph with n <= 5 under every
    # key, and seeded connected graphs and keys at n = 6..9
    rng = random.Random(5)
    cases = [(g, key) for n in range(1, 6) for g in G.enumerate_graphs(n) for key in range(1 << n)]
    cases += [(g, rng.getrandbits(n)) for n in range(6, 10)
              for g in G.sample_connected_graphs(n, 200, n) for _ in range(8)]
    for g, key in cases:
        opened = [(1 << v, 1 << v | m) for v, m in enumerate(g.nbr_masks)]
        full = (1 << g.n) - 1
        assert S._independence_lb(opened, key) >= _matching(opened, full & ~key), \
            (G.to_edge_list_text(g), key)
    assert len(cases) == 40_266


def test_searches_on_one_graph_share_one_plan(monkeypatch):
    built = []
    build = S._build_plan
    monkeypatch.setattr(S, "_build_plan", lambda g: built.append(g) or build(g))
    g, twin = G.cycle(7), G.cycle(7)
    results = {key: solve(g) for key, solve in S.SOLVERS.items()}
    assert len(built) == 1 and built[0] is g
    # an equal graph is another object, so it gets a plan of its own
    assert {key: solve(twin) for key, solve in S.SOLVERS.items()} == results
    assert len(built) == 2 and built[1] is twin
    other = G.double_star(2, 3)
    for key, solve in S.SOLVERS.items():
        assert solve(other).witness == S.BRUTE_SOLVERS[key](other).witness, key
    assert len(built) == 3 and built[2] is other


def test_incumbents_are_computed_once_per_graph(monkeypatch):
    # the greedy independent set and the isolated vertices sit beside the
    # plan, so the seven searches on one graph compute them once
    calls = []
    greedy = S._greedy_max_independent
    monkeypatch.setattr(S, "_greedy_max_independent", lambda g: calls.append(g) or greedy(g))
    g = G.corona(G.path(3), G.empty(2))
    for key, solve in S.SOLVERS.items():
        assert solve(g).witness == S.BRUTE_SOLVERS[key](g).witness, key
    assert len(calls) == 1 and calls[0] is g


def _pendants_and_isolated(rng, base):
    # hang a pendant on up to two vertices of base, add up to two isolated
    # vertices, and relabel at random so they land at every depth
    edges = base.edges()
    n = base.n
    for v in rng.sample(range(base.n), rng.randint(0, 2)):
        edges.append((v, n))
        n += 1
    n += rng.randint(0 if n > base.n else 1, 2)
    perm = list(range(n))
    rng.shuffle(perm)
    return G.build(n, [(perm[u], perm[v]) for u, v in edges])


def test_engine_matches_oracle_with_isolated_and_pendant_vertices():
    rng = random.Random(8)
    graphs = [G.build(4, [(1, 2)]), G.build(5, [(0, 4), (1, 4), (2, 4)]), G.star(6),
              G.build(6, [(0, 5), (1, 2), (2, 3)]), G.build(7, [(1, 2), (3, 6)])]
    for n in (3, 4, 5):
        for base in G.sample_connected_graphs(n, 12, seed=n):
            graphs.append(_pendants_and_isolated(rng, base))
    shut_early = 0
    for g in graphs:
        shut_early += any(m >> (v + 1) == 0 for v, m in enumerate(g.nbr_masks[:-1]))
        for key, solve in S.SOLVERS.items():
            r, b = solve(g), S.BRUTE_SOLVERS[key](g)
            assert (r.value, r.witness) == (b.value, b.witness), (key, G.to_edge_list_text(g))
    # most graphs have a vertex other than the last with no later neighbor
    assert shut_early > len(graphs) // 2


def _two_leaf_support(g: G.Graph) -> bool:
    # two leaves of one support have the same one-bit mask
    leaves = [m for m in g.nbr_masks if m and not m & (m - 1)]
    return len(set(leaves)) < len(leaves)


def _has_group_rows(g: G.Graph) -> bool:
    # whether the plan of g rewrote a row for a pendant group
    entry = S._search_plan(g)
    return entry[6] is not entry[1]


def test_pendant_groups_match_the_oracle(monkeypatch):
    # graphs whose pendant groups last over several depths, past the n <= 6
    # sets; every order gets group rows, so the trees at n = 7 do too
    monkeypatch.setattr(S, "_GROUP_MIN_N", 1)
    specs = ("gadget(path:2)", "corona(path:2,empty:3)", "corona(cycle:3,empty:2)", "star:8")
    graphs = [G.family(G.parse_family_spec(spec)) for spec in specs]
    graphs.append(G.build(9, [(v, 8) for v in range(8)]))  # star:8 with its centre last
    for n in range(7, 11):
        trees = [t for t in G.sample_trees(n, 40, seed=n) if _two_leaf_support(t)]
        graphs += [t for t in trees if _has_group_rows(t)][:1 if n == 10 else 3]
    for g in graphs:
        for key, solve in S.SOLVERS.items():
            r, b = solve(g), S.BRUTE_SOLVERS[key](g)
            assert (r.value, r.witness) == (b.value, b.witness), (key, G.to_edge_list_text(g))
    # star:8's support is vertex 0, which is never free
    assert [_has_group_rows(g) for g in graphs].count(False) == 1
    assert len(graphs) == 15


def test_pendant_groups_change_no_value_or_witness_on_small_graphs(monkeypatch):
    # every connected graph with n <= 6 and a two-leaf support, searched
    # without group rows (below _GROUP_MIN_N) and with them
    def results(g):
        return [(r.value, r.witness) for r in (solve(g) for solve in S.SOLVERS.values())]

    graphs = [g for n in range(3, 7) for g in G.enumerate_connected_graphs(n)
              if _two_leaf_support(g)]
    assert S._GROUP_MIN_N > 6 and len(graphs) == 1878
    plain = [results(g) for g in graphs]
    monkeypatch.setattr(S, "_GROUP_MIN_N", 1)
    grouped = 0
    for g, expected in zip(graphs, plain):
        h = G.build(g.n, g.edges())
        assert results(h) == expected, G.to_edge_list_text(g)
        grouped += _has_group_rows(h)
    assert grouped > len(graphs) // 2


def test_engine_matches_the_forest_routes_on_trees_with_pendant_groups():
    # the third exact route, past the oracle cap: seeded trees with a
    # two-leaf support at n = 12..20 (one of them at n = 22 takes 7 million
    # nodes), and the coronas T o K2-bar of seeded trees, n = 12..30, which
    # have a group at every depth up to the last support
    trees = [t for n in range(12, 21) for t in G.sample_trees(n, 6, seed=n)
             if _two_leaf_support(t)]
    trees += [G.corona(t, G.empty(2)) for k in range(4, 11) for t in G.sample_trees(k, 2, seed=k)]
    for t in trees:
        assert S.solve_oidrd(t).value == forest.tree_oidrd(t), G.to_edge_list_text(t)
        assert S.solve_beta(t).value == forest.tree_beta(t), G.to_edge_list_text(t)
    assert len(trees) > 40


def test_gadget_identity_at_scale():
    # gamma_oidr(G') = 4n - alpha(G) on seeded subcubic bases of order
    # 6..8 (gadgets of 24..32 vertices); node totals recorded when the
    # bounds began to credit pendant groups (the five n = 8 gadgets took
    # 779,343 nodes before)
    nodes = {}
    for n in (6, 7, 8):
        nodes[n] = 0
        for base in G.sample_connected_graphs(n, 5, 1, max_deg=3):
            r = S.solve_oidrd(G.gadget(base))
            assert r.value == 4 * n - S.brute_force_alpha(base).value, G.to_edge_list_text(base)
            nodes[n] += r.node_count
    assert nodes == {6: 1185, 7: 1927, 8: 2962}


def test_one_invariant_table_orders_both_routes():
    assert list(S.SOLVERS) == list(S.INVARIANTS) == list(S.BRUTE_SOLVERS)


@pytest.mark.parametrize("name", list(S.INVARIANTS))
def test_feasibility_checks_length_and_range(name):
    g = G.path(3)
    with pytest.raises(LabelingError, match="2 values for a graph on 3 vertices"):
        S.is_feasible(name, g, (1, 1))
    with pytest.raises(LabelingError, match="out of range"):
        S.is_feasible(name, g, (1, 4, 1))
    # every invariant's own witness passes; a label above 1 fails the 0/1 rows
    assert S.is_feasible(name, g, S.SOLVERS[name](g).witness)
    if S.INVARIANTS[name][0].base == 2:
        assert not S.is_feasible(name, g, (2, 2, 2))
