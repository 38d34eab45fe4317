import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oidrd import formulas as F
from oidrd import graphs as G
from oidrd import solver as S
from oidrd.labeling import classes, is_oidrd, weight


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


@pytest.mark.parametrize("n,chunks", [(10, 4), (11, 16)])
def test_oracle_chunks_match_engine(n, chunks):
    # base-4 tables are cached for the last 9 vertices, so n = 10 scans them
    # under one prefix digit and n = 11 under two
    assert sum(1 for _ in S._chunks(4, n)) == chunks
    for g in G.sample_connected_graphs(n, 2, seed=n):
        for key in ("gamma_oidr", "gamma_dr"):
            r = S.SOLVERS[key](g)
            assert S._brute_min(g, _LABEL_PROBLEMS[key]) == (r.value, r.witness.values), key


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
                for w in g.adj[stack.pop()]:
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
            assert S.tree_oidrd(g) == S.solve_oidrd(g).value, G.to_edge_list_text(g)
            assert S.tree_beta(g) == S.solve_beta(g).value, G.to_edge_list_text(g)
    # labeled forests on 1..6 vertices (OEIS A001858)
    assert forests == 1 + 2 + 7 + 38 + 291 + 2932


def test_forest_routes_match_oracle_on_sampled_trees():
    for n in (8, 9, 10):
        for t in G.sample_trees(n, 8, seed=n):
            assert S.tree_oidrd(t) == S.brute_force_oidrd(t).value, G.to_edge_list_text(t)
            assert S.tree_beta(t) == S.brute_force_beta(t).value, G.to_edge_list_text(t)


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
    value = S.tree_oidrd(g)
    assert value == S.solve_oidrd(g).value == S.tree_oidrd(relabeled)
    assert S.tree_beta(g) == S.solve_beta(g).value == S.tree_beta(relabeled)


def test_forest_routes_on_families():
    assert S.tree_oidrd(G.path(2000)) == F.formula_path(2000)
    assert S.tree_beta(G.path(2000)) == 1000
    for k in range(1, 30):
        assert S.tree_oidrd(G.star(k)) == F.formula_complete_bipartite(1, k)
        assert S.tree_beta(G.star(k)) == 1
    # forests: components add up, an isolated vertex costs 2
    assert S.tree_oidrd(G.empty(5)) == 10 and S.tree_beta(G.empty(5)) == 0
    two_p3 = G.build(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert S.tree_oidrd(two_p3) == 6 and S.tree_beta(two_p3) == 2


def test_forest_routes_reject_graphs_with_cycles():
    with_cycle = G.build(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    for g in (G.cycle(3), G.complete(4), with_cycle):
        with pytest.raises(G.GraphError, match="not a forest"):
            S.tree_oidrd(g)
        with pytest.raises(G.GraphError, match="not a forest"):
            S.tree_beta(g)


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
