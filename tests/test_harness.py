import hashlib
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from math import ceil

import pytest

from oidrd import forest
from oidrd import graphs as G
from oidrd import harness as H
from oidrd.characterize import FOUR, OTHER, ClassifyResult


def _strip_runtime(report):
    d = report.to_dict()
    d.pop("runtime_ms")
    return d


def test_bounds_campaign_passes():
    r = H.audit_bounds(4, workers=1)
    assert r.status == "pass" and not r.violations
    assert r.instances_checked == 1 + 4 + 38


def test_characterization_campaign_counts_classes():
    r = H.audit_characterization(4, n7_samples=0, workers=1)
    assert r.status == "pass"
    assert r.instances_checked == 4 + 38
    assert sum(r.extra["class_counts"].values()) == r.instances_checked


def test_reduction_campaign_small():
    r = H.audit_reduction(3, workers=1)
    assert r.status == "pass"
    assert r.instances_checked == 1 + 2 + 8


def test_trees_campaign_counts_match_cayley():
    r = H.audit_trees(6, workers=1)
    assert r.status == "pass"
    assert r.instances_checked == 1 + 1 + 3 + 16 + 125 + 1296
    assert r.extra["equality_cases"] > 0


@pytest.mark.parametrize("campaign,kwargs", [
    pytest.param(H.audit_characterization, {"max_n": 3, "n7_samples": -1}, id="characterization"),
    pytest.param(H.audit_trees, {"max_n": 9, "samples": -5}, id="trees"),
    pytest.param(H.audit_reduction, {"max_n": 5, "samples_n5": -3}, id="reduction"),
])
def test_campaigns_reject_negative_sample_counts(campaign, kwargs):
    with pytest.raises(ValueError, match="at least 0"):
        campaign(workers=1, **kwargs)


@pytest.mark.parametrize("campaign,max_n,message", [
    pytest.param(H.audit_bounds, 7, "audit_bounds supports 2 <= max_n <= 6", id="bounds"),
    pytest.param(H.audit_characterization, 7, "audit_characterization supports 3 <= max_n <= 6",
                 id="characterization"),
    pytest.param(H.audit_reduction, 0, "audit_reduction supports 1 <= max_n <= 5", id="reduction"),
    pytest.param(H.audit_trees, 11, "audit_trees supports 1 <= max_n <= 10", id="trees"),
])
def test_campaigns_name_their_max_n_range_alike(campaign, max_n, message):
    # the runner states every campaign's range in one form, read off MAX_N
    with pytest.raises(ValueError) as caught:
        campaign(max_n, workers=1)
    assert str(caught.value) == message


def _tree_row(seq, n: int) -> tuple:
    """The violation row of the tree with Prufer sequence seq: its text and
    (2 beta + 1, gamma_oidr) by the graph route."""
    tree = G.prufer_decode(tuple(seq), n)
    beta, goidr = forest._forest_routes(tree)
    return G.to_edge_list_text(tree), "tree_lower_bound", 2 * beta + 1, goidr


def test_violations_carry_the_graph_text(monkeypatch):
    # workers send the graph text back only with a violation; force one per tree
    monkeypatch.setattr(H, "_prufer_offsets", lambda n, first_seq, count: [0] * count)
    r = H.audit_trees(3, workers=1)
    assert r.status == "fail" and r.extra["equality_cases"] == 0
    trees = [G.to_edge_list_text(t) for n in (1, 2, 3) for t in G.enumerate_trees(n)]
    assert sorted(v.graph for v in r.violations) == sorted(trees)
    assert {v.claim for v in r.violations} == {"tree_lower_bound"}
    rows = [_tree_row(seq, n) for n in (1, 2, 3) for seq in G.prufer_sequences(n)]
    assert sorted((v.graph, v.claim, v.lhs, v.rhs) for v in r.violations) == sorted(rows)


def _count_graphs(monkeypatch) -> list[int]:
    """The order of every Graph constructed from here on.  Prufer decoding,
    the enumerators and the sampler make graphs from masks without G.build,
    so this counts Graph.__init__, whichever route calls it."""
    built = []
    init = G.Graph.__init__

    def counting_init(self, n, nbr_masks, m):
        built.append(n)
        init(self, n, nbr_masks, m)

    monkeypatch.setattr(G.Graph, "__init__", counting_init)
    return built


def test_trees_campaign_builds_only_the_even_path_anchors(monkeypatch):
    built = _count_graphs(monkeypatch)
    r = H.audit_trees(6, workers=1)
    assert r.status == "pass" and r.instances_checked == 1 + 1 + 3 + 16 + 125 + 1296
    assert built == [2, 4, 6]


@pytest.mark.parametrize("campaign,builds_per_instance", [
    pytest.param(lambda: H.audit_bounds(4, workers=1), 1, id="bounds"),
    pytest.param(lambda: H.audit_characterization(4, n7_samples=0, workers=1), 1,
                 id="characterization"),
    # the worker builds each instance's gadget as well
    pytest.param(lambda: H.audit_reduction(4, workers=1), 2, id="reduction"),
])
def test_graph_campaigns_build_each_instance_once(monkeypatch, campaign, builds_per_instance):
    built = _count_graphs(monkeypatch)
    r = campaign()
    assert r.status == "pass" and len(built) == builds_per_instance * r.instances_checked


def test_trees_campaign_scores_every_tree_of_a_partial_last_chunk(monkeypatch):
    scored = Counter()
    check = H._tree_check

    def counting_check(payload):
        n, first, count = payload
        assert 0 < count <= H.TREE_CHUNK and first % H.TREE_CHUNK == 0
        result = check(payload)
        assert result[0] == count
        scored[n] += count
        return result

    monkeypatch.setattr(H, "_tree_check", counting_check)
    r = H.audit_trees(7, workers=1)
    assert 7 ** 5 % H.TREE_CHUNK
    assert scored == {1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1296, 7: 16807}
    assert r.instances_checked == sum(scored.values())


def _index(seq, n: int) -> int:
    """The lexicographic index of a Prufer sequence on n vertices."""
    return sum(d * n ** (len(seq) - 1 - i) for i, d in enumerate(seq))


def _forcing_offsets(monkeypatch, n: int, seq: tuple) -> None:
    """Patch the kernel to score the tree with Prufer sequence seq on n
    vertices 0, below the bound, whichever chunk and position it is in."""
    offsets = H._prufer_offsets
    target = _index(seq, n)

    def forced(order, first_seq, count):
        out = offsets(order, first_seq, count)
        first = _index(first_seq, order)
        if order == n and first <= target < first + count:
            out[target - first] = 0
        return out

    monkeypatch.setattr(H, "_prufer_offsets", forced)


def test_trees_payloads_stay_small_and_violations_keep_their_text(monkeypatch):
    # an exhaustive chunk is a fixed-size triple of ints, however many trees
    payloads = []
    check = H._tree_check

    def recording_check(payload):
        payloads.append(payload)
        return check(payload)

    # force one violation at n = 7, so its text is decoded from an index
    seq = (6, 0, 3, 3, 1)
    _forcing_offsets(monkeypatch, 7, seq)
    monkeypatch.setattr(H, "_tree_check", recording_check)
    r = H.audit_trees(7, workers=1)
    assert len(payloads) == 1 + 1 + 1 + 1 + 1 + 2 + 17
    assert all(len(p) == 3 and all(type(x) is int for x in p) for p in payloads)
    assert max(len(pickle.dumps(p)) for p in payloads) <= 32
    assert [(v.graph, v.claim, v.lhs, v.rhs) for v in r.violations] == [_tree_row(seq, 7)]


def test_sampled_trees_violations_keep_their_text(monkeypatch):
    # a sampled order is sent as packed bytes; force one violation at n = 9
    samples = list(G.prufer_sequences(9, H.TREE_CHUNK + 5, seed=3))
    seq = samples[H.TREE_CHUNK + 2]  # in the partial second chunk
    sampled = []
    check = H._tree_check

    def recording_check(payload):
        if payload[0] == 9:
            sampled.append(payload)
        return check(payload)

    _forcing_offsets(monkeypatch, 9, seq)
    monkeypatch.setattr(H, "_tree_check", recording_check)
    r = H.audit_trees(9, samples=len(samples), seed=3, workers=1)
    assert [len(p) for p in sampled] == [2, 2]
    assert [len(data) for _, data in sampled] == [7 * H.TREE_CHUNK, 7 * 5]
    assert b"".join(data for _, data in sampled) == bytes(x for q in samples for x in q)
    assert [(v.graph, v.claim, v.lhs, v.rhs) for v in r.violations] == [_tree_row(seq, 9)]
    assert r.instances_checked == r.extra["exhaustive_instances"] + len(samples)


def _record_pool_starts(monkeypatch, cpus):
    """Replace the pool by an in-process stub, fake cpu_count and start with
    no live pool (monkeypatch puts back whichever pool was live before);
    returns the stubs in the order they were started."""
    started = []

    class RecordingPool:
        def __init__(self, processes):
            self.processes, self.terminated = processes, False
            started.append(self)

        def imap(self, worker, payloads, chunksize):
            return map(worker, payloads)

        def terminate(self):
            self.terminated = True

    monkeypatch.setattr(H, "Pool", RecordingPool)
    monkeypatch.setattr(H, "_pool", None)
    monkeypatch.setattr(H.os, "cpu_count", lambda: cpus)
    return started


def _starts(started) -> list[tuple[int, bool]]:
    return [(pool.processes, pool.terminated) for pool in started]


def test_map_instances_clamps_workers_to_cpu_count(monkeypatch):
    started = _record_pool_starts(monkeypatch, 2)
    assert list(H._map_instances(abs, [-1, -2, 3], 10**6)) == [1, 2, 3]
    assert list(H._map_instances(abs, [-4, -6], None)) == [4, 6]
    assert _starts(started) == [(2, False)]
    monkeypatch.setattr(H.os, "cpu_count", lambda: 1)
    assert list(H._map_instances(abs, [-5, -7], 64)) == [5, 7]
    assert _starts(started) == [(2, False)]


def test_map_instances_starts_no_idle_processes(monkeypatch):
    started = _record_pool_starts(monkeypatch, 2)

    def payloads(k):
        # a generator, as the campaigns pass it: it can be read only once
        yield from range(-1, -k - 1, -1)

    assert list(H._map_instances(abs, payloads(1), 2)) == [1]
    assert list(H._map_instances(abs, payloads(0), 2)) == []
    assert started == []
    assert list(H._map_instances(abs, payloads(2), 2)) == [1, 2]
    assert list(H._map_instances(abs, payloads(5), 2)) == [1, 2, 3, 4, 5]
    assert _starts(started) == [(2, False)]
    # another process count terminates the live pool before it starts one
    monkeypatch.setattr(H.os, "cpu_count", lambda: 4)
    assert list(H._map_instances(abs, payloads(3), None)) == [1, 2, 3]
    assert _starts(started) == [(2, True), (3, False)]
    assert H._pool == (3, started[1])


def test_run_all_starts_one_pool(monkeypatch):
    started = _record_pool_starts(monkeypatch, 2)
    assert all(r.status == "pass" for r in H.run_all(5, workers=2))
    assert _starts(started) == [(2, False)]


def test_a_call_left_early_drops_its_pool(monkeypatch):
    started = _record_pool_starts(monkeypatch, 2)
    with pytest.raises(TypeError):
        list(H._map_instances(abs, [-1, "not a number", 3], 2))
    assert _starts(started) == [(2, True)] and H._pool is None
    results = H._map_instances(abs, [-1, -2, -3], 2)
    assert next(results) == 1
    results.close()
    assert _starts(started) == [(2, True), (2, True)] and H._pool is None


def test_a_campaign_that_raises_in_a_worker_drops_the_pool(monkeypatch):
    monkeypatch.setattr(H.os, "cpu_count", lambda: 2)  # a real pool, also on one core
    serial = _strip_runtime(H.audit_bounds(4, workers=1))
    with pytest.raises(AttributeError):
        H._pool_campaign("bounds", {"max_n": 4}, [G.path(2), "not a graph", G.path(3)],
                         H._bounds_check, 2)
    assert H._pool is None
    assert _strip_runtime(H.audit_bounds(4, workers=2)) == serial
    assert H._pool[0] == 2


_POOL_LIFETIME = """
import multiprocessing
from oidrd import harness as H
for _ in range(2):
    assert H.audit_trees(4, workers=2).status == "pass"
print(*(p.pid for p in multiprocessing.active_children()))
"""


def test_the_pool_ends_with_its_process():
    # a running pool left to the interpreter's shutdown warns from Pool.__del__,
    # which -W error turns into "Exception ignored"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", _POOL_LIFETIME],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "Exception ignored" not in out.stderr
    pids = [int(pid) for pid in out.stdout.split()]
    # one core runs the campaign in-process and starts no pool
    assert len(pids) == (2 if (os.cpu_count() or 1) > 1 else 0)
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_map_instances_streams_results():
    # on the serial path the first result comes before the second payload is read
    def payloads():
        yield -1
        raise AssertionError("read the second payload before the first result was taken")

    assert next(H._map_instances(abs, payloads(), 1)) == 1


@pytest.mark.parametrize("workers", [0, -2])
def test_map_instances_rejects_workers_below_one(monkeypatch, workers):
    started = _record_pool_starts(monkeypatch, 2)
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        H._map_instances(abs, [-1, -2, 3], workers)
    assert started == []


def test_forced_ones_campaign_default():
    r = H.audit_forced_ones()
    assert r.status == "pass"
    assert r.extra["gamma_oidr"] == 9
    assert r.extra["all_optima_have_v1"] is True


def test_forced_ones_reports_non_forced_graphs():
    # a path admits an optimum with no 1s, so the expectation must flip
    r = H.audit_forced_ones(G.path(3), expected_value=3, expect_all_v1_nonempty=False)
    assert r.status == "pass"
    assert r.extra["all_optima_have_v1"] is False


def test_sharpness_campaign():
    r = H.audit_sharpness_h()
    assert r.status == "pass"
    assert r.extra == {"gamma_oidr": 14, "beta": 8, "gamma": 6}


def test_sharpness_refuses_a_large_t_before_building_m():
    # every block has at least 5 vertices, so t = 10**15 is refused by count
    with pytest.raises(ValueError, match="capped at 18 vertices, got 5000000000000000"):
        H.audit_sharpness_h(10**15)


def test_reports_identical_across_worker_counts():
    # the second parallel run of each campaign reuses the pool the first left alive
    campaigns = [
        lambda workers: H.audit_bounds(4, workers=workers),
        lambda workers: H.audit_characterization(4, n7_samples=5, seed=3, workers=workers),
        lambda workers: H.audit_reduction(5, samples_n5=10, seed=3, workers=workers),
        lambda workers: H.audit_trees(9, samples=2000, seed=3, workers=workers),
    ]
    for campaign in campaigns:
        serial = _strip_runtime(campaign(1))
        for _ in range(2):
            assert _strip_runtime(campaign(2)) == serial


def test_seed_recorded_and_respected():
    a = H.audit_characterization(3, n7_samples=5, seed=1, workers=1)
    b = H.audit_characterization(3, n7_samples=5, seed=1, workers=1)
    assert a.params["seed"] == 1
    assert _strip_runtime(a) == _strip_runtime(b)


def test_report_serialization_round_trip():
    r = H.audit_bounds(3, workers=1)
    again = H.AuditReport.from_json(r.to_json())
    assert again.to_json() == r.to_json()
    bad = r.to_dict()
    bad["status"] = "fail"
    with pytest.raises(ValueError, match="inconsistent"):
        H.AuditReport.from_dict(bad)


def test_status_reflects_violations():
    r = H.audit_forced_ones(G.path(3), expected_value=99, expect_all_v1_nonempty=None)
    assert r.status == "fail"
    assert r.violations[0].claim == "gamma_oidr_value"
    again = H.AuditReport.from_json(r.to_json())
    assert again.status == "fail"


def test_csv_summary():
    reports = [H.audit_bounds(3, workers=1), H.audit_sharpness_h()]
    text = H.csv_summary(reports)
    lines = text.strip().splitlines()
    assert lines[0] == "campaign,instances_checked,violations,runtime_ms,status"
    assert len(lines) == 3
    assert lines[1].startswith("bounds,") and lines[1].endswith(",pass")


def _pinned_reports():
    for workers in (1, 2):
        yield from (H.audit_bounds(n, workers=workers) for n in range(2, 6))
        yield from (H.audit_characterization(n, n7_samples=s, workers=workers)
                    for n in range(3, 6) for s in (0, 7))
        yield from (H.audit_reduction(n, samples_n5=9, workers=workers) for n in range(1, 6))
        yield from (H.audit_trees(n, workers=workers) for n in range(1, 8))
    yield H.audit_forced_ones(G.path(3), expected_value=99, expect_all_v1_nonempty=None)
    yield H.audit_sharpness_h()


def test_campaign_reports_are_pinned():
    # sha256 of the reports' JSON with runtime_ms zeroed, recorded before the
    # campaigns shared one runner; any change to a report's content moves it
    text = json.dumps([dict(r.to_dict(), runtime_ms=0) for r in _pinned_reports()],
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b66f5f477816df130a5ad7e956261eaf6c56565a350858b30b8d4adfda56a21f")


def _rows_digest(report) -> tuple:
    rows = [[v.graph, v.claim, v.lhs, v.rhs] for v in report.violations]
    claims = Counter(claim for _, claim, _, _ in rows)
    return dict(claims), hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _count_exact_solves(monkeypatch) -> list:
    calls = []
    solve = H.solve_oidrd
    monkeypatch.setattr(H, "solve_oidrd", lambda g: calls.append(g) or solve(g))
    return calls


def test_passing_checks_compute_no_gamma_oidr(monkeypatch):
    # each claim is decided by a search below its bound and, for 3 beta, by
    # the cover labeling; only a failed claim asks for the exact value
    calls = _count_exact_solves(monkeypatch)
    assert H.audit_bounds(5, workers=1).status == "pass"
    assert H.audit_characterization(5, n7_samples=20, workers=1).status == "pass"
    assert calls == []


# the rows of each patched campaign, as (claim counts, sha256 of the rows'
# JSON), recorded while both checks still computed gamma_oidR for every graph
_PATCHED_ROWS = {
    "classify": ({"small_value_class": 15, "anchor_witness": 12},
                 "f3265c479894e02e559dd051ddfb921f7460094ca4aa684b559d92078749b1d3"),
    "gamma": ({"lower_max_gamma_2alpha_over_delta_plus_beta": 103},
              "24f0cd76815f552c2dcd0d73fd5407e1e0ffb5e740eeb1e3919aedea4ba541e1"),
    "cover": ({}, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "cover_and_value": ({"upper_3beta": 769},
                        "48f9c5d57b3d82bf4784c436d6777ffc44ac54692114b4fe3480c92df055c239"),
}


def test_violation_rows_carry_the_exact_value_when_a_class_is_wrong(monkeypatch):
    # OTHER on every C4 (gamma_oidR 4), found below 6; FOUR on every C5
    # (gamma_oidR 6), with no labeling below 6, so its row asks for the value
    classify = H.classify

    def misclassify(g):
        if g.m == g.n and g.max_degree == 2 and g.n in (4, 5):
            return ClassifyResult(OTHER if g.n == 4 else FOUR)
        return classify(g)

    monkeypatch.setattr(H, "classify", misclassify)
    calls = _count_exact_solves(monkeypatch)
    r = H.audit_characterization(5, n7_samples=0, workers=1)
    assert _rows_digest(r) == _PATCHED_ROWS["classify"]
    assert len(calls) == 12
    assert {v.rhs for v in r.violations if v.claim == "small_value_class"} == {4, 6}


def test_violation_rows_carry_the_exact_value_below_a_raised_lower_bound(monkeypatch):
    solve_gamma = H.solve_gamma
    monkeypatch.setattr(H, "solve_gamma", lambda g: replace(solve_gamma(g),
                                                            value=solve_gamma(g).value + 1))
    assert _rows_digest(H.audit_bounds(5, workers=1)) == _PATCHED_ROWS["gamma"]


def test_a_failed_cover_labeling_falls_back_to_the_exact_value(monkeypatch):
    monkeypatch.setattr(H, "is_oidrd", lambda g, f: False)
    calls = _count_exact_solves(monkeypatch)
    r = H.audit_bounds(5, workers=1)
    assert _rows_digest(r) == _PATCHED_ROWS["cover"]
    assert len(calls) == r.instances_checked
    # an exact value past 3 beta then gives the upper row
    solve = H.solve_oidrd
    monkeypatch.setattr(H, "solve_oidrd", lambda g: replace(solve(g), value=solve(g).value + g.n))
    assert _rows_digest(H.audit_bounds(5, workers=1)) == _PATCHED_ROWS["cover_and_value"]


def test_sandwich_needs_an_edge():
    for g in (G.empty(1), G.empty(2)):
        with pytest.raises(ValueError, match="need a graph with an edge"):
            H.sandwich(g)
    with pytest.raises(ValueError, match="need a graph with an edge"):
        H._bounds_check(G.empty(3))


def test_integer_lower_ceiling_is_the_ceiling_of_the_rational_bound():
    # the bounds check searches below this integer; sandwich reports the
    # rational bound, whose ceiling it must be, and gamma_oidR lies between
    for n in range(2, 7):
        for g in G.enumerate_connected_graphs(n):
            s = H.sandwich(g)
            assert H._lower_ceiling(g, s.gamma, s.alpha, s.beta) == ceil(s.lower), (
                G.to_edge_list_text(g))
            assert ceil(s.lower) <= s.gamma_oidr <= s.upper


def test_run_all_samples_n7_at_the_characterization_default(monkeypatch):
    # run_all takes the n = 7 sample count from audit_characterization's
    # signature, so a new default reaches `audit --all` too
    seen = []

    def characterization(max_n, *, n7_samples=11, seed=0, workers=None):
        seen.append((max_n, n7_samples))

    for name in ("audit_bounds", "audit_reduction", "audit_trees"):
        monkeypatch.setattr(H, name, lambda *args, **kwargs: None)
    monkeypatch.setattr(H, "audit_forced_ones", lambda: None)
    monkeypatch.setattr(H, "audit_sharpness_h", lambda: None)
    monkeypatch.setattr(H, "audit_characterization", characterization)
    for max_n in (3, 6, 7, 10):
        H.run_all(max_n, workers=1)
    assert seen == [(3, 0), (6, 0), (6, 11), (6, 11)]
