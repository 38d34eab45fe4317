import pytest

from oidrd import graphs as G
from oidrd import harness as H
from oidrd import solver as S


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


def test_violations_carry_the_graph_text(monkeypatch):
    # workers send the graph text back only with a violation; force one per tree
    monkeypatch.setattr(H, "_forest_routes", lambda g: (S.tree_beta(g), 0))
    r = H.audit_trees(3, workers=1)
    assert r.status == "fail" and r.extra["equality_cases"] == 0
    trees = [G.to_edge_list_text(t) for n in (1, 2, 3) for t in G.enumerate_trees(n)]
    assert sorted(v.graph for v in r.violations) == sorted(trees)
    assert {v.claim for v in r.violations} == {"tree_lower_bound"}



def test_map_instances_clamps_workers_to_cpu_count(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, worker, payloads, chunksize):
            return map(worker, payloads)

    monkeypatch.setattr(H, "Pool", RecordingPool)
    monkeypatch.setattr(H.os, "cpu_count", lambda: 2)
    assert H._map_instances(abs, [-1, -2, 3], 10**6) == [1, 2, 3]
    assert H._map_instances(abs, [-4], None) == [4]
    assert started == [2, 2]
    monkeypatch.setattr(H.os, "cpu_count", lambda: 1)
    assert H._map_instances(abs, [-5], 64) == [5]
    assert started == [2, 2]


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


def test_reports_identical_across_worker_counts():
    serial = H.audit_bounds(4, workers=1)
    parallel = H.audit_bounds(4, workers=2)
    assert _strip_runtime(serial) == _strip_runtime(parallel)
    s2 = H.audit_characterization(4, n7_samples=5, seed=3, workers=1)
    p2 = H.audit_characterization(4, n7_samples=5, seed=3, workers=2)
    assert _strip_runtime(s2) == _strip_runtime(p2)


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
