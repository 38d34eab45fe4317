"""Batch verification campaigns tying the solver, formulas, recognizers and
reduction to the claims they certify, with machine-readable audit reports.

Campaigns are deterministic given (campaign, parameters, seed); sample seeds
are explicit inputs recorded in the report.  Instance work may fan out to a
process pool; aggregation is order-independent (violations are sorted
canonically before emission).
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from multiprocessing import Pool

from . import graphs as G
from .characterize import OTHER, classify, verify_classification
from .reduction import verify_identity
from .solver import (
    _forest_routes,
    enumerate_optimal_oidrd,
    solve_alpha,
    solve_beta,
    solve_gamma,
    solve_oidrd,
)


@dataclass(frozen=True)
class Violation:
    graph: str
    claim: str
    lhs: object
    rhs: object


@dataclass
class AuditReport:
    campaign: str
    instances_checked: int
    violations: list[Violation]
    runtime_ms: int
    params: dict
    notes: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "pass" if not self.violations else "fail"

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "instances_checked": self.instances_checked,
            "violations": [
                {"graph": v.graph, "claim": v.claim, "lhs": v.lhs, "rhs": v.rhs}
                for v in self.violations
            ],
            "runtime_ms": self.runtime_ms,
            "status": self.status,
            "params": self.params,
            "notes": self.notes,
            "extra": self.extra,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "AuditReport":
        report = cls(
            campaign=d["campaign"],
            instances_checked=d["instances_checked"],
            violations=[Violation(v["graph"], v["claim"], v["lhs"], v["rhs"])
                        for v in d["violations"]],
            runtime_ms=d["runtime_ms"],
            params=d["params"],
            notes=list(d.get("notes", [])),
            extra=dict(d.get("extra", {})),
        )
        if d.get("status") != report.status:
            raise ValueError("inconsistent report: status does not match violations")
        return report

    @classmethod
    def from_json(cls, text: str) -> "AuditReport":
        return cls.from_dict(json.loads(text))


def csv_summary(reports: list[AuditReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["campaign", "instances_checked", "violations", "runtime_ms", "status"])
    for r in reports:
        w.writerow([r.campaign, r.instances_checked, len(r.violations), r.runtime_ms, r.status])
    return buf.getvalue()


def _payload(g: G.Graph) -> tuple:
    return g.n, tuple(g.edges())


def _graph(payload: tuple) -> G.Graph:
    return G.build(payload[0], payload[1])


def _violations(g: G.Graph, items: list[tuple]) -> list[tuple]:
    """(graph text, claim, lhs, rhs) per failed claim.  Workers render the
    graph text only here, so an instance with no violation sends none back."""
    if not items:
        return []
    text = G.to_edge_list_text(g)
    return [(text, *item) for item in items]


def _map_instances(worker, payloads, workers: int | None) -> list:
    """Run worker over an iterable of payloads, preserving order, on at most
    os.cpu_count() processes."""
    cpus = os.cpu_count() or 1
    workers = cpus if workers is None else min(workers, cpus)
    if workers <= 1:
        return [worker(p) for p in payloads]
    with Pool(workers) as pool:
        return list(pool.imap(worker, payloads, chunksize=64))


def _report(campaign: str, params: dict, instances: int, violations: list[Violation],
            t0: float, notes: list[str] | None = None, extra: dict | None = None) -> AuditReport:
    violations = sorted(violations, key=lambda v: (v.graph, v.claim, str(v.lhs), str(v.rhs)))
    return AuditReport(campaign, instances, violations, int((time.monotonic() - t0) * 1000),
                       params, notes or [], extra or {})


# ---------------------------------------------------------------------------
# bounds: max{gamma, 2 alpha / Delta} + beta <= gamma_oidR <= 3 beta
# ---------------------------------------------------------------------------


def _bounds_check(payload: tuple) -> tuple:
    g = _graph(payload)
    alpha = solve_alpha(g).value
    beta = g.n - alpha
    gamma = solve_gamma(g).value
    goidr = solve_oidrd(g).value
    items = []
    if goidr > 3 * beta:
        items.append(("upper_3beta", goidr, 3 * beta))
    # the lower bound is compared as an exact rational, never floating point
    lower = max(Fraction(gamma), Fraction(2 * alpha, g.max_degree)) + beta
    if lower > goidr:
        items.append(("lower_max_gamma_2alpha_over_delta_plus_beta",
                      [lower.numerator, lower.denominator], goidr))
    return _violations(g, items)


def audit_bounds(max_n: int, *, workers: int | None = None) -> AuditReport:
    """Both sandwich bounds on every connected graph of order 2..max_n."""
    if not 2 <= max_n <= 6:
        raise ValueError("audit_bounds supports 2 <= max_n <= 6")
    t0 = time.monotonic()
    payloads = (_payload(g) for n in range(2, max_n + 1)
                for g in G.enumerate_connected_graphs(n))
    results = _map_instances(_bounds_check, payloads, workers)
    violations = [Violation(*v) for vs in results for v in vs]
    return _report("bounds", {"max_n": max_n}, len(results), violations, t0)


# ---------------------------------------------------------------------------
# characterization: value class from recognizers vs the solver
# ---------------------------------------------------------------------------

_CLASS_VALUE = {"THREE": 3, "FOUR": 4, "FIVE": 5}


def _characterization_check(payload: tuple) -> tuple:
    g = _graph(payload)
    res = classify(g)
    value = solve_oidrd(g).value
    items = []
    expected = _CLASS_VALUE.get(res.value_class)
    if expected is None:
        if value <= 5:
            items.append(("small_value_class", res.value_class, value))
    elif value != expected:
        items.append(("small_value_class", res.value_class, value))
    if res.value_class != OTHER and not verify_classification(g, res):
        items.append(("anchor_witness", res.family, "re-verification failed"))
    return res.value_class, _violations(g, items)


def audit_characterization(max_n: int = 6, *, n7_samples: int = 300, seed: int = 0,
                           workers: int | None = None) -> AuditReport:
    """Biconditional check of the small-value characterization: exhaustive on
    connected graphs with 3..max_n vertices, plus seeded samples at n = 7."""
    if not 3 <= max_n <= 6:
        raise ValueError("audit_characterization supports 3 <= max_n <= 6 exhaustive")
    t0 = time.monotonic()

    def payloads():
        for n in range(3, max_n + 1):
            for g in G.enumerate_connected_graphs(n):
                yield _payload(g)
        if n7_samples:
            for g in G.sample_connected_graphs(7, n7_samples, seed):
                yield _payload(g)

    results = _map_instances(_characterization_check, payloads(), workers)
    violations = [Violation(*v) for _, vs in results for v in vs]
    counts: dict[str, int] = {}
    for value_class, _ in results:
        counts[value_class] = counts.get(value_class, 0) + 1
    return _report("characterization",
                   {"max_n": max_n, "n7_samples": n7_samples, "seed": seed},
                   len(results), violations, t0,
                   extra={"class_counts": counts,
                          "exhaustive_instances": len(results) - n7_samples})


# ---------------------------------------------------------------------------
# reduction: gamma_oidR(G') = 4n - alpha(G)
# ---------------------------------------------------------------------------


def _reduction_check(payload: tuple) -> tuple:
    g = _graph(payload)
    rep = verify_identity(g)
    items = []
    notes = []
    if not rep.equal:
        if g.max_degree <= 3:
            items.append(("gadget_identity", rep.lhs, rep.rhs))
        else:
            # outside the planar low-degree class the identity is stated for:
            # informational only
            notes.append(f"identity failed at max degree {g.max_degree}: "
                         f"{rep.lhs} != {rep.rhs} for\n{G.to_edge_list_text(g)}")
    return _violations(g, items), notes


def audit_reduction(max_n: int = 5, *, samples_n5: int = 50, seed: int = 0,
                    workers: int | None = None) -> AuditReport:
    """Gadget identity on every labeled graph with up to min(max_n, 4)
    vertices, plus seeded connected samples at n = 5 with max degree 3."""
    if not 1 <= max_n <= 5:
        raise ValueError("audit_reduction supports 1 <= max_n <= 5")
    t0 = time.monotonic()

    def payloads():
        for n in range(1, min(max_n, 4) + 1):
            for g in G.enumerate_graphs(n):
                yield _payload(g)
        if max_n >= 5 and samples_n5:
            for g in G.sample_connected_graphs(5, samples_n5, seed, max_deg=3):
                yield _payload(g)

    results = _map_instances(_reduction_check, payloads(), workers)
    violations = [Violation(*v) for vs, _ in results for v in vs]
    notes = [n for _, ns in results for n in ns]
    return _report("reduction", {"max_n": max_n, "samples_n5": samples_n5, "seed": seed},
                   len(results), violations, t0, notes=notes)


# ---------------------------------------------------------------------------
# trees: gamma_oidR(T) >= 2 beta(T) + 1
# ---------------------------------------------------------------------------

TREE_EXHAUSTIVE_CAP = 8


def _tree_check(payload: tuple) -> tuple:
    # the linear-time forest routes, one traversal order for both; tests
    # cross-check them against the engine
    g = _graph(payload)
    beta, goidr = _forest_routes(g)
    items = []
    if 2 * beta + 1 > goidr:
        items.append(("tree_lower_bound", 2 * beta + 1, goidr))
    return goidr == 2 * beta + 1, _violations(g, items)


def audit_trees(max_n: int = 10, *, samples: int = 10000, seed: int = 0,
                workers: int | None = None) -> AuditReport:
    """Tree lower bound on all labeled trees up to min(max_n, 8) vertices,
    seeded samples beyond, plus tightness of every even path up to max_n."""
    if not 1 <= max_n <= 10:
        raise ValueError("audit_trees supports 1 <= max_n <= 10")
    t0 = time.monotonic()
    exhaustive = sum(1 if n <= 2 else n ** (n - 2)
                     for n in range(1, min(max_n, TREE_EXHAUSTIVE_CAP) + 1))

    def payloads():
        for n in range(1, min(max_n, TREE_EXHAUSTIVE_CAP) + 1):
            for g in G.enumerate_trees(n):
                yield _payload(g)
        for n in range(TREE_EXHAUSTIVE_CAP + 1, max_n + 1):
            for g in G.sample_trees(n, samples, seed):
                yield _payload(g)

    results = _map_instances(_tree_check, payloads(), workers)
    violations = [Violation(*v) for _, vs in results for v in vs]
    equality_cases = sum(1 for eq, _ in results if eq)
    # even paths stay on the branch-and-bound engine: an anchor for the forest
    # routes inside the campaign itself
    for n in range(2, max_n + 1, 2):
        p = G.path(n)
        goidr = solve_oidrd(p).value
        beta = solve_beta(p).value
        if goidr != 2 * beta + 1:
            violations.append(Violation(G.to_edge_list_text(p), "even_path_tightness",
                                        goidr, 2 * beta + 1))
    return _report("trees", {"max_n": max_n, "samples": samples, "seed": seed},
                   len(results), violations, t0,
                   extra={"equality_cases": equality_cases, "exhaustive_instances": exhaustive})


# ---------------------------------------------------------------------------
# nonempty V1: some graphs force 1s in every optimal labeling
# ---------------------------------------------------------------------------


def audit_forced_ones(g: G.Graph | None = None, *, expected_value: int | None = 9,
                  expect_all_v1_nonempty: bool | None = True) -> AuditReport:
    """Enumerate all optimal OIDRD labelings of g (default K_{5,5}) and check
    the V1 classes; expectations default to the K_{5,5} exemplar."""
    t0 = time.monotonic()
    if g is None:
        g = G.complete_bipartite(5, 5)
    text = G.to_edge_list_text(g)
    optima = list(enumerate_optimal_oidrd(g))
    value = sum(optima[0].values)
    all_v1 = all(any(x == 1 for x in f.values) for f in optima)
    violations = []
    if expected_value is not None and value != expected_value:
        violations.append(Violation(text, "gamma_oidr_value", value, expected_value))
    if expect_all_v1_nonempty is not None and all_v1 != expect_all_v1_nonempty:
        violations.append(Violation(text, "every_optimum_has_v1", all_v1, expect_all_v1_nonempty))
    return _report("forced_ones", {"n": g.n, "m": g.m}, len(optima), violations, t0,
                   extra={"gamma_oidr": value, "optimal_count": len(optima),
                          "all_optima_have_v1": all_v1})


# ---------------------------------------------------------------------------
# sharpness construction for the lower bound gamma + beta
# ---------------------------------------------------------------------------


def audit_sharpness_h(t: int = 3, m: tuple[int, ...] | None = None) -> AuditReport:
    """Solve the sharpness graph H and compare gamma_oidR, beta and gamma with
    their predicted closed forms; equality gamma + beta = gamma_oidR must hold."""
    if m is None:
        m = (2,) * t
    m = tuple(m)
    if len(m) != t:
        raise ValueError("sharpness audit needs one m_i per block")
    n_total = sum(3 + mi for mi in m)
    if n_total > 18:
        raise ValueError(f"sharpness audit capped at 18 vertices, got {n_total}")
    t0 = time.monotonic()
    h = G.sharpness_h(m)
    text = G.to_edge_list_text(h)
    goidr = solve_oidrd(h).value
    beta = solve_beta(h).value
    gamma = solve_gamma(h).value
    violations = []
    if goidr != 4 * t + ceil(t / 2):
        violations.append(Violation(text, "sharpness_gamma_oidr", goidr, 4 * t + ceil(t / 2)))
    if beta != 3 * t - t // 2:
        violations.append(Violation(text, "sharpness_beta", beta, 3 * t - t // 2))
    if gamma != 2 * t:
        violations.append(Violation(text, "sharpness_gamma", gamma, 2 * t))
    if gamma + beta != goidr:
        violations.append(Violation(text, "sharpness_lower_bound_equality", gamma + beta, goidr))
    return _report("sharpness_h", {"t": t, "m": list(m)}, 1, violations, t0,
                   extra={"gamma_oidr": goidr, "beta": beta, "gamma": gamma})


def run_all(max_n: int = 5, *, seed: int = 0, workers: int | None = None) -> list[AuditReport]:
    """Composite audit; every campaign is capped consistently with max_n."""
    reports = [
        audit_bounds(min(max(max_n, 2), 6), workers=workers),
        audit_characterization(min(max(max_n, 3), 6),
                               n7_samples=300 if max_n >= 7 else 0,
                               seed=seed, workers=workers),
        audit_reduction(min(max_n, 5), seed=seed, workers=workers),
        audit_trees(min(max_n, 10), seed=seed, workers=workers),
        audit_forced_ones(),
        audit_sharpness_h(),
    ]
    return reports


CAMPAIGNS = {
    "bounds": audit_bounds,
    "characterization": audit_characterization,
    "reduction": audit_reduction,
    "trees": audit_trees,
    "forced_ones": audit_forced_ones,
    "sharpness": audit_sharpness_h,
}
