"""Batch verification campaigns tying the solver, formulas, recognizers and
reduction to the claims they certify, with machine-readable audit reports.

Campaigns are deterministic given (campaign, parameters, seed); sample seeds
are explicit inputs recorded in the report.  Instance work may fan out to a
process pool; aggregation is order-independent (violations are sorted
canonically before emission).  Pool workers send a graph's text back only
with a violation.  The trees campaign sends its workers chunks of Prufer
sequences in two shapes: an exhaustive order as (n, first, count), a range
of lexicographic indices that the worker walks like an odometer, and a
sampled order as (n, bytes), the sequences packed one byte per entry.  Each
worker scores a sequence while it decodes it, so no tree is built as a graph
unless it violates the bound; the other campaigns send each Graph their
enumerator or sampler built (pickled as its order, neighbour masks and edge
count), and the worker checks it as it is.

The bounds and characterization claims are inequalities about gamma_oidR,
so their checks decide them without computing it.  gamma_oidR is an
integer, so it is below a bound b iff some labeling weighs less than
ceil(b), and one search from that incumbent (solver._solve_below) answers
that and returns the canonical optimum when it finds one.  The
characterization leaves a graph OTHER only if gamma_oidR >= 6, which the
search below 6 certifies; the bound 3 beta is certified by a labeling, 3 on
a minimum cover and 0 elsewhere.  Each check's docstring has the argument.
A violation row still carries the exact gamma_oidR: the search's optimum,
or, when nothing lies below the bound, the value of solve_oidrd.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from math import ceil
from multiprocessing import Pool
from typing import Iterator

from . import graphs as G
from .characterize import CLASS_VALUE, OTHER, classify, verify_classification
from .forest import _forest_routes, _prufer_offsets
from .labeling import is_oidrd
from .reduction import verify_identity
from .solver import (
    _solve_below,
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


def _violations(g: G.Graph, items: list[tuple]) -> list[tuple]:
    """(graph text, claim, lhs, rhs) per failed claim.  Workers render the
    graph text only here, so an instance with no violation sends none back."""
    if not items:
        return []
    text = G.to_edge_list_text(g)
    return [(text, *item) for item in items]


def _map_instances(worker, payloads, workers: int | None, *, chunksize: int = 64) -> Iterator:
    """Worker's results over an iterable of payloads, in order and as they
    arrive, from at most os.cpu_count() processes and no more than there are
    payloads, chunksize payloads per pool task.  Only the first `workers`
    payloads are taken ahead to count them; the rest stay a lazy iterator.
    workers None means every core; below 1 it raises ValueError at the call."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cpus = os.cpu_count() or 1
    workers = cpus if workers is None else min(workers, cpus)
    if workers > 1:
        payloads = iter(payloads)
        head = list(islice(payloads, workers))
        workers = len(head)
        payloads = chain(head, payloads)
    if workers <= 1:
        return map(worker, payloads)
    return _pooled(worker, payloads, workers, chunksize)


def _pooled(worker, payloads, workers: int, chunksize: int) -> Iterator:
    with Pool(workers) as pool:
        yield from pool.imap(worker, payloads, chunksize=chunksize)


def _report(campaign: str, params: dict, instances: int, violations: list[Violation],
            t0: float, extra: dict | None = None) -> AuditReport:
    violations = sorted(violations, key=lambda v: (v.graph, v.claim, str(v.lhs), str(v.rhs)))
    return AuditReport(campaign, instances, violations, int((time.monotonic() - t0) * 1000),
                       params, extra=extra or {})


# the max_n range of each pool campaign; run_all clamps into it
MAX_N = {"bounds": (2, 6), "characterization": (3, 6), "reduction": (1, 5), "trees": (1, 10)}


def _pool_campaign(name, params, payloads, check, workers, *, extra=None, chunksize=64,
                   anchors=()) -> AuditReport:
    """Check max_n against MAX_N and each *samples* count against 0, map check over
    payloads, and fold each (instances, violations, Counter.update input) as it
    arrives, anchors last, run here after the pool; extra(instances, tally) gives extra."""
    lo, hi = MAX_N[name]
    if not lo <= params["max_n"] <= hi:
        raise ValueError(f"audit_{name} supports {lo} <= max_n <= {hi}")
    for key, value in params.items():
        if "samples" in key and value < 0:
            raise ValueError(f"{key} must be at least 0, got {value}")
    t0 = time.monotonic()
    instances, violations, tally = 0, [], Counter()
    results = chain(_map_instances(check, payloads, workers, chunksize=chunksize), anchors)
    for count, vs, t in results:
        instances += count
        violations += (Violation(*v) for v in vs)
        tally.update(t)
    return _report(name, params, instances, violations, t0, extra and extra(instances, tally))


# ---------------------------------------------------------------------------
# bounds: max{gamma, 2 alpha / Delta} + beta <= gamma_oidR <= 3 beta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sandwich:
    """The terms of both sandwich bounds on one graph; the lower bound is an
    exact rational, never floating point."""

    gamma: int
    alpha: int
    beta: int
    two_alpha_over_delta: Fraction
    lower: Fraction
    upper: int
    gamma_oidr: int


def _sandwich_terms(g: G.Graph) -> tuple[tuple[int, ...], int, int, int]:
    """The values of alpha's witness, the lex-smallest maximum independent
    set, and gamma, alpha and beta of g.  Raises ValueError unless g has an
    edge, since 2 alpha / Delta needs Delta >= 1."""
    if not g.m:
        raise ValueError(f"the sandwich bounds need a graph with an edge, got none on "
                         f"{g.n} vertices")
    a = solve_alpha(g)
    return a.witness.values, solve_gamma(g).value, a.value, g.n - a.value


def _rational_lower(g: G.Graph, gamma: int, alpha: int, beta: int) -> tuple[Fraction, Fraction]:
    """2 alpha / Delta and the lower bound max{gamma, 2 alpha / Delta} + beta."""
    frac = Fraction(2 * alpha, g.max_degree)
    return frac, max(Fraction(gamma), frac) + beta


def _lower_ceiling(g: G.Graph, gamma: int, alpha: int, beta: int) -> int:
    """The ceiling of the lower bound, in integers: gamma and beta are
    integers, and -(-x // d) is ceil(x / d) for d > 0."""
    return max(gamma, -(-2 * alpha // g.max_degree)) + beta


def sandwich(g: G.Graph) -> Sandwich:
    """Both sandwich bounds on g, which has an edge, and its exact gamma_oidR."""
    _, gamma, alpha, beta = _sandwich_terms(g)
    return Sandwich(gamma, alpha, beta, *_rational_lower(g, gamma, alpha, beta), 3 * beta,
                    solve_oidrd(g).value)


def _bounds_check(g: G.Graph) -> tuple:
    """Both sandwich bounds on the connected graph g, n >= 2, each decided
    without computing gamma_oidR unless its check fails.

    Upper: label the minimum cover C that complements alpha's witness 3 and
    the rest 0.  That weighs 3 beta, and on a connected graph with n >= 2 it
    is an OIDRD labeling: the 0-class, the complement of a cover, is
    independent, and each of its vertices has a neighbor, all in C and
    labeled 3.  So gamma_oidR <= 3 beta holds once is_oidrd accepts it.
    Lower: gamma_oidR is an integer, so it is below the rational lower bound
    iff some labeling weighs less than its ceiling, which one search from
    that incumbent decides.

    A violation row carries the exact gamma_oidR: the search returns the
    optimum when it finds a labeling, and a cover labeling that fails its
    check falls back to solve_oidrd, so the rows are those the exact value
    would give.  Only a lower-bound row builds the rational bound."""
    independent, gamma, alpha, beta = _sandwich_terms(g)
    below = _solve_below("gamma_oidr", g, _lower_ceiling(g, gamma, alpha, beta))
    cover = tuple(3 - 3 * x for x in independent)
    items = []
    if not is_oidrd(g, cover):
        value = (solve_oidrd(g) if below is None else below).value
        if value > 3 * beta:
            items.append(("upper_3beta", value, 3 * beta))
    if below is not None:
        _, lower = _rational_lower(g, gamma, alpha, beta)
        items.append(("lower_max_gamma_2alpha_over_delta_plus_beta",
                      [lower.numerator, lower.denominator], below.value))
    return 1, _violations(g, items), ()


def audit_bounds(max_n: int = 5, *, workers: int | None = None) -> AuditReport:
    """Both sandwich bounds on every connected graph of order 2..max_n."""
    graphs = (g for n in range(2, max_n + 1) for g in G.enumerate_connected_graphs(n))
    return _pool_campaign("bounds", {"max_n": max_n}, graphs, _bounds_check, workers)


# ---------------------------------------------------------------------------
# characterization: value class from recognizers vs the solver
# ---------------------------------------------------------------------------


def _characterization_check(g: G.Graph) -> tuple:
    """classify's value class against gamma_oidR, and the class's anchor
    witness, decided without computing gamma_oidR unless the class fails.

    The characterization names every connected graph with gamma_oidR in
    CLASS_VALUE (3, 4 or 5), so a graph it leaves OTHER must have
    gamma_oidR >= 6, one above the largest class value.  One search from
    that incumbent decides both sides of the biconditional: it finds a
    labeling iff gamma_oidR <= 5, and then returns the optimum, the value
    a class must equal; finding none certifies an OTHER graph.

    A violation row carries the exact gamma_oidR: the search's optimum, or
    for a class on a graph with no labeling below the incumbent, the value
    of solve_oidrd."""
    res = classify(g)
    expected = CLASS_VALUE.get(res.value_class)
    small = _solve_below("gamma_oidr", g, max(CLASS_VALUE.values()) + 1)
    items = []
    if small is None:
        if expected is not None:
            items.append(("small_value_class", res.value_class, solve_oidrd(g).value))
    elif small.value != expected:
        items.append(("small_value_class", res.value_class, small.value))
    if res.value_class != OTHER and not verify_classification(g, res):
        items.append(("anchor_witness", res.family, "re-verification failed"))
    return 1, _violations(g, items), (res.value_class,)


def audit_characterization(max_n: int = 6, *, n7_samples: int = 300, seed: int = 0,
                           workers: int | None = None) -> AuditReport:
    """Biconditional check of the small-value characterization: exhaustive on
    connected graphs with 3..max_n vertices, plus seeded samples at n = 7."""
    graphs = chain((g for n in range(3, max_n + 1) for g in G.enumerate_connected_graphs(n)),
                   G.sample_connected_graphs(7, n7_samples, seed))
    return _pool_campaign(
        "characterization", {"max_n": max_n, "n7_samples": n7_samples, "seed": seed},
        graphs, _characterization_check, workers,
        extra=lambda instances, tally: {"class_counts": dict(tally),
                                        "exhaustive_instances": instances - n7_samples})


# ---------------------------------------------------------------------------
# reduction: gamma_oidR(G') = 4n - alpha(G)
# ---------------------------------------------------------------------------


def _reduction_check(g: G.Graph) -> tuple:
    # the identity holds on every graph (see verify_identity), whatever its degree
    rep = verify_identity(g)
    return 1, _violations(g, [] if rep.equal else [("gadget_identity", rep.lhs, rep.rhs)]), ()


def audit_reduction(max_n: int = 5, *, samples_n5: int = 50, seed: int = 0,
                    workers: int | None = None) -> AuditReport:
    """Gadget identity on every labeled graph with up to min(max_n, 4)
    vertices, plus seeded connected samples at n = 5 with max degree 3."""
    sampled = G.sample_connected_graphs(5, samples_n5, seed, max_deg=3) if max_n >= 5 else ()
    graphs = chain((g for n in range(1, min(max_n, 4) + 1) for g in G.enumerate_graphs(n)),
                   sampled)
    return _pool_campaign("reduction", {"max_n": max_n, "samples_n5": samples_n5, "seed": seed},
                          graphs, _reduction_check, workers)


# ---------------------------------------------------------------------------
# trees: gamma_oidR(T) >= 2 beta(T) + 1
# ---------------------------------------------------------------------------

TREE_EXHAUSTIVE_CAP = 8
TREE_CHUNK = 1024  # Prufer sequences per pool payload


def _prufer_at(n: int, index: int) -> tuple[int, ...]:
    """The Prufer sequence at index in the lexicographic order on n vertices:
    index written in base n with max(n - 2, 0) digits."""
    k = max(n - 2, 0)
    return tuple(index // n ** (k - 1 - i) % n for i in range(k))


def _tree_check(payload: tuple) -> tuple:
    """The result for one chunk of Prufer sequences on n vertices, tallying
    equality cases.  An exhaustive chunk is (n, first, count): the count
    sequences from lexicographic index first on.  A sampled chunk is (n, data):
    its sequences packed n - 2 bytes each.  Both are scored by the one Prufer
    decoding loop, gamma_oidr - 2 beta per tree; tests cross-check it against
    the graph route and the engine.  Only a violation builds its tree, for
    the text and for (beta, gamma_oidr) from the graph route."""
    if len(payload) == 3:
        n, first, count = payload
        offsets = _prufer_offsets(n, _prufer_at(n, first), count)
        sequences = (_prufer_at(n, first + j) for j in range(count))  # read on a violation
    else:
        n, data = payload
        k = n - 2
        sequences = [data[i:i + k] for i in range(0, len(data), k)]
        offsets = [_prufer_offsets(n, seq, 1)[0] for seq in sequences]
    violations = []
    if min(offsets) < 1:
        for seq, offset in zip(sequences, offsets):
            if offset < 1:
                tree = G.prufer_decode(seq, n)
                beta, goidr = _forest_routes(tree)
                violations += _violations(tree, [("tree_lower_bound", 2 * beta + 1, goidr)])
    return len(offsets), violations, {"equality_cases": offsets.count(1)}


def _even_path_check(n: int) -> tuple:
    """Tightness of the even path P_n on the branch-and-bound engine: an anchor
    for the forest routes inside the campaign itself, counted as no tree."""
    p = G.path(n)
    lhs, rhs = solve_oidrd(p).value, 2 * solve_beta(p).value + 1
    return 0, _violations(p, [("even_path_tightness", lhs, rhs)] if lhs != rhs else []), ()


def audit_trees(max_n: int = 10, *, samples: int = 10000, seed: int = 0,
                workers: int | None = None) -> AuditReport:
    """Tree lower bound on all labeled trees up to min(max_n, 8) vertices,
    seeded samples beyond, plus tightness of every even path up to max_n.

    The pool receives the trees in chunks of up to TREE_CHUNK Prufer
    sequences and builds no graph unless a tree violates the bound.  An
    exhaustive order is sent as (n, first, count) index ranges, so no
    sequence is built here; a sampled order as (n, bytes), one byte per entry
    (max_n <= 10 keeps every entry below 256, and bytes() raises on any
    other)."""
    exhaustive = sum(n ** max(n - 2, 0) for n in range(1, min(max_n, TREE_EXHAUSTIVE_CAP) + 1))

    def payloads():
        for n in range(1, max_n + 1):
            if n <= TREE_EXHAUSTIVE_CAP:
                total = n ** max(n - 2, 0)
                for first in range(0, total, TREE_CHUNK):
                    yield n, first, min(TREE_CHUNK, total - first)
            else:
                seqs = G.prufer_sequences(n, samples, seed)
                while chunk := tuple(islice(seqs, TREE_CHUNK)):
                    yield n, bytes(chain.from_iterable(chunk))

    # one chunk per task: a campaign has only tens to hundreds of chunks
    return _pool_campaign(
        "trees", {"max_n": max_n, "samples": samples, "seed": seed}, payloads(), _tree_check,
        workers, chunksize=1, anchors=map(_even_path_check, range(2, max_n + 1, 2)),
        extra=lambda _, tally: {"equality_cases": tally["equality_cases"],
                                "exhaustive_instances": exhaustive})


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
    if m is None and 5 * t > 18:  # blocks of 3 + 2 vertices: refuse before building m
        raise ValueError(f"sharpness audit capped at 18 vertices, got {5 * t}")
    m = (2,) * t if m is None else tuple(m)
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
    """Every campaign, at max_n clamped into its MAX_N range (n = 7 samples past it)."""
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    cap = {name: min(max(max_n, lo), hi) for name, (lo, hi) in MAX_N.items()}
    # past the exhaustive range, audit_characterization's own n7_samples default
    sampled = {} if max_n > cap["characterization"] else {"n7_samples": 0}
    return [
        audit_bounds(cap["bounds"], workers=workers),
        audit_characterization(cap["characterization"], seed=seed, workers=workers, **sampled),
        audit_reduction(cap["reduction"], seed=seed, workers=workers),
        audit_trees(cap["trees"], seed=seed, workers=workers),
        audit_forced_ones(),
        audit_sharpness_h(),
    ]


CAMPAIGNS = {
    "bounds": audit_bounds,
    "characterization": audit_characterization,
    "reduction": audit_reduction,
    "trees": audit_trees,
    "forced_ones": audit_forced_ones,
    "sharpness": audit_sharpness_h,
}
