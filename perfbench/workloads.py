"""The four workloads: seeded instance sets, the public calls the program
makes per instance, and the references the outputs are checked against.

`run(instance, rec)` makes only the program's calls and is what instance
latency times; `verify(instance, output)` is the benchmark's correctness
check.  Campaign workloads also carry `campaigns(workers)`, the harness call
whose wall time is the end-to-end number; their `run` replays the same
per-instance public calls the campaign's pool workers make.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from pathlib import Path
from typing import Callable

from oidrd import formulas as F
from oidrd import graphs as G
from oidrd import harness as H
from oidrd import solver as S
from oidrd.characterize import OTHER, classify, verify_classification
from oidrd.labeling import is_oidrd, weight

from tracing import Recorder

HERE = Path(__file__).resolve().parent
INVARIANTS = tuple(S.SOLVERS)
WORKERS = 2

TREES_MAX_N = 7
# n <= 6 (26,704 graphs) takes about 30 s per campaign on 2 cores, too long to
# repeat within one run; n <= 5 plus the seeded n = 7 samples keeps classify,
# alpha, gamma and the clique-cover bound loaded on dense graphs.
CONNECTED_MAX_N = 5
N7_SAMPLES = 300
# seeded samples per order beyond the exhaustive n <= 5 set; n = 10 takes the
# oracle's chunked path, n <= 9 its cached tables
ORACLE_SAMPLES = {6: 40, 7: 30, 8: 20, 9: 10, 10: 3}
# instances replayed in-process per run to give a campaign workload its
# latency; `connected` replays all of its instances
LATENCY_SAMPLE = {"trees": 1000}

# labeled connected graphs (OEIS A001187) and labeled trees (Cayley), kept
# independent of the enumerators whose output they count
CONNECTED_COUNT = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def tree_count(n: int) -> int:
    return 1 if n <= 2 else n ** (n - 2)


@dataclass
class Workload:
    name: str
    instances: list
    run: Callable
    verify: Callable
    sizes: dict
    campaigns: Callable | None = None  # workers -> [(AuditReport, expected instances_checked)]


# ---------------------------------------------------------------------------
# calls into the layers, with their spans and counters
# ---------------------------------------------------------------------------


def _engine(inv: str, g: G.Graph, rec: Recorder) -> S.SolveResult:
    with rec.span("solver." + inv):
        r = S.SOLVERS[inv](g)
    rec.counts["solver." + inv + ".calls"] += 1
    rec.counts["solver." + inv + ".nodes"] += r.node_count
    return r


def _oracle(inv: str, g: G.Graph, rec: Recorder) -> S.SolveResult:
    with rec.span("oracle." + inv):
        r = S.BRUTE_SOLVERS[inv](g)
    rec.counts["oracle." + inv + ".calls"] += 1
    rec.counts["oracle." + inv + ".labelings"] += r.node_count
    return r


def _round_trip(g: G.Graph, rec: Recorder) -> tuple[tuple, G.Graph]:
    """The harness payload of g and the graph its worker rebuilds from it."""
    with rec.span("graphs.build"):
        payload = (g.n, tuple(g.edges()))
        h = G.build(*payload)
    return payload, h


def _text(g: G.Graph, rec: Recorder) -> str:
    with rec.span("graphs.text"):
        text = G.to_edge_list_text(g)
    rec.counts["graphs.text_bytes"] += len(text)
    return text


def _ipc(rec: Recorder, payload: tuple, result: tuple) -> None:
    # computed, not observed: pickled sizes of what the harness sends each way
    if rec.trace:
        rec.counts["harness.ipc_bytes"] += len(pickle.dumps(payload)) + len(pickle.dumps(result))


# ---------------------------------------------------------------------------
# trees: audit_trees on every labeled tree with n <= 7
# ---------------------------------------------------------------------------


def _tree_run(g: G.Graph, rec: Recorder) -> tuple[int, int]:
    payload, h = _round_trip(g, rec)
    beta = _engine("beta", h, rec).value
    goidr = _engine("gamma_oidr", h, rec).value
    _ipc(rec, payload, (_text(h, rec), goidr == 2 * beta + 1, []))
    return beta, goidr


def _tree_verify(g: G.Graph, out: tuple[int, int]) -> bool:
    beta, goidr = out
    return 2 * beta + 1 <= goidr


def _trees_workload(seed: int, rec: Recorder) -> Workload:
    trees: list[G.Graph] = []
    with rec.span("graphs.enumerate"):
        for n in range(1, TREES_MAX_N + 1):
            trees += G.enumerate_trees(n)
    expected = sum(tree_count(n) for n in range(1, TREES_MAX_N + 1))

    def campaigns(workers: int) -> list:
        return [(H.audit_trees(TREES_MAX_N, seed=seed, workers=workers), expected)]

    return Workload("trees", trees, _tree_run, _tree_verify,
                    {"trees": len(trees), "expected": expected}, campaigns)


# ---------------------------------------------------------------------------
# connected: audit_characterization plus audit_bounds
# ---------------------------------------------------------------------------

_CLASS_VALUE = {"THREE": 3, "FOUR": 4, "FIVE": 5}


def _connected_run(inst: tuple, rec: Recorder) -> tuple:
    kind, g = inst
    payload, h = _round_trip(g, rec)
    if kind == "characterization":
        with rec.span("characterize.classify"):
            res = classify(h)
        rec.counts["characterize.classify_calls"] += 1
        rec.counts["characterize.class_counts." + res.value_class] += 1
        value = _engine("gamma_oidr", h, rec).value
        verified = True
        if res.value_class != OTHER:
            with rec.span("characterize.verify"):
                verified = verify_classification(h, res)
        _ipc(rec, payload, (_text(h, rec), res.value_class, []))
        return res.value_class, value, verified
    alpha = _engine("alpha", h, rec).value
    gamma = _engine("gamma", h, rec).value
    goidr = _engine("gamma_oidr", h, rec).value
    _ipc(rec, payload, (_text(h, rec), []))
    return h.n - alpha, alpha, gamma, goidr, h.max_degree


def _connected_verify(inst: tuple, out: tuple) -> bool:
    if inst[0] == "characterization":
        value_class, value, verified = out
        expected = _CLASS_VALUE.get(value_class)
        return verified and (value > 5 if expected is None else value == expected)
    beta, alpha, gamma, goidr, delta = out
    return max(Fraction(gamma), Fraction(2 * alpha, delta)) + beta <= goidr <= 3 * beta


def _connected_workload(seed: int, rec: Recorder) -> Workload:
    char: list[G.Graph] = []
    bounds: list[G.Graph] = []
    with rec.span("graphs.enumerate"):
        for n in range(3, CONNECTED_MAX_N + 1):
            char += G.enumerate_connected_graphs(n)
        for n in range(2, CONNECTED_MAX_N + 1):
            bounds += G.enumerate_connected_graphs(n)
    with rec.span("graphs.sample"):
        char += G.sample_connected_graphs(7, N7_SAMPLES, seed)
    exp_char = sum(CONNECTED_COUNT[n] for n in range(3, CONNECTED_MAX_N + 1)) + N7_SAMPLES
    exp_bounds = sum(CONNECTED_COUNT[n] for n in range(2, CONNECTED_MAX_N + 1))

    def campaigns(workers: int) -> list:
        return [
            (H.audit_characterization(CONNECTED_MAX_N, n7_samples=N7_SAMPLES, seed=seed,
                                      workers=workers), exp_char),
            (H.audit_bounds(CONNECTED_MAX_N, workers=workers), exp_bounds),
        ]

    instances = [("characterization", g) for g in char] + [("bounds", g) for g in bounds]
    return Workload("connected", instances, _connected_run, _connected_verify,
                    {"characterization": len(char), "bounds": len(bounds),
                     "expected": exp_char + exp_bounds}, campaigns)


# ---------------------------------------------------------------------------
# oracle: engine against full enumeration, all seven invariants, in-process
# ---------------------------------------------------------------------------


def _oracle_run(g: G.Graph, rec: Recorder) -> list:
    out = []
    for inv in INVARIANTS:
        r = _engine(inv, g, rec)
        b = _oracle(inv, g, rec)
        out.append((r.value, r.witness.values, b.value, b.witness.values))
    return out


def _oracle_verify(g: G.Graph, out: list) -> bool:
    return len(out) == len(INVARIANTS) and all(rv == bv and rw == bw for rv, rw, bv, bw in out)


def _oracle_workload(seed: int, rec: Recorder) -> Workload:
    graphs: list[G.Graph] = []
    with rec.span("graphs.enumerate"):
        for n in range(1, 6):
            graphs += G.enumerate_connected_graphs(n)
    with rec.span("graphs.sample"):
        for n, count in ORACLE_SAMPLES.items():
            graphs += G.sample_connected_graphs(n, count, seed * 1000 + n)
    # fill the oracle's cached label tables for every order that has them
    for n in range(1, 10):
        for inv in INVARIANTS:
            S.BRUTE_SOLVERS[inv](G.path(n))
    sizes = {"exhaustive": sum(CONNECTED_COUNT[n] for n in range(1, 6)), **{
        f"n{n}": c for n, c in ORACLE_SAMPLES.items()}}
    return Workload("oracle", graphs, _oracle_run, _oracle_verify, sizes)


# ---------------------------------------------------------------------------
# solve: closed loop of solve_oidrd with witness, like `oidrd solve`
# ---------------------------------------------------------------------------

# family instances keep the DSL's own vertex numbering; each value comes from
# the closed form in formulas.py or the paper's sharpness value 4t + ceil(t/2)
_FAMILIES = (
    [(f"path:{n}", F.formula_path(n)) for n in (14, 15, 16, 17)]
    + [(f"cycle:{n}", F.formula_cycle(n)) for n in (14, 15, 16)]
    + [(f"kbipartite:{a},{b}", F.formula_complete_bipartite(a, b))
       for a, b in ((7, 7), (4, 16), (6, 10), (5, 12))]
    + [("kpartite:" + ",".join(map(str, p)), F.formula_complete_multipartite(p))
       for p in ((3, 4, 7), (5, 5, 5, 5), (2, 3, 4, 5, 6), (4, 4, 4, 4, 4, 4))]
    + [("sharph:" + ",".join(map(str, m)), 4 * len(m) + ceil(len(m) / 2))
       for m in ((2, 2, 2), (3, 2, 2))]
)
_CORONAS = (("path:2", "cycle:6"), ("path:2", "path:6"), ("cycle:3", "cycle:4"),
            ("cycle:3", "empty:5"), ("path:3", "empty:4"))
GADGETS = 10


def _spec(text: str) -> G.Graph:
    return G.family(G.parse_family_spec(text))


def _solve_run(item: tuple, rec: Recorder) -> tuple:
    _, text, _ = item
    with rec.span("graphs.build"):
        g = G.from_edge_list_text(text) if text[0].isdigit() else _spec(text)
    return g, _engine("gamma_oidr", g, rec)


def _solve_verify(item: tuple, out: tuple) -> bool:
    g, r = out
    return r.value == item[2] and weight(r.witness) == r.value and is_oidrd(g, r.witness)


def _solve_workload(seed: int, rec: Recorder) -> Workload:
    """Items are (kind, input text, reference value).  The seed draws only the
    gadget bases: relabeling the random graphs by seed moved a graph's search
    cost up to tenfold, so the seed rather than the code would set wall_s."""
    items = [("family", spec, value) for spec, value in _FAMILIES]
    for gs, hs in _CORONAS:
        items.append(("corona", f"corona({gs},{hs})", F.corona_value(_spec(gs), _spec(hs))[0]))
    for entry in json.loads((HERE / "catalogue.json").read_text())["graphs"]:
        g = G.build(entry["n"], entry["edges"])
        items.append((f"random{entry['density']}", G.to_edge_list_text(g), entry["gamma_oidr"]))
    with rec.span("graphs.sample"):
        bases = list(G.sample_connected_graphs(5, GADGETS, seed, max_deg=3))
    for base in bases:
        # gadget identity gamma_oidr(G') = 4n - alpha(G), alpha from the oracle
        items.append(("gadget", G.to_edge_list_text(G.gadget(base)),
                      4 * base.n - S.brute_force_alpha(base).value))
    kinds: dict[str, int] = {}
    for kind, _, _ in items:
        kinds[kind] = kinds.get(kind, 0) + 1
    return Workload("solve", items, _solve_run, _solve_verify, kinds)


_WORKLOADS = {"trees": _trees_workload, "connected": _connected_workload,
             "oracle": _oracle_workload, "solve": _solve_workload}


def build(name: str, seed: int, rec: Recorder) -> Workload:
    """Generate the workload's instances and references (its set-up)."""
    return _WORKLOADS[name](seed, rec)
