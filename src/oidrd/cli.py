"""Command-line front end: parse graphs or generator DSL strings and dispatch
to the solvers, formulas, classifier, reduction and audit campaigns.

Exit codes: 0 success or audit pass, 1 audit violations, 2 usage/parse errors.
JSON output carries a "schema": "oidrd/1" field and contains exact integers
only; the rational lower bound is emitted as a [numerator, denominator] pair.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import graphs as G
from . import harness as H
from .characterize import CharacterizeError, classify
from .formulas import (
    FormulaError,
    corona_value,
    formula_complete,
    formula_complete_bipartite,
    formula_complete_multipartite,
    formula_cycle,
    formula_path,
)
from .graphs import GraphError
from .labeling import Labeling, LabelingError, is_drd, is_oidrd, is_oird, is_rd, weight
from .reduction import ReductionError, build_gadget, verify_identity
from .solver import (
    SOLVERS,
    bundle,
    is_cover_labeling,
    is_dominating_labeling,
    is_independent_labeling,
    solve_alpha,
    solve_gamma,
    solve_oidrd,
)

SCHEMA = "oidrd/1"
DEFAULT_MAX_N = 24


class UsageError(ValueError):
    """Command-line input the program cannot act on."""


@dataclass
class Command:
    verb: str
    input: str | None = None
    input2: str | None = None
    options: dict = field(default_factory=dict)


def _solver_cap() -> int:
    env = os.environ.get("OIDRD_MAX_N")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"OIDRD_MAX_N must be an integer, got {env!r}") from None
        if cap < 0:
            raise UsageError(f"OIDRD_MAX_N must be non-negative, got {cap}")
        return cap
    return DEFAULT_MAX_N


def parse_graph(source: str, cap: int | None = None) -> G.Graph:
    """Edge-list text ('n m' header then m 'u v' lines) or a generator DSL string.
    With a cap, the order (an edge-list header's n, or the DSL family's
    order) is checked before the graph is built."""
    s = source.strip()
    if not s:
        raise GraphError("empty graph input")
    head = s.splitlines()[0].split()
    if len(head) == 2 and all(tok.isdigit() for tok in head):
        if cap is not None:
            _check_cap(int(head[0]), cap)
        return G.from_edge_list_text(s)
    spec = G.parse_family_spec(s)
    if cap is not None:
        _check_cap(G.spec_order(spec), cap)
    return G.family(spec)


def _load_graph(arg: str, cap: int | None = None) -> G.Graph:
    if arg == "-":
        return parse_graph(sys.stdin.read(), cap)
    p = Path(arg)
    if p.exists() and p.is_file():
        return parse_graph(p.read_text(encoding="utf-8"), cap)
    return parse_graph(arg, cap)


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise UsageError(
            f"graph has {n} vertices, above the solver cap {cap} "
            f"(override at your own risk with OIDRD_MAX_N)")


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


_WITNESS_PREDICATES = {
    "gamma_oidr": is_oidrd,
    "gamma_dr": is_drd,
    "gamma_oir": is_oird,
    "gamma_r": is_rd,
    "gamma": is_dominating_labeling,
    "beta": is_cover_labeling,
    "alpha": is_independent_labeling,
}


def _run_solve(cmd: Command) -> int:
    cap = _solver_cap()
    g = _load_graph(cmd.input, cap)
    _check_cap(g.n, cap)
    inv = cmd.options.get("invariant", "gamma_oidr")
    as_json = cmd.options.get("json", False)
    if inv == "bundle":
        b = bundle(g)
        payload = {"schema": SCHEMA, "n": g.n, "m": g.m}
        payload.update(b.__dict__)
        _emit(payload, as_json, [f"{k} = {v}" for k, v in b.__dict__.items()])
        return 0
    if inv not in SOLVERS:
        raise UsageError(f"unknown invariant {inv!r}; choose from {sorted(SOLVERS)} or 'bundle'")
    if inv == "gamma_oidr" and cmd.options.get("count_optimal"):
        res = solve_oidrd(g, count_optimal=True)
    else:
        res = SOLVERS[inv](g)
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "m": g.m,
        inv: res.value,
        "witness": res.witness.to_text(),
        "node_count": res.node_count,
    }
    lines = [f"{inv} = {res.value}", f"witness: {res.witness.to_text()}",
             f"nodes: {res.node_count}"]
    if res.optimal_count is not None:
        payload["optimal_count"] = res.optimal_count
        lines.append(f"optimal labelings: {res.optimal_count}")
    check = cmd.options.get("verify_witness")
    if check is not None:
        lab = Labeling.from_text(check)
        valid = _WITNESS_PREDICATES[inv](g, lab)
        payload["checked_witness"] = {
            "labeling": lab.to_text(),
            "valid": valid,
            "weight": weight(lab),
            "optimal": valid and weight(lab) == res.value,
        }
        lines.append(f"checked witness {lab.to_text()}: valid={valid} weight={weight(lab)}")
    _emit(payload, as_json, lines)
    return 0


def _run_bounds(cmd: Command) -> int:
    cap = _solver_cap()
    g = _load_graph(cmd.input, cap)
    _check_cap(g.n, cap)
    if g.n < 2 or not G.is_connected(g):
        raise UsageError("bounds requires a connected graph on at least 2 vertices")
    alpha = solve_alpha(g).value
    beta = g.n - alpha
    gamma = solve_gamma(g).value
    goidr = solve_oidrd(g).value
    frac = Fraction(2 * alpha, g.max_degree)
    lower = max(Fraction(gamma), frac) + beta
    holds = lower <= goidr <= 3 * beta
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "m": g.m,
        "gamma": gamma,
        "alpha": alpha,
        "beta": beta,
        "max_degree": g.max_degree,
        "two_alpha_over_delta": [frac.numerator, frac.denominator],
        "lower_bound": [lower.numerator, lower.denominator],
        "upper_bound": 3 * beta,
        "gamma_oidr": goidr,
        "bounds_hold": holds,
    }
    lines = [
        f"gamma = {gamma}, alpha = {alpha}, beta = {beta}, max degree = {g.max_degree}",
        f"lower bound max(gamma, 2*alpha/Delta) + beta = {lower}",
        f"gamma_oidr = {goidr}",
        f"upper bound 3*beta = {3 * beta}",
        f"bounds hold: {holds}",
    ]
    _emit(payload, cmd.options.get("json", False), lines)
    return 0


def _run_classify(cmd: Command) -> int:
    cap = _solver_cap()
    g = _load_graph(cmd.input, cap)
    _check_cap(g.n, cap)
    res = classify(g)
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "m": g.m,
        "value_class": res.value_class,
        "family": res.family,
        "subcase": res.subcase,
        "anchors": list(res.anchors),
    }
    lines = [f"value class: {res.value_class}"]
    if res.family:
        lines.append(f"family: {res.family}" + (f" ({res.subcase})" if res.subcase else ""))
        lines.append(f"anchors: {','.join(map(str, res.anchors))}")
    _emit(payload, cmd.options.get("json", False), lines)
    return 0


def _run_reduce(cmd: Command) -> int:
    env = os.environ.get("OIDRD_MAX_N")
    cap = (_solver_cap() // 4) if env is not None else 5
    g = _load_graph(cmd.input, _solver_cap())
    if g.n > cap:
        raise UsageError(
            f"reduce verifies the identity by solving the 4n-vertex gadget; "
            f"capped at base n <= {cap} (override with OIDRD_MAX_N)")
    gm = build_gadget(g)
    rep = verify_identity(g, max_n=cap)
    payload = {
        "schema": SCHEMA,
        "base_n": g.n,
        "gadget": G.to_edge_list_text(gm.gadget),
        "u_index": {str(v): u for v, u in gm.u_index.items()},
        "identity": {"lhs_gamma_oidr": rep.lhs, "rhs_4n_minus_alpha": rep.rhs, "equal": rep.equal},
    }
    lines = [G.to_edge_list_text(gm.gadget), "",
             f"gamma_oidr(G') = {rep.lhs}, 4n - alpha(G) = {rep.rhs}, equal: {rep.equal}"]
    _emit(payload, cmd.options.get("json", False), lines)
    return 0


def _run_corona(cmd: Command) -> int:
    cap = 4 * _solver_cap()
    g = _load_graph(cmd.input, cap)
    h = _load_graph(cmd.input2, cap)
    _check_cap(g.n * (h.n + 1), cap)  # the corona's order, before building it
    value, co = corona_value(g, h)
    payload = {
        "schema": SCHEMA,
        "g_n": g.n,
        "h_n": h.n,
        "corona_n": g.n * (1 + h.n),
        "value": value,
        "coefficients": {"c0": co.c0, "c1": co.c1, "c2": co.c2, "c3": co.c3},
    }
    lines = [
        f"gamma_oidr(corona) = {value}",
        f"coefficients: c0={co.c0} c1={co.c1} c2={co.c2} c3={co.c3}",
    ]
    _emit(payload, cmd.options.get("json", False), lines)
    return 0


def _run_formula(cmd: Command) -> int:
    spec = G.parse_family_spec(cmd.input)
    table = {
        "path": lambda p: formula_path(*p),
        "cycle": lambda p: formula_cycle(*p),
        "complete": lambda p: formula_complete(*p),
        "kbipartite": lambda p: formula_complete_bipartite(*p),
        "kpartite": lambda p: formula_complete_multipartite(p),
    }
    if spec.tag not in table:
        raise UsageError(f"no closed form for family {spec.tag!r}; "
                         f"choose from {sorted(table)}")
    value = table[spec.tag](spec.params)
    payload = {"schema": SCHEMA, "family": spec.tag,
               "params": list(spec.params), "value": value}
    _emit(payload, cmd.options.get("json", False), [f"gamma_oidr = {value}"])
    return 0


def _run_generate(cmd: Command) -> int:
    g = _load_graph(cmd.input, _solver_cap())
    text = G.to_edge_list_text(g)
    out = cmd.options.get("output")
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _run_audit(cmd: Command) -> int:
    opts = cmd.options
    seed = opts.get("seed", 0)
    workers = opts.get("workers")
    which = cmd.input
    if opts.get("all"):
        reports = H.run_all(opts.get("max_n", 5), seed=seed, workers=workers)
    elif which == "bounds":
        reports = [H.audit_bounds(opts.get("max_n", 5), workers=workers)]
    elif which == "characterization":
        reports = [H.audit_characterization(
            opts.get("max_n", 6), n7_samples=opts.get("samples", 300),
            seed=seed, workers=workers)]
    elif which == "reduction":
        reports = [H.audit_reduction(opts.get("max_n", 5),
                                     samples_n5=opts.get("samples", 50),
                                     seed=seed, workers=workers)]
    elif which == "trees":
        reports = [H.audit_trees(opts.get("max_n", 8),
                                 samples=opts.get("samples", 10000),
                                 seed=seed, workers=workers)]
    elif which == "forced_ones":
        reports = [H.audit_forced_ones()]
    elif which == "sharpness":
        reports = [H.audit_sharpness_h()]
    else:
        raise UsageError(f"unknown audit campaign {which!r}; choose from "
                         f"{sorted(H.CAMPAIGNS)} or use --all")
    out_dir = opts.get("output_dir")
    if out_dir:
        d = Path(out_dir)
        d.mkdir(parents=True, exist_ok=True)
        for r in reports:
            (d / f"{r.campaign}.json").write_text(r.to_json() + "\n", encoding="utf-8")
    csv_path = opts.get("csv")
    if csv_path:
        Path(csv_path).write_text(H.csv_summary(reports), encoding="utf-8")
    if opts.get("json"):
        print(json.dumps({"schema": SCHEMA, "reports": [r.to_dict() for r in reports]},
                         indent=2, sort_keys=True))
    else:
        for r in reports:
            print(f"{r.campaign}: {r.status.upper()} "
                  f"(instances={r.instances_checked}, violations={len(r.violations)}, "
                  f"runtime={r.runtime_ms}ms)")
            for v in r.violations[:10]:
                print(f"  {v.claim}: lhs={v.lhs} rhs={v.rhs} on\n{v.graph}")
    return 0 if all(r.status == "pass" for r in reports) else 1


_RUNNERS = {
    "solve": _run_solve,
    "bounds": _run_bounds,
    "classify": _run_classify,
    "reduce": _run_reduce,
    "corona": _run_corona,
    "formula": _run_formula,
    "generate": _run_generate,
    "audit": _run_audit,
}


def run(cmd: Command) -> int:
    """Execute a parsed command; returns the process exit code."""
    runner = _RUNNERS.get(cmd.verb)
    if runner is None:
        raise UsageError(f"unknown verb {cmd.verb!r}")
    return runner(cmd)


_GRAPH_HELP = ("edge-list file, '-' for stdin, or DSL such as path:6, cycle:5, "
               "complete:4, empty:3, star:5, dstar:2,3, kbipartite:3,7, kpartite:1,2,3, "
               "g1:2,1, g2:1, g3:4, h1:a1,2, h3:1,1, sharph:2,2,2, "
               "corona(path:2,empty:2), gadget(path:3)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oidrd",
        description="Exact outer independent double Roman domination at desk scale.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("solve", help="compute an invariant with a canonical witness")
    p.add_argument("graph", help=_GRAPH_HELP)
    p.add_argument("--invariant", default="gamma_oidr",
                   choices=sorted(SOLVERS) + ["bundle"])
    p.add_argument("--count-optimal", action="store_true",
                   help="also count optimal labelings (n <= 12, gamma_oidr only)")
    p.add_argument("--verify-witness", metavar="LABELING",
                   help="check a comma-separated labeling against the invariant")
    add_json(p)

    p = sub.add_parser("bounds", help="evaluate the sandwich bounds on one graph")
    p.add_argument("graph", help=_GRAPH_HELP)
    add_json(p)

    p = sub.add_parser("classify", help="small-value family classification")
    p.add_argument("graph", help=_GRAPH_HELP)
    add_json(p)

    p = sub.add_parser("reduce", help="build the hardness gadget and verify its identity")
    p.add_argument("graph", help=_GRAPH_HELP)
    add_json(p)

    p = sub.add_parser("corona", help="corona formula value and coefficient table")
    p.add_argument("graph_g", help="base graph: " + _GRAPH_HELP)
    p.add_argument("graph_h", help="per-vertex copy graph H")
    add_json(p)

    p = sub.add_parser("formula", help="closed-form value for a basic family")
    p.add_argument("family", help="path:n, cycle:n, complete:n, kbipartite:m,n or kpartite:n1,n2,...")
    add_json(p)

    p = sub.add_parser("generate", help="emit a graph in edge-list text form")
    p.add_argument("graph", help=_GRAPH_HELP)
    p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")

    p = sub.add_parser("audit", help="run verification campaigns")
    p.add_argument("campaign", nargs="?", help=f"one of {sorted(H.CAMPAIGNS)}")
    p.add_argument("--all", action="store_true", help="run every campaign")
    p.add_argument("--max-n", type=int, dest="max_n", help="largest exhaustive order")
    p.add_argument("--samples", type=int, help="sample count at the sampled sizes")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--workers", type=int, help="process count (default: all cores)")
    p.add_argument("--output-dir", dest="output_dir", help="write one JSON report per campaign")
    p.add_argument("--csv", help="write a CSV summary table")
    add_json(p)

    return parser


def _to_command(args: argparse.Namespace) -> Command:
    ns = vars(args)
    verb = ns.pop("verb")
    first = ns.pop("graph", None)
    if verb == "audit":
        first = ns.pop("campaign", None)
    if verb == "formula":
        first = ns.pop("family", None)
    second = ns.pop("graph_h", None)
    if verb == "corona":
        first = ns.pop("graph_g", None)
    options = {k: v for k, v in ns.items() if v is not None and v is not False}
    return Command(verb, first, second, options)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cmd = _to_command(args)
    try:
        return run(cmd)
    except (GraphError, LabelingError, FormulaError, ReductionError,
            CharacterizeError, UsageError, ValueError) as exc:
        print(f"oidrd: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
