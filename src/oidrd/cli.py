"""Command-line front end: parse graphs or generator DSL strings and dispatch
to the solvers, formulas, classifier, reduction and audit campaigns.

Exit codes: 0 success or audit pass, 1 audit violations, 2 usage/parse errors.
JSON output carries a "schema": "oidrd/1" field and contains exact integers
only; the rational lower bound is emitted as a [numerator, denominator] pair.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import graphs as G
from . import harness as H
from .characterize import classify
from .formulas import (
    corona_value,
    formula_complete,
    formula_complete_bipartite,
    formula_complete_multipartite,
    formula_cycle,
    formula_path,
)
from .graphs import GraphError
from .labeling import Labeling, weight
from .reduction import IDENTITY_BASE_CAP, build_gadget, verify_identity
from .solver import SOLVERS, bundle, is_feasible, solve_oidrd

SCHEMA = "oidrd/1"
DEFAULT_MAX_N = 24


class UsageError(ValueError):
    """Command-line input the program cannot act on."""


def _solver_cap() -> int:
    """OIDRD_MAX_N, or DEFAULT_MAX_N when it is unset."""
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


def parse_graph(source: str, cap: int) -> G.Graph:
    """Edge-list text ('n m' header then m 'u v' lines) or a generator DSL
    string, told apart by the first line that is neither blank nor a '#'
    comment.  The order (an edge-list header's n, or the DSL family's order)
    is checked against cap before the graph is built."""
    s = source.strip()
    if not s:
        raise GraphError("empty graph input")
    head = (G.edge_list_lines(s) or [""])[0].split()
    if len(head) == 2 and all(tok.isdecimal() for tok in head):
        _check_cap(int(head[0]), cap)
        return G.from_edge_list_text(s)
    spec, order = _parse_spec(s)
    _check_cap(order, cap)
    return G.family(spec)


def _parse_spec(text: str) -> tuple[G.FamilySpec, int]:
    """The DSL spec in text and its order.  A spec nested too deeply to
    parse or size is a GraphError, not a RecursionError."""
    try:
        spec = G.parse_family_spec(text)
        return spec, G.spec_order(spec)
    except RecursionError:
        raise GraphError("graph spec nested too deeply") from None


@contextmanager
def _file_errors(path: object) -> Iterator[None]:
    """An OSError from reading or writing path, or a file below it, as a
    UsageError that names the file."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"{exc.filename or path}: {exc.strerror or exc}") from None


def _load_graph(arg: str, cap: int) -> G.Graph:
    if arg == "-":
        return parse_graph(sys.stdin.read(), cap)
    # os.path.isfile is False, not an OSError, for an argument too long to
    # be a file name, such as a long DSL string
    if os.path.isfile(arg):
        with _file_errors(arg):
            text = Path(arg).read_text(encoding="utf-8")
        return parse_graph(text, cap)
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


def _run_solve(args: argparse.Namespace) -> int:
    inv = args.invariant
    if args.count_optimal and inv != "gamma_oidr":
        raise UsageError("--count-optimal counts gamma_oidr labelings only")
    if inv == "bundle" and args.verify_witness is not None:
        raise UsageError("--verify-witness checks one invariant, not bundle")
    g = _load_graph(args.graph, _solver_cap())
    if inv == "bundle":
        b = bundle(g)
        payload = {"schema": SCHEMA, "n": g.n, "m": g.m}
        payload.update(b.__dict__)
        _emit(payload, args.json, [f"{k} = {v}" for k, v in b.__dict__.items()])
        return 0
    res = solve_oidrd(g, count_optimal=True) if args.count_optimal else SOLVERS[inv](g)
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "m": g.m,
        inv: res.value,
        "witness": res.witness.to_text(),
        "node_count": res.node_count,
        "proof_node_count": res.proof_node_count,
    }
    lines = [f"{inv} = {res.value}", f"witness: {res.witness.to_text()}",
             f"nodes: {res.node_count}",
             f"nodes after last improvement: {res.proof_node_count}"]
    if res.optimal_count is not None:
        payload["optimal_count"] = res.optimal_count
        lines.append(f"optimal labelings: {res.optimal_count}")
    if args.verify_witness is not None:
        lab = Labeling.from_text(args.verify_witness)
        valid = is_feasible(inv, g, lab)
        payload["checked_witness"] = {
            "labeling": lab.to_text(),
            "valid": valid,
            "weight": weight(lab),
            "optimal": valid and weight(lab) == res.value,
        }
        lines.append(f"checked witness {lab.to_text()}: valid={valid} weight={weight(lab)}")
    _emit(payload, args.json, lines)
    return 0


def _run_bounds(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, _solver_cap())
    if g.n < 2 or not G.is_connected(g):
        raise UsageError("bounds requires a connected graph on at least 2 vertices")
    s = H.sandwich(g)
    holds = s.lower <= s.gamma_oidr <= s.upper
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "m": g.m,
        "gamma": s.gamma,
        "alpha": s.alpha,
        "beta": s.beta,
        "max_degree": g.max_degree,
        "two_alpha_over_delta": [s.two_alpha_over_delta.numerator,
                                 s.two_alpha_over_delta.denominator],
        "lower_bound": [s.lower.numerator, s.lower.denominator],
        "upper_bound": s.upper,
        "gamma_oidr": s.gamma_oidr,
        "bounds_hold": holds,
    }
    lines = [
        f"gamma = {s.gamma}, alpha = {s.alpha}, beta = {s.beta}, max degree = {g.max_degree}",
        f"lower bound max(gamma, 2*alpha/Delta) + beta = {s.lower}",
        f"gamma_oidr = {s.gamma_oidr}",
        f"upper bound 3*beta = {s.upper}",
        f"bounds hold: {holds}",
    ]
    _emit(payload, args.json, lines)
    return 0


def _run_classify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, _solver_cap())
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
    _emit(payload, args.json, lines)
    return 0


def _run_reduce(args: argparse.Namespace) -> int:
    # the base cap is IDENTITY_BASE_CAP at the default solver cap and scales with it
    solver_cap = _solver_cap()
    cap = IDENTITY_BASE_CAP * solver_cap // DEFAULT_MAX_N
    g = _load_graph(args.graph, solver_cap)
    if g.n > cap:
        raise UsageError(
            f"reduce verifies the identity by solving the 4n-vertex gadget; "
            f"capped at base n <= {cap} (raise with OIDRD_MAX_N)")
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
    _emit(payload, args.json, lines)
    return 0


def _run_corona(args: argparse.Namespace) -> int:
    # the formula solves H itself, so H is held to the solver cap
    cap = 4 * _solver_cap()
    g = _load_graph(args.graph_g, cap)
    h = _load_graph(args.graph_h, _solver_cap())
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
    _emit(payload, args.json, lines)
    return 0


def _run_formula(args: argparse.Namespace) -> int:
    spec, _ = _parse_spec(args.family)
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
    _emit(payload, args.json, [f"gamma_oidr = {value}"])
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, _solver_cap())
    text = G.to_edge_list_text(g)
    if args.output:
        with _file_errors(args.output):
            Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


# audit option -> the campaign keywords it may stand for, in the order tried
_AUDIT_KEYWORDS = {"max_n": ("max_n",), "samples": ("n7_samples", "samples_n5", "samples"),
                   "seed": ("seed",), "workers": ("workers",)}


def _run_audit(args: argparse.Namespace) -> int:
    """Call the campaign, or run_all for --all, with only the options given,
    so its signature holds the defaults; an option it takes no keyword for
    is a usage error."""
    if args.all and args.campaign:
        raise UsageError("audit takes a campaign or --all, not both")
    if args.all:
        name, campaign = "--all", H.run_all
    elif args.campaign:
        name, campaign = args.campaign, H.CAMPAIGNS[args.campaign]
    else:
        raise UsageError(f"audit needs a campaign, one of {sorted(H.CAMPAIGNS)}, or --all")
    params = inspect.signature(campaign).parameters
    kwargs = {}
    for option, keywords in _AUDIT_KEYWORDS.items():
        value = getattr(args, option)
        if value is None:
            continue
        keyword = next((k for k in keywords if k in params), None)
        if keyword is None:
            raise UsageError(f"audit {name} takes no --{option.replace('_', '-')}")
        kwargs[keyword] = value
    reports = campaign(**kwargs) if args.all else [campaign(**kwargs)]
    if args.output_dir:
        d = Path(args.output_dir)
        with _file_errors(d):
            d.mkdir(parents=True, exist_ok=True)
            for r in reports:
                (d / f"{r.campaign}.json").write_text(r.to_json() + "\n", encoding="utf-8")
    if args.csv:
        with _file_errors(args.csv):
            Path(args.csv).write_text(H.csv_summary(reports), encoding="utf-8")
    if args.json:
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


_GRAPH_HELP = ("edge-list file, '-' for stdin, or DSL such as path:6, h1:a1,2 or "
               "corona(path:2,empty:2); family tags: " + ", ".join(G.FAMILIES))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oidrd",
        description="Exact outer independent double Roman domination at desk scale.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, run, help):
        p = sub.add_parser(verb, help=help)
        p.set_defaults(run=run)
        return p

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = add("solve", _run_solve, "compute an invariant with a canonical witness")
    p.add_argument("graph", help=_GRAPH_HELP)
    p.add_argument("--invariant", default="gamma_oidr",
                   choices=sorted(SOLVERS) + ["bundle"])
    p.add_argument("--count-optimal", action="store_true",
                   help="also count optimal labelings (n <= 12, gamma_oidr only)")
    p.add_argument("--verify-witness", metavar="LABELING",
                   help="check a comma-separated labeling against the invariant")
    add_json(p)

    p = add("bounds", _run_bounds, "evaluate the sandwich bounds on one graph")
    p.add_argument("graph", help=_GRAPH_HELP)
    add_json(p)

    p = add("classify", _run_classify, "small-value family classification")
    p.add_argument("graph", help=_GRAPH_HELP)
    add_json(p)

    p = add("reduce", _run_reduce, "build the hardness gadget and verify its identity")
    p.add_argument("graph", help=_GRAPH_HELP)
    add_json(p)

    p = add("corona", _run_corona, "corona formula value and coefficient table")
    p.add_argument("graph_g", help="base graph: " + _GRAPH_HELP)
    p.add_argument("graph_h", help="per-vertex copy graph H")
    add_json(p)

    p = add("formula", _run_formula, "closed-form value for a basic family")
    p.add_argument("family", help="path:n, cycle:n, complete:n, kbipartite:m,n or kpartite:n1,n2,...")
    add_json(p)

    p = add("generate", _run_generate, "emit a graph in edge-list text form")
    p.add_argument("graph", help=_GRAPH_HELP)
    p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")

    p = add("audit", _run_audit, "run verification campaigns")
    p.add_argument("campaign", nargs="?", choices=H.CAMPAIGNS, help="campaign to run")
    p.add_argument("--all", action="store_true", help="run every campaign")
    p.add_argument("--max-n", type=int, dest="max_n", help="largest exhaustive order")
    p.add_argument("--samples", type=int, help="sample count at the sampled sizes")
    p.add_argument("--seed", type=int, help="sampling seed (default 0)")
    p.add_argument("--workers", type=int, help="process count, at least 1 (default: all cores)")
    p.add_argument("--output-dir", dest="output_dir", help="write one JSON report per campaign")
    p.add_argument("--csv", help="write a CSV summary table")
    add_json(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ValueError as exc:  # every input error of the package subclasses it
        print(f"oidrd: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`oidrd ... | head`): point stdout at
        # devnull so the final flush cannot raise again, and exit with the
        # status of a process killed by SIGPIPE
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        return 141


if __name__ == "__main__":
    sys.exit(main())
