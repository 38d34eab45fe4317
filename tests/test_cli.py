import argparse
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oidrd import cli
from oidrd import graphs as G
from oidrd import harness as H


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "path:5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "oidrd/1"
    assert payload["gamma_oidr"] == 6
    assert payload["witness"].count(",") == 4


def test_solve_bundle(capsys):
    code, out, _ = run_cli(capsys, "solve", "star:5", "--invariant", "bundle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_oidr"] == 3 and payload["alpha"] == 5


def test_solve_verify_witness(capsys):
    code, out, _ = run_cli(capsys, "solve", "path:3", "--verify-witness", "0,3,0", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["checked_witness"]["valid"] is True
    assert payload["checked_witness"]["optimal"] is True


def test_classify_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "complete:3")
    assert code == 0
    assert "FOUR" in out and "G2" in out


def test_corona_output(capsys):
    code, out, _ = run_cli(capsys, "corona", "path:2", "path:4")
    assert code == 0
    assert "10" in out and "c0=6" in out and "c3=5" in out


def test_formula_values(capsys):
    code, out, _ = run_cli(capsys, "formula", "kpartite:1,2,3", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 5


def test_generate_and_reparse(capsys, tmp_path):
    target = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "generate", "kbipartite:2,3", "--output", str(target))
    assert code == 0
    text = target.read_text()
    g = G.from_edge_list_text(text)
    assert g.n == 5 and g.m == 6
    code, out, _ = run_cli(capsys, "solve", str(target), "--json")
    assert code == 0
    assert json.loads(out)["gamma_oidr"] == 4


def test_reduce_reports_identity(capsys):
    code, out, _ = run_cli(capsys, "reduce", "path:2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["identity"] == {"lhs_gamma_oidr": 7, "rhs_4n_minus_alpha": 7, "equal": True}
    gadget = G.from_edge_list_text(payload["gadget"])
    assert gadget.n == 8


def test_bounds_rational_pair(capsys):
    code, out, _ = run_cli(capsys, "bounds", "star:5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["two_alpha_over_delta"] == [2, 1]
    assert payload["bounds_hold"] is True
    assert all(not isinstance(v, float) for v in payload.values())


def test_parse_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve", "nosuch:3")
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(capsys, "classify", "path:2")
    assert code == 2
    code, _, err = run_cli(capsys, "reduce", "cycle:6")
    assert code == 2 and "capped" in err


def test_wrong_parameter_count_exits_2(capsys):
    cases = (("path:3,4", "path takes 1 parameter, got 2"),
             ("kbipartite:3", "kbipartite takes 2 parameters, got 1"),
             ("h4:a4,2,0,1", "h4 takes 1 to 2 parameters, got 3"),
             ("corona(path:2)", "corona spec needs exactly two inner specs"),
             ("gadget(path:2,path:3)", "gadget spec needs exactly one inner spec"),
             ("corona(path:2,dstar:1)", "dstar takes 2 parameters, got 1"))
    for verb in ("solve", "bounds", "classify", "reduce", "generate"):
        for spec, message in cases:
            code, _, err = run_cli(capsys, verb, spec)
            assert code == 2 and message in err, (verb, spec)
    code, _, err = run_cli(capsys, "formula", "path:3,4")
    assert code == 2 and "path takes 1 parameter, got 2" in err
    code, _, err = run_cli(capsys, "corona", "kbipartite:3", "path:2")
    assert code == 2 and "kbipartite takes 2 parameters, got 1" in err
    with pytest.raises(G.GraphError, match="cycle takes 1 parameter, got 0"):
        G.family(G.FamilySpec("cycle"))


def test_empty_parameters_exit_2(capsys):
    cases = (("path:2,", "empty parameter in spec 'path:2,'"),
             ("kbipartite:2,,3", "empty parameter in spec 'kbipartite:2,,3'"),
             ("h1:a1,,2", "empty parameter in spec 'h1:a1,,2'"),
             ("path:,2", "empty parameter in spec 'path:,2'"),
             ("corona(path:2,,path:2)", "cannot parse graph spec ''"))
    for verb in ("solve", "bounds", "classify", "reduce", "generate", "formula"):
        for spec, message in cases:
            code, _, err = run_cli(capsys, verb, spec)
            assert code == 2 and message in err, (verb, spec)
    code, _, err = run_cli(capsys, "corona", "path:2,", "path:2")
    assert code == 2 and "empty parameter in spec 'path:2,'" in err
    code, _, err = run_cli(capsys, "corona", "path:2", "kbipartite:2,,3")
    assert code == 2 and "empty parameter" in err


def test_generate_nested_multi_parameter_families(capsys):
    cases = (("corona(kbipartite:2,3,path:2)", G.corona(G.complete_bipartite(2, 3), G.path(2))),
             ("gadget(kpartite:1,2,3)", G.gadget(G.complete_multipartite((1, 2, 3)))),
             ("corona(h1:a1,2,path:2)", G.corona(G.h1("a1", 2), G.path(2))))
    for spec, expected in cases:
        code, out, _ = run_cli(capsys, "generate", spec)
        assert code == 0 and out.strip() == G.to_edge_list_text(expected).strip(), spec
    code, _, err = run_cli(capsys, "generate", "corona(2,path:2)")
    assert code == 2 and "cannot parse graph spec '2'" in err


def test_malformed_wrapper_names_the_fault(capsys):
    cases = (("corona(path:2", "unbalanced parentheses in spec: 'corona(path:2'"),
             ("gadget(path:3", "unbalanced parentheses in spec: 'gadget(path:3'"),
             ("corona:1,2", "corona wraps its inner specs in parentheses"))
    for spec, message in cases:
        code, _, err = run_cli(capsys, "generate", spec)
        assert code == 2 and message in err and "unknown family tag" not in err, spec


def test_reduce_base_cap_follows_the_solver_cap(capsys, monkeypatch):
    code, _, unset_err = run_cli(capsys, "reduce", "cycle:6")
    assert code == 2 and "capped at base n <= 5" in unset_err
    monkeypatch.setenv("OIDRD_MAX_N", "24")
    code, _, err = run_cli(capsys, "reduce", "cycle:6")
    assert code == 2 and err == unset_err
    monkeypatch.setenv("OIDRD_MAX_N", "30")
    code, out, _ = run_cli(capsys, "reduce", "cycle:6", "--json")
    assert code == 0 and json.loads(out)["identity"]["equal"] is True


def test_closed_stdout_exits_without_traceback(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["reduce", "cycle:5"]) == 141
    assert capsys.readouterr().err == ""


def test_edge_list_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 2
    assert "expected 2 edges, found 1" in err


def test_superscript_header_is_no_edge_list(capsys):
    # '²' is a digit to str.isdigit but not to int, so the header is no
    # edge-list header and the DSL parser names the fault
    code, _, err = run_cli(capsys, "solve", "3² 1\n0 1")
    assert code == 2
    assert "cannot parse graph spec" in err and "invalid literal" not in err


def test_solver_cap_and_env_override(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "solve", "path:25")
    assert code == 2 and "OIDRD_MAX_N" in err
    monkeypatch.setenv("OIDRD_MAX_N", "30")
    code, out, _ = run_cli(capsys, "solve", "path:25", "--json")
    assert code == 0
    assert json.loads(out)["gamma_oidr"] == 26


def test_solver_cap_rejects_negative_override(capsys, monkeypatch):
    monkeypatch.setenv("OIDRD_MAX_N", "-1")
    with pytest.raises(cli.UsageError, match="non-negative"):
        cli._solver_cap()
    code, _, err = run_cli(capsys, "solve", "path:3")
    assert code == 2 and "non-negative" in err


def test_audit_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "audit", "bounds", "--max-n", "3", "--workers", "1")
    assert code == 0 and "PASS" in out
    csv_path = tmp_path / "summary.csv"
    out_dir = tmp_path / "reports"
    code, out, _ = run_cli(capsys, "audit", "sharpness", "--csv", str(csv_path),
                           "--output-dir", str(out_dir), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["status"] == "pass"
    assert (out_dir / "sharpness_h.json").exists()
    assert csv_path.read_text().startswith("campaign,")
    code, _, err = run_cli(capsys, "audit", "mystery")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("audit", "sharpness", "--csv", "{missing}/x.csv"),
    ("audit", "sharpness", "--output-dir", "{file}"),
    ("generate", "path:3", "--output", "{missing}/g.txt"),
])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    # exit 1 means audit violations, so a path that cannot be written is a
    # usage error that names the path
    taken = tmp_path / "taken"
    taken.write_text("")
    paths = {"missing": tmp_path / "missing", "file": taken}
    code, _, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith(f"oidrd: {tmp_path}") and "Traceback" not in err


def test_audit_all_passes_on_a_correct_build(capsys):
    code, out, _ = run_cli(capsys, "audit", "--all", "--max-n", "5", "--workers", "2")
    assert code == 0
    assert out.count("PASS") == 6


def test_audit_samples_zero_disables_sampling(capsys):
    code, out, _ = run_cli(capsys, "audit", "characterization", "--max-n", "3",
                           "--samples", "0", "--workers", "1", "--json")
    assert code == 0
    assert json.loads(out)["reports"][0]["instances_checked"] == 4


@pytest.mark.parametrize("campaign", ["characterization", "reduction", "trees"])
def test_audit_negative_samples_exit_2(capsys, campaign):
    code, out, err = run_cli(capsys, "audit", campaign, "--samples", "-1", "--workers", "1")
    assert code == 2 and "at least 0" in err and not out


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_audit_workers_below_one_exit_2(capsys, workers):
    code, out, err = run_cli(capsys, "audit", "trees", "--workers", workers)
    assert code == 2 and f"workers must be at least 1, got {workers}" in err and not out


def test_solve_reports_the_nodes_after_the_last_improvement(capsys):
    code, out, _ = run_cli(capsys, "solve", "cycle:9", "--json")
    payload = json.loads(out)
    assert code == 0 and 0 <= payload["proof_node_count"] <= payload["node_count"]
    code, out, _ = run_cli(capsys, "solve", "cycle:9")
    assert code == 0
    assert f"nodes after last improvement: {payload['proof_node_count']}" in out.splitlines()


def test_python_m_oidrd_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-m", "oidrd", "solve", "path:3", "--json"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["gamma_oidr"] == 3


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 1\n1 2"))
    code, out, _ = run_cli(capsys, "solve", "-", "--json")
    assert code == 0
    assert json.loads(out)["gamma_oidr"] == 3


def test_dsl_argument_too_long_for_a_file_name(capsys):
    # 336 characters: the file probe must not raise "File name too long"
    spec = "corona(path:1," * 22 + "path:2" + ")" * 22
    code, out, _ = run_cli(capsys, "generate", spec)
    assert code == 0 and out.startswith("24 ")
    code, _, err = run_cli(capsys, "generate", "kpartite:" + ",".join(["1"] * 130))
    assert code == 2 and "above the solver cap 24" in err


def test_deeply_nested_spec_exits_2(capsys, monkeypatch):
    import io
    spec = "gadget(" * 5000 + "path:1" + ")" * 5000
    monkeypatch.setattr("sys.stdin", io.StringIO(spec))
    code, _, err = run_cli(capsys, "solve", "-")
    assert code == 2 and "graph spec nested too deeply" in err
    for argv in (["solve", spec], ["formula", "gadget(" * 1200 + "path:1" + ")" * 1200]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "graph spec nested too deeply" in err


def test_deep_nesting_is_rejected_in_linear_time(capsys):
    # one scan pairs the parentheses; no level rescans the rest of the spec
    import time
    spec = "gadget(" * 5000 + "path:1" + ")" * 5000
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "generate", spec)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and "graph spec nested too deeply" in err


def test_search_deeper_than_the_recursion_limit_exits_2():
    # the search recurses once per vertex: such a graph is refused up front
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OIDRD_MAX_N="1500", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-m", "oidrd", "solve", "path:1100",
                          "--invariant", "gamma"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and "Traceback" not in out.stderr, out.stderr
    assert "graph has 1100 vertices; the search recurses once per vertex" in out.stderr


def test_unknown_flag_rejected(capsys):
    code = cli.main(["solve", "path:3", "--frobnicate"])
    assert code == 2


def _unreachable(*args, **kwargs):
    raise AssertionError("graph allocated before its size cap was checked")


def test_edge_list_header_is_capped_before_build(capsys, monkeypatch):
    monkeypatch.setattr(G, "build", _unreachable)
    for verb in ("solve", "bounds", "classify", "reduce", "generate"):
        code, _, err = run_cli(capsys, verb, "1000000000 0")
        assert code == 2 and "1000000000 vertices" in err, verb
    code, _, err = run_cli(capsys, "corona", "1000000000 0", "1000000000 0")
    assert code == 2 and "1000000000 vertices" in err


def test_dsl_family_size_is_capped_before_build(capsys, monkeypatch):
    monkeypatch.setattr(G, "family", _unreachable)
    for verb in ("solve", "bounds", "classify", "reduce", "generate"):
        for spec, n in (("complete:100000", 100000),
                        ("gadget(complete:100000)", 400000),
                        ("corona(complete:1000,path:1000)", 1001000)):
            code, _, err = run_cli(capsys, verb, spec)
            assert code == 2 and f"{n} vertices" in err, (verb, spec)
    code, _, err = run_cli(capsys, "corona", "complete:100000", "path:2")
    assert code == 2 and "100000 vertices" in err


def test_corona_order_is_capped_before_build(capsys, monkeypatch):
    monkeypatch.setattr(G, "corona", _unreachable)
    # 10 * (10 + 1) = 110 vertices, above 4 * 24
    code, _, err = run_cli(capsys, "corona", "path:10", "path:10")
    assert code == 2 and "110 vertices" in err
    # the formula itself never builds the corona
    code, out, _ = run_cli(capsys, "corona", "path:2", "path:4")
    assert code == 0 and "c0=6" in out


def test_corona_copy_graph_is_held_to_the_solver_cap(capsys, monkeypatch):
    # the formula solves H on its own, so an H above the solver cap would hang
    monkeypatch.setattr(cli, "corona_value", _unreachable)
    code, _, err = run_cli(capsys, "corona", "path:1", "cycle:40")
    assert code == 2 and "above the solver cap" in err and "40 vertices" in err


def test_edge_list_may_start_with_a_comment(capsys, tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("# a path\n3 2\n0 1\n1 2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", str(f), "--json")
    assert code == 0 and json.loads(out)["gamma_oidr"] == 3


def test_commented_edge_list_header_is_capped_before_build(capsys, monkeypatch):
    monkeypatch.setattr(G, "build", _unreachable)
    code, _, err = run_cli(capsys, "solve", "# c\n100 0")
    assert code == 2 and "100 vertices" in err


_ALL_THREES = {"gamma_oidr": [("3,3,3,3", True)], "gamma_dr": [("3,3,3,3", True)],
               "gamma_oir": [("2,2,2,2", True), ("2,2,2,3", False)],
               "gamma_r": [("2,2,2,2", True), ("3,2,2,2", False)],
               "gamma": [("1,2,0,1", False)], "alpha": [("1,0,2,0", False)],
               "beta": [("3,3,3,3", False)]}


@pytest.mark.parametrize("inv", list(_ALL_THREES))
def test_verify_witness_checks_length_and_range(capsys, inv):
    code, out, err = run_cli(capsys, "solve", "path:4", "--invariant", inv,
                             "--verify-witness", "1,0,1")
    assert code == 2 and "3 values for a graph on 4 vertices" in err and not out
    # a label above the invariant's range makes a labeling invalid: above 1
    # for gamma, alpha and beta, a 3 for gamma_r and gamma_oir
    for labeling, valid in _ALL_THREES[inv]:
        code, out, _ = run_cli(capsys, "solve", "path:4", "--invariant", inv,
                               "--verify-witness", labeling, "--json")
        assert code == 0, labeling
        checked = json.loads(out)["checked_witness"]
        assert checked["valid"] is valid and checked["optimal"] is False, labeling


_IGNORED_OPTIONS = [
    (["audit", "bounds", "--samples", "7"], "audit bounds takes no --samples"),
    (["audit", "sharpness", "--max-n", "9"], "audit sharpness takes no --max-n"),
    (["audit", "forced_ones", "--samples", "3", "--seed", "4"], "audit forced_ones takes no"),
    (["audit", "forced_ones", "--seed", "4"], "audit forced_ones takes no --seed"),
    (["audit", "sharpness", "--workers", "2"], "audit sharpness takes no --workers"),
    (["audit", "--all", "--samples", "3"], "audit --all takes no --samples"),
    (["audit", "trees", "--all"], "a campaign or --all, not both"),
    (["audit"], "audit needs a campaign"),
    (["solve", "path:4", "--invariant", "alpha", "--count-optimal"], "gamma_oidr labelings only"),
    (["solve", "path:4", "--invariant", "bundle", "--count-optimal"], "gamma_oidr labelings only"),
    (["solve", "path:4", "--invariant", "bundle", "--verify-witness", "0,3,3,0"],
     "not bundle"),
]


@pytest.mark.parametrize("argv,message", _IGNORED_OPTIONS,
                         ids=[" ".join(argv) for argv, _ in _IGNORED_OPTIONS])
def test_ignored_options_exit_2(capsys, monkeypatch, argv, message):
    for name in H.CAMPAIGNS:
        monkeypatch.setitem(H.CAMPAIGNS, name, _unreachable)
    monkeypatch.setattr(H, "run_all", _unreachable)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and message in err and not out


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_audit_all_rejects_max_n_below_one_before_any_campaign(capsys, monkeypatch, max_n):
    def unreachable(*args, **kwargs):
        raise AssertionError("a campaign ran before max_n was checked")

    monkeypatch.setattr(H, "audit_bounds", unreachable)
    code, out, err = run_cli(capsys, "audit", "--all", "--max-n", max_n)
    assert code == 2 and "max_n" in err and not out


def _recorder(name, calls):
    # stands in for the campaign, with its signature, and runs nothing
    signature = inspect.signature(H.CAMPAIGNS[name])

    def record(**kwargs):
        bound = signature.bind(**kwargs)
        bound.apply_defaults()
        calls.append((kwargs, bound.arguments))
        return H.AuditReport(name, 0, [], 0, {})
    record.__signature__ = signature
    return record


@pytest.mark.parametrize("campaign", list(H.CAMPAIGNS))
def test_audit_defaults_come_from_the_campaign_signature(capsys, monkeypatch, campaign):
    calls = []
    monkeypatch.setitem(H.CAMPAIGNS, campaign, _recorder(campaign, calls))
    code, out, _ = run_cli(capsys, "audit", campaign)
    assert code == 0 and "PASS" in out
    (kwargs, arguments), = calls
    assert set(kwargs) <= {"workers"}
    if campaign == "trees":
        assert arguments["max_n"] == 10


def test_audit_samples_maps_to_each_campaign_keyword(capsys, monkeypatch):
    keywords = {"characterization": "n7_samples", "reduction": "samples_n5", "trees": "samples"}
    for campaign, keyword in keywords.items():
        calls = []
        monkeypatch.setitem(H.CAMPAIGNS, campaign, _recorder(campaign, calls))
        code, _, _ = run_cli(capsys, "audit", campaign, "--samples", "4", "--seed", "0",
                             "--max-n", "3", "--workers", "1")
        assert code == 0
        assert calls[0][0] == {keyword: 4, "seed": 0, "max_n": 3, "workers": 1}, campaign


# `oidrd bounds --json`, recorded before the CLI and the bounds campaign
# shared one sandwich function
_BOUNDS_GOLDEN = {
    "star:5": dict(n=6, m=5, gamma=1, alpha=5, beta=1, max_degree=5, two_alpha_over_delta=[2, 1],
                   lower_bound=[3, 1], upper_bound=3, gamma_oidr=3),
    "path:6": dict(n=6, m=5, gamma=2, alpha=3, beta=3, max_degree=2, two_alpha_over_delta=[3, 1],
                   lower_bound=[6, 1], upper_bound=9, gamma_oidr=7),
    "cycle:5": dict(n=5, m=5, gamma=2, alpha=2, beta=3, max_degree=2,
                    two_alpha_over_delta=[2, 1], lower_bound=[5, 1], upper_bound=9, gamma_oidr=6),
    "kbipartite:2,3": dict(n=5, m=6, gamma=2, alpha=3, beta=2, max_degree=3,
                           two_alpha_over_delta=[2, 1], lower_bound=[4, 1], upper_bound=6,
                           gamma_oidr=4),
    "corona(path:2,empty:2)": dict(n=6, m=5, gamma=2, alpha=4, beta=2, max_degree=3,
                                   two_alpha_over_delta=[8, 3], lower_bound=[14, 3],
                                   upper_bound=6, gamma_oidr=6),
}


@pytest.mark.parametrize("spec", list(_BOUNDS_GOLDEN))
def test_bounds_json_is_golden(capsys, spec):
    code, out, _ = run_cli(capsys, "bounds", spec, "--json")
    expected = dict(_BOUNDS_GOLDEN[spec], schema="oidrd/1", bounds_hold=True)
    assert code == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def _verbs():
    parser = cli._build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_every_verb_has_a_runner_and_help(capsys):
    verbs = _verbs()
    assert set(verbs) == {"solve", "bounds", "classify", "reduce", "corona", "formula",
                          "generate", "audit"}
    for verb, parser in verbs.items():
        assert callable(parser.get_default("run")), verb
        code, out, _ = run_cli(capsys, verb, "--help")
        assert code == 0 and out.startswith(f"usage: oidrd {verb}"), verb
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: oidrd")


def test_solve_help_lists_every_family_tag(capsys):
    code, out, _ = run_cli(capsys, "solve", "--help")
    assert code == 0 and set(G.FAMILIES) <= set(re.findall(r"\w+", out))
