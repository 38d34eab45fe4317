import json

import pytest

from oidrd import cli
from oidrd import graphs as G


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


def test_edge_list_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 2
    assert "expected 2 edges, found 1" in err


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


def test_audit_all_passes_on_a_correct_build(capsys):
    code, out, _ = run_cli(capsys, "audit", "--all", "--max-n", "5", "--workers", "2")
    assert code == 0
    assert out.count("PASS") == 6


def test_audit_samples_zero_disables_sampling(capsys):
    code, out, _ = run_cli(capsys, "audit", "characterization", "--max-n", "3",
                           "--samples", "0", "--workers", "1", "--json")
    assert code == 0
    assert json.loads(out)["reports"][0]["instances_checked"] == 4


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 1\n1 2"))
    code, out, _ = run_cli(capsys, "solve", "-", "--json")
    assert code == 0
    assert json.loads(out)["gamma_oidr"] == 3


def test_unknown_flag_rejected(capsys):
    code = cli.main(["solve", "path:3", "--frobnicate"])
    assert code == 2


def _unreachable(*args, **kwargs):
    raise AssertionError("graph allocated before its size cap was checked")


def test_edge_list_header_is_capped_before_build(capsys, monkeypatch):
    monkeypatch.setattr(G, "build", _unreachable)
    for verb in ("solve", "bounds", "classify", "reduce"):
        code, _, err = run_cli(capsys, verb, "1000000000 0")
        assert code == 2 and "1000000000 vertices" in err, verb
    code, _, err = run_cli(capsys, "corona", "1000000000 0", "1000000000 0")
    assert code == 2 and "1000000000 vertices" in err


def test_corona_order_is_capped_before_build(capsys, monkeypatch):
    monkeypatch.setattr(G, "corona", _unreachable)
    # 10 * (10 + 1) = 110 vertices, above 4 * 24
    code, _, err = run_cli(capsys, "corona", "path:10", "path:10")
    assert code == 2 and "110 vertices" in err
    # the formula itself never builds the corona
    code, out, _ = run_cli(capsys, "corona", "path:2", "path:4")
    assert code == 0 and "c0=6" in out
