import json

import pytest

from gtboson import cli
from gtboson.coupling import CouplingTable


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dim(capsys):
    code, out, _ = run_cli(capsys, "dim", "--group", "u3", "--label", "2,1,0")
    assert code == 0 and out == "8\n"


def test_threej_exact_text(capsys):
    code, out, _ = run_cli(capsys, "threej", "--j", "0.5,0.5,0",
                           "--m", "0.5,-0.5,0")
    assert code == 0 and out == "1/1*sqrt(1/2)\n"


def test_patterns_trivial(capsys):
    code, out, _ = run_cli(capsys, "patterns", "--group", "u2",
                           "--label", "0,0")
    assert code == 0 and out.strip().splitlines() == ["0,0;0"]


def test_patterns_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "patterns", "--group", "u3",
                           "--label", "1,1,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3 and len(data["patterns"]) == 3


def test_basis_json_round_trip(capsys):
    from gtboson.basisgen import BasisPolynomial, basis_from_branching

    code, out, _ = run_cli(capsys, "basis", "--pattern", "1,1;1",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["norm_sq"] == "2/1"
    assert data["pattern"] == {"n": 2, "rows": [[1, 1], [1]]}
    b = BasisPolynomial.from_json(data)
    assert b == basis_from_branching([[1, 1], [1]])


def test_pn1(capsys):
    code, out, _ = run_cli(capsys, "pn1", "--pattern", "2,1,0;2,0;1")
    assert code == 0 and out == "2\n"


def test_su3cg_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "su3cg", "--labels", "1,0,0;1,1,0;1,1,1",
                           "--format", "json")
    assert code == 0
    table = CouplingTable.from_json(json.loads(out))
    assert table.rho_count == 1 and len(table.entries) == 3


def test_su3cg_deterministic(capsys):
    args = ("su3cg", "--labels", "2,1,0;2,1,0;2,1,0", "--format", "csv")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_isoscalar(capsys):
    code, out, _ = run_cli(capsys, "isoscalar", "--labels",
                           "1,0,0;1,1,0;1,1,1", "--rows", "1,0;1,0;1,1")
    assert code == 0 and out == "2/1*sqrt(1/6)\n"


def test_internal_disagreement_exits_3(capsys, monkeypatch):
    from gtboson.polyengine import SqrtRational

    monkeypatch.setattr(cli, "racah_threej_oracle",
                        lambda *a: SqrtRational(2))
    code, out, err = run_cli(capsys, "threej", "--j", "0.5,0.5,0",
                             "--m", "0.5,-0.5,0")
    assert code == 3 and out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_invalid_label_names_inequality(capsys):
    code, _, err = run_cli(capsys, "dim", "--group", "u3", "--label", "1,2,0")
    assert code == 1 and "non-increasing" in err


def test_invalid_pattern_rejected(capsys):
    code, _, err = run_cli(capsys, "basis", "--pattern", "2,1;3")
    assert code == 1 and "betweenness" in err


def test_unknown_subcommand_usage_error(capsys):
    code, _, _ = run_cli(capsys, "transmogrify")
    assert code == 2


def test_wrong_group_size(capsys):
    code, _, err = run_cli(capsys, "dim", "--group", "u4", "--label", "2,1,0")
    assert code == 1 and "expected 4" in err


def test_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GTBOSON_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "dim", "--group", "u2", "--label", "3,1",
                           "-o", "dim.txt")
    assert code == 0 and out == ""
    assert (tmp_path / "dim.txt").read_text() == "3\n"


def test_config_sets_default_format(tmp_path, capsys):
    conf = tmp_path / "conf"
    conf.write_text("format=json\n")
    code, out, _ = run_cli(capsys, "--config", str(conf), "dim",
                           "--group", "u2", "--label", "1,0")
    assert code == 0
    assert json.loads(out)["dimension"] == 2


def test_selftest_filter(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--suite", "generating")
    assert code == 0 and "PASS" in out and "ALL SUITES PASS" in out


def test_selftest_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "selftest", "--suite", "nope")
    assert code == 1 and "unknown suite" in err


def test_selftest_reports_injected_fault(capsys, monkeypatch):
    # flipping one golden fixture entry must fail the suite and name the word
    from gtboson import selftest

    monkeypatch.setitem(selftest.GOLDEN_PHI_N3, "101", "y(2,1)*x(3,2)")
    code, out, _ = run_cli(capsys, "selftest", "--suite", "generating")
    assert code == 1 and "FAIL" in out and "101" in out
