import json

import pytest

from gtboson import cli
from gtboson.coupling import coupling_table


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


def test_only_the_named_command_gets_its_arguments():
    parser = cli.build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert list(commands) == list(cli._COMMANDS)
    args = parser.parse_args(["dim", "--label", "2,1,0", "--group", "u3"])
    assert (args.command, args.label, args.group, args.fn) == (
        "dim", "2,1,0", "u3", cli._cmd_dim)


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


def test_patterns_json_is_streamed_with_the_whole_text(tmp_path, capsys):
    # 1,155 patterns give some 25,000 encoder chunks: several write batches
    label = [6, 4, 2, 0]
    pats = cli.enumerate_patterns(label)
    whole = cli._json_text({"label": label, "count": len(pats),
                            "patterns": [p.to_json() for p in pats]})
    argv = ("patterns", "--label", "6,4,2,0", "--format", "json")
    args = cli.build_parser().parse_args(argv)
    assert not isinstance(cli._cmd_patterns(args), str)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == whole
    code, out, _ = run_cli(capsys, *argv, "-o", str(tmp_path / "p.json"))
    assert code == 0 and out == ""
    assert (tmp_path / "p.json").read_text() == whole


def test_patterns_refuses_a_label_over_the_limit(capsys, monkeypatch):
    # 692,680,351 patterns: refused from the Weyl dimension, before any
    # enumeration starts (text and csv stream the row generator, json
    # enumerates the patterns)
    def started(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(cli, "_completed_rows", started)
    monkeypatch.setattr(cli, "enumerate_patterns", started)
    for fmt in ("text", "csv", "json"):
        code, out, err = run_cli(capsys, "patterns", "--label",
                                 "30,20,10,0,0", "--format", fmt)
        assert code == 1 and out == ""
        assert err == ("error: label 30,20,10,0,0 has 692680351 patterns, "
                       "more than the limit of 100000\n")


def test_patterns_text_streams_rows_without_pattern_objects(capsys,
                                                          monkeypatch):
    # the generated rows are written as they come: no pattern is built
    label = [3, 2, 1, 0]
    expect = "".join(cli._rows_text(p.rows) + "\n"
                     for p in cli.enumerate_patterns(label))

    def built(self, rows):
        raise AssertionError("pattern built")

    monkeypatch.setattr(cli.GelfandPattern, "__init__", built)
    code, out, _ = run_cli(capsys, "patterns", "--label", "3,2,1,0")
    assert code == 0 and out == expect
    code, out, _ = run_cli(capsys, "patterns", "--label", "3,2,1,0",
                           "--format", "csv")
    assert code == 0 and out == "pattern\n" + expect


@pytest.mark.parametrize("j, m", [("1000000,1000000,0", "0,0,0"),
                                  ("100,100,1", "0,0,0"),
                                  ("100.5,100,0", "0.5,0,0")])
def test_threej_refuses_a_total_spin_over_the_limit(capsys, monkeypatch, j, m):
    # refused before either 3-j route starts
    def started(*args):
        raise AssertionError("3-j work started")

    monkeypatch.setattr(cli, "su2_threej", started)
    monkeypatch.setattr("gtboson.racah.racah_threej_oracle", started)
    code, out, err = run_cli(capsys, "threej", "--j", j, "--m", m)
    assert code == 1 and out == ""
    assert err.startswith("error: total spin J = ")
    assert err.endswith(" is more than the limit of 200\n")


def test_threej_at_the_total_spin_limit(capsys):
    code, out, _ = run_cli(capsys, "threej", "--j", "100,100,0",
                           "--m", "0,0,0")
    assert code == 0 and out == "1/1*sqrt(1/201)\n"


def test_threej_at_the_limit_with_three_large_spins(capsys):
    # the command checks its value against the Racah oracle (exit 3 if not)
    code, out, err = run_cli(capsys, "threej", "--j", "66,67,67",
                             "--m", "0,0,0")
    assert code == 0 and err == ""
    assert out.startswith("79561804909645898799124620/1*sqrt(1/")


def test_basis_json_round_trip(capsys):
    from gtboson.basisgen import basis_from_branching

    code, out, _ = run_cli(capsys, "basis", "--pattern", "1,1;1",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["norm_sq"] == "2/1"
    assert data["pattern"] == {"n": 2, "rows": [[1, 1], [1]]}
    assert data == basis_from_branching([[1, 1], [1]]).to_json()


def test_pn1(capsys):
    code, out, _ = run_cli(capsys, "pn1", "--pattern", "2,1,0;2,0;1")
    assert code == 0 and out == "2\n"


@pytest.mark.parametrize("argv", [("su3cg",), ("su3cg", "--format", "json"),
                                  ("isoscalar", "--rows", "7,3;7,3;7,3")])
def test_su3_table_over_the_size_limit_is_refused(capsys, monkeypatch, argv):
    # 90*90*90 pattern triples; refused before the table is built
    def started(*args):
        raise AssertionError("table build started")

    monkeypatch.setattr(cli, "coupling_table", started)
    monkeypatch.setattr(cli, "su3_isoscalar", started)
    code, out, err = run_cli(capsys, argv[0], "--labels", "7,3,0;7,3,0;7,3,0",
                             *argv[1:])
    assert code == 1 and out == ""
    assert err == ("error: labels 7,3,0;7,3,0;7,3,0 span 90*90*90 = 729000 "
                   "pattern triples, more than the limit of 262144\n")


def test_su3_table_at_the_size_limit_is_built(capsys, monkeypatch):
    # 64*64*64 pattern triples is the limit itself
    from gtboson.polyengine import SqrtRational

    built = []
    monkeypatch.setattr(cli, "su3_isoscalar",
                        lambda *args: built.append(args) or SqrtRational(1))
    code, out, _ = run_cli(capsys, "isoscalar", "--labels", "6,3,0;6,3,0;6,3,0",
                           "--rows", "6,3;6,3;6,3")
    assert code == 0 and out == "1/1*sqrt(1/1)\n" and len(built) == 1


def test_su3cg_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "su3cg", "--labels", "1,0,0;1,1,0;1,1,1",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rho_count"] == 1 and len(data["entries"]) == 3
    assert data == coupling_table(((1, 0, 0), (1, 1, 0), (1, 1, 1))).to_json()


def test_su3cg_deterministic(capsys):
    args = ("su3cg", "--labels", "2,1,0;2,1,0;2,1,0", "--format", "csv")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_isoscalar(capsys):
    code, out, _ = run_cli(capsys, "isoscalar", "--labels",
                           "1,0,0;1,1,0;1,1,1", "--rows", "1,0;1,0;1,1")
    assert code == 0 and out == "2/1*sqrt(1/6)\n"


@pytest.mark.parametrize("rows, lengths", [
    ("1,0;1,0;1,1;1,0", "[2, 2, 2, 2]"), ("1,0,0;1,0;1,1", "[3, 2, 2]"),
    ("1;1,0;1,1", "[1, 2, 2]"), ("1,0;1,0", "[2, 2]")])
def test_isoscalar_rows_of_the_wrong_shape(capsys, rows, lengths):
    # the library's own message, with exit code 1
    code, out, err = run_cli(capsys, "isoscalar", "--labels",
                             "1,0,0;1,1,0;1,1,1", "--rows", rows)
    assert code == 1 and out == ""
    assert err == ("error: expected three middle rows of two entries, got "
                   f"rows of lengths {lengths}\n")


def test_internal_disagreement_exits_3(capsys, monkeypatch):
    from gtboson.polyengine import SqrtRational

    # `threej` imports the oracle when it runs, so patch it where it lives
    monkeypatch.setattr("gtboson.racah.racah_threej_oracle",
                        lambda *a: SqrtRational(2))
    code, out, err = run_cli(capsys, "threej", "--j", "0.5,0.5,0",
                             "--m", "0.5,-0.5,0")
    assert code == 3 and out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_invalid_label_names_inequality(capsys):
    code, _, err = run_cli(capsys, "dim", "--group", "u3", "--label", "1,2,0")
    assert code == 1 and "non-increasing" in err


@pytest.mark.parametrize("argv", [("pn1",), ("basis",),
                                  ("basis", "--format", "json")])
def test_negative_pattern_entry_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--pattern", "1,0,-1;0,0;0")
    assert code == 1 and out == ""
    assert err == "error: pattern 1,0,-1;0,0;0 has a negative entry: h[3,3]=-1\n"


def test_invalid_pattern_rejected(capsys):
    code, _, err = run_cli(capsys, "basis", "--pattern", "2,1;3")
    assert code == 1 and "betweenness" in err
    code, _, err = run_cli(capsys, "basis", "--pattern", "2,1,0;3,1;1")
    assert code == 1
    assert err == ("error: pattern 2,1,0;3,1;1 violates betweenness: "
                   "h[1,3]=2 >= h[1,2]=3 >= h[2,3]=1\n")


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


def test_flag_beats_config_beats_default(tmp_path, capsys, monkeypatch):
    # format and group from a config file, by --config and by GTBOSON_CONFIG
    conf = tmp_path / "conf"
    conf.write_text("format=json\ngroup=u4\n")
    argv = ("dim", "--label", "1,0")
    for via_env in (False, True):
        if via_env:
            monkeypatch.setenv("GTBOSON_CONFIG", str(conf))
            pre = ()
        else:
            pre = ("--config", str(conf))
        code, out, _ = run_cli(capsys, *pre, *argv, "--format", "text",
                               "--group", "u2")
        assert code == 0 and out == "2\n"
        code, out, err = run_cli(capsys, *pre, *argv, "--group", "u2")
        assert code == 0 and json.loads(out)["dimension"] == 2
        code, out, err = run_cli(capsys, *pre, *argv)
        assert code == 1 and err == ("error: label 1,0 has 2 entries, "
                                     "expected 4 for u4\n")
    # a command without --group ignores the config's group
    code, out, _ = run_cli(capsys, "pn1", "--pattern", "1,0,0;1,0;1")
    assert code == 0 and json.loads(out)["value"] == 1


@pytest.mark.parametrize("argv", [("--help",), ("dim", "--help"),
                                  ("--version",)])
def test_help_and_version_do_not_read_the_config(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, "--config", str(tmp_path), *argv)
    assert code == 0 and out and err == ""


def test_usage_error_is_reported_before_a_config_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--config", str(tmp_path), "dim")
    assert code == 2 and out == ""
    assert err.startswith("usage: gtboson dim ")
    assert err.endswith("error: the following arguments are required: "
                        "--label\n")


def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    for argv in (("dim", "--label", "2,1,0"),
                 ("patterns", "--label", "2,1,0", "--format", "json")):
        code, out, err = run_cli(capsys, *argv, "-o", str(target))
        assert code == 2 and out == "" and not target.exists()
        assert err.startswith("error: cannot write ") and err.count("\n") == 1


# a value outside its choices, then a misspelt key and a line with no "="
_FORMS = "group=..., format=..."


@pytest.mark.parametrize("line, allowed", [
    ("group=u9", "u1, u2, u3, u4, u5"), ("format=xml", "json, csv, text"),
    ("fromat=json", _FORMS), ("nonsense line", _FORMS)])
def test_config_value_outside_choices_is_a_usage_error(tmp_path, capsys, line,
                                                       allowed):
    conf = tmp_path / "conf"
    conf.write_text(line + "\n")
    code, out, err = run_cli(capsys, "--config", str(conf), "dim",
                             "--label", "2,1,0")
    assert code == 2 and out == ""
    assert err == f"error: config {line} is not one of {allowed}\n"


def test_config_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a directory, then a missing file named by --config and by GTBOSON_CONFIG
    for path, via_env in ((tmp_path, False), (tmp_path / "missing", False),
                          (tmp_path / "missing", True)):
        if via_env:
            monkeypatch.setenv("GTBOSON_CONFIG", str(path))
            argv = ("dim", "--label", "2,1,0")
        else:
            argv = ("--config", str(path), "dim", "--label", "2,1,0")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read config {path}: ")
        assert err.count("\n") == 1


def test_config_undecodable_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "conf"
    conf.write_bytes(b"format=json\n\xff\n")
    code, out, err = run_cli(capsys, "--config", str(conf), "dim",
                             "--label", "2,1,0")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read config {conf}: ")
    assert "codec" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("dim", "--label", "1,a"),
    ("patterns", "--label", "2,,0"),
    ("basis", "--pattern", "2,1,0;2,x;1"),
    ("pn1", "--pattern", "2,1,0;2,0;"),
    ("threej", "--j", "1,1,x", "--m", "0,0,0"),
    ("threej", "--j", "1,1,1", "--m", "0,1/0,0"),
    ("su3cg", "--labels", "1,0,0;1,1,0;1,1,q"),
    ("isoscalar", "--labels", "1,0,0;1,1,0;1,1,1", "--rows", "1,0;1,0;1,z"),
    # `int` and `Fraction` alone accept underscores, non-ASCII digits,
    # spaces and exponents
    ("dim", "--label", "1_0,0,0"),
    ("dim", "--label", "\u0662,1,0"),
    ("dim", "--label", " 2, 1 ,0"),
    ("threej", "--j", "1_0,10,0", "--m", "0,0,0"),
    ("threej", "--j", "1e0,1,0", "--m", "0,0,0"),
    ("threej", "--j", "1e6,1e6,0", "--m", "0,0,0"),
    ("isoscalar", "--labels", "2,1,0;2,1,0;2,1,0", "--rows", "2,0;2,0;2,0",
     "--rho", "1_0"),
])
def test_malformed_number_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: malformed number list ")
    assert err.count("\n") == 1


# a token of 4,301 digits: one more than Python's default int-to-text limit
_LONG = "1" + "0" * 4300


@pytest.mark.parametrize("argv", [
    ("dim", "--label", _LONG + ",0"),
    ("patterns", "--label", "5," + _LONG),
    ("threej", "--j", _LONG + ",1,1", "--m", "0,0,0"),
    ("threej", "--j", "1,1,0", "--m", "0,0," + _LONG + "/2"),
    ("isoscalar", "--labels", "1,0,0;1,1,0;1,1,1", "--rows", "1,0;1,0;1,1",
     "--rho", _LONG),
])
def test_a_number_past_the_digit_limit_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (
        2, "", "error: number of more than 4300 digits\n")


def test_a_number_at_the_digit_limit_is_read(capsys):
    code, out, _ = run_cli(capsys, "dim", "--label", _LONG[:-1] + ",0")
    assert code == 0 and out == _LONG[:-2] + "1\n"


def test_outputs_past_the_digit_limit_are_printed_whole(capsys):
    # (1000!)^2 has 5,136 digits and C(50000, 25000) 15,050; the int-to-text
    # limit is lifted while the command runs and restored after
    import math
    import sys

    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "basis", "--pattern", "2000,0;1000")
    sys.set_int_max_str_digits(0)
    try:
        norm = f"norm_sq={math.factorial(1000) ** 2}/1\n"
        value = str(math.comb(50000, 25000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "") and out.endswith("\n" + norm)
    pattern = "100000,0,0;50000,0;25000"
    code, out, err = run_cli(capsys, "pn1", "--pattern", pattern)
    assert (code, out, err) == (0, value + "\n", "")
    code, out, err = run_cli(capsys, "pn1", "--pattern", pattern,
                             "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out, parse_int=str)["value"] == value
    assert sys.get_int_max_str_digits() == limit


def test_selftest_filter(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--suite", "generating")
    assert code == 0 and "PASS" in out and "ALL SUITES PASS" in out


def test_suite_choices_are_the_selftest_suites():
    # the CLI names the suites without importing selftest at start-up
    from gtboson import selftest

    assert cli._SUITES == tuple(selftest.SUITES)


def test_selftest_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "selftest", "--suite", "nope")
    assert code == 2 and "invalid choice" in err and "nope" in err


def test_selftest_reports_injected_fault(capsys, monkeypatch):
    # flipping one golden fixture entry must fail the suite and name the word
    from gtboson import selftest

    monkeypatch.setitem(selftest.GOLDEN_PHI_N3, "101", "y(2,1)*x(3,2)")
    code, out, _ = run_cli(capsys, "selftest", "--suite", "generating")
    assert code == 1 and "FAIL" in out and "101" in out


# (suite, module, name, how the name is replaced, expected FAIL line)
_INJECTED = [
    ("dimensions", "gelfand", "weyl_dimension",
     lambda f: lambda l: f(l) + (l.h == (2, 1, 0)),
     "dimension-enumeration: 49 checks (mismatch at IrrepLabel[2, 1, 0])"),
    ("generating", "selftest", "GOLDEN_PHI_N4",
     lambda golden: {**golden, "1010": "y(4,2)"},
     "generating-function-fixtures: 15 checks "
     "(word 1010: x(3,2)*y(2,1)*y(4,2) != y(4,2))"),
    ("orthonormality", "oracles", "norm_sq_u3",
     lambda f: lambda p: f(p) + (p.top == (2, 1, 0)),
     "orthonormality: 623 checks (U(3) norm formula at "
     "GelfandPattern([[2, 1, 0], [2, 1], [2]]))"),
    # a wrong stored norm names its pattern too
    ("orthonormality", "selftest", "bargmann_inner",
     lambda f: lambda p, q: f(p, q) + (p is q),
     "orthonormality: 0 checks (stored norm at GelfandPattern([[4, 4], [4]]))"),
    ("closedforms", "oracles", "norm_sq_u3_hypergeometric",
     lambda f: lambda p: f(p) + 1,
     "closed-forms: 1 checks (2F1 norm GelfandPattern([[2, 1, 0], [2, 1], [2]]))"),
    # the fault is first hit in the n = 5 sweep, after one of its checks passed
    ("pn1", "basisgen", "p_n_1",
     lambda f: lambda p: f(p) + (p.n == 5),
     "pn1: 5411 checks (pn1 mismatch at "
     "GelfandPattern([[0, 0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0], [0, 0], [0]]))"),
    ("u4indices", "oracles", "u4_free_index_count",
     lambda f: lambda p: f(p) - (p.top == (2, 1, 1, 0)),
     "u4-free-indices: 65 checks "
     "(GelfandPattern([[2, 1, 1, 0], [2, 1, 1], [2, 1], [2]]))"),
    ("su2", "oracles", "racah_threej_oracle",
     lambda f: lambda *jm: f(*jm) * (-1 if jm[0] == 1 else 1),
     "su2-threej: 209 checks ((2, -2, 0, 0, 2, 2))"),
    ("su3", "coupling", "su3_isoscalar",
     lambda f: lambda labels, rows, rho: (
         f(labels, rows, rho) * (-1 if labels[2] == (2, 1, 0) else 1)),
     "su3-coupling: 244 checks (factorization (((1, 0, 0), (0, 0), (0,)), "
     "((1, 1, 0), (1, 0), (0,)), ((2, 1, 0), (2, 1), (2,)), 1))"),
    ("kernel", "oracles", "const_A",
     lambda f: lambda l: f(l) * (2 if l.h == (2, 1) else 1),
     "kernel-identity: 3 checks (label IrrepLabel[2, 1])"),
]


def _case_ids(cases):
    """The suite name, with the replaced name added after its first case."""
    seen = set()
    for suite, _, name, _, _ in cases:
        yield f"{suite}-{name}" if suite in seen else suite
        seen.add(suite)


@pytest.mark.parametrize("suite, module, name, replace, line", _INJECTED,
                         ids=list(_case_ids(_INJECTED)))
def test_selftest_reports_a_fault_in_every_suite(capsys, monkeypatch, suite,
                                                 module, name, replace, line):
    # one wrong route or fixture per suite: the suite fails, names the failing
    # input and counts every check that passed before it
    import importlib

    mod = importlib.import_module(f"gtboson.{module}")
    monkeypatch.setattr(mod, name, replace(getattr(mod, name)))
    code, out, _ = run_cli(capsys, "selftest", "--suite", suite)
    assert code == 1
    assert out == f"FAIL  {line}\nSUITE FAILURES PRESENT\n"
