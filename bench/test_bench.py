"""Tests of the benchmark itself: seeded op lists and the exact checks.

Each workload's check must accept the program's real output and reject the
same output with one value corrupted.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

import pytest

pytest.importorskip("sympy")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import gtboson  # noqa: E402
import gtboson.cli  # noqa: E402

import checks  # noqa: E402
import genops  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

OCTETS = ((2, 1, 0), (2, 1, 0), (2, 1, 0))


def _stream(pools, deck, seed, n=60, pin_top=False):
    return list(itertools.islice(genops.decks(pools, deck, seed, pin_top), n))


# -- seeded inputs ------------------------------------------------------------


def test_pools_have_the_documented_sizes():
    assert len(genops.su3_build_ops(1)) == 183
    assert len(genops.labels(4, 4)) == 34
    assert len(genops.basis_u4_ops(1)) == 2099


@pytest.mark.parametrize("make", [genops.su3_build_ops, genops.basis_u4_ops])
def test_same_seed_same_ops_other_seed_other_order(make):
    a, b, c = make(7), make(7), make(8)
    assert a == b
    assert a != c
    assert sorted(map(repr, a)) == sorted(map(repr, c))


def test_streams_are_seeded():
    q = genops.su3_query_pools()
    deck = genops.QUERY_DECK
    assert _stream(q, deck, 3) == _stream(q, deck, 3)
    assert _stream(q, deck, 3) != _stream(q, deck, 4)
    c = genops.cli_pools(3)
    assert c == genops.cli_pools(3)
    assert c["threej"] != genops.cli_pools(4)["threej"]
    assert _stream(c, genops.CLI_DECK, 3) != _stream(c, genops.CLI_DECK, 4)


@pytest.mark.parametrize("name", ["query", "cli"])
def test_stream_keeps_the_deck_mix(name):
    pools, deck = ((genops.su3_query_pools(), genops.QUERY_DECK)
                   if name == "query" else
                   (genops.cli_pools(1), genops.CLI_DECK))
    ops = _stream(pools, deck, 1, n=3 * sum(deck.values()))
    assert {k: sum(op[0] == k for op in ops) for k in deck} == {
        k: 3 * v for k, v in deck.items()}


def test_pinned_top_draw_is_the_dearest_input():
    c = genops.cli_pools(2)
    deck = _stream(c, genops.CLI_DECK, 2, n=sum(genops.CLI_DECK.values()),
                   pin_top=True)
    assert all(pool[-1] in deck for pool in c.values())


def test_cli_deck_gives_every_command_an_equal_share():
    assert set(genops.CLI_DECK) == set(genops.cli_pools(1))
    assert len(set(genops.CLI_DECK.values())) == 1
    assert sum(genops.CLI_DECK.values()) >= run.MIN_OPS


def test_racah_threej_matches_sympy():
    for args in itertools.product(range(5), range(-4, 5), range(5),
                                  range(-4, 5), range(5)):
        tj1, tm1, tj2, tm2, tj3 = args
        for tm3 in (-tm1 - tm2, 1 - tm1 - tm2):
            a = (tj1, tm1, tj2, tm2, tj3, tm3)
            assert genops.threej(*a) == checks.threej(*a), a
    a = (60, 2, 58, -4, 40, 2)
    assert genops.threej(*a) == checks.threej(*a)


# -- corrupted values are failures --------------------------------------------


def _negate(v):
    return (-v[0], v[1])


def test_su3_build_check_rejects_a_flipped_sign():
    table = gtboson.coupling_table(OCTETS)
    entries = checks.table_entries(table)
    assert checks.table_problems(OCTETS, entries, table.rho_count) == []
    key = sorted(entries)[5]
    bad = entries | {key: _negate(entries[key])}
    assert checks.table_problems(OCTETS, bad, table.rho_count)
    scaled = entries | {key: (entries[key][0] * 2, entries[key][1])}
    assert checks.table_problems(OCTETS, scaled, table.rho_count)


class _Value:
    def __init__(self, q, r):
        self.q, self.r = q, r


def test_su3_query_check_rejects_each_corrupted_read():
    fixtures = {t: gtboson.coupling_table(t) for t in genops.QUERY_TABLES}
    pools = genops.su3_query_pools()
    run_op = worker._executor(gtboson)
    done = [next((op, v) for op in pools[kind] if (v := run_op(op)).q)
            for kind in ("wigner", "isoscalar", "threej")]
    assert worker._check_queries(done, fixtures) == [True, True, True]
    for i in range(len(done)):
        bad = list(done)
        op, v = bad[i]
        bad[i] = (op, _Value(-v.q, v.r))
        verdicts = worker._check_queries(bad, fixtures)
        assert verdicts[i] is False


def test_a_corrupted_repeat_read_is_checked_on_its_own():
    outputs = worker.Outputs()
    run_op = worker._executor(gtboson)
    op, good = next((op, v) for op in genops.su3_query_pools()["threej"]
                    if (v := run_op(op)).q)
    for out in (good, good, _Value(-good.q, good.r), good):
        outputs.add(op, out)
    done, weights = outputs.weighted()
    assert outputs.n == 4 and weights == [3, 1]
    assert worker._check_queries(done, {}) == [True, False]


def test_su3_query_block_check_rejects_a_non_unit_block():
    t = genops.QUERY_TABLES[0]
    table = gtboson.coupling_table(t)
    balanced = genops.balanced_keys(t)
    p3 = balanced[0][2]
    keys = [k + (1,) for k in balanced if k[2] == p3]
    reads = {k: [(i, (table.value(k[:3], 1).q, table.value(k[:3], 1).r))]
             for i, k in enumerate(keys)}
    assert worker._bad_blocks(t, reads) == []
    k0 = next(k for k in keys if reads[k][0][1][0])
    reads[k0] = [(0, (reads[k0][0][1][0] * 2, reads[k0][0][1][1]))]
    assert worker._bad_blocks(t, reads)


def test_basis_u4_check_rejects_a_flipped_sign():
    pats = genops.patterns((2, 1, 1, 0))
    done = [(["basis", [list(r) for r in p]],
             gtboson.basis_from_branching(p)) for p in pats]
    assert all(worker._check_bases(done, gtboson, {}))
    op, b = done[3]
    terms = dict(b.poly.terms)
    m = next(iter(terms))
    terms[m] = -terms[m]
    bad = gtboson.BasisPolynomial(b.pattern, gtboson.ExactPoly(terms),
                                  b.norm_sq)
    verdicts = worker._check_bases(done[:3] + [(op, bad)] + done[4:],
                                   gtboson, {})
    assert verdicts[3] is False and verdicts.count(False) == 1


def _cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = gtboson.cli.run(args)
    return rc, buf.getvalue()


CLI_CASES = [
    (["su3cg", "--labels", "2,1,0;2,1,0;2,1,0", "--format", "text"],
     lambda s: s.replace("| 1/", "| -1/", 1)),
    (["su3cg", "--labels", "1,0,0;1,0,0;2,2,0", "--format", "json"],
     lambda s: s.replace('"q": "', '"q": "-', 1)),
    (["su3cg", "--labels", "2,1,0;1,0,0;1,1,0", "--format", "csv"],
     lambda s: s.replace(",1/", ",-1/", 1)),
    (["basis", "--pattern", "2,1,0,0;2,1,0;1,1;1"],
     lambda s: "-" + s),
    (["basis", "--pattern", "2,1,0;2,0;1"], lambda s: "-" + s),
    (["threej", "--j=3/2,1,1/2", "--m=-1/2,1,-1/2"],
     lambda s: s[1:] if s.startswith("-") else "-" + s),
    (["isoscalar", "--labels", "2,1,0;2,1,0;2,1,0", "--rows", "2,0;2,0;2,0",
      "--rho", "2"], lambda s: s[1:] if s.startswith("-") else "-" + s),
    (["patterns", "--label", "2,1,0,0", "--format", "text"],
     lambda s: s.split("\n", 1)[1]),
    (["patterns", "--label", "2,1,0", "--format", "json"],
     lambda s: s.replace('"count": 8', '"count": 9')),
    (["dim", "--label", "2,1,0,0"], lambda s: "16\n"),
]


@pytest.mark.parametrize("args,corrupt", CLI_CASES,
                         ids=[c[0][0] for c in CLI_CASES])
def test_cli_check_rejects_a_corrupted_output(args, corrupt):
    rc, out = _cli(args)
    assert rc == 0
    bad = corrupt(out)
    assert bad != out
    assert run.cli_verdicts([(args, rc, out), (args, rc, bad),
                             (args, 1, out)]) == [True, False, False]


def test_cli_pools_are_valid_commands():
    pools = genops.cli_pools(1)
    sample = [ops[0] for ops in pools.values()]
    done = [(a, *_cli(a)) for a in sample]
    assert run.cli_verdicts(done) == [True] * len(done)


# -- peak RSS -------------------------------------------------------------------

_OWN_PEAK = "import procs; print(procs.peak_rss_kb())"


def test_child_peak_rss_excludes_the_parent(tmp_path):
    """Under a parent far larger than any child, a CLI child started by the
    spawner reports its own peak, as a workload process reading its own
    VmHWM does; a child started directly would report the parent's."""
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    ballast = b"x" * (96 << 20)
    parent_kb = procs.peak_rss_kb()
    assert parent_kb > 96 << 10
    env = dict(os.environ, PYTHONPATH=bench_dir)
    with procs.Spawner(env, str(tmp_path), str(tmp_path)) as sp:
        rc, out, _, _, reported = sp.run(
            [sys.executable, "-c", _OWN_PEAK], 60)
        bare = sp.run([sys.executable, "-c", "pass"], 60)
        killed = sp.run([sys.executable, "-c", "import time; time.sleep(30)"],
                        1)
    assert rc == 0 and bare[0] == 0
    own = int(out)
    assert abs(reported - own) < 1024
    assert abs(bare[4] - own) < 2048
    assert reported < parent_kb / 3
    assert killed[0] < 0
    direct = subprocess.run([sys.executable, "-c", _OWN_PEAK], env=env,
                            capture_output=True, text=True, check=True)
    assert abs(int(direct.stdout) - own) < 2048
    del ballast


# -- tracer -------------------------------------------------------------------


def test_tracer_restores_originals_and_counts_layers():
    before = (gtboson.polyengine.ExactPoly.__mul__,
              gtboson.coupling.bargmann_inner, gtboson.coupling_table)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert gtboson.coupling.bargmann_inner is not before[1]
        gtboson.su2_threej([[2, 0], [1]], [[2, 0], [1]], [[0, 0], [0]])
        gtboson.bargmann_inner(gtboson.ExactPoly.const(2),
                               gtboson.ExactPoly.const(3))
    finally:
        tracer.uninstall()
    after = (gtboson.polyengine.ExactPoly.__mul__,
             gtboson.coupling.bargmann_inner, gtboson.coupling_table)
    assert after == before
    s = tracer.summary()
    assert s["calls"]["su2_threej"] == 1
    assert s["groups"]["polyengine.pair"]["calls"] == 1
    assert s["extra"]["pair_nonzero"] == 1
    total = sum(g["self_s"] for g in s["groups"].values())
    roots = [i for i in range(s["spans"]) if tracer.parent[i] < 0]
    wall = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert total == pytest.approx(wall)


def test_caches_are_found_without_names():
    found = spans.find_caches()
    assert "gtboson.coupling._table_cached" in found
    assert all(callable(f.cache_info) for f in found.values())


# -- the command itself ---------------------------------------------------------


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "su3-build", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(SRC), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_hd_quantile_moves_smoothly_across_a_gap():
    low, high = [1.0] * 50 + [2.0] * 51, [1.0] * 51 + [2.0] * 50
    assert statistics.median(low) == 2.0 and statistics.median(high) == 1.0
    assert abs(run.hd_quantile(low, 0.5) - run.hd_quantile(high, 0.5)) < 0.1
    assert run.hd_quantile(range(1, 102), 0.5) == pytest.approx(51)
    assert 89 < run.hd_quantile(range(1, 102), 0.9) < 92


def test_exact_helpers():
    assert checks.parse_sqrt("-3/4*sqrt(1/2)") == (Fraction(-3, 4),
                                                    Fraction(1, 2))
    half = (Fraction(1), Fraction(1, 2))
    assert checks.inner_is_zero([(half, half), (_negate(half), half)])
    assert not checks.inner_is_zero([(half, half)])
    assert checks.threej(1, 1, 1, -1, 0, 0) == (1, Fraction(1, 2))
