#!/usr/bin/env python3
"""gtboson benchmark: four seeded workloads, exact checks, calibrated timing.

Run from the repository root:

    python3 bench/run.py --workload su3-build --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1      # all four, untraced

--trace 0 measures the end-to-end metrics (setup_s, ops_per_s,
latency_p50_s, latency_p90_s, peak_rss_mb; error_rate is printed too);
--trace 1 runs the same ops untraced and then traced, and reports the
per-layer metrics.  Every op's output is checked exactly after the timed
phase.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.  A record with the environment, op mix and wall-clock
figures goes to .bench_out/.  See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import checks  # noqa: E402
import genops  # noqa: E402
import procs  # noqa: E402

WORKLOADS = ("su3-build", "su3-query", "basis-u4", "cli-oneshot")
MIN_OPS = 100          # at least ten latency samples beyond p90
CLI_DECK_LEN = sum(genops.CLI_DECK.values())
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
TRACE_MARK = "@@trace "

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
              "latency_p90_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "polyengine.mul_s": "s/op", "polyengine.mul_calls": "count/op",
    "polyengine.mul_terms_out": "count/op",
    "polyengine.pair_s": "s/op", "polyengine.pair_calls": "count/op",
    "polyengine.pair_nonzero_share": "share",
    "polyengine.extract_s": "s/op",
    "polyengine.extract_terms_scanned": "count/op",
    "polyengine.extract_yield": "share",
    "polyengine.minor_s": "s/op", "polyengine.minor_calls": "count/op",
    "polyengine.sqrt_s": "s/op", "polyengine.sqrt_calls": "count/op",
    "gelfand.self_s": "s/op", "gelfand.pattern_builds": "count/op",
    "gelfand.weight_calls": "count/op",
    "basisgen.self_s": "s/op", "basisgen.basis_calls": "count/op",
    "basisgen.kernel_builds": "count/op", "basisgen.kernel_reuse": "ratio",
    "coupling.self_s": "s/op", "coupling.table_builds": "count/op",
    "coupling.table_entries": "count/op", "coupling.balanced_share": "share",
    "coupling.query_calls": "count/op", "coupling.threej_calls": "count/op",
    "cli.startup_s": "s/op", "cli.self_s": "s/op", "cli.output_bytes": "B/op",
    "cache.hits": "count/op", "cache.misses": "count/op",
    "cache.entries": "count",
    "trace.overhead_share": "share",
}


class Bench:
    def __init__(self, root: Path, seed: int, seconds: float):
        self.root, self.seed, self.seconds = root, seed, seconds
        self.out = root / ".bench_out"
        self.out.mkdir(exist_ok=True)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    @functools.cached_property
    def spawner(self) -> procs.Spawner:
        """Starts every CLI process, so that its peak RSS is its own."""
        return procs.Spawner(self.env, str(self.root), str(self.out))

    def close(self) -> None:
        if "spawner" in self.__dict__:
            self.spawner.close()

    # -- in-process workloads ---------------------------------------------------

    def spawn(self, spec: dict) -> dict:
        """Run one worker process; its set-up time runs from just before the
        spawn to its first timed op."""
        p_before = calib.probe()
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=json.dumps(spec), capture_output=True,
                              text=True, env=self.env, cwd=self.root,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed:\n{proc.stderr[-3000:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        wall = res["ready"] - t_spawn
        res["setup"] = (calib.scale(wall, p_before, res["probe_ready"],
                                    res["user_ready"]), wall)
        return res

    def phase(self, workload: str, budget: float, trace: bool,
              repeat: int | None = None,
              spans_path: str | None = None) -> list[dict]:
        """Worker runs for one phase.  su3-build and basis-u4 run whole
        passes over their op list, one fresh process per pass, until the
        budget is about used (or `repeat` passes); su3-query streams reads
        in one process for `budget` seconds (or `repeat` ops)."""
        spec = {"workload": workload, "mode": "run", "trace": trace,
                "seed": self.seed, "spans_path": spans_path}
        if workload == "su3-query":
            spec["pools"] = self.query_pools
            if repeat is None:
                spec.update(seconds=budget, min_ops=MIN_OPS)
            else:
                spec["max_ops"] = repeat
            return [self.spawn(spec)]
        spec["ops"] = (genops.su3_build_ops(self.seed)
                       if workload == "su3-build"
                       else genops.basis_u4_ops(self.seed))
        runs, elapsed = [], 0.0
        while True:
            runs.append(self.spawn(spec))
            elapsed += runs[-1]["wall_total"]
            if repeat is not None:
                if len(runs) >= repeat:
                    return runs
            elif elapsed * (1 + 0.5 / len(runs)) >= budget:
                return runs

    @functools.cached_property
    def query_pools(self) -> dict:
        return genops.su3_query_pools()

    def setup_samples(self, workload: str, runs: list[dict]) -> list:
        """(calibrated, wall) set-up times: the measured workers', topped up
        with processes that stop at their first op."""
        samples = [r["setup"] for r in runs]
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.spawn({"workload": workload,
                                       "mode": "setup"})["setup"])
        return samples

    # -- cli-oneshot ------------------------------------------------------------

    def cli(self, args, traced: bool = False, spans_path: str = ""):
        """Run one CLI process; returns exit code, stdout, stderr, the
        child's user CPU time and its peak RSS in KiB."""
        head = ([str(BENCH / "cli_child.py"), spans_path] if traced
                else ["-m", "gtboson.cli"])
        return self.spawner.run([sys.executable, *head, *args],
                                CHILD_TIMEOUT_S)

    def cli_setup_samples(self) -> list:
        """(calibrated, wall) set-up times of cli-oneshot: a bare
        `--version` process."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            p_a = calib.probe()
            t0 = time.perf_counter()
            rc, _, _, user, _ = self.cli(["--version"])
            wall = time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError("gtboson.cli --version failed")
            samples.append((calib.scale(wall, p_a, calib.probe(), user),
                            wall))
        return samples

    def cli_phase(self, budget: float | None, count: int | None = None,
                  traced: bool = False, spans_path: str = "") -> dict:
        """Closed loop of fresh CLI processes, one at a time, in whole
        decks until `budget` seconds have passed (or `count` ops)."""
        pools = genops.cli_pools(self.seed)
        stream = genops.decks(pools, genops.CLI_DECK, self.seed, pin_top=True)
        timeline = calib.Timeline()
        done, traces, maxrss = [], [], 0
        t0 = time.perf_counter()
        for args in stream:
            token = timeline.start()
            rc, out, err, user, rss = self.cli(args, traced, spans_path)
            timeline.op_done(token, user)
            maxrss = max(maxrss, rss)
            last = err.rstrip().rpartition("\n")[2]
            if traced and last.startswith(TRACE_MARK):
                traces.append((len(done), json.loads(last[len(TRACE_MARK):])))
            done.append((args, rc, out))
            if count is not None and len(done) >= count:
                break
            if (count is None and len(done) % CLI_DECK_LEN == 0
                    and time.perf_counter() - t0 >= budget):
                break
        timeline.close()
        ok = cli_verdicts(done)
        wall_ops, cal_ops = timeline.wall_ops, timeline.cal_ops
        for i, tr in traces:
            tr["cal_factor"] = cal_ops[i] / wall_ops[i]
        return {"ops": len(done), "failed": ok.count(False),
                "op_kinds": [a[0] for a, _, _ in done],
                "repeat_share": genops.repeat_share([a for a, _, _ in done]),
                "wall_ops": wall_ops, "cal_ops": cal_ops,
                "wall_total": timeline.wall_total,
                "cal_total": timeline.cal_total, "maxrss_kb": maxrss,
                "traces": [tr for _, tr in traces]}

    def bare_child_rss_mb(self) -> float:
        """Peak RSS a `python -c pass` child reports when started the way
        the CLI ops are: the floor under cli-oneshot's peak_rss_mb."""
        rc, _, _, _, rss = self.spawner.run([sys.executable, "-c", "pass"],
                                            CHILD_TIMEOUT_S)
        if rc != 0:
            raise RuntimeError("python -c pass failed")
        return rss / 1024

    # -- runs -----------------------------------------------------------------

    def end_to_end(self, workload: str) -> tuple[dict, dict]:
        if workload == "cli-oneshot":
            setups = self.cli_setup_samples()
            m = self.cli_phase(self.seconds)
            m["bare_child_rss_mb"] = self.bare_child_rss_mb()
        else:
            runs = self.phase(workload, self.seconds, trace=False)
            m = merge(runs)
            setups = self.setup_samples(workload, runs)
        cal = timing_metrics(m["cal_ops"], m["cal_total"], m)
        wall = timing_metrics(m["wall_ops"], m["wall_total"], m)
        wall["setup_s"] = statistics.median(s[1] for s in setups)
        metrics = {"setup_s": statistics.median(s[0] for s in setups), **cal,
                   "peak_rss_mb": m["maxrss_kb"] / 1024}
        by_kind: dict[str, list[float]] = {}
        for k, lat in zip(m["op_kinds"], m["cal_ops"]):
            by_kind.setdefault(k, []).append(lat)
        info = {"setup_samples_s": [s[0] for s in setups],
                "wall_clock": wall,
                "latency_p50_s_by_kind": {k: hd_quantile(v, 0.5)
                                          for k, v in sorted(by_kind.items())}}
        if "bare_child_rss_mb" in m:
            info["bare_child_rss_mb"] = m["bare_child_rss_mb"]
        if "nonorthogonal_pairs" in m:
            info["known_defect_nonorthogonal_pairs"] = m["nonorthogonal_pairs"]
        return m, {"metrics": metrics, "info": info}

    def per_layer(self, workload: str) -> tuple[dict, dict]:
        spans_path = str(self.out / f"spans-{workload}-seed{self.seed}.tsv.gz")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        half = self.seconds / 2
        if workload == "cli-oneshot":
            plain = self.cli_phase(half)
            traced = self.cli_phase(None, count=plain["ops"], traced=True,
                                    spans_path=spans_path)
            procs = [dict(t, cli=True) for t in traced["traces"]]
        else:
            plain_runs = self.phase(workload, half, trace=False)
            plain = merge(plain_runs)
            repeat = (plain["ops"] if workload == "su3-query"
                      else len(plain_runs))
            runs = self.phase(workload, half, trace=True, repeat=repeat,
                              spans_path=spans_path)
            traced = merge(runs)
            procs = [dict(r["trace"], caches_before=r["caches_before"],
                          caches_after=r["caches_after"],
                          cal_factor=r["cal_total"] / r["wall_total"])
                     for r in runs]
        overhead = 1 - rate(traced) / rate(plain)
        caches = cache_deltas(procs)
        metrics = layer_metrics(procs, caches, traced["ops"], overhead)
        info = {"caches": caches, "spans_file": os.path.relpath(
            spans_path, self.root), "spans": sum(p["spans"] for p in procs)}
        merged = {k: plain[k] + traced[k] for k in ("ops", "failed")}
        merged.update(op_kinds=traced["op_kinds"],
                      repeat_share=traced["repeat_share"])
        return merged, {"metrics": metrics, "info": info}


def merge(runs: list[dict]) -> dict:
    m = {"ops": sum(r["ops"] for r in runs),
         "failed": sum(r["failed"] for r in runs),
         "wall_ops": [x for r in runs for x in r["wall_ops"]],
         "cal_ops": [x for r in runs for x in r["cal_ops"]],
         "wall_total": sum(r["wall_total"] for r in runs),
         "cal_total": sum(r["cal_total"] for r in runs),
         "maxrss_kb": max(r["maxrss_kb"] for r in runs),
         "op_kinds": [k for r in runs for k in r["op_kinds"]]}
    m["repeat_share"] = sum(r["repeat_share"] * r["ops"]
                            for r in runs) / m["ops"]
    if any("nonorthogonal_pairs" in r for r in runs):
        m["nonorthogonal_pairs"] = max(r["nonorthogonal_pairs"] for r in runs)
    return m


def rate(m: dict) -> float:
    return (m["ops"] - m["failed"]) / m["cal_total"]


def timing_metrics(latencies, total, m) -> dict:
    return {"ops_per_s": (m["ops"] - m["failed"]) / total,
            "latency_p50_s": hd_quantile(latencies, 0.5),
            "latency_p90_s": hd_quantile(latencies, 0.9)}


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density at each
    rank's midpoint.  A single order statistic jumps when the quantile falls
    in a gap between clusters of op costs, as su3-build's median does
    (0.025 or 0.031 s by seed); this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    logw = [a * math.log((i + 0.5) / n) + b * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def cache_deltas(procs: list[dict]) -> dict:
    """Per cache: hits and misses during the traced phase, summed over the
    traced processes, and the largest size any of them reached."""
    out: dict[str, dict] = {}
    for p in procs:
        for name, c in p["caches_after"].items():
            b = p["caches_before"].get(name, {"hits": 0, "misses": 0})
            acc = out.setdefault(name, {"hits": 0, "misses": 0,
                                        "max_entries": 0})
            acc["hits"] += c["hits"] - b["hits"]
            acc["misses"] += c["misses"] - b["misses"]
            acc["max_entries"] = max(acc["max_entries"], c["entries"])
    return out


def layer_metrics(procs: list[dict], caches: dict, n: int,
                  overhead: float) -> dict:
    """Per-layer metrics, summed over traced processes and divided by the
    ops of the traced phase.  Times are calibrated with each process's
    factor."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    groups: dict[str, int] = {}
    extra: dict[str, float] = {}
    entries = []
    for p in procs:
        for g, v in p["groups"].items():
            self_s[g] = self_s.get(g, 0.0) + v["self_s"] * p["cal_factor"]
            groups[g] = groups.get(g, 0) + v["calls"]
        for k, v in p["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in p["extra"].items():
            extra[k] = extra.get(k, 0) + v
        entries.append(sum(c["entries"] for c in p["caches_after"].values()))
        if p.get("cli"):
            extra["startup_s"] = extra.get("startup_s", 0.0) + (
                p["startup_s"] * p["cal_factor"])
            extra["output_bytes"] = extra.get("output_bytes", 0) + p[
                "output_bytes"]

    def share(a, b):
        return a / b if b else 0.0

    def per_op(x):
        return x / n

    pair_calls = groups.get("polyengine.pair", 0)
    basis_calls = calls.get("basis_from_branching", 0)
    kernels = calls.get("branching_kernel", 0)
    metrics = {
        "polyengine.mul_s": per_op(self_s.get("polyengine.mul", 0.0)),
        "polyengine.mul_calls": per_op(groups.get("polyengine.mul", 0)),
        "polyengine.mul_terms_out": per_op(extra.get("mul_terms_out", 0)),
        "polyengine.pair_s": per_op(self_s.get("polyengine.pair", 0.0)),
        "polyengine.pair_calls": per_op(pair_calls),
        "polyengine.pair_nonzero_share": share(extra.get("pair_nonzero", 0),
                                               pair_calls),
        "polyengine.extract_s": per_op(self_s.get("polyengine.extract", 0.0)),
        "polyengine.extract_terms_scanned": per_op(
            extra.get("extract_terms_scanned", 0)),
        "polyengine.extract_yield": share(extra.get("extract_terms_kept", 0),
                                          extra.get("extract_terms_scanned", 0)),
        "polyengine.minor_s": per_op(self_s.get("polyengine.minor", 0.0)),
        "polyengine.minor_calls": per_op(groups.get("polyengine.minor", 0)),
        "polyengine.sqrt_s": per_op(self_s.get("polyengine.sqrt", 0.0)),
        "polyengine.sqrt_calls": per_op(groups.get("polyengine.sqrt", 0)),
        "gelfand.self_s": per_op(self_s.get("gelfand", 0.0)),
        "gelfand.pattern_builds": per_op(calls.get("GelfandPattern.__init__", 0)),
        "gelfand.weight_calls": per_op(calls.get("weight", 0)),
        "basisgen.self_s": per_op(self_s.get("basisgen", 0.0)),
        "basisgen.basis_calls": per_op(basis_calls),
        "basisgen.kernel_builds": per_op(kernels),
        "basisgen.kernel_reuse": share(basis_calls, kernels),
        "coupling.self_s": per_op(self_s.get("coupling", 0.0)),
        "coupling.table_builds": per_op(extra.get("table_builds", 0)),
        "coupling.table_entries": per_op(extra.get("table_entries", 0)),
        "coupling.balanced_share": share(extra.get("table_pairings", 0),
                                         extra.get("table_candidates", 0)),
        "coupling.query_calls": per_op(calls.get("su3_wigner", 0)
                                       + calls.get("su3_isoscalar", 0)),
        "coupling.threej_calls": per_op(calls.get("su2_threej", 0)),
        "cli.startup_s": per_op(extra.get("startup_s", 0.0)),
        "cli.self_s": per_op(self_s.get("cli", 0.0)),
        "cli.output_bytes": per_op(extra.get("output_bytes", 0)),
        "cache.hits": per_op(sum(c["hits"] for c in caches.values())),
        "cache.misses": per_op(sum(c["misses"] for c in caches.values())),
        "cache.entries": statistics.mean(entries) if entries else 0.0,
        "trace.overhead_share": overhead,
    }
    return metrics


# ---------------------------------------------------------------------------
# CLI output checks.
# ---------------------------------------------------------------------------


def cli_verdicts(done) -> list[bool]:
    """Exact verdict for each (args, exit code, stdout) of cli-oneshot."""
    import gtboson
    tables: dict = {}

    def table(triple):
        if triple not in tables:
            t = gtboson.coupling_table(triple)
            e = checks.table_entries(t)
            good = not checks.table_problems(triple, e, t.rho_count)
            tables[triple] = e if good else None
        return tables[triple]

    def verdict(args, rc, out) -> bool:
        if rc != 0:
            return False
        flat = [x for a in args[1:] for x in a.split("=", 1)]
        opt = dict(zip(flat[0::2], flat[1::2]))
        cmd = args[0]
        if cmd == "su3cg":
            triple = checks.parse_rows(opt["--labels"])
            rho_count, entries = checks.parse_su3cg(out, opt["--format"])
            return not checks.table_problems(triple, entries, rho_count)
        if cmd == "basis":
            rows = checks.parse_rows(opt["--pattern"])
            closed = (gtboson.u3_basis_closed if len(rows) == 3
                      else gtboson.u4_basis_closed)(rows)
            ns = closed.norm_sq
            return (out == f"{closed.poly.text()}\nnorm_sq="
                    f"{ns.numerator}/{ns.denominator}\n"
                    and not checks.basis_problems(rows, closed.poly.terms, ns))
        if cmd == "threej":
            js = [Fraction(v) * 2 for v in opt["--j"].split(",")]
            ms = [Fraction(v) * 2 for v in opt["--m"].split(",")]
            args6 = [int(x) for pair in zip(js, ms) for x in pair]
            return checks.threej_ok(args6, checks.parse_sqrt(out))
        if cmd == "isoscalar":
            triple = checks.parse_rows(opt["--labels"])
            entries = table(triple)
            rows = checks.parse_rows(opt["--rows"])
            return entries is not None and checks.isoscalar_ok(
                triple, rows, int(opt["--rho"]), checks.parse_sqrt(out),
                entries)
        top = tuple(map(int, opt["--label"].split(",")))
        if cmd == "dim":
            return out == f"{genops.weyl_dim(top)}\n"
        if opt.get("--format") == "json":
            obj = json.loads(out)
            listed = [p["rows"] for p in obj["patterns"]]
            if obj["count"] != len(listed):
                return False
        else:
            listed = [checks.parse_rows(line) for line in out.splitlines()]
        return checks.patterns_ok(top, listed)

    out = []
    for args, rc, text in done:
        try:
            out.append(verdict(args, rc, text))
        except (ValueError, KeyError, IndexError):
            out.append(False)
    return out


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------


def environment(root: Path) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gtboson").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "gtboson_commit": _git_head(root),
            "gtboson_source_sha256": digest.hexdigest()}


def _git_head(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a
    repository (the benchmark also runs in plain source trees)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(bench: Bench, workload: str, trace: bool) -> dict:
    m, res = (bench.per_layer if trace else bench.end_to_end)(workload)
    units = PER_LAYER if trace else END_TO_END
    record = {"workload": workload, "seed": bench.seed,
              "seconds": bench.seconds, "trace": int(trace),
              **environment(bench.root),
              "op_mix": dict(sorted(Counter(m["op_kinds"]).items())),
              "repeat_share": m["repeat_share"], "ops": m["ops"],
              "error_rate": m["failed"] / m["ops"], **res["info"]}
    result = {"correct": m["failed"] == 0, "attempted": m["ops"],
              "failed": m["failed"],
              "metrics": {k: {"value": res["metrics"][k], "unit": u}
                          for k, u in units.items()}}
    record["result"] = result
    path = bench.out / f"{workload}-seed{bench.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    shown = {k: v for k, v in record.items() if k != "result"}
    print(f"{workload}: " + "  ".join(
        f"{k}={v['value']:.6g} {v['unit']}"
        for k, v in result["metrics"].items())
        + f"  error_rate={record['error_rate']:.6g}")
    print("record " + json.dumps(shown, sort_keys=True))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gtboson" / "__init__.py").is_file():
        sys.stderr.write("error: run from the repository root; "
                         "src/gtboson was not found\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(1, str(root / "src"))
    calib.pin_to_one_cpu()
    bench = Bench(root, args.seed, args.seconds)
    try:
        result = run_one(bench, args.workload, bool(args.trace))
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own benchmark process (so that child-process
    RSS figures do not mix); one combined result line at the end."""
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[w] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
