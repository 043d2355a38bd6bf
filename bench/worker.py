"""One in-process workload run: set-up, a timed closed loop, exact checks.

Started by run.py with a JSON spec on stdin; prints one JSON result line.
The spec names the workload, the ops (or the pools and seed of an endless
stream), how long to run, and whether to trace.  Set-up is everything
before the first timed op: interpreter start, `import gtboson` and, for
su3-query, building the fixture tables.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from array import array

import calib
import checks
import genops
import gtboson
import procs


def main() -> None:
    spec = json.load(sys.stdin)
    fixtures = {}
    if spec["workload"] == "su3-query":
        for t in genops.QUERY_TABLES:
            fixtures[t] = gtboson.coupling_table(t)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready,
              "user_ready": resource.getrusage(resource.RUSAGE_SELF).ru_utime,
              "probe_ready": calib.probe()}
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return

    tracer = None
    if spec["trace"]:
        import spans
        caches_before = spans.cache_snapshot()
        tracer = spans.Tracer()
        tracer.table_ids.update(id(t) for t in fixtures.values())
        tracer.install()
    if "ops" in spec:
        ops = spec["ops"]
    else:
        ops = genops.decks(spec["pools"], genops.QUERY_DECK, spec["seed"])
    run = _executor(gtboson)
    seconds, max_ops = spec.get("seconds"), spec.get("max_ops")
    deck_len = sum(genops.QUERY_DECK.values())  # stop on whole decks
    outputs = Outputs()
    timeline = calib.Timeline(during_ops=True)
    t0 = time.perf_counter()
    for op in ops:
        token = timeline.start()
        try:
            out = run(op)
        except Exception as exc:  # a failing op is counted, not fatal
            out = exc
        timeline.op_done(token)
        outputs.add(op, out)
        if max_ops is not None and outputs.n >= max_ops:
            break
        if (seconds is not None and outputs.n >= spec["min_ops"]
                and outputs.n % deck_len == 0
                and time.perf_counter() - t0 >= seconds):
            break
    timeline.close()
    result["maxrss_kb"] = procs.peak_rss_kb()
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["caches_before"] = caches_before
        result["caches_after"] = spans.cache_snapshot()
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])

    done, weights = outputs.weighted()
    ok = check(spec, done, fixtures, gtboson, result)
    result.update({
        "ops": outputs.n,
        "failed": sum(w for good, w in zip(ok, weights) if not good),
        "op_kinds": outputs.op_kinds(),
        "repeat_share": 1 - len(outputs.first) / outputs.n,
        "wall_ops": timeline.wall_ops,
        "cal_ops": timeline.cal_ops,
        "wall_total": timeline.wall_total,
        "cal_total": timeline.cal_total,
    })
    print(json.dumps(result))


class Outputs:
    """Outputs of the timed loop, kept for the checks that follow it.  A
    repeated input keeps a count and only the outputs unequal to its first
    one, so memory grows with distinct inputs and not with ops: the peak
    RSS is read before the checks and is meant to be the program's."""

    def __init__(self):
        self.n = 0
        self.first: dict[int, list] = {}   # id(op) -> [op, output, count]
        self.odd: list[tuple] = []
        self.kinds = array("B")
        self.kind_ids: dict[str, int] = {}

    def add(self, op, out) -> None:
        self.n += 1
        self.kinds.append(self.kind_ids.setdefault(op[0], len(self.kind_ids)))
        e = self.first.get(id(op))
        if e is None:
            self.first[id(op)] = [op, out, 1]
        elif e[1] is out or e[1] == out:
            e[2] += 1
        else:
            self.odd.append((op, out))

    def weighted(self) -> tuple[list, list[int]]:
        """(op, output) pairs to check, and how many ops each stands for."""
        firsts = list(self.first.values())
        return ([(op, out) for op, out, _ in firsts] + self.odd,
                [c for _, _, c in firsts] + [1] * len(self.odd))

    def op_kinds(self) -> list[str]:
        names = sorted(self.kind_ids, key=self.kind_ids.get)
        return [names[k] for k in self.kinds]


def _su2(tj: int, tm: int):
    return [[tj, 0], [(tj + tm) // 2]]


def _executor(g):
    def run(op):
        kind = op[0]
        if kind == "table":
            return g.coupling_table(op[1])
        if kind == "basis":
            return g.basis_from_branching(op[1])
        if kind == "wigner":
            return g.su3_wigner(op[1], op[2], op[3])
        if kind == "isoscalar":
            return g.su3_isoscalar(op[1], op[2], op[3])
        if kind == "threej":
            a = op[1]
            return g.su2_threej(_su2(a[0], a[1]), _su2(a[2], a[3]),
                                _su2(a[4], a[5]))
        raise ValueError(f"unknown op kind {kind}")
    return run


# ---------------------------------------------------------------------------
# Checks, outside the timed loop.
# ---------------------------------------------------------------------------


def _key(triple, pats, rho):
    return tuple(tuple(map(tuple, p)) for p in pats) + (rho,)


def check(spec, done, fixtures, g, result) -> list[bool]:
    """One verdict per op; an op that raised is a failure."""
    w = spec["workload"]
    if w == "su3-build":
        return [not isinstance(t, Exception) and not checks.table_problems(
            op[1], checks.table_entries(t), t.rho_count) for op, t in done]
    if w == "basis-u4":
        return _check_bases(done, g, result)
    return _check_queries(done, fixtures)


def _check_bases(done, g, result) -> list[bool]:
    """Each basis equals u4_basis_closed, the library's independent
    five-index route, term by term, and passes the norm and degree checks.
    Pairs of one label and weight that are not orthogonal are counted in
    the result but are not op failures (see README, "Known defect")."""
    ok, polys = [], []
    for op, b in done:
        if isinstance(b, Exception):
            ok.append(False)
            continue
        c = g.u4_basis_closed(op[1])
        ok.append(c.poly.terms == b.poly.terms and c.norm_sq == b.norm_sq
                  and not checks.basis_problems(op[1], b.poly.terms,
                                                b.norm_sq))
        polys.append((op[1], b.poly.terms))
    result["nonorthogonal_pairs"] = len(checks.nonorthogonal_pairs(polys))
    return ok


def _check_queries(done, fixtures) -> list[bool]:
    """Wigner reads equal the fixture entry and, block by block, have unit
    norm; isoscalars factor the fixture entries; 3-j values equal sympy.
    Fixture tables pass the full table check first."""
    entries = {t: checks.table_entries(tb) for t, tb in fixtures.items()}
    good_table = {t: not checks.table_problems(t, e, fixtures[t].rho_count)
                  for t, e in entries.items()}
    ok = []
    reads: dict = {}
    for i, (op, out) in enumerate(done):
        if isinstance(out, Exception):
            ok.append(False)
            continue
        value = (out.q, out.r)
        ok.append(_verify(op, value, entries, good_table))
        if op[0] == "wigner":
            t = tuple(map(tuple, op[1]))
            reads.setdefault(t, {}).setdefault(_key(t, op[2], op[3]),
                                               []).append((i, value))
    for t, table_reads in reads.items():
        for idx in _bad_blocks(t, table_reads):
            ok[idx] = False
    return ok


def _verify(op, value, entries, good_table) -> bool:
    kind = op[0]
    if kind == "threej":
        return checks.threej_ok(op[1], value)
    t = tuple(map(tuple, op[1]))
    if not good_table[t]:
        return False
    if kind == "wigner":
        return entries[t].get(_key(t, op[2], op[3]), checks.ZERO) == value
    return checks.isoscalar_ok(t, op[2], op[3], value, entries[t])


def _bad_blocks(triple, table_reads) -> list[int]:
    """Ops of (rho, third-pattern) blocks whose every key was read and whose
    returned values do not have squares summing to exactly 1."""
    blocks: dict = {}
    for p1, p2, p3 in genops.balanced_keys(triple):
        for rho in range(1, genops.su3_multiplicity(*triple) + 1):
            blocks.setdefault((rho, p3), []).append((p1, p2, p3, rho))
    bad = []
    for keys in blocks.values():
        if all(k in table_reads for k in keys):
            total = sum(checks.sign_square(table_reads[k][0][1])[1]
                        for k in keys)
            if total != 1:
                bad.extend(i for k in keys for i, _ in table_reads[k])
    return bad


if __name__ == "__main__":
    main()
