"""Seeded inputs for the four workloads.

Everything here is the benchmark's own combinatorics; nothing imports
gtboson, so the program under test receives only the generated inputs.
The same seed always gives the same op list; a different seed gives a
different order (and, for the sampled pools, different inputs).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

# The ten SU(3) labels of dimension <= 27, as U(3) labels with h3 = 0.
SU3_LABELS = {
    "3": (1, 0, 0), "3b": (1, 1, 0), "6": (2, 0, 0), "6b": (2, 2, 0),
    "8": (2, 1, 0), "10": (3, 0, 0), "10b": (3, 3, 0), "15": (3, 1, 0),
    "15b": (3, 2, 0), "27": (4, 2, 0),
}

# Tables read by su3-query; built once in its set-up.
QUERY_TABLES = (((2, 1, 0), (2, 1, 0), (2, 1, 0)),
                ((2, 1, 0), (2, 1, 0), (4, 2, 0)),
                ((1, 0, 0), (2, 1, 0), (2, 2, 0)),
                ((2, 0, 0), (2, 1, 0), (3, 2, 0)))

# su3-query: one deck is 50 reads in these proportions, shuffled, chosen
# from the median cost of each kind at the commit that added the benchmark
# (calibrated: Wigner 24 us, 3-j 36 us, isoscalar 460 us) so that every
# kind moves a gated metric.  p50 falls at about the 62nd percentile of
# the Wigner reads and p90 at about the median of the 3-j reads, where
# each kind's distribution is dense and the quantile is steady; the single
# isoscalar read takes about a quarter of the timed phase (Wigner 55%,
# 3-j 19%), so ops_per_s moves by a quarter of an isoscalar slowdown.
QUERY_DECK = {"wigner": 40, "threej": 9, "isoscalar": 1}
QUERY_THREEJ_POOL = 200

# cli-oneshot: one deck is 102 processes, an equal share of each command,
# shuffled.  There is no record of how the CLI is used, so no kind is
# weighted above another; a run is one whole deck (at least 100 ops, so
# at least ten latency samples lie beyond p90).
CLI_DECK = dict.fromkeys(
    ("su3cg", "basis", "threej", "isoscalar", "patterns", "dim"), 17)
SU3CG_MAX_DIMS = 8000       # d1*d2*d3; excludes 27x27x27 (about 3 s)
ISOSCALAR_MAX_DIMS = 1000
PATTERNS_MAX_DIM = 300
CLI_THREEJ_MAX_2J = 60


# ---------------------------------------------------------------------------
# Gel'fand-Tsetlin combinatorics.
# ---------------------------------------------------------------------------


def patterns(top):
    """All patterns with top row `top`, rows top to bottom, in the
    canonical descending-lexicographic order."""
    def rec(rows):
        last = rows[-1]
        if len(last) == 1:
            yield rows
            return
        ranges = [range(last[i], last[i + 1] - 1, -1)
                  for i in range(len(last) - 1)]
        for nxt in itertools.product(*ranges):
            yield from rec(rows + (nxt,))
    return list(rec((tuple(top),)))


def weight(rows):
    """omega_i = (sum of the row of length i) - (sum of the row of length i-1)."""
    sums = [0] + [sum(r) for r in reversed(rows)]
    return tuple(sums[i] - sums[i - 1] for i in range(1, len(sums)))


def weyl_dim(top) -> int:
    n = len(top)
    p = [top[i] + n - 1 - i for i in range(n)]
    num = math.prod(p[i] - p[j] for i in range(n) for j in range(i + 1, n))
    return num // math.prod(math.factorial(k) for k in range(1, n))


def su2_tjm(rows2, bottom) -> tuple[int, int]:
    """Doubled (2j, 2m) of the SU(2) pattern [rows2, [bottom]]."""
    h12, h22 = rows2
    return h12 - h22, 2 * bottom - h12 - h22


def threej(tj1, tm1, tj2, tm2, tj3, tm3) -> tuple[int, Fraction]:
    """(sign, square) of the SU(2) 3-j symbol with doubled arguments, by
    Racah's single sum; (0, 0) where a selection rule fails."""
    js, ms = (tj1, tj2, tj3), (tm1, tm2, tm3)
    if sum(ms) or any(abs(m) > j or (j - m) % 2 for j, m in zip(js, ms)):
        return 0, Fraction(0)
    a, b, c = tj1 + tj2 - tj3, tj1 - tj2 + tj3, tj2 + tj3 - tj1
    if min(a, b, c) < 0 or a % 2:
        return 0, Fraction(0)
    f = math.factorial
    x1, x2 = (tj3 - tj2 + tm1) // 2, (tj3 - tj1 - tm2) // 2
    y1, y2, y3 = a // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    total = sum(Fraction((-1) ** k, f(k) * f(x1 + k) * f(x2 + k)
                         * f(y1 - k) * f(y2 - k) * f(y3 - k))
                for k in range(max(0, -x1, -x2), min(y1, y2, y3) + 1))
    if not total:
        return 0, Fraction(0)
    delta = Fraction(f(a // 2) * f(b // 2) * f(c // 2),
                     f((tj1 + tj2 + tj3) // 2 + 1))
    square = delta * total * total * math.prod(
        f((j + m) // 2) * f((j - m) // 2) for j, m in zip(js, ms))
    phase = -1 if (tj1 - tj2 - tm3) // 2 % 2 else 1
    return phase * (1 if total > 0 else -1), square


def labels(n: int, hmax: int, last_zero: bool = True):
    """U(n) labels with hmax >= h1 >= ... >= hn >= 0 (hn = 0 if asked),
    the trivial label excluded."""
    out = []
    for h in itertools.combinations_with_replacement(range(hmax, -1, -1), n):
        if any(h) and not (last_zero and h[-1]):
            out.append(tuple(h))
    return out


def su3_multiplicity(l1, l2, l3) -> int:
    """Number of independent SU(3) invariants in l1 x l2 x l3: solutions of
    the per-slot degree equations of the seven elementary invariants."""
    (p1, q1), (p2, q2), (p3, q3) = ((h[0] - h[1], h[1] - h[2])
                                    for h in (l1, l2, l3))
    tot = p1 + p2 + p3 - q1 - q2 - q3
    if tot % 3 or tot < 0:
        return 0
    k7 = tot // 3
    count = 0
    for k3 in range(q3 + 1):
        k1, k5 = p1 - k3 - k7, q3 - k3
        k2 = p2 - k5 - k7
        k4, k6 = q1 - k2, q2 - k1
        if min(k1, k2, k4, k5, k6) >= 0 and k4 + k6 + k7 == p3:
            count += 1
    return count


def table_size(triple) -> int:
    """Entries of the SU(3) table of `triple`: weight-balanced pattern
    triples times the multiplicity; the cost proxy of a table."""
    counts = [Counter(weight(p) for p in patterns(h)) for h in triple]
    target = (sum(map(sum, triple)) // 3,) * 3
    keys = sum(c1 * c2 * counts[2][tuple(t - x - y for t, x, y
                                         in zip(target, w1, w2))]
               for w1, c1 in counts[0].items()
               for w2, c2 in counts[1].items())
    return keys * su3_multiplicity(*triple)


def balanced_keys(triple):
    """(p1, p2, p3) pattern triples of a label triple whose weights add up
    to the balanced weight, ordered by third pattern."""
    pats = [patterns(h) for h in triple]
    total = sum(sum(h) for h in triple)
    target = (total // 3,) * 3
    out = []
    for p3 in pats[2]:
        w3 = weight(p3)
        for p1 in pats[0]:
            w1 = weight(p1)
            for p2 in pats[1]:
                w = tuple(a + b + c for a, b, c in zip(w1, weight(p2), w3))
                if w == target:
                    out.append((p1, p2, p3))
    return out


def threej_domain(max_2j: int):
    """Every (2j1, 2m1, 2j2, 2m2, 2j3, 2m3) with 2j <= max_2j that satisfies
    the triangle rule, integer total spin and m1 + m2 + m3 = 0."""
    for tj1, tj2 in itertools.product(range(max_2j + 1), repeat=2):
        for tj3 in range(abs(tj1 - tj2), min(tj1 + tj2, max_2j) + 1, 2):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    if abs(tm1 + tm2) <= tj3:
                        yield (tj1, tm1, tj2, tm2, tj3, -tm1 - tm2)


def threej_args(rng: random.Random, max_2j: int):
    """A random (2j1, 2m1, 2j2, 2m2, 2j3, 2m3) that satisfies the triangle
    rule, integer total spin and m1 + m2 + m3 = 0."""
    while True:
        tj1, tj2 = rng.randint(0, max_2j), rng.randint(0, max_2j)
        lo, hi = abs(tj1 - tj2), min(tj1 + tj2, max_2j)
        tj3 = rng.randrange(lo, hi + 1, 2)
        tm1 = rng.randrange(-tj1, tj1 + 1, 2)
        tm2 = rng.randrange(-tj2, tj2 + 1, 2)
        tm3 = -tm1 - tm2
        if abs(tm3) <= tj3:
            return (tj1, tm1, tj2, tm2, tj3, tm3)


# ---------------------------------------------------------------------------
# Op lists.  An op is a JSON-ready list whose first item names its kind.
# ---------------------------------------------------------------------------


def coupled_triples():
    """The 183 ordered triples over the ten labels with multiplicity >= 1."""
    return [t for t in itertools.product(SU3_LABELS.values(), repeat=3)
            if su3_multiplicity(*t)]


def su3_build_ops(seed: int):
    """Every coupled triple in seeded order; one coupling_table call each."""
    triples = coupled_triples()
    random.Random(seed).shuffle(triples)
    return [["table", list(map(list, t))] for t in triples]


def basis_u4_ops(seed: int):
    """Every pattern of the 34 U(4) labels with h1 <= 4 and h4 = 0; label
    order and the pattern order inside each label are seeded."""
    rng = random.Random(seed)
    labs = labels(4, 4)
    rng.shuffle(labs)
    ops = []
    for top in labs:
        pats = patterns(top)
        rng.shuffle(pats)
        ops.extend(["basis", [list(r) for r in p]] for p in pats)
    return ops


def decks(pools, deck, seed: int, pin_top: bool = False):
    """Endless stream of ops in decks of fixed composition, each shuffled.

    Each pool is ordered by expected cost; the i-th of a kind's `count`
    draws in a deck comes from the i-th of `count` equal slices of its
    pool, so every deck carries the same spread of costs and runs of
    different seeds differ in which inputs they draw, not in their mix.
    With `pin_top` the top slice's draw is always the pool's last, dearest
    input: then a run of one deck, whose peak RSS is a maximum over its
    ops, has the same largest op whatever the seed."""
    rng = random.Random(seed)
    slots = [(k, i) for k, count in deck.items() for i in range(count)]
    while True:
        rng.shuffle(slots)
        for k, i in slots:
            pool, count = pools[k], deck[k]
            if pin_top and i == count - 1:
                yield pool[-1]
                continue
            lo, hi = len(pool) * i // count, len(pool) * (i + 1) // count
            yield pool[rng.randrange(lo, hi)]


def _nonzero_su2_factor(rows) -> bool:
    """True if some bottom-row choice under the middle rows gives a nonzero
    SU(2) 3-j factor, so that the isoscalar factor is defined."""
    for bots in itertools.product(*(range(r[1], r[0] + 1) for r in rows)):
        if threej(*(x for r, b in zip(rows, bots) for x in su2_tjm(r, b)))[0]:
            return True
    return False


def isoscalar_pool(triples):
    """Every defined (labels, middle rows, rho) isoscalar read of the given
    triples."""
    pool = []
    for t in triples:
        mult = su3_multiplicity(*t)
        middles = [sorted({p[1] for p in patterns(h)}, reverse=True)
                   for h in t]
        for rows in itertools.product(*middles):
            if _nonzero_su2_factor(rows):
                pool.extend(["isoscalar", list(map(list, t)),
                             list(map(list, rows)), rho]
                            for rho in range(1, mult + 1))
    return pool


def su3_query_pools():
    """Pools of the su3-query stream: every balanced Wigner key of the
    fixture tables, every defined isoscalar read of them, and
    QUERY_THREEJ_POOL evenly spaced 3-j symbols with 2j <= 12.  The pools
    do not depend on the seed (the stream's draws do), so that every seed
    reads the same spread of costs."""
    wigner = []
    for t in QUERY_TABLES:
        for key in balanced_keys(t):
            for rho in range(1, su3_multiplicity(*t) + 1):
                wigner.append(["wigner", list(map(list, t)),
                               [list(map(list, p)) for p in key], rho])
    tj = sorted(threej_domain(12), key=lambda a: (sum(a[0::2]), a))
    step = len(tj) / QUERY_THREEJ_POOL
    return {"wigner": wigner,
            "isoscalar": isoscalar_pool(QUERY_TABLES),
            "threej": [["threej", list(tj[int(i * step)])]
                       for i in range(QUERY_THREEJ_POOL)]}


def _pattern_text(rows) -> str:
    return ";".join(",".join(map(str, r)) for r in rows)


def _label_text(h) -> str:
    return ",".join(map(str, h))


def cli_pools(seed: int):
    """Pools of CLI argument lists for cli-oneshot, each ordered by a cost
    proxy: table size, label dimension, total spin."""
    rng = random.Random(seed)
    dims = {t: math.prod(weyl_dim(h) for h in t) for t in coupled_triples()}
    coupled = sorted(dims, key=lambda t: (table_size(t), t))
    su3cg = [["su3cg", "--labels", ";".join(map(_label_text, t)),
              "--format", fmt]
             for t in coupled if dims[t] <= SU3CG_MAX_DIMS
             for fmt in ("text", "csv", "json")]  # json needs the most memory
    tops = sorted((top for n in (3, 4)
                   for top in labels(n, 4, last_zero=(n == 4))),
                  key=lambda h: (len(h), weyl_dim(h), h))
    basis = [["basis", "--pattern", _pattern_text(p)]
             for top in tops for p in patterns(top)]
    spins = sorted({threej_args(rng, CLI_THREEJ_MAX_2J) for _ in range(200)},
                   key=lambda a: (sum(a[0::2]), a))
    threes = []
    for a in spins:
        js = ",".join(_half(v) for v in a[0::2])
        ms = ",".join(_half(v) for v in a[1::2])
        # '=' keeps a leading minus sign from reading as an option
        threes.append(["threej", f"--j={js}", f"--m={ms}"])
    small = [t for t in coupled if dims[t] <= ISOSCALAR_MAX_DIMS]
    iso = [["isoscalar", "--labels", ";".join(map(_label_text, t)),
            "--rows", ";".join(map(_label_text, rows)), "--rho", str(rho)]
           for _, t, rows, rho in isoscalar_pool(small)]
    shapes = sorted((top for n in (3, 4, 5)
                     for top in labels(n, 4, last_zero=False)),
                    key=lambda h: (weyl_dim(h), h))
    listable = [h for h in shapes if weyl_dim(h) <= PATTERNS_MAX_DIM]
    return {
        "su3cg": su3cg,
        "basis": basis,
        "threej": threes,
        "isoscalar": iso,
        "patterns": [["patterns", "--label", _label_text(h), "--format", fmt]
                     for h in listable for fmt in ("text", "json")],
        "dim": [["dim", "--label", _label_text(h)] for h in shapes],
    }


def _half(doubled: int) -> str:
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


def repeat_share(ops) -> float:
    """Share of ops whose exact input was already seen earlier in the list."""
    seen, repeats = set(), 0
    for op in ops:
        key = repr(op)
        repeats += key in seen
        seen.add(key)
    return repeats / len(ops) if ops else 0.0
