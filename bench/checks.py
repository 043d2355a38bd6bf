"""Exact checks of every op's output, run after the timed phase.

Values are compared as exact numbers: a coupling value q*sqrt(r) is held
as the Fractions (q, r).  The SU(2) 3-j oracle is sympy's `wigner_3j`;
pattern counts, weights and Bargmann pairings use the benchmark's own
combinatorics (genops), not gtboson.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import genops

ZERO = (Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# Exact values.
# ---------------------------------------------------------------------------


def sign_square(v) -> tuple[int, Fraction]:
    q, r = v
    return (q > 0) - (q < 0), q * q * r


def parse_sqrt(text: str) -> tuple[Fraction, Fraction]:
    """Parse the CLI form 'p/q*sqrt(a/b)'."""
    coef, _, rest = text.strip().partition("*sqrt(")
    if not rest.endswith(")"):
        raise ValueError(f"not a p/q*sqrt(a/b) value: {text!r}")
    return Fraction(coef), Fraction(rest[:-1])


@lru_cache(maxsize=None)
def threej(tj1, tm1, tj2, tm2, tj3, tm3) -> tuple[int, Fraction]:
    """(sign, square) of the 3-j symbol with doubled arguments, by sympy."""
    from sympy import Rational
    from sympy.physics.wigner import wigner_3j
    v = wigner_3j(*(Rational(x, 2) for x in (tj1, tj2, tj3, tm1, tm2, tm3)))
    if v == 0:
        return 0, Fraction(0)
    sq = v * v
    return (1 if v > 0 else -1), Fraction(int(sq.p), int(sq.q))


def _surd(v) -> tuple[Fraction, int]:
    """q*sqrt(a/b) as (q/b, a*b): a rational times the root of an integer."""
    q, r = v
    return q / r.denominator, r.numerator * r.denominator


def inner_is_zero(pairs) -> bool:
    """True if sum of x*y over (x, y) value pairs is exactly zero.

    Each product is a rational times sqrt(n); products are grouped by n
    after removing the square gcd(n1, n2)^2.  A zero sum in every group
    proves the total is zero, whatever the grouping."""
    groups: dict[int, Fraction] = defaultdict(Fraction)
    for x, y in pairs:
        (c1, n1), (c2, n2) = _surd(x), _surd(y)
        g = math.gcd(n1, n2)
        groups[(n1 // g) * (n2 // g)] += c1 * c2 * g
    return not any(groups.values())


# ---------------------------------------------------------------------------
# SU(3) coupling tables.
# ---------------------------------------------------------------------------


def table_entries(table) -> dict:
    """A gtboson CouplingTable's entries with values as (q, r)."""
    return {k: (v.q, v.r) for k, v in table.entries.items()}


def table_problems(triple, entries, rho_count=None) -> list[str]:
    """Problems found in a full Wigner table of `triple`.

    `entries` maps (p1, p2, p3, rho), patterns as row tuples, to (q, r).
    Checks: keys are weight-balanced pattern triples of the labels with a
    valid rho; every (rho, third-pattern) block has squares summing to
    exactly 1; distinct blocks of equal third weight are orthogonal; each
    entry is one isoscalar factor times the sympy SU(2) 3-j of its bottom
    rows, for every bottom-row choice."""
    triple = tuple(tuple(h) for h in triple)
    mult = genops.su3_multiplicity(*triple)
    out = []
    if rho_count is not None and rho_count != mult:
        out.append(f"rho_count {rho_count} != multiplicity {mult}")
    pats = [genops.patterns(h) for h in triple]
    valid = [set(p) for p in pats]
    target = (sum(map(sum, triple)) // 3,) * 3
    blocks: dict = defaultdict(list)
    for key, v in entries.items():
        p1, p2, p3, rho = key
        if not (p1 in valid[0] and p2 in valid[1] and p3 in valid[2]
                and 1 <= rho <= mult):
            out.append(f"invalid key {key}")
            continue
        w = tuple(map(sum, zip(*(genops.weight(p) for p in (p1, p2, p3)))))
        if w != target:
            out.append(f"unbalanced key {key}")
        blocks[(rho, p3)].append(((p1, p2), v))
    by_weight = defaultdict(list)
    for rho in range(1, mult + 1):
        for p3 in pats[2]:
            block = blocks.get((rho, p3), [])
            if sum(sign_square(v)[1] for _, v in block) != 1:
                out.append(f"block rho={rho} p3={p3} is not a unit vector")
            by_weight[genops.weight(p3)].append(dict(block))
    for group in by_weight.values():
        for a, b in itertools.combinations(group, 2):
            if not inner_is_zero((a[k], b[k]) for k in a.keys() & b.keys()):
                out.append("two blocks of one weight are not orthogonal")
    out.extend(_factorization_problems(triple, entries, mult))
    return out


def _factorization_problems(triple, entries, mult) -> list[str]:
    """Every entry is one isoscalar factor times the 3-j of its bottom rows,
    the factor shared by all bottom rows of one (rho, middle rows)."""
    groups = {(k[3],) + tuple(p[1] for p in k[:3]) for k in entries}
    out = []
    for rho, *mids in groups:
        iso = None
        for bots, cg, tj in _bottom_rows(triple, mids, rho, entries):
            if tj[0]:
                iso = (cg[0] * tj[0], cg[1] / tj[1])
                break
        if iso is None or not _factors(triple, mids, rho, iso, entries):
            out.append(f"no common isoscalar factor at rho={rho} rows={mids}")
    return out


def _bottom_rows(triple, mids, rho, entries):
    """(bottom rows, entry, 3-j) as (sign, square) pairs for every valid
    bottom-row choice under the middle rows `mids`."""
    for bots in itertools.product(*(range(m[1], m[0] + 1) for m in mids)):
        key = tuple((tuple(h), tuple(m), (b,))
                    for h, m, b in zip(triple, mids, bots)) + (rho,)
        tj = threej(*(x for m, b in zip(mids, bots)
                      for x in genops.su2_tjm(m, b)))
        yield bots, sign_square(entries.get(key, ZERO)), tj


def _factors(triple, mids, rho, iso, entries) -> bool:
    isign, isq = iso
    return all(cg == (isign * tj[0], isq * tj[1])
               for _, cg, tj in _bottom_rows(triple, mids, rho, entries))


def isoscalar_ok(triple, rows, rho, iso, entries) -> bool:
    """cg = iso * 3-j at every valid bottom row, cg read from `entries`."""
    return _factors(triple, rows, rho, sign_square(iso), entries)


def threej_ok(args, value) -> bool:
    return sign_square(value) == threej(*args)


# ---------------------------------------------------------------------------
# Boson polynomial bases.  A polynomial is a dict monomial -> Fraction with
# monomials as tuples of ((kind, slot, row, col), exponent).
# ---------------------------------------------------------------------------


def bargmann(p, q) -> Fraction:
    """<p, q> with <z^a, z^b> = delta_ab a!, over the common monomials."""
    if len(p) > len(q):
        p, q = q, p
    total = Fraction(0)
    for m, c in p.items():
        d = q.get(m)
        if d is not None:
            total += c * d * math.prod(math.factorial(e) for _, e in m)
    return total


def basis_problems(rows, poly, norm_sq) -> list[str]:
    """The norm is the Bargmann self-pairing; every monomial has row
    degrees equal to the top row and column degrees equal to the weight."""
    rows = tuple(tuple(r) for r in rows)
    out = []
    if not poly:
        out.append("zero polynomial")
    if norm_sq != bargmann(poly, poly):
        out.append("norm_sq is not the Bargmann self-pairing")
    n, w = len(rows[0]), genops.weight(rows)
    for m in poly:
        rdeg, cdeg = [0] * n, [0] * n
        for (_, _, r, c), e in m:
            rdeg[r - 1] += e
            cdeg[c - 1] += e
        if tuple(rdeg) != rows[0] or tuple(cdeg) != w:
            out.append(f"monomial {m} has the wrong degrees")
            break
    return out


def nonorthogonal_pairs(results) -> list[tuple[int, int]]:
    """Index pairs of basis results of one label and weight whose Bargmann
    pairing is not zero.  `results` is a list of (rows, poly)."""
    groups = defaultdict(list)
    for i, (rows, _) in enumerate(results):
        groups[(tuple(rows[0]), genops.weight(rows))].append(i)
    return [(i, j) for idx in groups.values()
            for i, j in itertools.combinations(idx, 2)
            if bargmann(results[i][1], results[j][1]) != 0]


# ---------------------------------------------------------------------------
# CLI outputs.
# ---------------------------------------------------------------------------


def parse_rows(text: str):
    """'4,2,0;3,1;2' -> ((4, 2, 0), (3, 1), (2,)); also label triples."""
    return tuple(tuple(int(v) for v in r.split(",")) for r in text.split(";"))


def parse_su3cg(text: str, fmt: str):
    """(rho_count or None, entries) from su3cg output in any format."""
    import json
    entries = {}
    if fmt == "json":
        obj = json.loads(text)
        for e in obj["entries"]:
            key = tuple(tuple(map(tuple, p["rows"])) for p in e["patterns"])
            entries[key + (e["rho"],)] = (Fraction(e["value"]["q"]),
                                          Fraction(e["value"]["r"]))
        return obj["rho_count"], entries
    lines = text.splitlines()
    if fmt == "csv":
        if lines[0] != "pattern1,pattern2,pattern3,rho,value":
            raise ValueError("unexpected csv header")
        for line in lines[1:]:
            tok = line.split(",")
            pats = [parse_rows(",".join(tok[4 * i:4 * i + 4]))
                    for i in range(3)]
            entries[tuple(pats) + (int(tok[12]),)] = parse_sqrt(tok[13])
        return None, entries
    head, _, count = lines[0].partition("=")
    if head != "rho_count":
        raise ValueError("missing rho_count line")
    for line in lines[1:]:
        p1, p2, p3, rho, value = (s.strip() for s in line.split("|"))
        key = (parse_rows(p1), parse_rows(p2), parse_rows(p3),
               int(rho.removeprefix("rho=")))
        entries[key] = parse_sqrt(value)
    return int(count), entries


def patterns_ok(top, listed) -> bool:
    """The listed patterns are distinct valid patterns of `top`, as many as
    the Weyl dimension."""
    top = tuple(top)
    seen = set()
    for rows in listed:
        rows = tuple(tuple(r) for r in rows)
        if rows[0] != top or rows in seen or not _between(rows):
            return False
        seen.add(rows)
    return len(seen) == genops.weyl_dim(top)


def _between(rows) -> bool:
    if [len(r) for r in rows] != list(range(len(rows[0]), 0, -1)):
        return False
    return all(up[i] >= lo[i] >= up[i + 1]
               for up, lo in zip(rows, rows[1:]) for i in range(len(lo)))
