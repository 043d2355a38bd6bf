"""Invariant-method coupling coefficients for SU(2) and SU(3).

SU(2) 3-j symbols come from extracting parameter monomials out of powers of
the three antisymmetric two-slot invariants (the Van der Waerden generating
function); an independent closed-form factorial-sum oracle is provided for
verification.

SU(3) Wigner coefficients with multiplicity come from the seven elementary
three-slot invariants W1..W7.  A coupling is selected by a vector of seven
non-negative exponents k, found by matching the per-slot degrees of the
invariants against the slot labels; one free parameter survives and labels
the multiplicity.  The invariant W = prod W_i^(k_i) is expanded as an honest
polynomial in the three slot matrices and paired, in the Fock inner product,
against every product b1 b2 b3 of the slots' unnormalized basis
polynomials.  The pairing splits over disjoint slots,
<b1 b2 b3, W> = sum_m c_m prod_s <b_s, m_s>, so no product is formed: each
slot's basis is projected once onto its monomials (<b, u> is u's
coefficient in b times the factorials of u's exponents), and each term of W
is split into its three slot parts and contracted against those
projections.  Basis and invariant coefficients are integers, so the
pairings are accumulated as exact integers and divided by the basis norms
only at the end; a non-integer coefficient raises ConsistencyError.  The
resulting rho-family is Gram orthonormalized, yielding tables that are
exactly unitary block by block.

The invariants also have images in the generating-function parameter space;
expanding those images and reading off pattern-monomial coefficients is
reproduced exactly by a closed triple sum over the fifteen-index linear
system, and both parameter-space routes are kept for cross-checking.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .basisgen import _raw_basis
from .gelfand import (
    ConsistencyError,
    DomainError,
    GelfandPattern,
    IrrepLabel,
    as_label,
    as_pattern,
    lr_exponents,
    pattern_phi,
    patterns_of,
    require_valid,
    weyl_dimension,
)
from .polyengine import (
    ExactPoly,
    Monomial,
    SqrtRational,
    bargmann_inner,  # noqa: F401  unused here; bench/test_bench.py reads it
    minor,
    mono_from_map,
    mono_mul,
    symbolic_matrix,
    xvar,
    yvar,
)

__all__ = [
    "CouplingTable",
    "InvariantSpec",
    "SU6Indices",
    "IsoscalarUndefined",
    "xi_invariant",
    "su2_threej",
    "racah_threej_oracle",
    "w_invariants",
    "k_exponents",
    "triple_to_su6",
    "index_solutions",
    "index_solutions_bruteforce",
    "index_solutions_closed",
    "coupling_table",
    "su3_wigner",
    "su3_wigner_generating",
    "su3_wigner_secondary",
    "su3_isoscalar",
    "conjugate_label",
]

_fact = math.factorial


class IsoscalarUndefined(ValueError):
    """Every embedded SU(2) factor vanishes for the requested rows."""


# ---------------------------------------------------------------------------
# SU(2): elementary invariants, generating-function 3-j, Racah oracle.
# ---------------------------------------------------------------------------


def xi_invariant(a: int, b: int) -> ExactPoly:
    """Antisymmetric invariant of slots a < b:
    y_a(2,1) x_b(2,1) - x_a(2,1) y_b(2,1)."""
    if not (1 <= a < b <= 3):
        raise DomainError("xi_invariant requires slots 1 <= a < b <= 3")
    ya, xa = ExactPoly.variable(yvar(2, 1, a)), ExactPoly.variable(xvar(2, 1, a))
    yb, xb = ExactPoly.variable(yvar(2, 1, b)), ExactPoly.variable(xvar(2, 1, b))
    return ya * xb - xa * yb


@lru_cache(maxsize=None)
def _xi_product(p1: int, p2: int, p3: int) -> ExactPoly:
    return (xi_invariant(2, 3) ** p1 * xi_invariant(1, 3) ** p2
            * xi_invariant(1, 2) ** p3)


def _slot2_monomial(jm: Sequence[tuple[int, int]]) -> Monomial:
    """Monomial prod_s x_s^(j-m) y_s^(j+m) from doubled (2j, 2m) pairs."""
    exps = {}
    for s, (tj, tm) in enumerate(jm, start=1):
        lo, hi = (tj - tm) // 2, (tj + tm) // 2
        if lo:
            exps[xvar(2, 1, s)] = lo
        if hi:
            exps[yvar(2, 1, s)] = hi
    return mono_from_map(exps)


def _pattern_to_tjm(p: GelfandPattern) -> tuple[int, int]:
    """Doubled (2j, 2m) of an SU(2) pattern; labels shifted by the
    determinant are reduced to spin form."""
    p = require_valid(as_pattern(p))
    if p.n != 2:
        raise DomainError("SU(2) pattern required")
    h12, h22 = p.row(2)
    h11 = p.row(1)[0]
    return h12 - h22, 2 * h11 - h12 - h22


def _threej_core(tjm: Sequence[tuple[int, int]]) -> SqrtRational:
    """3-j symbol from the generating-function extraction, phase convention
    of Condon-Shortley (verified against the factorial-sum oracle)."""
    (tj1, tm1), (tj2, tm2), (tj3, tm3) = tjm
    if tm1 + tm2 + tm3 != 0:
        return SqrtRational.zero()
    tJ = tj1 + tj2 + tj3
    if tJ % 2:
        return SqrtRational.zero()
    p1 = (tJ - 2 * tj1) // 2
    p2 = (tJ - 2 * tj2) // 2
    p3 = (tJ - 2 * tj3) // 2
    if p1 < 0 or p2 < 0 or p3 < 0:
        return SqrtRational.zero()
    target = _slot2_monomial(tjm)
    c = _xi_product(p1, p2, p3).coefficient(target)
    if not c:
        return SqrtRational.zero()
    if p2 % 2:
        c = -c
    num = 1
    for tj, tm in tjm:
        num *= _fact((tj - tm) // 2) * _fact((tj + tm) // 2)
    den = _fact(tJ // 2 + 1) * _fact(p1) * _fact(p2) * _fact(p3)
    return SqrtRational(c, Fraction(num, den))


def su2_threej(pat1, pat2, pat3) -> SqrtRational:
    """3-j symbol of three SU(2) patterns (zero on any selection-rule
    violation)."""
    return _threej_core([_pattern_to_tjm(as_pattern(p))
                         for p in (pat1, pat2, pat3)])


def _two(x) -> int:
    """Twice a spin value, which must be an exact half-integer (a float is
    taken at its exact binary value, never rounded)."""
    t = Fraction(x) * 2
    if t.denominator != 1:
        raise DomainError(f"{x} is not a half-integer")
    return int(t)


def racah_threej_oracle(j1, m1, j2, m2, j3, m3) -> SqrtRational:
    """Independent closed-form 3-j value (single factorial sum), exact."""
    tj = [_two(j ) for j in (j1, j2, j3)]
    tm = [_two(m) for m in (m1, m2, m3)]
    if any((a + b) % 2 for a, b in zip(tj, tm)) or any(abs(b) > a for a, b in zip(tj, tm)):
        return SqrtRational.zero()
    if sum(tm) != 0:
        return SqrtRational.zero()
    tJ = sum(tj)
    if tJ % 2:
        return SqrtRational.zero()
    c1 = (tj[0] + tj[1] - tj[2]) // 2
    c2 = (tj[0] - tj[1] + tj[2]) // 2
    c3 = (-tj[0] + tj[1] + tj[2]) // 2
    if c1 < 0 or c2 < 0 or c3 < 0:
        return SqrtRational.zero()
    a1 = (tj[0] - tm[0]) // 2
    a2 = (tj[1] + tm[1]) // 2
    b1 = (tj[2] - tj[1] + tm[0]) // 2
    b2 = (tj[2] - tj[0] - tm[1]) // 2
    kmin = max(0, -b1, -b2)
    kmax = min(c1, a1, a2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        term = Fraction((-1) ** k,
                        _fact(k) * _fact(c1 - k) * _fact(a1 - k) * _fact(a2 - k)
                        * _fact(b1 + k) * _fact(b2 + k))
        total += term
    if not total:
        return SqrtRational.zero()
    phase = (tj[0] - tj[1] - tm[2]) // 2
    if phase % 2:
        total = -total
    rad = Fraction(_fact(c1) * _fact(c2) * _fact(c3), _fact(tJ // 2 + 1))
    for a, b in zip(tj, tm):
        rad *= _fact((a + b) // 2) * _fact((a - b) // 2)
    return SqrtRational(total, rad)


# ---------------------------------------------------------------------------
# SU(3): the seven elementary invariants.
# ---------------------------------------------------------------------------


def _v(kind: str, lam: int, mu: int, slot: int) -> ExactPoly:
    var = xvar(lam, mu, slot) if kind == "x" else yvar(lam, mu, slot)
    return ExactPoly.variable(var)


# One entry per expansion term: (W index, level-3 variable factors,
# xi pair or None, sign).  The fifteen terms, in canonical order, are the
# unknowns of the index linear system.
_W_TERMS: list[tuple[int, tuple[tuple[str, int, int, int], ...],
                     tuple[int, int] | None, int]] = [
    (1, (("y", 3, 1, 1), ("x", 3, 2, 2)), (1, 2), +1),   # i1
    (1, (("x", 3, 1, 1), ("y", 3, 2, 2)), None, +1),     # i2
    (2, (("y", 3, 1, 2), ("x", 3, 2, 1)), (1, 2), -1),   # i3
    (2, (("x", 3, 1, 2), ("y", 3, 2, 1)), None, +1),     # i4
    (3, (("y", 3, 1, 1), ("x", 3, 2, 3)), (1, 3), +1),   # i5
    (3, (("x", 3, 1, 1), ("y", 3, 2, 3)), None, +1),     # i6
    (4, (("y", 3, 1, 3), ("x", 3, 2, 1)), (1, 3), -1),   # i7
    (4, (("x", 3, 1, 3), ("y", 3, 2, 1)), None, +1),     # i8
    (5, (("y", 3, 1, 2), ("x", 3, 2, 3)), (2, 3), +1),   # i9
    (5, (("x", 3, 1, 2), ("y", 3, 2, 3)), None, +1),     # i10
    (6, (("y", 3, 1, 3), ("x", 3, 2, 2)), (2, 3), -1),   # i11
    (6, (("x", 3, 1, 3), ("y", 3, 2, 2)), None, +1),     # i12
    (7, (("x", 3, 1, 3), ("y", 3, 1, 1), ("y", 3, 1, 2)), (1, 2), +1),  # i13
    (7, (("x", 3, 1, 2), ("y", 3, 1, 1), ("y", 3, 1, 3)), (1, 3), -1),  # i14
    (7, (("x", 3, 1, 1), ("y", 3, 1, 2), ("y", 3, 1, 3)), (2, 3), +1),  # i15
]


def _term_poly(term) -> ExactPoly:
    _, factors, xi, sign = term
    poly = ExactPoly.const(sign)
    for kind, lam, mu, slot in factors:
        poly = poly * _v(kind, lam, mu, slot)
    if xi is not None:
        poly = poly * xi_invariant(*xi)
    return poly


@lru_cache(maxsize=None)
def w_invariants() -> tuple[ExactPoly, ...]:
    """The seven elementary three-slot invariants W1..W7, as polynomials in
    the per-slot parameters x_s(3,1), y_s(3,1), x_s(3,2), y_s(3,2),
    x_s(2,1), y_s(2,1)."""
    ws = []
    for idx in range(1, 8):
        acc = ExactPoly()
        for term in _W_TERMS:
            if term[0] == idx:
                acc = acc + _term_poly(term)
        ws.append(acc)
    return tuple(ws)


@dataclass(frozen=True)
class InvariantSpec:
    """Exponent vector of an invariant monomial: (P1, P2, P3) for SU(2),
    (k1..k7) for SU(3)."""

    exponents: tuple[int, ...]


@dataclass(frozen=True)
class SU6Indices:
    """The free entries of the six-row invariant pattern; h11 equals h12 by
    convention (the printed bottom row)."""

    h13: int
    h24: int
    h34: int
    h23: int
    h33: int
    h12: int
    h22: int
    h11: int


def k_exponents(su6: SU6Indices) -> InvariantSpec:
    """Invariant exponents read off the six-row pattern entries."""
    k = (su6.h34 - su6.h33,
         su6.h33,
         su6.h12 - su6.h23,
         su6.h22 - su6.h33,
         (su6.h13 - su6.h24) - (su6.h12 - su6.h23),
         su6.h24 - su6.h23,
         (su6.h23 - su6.h34) - (su6.h22 - su6.h33))
    if any(v < 0 for v in k):
        raise DomainError(f"pattern indices give a negative exponent: {k}")
    return InvariantSpec(k)


def _pq(label: IrrepLabel) -> tuple[int, int]:
    h = label.h
    return h[0] - h[1], h[1] - h[2]


def _k_family(labels) -> tuple[int, int, dict[int, tuple[int, ...]]]:
    """All admissible k-vectors for a label triple, keyed by k3.

    Degree matching per slot gives six equations for seven exponents; the
    cubic invariant's exponent k7 is forced and k3 parametrizes the rest."""
    l1, l2, l3 = (as_label(l) for l in labels)
    if any(l.n != 3 for l in (l1, l2, l3)):
        raise DomainError("SU(3) coupling requires three U(3) labels")
    (p1, q1), (p2, q2), (p3, q3) = _pq(l1), _pq(l2), _pq(l3)
    tot = p1 + p2 + p3 - q1 - q2 - q3
    if tot % 3 or tot < 0:
        return 0, -1, {}
    k7 = tot // 3
    family = {}
    for k3 in range(0, q3 + 1):
        k1 = p1 - k3 - k7
        k5 = q3 - k3
        k2 = p2 - k5 - k7
        k4 = q1 - k2
        k6 = q2 - k1
        k = (k1, k2, k3, k4, k5, k6, k7)
        if all(v >= 0 for v in k):
            if k4 + k6 + k7 != p3:
                continue
            family[k3] = k
    if not family:
        return 0, -1, {}
    return min(family), max(family), family


def _rho_k(family: dict[int, tuple[int, ...]], rho: int) -> tuple[int, ...]:
    """k-vector of multiplicity `rho` (1-based, by ascending k3)."""
    if not (1 <= rho <= len(family)):
        raise DomainError(f"rho must be in 1..{len(family)}")
    return family[sorted(family)[rho - 1]]


def triple_to_su6(labels, rho: int) -> SU6Indices:
    """Six-row pattern indices of the invariant selecting multiplicity `rho`
    (1-based, ordered by ascending k3) for the label triple."""
    k3min, k3max, family = _k_family(labels)
    if not family:
        raise DomainError(f"labels {labels} do not couple")
    k1, k2, k3, k4, k5, k6, k7 = _rho_k(family, rho)
    h33 = k2
    h34 = k1 + k2
    h22 = k2 + k4
    h23 = k1 + k2 + k4 + k7
    h12 = h23 + k3
    h24 = h23 + k6
    h13 = h24 + k3 + k5
    return SU6Indices(h13=h13, h24=h24, h34=h34, h23=h23, h33=h33,
                      h12=h12, h22=h22, h11=h12)


# ---------------------------------------------------------------------------
# The fifteen-index linear system.
# ---------------------------------------------------------------------------


def _system_rows(slot_tables, p_exponents):
    """Right-hand sides of the fifteen degree equations, ordered as:
    y_s(3,1), x_s(3,1), x_s(3,2), y_s(3,2) for s = 1..3, then the three
    invariant-pair counts P3, P2, P1 mapped to pairs (1,2), (1,3), (2,3)."""
    rhs = {}
    for s in range(3):
        l31, l32, r31, r32 = slot_tables[s]
        rhs[("y", 3, 1, s + 1)] = r31
        rhs[("x", 3, 1, s + 1)] = l31
        rhs[("x", 3, 2, s + 1)] = l32
        rhs[("y", 3, 2, s + 1)] = r32
    p1, p2, p3 = p_exponents
    rhs[("xi", 1, 2)] = p3
    rhs[("xi", 1, 3)] = p2
    rhs[("xi", 2, 3)] = p1
    return rhs


def _term_incidence():
    """For each of the fifteen terms, the list of equations it feeds."""
    inc = []
    for _, factors, xi, _ in _W_TERMS:
        eqs = [f for f in factors]
        if xi is not None:
            eqs.append(("xi", xi[0], xi[1]))
        inc.append(eqs)
    return inc


def index_solutions_bruteforce(slot_tables, p_exponents) -> list[tuple[int, ...]]:
    """All non-negative integer solutions of the fifteen-equation system, by
    backtracking with running capacities."""
    rhs = _system_rows(slot_tables, p_exponents)
    if any(v < 0 for v in rhs.values()):
        return []
    inc = _term_incidence()
    remaining = dict(rhs)
    sol: list[int] = []
    out: list[tuple[int, ...]] = []

    # After assigning a prefix of variables, equation e can still be fed by
    # the remaining variables only if some unassigned term touches it.
    feeders: dict = {}
    for j, eqs in enumerate(inc):
        for e in eqs:
            feeders.setdefault(e, []).append(j)

    def rec(j: int) -> None:
        if j == len(inc):
            if all(v == 0 for v in remaining.values()):
                out.append(tuple(sol))
            return
        bound = min(remaining[e] for e in inc[j])
        for val in range(bound + 1):
            for e in inc[j]:
                remaining[e] -= val
            # prune: any equation whose feeders are exhausted must be zero
            dead = any(remaining[e] > 0 and max(feeders[e]) <= j
                       for e in feeders)
            sol.append(val)
            if not dead:
                rec(j + 1)
            sol.pop()
            for e in inc[j]:
                remaining[e] += val
    rec(0)
    return sorted(out)


def index_solutions_closed(slot_tables, p_exponents) -> list[tuple[int, ...]]:
    """Solutions via the closed parametrization: scan the free indices
    i6, i7, i9, i11 and eliminate the rest linearly (the multiplicity slice
    is recovered through k3 = i5 + i6)."""
    (l1_31, l1_32, r1_31, r1_32), (l2_31, l2_32, r2_31, r2_32), \
        (l3_31, l3_32, r3_31, r3_32) = slot_tables
    p1, p2, p3 = p_exponents
    if min(p1, p2, p3) < 0:
        return []
    out = []
    for i7 in range(l1_32 + 1):
        for i9 in range(l3_32 + 1):
            for i11 in range(l2_32 + 1):
                for i6 in range(r3_32 + 1):
                    i3 = l1_32 - i7
                    i1 = l2_32 - i11
                    i5 = l3_32 - i9
                    i13 = p3 - i1 - i3
                    i14 = p2 - i5 - i7
                    i15 = p1 - i9 - i11
                    i10 = r3_32 - i6
                    i14_ok = i13 >= 0 and i14 >= 0 and i15 >= 0
                    if not i14_ok:
                        continue
                    i4 = l2_31 - i10 - i14
                    if i4 < 0:
                        continue
                    i8 = r1_32 - i4
                    if i8 < 0:
                        continue
                    i12 = l3_31 - i8 - i13
                    if i12 < 0:
                        continue
                    i2 = r2_32 - i12
                    if i2 < 0:
                        continue
                    iv = (i1, i2, i3, i4, i5, i6, i7, i8, i9, i10, i11,
                          i12, i13, i14, i15)
                    # the four equations not used in the elimination
                    if iv[0] + iv[4] + iv[12] + iv[13] != r1_31:
                        continue
                    if iv[2] + iv[8] + iv[12] + iv[14] != r2_31:
                        continue
                    if iv[6] + iv[10] + iv[13] + iv[14] != r3_31:
                        continue
                    if iv[1] + iv[5] + iv[14] != l1_31:
                        continue
                    out.append(iv)
    return sorted(out)


def index_solutions(slot_tables, p_exponents) -> list[tuple[int, ...]]:
    """Non-negative solutions of the index system, computed by both routes,
    which must agree."""
    brute = index_solutions_bruteforce(slot_tables, p_exponents)
    closed = index_solutions_closed(slot_tables, p_exponents)
    if brute != closed:
        raise ConsistencyError("index system routes disagree")
    return brute


def _term_sign_exponent(iv: Sequence[int]) -> int:
    """Parity contribution of the negative expansion terms (i3, i7, i11, i14)."""
    return iv[2] + iv[6] + iv[10] + iv[13]


def _reduced_sum(k: Sequence[int], iv_list: Iterable[Sequence[int]]) -> Fraction:
    """Multinomial triple sum over the multiplicity slice of the index
    solutions: sum of sign * prod(k_j!) / prod(i_j!)."""
    total = Fraction(0)
    kfact = 1
    for v in k:
        kfact *= _fact(v)
    for iv in iv_list:
        den = 1
        for v in iv:
            den *= _fact(v)
        term = Fraction(kfact, den)
        if _term_sign_exponent(iv) % 2:
            term = -term
        total += term
    return total


# ---------------------------------------------------------------------------
# Coupling tables.
# ---------------------------------------------------------------------------


def _slot_exponent_table(p: GelfandPattern):
    lr = lr_exponents(p)
    return (lr.L[(3, 1)], lr.L[(3, 2)], lr.R[(3, 1)], lr.R[(3, 2)])


def _slot2_exponents(p: GelfandPattern) -> tuple[int, int]:
    lr = lr_exponents(p)
    return lr.L[(2, 1)], lr.R[(2, 1)]


def _p_exponents(pats) -> tuple[int, int, int]:
    """(P1, P2, P3): per-slot invariant-pair counts; 2j_s = L_s(2,1)+R_s(2,1)
    and P_s = J - 2 j_s."""
    tj = [sum(_slot2_exponents(p)) for p in pats]
    tJ = sum(tj)
    if tJ % 2:
        return (-1, -1, -1)
    return tuple((tJ - 2 * t) // 2 for t in tj)  # type: ignore[return-value]


class CouplingTable:
    """Wigner coefficients of one SU(3) label triple, all multiplicities.

    Values follow the block-unitary normalization: for each third-slot
    pattern, the squares over the first two slots sum to one, and distinct
    (rho, third-pattern) blocks are exactly orthogonal.  Keys are stored for
    nonzero entries only.
    """

    def __init__(self, labels, rho_count: int, k3_values: tuple[int, ...],
                 k_vectors: tuple[tuple[int, ...], ...],
                 entries: dict[tuple, SqrtRational]):
        self.labels = tuple(as_label(l) for l in labels)
        self.rho_count = rho_count
        self.k3_values = k3_values
        self.k_vectors = k_vectors
        self.entries = entries
        self.normalization = "gram-block-unitary"

    def value(self, patterns, rho: int) -> SqrtRational:
        key = tuple(as_pattern(p).rows for p in patterns) + (rho,)
        return self.entries.get(key, SqrtRational.zero())

    def nonzero_keys(self) -> list[tuple]:
        return sorted(self.entries)

    def _ordered(self) -> list[tuple[tuple, SqrtRational]]:
        """Entries by rho, then third, first and second pattern."""
        return sorted(self.entries.items(),
                      key=lambda kv: (kv[0][3], kv[0][2], kv[0][0], kv[0][1]))

    def to_json(self) -> dict:
        return {
            "labels": [list(l.h) for l in self.labels],
            "rho_count": self.rho_count,
            "k3_values": list(self.k3_values),
            "normalization": self.normalization,
            "entries": [
                {"patterns": [ {"n": 3, "rows": [list(r) for r in rows]}
                               for rows in key[:3] ],
                 "rho": key[3],
                 "value": val.to_json()}
                for key, val in self._ordered()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CouplingTable":
        entries = {}
        for e in obj["entries"]:
            key = tuple(tuple(tuple(r) for r in p["rows"]) for p in e["patterns"])
            entries[key + (e["rho"],)] = SqrtRational.from_json(e["value"])
        return cls(labels=[IrrepLabel(h) for h in obj["labels"]],
                   rho_count=obj["rho_count"],
                   k3_values=tuple(obj["k3_values"]),
                   k_vectors=(),
                   entries=entries)

    def to_csv(self) -> str:
        lines = ["pattern1,pattern2,pattern3,rho,value"]
        for key, val in self._ordered():
            pats = [";".join(",".join(str(v) for v in row) for row in rows)
                    for rows in key[:3]]
            lines.append(f"{pats[0]},{pats[1]},{pats[2]},{key[3]},{val.text()}")
        return "\n".join(lines) + "\n"


# Binary words of the seven compatible invariants: two bits per slot select
# the top rows of that slot's matrix in the six-row stack.
_W_WORDS = ("101100", "111000", "100011", "110010", "001011", "001110",
            "101010")


@lru_cache(maxsize=None)
def _w_invariants_z() -> tuple[ExactPoly, ...]:
    """The seven invariants as polynomials in the three slot matrices: the
    3x3 determinants of the selected rows of the stacked 6x3 matrix
    (slot-1 rows 1, 2; slot-2 rows 1, 2; slot-3 rows 1, 2)."""
    mats = [symbolic_matrix(3, slot=s) for s in (1, 2, 3)]
    stack = [mats[0][0], mats[0][1], mats[1][0], mats[1][1],
             mats[2][0], mats[2][1]]
    out = []
    for word in _W_WORDS:
        rows = tuple(i + 1 for i, b in enumerate(word) if b == "1")
        out.append(minor(stack, rows, (1, 2, 3)))
    return tuple(out)


def _invariant_z(k: Sequence[int], labels) -> ExactPoly:
    """The invariant polynomial prod_s det(z_s)^(h33_s) * prod_i W_i^(k_i);
    the determinant powers carry the slot labels' trace content, which the
    seven trace-free invariants cannot produce."""
    inv = ExactPoly.const(1)
    for w, e in zip(_w_invariants_z(), k):
        if e:
            inv = inv * w ** e
    for s, label in enumerate(labels, start=1):
        h33 = label.h[2]
        if h33:
            det = minor(symbolic_matrix(3, slot=s), (1, 2, 3), (1, 2, 3))
            inv = inv * det ** h33
    return inv


def _as_int(c: Fraction, what: str) -> int:
    if c.denominator != 1:
        raise ConsistencyError(f"{what} coefficient {c} is not an integer")
    return c.numerator


def _slot_projection(label: IrrepLabel, slot: int, scale: int):
    """Bargmann projections of one slot's basis onto single monomials.

    Maps each monomial u of the label's basis polynomials, tagged into
    `slot`, to its (pattern index * scale, <b_p, u>) pairs, where
    <b_p, u> = coef_{b_p}(u) * prod e! over u's exponents.  Also returns the
    norms squared in pattern order.  Everything is an integer."""
    proj: dict[Monomial, list[tuple[int, int]]] = {}
    nsq = []
    for i, p in enumerate(patterns_of(label)):
        poly, n = _raw_basis(p.rows)
        nsq.append(_as_int(n, "norm"))
        for m, c in poly.terms.items():
            v = _as_int(c, "basis")
            for _, e in m:
                v *= _fact(e)
            u = tuple(((kind, slot, a, b), e) for (kind, _, a, b), e in m)
            proj.setdefault(u, []).append((i * scale, v))
    return proj, nsq


# Bisection bounds: an invariant monomial has only z variables, sorted by
# slot, so its slot-2 and slot-3 parts start where these would sort.
_SLOT2, _SLOT3 = (("z", 2),), (("z", 3),)


def _contract(inv: ExactPoly, projs) -> dict[int, int]:
    """<b1 b2 b3, inv> for every pattern triple at once.

    The pairing splits over disjoint slots, <b1 b2 b3, c m> =
    c * prod_s <b_s, m_s>, so each invariant term c*m adds
    c * v1 * v2 * v3 to every key whose slot projections hold m's parts.
    Keys are the scaled pattern indices summed, i.e. (i3, i1, i2) in mixed
    radix, so integer order is that tuple order."""
    proj1, proj2, proj3 = projs
    acc: dict[int, int] = {}
    for m, c in inv.terms.items():
        c = _as_int(c, "invariant")
        a = bisect_left(m, _SLOT2)
        b = bisect_left(m, _SLOT3, a)
        l1 = proj1.get(m[:a])
        l2 = proj2.get(m[a:b])
        l3 = proj3.get(m[b:])
        if l1 is None or l2 is None or l3 is None:
            continue
        for k1, v1 in l1:
            for k2, v2 in l2:
                k12, c12 = k1 + k2, c * v1 * v2
                for k3, v3 in l3:
                    key = k12 + k3
                    acc[key] = acc.get(key, 0) + c12 * v3
    return acc


@lru_cache(maxsize=None)
def _table_cached(h1: tuple, h2: tuple, h3: tuple) -> CouplingTable:
    labels = (IrrepLabel(h1), IrrepLabel(h2), IrrepLabel(h3))
    k3min, k3max, family = _k_family(labels)
    k3_values = tuple(sorted(family))
    if not k3_values:
        return CouplingTable(labels, 0, (), (), {})
    pats = [patterns_of(l) for l in labels]
    d12, d2 = len(pats[0]) * len(pats[1]), len(pats[1])
    (proj1, n1), (proj2, n2), (proj3, n3) = (
        _slot_projection(l, s, scale)
        for s, (l, scale) in enumerate(zip(labels, (d2, 1, d12)), start=1))

    def unpack(key: int) -> tuple[int, int, int]:
        i3, rest = divmod(key, d12)
        return (i3,) + divmod(rest, d2)

    # Raw coefficient vectors per rho: the exact integer pairing of the
    # invariant with each unnormalized basis product, divided by the
    # product's norm squared g, which gives the coefficient relative to the
    # orthonormal basis up to sqrt(g).
    gvals: dict[int, int] = {}
    raw: list[dict[int, Fraction]] = []
    for k3 in k3_values:
        pairings = _contract(_invariant_z(family[k3], labels),
                             (proj1, proj2, proj3))
        vec = {}
        for key in sorted(pairings):
            if pairings[key]:
                if key not in gvals:
                    i3, i1, i2 = unpack(key)
                    gvals[key] = n1[i1] * n2[i2] * n3[i3]
                vec[key] = Fraction(pairings[key], gvals[key])
        raw.append(vec)

    # Gram-Schmidt over rho with the key-radicand metric.
    def dot(u: dict[int, Fraction], v: dict[int, Fraction]) -> Fraction:
        return sum((u[i] * v[i] * gvals[i] for i in u.keys() & v.keys()),
                   Fraction(0))

    ortho: list[dict[int, Fraction]] = []
    norms: list[Fraction] = []
    for vec in raw:
        cur = dict(vec)
        for prev, nprev in zip(ortho, norms):
            coef = dot(cur, prev) / nprev
            if coef:
                for i, val in prev.items():
                    cur[i] = cur.get(i, Fraction(0)) - coef * val
                cur = {i: v for i, v in cur.items() if v}
        n = dot(cur, cur)
        if n == 0:
            raise ConsistencyError("degenerate multiplicity family")
        ortho.append(cur)
        norms.append(n)

    # Block-unitary scale: multiply by sqrt(dim of the third label).
    d3 = weyl_dimension(labels[2])
    entries: dict[tuple, SqrtRational] = {}
    for rho0, (vec, n) in enumerate(zip(ortho, norms)):
        # sign: first nonzero key in (i3, i1, i2) order is positive
        first = min(vec)
        sign = 1 if vec[first] > 0 else -1
        for idx, t in vec.items():
            val = SqrtRational(sign * t, gvals[idx] * d3 / n)
            if not val.is_zero():
                i3, i1, i2 = unpack(idx)
                key = (pats[0][i1].rows, pats[1][i2].rows, pats[2][i3].rows,
                       rho0 + 1)
                entries[key] = val
    return CouplingTable(labels, len(k3_values), k3_values,
                         tuple(family[k3] for k3 in k3_values), entries)


def coupling_table(labels) -> CouplingTable:
    """Full Wigner coefficient table of an SU(3) label triple (the third
    label enters in its conjugate embedding, as in any 3-symbol)."""
    l1, l2, l3 = (as_label(l) for l in labels)
    return _table_cached(l1.h, l2.h, l3.h)


def su3_wigner(labels, patterns, rho: int = 1) -> SqrtRational:
    """Wigner coefficient of a pattern triple at multiplicity rho (1-based);
    exact zero when the weights do not balance or the triple does not couple."""
    table = coupling_table(labels)
    if rho < 1 or rho > max(table.rho_count, 0):
        raise DomainError(f"rho out of range 1..{table.rho_count}")
    return table.value(patterns, rho)


def su3_wigner_secondary(labels, patterns, rho: int = 1) -> Fraction:
    """Raw coefficient by the closed triple-sum route: the multiplicity-sliced
    multinomial sum over the index system times the two-slot invariant
    extraction.  Equals the raw polynomial-expansion coefficient exactly."""
    labels = tuple(as_label(l) for l in labels)
    pats = tuple(require_valid(as_pattern(p)) for p in patterns)
    k3min, k3max, family = _k_family(labels)
    if not family:
        return Fraction(0)
    k = _rho_k(family, rho)
    slot_tables = tuple(_slot_exponent_table(p) for p in pats)
    p_exp = _p_exponents(pats)
    if min(p_exp) < 0:
        return Fraction(0)
    sols = [iv for iv in index_solutions_closed(slot_tables, p_exp)
            if _k_of_solution(iv) == k]
    if not sols:
        return Fraction(0)
    d = _reduced_sum(k, sols)
    p1, p2, p3 = p_exp
    target = mono_from_map({
        v: e for s, p in enumerate(pats, start=1)
        for v, e in ((xvar(2, 1, s), _slot2_exponents(p)[0]),
                     (yvar(2, 1, s), _slot2_exponents(p)[1])) if e
    })
    c2 = _xi_product(p1, p2, p3).coefficient(target)
    return d * c2


def _k_of_solution(iv: Sequence[int]) -> tuple[int, ...]:
    return (iv[0] + iv[1], iv[2] + iv[3], iv[4] + iv[5], iv[6] + iv[7],
            iv[8] + iv[9], iv[10] + iv[11], iv[12] + iv[13] + iv[14])


def su3_wigner_generating(labels, patterns, rho: int = 1) -> Fraction:
    """Raw coefficient of a pattern triple in the parameter-space image of
    the invariant: expand prod W_i^(k_i) over the generating-function
    parameters and read the coefficient of the three pattern monomials.
    Agrees exactly with the closed triple-sum route."""
    labels = tuple(as_label(l) for l in labels)
    pats = tuple(require_valid(as_pattern(p)) for p in patterns)
    k3min, k3max, family = _k_family(labels)
    if not family:
        return Fraction(0)
    k = _rho_k(family, rho)
    ws = w_invariants()
    inv = ExactPoly.const(1)
    for w, e in zip(ws, k):
        if e:
            inv = inv * w ** e
    mono = mono_mul(mono_mul(pattern_phi(pats[0], 1), pattern_phi(pats[1], 2)),
                    pattern_phi(pats[2], 3))
    return inv.coefficient(mono)


def su3_isoscalar(labels, su2_rows, rho: int = 1) -> SqrtRational:
    """Isoscalar factor: the Wigner coefficient divided by its embedded SU(2)
    3-j factor, independent of the bottom-row choice.

    `su2_rows` is the triple of middle rows [h12, h22] (one per slot); all
    valid bottom rows are scanned and the ratios must agree.  If every SU(2)
    factor vanishes, the isoscalar is undefined and IsoscalarUndefined is
    raised.
    """
    labels = tuple(as_label(l) for l in labels)
    rows = [tuple(int(v) for v in r) for r in su2_rows]
    table = coupling_table(labels)
    if rho < 1 or rho > max(table.rho_count, 0):
        raise DomainError(f"rho out of range 1..{table.rho_count}")
    ratios: list[SqrtRational] = []
    for bots in _bottom_choices(labels, rows):
        pats = [GelfandPattern([list(labels[s].h), list(rows[s]), [bots[s]]])
                for s in range(3)]
        sub2 = [GelfandPattern([list(rows[s]), [bots[s]]]) for s in range(3)]
        tj = su2_threej(*sub2)
        if tj.is_zero():
            continue
        cg = table.value(pats, rho)
        ratios.append(cg / tj)
    if not ratios:
        raise IsoscalarUndefined(
            f"every SU(2) factor vanishes for rows {rows} of {labels}")
    first = ratios[0]
    for r in ratios[1:]:
        if r != first:
            raise ConsistencyError("isoscalar ratio depends on the bottom row")
    return first


def _bottom_choices(labels, rows):
    ranges = []
    for s in range(3):
        h12, h22 = rows[s]
        l = labels[s]
        if not (l.h[0] >= h12 >= l.h[1] >= h22 >= l.h[2]):
            raise DomainError(f"row {rows[s]} violates branching under {list(l.h)}")
        ranges.append(range(h22, h12 + 1))
    for b1 in ranges[0]:
        for b2 in ranges[1]:
            for b3 in ranges[2]:
                yield (b1, b2, b3)


def conjugate_label(label) -> IrrepLabel:
    """Conjugate U(3) label in its minimal non-negative embedding:
    [h1-h3, h1-h2, 0]."""
    l = as_label(label)
    if l.n != 3:
        raise DomainError("conjugate_label is for U(3) labels")
    h1, h2, h3 = l.h
    return IrrepLabel((h1 - h3, h1 - h2, 0))
