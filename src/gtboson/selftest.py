"""Desk-scale verification suites.

Each suite checks one exact property of the library against an independent
route (enumeration vs closed formula, expansion vs oracle, table vs
orthogonality) and returns a short report.  The command-line `selftest`
subcommand and the acceptance test module both run these.

A suite is written as a generator of its checks: each check yields True when
it holds and its failure text when it fails, so the text is only built on
failure.  A guard that is not counted as a check yields text only when it
fails.  One runner (`_suite`) counts the True yields, stops at the first
failure text and builds the suite's `SuiteResult`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

from . import basisgen, coupling, gelfand, oracles
from .gelfand import GelfandPattern, IrrepLabel, enumerate_patterns, patterns_of
from .polyengine import (
    ExactPoly,
    Monomial,
    bargmann_inner,
    minor,
    mono_text,
    power_product,
    symbolic_matrix,
    xvar,
    yvar,
)

__all__ = ["SuiteResult", "run_all", "SUITES",
           "GOLDEN_PHI_N3", "GOLDEN_PHI_N4", "GOLDEN_PHI_N5"]


@dataclass
class SuiteResult:
    name: str
    ok: bool
    checks: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: {self.checks} checks{extra}"


def _suite(name: str, scope: str):
    """Make a generator of checks into a suite returning its SuiteResult:
    PASS with the number of checks and `scope`, or FAIL with the checks that
    passed before the first failure and that failure's text."""
    def decorate(checks_of):
        @wraps(checks_of)
        def run() -> SuiteResult:
            passed = 0
            for outcome in checks_of():
                if outcome is not True:
                    return SuiteResult(name, False, passed, outcome)
                passed += 1
            return SuiteResult(name, True, passed, scope)
        return run
    return decorate


def _labels_upto(n: int, hmax: int):
    for h in itertools.combinations_with_replacement(range(hmax, -1, -1), n):
        yield IrrepLabel(h)


# -- 1. dimension vs enumeration --------------------------------------------


@_suite("dimension-enumeration", "n<=5, h1<=4")
def suite_dimensions():
    for n in range(1, 6):
        for label in _labels_upto(n, 4):
            yield (len(enumerate_patterns(label)) == gelfand.weyl_dimension(label)
                   or f"mismatch at {label!r}")


# -- 2. generating-function golden fixtures ---------------------------------

# Transcribed word -> parameter-monomial tables of the closed generating
# functions for three, four and five boxes.  Monomials are written in the
# library's canonical text order (x factors before y factors).  The all-ones
# (determinant) words carry no parameter.

GOLDEN_PHI_N3 = {
    "100": "y(2,1)*y(3,1)",
    "010": "x(2,1)*y(3,1)",
    "001": "x(3,1)",
    "110": "y(3,2)",
    "101": "x(3,2)*y(2,1)",
    "011": "x(2,1)*x(3,2)",
    "111": "1",
}

GOLDEN_PHI_N4 = {
    "1000": "y(2,1)*y(3,1)*y(4,1)",
    "0100": "x(2,1)*y(3,1)*y(4,1)",
    "0010": "x(3,1)*y(4,1)",
    "0001": "x(4,1)",
    "1100": "y(3,2)*y(4,2)",
    "1010": "x(3,2)*y(2,1)*y(4,2)",
    "0110": "x(2,1)*x(3,2)*y(4,2)",
    "1001": "x(4,2)*y(2,1)*y(3,1)",
    "0101": "x(2,1)*x(4,2)*y(3,1)",
    "0011": "x(3,1)*x(4,2)",
    "1110": "y(4,3)",
    "1101": "x(4,3)*y(3,2)",
    "1011": "x(3,2)*x(4,3)*y(2,1)",
    "0111": "x(2,1)*x(3,2)*x(4,3)",
    "1111": "1",
}

GOLDEN_PHI_N5 = {
    "10000": "y(2,1)*y(3,1)*y(4,1)*y(5,1)",
    "01000": "x(2,1)*y(3,1)*y(4,1)*y(5,1)",
    "00100": "x(3,1)*y(4,1)*y(5,1)",
    "00010": "x(4,1)*y(5,1)",
    "00001": "x(5,1)",
    "10001": "x(5,2)*y(2,1)*y(3,1)*y(4,1)",
    "01001": "x(2,1)*x(5,2)*y(3,1)*y(4,1)",
    "00101": "x(3,1)*x(5,2)*y(4,1)",
    "00011": "x(4,1)*x(5,2)",
    "10100": "x(3,2)*y(2,1)*y(4,2)*y(5,2)",
    "01100": "x(2,1)*x(3,2)*y(4,2)*y(5,2)",
    "11000": "y(3,2)*y(4,2)*y(5,2)",
    "10010": "x(4,2)*y(2,1)*y(3,1)*y(5,2)",
    "01010": "x(2,1)*x(4,2)*y(3,1)*y(5,2)",
    "00110": "x(3,1)*x(4,2)*y(5,2)",
    "10101": "x(3,2)*x(5,3)*y(2,1)*y(4,2)",
    "01101": "x(2,1)*x(3,2)*x(5,3)*y(4,2)",
    "11001": "x(5,3)*y(3,2)*y(4,2)",
    "10011": "x(4,2)*x(5,3)*y(2,1)*y(3,1)",
    "01011": "x(2,1)*x(4,2)*x(5,3)*y(3,1)",
    "00111": "x(3,1)*x(4,2)*x(5,3)",
    "10111": "x(3,2)*x(4,3)*x(5,4)*y(2,1)",
    "01111": "x(2,1)*x(3,2)*x(4,3)*x(5,4)",
    "11011": "x(4,3)*x(5,4)*y(3,2)",
    "11101": "x(5,4)*y(4,3)",
    "10110": "x(3,2)*x(4,3)*y(2,1)*y(5,3)",
    "01110": "x(2,1)*x(3,2)*x(4,3)*y(5,3)",
    "11010": "x(4,3)*y(3,2)*y(5,3)",
    "11100": "y(4,3)*y(5,3)",
    "11110": "y(5,4)",
    "11111": "1",
}


@_suite("generating-function-fixtures", "7 + 15 + 31 words")
def suite_generating_function():
    for n, golden in ((3, GOLDEN_PHI_N3), (4, GOLDEN_PHI_N4), (5, GOLDEN_PHI_N5)):
        words = sorted((bits for bits in itertools.product((0, 1), repeat=n)
                        if any(bits)), key=lambda bits: (sum(bits), bits))
        if len(words) != len(golden):
            yield f"word count for n={n}"
        for bits in words:
            w = "".join(map(str, bits))
            got = mono_text(gelfand._phi_bits(bits, 0))
            yield got == golden[w] or f"word {w}: {got} != {golden[w]}"


# -- 3. orthonormality and norm formulas -------------------------------------


@_suite("orthonormality", "U(2) h1<=4, U(3) h1<=3")
def suite_orthonormality():
    for label in _labels_upto(2, 4):
        basis = [basisgen.basis_from_branching(p) for p in patterns_of(label)]
        for i, bi in enumerate(basis):
            yield (bargmann_inner(bi.poly, bi.poly) == bi.norm_sq
                   or f"stored norm at {bi.pattern!r}")
            yield (bi.norm_sq == oracles.norm_sq_u2(bi.pattern)
                   or f"U(2) norm formula at {bi.pattern!r}")
            for bj in basis[i + 1:]:
                yield (bargmann_inner(bi.poly, bj.poly) == 0
                       or f"U(2) pair {bi.pattern!r}")
    for label in _labels_upto(3, 3):
        basis = [basisgen.basis_from_branching(p) for p in patterns_of(label)]
        for i, bi in enumerate(basis):
            yield (bi.norm_sq == oracles.norm_sq_u3(bi.pattern)
                   or f"U(3) norm formula at {bi.pattern!r}")
            for bj in basis[i + 1:]:
                yield (bargmann_inner(bi.poly, bj.poly) == 0
                       or f"U(3) pair {bi.pattern!r}")
        # semi-maximal closed norm per branch
        for row2 in {p.row(label.n - 1) for p in patterns_of(label)}:
            sm = oracles.semimax_pattern(label, row2)
            yield (basisgen.basis_from_branching(sm).norm_sq
                   == oracles.norm_sq_semimax(label, row2)
                   or f"semimax norm at {label!r}->{row2}")


# -- 4. closed forms vs branching oracle -------------------------------------


@_suite("closed-forms", "U(3) [2,1,0]; U(4) [1,1,0,0], [2,1,0,0]")
def suite_closed_forms():
    for p in patterns_of(IrrepLabel((2, 1, 0))):
        a = basisgen.basis_from_branching(p)
        c = basisgen.u3_basis_closed(p)
        yield a.poly == c.poly and a.norm_sq == c.norm_sq or f"U(3) {p!r}"
        h = p.rows
        if h[0][2] == 0 and h[2][0] >= h[0][1]:
            hb = oracles.u3_basis_hypergeometric(p)
            ca, ch = a.poly.leading_coefficient(), hb.poly.leading_coefficient()
            # form and norm are one check with two failure texts
            if a.poly * ch != hb.poly * ca:
                yield f"2F1 form {p!r}"
            yield (hb.norm_sq == oracles.norm_sq_u3_hypergeometric(p)
                   or f"2F1 norm {p!r}")
    for h in ((1, 1, 0, 0), (2, 1, 0, 0)):
        for p in patterns_of(IrrepLabel(h)):
            a = basisgen.basis_from_branching(p)
            c = basisgen.u4_basis_closed(p)
            yield a.poly == c.poly and a.norm_sq == c.norm_sq or f"U(4) {p!r}"


# -- 5. combinatorial evaluation factors --------------------------------------


def _reconstruct_lower(row: tuple, mono: Monomial) -> GelfandPattern | None:
    """Rebuild the pattern below a known top row from a parameter monomial
    (drops from the x exponents; the y exponents, checked back, are >= 0)."""
    exps = dict(mono)
    rows = [tuple(row)]
    cur = list(row)
    for lam in range(len(row), 1, -1):
        nxt = [cur[mu - 1] - exps.get(("x", 0, lam, mu), 0)
               for mu in range(1, lam)]
        for mu in range(1, lam):
            if exps.get(("y", 0, lam, mu), 0) != nxt[mu - 1] - cur[mu]:
                return None
        rows.append(tuple(nxt))
        cur = nxt
    return GelfandPattern(rows)


def _pn1_rows_from_exponents(n: int, exps) -> tuple[tuple, tuple]:
    """Top two rows of a U(n) pattern realizing the acting level-n exponents
    (R_n^1..R_n^(n-2), L_n^2..L_n^(n-1)); the spectator exponents (L_n^1,
    R_n^(n-1) and the determinant power) are set to zero."""
    rr = exps[: n - 2]
    ll = exps[n - 2:]
    a = [0] * (n - 1)
    for j in range(n - 3, -1, -1):
        a[j] = a[j + 1] + rr[j] + ll[j]
    rr_full = tuple(rr) + (0,)
    top = [a[0]] + [a[k] - rr_full[k] for k in range(n - 1)]
    return tuple(top), tuple(a)


def _pn1_table(n: int, sums: tuple, mono: Monomial) -> gelfand.LRExponents:
    """Exponent table of a mirror monomial under the level-n group powers:
    R_n^k carries sums[k-1] and L_n^(k+1) is zero (only their sum enters),
    and below level n, R is read off the y and L off the x variables."""
    e = dict(mono)
    R = {(n, k): sums[k - 1] for k in range(1, n - 1)}
    L = {(n, k + 1): 0 for k in range(1, n - 1)}
    for lam in range(2, n):
        for mu in range(1, lam):
            R[(lam, mu)] = e.get(yvar(lam, mu), 0)
            L[(lam, mu)] = e.get(xvar(lam, mu), 0)
    return gelfand.LRExponents(L, R)


@lru_cache(maxsize=None)
def _mirror_power(n: int, sums: tuple) -> ExactPoly:
    """prod_k G_k^{sums[k]} where G_k is the popcount-k parameter mirror;
    the mirror of the full kernel factors through these sums."""
    sx, sy = oracles._mirror_groups(n)
    return power_product([(sy[k], sums[k - 1]) for k in range(1, n - 1)])


def _pn1_sweep(n: int, bound: int):
    """Every monomial of every mirror expansion with the acting exponents
    bounded must carry the library's evaluation-factor product as coefficient;
    a sample of monomials per expansion is additionally pushed through the
    full pattern reconstruction and the public p_n_1."""
    done_sums: set = set()
    for exps in itertools.product(range(bound + 1), repeat=2 * n - 4):
        # acting tuple ordered (R_n^1..R_n^(n-2), L_n^2..L_n^(n-1))
        sums = tuple(exps[j] + exps[n - 2 + j] for j in range(n - 2))
        top, row = _pn1_rows_from_exponents(n, exps)
        expansion = _mirror_power(n, sums)
        if sums not in done_sums:
            done_sums.add(sums)
            for mono, coeff in expansion.terms.items():
                yield (coeff == basisgen._pn1_product(_pn1_table(n, sums, mono))
                       or f"pn1 mismatch at {top}/{row} {mono}")
        # independently drive the public closed form on sampled patterns
        step = max(1, len(expansion.terms) // 5)
        for i, (mono, coeff) in enumerate(expansion.terms.items()):
            if i % step:
                continue
            lower = _reconstruct_lower(row, mono)
            if lower is None:
                yield f"stray monomial {mono} for {top}/{row}"
            full = GelfandPattern((top,) + lower.rows)
            yield coeff == basisgen.p_n_1(full) or f"pn1 mismatch at {full!r}"


@_suite("pn1", "exponents <=3 (n=3,4), <=2 (n=5)")
def suite_pn1():
    yield from _pn1_sweep(3, 3)
    yield from _pn1_sweep(4, 3)
    yield from _pn1_sweep(5, 2)
    # spectator exponents (L_n^1 and the determinant power) enter neither
    # side; spot-check a shifted pattern family
    for p in patterns_of(IrrepLabel((3, 2, 1, 1, 0))):
        expansion = oracles._mirror_expansion(p.top, p.row(4))
        target = gelfand.pattern_phi(p.lower())
        yield (expansion.coefficient(target) == basisgen.p_n_1(p)
               or f"pn1 mismatch at {p!r}")


# -- 6. five free indices in the U(4) sum -------------------------------------


_U4_LABELS = [h for h in itertools.combinations_with_replacement(
    range(2, -1, -1), 4) if max(h) >= 1]


@_suite("u4-free-indices", f"{len(_U4_LABELS)} labels, h1<=2")
def suite_u4_free_indices():
    for h in _U4_LABELS:
        for p in patterns_of(IrrepLabel(h)):
            yield oracles.u4_free_index_count(p) == 5 or f"{p!r}"


# -- 7. SU(2) three-j vs the factorial-sum oracle -----------------------------


@_suite("su2-threej", "oracle j<=3, orthogonality j<=2, reflection")
def suite_su2_threej():
    for tj1, tj2, tj3 in itertools.product(range(7), repeat=3):
        if (tj1 + tj2 + tj3) % 2:
            continue
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tm3 = -tm1 - tm2
                if abs(tm3) > tj3:
                    continue
                pats = [GelfandPattern([[tj, 0], [(tj + tm) // 2]])
                        for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3))]
                a = coupling.su2_threej(*pats)
                b = oracles.racah_threej_oracle(
                    Fraction(tj1, 2), Fraction(tm1, 2), Fraction(tj2, 2),
                    Fraction(tm2, 2), Fraction(tj3, 2), Fraction(tm3, 2))
                yield a == b or f"{(tj1, tm1, tj2, tm2, tj3, tm3)}"
    # orthogonality over magnetic numbers, j <= 2
    for tj1, tj2 in itertools.product(range(5), repeat=2):
        for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tj3b in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm3 in range(-min(tj3, tj3b), min(tj3, tj3b) + 1, 2):
                    acc: dict = {}
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = -tm3 - tm1
                        if abs(tm2) > tj2:
                            continue
                        v1 = coupling.su2_threej(
                            GelfandPattern([[tj1, 0], [(tj1 + tm1) // 2]]),
                            GelfandPattern([[tj2, 0], [(tj2 + tm2) // 2]]),
                            GelfandPattern([[tj3, 0], [(tj3 + tm3) // 2]]))
                        v2 = coupling.su2_threej(
                            GelfandPattern([[tj1, 0], [(tj1 + tm1) // 2]]),
                            GelfandPattern([[tj2, 0], [(tj2 + tm2) // 2]]),
                            GelfandPattern([[tj3b, 0], [(tj3b + tm3) // 2]]))
                        prod = v1 * v2 * (tj3 + 1)
                        if not prod.is_zero():
                            acc[prod.r] = acc.get(prod.r, Fraction(0)) + prod.q
                    acc = {r: q for r, q in acc.items() if q}
                    expect = ({Fraction(1): Fraction(1)}
                              if tj3 == tj3b else {})
                    yield (acc == expect
                           or f"orthogonality {(tj1, tj2, tj3, tj3b, tm3)}")
    # reflection symmetry: complementing every pattern flips by (-1)^(j+m) each
    for tj1, tj2, tj3 in itertools.product(range(5), repeat=3):
        if (tj1 + tj2 + tj3) % 2:
            continue
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tm3 = -tm1 - tm2
                if abs(tm3) > tj3:
                    continue
                pats = [GelfandPattern([[tj, 0], [(tj + tm) // 2]])
                        for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3))]
                refl = [GelfandPattern([[tj, 0], [(tj - tm) // 2]])
                        for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3))]
                sign = (-1) ** (((tj1 + tm1) + (tj2 + tm2) + (tj3 + tm3)) // 2)
                yield (coupling.su2_threej(*refl) == coupling.su2_threej(*pats) * sign
                       or f"reflection {(tj1, tm1, tj2, tm2)}")


# -- 8. SU(3) coupling tables --------------------------------------------------


_SU3_CASES = (
    ((1, 0, 0), (1, 0, 0), (1, 0, 0)),       # 3 x 3 -> antitriplet channel
    ((1, 0, 0), (1, 0, 0), (2, 2, 0)),       # 3 x 3 -> sextet channel
    ((1, 0, 0), (1, 1, 0), (1, 1, 1)),       # 3 x 3bar -> singlet
    ((1, 0, 0), (1, 1, 0), (2, 1, 0)),       # 3 x 3bar -> octet
    ((2, 1, 0), (2, 1, 0), (2, 1, 0)),       # 8 x 8 -> octet, multiplicity 2
)


def _block_sums(table, labels):
    pats3 = patterns_of(IrrepLabel(labels[2]))
    for rho in range(1, table.rho_count + 1):
        for rho2 in range(rho, table.rho_count + 1):
            for i3, p3 in enumerate(pats3):
                for j3, q3 in enumerate(pats3):
                    if j3 < i3:
                        continue
                    acc: dict = {}
                    for key, val in table.entries.items():
                        if key[3] != rho or key[2] != p3.rows:
                            continue
                        other = table.entries.get((key[0], key[1], q3.rows, rho2))
                        if other is not None:
                            prod = val * other
                            if not prod.is_zero():
                                acc[prod.r] = acc.get(prod.r, Fraction(0)) + prod.q
                    acc = {r: q for r, q in acc.items() if q}
                    yield (rho, rho2, i3, j3), acc


@_suite("su3-coupling", "3x3, 3x3bar, 8x8 (rho=2)")
def suite_su3_coupling():
    for labels in _SU3_CASES:
        table = coupling.coupling_table(labels)
        if labels == ((2, 1, 0), (2, 1, 0), (2, 1, 0)) and table.rho_count != 2:
            yield "octet multiplicity != 2"
        for (rho, rho2, i3, j3), acc in _block_sums(table, labels):
            expect = ({Fraction(1): Fraction(1)}
                      if (rho == rho2 and i3 == j3) else {})
            yield acc == expect or f"unitarity {labels} {(rho, rho2, i3, j3)}"
        # path agreement: generating-function expansion vs closed triple sum
        pats = [patterns_of(IrrepLabel(h)) for h in labels]
        for rho in range(1, table.rho_count + 1):
            for p1 in pats[0]:
                for p2 in pats[1]:
                    for p3 in pats[2]:
                        a = oracles.su3_wigner_generating(labels, (p1, p2, p3), rho)
                        b = oracles.su3_wigner_secondary(labels, (p1, p2, p3), rho)
                        yield a == b or f"path {labels}"
        # isoscalar factorization: ratio independent of bottom rows, and
        # every nonzero coefficient splits as isoscalar * SU(2) 3-j.
        for key, val in table.entries.items():
            rows = (key[0][1], key[1][1], key[2][1])
            sub2 = [GelfandPattern([list(key[s][1]), list(key[s][2])])
                    for s in range(3)]
            tj = coupling.su2_threej(*sub2)
            if tj.is_zero():
                yield f"zero SU(2) factor under nonzero value {key}"
            isf = coupling.su3_isoscalar(labels, rows, key[3])
            yield val == isf * tj or f"factorization {key}"


# -- 9. kernel identity --------------------------------------------------------


@_suite("kernel-identity", "U(2), degree <= 3")
def suite_kernel_identity():
    dmax = 3
    z = symbolic_matrix(2, slot=0)
    u = symbolic_matrix(2, slot=1)
    m = [[sum((z[r][k] * u[c][k] for k in range(2)), ExactPoly())
          for c in range(2)] for r in range(2)]
    m1 = minor(m, (1,), (1,))
    m12 = minor(m, (1, 2), (1, 2))
    # per-label reproducing identity
    for h1 in range(dmax + 1):
        for h2 in range(h1 + 1):
            if h1 + h2 > dmax or h1 + h2 == 0:
                continue
            # M / (a/d) = sum_b b(z) b(u) / N_b, both sides times a * lcm(N_b)
            label = IrrepLabel((h1, h2))
            const = oracles.const_A(label)
            basis = [basisgen.basis_from_branching(p)
                     for p in patterns_of(label)]
            lcm = math.lcm(*(b.norm_sq for b in basis))
            lhs = m1 ** (h1 - h2) * m12 ** h2 * (const.denominator * lcm)
            rhs = ExactPoly()
            for b in basis:
                up = b.poly.map_variables(lambda v: ("z", 1, v[2], v[3]))
                rhs = rhs + (b.poly * up) * (const.numerator * lcm // b.norm_sq)
            yield lhs == rhs or f"label {label!r}"
    # aggregate binomial form: (sum_w D_w(z) D_w(u))^N over the labels with
    # leading entry N
    words = {
        "10": minor(z, (1,), (1,)) * minor(u, (1,), (1,)),
        "01": minor(z, (1,), (2,)) * minor(u, (1,), (2,)),
        "11": minor(z, (1, 2), (1, 2)) * minor(u, (1, 2), (1, 2)),
    }
    big = sum(words.values(), ExactPoly())
    for n in range(dmax + 1):
        lhs = big ** n
        rhs = ExactPoly()
        for h2 in range(n + 1):
            e1, e2 = n - h2, h2
            rhs = rhs + m1 ** e1 * m12 ** e2 * math.comb(n, h2)
        yield lhs == rhs or f"power {n}"


SUITES = {
    "dimensions": suite_dimensions,
    "generating": suite_generating_function,
    "orthonormality": suite_orthonormality,
    "closedforms": suite_closed_forms,
    "pn1": suite_pn1,
    "u4indices": suite_u4_free_indices,
    "su2": suite_su2_threej,
    "su3": suite_su3_coupling,
    "kernel": suite_kernel_identity,
}


def run_all(names=None) -> list[SuiteResult]:
    chosen = list(SUITES) if not names else [n for n in SUITES if n in names]
    return [SUITES[n]() for n in chosen]
