"""Independent routes to the library's quantities, for cross-checking.

The library has one production route per quantity.  Each route here
computes the same values another way: 3-j symbols by Racah's factorial sum
(`gtboson.racah`, re-exported here), raw SU(3) Wigner coefficients from the
invariants' parameter-space images (expanded directly, or by the
three-summation formula over the fifteen-index linear system), SU(3)
multiplicities from the Weyl character, the closed-form basis norms, the
U(2) and hypergeometric U(3) bases, the whole branching kernel and the
evaluation factors by mirror expansion.  Only the tests and the selftest
suites import this module.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from .basisgen import (
    BasisPolynomial,
    _branch_family,
    _check_branching,
    _finish,
    _kernel_factors,
    _prefixes,
    _u4_indices,
    _upper_minors,
)
from .coupling import _k_family, _su3_labels, _xi_coefficient
from .gelfand import (
    ConsistencyError,
    DomainError,
    GelfandPattern,
    IrrepLabel,
    StructureError,
    _phi_bits,
    as_label,
    as_pattern,
    lr_exponents,
    pattern_phi,
    patterns_of,
    weight,
)
from .polyengine import (
    ExactPoly,
    Monomial,
    _Frozen,
    power_product,
    product_sum,
    xvar,
    yvar,
)
from .racah import racah_threej_oracle

__all__ = [
    "racah_threej_oracle",
    "xi_invariant",
    "w_invariants",
    "SU6Indices",
    "k_exponents",
    "triple_to_su6",
    "index_solutions",
    "index_solutions_bruteforce",
    "index_solutions_closed",
    "su3_wigner_generating",
    "su3_wigner_secondary",
    "su3_multiplicity_character",
    "const_A",
    "norm_sq_semimax",
    "norm_sq_max",
    "norm_sq_u2",
    "norm_sq_u3",
    "semimax_pattern",
    "u2_basis_closed",
    "branching_kernel",
    "u3_basis_hypergeometric",
    "norm_sq_u3_hypergeometric",
    "p_n_1_oracle",
    "u4_free_index_count",
    "kernel_phi_support",
]

_fact = math.factorial


# ---------------------------------------------------------------------------
# SU(3): the invariants in parameter space and the fifteen-index system.
# ---------------------------------------------------------------------------


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


def xi_invariant(a: int, b: int) -> ExactPoly:
    """Antisymmetric invariant of slots a < b:
    y_a(2,1) x_b(2,1) - x_a(2,1) y_b(2,1)."""
    if not (1 <= a < b <= 3):
        raise DomainError("xi_invariant requires slots 1 <= a < b <= 3")
    ya, xa = ExactPoly.variable(yvar(2, 1, a)), ExactPoly.variable(xvar(2, 1, a))
    yb, xb = ExactPoly.variable(yvar(2, 1, b)), ExactPoly.variable(xvar(2, 1, b))
    return ya * xb - xa * yb


def _term_poly(term) -> ExactPoly:
    _, factors, xi, sign = term
    poly = ExactPoly.const(sign)
    for kind, lam, mu, slot in factors:
        var = xvar(lam, mu, slot) if kind == "x" else yvar(lam, mu, slot)
        poly = poly * ExactPoly.variable(var)
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


class SU6Indices(_Frozen):
    """The free entries of the six-row invariant pattern; h11 equals h12 by
    convention (the printed bottom row)."""

    __slots__ = ("h13", "h24", "h34", "h23", "h33", "h12", "h22", "h11")

    def __init__(self, h13: int, h24: int, h34: int, h23: int, h33: int,
                 h12: int, h22: int, h11: int):
        for name, value in zip(self.__slots__,
                               (h13, h24, h34, h23, h33, h12, h22, h11)):
            object.__setattr__(self, name, value)


def k_exponents(su6: SU6Indices) -> tuple[int, ...]:
    """Invariant exponents (k1..k7) read off the six-row pattern entries."""
    k = (su6.h34 - su6.h33,
         su6.h33,
         su6.h12 - su6.h23,
         su6.h22 - su6.h33,
         (su6.h13 - su6.h24) - (su6.h12 - su6.h23),
         su6.h24 - su6.h23,
         (su6.h23 - su6.h34) - (su6.h22 - su6.h33))
    if any(v < 0 for v in k):
        raise DomainError(f"pattern indices give a negative exponent: {k}")
    return k


def _rho_k(family: dict[int, tuple[int, ...]], rho: int) -> tuple[int, ...]:
    """k-vector of multiplicity `rho` (1-based, by ascending k3)."""
    if not (1 <= rho <= len(family)):
        raise DomainError(f"rho must be in 1..{len(family)}")
    return family[sorted(family)[rho - 1]]


def triple_to_su6(labels, rho: int) -> SU6Indices:
    """Six-row pattern indices of the invariant selecting multiplicity `rho`
    (1-based, ordered by ascending k3) for the label triple."""
    family = _k_family(labels)
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


# The fifteen-index linear system.


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


# Wigner coefficients from the parameter-space images.


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


def su3_wigner_secondary(labels, patterns, rho: int = 1) -> Fraction:
    """Raw coefficient by the closed triple-sum route: the multiplicity-sliced
    multinomial sum over the index system times the two-slot invariants'
    coefficient, read as a binomial sum.  No polynomial is expanded.
    Equals the raw polynomial-expansion coefficient exactly."""
    labels = tuple(as_label(l) for l in labels)
    pats = tuple(as_pattern(p) for p in patterns)
    family = _k_family(labels)
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
    return _reduced_sum(k, sols) * _xi_coefficient(
        p_exp, [_slot2_exponents(p) for p in pats])


def _k_of_solution(iv: Sequence[int]) -> tuple[int, ...]:
    return (iv[0] + iv[1], iv[2] + iv[3], iv[4] + iv[5], iv[6] + iv[7],
            iv[8] + iv[9], iv[10] + iv[11], iv[12] + iv[13] + iv[14])


def su3_wigner_generating(labels, patterns, rho: int = 1) -> Fraction:
    """Raw coefficient of a pattern triple in the parameter-space image of
    the invariant: expand prod W_i^(k_i) over the generating-function
    parameters and read the coefficient of the three pattern monomials.
    Agrees exactly with the closed triple-sum route."""
    labels = tuple(as_label(l) for l in labels)
    pats = tuple(as_pattern(p) for p in patterns)
    family = _k_family(labels)
    if not family:
        return Fraction(0)
    k = _rho_k(family, rho)
    inv = power_product(zip(w_invariants(), k))
    # the three slots' monomials share no variable
    mono = tuple(sorted(itertools.chain.from_iterable(
        pattern_phi(p, slot) for slot, p in enumerate(pats, 1))))
    return inv.coefficient(mono)


def su3_multiplicity_character(labels) -> int:
    """Number of SU(3) invariants in the product of three U(3) irreps, from
    their weights alone: the multiplicity of det^(D/3) in
    lambda1 x lambda2 x lambda3 (D the total degree), as the alternating sum
    over S3 of the product's weight multiplicities at
    w(lambda + delta) - delta, with lambda = (D/3)^3 and delta = (2, 1, 0).
    No invariant and no basis polynomial is built."""
    labels = _su3_labels(labels)
    degree = sum(sum(l.h) for l in labels)
    if degree % 3:
        return 0
    w1, w2, w3 = (Counter(map(weight, patterns_of(l))) for l in labels)
    shifted = [degree // 3 + d for d in (2, 1, 0)]  # lambda + delta
    out = 0
    for perm in itertools.permutations(range(3)):
        mu = [shifted[i] - d for i, d in zip(perm, (2, 1, 0))]
        mult = sum(c1 * c2 * w3[tuple(m - a - b for m, a, b in zip(mu, x, y))]
                   for x, c1 in w1.items() for y, c2 in w2.items())
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        out += (-1) ** inversions * mult
    return out


# ---------------------------------------------------------------------------
# Bases: closed-form norms, the U(2) form and the whole branching kernel.
# ---------------------------------------------------------------------------


def const_A(label) -> Fraction:
    """Kernel constant of a label: (prod_j p_j!) / (prod_{i<j} (p_i - p_j))
    with p_j = h_j + n - j."""
    label = as_label(label)
    n = label.n
    p = [label.h[j] + n - (j + 1) for j in range(n)]
    num = 1
    for pj in p:
        num *= _fact(pj)
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            den *= p[i] - p[j]
    return Fraction(num, den)


def norm_sq_semimax(label, branch) -> Fraction:
    """Exact Bargmann norm squared of the unnormalized semi-maximal
    polynomial (principal minors to the interleaving powers, last-column
    minors to the drop powers).

    Closed form: prod_j p_{j,n}! * prod_{i<j<=n} (p'_i - p_j)!/(p_i - p_j)!
    * prod_{i<=j<=n-1} (p_i - p'_j - 1)! / prod_{i<j<=n-1} (p'_i - p'_j)!
    with p_j = h_j + n - j and p'_i = h'_i + n - 1 - i.
    """
    label = as_label(label)
    branch = as_label(branch)
    _check_branching(label, branch)
    n = label.n
    p = [label.h[j] + n - (j + 1) for j in range(n)]
    pp = [branch.h[i] + (n - 1) - (i + 1) for i in range(n - 1)]
    out = Fraction(1)
    for pj in p:
        out *= _fact(pj)
    for i in range(n - 1):
        for j in range(i + 1, n):
            out *= Fraction(_fact(pp[i] - p[j]), _fact(p[i] - p[j]))
    for i in range(n - 1):
        for j in range(i, n - 1):
            out *= _fact(p[i] - pp[j] - 1)
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            out /= _fact(pp[i] - pp[j])
    return out


def norm_sq_max(label) -> Fraction:
    """Norm squared of the highest-weight polynomial (principal minor powers)."""
    label = as_label(label)
    n = label.n
    if n == 1:
        return Fraction(_fact(label.h[0]))
    return norm_sq_semimax(label, IrrepLabel(label.h[: n - 1]))


def norm_sq_u2(pattern) -> Fraction:
    """Norm squared of the unnormalized U(2) polynomial
    D1^(h11-h22) D2^(h12-h11) D12^(h22)."""
    p = as_pattern(pattern)
    if p.n != 2:
        raise DomainError("norm_sq_u2 requires a U(2) pattern")
    h12, h22 = p.row(2)
    h11 = p.row(1)[0]
    return Fraction(
        _fact(h11 - h22) * _fact(h12 - h11) * _fact(h12 + 1) * _fact(h22),
        _fact(h12 - h22 + 1))


def norm_sq_u3(pattern) -> Fraction:
    """Closed-form norm squared of the binomial-sum U(3) polynomial, for any
    valid U(3) pattern.

    Follows from the kernel normalization chain: the semi-maximal norm times
    the norm of the highest-weight polynomial of the middle row's label,
    divided by the norm of the embedded U(2) polynomial.
    """
    p = as_pattern(pattern)
    if p.n != 3:
        raise DomainError("norm_sq_u3 requires a U(3) pattern")
    top = IrrepLabel(p.row(3))
    mid = IrrepLabel(p.row(2))
    return (norm_sq_semimax(top, mid) * norm_sq_max(mid)
            / norm_sq_u2(p.lower()))


def semimax_pattern(label, sub) -> GelfandPattern:
    """Pattern with prescribed row n-1 and maximal filling below it."""
    label = as_label(label)
    sub = as_label(sub)
    if sub.n != label.n - 1:
        raise StructureError("semimax branch must have size n-1")
    return GelfandPattern([label.h] + [sub.h[:k] for k in range(sub.n, 0, -1)])


def u2_basis_closed(pattern) -> BasisPolynomial:
    """U(2) closed form: D1^(h11-h22) D2^(h12-h11) D12^(h22)."""
    p = as_pattern(pattern)
    if p.n != 2:
        raise DomainError("u2_basis_closed requires a U(2) pattern")
    h12, h22 = p.row(2)
    h11 = p.row(1)[0]
    d = _upper_minors(2)
    poly = power_product([(d[(1,)], h11 - h22), (d[(2,)], h12 - h11),
                          (d[1, 2], h22)])
    return _finish(p, poly)


def branching_kernel(label, branch) -> ExactPoly:
    """Branching kernel of U(n) over U(n-1) for a label pair
    (`basisgen._kernel_factors`), as a polynomial in the z entries and the
    level <= n-1 parameters x(.,.), y(.,.)."""
    return power_product(_kernel_factors(as_label(label), as_label(branch)))


# ---------------------------------------------------------------------------
# Bases: the hypergeometric U(3) form, U(4) index count, evaluation factors.
# ---------------------------------------------------------------------------


def norm_sq_u3_hypergeometric(pattern) -> Fraction:
    """Norm squared of the hypergeometric-form U(3) polynomial (the 2F1
    series times D, see u3_basis_hypergeometric); defined on that form's
    domain, h33 = 0 and h11 >= h23.  Equals
    norm_sq_u3 * (D / C(h12 - h23, h11 - h23))**2."""
    p = as_pattern(pattern)
    if p.n != 3:
        raise DomainError("requires a U(3) pattern")
    h13, h23, h33 = p.row(3)
    h12, h22 = p.row(2)
    h11 = p.row(1)[0]
    if h33 != 0 or h11 < h23:
        raise DomainError("hypergeometric norm requires h33 = 0 and h11 >= h23")
    kmax, c = min(h23 - h22, h12 - h11), h11 - h23 + 1
    scale = Fraction(math.prod(range(c, c + kmax)) * _fact(kmax),
                     math.comb(h12 - h23, h11 - h23))
    return norm_sq_u3(p) * scale * scale


def u3_basis_hypergeometric(pattern) -> BasisPolynomial:
    """U(3) basis via the terminating 2F1 form, valid for h33 = 0 and
    h11 >= h23; other patterns are outside this form's domain.  The series
    is multiplied by its common denominator D = (c)_kmax * kmax!, so each
    step's division must be exact (ConsistencyError otherwise)."""
    p = as_pattern(pattern)
    if p.n != 3:
        raise DomainError("u3_basis_hypergeometric requires a U(3) pattern")
    h13, h23, h33 = p.row(3)
    h12, h22 = p.row(2)
    h11 = p.row(1)[0]
    if h33 != 0 or h11 < h23:
        raise DomainError("hypergeometric form requires h33 = 0 and h11 >= h23")
    d = _upper_minors(3)
    a, b, c = h22 - h23, h11 - h12, h11 - h23 + 1
    kmax = min(h23 - h22, h12 - h11)
    terms = []
    coeff = math.prod(range(c, c + kmax)) * _fact(kmax)
    for k in range(kmax + 1):
        if k:
            coeff, rem = divmod(coeff * (a + k - 1) * (b + k - 1),
                                (c + k - 1) * k)
            if rem:
                raise ConsistencyError(f"2F1 term {k} of {p!r} is not an "
                                       "integer multiple of 1/D")
        terms.append((coeff, [(d[(1,)], h11 - h23 + k),
                              (d[(2,)], h12 - h11 - k),
                              (d[1, 3], h23 - h22 - k), (d[2, 3], k),
                              (d[1, 2], h22), (d[(3,)], h13 - h12)]))
    return _finish(p, product_sum(terms))


def u4_free_index_count(pattern) -> int:
    """Number of free indices left by the U(4) constraint system: twelve
    trinomial indices minus the rank of the ten linear constraints (four
    group totals and six parameter-matching equations), computed exactly,
    once the five-index sum's index tuples for the pattern are checked to
    be every non-negative solution of the ten equations (ConsistencyError
    otherwise), found by brute force over the four groups' splits."""
    p = as_pattern(pattern)
    if p.n != 4:
        raise DomainError("u4_free_index_count requires a U(4) pattern")
    # Unknowns a..l in order; build constraint matrix rows.
    rows = [
        [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # a+b+c
        [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0],  # d+e+f
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0],  # g+h+i
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1],  # j+k+l
        [1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0],  # y(3,1)
        [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0],  # x(3,1)
        [0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0],  # x(3,2)
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1],  # y(3,2)
        [1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0],  # y(2,1)
        [0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0],  # x(2,1)
    ]
    lr = lr_exponents(p)
    L, R = lr.L, lr.R
    rhs = (R[(4, 1)], L[(4, 2)], R[(4, 2)], L[(4, 3)], R[(3, 1)], L[(3, 1)],
           L[(3, 2)], R[(3, 2)], R[(2, 1)], L[(2, 1)])
    splits = itertools.product(*([(u, v, t - u - v) for u in range(t + 1)
                                  for v in range(t - u + 1)] for t in rhs[:4]))
    brute = {iv for iv in (sum(split, ()) for split in splits)
             if all(sum(map(operator.mul, row, iv)) == b
                    for row, b in zip(rows, rhs))}
    if set(_u4_indices(lr)) != brute:
        raise ConsistencyError(f"five-index sum of {p!r} does not run over "
                               "the solutions of its constraints")
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(12):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / mat[rank][col]
            mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return 12 - rank


def kernel_phi_support(label, branch) -> set[Monomial]:
    """Set of parameter monomials occurring in the branching kernel; equals
    {pattern_phi(p) for p in patterns of the branch label} when the kernel is
    complete."""
    return set(_branch_family(as_label(label).h, as_label(branch).h))


# The evaluation factors P_n(1) by mirror expansion.


def _mirror_groups(n: int):
    """Parameter mirrors of the kernel groups: the z-minor of each word is
    replaced by 1, leaving the sum of prefix parameter monomials per group."""
    sx: dict[int, ExactPoly] = {k: ExactPoly() for k in range(1, n + 1)}
    sy: dict[int, ExactPoly] = {k: ExactPoly() for k in range(1, n)}
    for prefix in _prefixes(n):
        phi = ExactPoly.monomial(_phi_bits(prefix, 0))
        pc = sum(prefix)
        sx[pc + 1] = sx[pc + 1] + phi
        if pc >= 1:
            sy[pc] = sy[pc] + phi
    return sx, sy


@lru_cache(maxsize=None)
def _mirror_expansion(top: tuple[int, ...], row: tuple[int, ...]) -> ExactPoly:
    """Parameter mirror of the branching kernel of `top` over `row`: the
    group mirrors raised to the kernel's exponents.  The X(n) mirror is 1
    (the all-ones prefix), so the determinant power contributes nothing."""
    sx, sy = _mirror_groups(len(top))
    return power_product(
        [(sx[k], top[k - 1] - row[k - 1]) for k in range(1, len(top))]
        + [(sy[k], row[k - 1] - top[k]) for k in range(1, len(top))])


def p_n_1_oracle(pattern) -> int:
    """Brute-force evaluation factor: expand the parameter mirror of the
    branching kernel and extract the lower pattern's monomial."""
    p = as_pattern(pattern)
    if p.n < 3:
        raise DomainError("oracle defined for n >= 3")
    return _mirror_expansion(p.top, p.row(p.n - 1)).coefficient(
        pattern_phi(p.lower()))
