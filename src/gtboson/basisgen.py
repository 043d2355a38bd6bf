"""Boson polynomial bases of U(2), U(3), U(4) with their norms.

The generic construction expands a branching kernel, a finite product of
mixed minor/parameter groups, and reads off the coefficient of the lower
pattern's parameter monomial; that coefficient is the Gel'fand basis
polynomial up to normalization.  Each kernel is expanded once and split by
parameter monomial, which yields the basis of every pattern under its two
top rows.  Closed single-sum (U(3)) and five-index (U(4)) forms are tested
against this kernel route, the authoritative oracle; each is one weighted
sum of products of minors, expanded on one packed layout
(`polyengine.product_sum`).

Every route ends in `_finish`, which adds the norm squared in one pass over
the terms; no sign is searched for, because every route's highest term is
positive by construction.  Basis polynomials have integer coefficients and
carry their integer norm squared, never a square root.  The closed-form
norms, the U(2) form and the whole kernel polynomial are test oracles
(`gtboson.oracles`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import lru_cache

from .gelfand import (
    DomainError,
    GelfandPattern,
    IrrepLabel,
    LRExponents,
    _broken_betweenness,
    _phi_bits,
    as_pattern,
    lr_exponents,
    pattern_phi,
)
from .packed import packed_power_product
from .polyengine import (
    ExactPoly,
    Monomial,
    _Frozen,
    bargmann_inner,
    minor,
    product_sum,
    symbolic_matrix,
    zvar,
)

__all__ = [
    "BasisPolynomial",
    "basis_from_branching",
    "u3_basis_closed",
    "u4_basis_closed",
    "p_n_1",
]

_fact = math.factorial


class BasisPolynomial(_Frozen):
    """Unnormalized basis polynomial with its integer Bargmann norm squared.

    The polynomial follows the sign convention that its highest monomial
    (canonical monomial order) has positive coefficient; dividing by
    sqrt(norm_sq) gives the orthonormal Gel'fand vector.
    """

    __slots__ = ("pattern", "poly", "norm_sq")

    def __init__(self, pattern: GelfandPattern, poly: ExactPoly, norm_sq: int):
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "norm_sq", norm_sq)

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern.to_json(),
            "poly": self.poly.text(),
            "norm_sq": f"{self.norm_sq}/1",
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BasisPolynomial":
        """Rebuild from the wire form; the pattern determines the polynomial,
        which is re-derived and checked against the serialized text."""
        b = basis_from_branching(GelfandPattern.from_json(obj["pattern"]))
        if b.poly.text() != obj["poly"] or obj["norm_sq"] != f"{b.norm_sq}/1":
            raise ValueError("serialized basis polynomial does not match "
                             "its pattern")
        return b


def _check_branching(label: IrrepLabel, branch: IrrepLabel) -> None:
    if branch.n != label.n - 1:
        raise DomainError("branch label must have size n-1")
    broken = _broken_betweenness((label.h, branch.h))
    if broken is not None:
        raise DomainError(f"branching violated: {broken}")


# ---------------------------------------------------------------------------
# Branching kernel and the generic basis construction.
# ---------------------------------------------------------------------------


def _prefixes(n: int) -> list[tuple[int, ...]]:
    """All 0/1 words of length n-1 (the all-zero prefix included)."""
    return [tuple((i >> (n - 2 - k)) & 1 for k in range(n - 1))
            for i in range(2 ** (n - 1))]


@lru_cache(maxsize=8)
def _upper_minors(n: int) -> dict[tuple[int, ...], ExactPoly]:
    """The minors of symbolic_matrix(n) on rows 1..k, for every non-empty
    set of k columns, keyed by that column tuple.  Callers must not mutate
    the dict."""
    z = symbolic_matrix(n)
    return {cols: minor(z, tuple(range(1, len(cols) + 1)), cols)
            for k in range(1, n + 1)
            for cols in itertools.combinations(range(1, n + 1), k)}


@lru_cache(maxsize=8)
def _kernel_groups(n: int):
    """Coefficient groups of the level-n parameters in the generating
    function.  Group X(k) collects words ending in a one with popcount k,
    Y(k) words ending in a zero with popcount k; each word contributes its
    rows-1..k minor times its parameter monomial at levels below n.
    Callers must not mutate the dicts."""
    minors = _upper_minors(n)
    groups_x: dict[int, ExactPoly] = {k: ExactPoly() for k in range(1, n + 1)}
    groups_y: dict[int, ExactPoly] = {k: ExactPoly() for k in range(1, n)}
    for prefix in _prefixes(n):
        phi = ExactPoly.monomial(_phi_bits(prefix, 0))
        ones = tuple(i + 1 for i, b in enumerate(prefix) if b)
        pc = len(ones)
        # word = prefix + (1,): minor on columns of ones incl. column n
        groups_x[pc + 1] = groups_x[pc + 1] + minors[ones + (n,)] * phi
        if pc >= 1:
            groups_y[pc] = groups_y[pc] + minors[ones] * phi
    return groups_x, groups_y


def _kernel_factors(label: IrrepLabel,
                    branch: IrrepLabel) -> list[tuple[ExactPoly, int]]:
    """The (group, exponent) factors of the branching kernel of a label
    pair: the X groups to the drop exponents L_k = h_{k,n} - h_{k,n-1}
    (with L_n = h_{nn}) and the Y groups to the interleaving exponents
    R_k = h_{k,n-1} - h_{k+1,n}."""
    _check_branching(label, branch)
    n = label.n
    gx, gy = _kernel_groups(n)
    h, b = label.h, branch.h
    return ([(gx[k], h[k - 1] - b[k - 1]) for k in range(1, n)]
            + [(gy[k], b[k - 1] - h[k]) for k in range(1, n)]
            + [(gx[n], h[n - 1])])


@lru_cache(maxsize=None)
def _branch_family(top: tuple[int, ...],
                   row: tuple[int, ...]) -> dict[Monomial, ExactPoly]:
    """Every basis polynomial of the patterns with this top and next row,
    keyed by the lower pattern's parameter monomial: the branching kernel,
    expanded once in packed exponents and split by the mask of its z
    fields, so each term's z part and each parameter monomial is unpacked
    once.  The polynomials share one tuple per (variable, exponent) pair,
    so the cache holds each pair once.  Callers must not mutate the dict."""
    layout, packed = packed_power_product(
        _kernel_factors(IrrepLabel(top), IrrepLabel(row)))
    zmask = layout.mask(v for v in layout.variables if v[0] == "z")
    unpack = layout.unpack
    shared: dict[tuple, tuple] = {}
    parts: dict[int, dict[Monomial, int]] = {}
    for k, c in packed.items():
        z = unpack(k & zmask)
        parts.setdefault(k & ~zmask, {})[tuple(map(shared.setdefault, z, z))] = c
    return {unpack(phi): ExactPoly._raw(terms) for phi, terms in parts.items()}


def _branch_poly(p: GelfandPattern) -> ExactPoly:
    """Kernel coefficient of a valid pattern, no sign convention applied:
    its entry in the branch family of its top two rows."""
    if p.n == 1:
        return ExactPoly.variable(zvar(1, 1)) ** p.top[0]
    poly = _branch_family(p.top, p.row(p.n - 1)).get(pattern_phi(p.lower()))
    if poly is None:
        raise DomainError(f"kernel extraction produced zero for {p!r}")
    return poly


def _finish(p: GelfandPattern, poly: ExactPoly) -> BasisPolynomial:
    """The basis polynomial of p with its Bargmann norm squared.

    Its highest monomial is positive with no search: every route that gets
    here (`_branch_poly`, the closed U(3) and U(4) forms, the U(2) and
    hypergeometric oracles) sums, with positive weights, products of minors
    on rows 1..k (z11^h for n = 1).  The highest term of the minor on columns
    c1 < ... < ck is its diagonal z[1,c1]...z[k,ck], with coefficient +1,
    and `_mono_order` is lexicographic, a monomial order, so the highest
    term of a product is the product of the highest terms and no highest
    term cancels (tested on every route and every U(2)-U(4) pattern with
    h1 <= 4)."""
    return BasisPolynomial(p, poly, bargmann_inner(poly, poly))


def basis_from_branching(pattern) -> BasisPolynomial:
    """Gel'fand basis polynomial by branching-kernel extraction, for any
    U(n) pattern with n <= 4 (the generic oracle); DomainError for n >= 5,
    whose bases nothing checks."""
    p = as_pattern(pattern)
    if p.n > 4:
        raise DomainError("basis construction is implemented for n <= 4")
    return _finish(p, _branch_poly(p))


def u3_basis_closed(pattern) -> BasisPolynomial:
    """U(3) closed form: the single binomial sum over i + j = h11 - h22 of
    C(h12-h23, i) C(h23-h22, j) D1^i D2^(h12-h23-i) D3^(h13-h12)
    D12^(h22-h33) D13^j D23^(h23-h22-j) D123^(h33)."""
    p = as_pattern(pattern)
    if p.n != 3:
        raise DomainError("u3_basis_closed requires a U(3) pattern")
    h13, h23, h33 = p.row(3)
    h12, h22 = p.row(2)
    h11 = p.row(1)[0]
    d = _upper_minors(3)
    r31, l32 = h12 - h23, h23 - h22
    fixed = [(d[(3,)], h13 - h12), (d[1, 2], h22 - h33), (d[1, 2, 3], h33)]
    terms = []
    for i in range(max(0, h11 - h22 - l32), min(r31, h11 - h22) + 1):
        j = h11 - h22 - i
        terms.append((math.comb(r31, i) * math.comb(l32, j),
                      [(d[(1,)], i), (d[(2,)], r31 - i), (d[1, 3], j),
                       (d[2, 3], l32 - j)] + fixed))
    return _finish(p, product_sum(terms))


def _u4_indices(lr: LRExponents) -> Iterator[tuple[int, ...]]:
    """The twelve trinomial indices (a, ..., l) of the five-index U(4) sum,
    for the exponent table of a U(4) pattern: a, c, d, g and i run free,
    and the four group totals and six parameter matches fix the rest."""
    L, R = lr.L, lr.R
    r41, l42, r42, l43 = R[(4, 1)], L[(4, 2)], R[(4, 2)], L[(4, 3)]
    r31, l31, l32, r32, r21, l21 = (R[(3, 1)], L[(3, 1)], L[(3, 2)],
                                    R[(3, 2)], R[(2, 1)], L[(2, 1)])
    for a in range(r41 + 1):
        for c in range(r41 - a + 1):
            b, f = r41 - a - c, l31 - c
            if f < 0:
                continue
            for d in range(l42 + 1):
                e = l42 - d - f
                if e < 0:
                    continue
                for g in range(r42 + 1):
                    for i in range(r42 - g + 1):
                        h, l = r42 - g - i, r32 - i
                        j = r21 - a - d - g
                        k = l43 - j - l
                        if (min(j, k, l) >= 0 and b + e + h + k == l21
                                and a + b + d + e == r31
                                and g + h + j + k == l32):
                            yield (a, b, c, d, e, f, g, h, i, j, k, l)


def u4_basis_closed(pattern) -> BasisPolynomial:
    """U(4) basis as a five-free-index sum of minor products.

    The trinomial groups of the branching kernel are expanded explicitly;
    after matching the lower pattern's parameter exponents, exactly five of
    the twelve trinomial indices remain free (a, c over the first group,
    d over the second, g, i over the third), all others being eliminated by
    the linear constraints.
    """
    p = as_pattern(pattern)
    if p.n != 4:
        raise DomainError("u4_basis_closed requires a U(4) pattern")
    lr = lr_exponents(p)
    dm = _upper_minors(4)
    fixed = [(dm[(4,)], lr.L[(4, 1)]), (dm[1, 2, 3], lr.R[(4, 3)]),
             (dm[1, 2, 3, 4], lr.L[(4, 4)])]
    groups = [dm[(1,)], dm[(2,)], dm[(3,)], dm[1, 4], dm[2, 4], dm[3, 4],
              dm[1, 3], dm[2, 3], dm[1, 2], dm[1, 3, 4], dm[2, 3, 4],
              dm[1, 2, 4]]
    poly = product_sum(
        (_multinom(*idx[:3]) * _multinom(*idx[3:6]) * _multinom(*idx[6:9])
         * _multinom(*idx[9:]), list(zip(groups, idx)) + fixed)
        for idx in _u4_indices(lr))
    if poly.is_zero():
        raise DomainError(f"empty five-index sum for {p!r}")
    return _finish(p, poly)


def _multinom(*parts: int) -> int:
    """Multinomial coefficient (sum of parts)! / prod(part!)."""
    out = _fact(sum(parts))
    for q in parts:
        out //= _fact(q)
    return out


# ---------------------------------------------------------------------------
# The combinatorial evaluation factors P_n(1).
# ---------------------------------------------------------------------------


def _pn1_product(lr: LRExponents) -> int:
    """P_n(1) from the exponent table of a U(n) pattern: the product over
    rows l = 2..n-1 and k = 1..l-1 of C(R_{l+1,k} + L_{l+1,k+1}, R_{l,k}),
    i.e. C(h_{k,l} - h_{k+1,l}, h_{k,l-1} - h_{k+1,l})."""
    out = 1
    for lam in range(2, max(lam for lam, _ in lr.R)):
        for k in range(1, lam):
            out *= math.comb(lr.R[(lam + 1, k)] + lr.L[(lam + 1, k + 1)],
                             lr.R[(lam, k)])
    return out


def p_n_1(pattern) -> int:
    """Closed-form combinatorial factor of the basis recurrence, for any
    valid U(n) pattern with n >= 3: the product of binomial coefficients
    obtained by expanding the parameter mirror of the branching kernel
    level by level (n=3: C(h12-h22, h11-h22))."""
    p = as_pattern(pattern)
    if p.n < 3:
        raise DomainError("p_n_1 is defined for n >= 3")
    return _pn1_product(lr_exponents(p))
