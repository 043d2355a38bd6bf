"""Gel'fand-Tsetlin patterns for U(n) and their combinatorics.

A pattern is a triangular integer array with rows of length n down to 1,
adjacent rows interleaving (the Weyl branching law), which construction
checks: every pattern object is valid.  This module covers enumeration,
weights, the Weyl dimension formula, the raising and lowering exponent
tables, and the parameter monomials of patterns and of the 0/1 words that
drive the generating-function machinery.

All objects are immutable; all operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from functools import lru_cache

from .polyengine import Monomial, _Frozen, mono_from_map, xvar, yvar

__all__ = [
    "StructureError",
    "DomainError",
    "ConsistencyError",
    "IrrepLabel",
    "GelfandPattern",
    "LRExponents",
    "enumerate_patterns",
    "weyl_dimension",
    "weight",
    "lr_exponents",
    "pattern_phi",
    "patterns_of",
]


class StructureError(ValueError):
    """Malformed triangle or word shape."""


class DomainError(ValueError):
    """Structurally sound input that violates a domain inequality."""


class ConsistencyError(Exception):
    """Two routes, or a route and its own invariant, disagree: a fault in
    the library, not in its input (deliberately not a ValueError)."""


class IrrepLabel(_Frozen):
    """Highest weight [h_1 >= h_2 >= ... >= h_n >= 0] of a U(n) irrep."""

    __slots__ = ("h",)

    def __init__(self, h: Sequence[int]):
        h = tuple(map(operator.index, h))
        if not h:
            raise StructureError("label must have at least one entry")
        for i in range(len(h) - 1):
            if h[i] < h[i + 1]:
                raise DomainError(
                    f"label entries must be non-increasing: h[{i + 1}]={h[i]} "
                    f"< h[{i + 2}]={h[i + 1]}")
        if h[-1] < 0:
            raise DomainError(f"label entries must be non-negative: h[{len(h)}]={h[-1]}")
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return len(self.h)

    def __iter__(self):
        return iter(self.h)

    def __repr__(self):
        return f"IrrepLabel{list(self.h)}"


def as_label(label) -> IrrepLabel:
    return label if isinstance(label, IrrepLabel) else IrrepLabel(label)


class GelfandPattern(_Frozen):
    """Triangular array, rows ordered top (length n) to bottom (length 1).

    Construction checks the triangle shape (StructureError), then that
    h_{n,n} >= 0 and every betweenness inequality
    h_{i,k} >= h_{i,k-1} >= h_{i+1,k} (DomainError naming the entry or the
    first inequality broken), so every instance is a valid pattern and
    every entry is >= 0.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = _pattern_rows(rows)
        if not rows:
            raise StructureError("pattern must have at least one row")
        if list(map(len, rows)) != list(range(len(rows[0]), 0, -1)):
            raise StructureError("pattern rows must have lengths n, n-1, ..., 1")
        n = len(rows)
        if rows[0][-1] < 0:
            raise DomainError(f"pattern {_rows_text(rows)} has a negative "
                              f"entry: h[{n},{n}]={rows[0][-1]}")
        broken = _broken_betweenness(rows)
        if broken is not None:
            raise DomainError(
                f"pattern {_rows_text(rows)} violates betweenness: {broken}")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def top(self) -> tuple[int, ...]:
        return self.rows[0]

    def row(self, length: int) -> tuple[int, ...]:
        """The row with `length` entries (1 <= length <= n)."""
        return self.rows[self.n - length]

    def entry(self, mu: int, lam: int) -> int:
        """Entry h_{mu,lam}: position mu in the row of length lam (1-indexed)."""
        return self.row(lam)[mu - 1]

    def lower(self) -> "GelfandPattern":
        """The U(n-1) pattern formed by dropping the top row."""
        if self.n == 1:
            raise StructureError("U(1) pattern has no lower pattern")
        return GelfandPattern(self.rows[1:])

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(r) for r in self.rows]}

    def __repr__(self):
        return f"GelfandPattern({[list(r) for r in self.rows]})"


def as_pattern(p) -> GelfandPattern:
    return p if isinstance(p, GelfandPattern) else GelfandPattern(p)


def _pattern_rows(p) -> tuple[tuple[int, ...], ...]:
    """The rows of a pattern, or of nested rows with every entry through
    operator.index; neither the shape nor betweenness is checked."""
    if isinstance(p, GelfandPattern):
        return p.rows
    return tuple([tuple(map(operator.index, row)) for row in p])


def _rows_text(rows: tuple[tuple[int, ...], ...]) -> str:
    """Pattern rows as the text `a,b,c;d,e;f` that the command line reads."""
    return ";".join(",".join(map(str, row)) for row in rows)


def _broken_betweenness(rows: tuple[tuple[int, ...], ...]) -> str | None:
    """The first betweenness inequality h_{i,k} >= h_{i,k-1} >= h_{i+1,k}
    that the rows of a pattern break, as text; None when all hold."""
    for upper, lower in zip(rows, rows[1:]):
        for i, v in enumerate(lower):
            if not (upper[i] >= v >= upper[i + 1]):
                k = len(upper)
                return (f"h[{i + 1},{k}]={upper[i]} >= h[{i + 1},{k - 1}]={v} "
                        f">= h[{i + 2},{k}]={upper[i + 1]}")
    return None


def _branch_rows(upper: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All rows interleaving below `upper`, in descending lexicographic order."""
    return itertools.product(*(range(hi, lo - 1, -1)
                               for hi, lo in zip(upper, upper[1:])))


def _completed_rows(rows: tuple) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The rows of every pattern that starts with `rows`, in canonical order
    (descending lexicographic, rows read top to bottom); each row
    interleaves the one above by construction, so every one is valid."""
    if len(rows[-1]) == 1:
        yield rows
        return
    for nxt in _branch_rows(rows[-1]):
        yield from _completed_rows(rows + (nxt,))


def _trusted_pattern(rows: tuple[tuple[int, ...], ...]) -> GelfandPattern:
    """The pattern of rows that are valid by construction (a label's top
    row and rows that interleave it); nothing is checked again."""
    p = object.__new__(GelfandPattern)
    object.__setattr__(p, "rows", rows)
    return p


def enumerate_patterns(label) -> list[GelfandPattern]:
    """All patterns with the given top row, in canonical order."""
    return [_trusted_pattern(r)
            for r in _completed_rows((as_label(label).h,))]


def weyl_dimension(label) -> int:
    """Dimension of the U(n) irrep by the Weyl formula, exactly."""
    label = as_label(label)
    n = label.n
    p = [label.h[i] + n - (i + 1) for i in range(n)]
    num = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= p[i] - p[j]
    den = 1
    for k in range(1, n):
        den *= math.factorial(k)
    if num % den:
        raise ConsistencyError(f"Weyl product {num} is not divisible by {den}")
    return num // den


def weight(p) -> tuple[int, ...]:
    """Weight vector: omega_i = (row-i sum) - (row-(i-1) sum)."""
    p = as_pattern(p)
    sums = [0] + [sum(p.row(k)) for k in range(1, p.n + 1)]
    return tuple(sums[i] - sums[i - 1] for i in range(1, p.n + 1))


class LRExponents(_Frozen):
    """Raising/lowering exponent tables of a pattern.

    L[(lam, mu)] = h_{mu,lam} - h_{mu,lam-1} and
    R[(lam, mu)] = h_{mu,lam-1} - h_{mu+1,lam}, for 2 <= lam <= n and
    1 <= mu <= lam-1.  L additionally carries the diagonal entries
    L[(lam, lam)] = h_{lam,lam}, the determinant powers used by the
    branching kernel.  All entries are non-negative: they are the
    betweenness gaps, which construction checks.  The tables are dicts,
    so an instance is not hashable.
    """

    __slots__ = ("L", "R")

    def __init__(self, L: dict[tuple[int, int], int],
                 R: dict[tuple[int, int], int]):
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "R", R)

    __hash__ = None


def lr_exponents(p) -> LRExponents:
    p = as_pattern(p)
    L: dict[tuple[int, int], int] = {}
    R: dict[tuple[int, int], int] = {}
    for lam in range(2, p.n + 1):
        for mu in range(1, lam):
            L[(lam, mu)] = p.entry(mu, lam) - p.entry(mu, lam - 1)
            R[(lam, mu)] = p.entry(mu, lam - 1) - p.entry(mu + 1, lam)
        L[(lam, lam)] = p.entry(lam, lam)
    return LRExponents(L, R)


def _phi_bits(bits: Sequence[int], slot: int) -> Monomial:
    """Parameter monomial of a 0/1 word in the generating function.

    Scanning boxes left to right: a zero that follows at least one one
    contributes y(pos, #ones before it); a one that follows at least one
    zero contributes x(pos, 1 + #ones before it).  The all-ones word (the
    determinant) carries the empty monomial.
    """
    exps: dict = {}
    seen_one = False
    seen_zero = False
    ones = 0
    for pos, b in enumerate(bits, start=1):
        if b:
            if seen_zero:
                v = xvar(pos, ones + 1, slot)
                exps[v] = exps.get(v, 0) + 1
            ones += 1
            seen_one = True
        else:
            if seen_one:
                v = yvar(pos, ones, slot)
                exps[v] = exps.get(v, 0) + 1
            seen_zero = True
    return mono_from_map(exps)


def pattern_phi(p, slot: int = 0) -> Monomial:
    """Parameter monomial of a pattern: the product over levels lam = 2..n of
    x(lam,mu)^L * y(lam,mu)^R for mu < lam.  Determinant powers are fixed by
    the label and carry no parameter.  Distinct patterns of one label yield
    distinct monomials."""
    p = as_pattern(p)
    lr = lr_exponents(p)
    exps: dict = {}
    for (lam, mu), e in lr.L.items():
        if mu < lam and e:
            exps[xvar(lam, mu, slot)] = e
    for (lam, mu), e in lr.R.items():
        if e:
            exps[yvar(lam, mu, slot)] = e
    return mono_from_map(exps)


@lru_cache(maxsize=None)
def _patterns_cached(h: tuple[int, ...]) -> tuple[GelfandPattern, ...]:
    return tuple(enumerate_patterns(IrrepLabel(h)))


def patterns_of(label) -> tuple[GelfandPattern, ...]:
    """Cached canonical pattern list of a label."""
    return _patterns_cached(as_label(label).h)
