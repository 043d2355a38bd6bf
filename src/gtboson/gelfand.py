"""Gel'fand-Tsetlin patterns for U(n) and their combinatorics.

A pattern is a triangular integer array with rows of length n down to 1,
adjacent rows interleaving (the Weyl branching law).  This module covers
pattern enumeration, weights, the Weyl dimension formula, the raising and
lowering exponent tables, and the binary encoding of the fundamental
representations together with the parameter monomials that drive the
generating-function machinery.

All objects are immutable; all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .polyengine import Monomial, mono_from_map, xvar, yvar

__all__ = [
    "StructureError",
    "DomainError",
    "ConsistencyError",
    "ComplementIsVacuum",
    "IrrepLabel",
    "GelfandPattern",
    "LRExponents",
    "BinaryWord",
    "validate_pattern",
    "enumerate_patterns",
    "weyl_dimension",
    "weight",
    "max_pattern",
    "min_pattern",
    "semimax_pattern",
    "lr_exponents",
    "enumerate_fundamental_words",
    "phi_monomial",
    "pattern_phi",
    "complement",
    "physics_labels",
    "patterns_of",
]


class StructureError(ValueError):
    """Malformed triangle or word shape."""


class DomainError(ValueError):
    """Structurally sound input that violates a domain inequality."""


class ConsistencyError(Exception):
    """Two routes, or a route and its own invariant, disagree: a fault in
    the library, not in its input (deliberately not a ValueError)."""


class ComplementIsVacuum(ValueError):
    """The all-ones word complements to the vacuum, not to a word."""


@dataclass(frozen=True)
class IrrepLabel:
    """Highest weight [h_1 >= h_2 >= ... >= h_n >= 0] of a U(n) irrep."""

    h: tuple[int, ...]

    def __init__(self, h: Sequence[int]):
        h = tuple(int(v) for v in h)
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


@dataclass(frozen=True)
class GelfandPattern:
    """Triangular array, rows ordered top (length n) to bottom (length 1).

    Construction checks the triangle shape only; betweenness is a separate
    predicate (`validate_pattern`) so that invalid candidates can be
    represented and rejected explicitly.
    """

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        if not rows:
            raise StructureError("pattern must have at least one row")
        n = len(rows[0])
        if len(rows) != n or any(len(rows[k]) != n - k for k in range(n)):
            raise StructureError("pattern rows must have lengths n, n-1, ..., 1")
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

    def label(self) -> IrrepLabel:
        return IrrepLabel(self.top)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "GelfandPattern":
        p = cls(obj["rows"])
        if p.n != obj.get("n", p.n):
            raise StructureError("pattern JSON 'n' does not match rows")
        return p

    def __repr__(self):
        return f"GelfandPattern({[list(r) for r in self.rows]})"


def as_pattern(p) -> GelfandPattern:
    return p if isinstance(p, GelfandPattern) else GelfandPattern(p)


def validate_pattern(p) -> bool:
    """True iff every betweenness inequality h_{i,k} >= h_{i,k-1} >= h_{i+1,k}
    holds between adjacent rows."""
    p = as_pattern(p)
    for upper, lower in zip(p.rows, p.rows[1:]):
        for i, v in enumerate(lower):
            if not (upper[i] >= v >= upper[i + 1]):
                return False
    return True


def require_valid(p: GelfandPattern) -> GelfandPattern:
    p = as_pattern(p)
    if not validate_pattern(p):
        raise DomainError(f"pattern violates betweenness: {p!r}")
    return p


def _branch_rows(upper: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All rows interleaving below `upper`, in descending lexicographic order."""

    def rec(i: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == len(upper) - 1:
            yield prefix
            return
        lo, hi = upper[i + 1], upper[i]
        for v in range(hi, lo - 1, -1):
            yield from rec(i + 1, prefix + (v,))

    yield from rec(0, ())


def enumerate_patterns(label) -> list[GelfandPattern]:
    """All patterns with the given top row, in canonical order: descending
    lexicographic on the rows read top to bottom, left to right."""
    label = as_label(label)

    def rec(rows: tuple[tuple[int, ...], ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(rows[-1]) == 1:
            yield rows
            return
        for nxt in _branch_rows(rows[-1]):
            yield from rec(rows + (nxt,))

    return [GelfandPattern(rows) for rows in rec((label.h,))]


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
    assert num % den == 0
    return num // den


def weight(p) -> tuple[int, ...]:
    """Weight vector: omega_i = (row-i sum) - (row-(i-1) sum)."""
    p = require_valid(p)
    sums = [0] + [sum(p.row(k)) for k in range(1, p.n + 1)]
    return tuple(sums[i] - sums[i - 1] for i in range(1, p.n + 1))


def max_pattern(label) -> GelfandPattern:
    """Highest-weight pattern: every row repeats the top entries."""
    label = as_label(label)
    return GelfandPattern([label.h[:k] for k in range(label.n, 0, -1)])


def min_pattern(label) -> GelfandPattern:
    """Lowest-weight pattern: row of length s takes the last s top entries."""
    label = as_label(label)
    n = label.n
    return GelfandPattern([label.h[n - s:] for s in range(n, 0, -1)])


def semimax_pattern(label, sub) -> GelfandPattern:
    """Pattern with prescribed row n-1 and maximal filling below it."""
    label = as_label(label)
    sub = as_label(sub)
    if sub.n != label.n - 1:
        raise StructureError("semimax branch must have size n-1")
    rows = [label.h] + [sub.h[:k] for k in range(sub.n, 0, -1)]
    p = GelfandPattern(rows)
    if not validate_pattern(p):
        raise DomainError(f"branch {list(sub.h)} violates the branching law "
                          f"under {list(label.h)}")
    return p


@dataclass(frozen=True)
class LRExponents:
    """Raising/lowering exponent tables of a pattern.

    L[(lam, mu)] = h_{mu,lam} - h_{mu,lam-1} and
    R[(lam, mu)] = h_{mu,lam-1} - h_{mu+1,lam}, for 2 <= lam <= n and
    1 <= mu <= lam-1.  L additionally carries the diagonal entries
    L[(lam, lam)] = h_{lam,lam}, the determinant powers used by the
    branching kernel.  All entries are non-negative exactly when the
    pattern satisfies betweenness.
    """

    L: dict[tuple[int, int], int]
    R: dict[tuple[int, int], int]


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


@dataclass(frozen=True)
class BinaryWord:
    """n-bit word, not all zero, encoding the minor on rows 1..k and the
    columns where the ones sit (k = popcount)."""

    bits: tuple[int, ...]

    def __init__(self, bits):
        if isinstance(bits, str):
            bits = tuple(int(b) for b in bits)
        else:
            bits = tuple(int(b) for b in bits)
        if not bits or any(b not in (0, 1) for b in bits):
            raise StructureError("word bits must be 0/1 and non-empty")
        if not any(bits):
            raise StructureError("the all-zero word is excluded")
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    def popcount(self) -> int:
        return sum(self.bits)

    def columns(self) -> tuple[int, ...]:
        """1-indexed positions of the ones (the minor's column set)."""
        return tuple(i + 1 for i, b in enumerate(self.bits) if b)

    def __str__(self):
        return "".join(str(b) for b in self.bits)

    def __repr__(self):
        return f"BinaryWord('{self}')"


def enumerate_fundamental_words(n: int) -> list[BinaryWord]:
    """All 2**n - 1 nonzero words, sorted by popcount then bit string.
    Grouping by popcount p gives the C(n, p) basis words of the p-th
    fundamental representation [1,...,1,0,...,0]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    words = [BinaryWord(tuple((i >> (n - 1 - k)) & 1 for k in range(n)))
             for i in range(1, 2 ** n)]
    words.sort(key=lambda w: (w.popcount(), w.bits))
    return words


def _phi_bits(bits: Sequence[int], slot: int) -> Monomial:
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


def phi_monomial(w: BinaryWord, slot: int = 0) -> Monomial:
    """Parameter monomial attached to a word in the generating function.

    Scanning boxes left to right: a zero that follows at least one one
    contributes y(pos, #ones before it); a one that follows at least one
    zero contributes x(pos, 1 + #ones before it).  The all-ones word (the
    determinant) carries the empty monomial.
    """
    return _phi_bits(w.bits, slot)


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


def complement(w: BinaryWord) -> BinaryWord:
    """Bitwise complement; the all-ones word complements to the vacuum and
    raises ComplementIsVacuum."""
    if all(w.bits):
        raise ComplementIsVacuum(f"complement of {w} is the vacuum state")
    return BinaryWord(tuple(1 - b for b in w.bits))


def physics_labels(p) -> dict:
    """Angular-momentum / particle-physics quantum numbers of a pattern.

    SU(2): (j, m) with 2j = h12 - h22 and m = h11 - (h12 + h22)/2.
    SU(3): (I, I3, Y, B) with 2I = h12 - h22, I3 = h11 - (h12 + h22)/2,
    B = (top-row sum)/3 and Y = h12 + h22 - 2B.
    """
    p = require_valid(p)
    if p.n == 2:
        h12, h22 = p.row(2)
        h11 = p.row(1)[0]
        return {"j": Fraction(h12 - h22, 2),
                "m": Fraction(2 * h11 - h12 - h22, 2)}
    if p.n == 3:
        h12, h22 = p.row(2)
        h11 = p.row(1)[0]
        b = Fraction(sum(p.top), 3)
        return {"I": Fraction(h12 - h22, 2),
                "I3": Fraction(2 * h11 - h12 - h22, 2),
                "Y": h12 + h22 - 2 * b,
                "B": b}
    raise DomainError(f"physics labels are defined for n in {{2, 3}}, not n={p.n}")


@lru_cache(maxsize=None)
def _patterns_cached(h: tuple[int, ...]) -> tuple[GelfandPattern, ...]:
    return tuple(enumerate_patterns(IrrepLabel(h)))


def patterns_of(label) -> tuple[GelfandPattern, ...]:
    """Cached canonical pattern list of a label."""
    return _patterns_cached(as_label(label).h)
