"""Packed monomials and the one product kernel (Johnson 1974; Monagan and
Pearce 2007).

A packed monomial is one int holding every exponent in a fixed-width field
(`PackedLayout`), so multiplying two monomials is one integer add.  Every
weighted sum of products of powers, sum c * prod f**e, is expanded in
packed exponents by `packed_product_sum`: on one layout sized before the
expansion from the exact degree bounds, so no field can overflow, with
each factor packed once and each power taken once.  The layout is the one
way back from a packed key to a stored monomial (`PackedLayout.unpack`,
`unpack_terms` for a whole sum).
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Iterable, Mapping, Sequence
from itertools import compress
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .polyengine import ExactPoly, Monomial, VarId

# memoryview formats of the field widths that one cast can read back
_FIELD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


class PackedLayout:
    """Field layout of packed monomials over a sorted tuple of variables.

    Each variable has an exponent bound, and every field is wide enough for
    the largest bound: a whole number of bytes, at least one.  Variable i
    sits in the i-th field from the low end of the int on a little-endian
    machine (from the high end on a big-endian one), so
    `int.to_bytes(..., sys.byteorder)` lays the fields out in variable
    order and one `memoryview` cast reads every exponent back (one-byte
    fields are the bytes themselves).  Fields wider than 64 bits are read
    back by shift and mask.
    """

    __slots__ = ("variables", "bounds", "width", "_index", "_shifts",
                 "_nbytes", "_format")

    def __init__(self, bounds: Mapping[VarId, int]):
        self.variables = tuple(sorted(bounds))
        self.bounds = tuple(bounds[v] for v in self.variables)
        bits = max(self.bounds, default=0).bit_length()
        self.width = 8 * max(1, (bits + 7) // 8)
        n = len(self.variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        order = range(n) if sys.byteorder == "little" else range(n - 1, -1, -1)
        self._shifts = tuple(self.width * j for j in order)
        self._nbytes = n * self.width // 8
        self._format = _FIELD_FORMATS.get(self.width)

    def pack(self, m: Monomial) -> int | None:
        """The packed form of m; None when m has a variable outside the
        layout or an exponent above its variable's bound, which no product
        sized by this layout has (and which could spill into a neighbouring
        field)."""
        key = 0
        for v, e in m:
            i = self._index.get(v)
            if i is None or e > self.bounds[i]:
                return None
            key += e << self._shifts[i]
        return key

    def exponents(self, key: int) -> Sequence[int]:
        """The exponent of every variable in a packed monomial, in variable
        order."""
        if self._format is None:
            mask = (1 << self.width) - 1
            return [key >> s & mask for s in self._shifts]
        return memoryview(key.to_bytes(self._nbytes, sys.byteorder)).cast(
            self._format)

    def unpack(self, key: int) -> Monomial:
        """The canonical monomial of a packed key."""
        exps = self.exponents(key)
        return tuple(compress(zip(self.variables, exps), exps))

    def unpack_terms(self, packed: Mapping[int, int]) -> dict[Monomial, int]:
        """Packed terms keyed by their canonical monomials (`unpack` on
        every key).  With one-byte fields the exponents are the key's bytes
        and every (variable, exponent) pair comes from one table, so the
        monomials share their pairs."""
        if self.width > 8:
            unpack = self.unpack
            return {unpack(k): c for k, c in packed.items()}
        pairs = [[(v, e) for e in range(b + 1)]
                 for v, b in zip(self.variables, self.bounds)]
        n, order, getitem = self._nbytes, sys.byteorder, operator.getitem
        return {tuple(compress(map(getitem, pairs, exps), exps)): c
                for k, c in packed.items()
                for exps in [k.to_bytes(n, order)]}

    def mask(self, variables: Iterable[VarId]) -> int:
        """The bits of the fields of `variables`."""
        ones = (1 << self.width) - 1
        return sum(ones << self._shifts[self._index[v]] for v in variables)


def _packed_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # a shift: every key moves by the same amount, no two collide
        [(k2, c2)] = b.items()
        return {k1 + k2: c1 * c2 for k1, c1 in a.items()}
    acc: dict[int, int] = {}
    get = acc.get
    for k2, c2 in b.items():
        for k1, c1 in a.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in acc.items() if c}


def _packed_pow(a: dict[int, int], e: int) -> dict[int, int]:
    """a**e for e >= 1, by repeated squaring; a single term is raised
    directly."""
    if len(a) == 1:
        [(k, c)] = a.items()
        return {k * e: c ** e}
    result = None
    while True:
        if e & 1:
            result = a if result is None else _packed_mul(result, a)
        e >>= 1
        if not e:
            return result
        a = _packed_mul(a, a)


# One term of a weighted sum of products of powers: an int weight c and the
# (f, e) factors of c * prod f**e.
ProductTerm = tuple[int, Iterable[tuple["ExactPoly", int]]]


def packed_product_sum(terms: Iterable[ProductTerm],
                       variables: Iterable[VarId] = ()
                       ) -> tuple[PackedLayout, dict[int, int]]:
    """sum c * prod f**e over the (c, factors) terms, as packed terms and
    their one layout.

    The layout holds `variables` and every variable of a factor of a term
    with c != 0, in canonical order; each variable's bound is the largest
    over the terms of sum e * (its largest exponent in f), the exact
    largest exponent any partial product can reach, so no field ever
    overflows.  Each factor is packed once, each power of it is taken once,
    and the terms accumulate packed.  TypeError for a weight that is not an
    int, ValueError for an exponent that is not an int >= 0.
    """
    work = []
    for c, factors in terms:
        if not isinstance(c, int):
            raise TypeError(f"ExactPoly coefficients are int, got {c!r}")
        kept = []
        for f, e in factors:
            if not isinstance(e, int) or e < 0:
                raise ValueError("polynomial power requires an integer k >= 0")
            if e:
                kept.append((f, e))
        if c:
            work.append((c, kept))
    tops: dict[int, dict[VarId, int]] = {}
    bounds = dict.fromkeys(variables, 0)
    for _, kept in work:
        need: dict[VarId, int] = {}
        for f, e in kept:
            top = tops.get(id(f))
            if top is None:
                top = tops[id(f)] = {}
                for m in f.terms:
                    for v, d in m:
                        if d > top.get(v, 0):
                            top[v] = d
            for v, d in top.items():
                need[v] = need.get(v, 0) + e * d
        for v, d in need.items():
            if d > bounds.get(v, 0):
                bounds[v] = d
    layout = PackedLayout(bounds)
    pack = layout.pack
    packed: dict[int, dict[int, int]] = {}
    powers: dict[tuple[int, int], dict[int, int]] = {}

    def product(kept: list[tuple[ExactPoly, int]]) -> dict[int, int]:
        factors = []
        for f, e in kept:
            p = powers.get((id(f), e))
            if p is None:
                base = packed.get(id(f))
                if base is None:
                    base = packed[id(f)] = {pack(m): c
                                            for m, c in f.terms.items()}
                p = powers[id(f), e] = _packed_pow(base, e)
            factors.append(p)
        factors.sort(key=len)
        out = factors[0] if factors else {0: 1}
        for p in factors[1:]:
            out = _packed_mul(out, p)
        return out

    if len(work) == 1:
        [(c, kept)] = work
        out = product(kept)
        return layout, out if c == 1 else {k: c * v for k, v in out.items()}
    acc: dict[int, int] = {}
    get = acc.get
    for c, kept in work:
        for k, v in product(kept).items():
            acc[k] = get(k, 0) + c * v
    return layout, {k: v for k, v in acc.items() if v}


def packed_power_product(factors: Iterable[tuple[ExactPoly, int]],
                         variables: Iterable[VarId] = ()
                         ) -> tuple[PackedLayout, dict[int, int]]:
    """prod f**e over the (f, e) pairs, as packed terms and their layout:
    the one-term case of `packed_product_sum`."""
    return packed_product_sum([(1, factors)], variables)
