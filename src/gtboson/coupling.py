"""Invariant-method coupling coefficients for SU(2) and SU(3).

SU(2) 3-j symbols are coefficients of the Van der Waerden generating
function: the product of powers of the three antisymmetric two-slot
invariants xi_ab = y_a x_b - x_a y_b.  The coefficient of one monomial is
read as a single binomial sum (`_xi_coefficient`); the product is never
expanded.

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
projections.  W is expanded and contracted in packed exponents
(`packed.packed_power_product`): a slot part is a bit mask of the
packed term, and the projections are packed in the same layout.  Basis
and invariant polynomials have integer coefficients, so the pairings are
accumulated as exact integers and divided by the basis norms only at the
end, where the values become rational.  The
resulting rho-family is Gram orthonormalized, yielding tables that are
exactly unitary block by block.

Independent routes to the same quantities live in `gtboson.oracles`, which
no library module imports: Racah's factorial sum for the 3-j symbols, and
the invariants' images in the generating-function parameter space, expanded
directly or summed in closed form over the fifteen-index linear system.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .basisgen import _branch_poly
from .gelfand import (
    ConsistencyError,
    DomainError,
    GelfandPattern,
    IrrepLabel,
    StructureError,
    _broken_betweenness,
    _pattern_rows,
    _rows_text,
    as_label,
    patterns_of,
    weyl_dimension,
)
from .packed import PackedLayout, packed_power_product
from .polyengine import (
    ExactPoly,
    Monomial,
    SqrtRational,
    bargmann_inner,  # noqa: F401  unused here; bench/test_bench.py reads it
    minor,
    symbolic_matrix,
    zvar,
)

__all__ = [
    "CouplingTable",
    "IsoscalarUndefined",
    "su2_threej",
    "coupling_table",
    "su3_wigner",
    "su3_isoscalar",
]

_fact = math.factorial


class IsoscalarUndefined(ValueError):
    """Every embedded SU(2) factor vanishes for the requested rows."""


# ---------------------------------------------------------------------------
# SU(2): the generating-function 3-j.
# ---------------------------------------------------------------------------


def _xi_coefficient(p: Sequence[int], xy: Sequence[tuple[int, int]]) -> int:
    """Coefficient of prod_s x_s^a_s y_s^b_s, (a_s, b_s) = xy[s - 1], in
    xi23^p1 xi13^p2 xi12^p3, where xi_ab = y_a x_b - x_a y_b.

    Take k of xi12's factors as -x1 y2, j of xi13's as -x1 y3 and i of
    xi23's as -x2 y3.  The x1 and x2 degrees fix j = a1 - k and
    i = a2 - p3 + k, the y3 degree needs i + j = b3, and the slot degrees
    fix the rest, so the coefficient is the single sum
    sum_k (-1)^(i+j+k) C(p1, i) C(p2, j) C(p3, k).  Zero when the target
    is not a monomial of the product."""
    (a1, b1), (a2, b2), (a3, b3) = xy
    p1, p2, p3 = p
    if ((a1 + b1, a2 + b2, a3 + b3) != (p2 + p3, p1 + p3, p1 + p2)
            or a1 + a2 - p3 != b3):
        return 0
    c = sum((-1) ** k * math.comb(p1, a2 - p3 + k) * math.comb(p2, a1 - k)
            * math.comb(p3, k)
            for k in range(max(0, a1 - p2, p3 - a2),
                           min(p3, a1, p1 + p3 - a2) + 1))
    return -c if b3 % 2 else c


def _pattern_to_tjm(p) -> tuple[int, int]:
    """Doubled (2j, 2m) of an SU(2) pattern, read off its rows; labels
    shifted by the determinant are reduced to spin form.  Rows of lengths
    (2, 1) with h12 >= h11 >= h22 >= 0 are exactly the valid SU(2)
    patterns, so only other rows are handed to GelfandPattern, which
    raises its construction error; a valid pattern of another n is a
    DomainError."""
    rows = _pattern_rows(p)
    if len(rows) == 2 and len(rows[0]) == 2 and len(rows[1]) == 1:
        (h12, h22), (h11,) = rows
        if h12 >= h11 >= h22 >= 0:
            return h12 - h22, 2 * h11 - h12 - h22
    GelfandPattern(rows)
    raise DomainError("SU(2) pattern required")


def _threej_parts(tjm: Sequence[tuple[int, int]]) -> tuple[int, int, int]:
    """3-j symbol of doubled (2j, 2m) pairs as integers (c, num, den), with
    3-j = c * sqrt(num/den), from the coefficient c of the generating
    function xi23^p1 xi13^p2 xi12^p3, phase convention of Condon-Shortley
    (verified against the factorial-sum oracle in `gtboson.oracles`).
    Every selection rule (m sum, integer J, triangle) shows as c = 0, and
    then num = den = 1."""
    tJ = sum(tj for tj, _ in tjm)
    p = [(tJ - 2 * tj) // 2 for tj, _ in tjm]
    xy = [((tj - tm) // 2, (tj + tm) // 2) for tj, tm in tjm]
    c = _xi_coefficient(p, xy)
    if not c:
        return 0, 1, 1
    if p[1] % 2:
        c = -c
    num = math.prod(_fact(a) * _fact(b) for a, b in xy)
    den = _fact(tJ // 2 + 1) * math.prod(_fact(v) for v in p)
    return c, num, den


def su2_threej(pat1, pat2, pat3) -> SqrtRational:
    """3-j symbol of three SU(2) patterns (zero on any selection-rule
    violation)."""
    return SqrtRational._from_parts(*_threej_parts(
        [_pattern_to_tjm(p) for p in (pat1, pat2, pat3)]))


# ---------------------------------------------------------------------------
# SU(3): admissible invariant exponents.
# ---------------------------------------------------------------------------


def _pq(label: IrrepLabel) -> tuple[int, int]:
    h = label.h
    return h[0] - h[1], h[1] - h[2]


def _su3_labels(labels) -> tuple[IrrepLabel, ...]:
    """The labels of a triple; each label's own error first, then
    DomainError unless they are three U(3) labels."""
    labels = tuple(as_label(l) for l in labels)
    if len(labels) != 3 or any(l.n != 3 for l in labels):
        raise DomainError("SU(3) coupling requires three U(3) labels")
    return labels


def _k_family(labels) -> dict[int, tuple[int, ...]]:
    """All admissible k-vectors for a label triple, keyed by k3.

    Degree matching per slot gives six equations for seven exponents; the
    cubic invariant's exponent k7 is forced and k3 parametrizes the rest."""
    l1, l2, l3 = _su3_labels(labels)
    (p1, q1), (p2, q2), (p3, q3) = _pq(l1), _pq(l2), _pq(l3)
    tot = p1 + p2 + p3 - q1 - q2 - q3
    if tot % 3 or tot < 0:
        return {}
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
    return family


# ---------------------------------------------------------------------------
# Coupling tables.
# ---------------------------------------------------------------------------


class CouplingTable:
    """Wigner coefficients of one SU(3) label triple, all multiplicities.

    Values follow the block-unitary normalization: for each third-slot
    pattern, the squares over the first two slots sum to one, and distinct
    (rho, third-pattern) blocks are exactly orthogonal.  Keys are stored for
    nonzero entries only.
    """

    def __init__(self, labels, k3_values: tuple[int, ...],
                 entries: dict[tuple, SqrtRational]):
        self.labels = tuple(as_label(l) for l in labels)
        self.k3_values = k3_values
        self.entries = entries
        self.normalization = "gram-block-unitary"

    @property
    def rho_count(self) -> int:
        """The multiplicity: one rho per admissible k3 value."""
        return len(self.k3_values)

    @property
    def k_vectors(self) -> tuple[tuple[int, ...], ...]:
        """The invariant exponent vector of each multiplicity, in rho order."""
        family = _k_family(self.labels)
        return tuple(family[k3] for k3 in self.k3_values)

    def value(self, patterns, rho: int) -> SqrtRational:
        """The entry of a pattern triple at rho; exact zero for an absent
        key.  DomainError when a pattern is not one of its slot's label,
        or rho is outside 1..rho_count; TypeError for a rho that is not an
        integer."""
        rho = operator.index(rho)
        key = tuple(_pattern_rows(p) for p in patterns) + (rho,)
        val = self.entries.get(key)
        if val is None:
            # stored keys are valid, so only a miss builds the patterns
            self._check_key(key)
            return SqrtRational.zero()
        return val

    def _check_key(self, key: tuple) -> None:
        if len(key) != 4:
            raise DomainError(f"expected three patterns, got {len(key) - 1}")
        for slot, (rows, label) in enumerate(zip(key, self.labels), 1):
            try:
                top = GelfandPattern(rows).top
            except DomainError as exc:
                raise DomainError(f"slot {slot}: {exc}") from None
            if top != label.h:
                raise DomainError(f"slot {slot}: pattern top row {list(top)} "
                                  f"is not the label {list(label.h)}")
        if not 1 <= key[3] <= self.rho_count:
            raise DomainError(f"rho out of range 1..{self.rho_count}")

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
        """Rebuild a table; DomainError for a key that a lookup would
        refuse (a pattern outside its slot's label, or rho out of range)."""
        labels = [IrrepLabel(h) for h in obj["labels"]]
        k3_values = tuple(obj["k3_values"])
        if k3_values != tuple(sorted(_k_family(labels))):
            raise ValueError("serialized k3 values do not match the labels")
        if obj["rho_count"] != len(k3_values):
            raise ValueError("serialized rho_count does not match the k3 "
                             "values")
        table = cls(labels=labels, k3_values=k3_values, entries={})
        for e in obj["entries"]:
            key = tuple(GelfandPattern.from_json(p).rows for p in e["patterns"])
            key += (operator.index(e["rho"]),)
            table._check_key(key)
            table.entries[key] = SqrtRational.from_json(e["value"])
        return table

    def to_csv(self) -> str:
        lines = ["pattern1,pattern2,pattern3,rho,value"]
        for key, val in self._ordered():
            pats = [_rows_text(rows) for rows in key[:3]]
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
    (slot-1 rows 1, 2; slot-2 rows 1, 2; slot-3 rows 1, 2), followed by the
    three slot determinants det(z_1), det(z_2), det(z_3)."""
    mats = [symbolic_matrix(3, slot=s) for s in (1, 2, 3)]
    stack = [mats[0][0], mats[0][1], mats[1][0], mats[1][1],
             mats[2][0], mats[2][1]]
    out = []
    for word in _W_WORDS:
        rows = tuple(i + 1 for i, b in enumerate(word) if b == "1")
        out.append(minor(stack, rows, (1, 2, 3)))
    out.extend(minor(m, (1, 2, 3), (1, 2, 3)) for m in mats)
    return tuple(out)


# The 27 variables of the three slot matrices in canonical order, slot by
# slot: the fields of every packed invariant.
_SLOT_VARS = tuple(zvar(r, c, s) for s in (1, 2, 3) for r in (1, 2, 3)
                   for c in (1, 2, 3))


def _invariant_z(k: Sequence[int], labels
                 ) -> tuple[PackedLayout, dict[int, int]]:
    """The invariant polynomial prod_i W_i^(k_i) * prod_s det(z_s)^(h33_s)
    as packed terms over the 27 slot variables (`_SLOT_VARS`), with their
    layout; the determinant powers carry the slot labels' trace content,
    which the seven trace-free invariants cannot produce."""
    exps = tuple(k) + tuple(label.h[2] for label in labels)
    return packed_power_product(zip(_w_invariants_z(), exps), _SLOT_VARS)


def _slot_projection(label: IrrepLabel, slot: int, scale: int):
    """Bargmann projections of one slot's basis onto single monomials.

    Maps each monomial u of the label's basis polynomials, tagged into
    `slot`, to its (pattern index * scale, <b_p, u>) pairs, where
    <b_p, u> = coef_{b_p}(u) * prod e! over u's exponents.  Also returns the
    norms squared <b_p, b_p> = sum over u of coef_{b_p}(u) * <b_p, u>, in
    pattern order.  Everything is an integer."""
    proj: dict[Monomial, list[tuple[int, int]]] = {}
    nsq = []
    for i, p in enumerate(patterns_of(label)):
        norm = 0
        for m, c in _branch_poly(p).terms.items():
            v = c
            for _, e in m:
                v *= _fact(e)
            norm += c * v
            u = tuple(((kind, slot, a, b), e) for (kind, _, a, b), e in m)
            proj.setdefault(u, []).append((i * scale, v))
        nsq.append(norm)
    return proj, nsq


def _contract(inv: tuple[PackedLayout, dict[int, int]], projs
              ) -> dict[int, int]:
    """<b1 b2 b3, inv> for every pattern triple at once.

    The pairing splits over disjoint slots, <b1 b2 b3, c m> =
    c * prod_s <b_s, m_s>, so each invariant term c*m adds
    c * v1 * v2 * v3 to every key whose slot projections hold m's parts.
    The projections are packed in the invariant's layout (a monomial that
    no invariant term can have is dropped), and the slot-s part of a packed
    term is the term masked to slot s's nine fields.  Keys are the scaled
    pattern indices summed, i.e. (i3, i1, i2) in mixed radix, so integer
    order is that tuple order."""
    layout, terms = inv
    pack = layout.pack
    (proj1, mask1), (proj2, mask2), (proj3, mask3) = (
        ({key: lst for key, lst in zip(map(pack, proj), proj.values())
          if key is not None},
         layout.mask(_SLOT_VARS[9 * s:9 * s + 9]))
        for s, proj in enumerate(projs))
    acc: dict[int, int] = {}
    for m, c in terms.items():
        l1 = proj1.get(m & mask1)
        l2 = proj2.get(m & mask2)
        l3 = proj3.get(m & mask3)
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
    family = _k_family(labels)
    k3_values = tuple(sorted(family))
    if not k3_values:
        return CouplingTable(labels, (), {})
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
    return CouplingTable(labels, k3_values, entries)


def coupling_table(labels) -> CouplingTable:
    """Full Wigner coefficient table of an SU(3) label triple (the third
    label enters in its conjugate embedding, as in any 3-symbol).

    The cache key is each label's row with its entries through
    operator.index, so a cached table is reached without building labels;
    `_table_cached` checks them when it builds.  An entry that is not an
    integer, or a count other than three, raises what `_su3_labels`
    raises: the first bad label's error, else the count's DomainError."""
    labels = tuple(labels)
    try:
        rows = tuple([l.h if isinstance(l, IrrepLabel)
                      else tuple(map(operator.index, l)) for l in labels])
    except TypeError:
        rows = ()
    if len(rows) != 3:
        _su3_labels(labels)
    return _table_cached(*rows)


def _table_at(labels, rho: int) -> CouplingTable:
    """The table of a triple that couples with multiplicity rho or more;
    TypeError for a rho that is not an integer."""
    table = coupling_table(labels)
    if not table.rho_count:
        raise DomainError(f"labels {[list(l.h) for l in table.labels]} "
                          "do not couple")
    if not 1 <= operator.index(rho) <= table.rho_count:
        raise DomainError(f"rho out of range 1..{table.rho_count}")
    return table


def su3_wigner(labels, patterns, rho: int = 1) -> SqrtRational:
    """Wigner coefficient of a pattern triple at multiplicity rho (1-based);
    exact zero when the weights do not balance.  DomainError when the
    triple does not couple, rho is outside 1..rho_count, or a pattern is
    not one of its slot's label (`CouplingTable.value`)."""
    return _table_at(labels, rho).value(patterns, rho)


def su3_isoscalar(labels, su2_rows, rho: int = 1) -> SqrtRational:
    """Isoscalar factor: the Wigner coefficient divided by its embedded SU(2)
    3-j factor, independent of the bottom-row choice.

    `su2_rows` is the triple of middle rows [h12, h22] (one per slot),
    checked once, before the table is built: StructureError unless there
    are three rows of two entries, DomainError unless there are three U(3)
    labels or for a row that does not branch from its label.  The scan then
    visits, on the checked integers, only the bottom rows that keep the
    3-j's m-sum rule m1 + m2 + m3 = 0 (b3 is fixed by b1 and b2; every
    other row has a zero 3-j).  On each row whose 3-j c*sqrt(num/den)
    (`_threej_parts`) is nonzero, the ratio entry / 3-j is kept as an exact
    (sign, square) pair, since two reals are equal exactly when their signs
    and squares are.  The pairs must agree (ConsistencyError otherwise),
    and the one value is built from theirs.  If every SU(2) factor
    vanishes, the isoscalar is undefined and IsoscalarUndefined is raised.
    DomainError when the triple does not couple or rho is outside
    1..rho_count.
    """
    labels = tuple(as_label(l) for l in labels)
    rows = [tuple(map(operator.index, r)) for r in su2_rows]
    if list(map(len, rows)) != [2, 2, 2]:
        raise StructureError("expected three middle rows of two entries, "
                             f"got rows of lengths {list(map(len, rows))}")
    labels = _su3_labels(labels)
    for label, row in zip(labels, rows):
        broken = _broken_betweenness((label.h, row))
        if broken is not None:
            raise DomainError(f"row {row} violates branching under "
                              f"{list(label.h)}: {broken}")
    entries = _table_at(labels, rho).entries
    (u1, l1), (u2, l2), (u3, l3) = rows
    tag1, tag2, tag3 = ((l.h, r) for l, r in zip(labels, rows))
    # the doubled m of bottom row b is 2b - h12 - h22, so the m-sum rule
    # reads b1 + b2 + b3 = half, which an odd sum never meets
    half, odd = divmod(u1 + l1 + u2 + l2 + u3 + l3, 2)
    pair = None   # (sign, n, d): the ratio is sign * sqrt(n/d)
    for b1 in () if odd else range(l1, u1 + 1):
        for b2 in range(max(l2, half - b1 - u3), min(u2, half - b1 - l3) + 1):
            b3 = half - b1 - b2
            c, num, den = _threej_parts(((u1 - l1, 2 * b1 - u1 - l1),
                                         (u2 - l2, 2 * b2 - u2 - l2),
                                         (u3 - l3, 2 * b3 - u3 - l3)))
            if not c:
                continue
            val = entries.get((tag1 + ((b1,),), tag2 + ((b2,),),
                               tag3 + ((b3,),), rho))
            if val is None:
                cur = (0, 0, 1)
            else:
                # (q sqrt(r) / (c sqrt(num/den)))^2 = q^2 r den / (c^2 num)
                q, r = val.q, val.r
                cur = (val.sign() if c > 0 else -val.sign(),
                       q.numerator ** 2 * r.numerator * den,
                       q.denominator ** 2 * r.denominator * c * c * num)
            if pair is None:
                pair = cur
            elif cur[0] != pair[0] or cur[1] * pair[2] != pair[1] * cur[2]:
                raise ConsistencyError(
                    "isoscalar ratio depends on the bottom row")
    if pair is None:
        raise IsoscalarUndefined(
            f"every SU(2) factor vanishes for rows {rows} of {labels}")
    return SqrtRational._from_parts(*pair)
