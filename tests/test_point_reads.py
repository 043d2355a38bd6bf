"""Point reads: Wigner coefficients, isoscalar factors and 3-j symbols
read from the caller's integer rows.

The digest pins the text of every read that the su3-query benchmark can
make, and more: every pattern triple and rho of its four tables (zeros
included), every defined isoscalar read of them, and every 3-j symbol with
2j <= 12 whose m's sum to zero.  It was taken before the reads stopped
building label, pattern and Fraction objects, so any change to a value,
a zero or an order shows.
"""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtboson.coupling import (
    IsoscalarUndefined,
    coupling_table,
    su2_threej,
    su3_isoscalar,
    su3_wigner,
)
from gtboson.gelfand import (
    DomainError,
    GelfandPattern,
    IrrepLabel,
    StructureError,
    enumerate_patterns,
)
from gtboson.polyengine import SqrtRational

QUERY_TABLES = (((2, 1, 0), (2, 1, 0), (2, 1, 0)),
                ((2, 1, 0), (2, 1, 0), (4, 2, 0)),
                ((1, 0, 0), (2, 1, 0), (2, 2, 0)),
                ((2, 0, 0), (2, 1, 0), (3, 2, 0)))

POINT_READ_SHA256 = (
    33743, "fd8a15db2409385ba343751ce391c431fdbaebed0ee02653ab1c39a02b5cd474")


def _point_read_lines():
    for labels in QUERY_TABLES:
        rho_count = coupling_table(labels).rho_count
        yield f"table {labels} {rho_count}"
        rhos = range(1, rho_count + 1)
        rows = [[p.rows for p in enumerate_patterns(h)] for h in labels]
        for triple, rho in itertools.product(itertools.product(*rows), rhos):
            yield f"wigner {labels} {triple} {rho} " + \
                su3_wigner(labels, triple, rho).text()
        middles = [sorted({r[1] for r in rs}, reverse=True) for rs in rows]
        for mids, rho in itertools.product(itertools.product(*middles), rhos):
            try:
                v = su3_isoscalar(labels, mids, rho).text()
            except IsoscalarUndefined:
                continue
            yield f"isoscalar {labels} {mids} {rho} {v}"
    spins = [(tj, tm) for tj in range(13) for tm in range(-tj, tj + 1, 2)]
    for (tj1, tm1), (tj2, tm2) in itertools.product(spins, repeat=2):
        tm3 = -tm1 - tm2
        for tj3 in range(abs(tm3), 13, 2):
            pats = [[[tj, 0], [(tj + tm) // 2]]
                    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3))]
            yield f"threej {pats} " + su2_threej(*pats).text()


def test_point_read_digest():
    digest = hashlib.sha256()
    count = 0
    for line in _point_read_lines():
        digest.update(line.encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == POINT_READ_SHA256


# -- the canonical constructor from integer parts ---------------------------

_parts = st.one_of(
    st.integers(1, 10 ** 6),
    st.builds(math.factorial, st.integers(0, 40)),
    st.builds(lambda a, b: math.factorial(a) * math.factorial(b),
              st.integers(0, 20), st.integers(0, 20)))


@given(st.one_of(st.just(0), st.integers(-10 ** 9, 10 ** 9)), _parts, _parts)
@settings(deadline=None, max_examples=300)
def test_parts_equal_the_rational_radicand(c, num, den):
    v = SqrtRational._from_parts(c, num, den)
    w = SqrtRational(c, Fraction(num, den))
    assert (type(v.q), type(v.r)) == (Fraction, Fraction)
    assert (v.q, v.r) == (w.q, w.r)


@given(st.integers(-50, 50), st.integers(1, 10 ** 4), st.integers(1, 10 ** 4),
       st.integers(1, 10 ** 3))
@settings(deadline=None)
def test_parts_with_a_square_product(c, s, t, k):
    # num*den = (s*t*k)**2: the value is rational, r = 1
    num, den = s * s * k, t * t * k
    v = SqrtRational._from_parts(c, num, den)
    assert (v.q, v.r) == (Fraction(c * s, t), Fraction(1))
    assert v == SqrtRational(c, Fraction(num, den))


# -- errors of the integer read path -----------------------------------------

_L = ((2, 1, 0),) * 3
_P = ([[2, 1, 0], [2, 1], [2]], [[2, 1, 0], [1, 0], [0]],
      [[2, 1, 0], [2, 0], [1]])
_S = [[1, 0], [1]]
_NOT_INT = "'float' object cannot be interpreted as an integer"
_SHAPE = "pattern rows must have lengths n, n-1, ..., 1"

# Each read's error type and text, as recorded before the reads went
# through integer rows.
ERRORS = {
    "table float label": (
        lambda: coupling_table(((2.5, 1, 0), (2, 1, 0), (2, 1, 0))),
        TypeError, _NOT_INT),
    "wigner float label": (
        lambda: su3_wigner(((2, 1, 0), (2, 1.0, 0), (2, 1, 0)), _P, 1),
        TypeError, _NOT_INT),
    "table increasing label": (
        lambda: coupling_table(((2, 1, 0), (1, 2, 0), (2, 1, 0))),
        DomainError, "label entries must be non-increasing: h[1]=1 < h[2]=2"),
    "wigner increasing label": (
        lambda: su3_wigner(((2, 1, 0), (2, 1, 0), (0, 1, 0)), _P, 1),
        DomainError, "label entries must be non-increasing: h[1]=0 < h[2]=1"),
    "table negative label": (
        lambda: coupling_table(((2, 1, -1), (2, 1, 0), (2, 1, 0))),
        DomainError, "label entries must be non-negative: h[3]=-1"),
    "table empty label": (
        lambda: coupling_table(((), (2, 1, 0), (2, 1, 0))),
        StructureError, "label must have at least one entry"),
    "table U(2) label": (
        lambda: coupling_table(((2, 1), (2, 1, 0), (2, 1, 0))),
        DomainError, "SU(3) coupling requires three U(3) labels"),
    "table first of two bad labels": (
        lambda: coupling_table(((1, 2, 0), (2.5, 1, 0), (2, 1, 0))),
        DomainError, "label entries must be non-increasing: h[1]=1 < h[2]=2"),
    "threej wrong shape": (
        lambda: su2_threej([[2, 0], [1, 0]], _S, _S), StructureError, _SHAPE),
    "threej one row": (
        lambda: su2_threej(_S, [[2, 0]], _S), StructureError, _SHAPE),
    "threej no rows": (
        lambda: su2_threej(_S, _S, []),
        StructureError, "pattern must have at least one row"),
    "threej betweenness": (
        lambda: su2_threej([[1, 0], [2]], _S, _S),
        DomainError, "pattern 1,0;2 violates betweenness: "
                     "h[1,2]=1 >= h[1,1]=2 >= h[2,2]=0"),
    "threej negative": (
        lambda: su2_threej(_S, [[1, -1], [0]], _S),
        DomainError, "pattern 1,-1;0 has a negative entry: h[2,2]=-1"),
    "threej float": (
        lambda: su2_threej(_S, _S, [[1, 0], [0.5]]), TypeError, _NOT_INT),
    "threej U(3) pattern": (
        lambda: su2_threej(_S, _S, [[1, 0, 0], [1, 0], [1]]),
        DomainError, "SU(2) pattern required"),
    "threej U(1) pattern": (
        lambda: su2_threej([[1]], _S, _S),
        DomainError, "SU(2) pattern required"),
    "wigner slot off its label": (
        lambda: su3_wigner(_L, [[[3, 0, 0], [1, 0], [0]], _P[1], _P[2]], 1),
        DomainError, "slot 1: pattern top row [3, 0, 0] is not the label "
                     "[2, 1, 0]"),
    "wigner slot betweenness": (
        lambda: su3_wigner(_L, [_P[0], [[2, 1, 0], [3, 1], [1]], _P[2]], 1),
        DomainError, "slot 2: pattern 2,1,0;3,1;1 violates betweenness: "
                     "h[1,3]=2 >= h[1,2]=3 >= h[2,3]=1"),
    "wigner rho 3": (
        lambda: su3_wigner(_L, _P, 3), DomainError, "rho out of range 1..2"),
    "wigner rho 0": (
        lambda: su3_wigner(_L, _P, 0), DomainError, "rho out of range 1..2"),
    "wigner rho float": (
        lambda: su3_wigner(_L, _P, 1.0), TypeError, _NOT_INT),
    "wigner two patterns": (
        lambda: su3_wigner(_L, _P[:2], 1),
        DomainError, "expected three patterns, got 2"),
    "wigner no coupling": (
        lambda: su3_wigner(((1, 0, 0), (1, 0, 0), (1, 1, 0)), _P, 1),
        DomainError, "labels [[1, 0, 0], [1, 0, 0], [1, 1, 0]] do not couple"),
    "isoscalar rho 3": (
        lambda: su3_isoscalar(_L, ((2, 0),) * 3, 3),
        DomainError, "rho out of range 1..2"),
    "isoscalar float label": (
        lambda: su3_isoscalar(((2, 1, 0), (2, 1, 0), (2.5, 1, 0)),
                              ((2, 0),) * 3, 1),
        TypeError, _NOT_INT),
}


@pytest.mark.parametrize("case", list(ERRORS))
def test_error_type_and_text(case):
    read, kind, text = ERRORS[case]
    with pytest.raises(Exception) as exc:
        read()
    assert (type(exc.value), str(exc.value)) == (kind, text)


# -- no objects between the rows and the value --------------------------------

def test_hits_and_threej_reads_build_no_label_or_pattern(monkeypatch):
    # a Wigner read of a stored key and a 3-j read go from the rows to the
    # value; labels and patterns passed as objects are read as they are
    labels = [IrrepLabel(h) for h in _L]
    pats = [GelfandPattern(p) for p in _P]
    spins = ([[1, 0], [1]], [[1, 0], [0]], [[0, 0], [0]])
    expect = [su3_wigner(_L, _P, 2), su2_threej(*spins)]
    built = []
    for cls in (IrrepLabel, GelfandPattern):
        def counted(self, rows, init=cls.__init__):
            built.append(type(self).__name__)
            init(self, rows)
        monkeypatch.setattr(cls, "__init__", counted)
    assert su3_wigner([[2, 1, 0]] * 3, _P, 2) == expect[0]
    assert su3_wigner(labels, pats, 2) == expect[0]
    assert su2_threej(*spins) == expect[1]
    assert su2_threej(*map(GelfandPattern, spins)) == expect[1]
    assert built == ["GelfandPattern"] * 3
