"""The immutable value classes: fields cannot be assigned or deleted,
equality and hashing follow the fields, repr shows them, and copies and
pickle round trips are equal to the original."""

import copy
import pickle
from fractions import Fraction

import pytest

from gtboson.basisgen import BasisPolynomial, basis_from_branching
from gtboson.gelfand import GelfandPattern, IrrepLabel, LRExponents, lr_exponents
from gtboson.oracles import SU6Indices
from gtboson.polyengine import SqrtRational

ROWS = [[2, 1, 0], [2, 0], [1]]


def _values():
    """Per class: a value, an equal value built apart from it, and the
    tuple of its fields."""
    b = basis_from_branching(ROWS)
    su6 = dict(h13=1, h24=1, h34=1, h23=1, h33=0, h12=1, h22=0, h11=1)
    lr = lr_exponents(ROWS)
    return {
        "IrrepLabel": (IrrepLabel([2, 1, 0]), IrrepLabel((2, 1, 0)),
                       ((2, 1, 0),)),
        "GelfandPattern": (GelfandPattern(ROWS), GelfandPattern(ROWS),
                           (((2, 1, 0), (2, 0), (1,)),)),
        "LRExponents": (lr, LRExponents(dict(lr.L), dict(lr.R)), (lr.L, lr.R)),
        "SqrtRational": (SqrtRational(Fraction(3, 4), Fraction(2, 3)),
                         SqrtRational(Fraction(1, 4), 6),
                         (Fraction(3, 2), Fraction(1, 6))),
        "BasisPolynomial": (b, BasisPolynomial(b.pattern, b.poly, b.norm_sq),
                            (b.pattern, b.poly, b.norm_sq)),
        "SU6Indices": (SU6Indices(**su6), SU6Indices(*su6.values()),
                       tuple(su6.values())),
    }


VALUES = _values()
NAMES = sorted(VALUES)


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value, _, _ = VALUES[name]
    field = value.__slots__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", NAMES)
def test_equality_follows_the_fields(name):
    value, twin, fields = VALUES[name]
    assert value is not twin and value == twin and not value != twin
    assert tuple(getattr(value, f) for f in value.__slots__) == fields
    assert value != fields and value != fields[0]
    others = [VALUES[n][0] for n in NAMES if n != name]
    assert not any(value == other for other in others)


@pytest.mark.parametrize("name", sorted(set(NAMES) - {"LRExponents"}))
def test_equal_values_hash_equal(name):
    value, twin, _ = VALUES[name]
    assert hash(value) == hash(twin)
    assert len({value, twin}) == 1


def test_exponent_tables_are_not_hashable():
    # L and R are dicts, as when LRExponents was a frozen dataclass
    with pytest.raises(TypeError):
        hash(VALUES["LRExponents"][0])


def test_unequal_values_differ():
    assert IrrepLabel([2, 1, 0]) != IrrepLabel([2, 1, 1])
    assert GelfandPattern(ROWS) != GelfandPattern([[2, 1, 0], [2, 0], [2]])
    assert SqrtRational(1, 2) != SqrtRational(-1, 2)
    assert SqrtRational(1, 2) != SqrtRational(1, 3)


def test_repr_text():
    b = VALUES["BasisPolynomial"][0]
    assert repr(IrrepLabel([2, 1, 0])) == "IrrepLabel[2, 1, 0]"
    assert repr(GelfandPattern(ROWS)) == "GelfandPattern([[2, 1, 0], [2, 0], [1]])"
    assert repr(SqrtRational(-3, 2)) == "SqrtRational(-6/1*sqrt(1/2))"
    assert repr(LRExponents({(2, 1): 1}, {(2, 1): 0})) == (
        "LRExponents(L={(2, 1): 1}, R={(2, 1): 0})")
    assert repr(b) == (f"BasisPolynomial(pattern={b.pattern!r}, "
                       f"poly={b.poly!r}, norm_sq={b.norm_sq!r})")
    assert repr(SU6Indices(1, 2, 3, 4, 5, 6, 7, 8)) == (
        "SU6Indices(h13=1, h24=2, h34=3, h23=4, h33=5, h12=6, h22=7, h11=8)")


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickle_round_trips_are_equal(name):
    # from protocol 2 on: ExactPoly (inside BasisPolynomial) has slots and
    # no __getstate__, which protocols 0 and 1 refuse
    value, _, _ = VALUES[name]
    for other in (copy.copy(value), copy.deepcopy(value),
                  *(pickle.loads(pickle.dumps(value, protocol))
                    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1))):
        assert type(other) is type(value) and other == value
