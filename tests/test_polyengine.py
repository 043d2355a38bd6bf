import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtboson.basisgen import _branch_family
from gtboson.oracles import branching_kernel
from gtboson.packed import (
    PackedLayout,
    packed_power_product,
    packed_product_sum,
)
from gtboson.polyengine import (
    ExactPoly,
    SqrtRational,
    bargmann_inner,
    minor,
    mono_from_map,
    mono_text,
    power_product,
    product_sum,
    squarefree_split,
    symbolic_matrix,
    xvar,
    yvar,
    zvar,
)


def zp(r, c):
    return ExactPoly.variable(zvar(r, c))


_VARS = (zvar(1, 1), zvar(1, 2), xvar(2, 1), yvar(2, 1), zvar(2, 2, 3))

small_polys = st.dictionaries(
    st.lists(st.integers(0, 3), min_size=len(_VARS), max_size=len(_VARS))
    .map(lambda exps: mono_from_map(dict(zip(_VARS, exps)))),
    st.integers(-4, 4), max_size=3).map(ExactPoly)

# matrix entries: a quarter of them zero, the rest nonzero
_entries = st.tuples(st.integers(0, 3), small_polys.filter(bool)).map(
    lambda t: t[1] if t[0] else ExactPoly())


def _plain_mul(p, q):
    """p * q by merging (variable, exponent) tuples term by term, a route
    that shares nothing with the packed kernel."""
    acc = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = mono_from_map(exps)
            acc[m] = acc.get(m, 0) + c1 * c2
    return ExactPoly(acc)


def _chain(factors):
    """prod f**e by repeated plain products."""
    out = ExactPoly.const(1)
    for f, e in factors:
        for _ in range(e):
            out = _plain_mul(out, f)
    return out


def _cofactor_det(mat):
    """Determinant by cofactor expansion along the first row, with plain
    products."""
    if len(mat) == 1:
        return mat[0][0]
    det = ExactPoly()
    for j, entry in enumerate(mat[0]):
        sub = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = _plain_mul(entry, _cofactor_det(sub))
        det = det - term if j % 2 else det + term
    return det


class TestRingOps:
    def test_product_of_variables_is_single_term(self):
        p = zp(1, 1) * zp(1, 2)
        assert len(p.terms) == 1
        assert p.coefficient(mono_from_map({zvar(1, 1): 1, zvar(1, 2): 1})) == 1

    def test_additive_inverse(self):
        p = zp(1, 1) * 3 + zp(2, 2) ** 2
        assert (p + (-1) * p).is_zero()

    def test_binomial_square(self):
        x, y = ExactPoly.variable(xvar(2, 1)), ExactPoly.variable(yvar(2, 1))
        sq = (x + y) ** 2
        assert sq == x * x + 2 * x * y + y * y

    def test_pow_zero_is_one(self):
        assert zp(1, 1) ** 0 == ExactPoly.const(1)

    # every way a coefficient enters the ring; the ring is the integers
    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(3), 0.5],
                             ids=str)
    @pytest.mark.parametrize("enter", [
        lambda c: ExactPoly({mono_from_map({zvar(1, 1): 1}): c}),
        ExactPoly.const,
        lambda c: ExactPoly.monomial(mono_from_map({zvar(1, 1): 1}), c),
        lambda c: zp(1, 1) * c,
        lambda c: c * zp(1, 1),
        lambda c: zp(1, 1) + c,
        lambda c: c + zp(1, 1),
    ], ids=["constructor", "const", "monomial", "mul", "rmul", "add", "radd"])
    def test_rational_scalars(self, enter, value):
        with pytest.raises(TypeError, match="coefficients are int"):
            enter(value)

    # equality compares with int and ExactPoly only; any other value is
    # unequal, never an error
    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(3), 0.5,
                                       Fraction(1), 1.0], ids=str)
    def test_equality_with_a_non_int_is_false(self, value):
        assert not zp(1, 1) == value
        assert not ExactPoly.const(1) == value
        assert ExactPoly.const(1) != value
        assert ExactPoly.const(1) == 1

    def test_constants_hash_as_the_ints_they_equal(self):
        assert len({ExactPoly.const(1), 1}) == 1
        assert 1 in {ExactPoly.const(1)}
        assert ExactPoly() in {0} and hash(ExactPoly()) == hash(0)
        assert hash(ExactPoly.const(-1)) == hash(-1)

    def test_map_variables_retags_slots(self):
        p = zp(1, 2) ** 2 * 5
        q = p.map_variables(lambda v: (v[0], 7, v[2], v[3]))
        assert q.coefficient(mono_from_map({zvar(1, 2, 7): 2})) == 5


class TestMinor:
    def test_two_by_two(self):
        z = symbolic_matrix(2)
        d = minor(z, (1, 2), (1, 2))
        assert d == zp(1, 1) * zp(2, 2) - zp(1, 2) * zp(2, 1)

    def test_single_entry(self):
        z = symbolic_matrix(3)
        assert minor(z, (2,), (3,)) == zp(2, 3)

    def test_repeated_indices_rejected(self):
        z = symbolic_matrix(3)
        with pytest.raises(ValueError):
            minor(z, (1, 1), (1, 2))
        with pytest.raises(ValueError):
            minor(z, (), ())

    def test_equal_columns_vanish(self):
        z = symbolic_matrix(3)
        mat = [[z[r][0], z[r][0], z[r][2]] for r in range(3)]
        assert minor(mat, (1, 2), (1, 2)).is_zero()

    @given(st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(_entries, min_size=k, max_size=k), min_size=k, max_size=k)))
    @settings(deadline=None)
    def test_equals_the_cofactor_expansion(self, mat):
        # zero entries included: the Leibniz sum skips their terms
        idx = tuple(range(1, len(mat) + 1))
        assert minor(mat, idx, idx) == _cofactor_det(mat)

    def test_alternating_and_multilinear_random(self):
        # substitute random integers and compare against a plain
        # permanent-free determinant evaluation
        rng = random.Random(11)
        for _ in range(20):
            vals = [[rng.randrange(-4, 5) for _ in range(3)]
                    for _ in range(3)]
            mat = [[ExactPoly.const(v) for v in row] for row in vals]
            det = minor(mat, (1, 2, 3), (1, 2, 3))
            brute = 0
            import itertools
            for perm in itertools.permutations(range(3)):
                sgn = 1
                for a in range(3):
                    for b in range(a + 1, 3):
                        if perm[a] > perm[b]:
                            sgn = -sgn
                term = sgn
                for r in range(3):
                    term *= vals[r][perm[r]]
                brute += term
            assert det == ExactPoly.const(brute)


class TestBargmann:
    def test_unit_monomial(self):
        assert bargmann_inner(zp(1, 1), zp(1, 1)) == 1

    def test_factorial_norm(self):
        sq = zp(1, 1) ** 2
        assert bargmann_inner(sq, sq) == 2

    def test_determinant_norm(self):
        z = symbolic_matrix(2)
        d = minor(z, (1, 2), (1, 2))
        assert bargmann_inner(d, d) == 2

    def test_symmetry_and_positivity(self):
        rng = random.Random(5)
        vars_ = [zvar(1, 1), zvar(1, 2), zvar(2, 1)]
        for _ in range(25):
            p = ExactPoly()
            q = ExactPoly()
            for _ in range(4):
                m = mono_from_map({v: rng.randrange(3) for v in vars_})
                p = p + ExactPoly.monomial(m, rng.randrange(-3, 4))
                q = q + ExactPoly.monomial(m, rng.randrange(-3, 4))
            assert bargmann_inner(p, q) == bargmann_inner(q, p)
            if not p.is_zero():
                assert bargmann_inner(p, p) > 0

    def test_factorization_over_disjoint_variables(self):
        p1 = zp(1, 1) + 2 * zp(1, 2)
        p2 = zp(1, 1) ** 2 - zp(1, 2)
        q1 = zp(2, 1) ** 3
        q2 = zp(2, 1) ** 3 + zp(2, 2)
        lhs = bargmann_inner(p1 * q1, p2 * q2)
        assert lhs == bargmann_inner(p1, p2) * bargmann_inner(q1, q2)


class TestPowerProduct:
    @given(st.lists(st.tuples(small_polys, st.integers(0, 3)), max_size=3))
    @settings(deadline=None)
    def test_equals_the_binary_chain(self, factors):
        # zero polynomials, constants, e = 0 and the empty list included
        got = power_product(factors)
        assert got == _chain(factors)
        assert got.text() == _chain(factors).text()
        if len(factors) == 1:
            assert factors[0][0] ** factors[0][1] == got
        if factors:
            f, g = factors[0][0], factors[-1][0]
            assert f * g == _plain_mul(f, g)

    def test_empty_zero_and_constant_factors(self):
        assert power_product([]) == 1
        assert power_product([(ExactPoly(), 0)]) == 1
        assert power_product([(zp(1, 1), 2), (ExactPoly(), 1)]).is_zero()
        assert power_product([(ExactPoly.const(-2), 3), (zp(1, 1), 0)]) == -8

    @pytest.mark.parametrize("e", [-1, 1.0, "2"])
    def test_bad_exponent(self, e):
        with pytest.raises(ValueError, match="integer k >= 0"):
            power_product([(zp(1, 1), e)])
        with pytest.raises(ValueError, match="integer k >= 0"):
            zp(1, 1) ** e

    def test_fields_wider_than_a_byte(self):
        layout, _ = packed_power_product([(zp(1, 1) + zp(1, 2), 300)])
        assert layout.width == 16 and layout.bounds == (300, 300)
        p = (zp(1, 1) + zp(1, 2)) ** 300
        assert len(p.terms) == 301
        for k in (0, 1, 150, 299, 300):
            m = mono_from_map({zvar(1, 1): k, zvar(1, 2): 300 - k})
            assert p.coefficient(m) == math.comb(300, k)
        assert zp(1, 1) ** 300 == ExactPoly.monomial(((zvar(1, 1), 300),))

    def test_exponent_beyond_64_bits_is_exact(self):
        e = 2 ** 70
        layout, _ = packed_power_product([(zp(1, 1), e)])
        assert layout.width == 72
        assert zp(1, 1) ** e == ExactPoly.monomial(((zvar(1, 1), e),))
        assert (-zp(1, 1)) ** (e + 1) == ExactPoly.monomial(
            ((zvar(1, 1), e + 1),), -1)
        p = power_product([(zp(1, 1), e), (zp(1, 1) * zp(2, 2), 1)])
        assert p.terms == {((zvar(1, 1), e + 1), (zvar(2, 2), 1)): 1}

    def test_pack_refuses_what_no_product_holds(self):
        layout, _ = packed_power_product([(zp(1, 1) * zp(1, 2), 3)])
        assert layout.width == 8
        assert layout.pack(((zvar(1, 1), 3),)) is not None
        # 256 in the first field would carry into the second
        assert layout.pack(((zvar(1, 1), 256),)) is None
        assert layout.pack(((zvar(1, 1), 4),)) is None
        assert layout.pack(((zvar(2, 2), 1),)) is None


# weighted sums of products of powers, as (c, [(f, e), ...]) terms
_sums = st.lists(st.tuples(st.integers(-3, 3),
                           st.lists(st.tuples(small_polys, st.integers(0, 3)),
                                    max_size=3)), max_size=4)


class TestProductSum:
    @given(_sums, st.booleans())
    @settings(deadline=None)
    def test_equals_the_sum_of_power_products(self, terms, cancel):
        # zero weights, zero factors and the empty sum included; with
        # `cancel`, the first term comes back negated and the two cancel
        if cancel and terms:
            terms = terms + [(-terms[0][0], terms[0][1])]
        expect = ExactPoly()
        for c, factors in terms:
            expect = expect + c * power_product(factors)
        got = product_sum(terms)
        assert got == expect and got.text() == expect.text()

    def test_empty_and_cancelling_sums_are_zero(self):
        f = zp(1, 1) + zp(1, 2)
        assert product_sum([]).is_zero()
        assert product_sum([(2, [(f, 3)]), (-2, [(f, 1), (f, 2)])]).is_zero()
        assert product_sum([(0, [(f, 1)])]).is_zero()
        assert product_sum([(-3, [])]) == -3

    def test_a_term_exactly_at_a_field_bound(self):
        # the layout holds the largest exponent over the terms, not their
        # sum: 255 fits one byte, and the field does not wrap at it
        x, y = zp(1, 1), zp(1, 2)
        terms = [(1, [(x, 255)]), (2, [(x, 100), (x + y, 1)])]
        layout, packed = packed_product_sum(terms)
        assert layout.width == 8 and layout.bounds == (255, 1)
        top = ((zvar(1, 1), 255),)
        got = product_sum(terms)
        assert got.coefficient(top) == 1 and len(got.terms) == 3
        assert got == x ** 255 + 2 * x ** 101 + 2 * x ** 100 * y
        # one more in the exponent needs a wider field
        assert packed_product_sum([(1, [(x, 256)])])[0].width == 16

    def test_one_layout_per_call(self, monkeypatch):
        built = []
        init = PackedLayout.__init__

        def counted(self, bounds):
            built.append(bounds)
            init(self, bounds)

        monkeypatch.setattr(PackedLayout, "__init__", counted)
        z = symbolic_matrix(4)
        det = minor(z, (1, 2, 3, 4), (1, 2, 3, 4))
        assert len(det.terms) == 24 and len(built) == 1
        built.clear()
        f, g = zp(1, 1) + zp(2, 2), zp(1, 2) - zp(2, 1)
        product_sum([(c, [(f, c), (g, 3 - c)]) for c in range(4)])
        assert len(built) == 1


class TestExtraction:
    """The branching kernel split by the lower pattern's parameter
    monomial (`basisgen._branch_family`, on packed keys)."""

    FAMILIES = [((2, 1, 0), (1, 0)), ((3, 1, 0), (2, 1)), ((1, 1, 0), (1, 0)),
                ((2, 1, 1, 0), (2, 1, 0)), ((2, 2, 1, 0), (2, 1, 1))]

    def test_single_variable(self):
        # each lower U(2) pattern of [1,1,0] / [1,0] has a one-variable phi
        z = symbolic_matrix(3)
        x, y = xvar(2, 1), yvar(2, 1)
        assert _branch_family((1, 1, 0), (1, 0)) == {
            mono_from_map({x: 1}): minor(z, (1, 2), (2, 3)),
            mono_from_map({y: 1}): minor(z, (1, 2), (1, 3))}

    def test_empty_target_is_identity_on_free_polys(self):
        # a U(1) pattern has no parameter monomial, so a kernel free of
        # parameters is the one part, under the empty key
        assert _branch_family((2, 0), (1,)) == {
            (): branching_kernel([2, 0], [1])}
        assert _branch_family((0, 0, 0), (0, 0)) == {(): ExactPoly.const(1)}

    def test_split_recombines(self):
        for label, row in self.FAMILIES:
            family = _branch_family(label, row)
            assert all(v[0] in "xy" for phi in family for v, _ in phi)
            assert all(v[0] == "z" for part in family.values()
                       for m in part.terms for v, _ in m)
            total = ExactPoly()
            for phi, part in family.items():
                total = total + ExactPoly.monomial(phi) * part
            assert total == branching_kernel(label, row), (label, row)

    def test_text_form(self):
        p = zp(1, 1) * zp(2, 2) - zp(1, 2) * zp(2, 1)
        assert p.text() == "z[1,1]*z[2,2] - z[1,2]*z[2,1]"
        assert mono_text(()) == "1"


class TestMonomialOrder:
    """Text and leading monomial of polynomials whose monomials extend one
    another (not homogeneous); strings recorded with the comparator-based
    order that the sort key replaced."""

    @pytest.mark.parametrize("build, text, lead", [
        (lambda: 1 + zp(1, 1) + zp(1, 1) * zp(1, 2) + zp(1, 1) ** 2,
         "z[1,1]^2 + z[1,1]*z[1,2] + z[1,1] + 1", "z[1,1]^2"),
        (lambda: (zp(1, 2) - 3 + zp(1, 1) * zp(2, 2) ** 2
                  + 4 * zp(1, 1) * zp(1, 2) * zp(2, 2)),
         "4 * z[1,1]*z[1,2]*z[2,2] + z[1,1]*z[2,2]^2 + z[1,2] - 3",
         "z[1,1]*z[1,2]*z[2,2]"),
        (lambda: (ExactPoly.variable(xvar(2, 1)) * zp(1, 1)
                  + ExactPoly.variable(yvar(2, 1))
                  + ExactPoly.variable(xvar(2, 1))
                  + 2 * ExactPoly.variable(xvar(2, 1)) ** 2 - zp(2, 2)),
         "2 * x(2,1)^2 + x(2,1)*z[1,1] + x(2,1) + y(2,1) - z[2,2]",
         "x(2,1)^2"),
        (lambda: zp(2, 1) * zp(2, 2) + zp(2, 1) - zp(2, 1) ** 2 * zp(2, 2) + 5,
         "-z[2,1]^2*z[2,2] + z[2,1]*z[2,2] + z[2,1] + 5", "z[2,1]^2*z[2,2]"),
    ])
    def test_text_and_leading_monomial(self, build, text, lead):
        p = build()
        assert p.text() == text
        assert mono_text(p.leading_monomial()) == lead


small_fracs = st.fractions(min_value=-100, max_value=100, max_denominator=60)
pos_fracs = st.fractions(min_value=0, max_value=400, max_denominator=60)
bounded_fracs = st.fractions(min_value=-10 ** 4, max_value=10 ** 4,
                             max_denominator=10 ** 4)
pos_bounded_fracs = st.fractions(min_value=0, max_value=10 ** 4,
                                 max_denominator=10 ** 4)
# primes far past the trial-division table, as denominators of q and
# factors of r
big_primes = st.sampled_from([1_000_000_007, 998_244_353, 2 ** 61 - 1])


class TestSqrtRational:
    @given(small_fracs, pos_fracs, small_fracs, pos_fracs)
    @settings(max_examples=200, deadline=None)
    def test_product_squares_exactly(self, a, r, b, s):
        x, y = SqrtRational(a, r), SqrtRational(b, s)
        assert (x * y).squared() == a * a * r * b * b * s

    @given(small_fracs, pos_fracs, small_fracs)
    @settings(max_examples=200, deadline=None)
    def test_same_radicand_product(self, a, r, b):
        x, y = SqrtRational(a, r), SqrtRational(b, r)
        assert (x * y) == SqrtRational(a * b * r)

    @given(small_fracs, small_fracs, pos_fracs)
    @settings(max_examples=200, deadline=None)
    def test_canonical_equality(self, a, b, r):
        # a*sqrt(b^2 r) and a*b*sqrt(r) are the same number
        assert SqrtRational(a, b * b * r if b else r) == \
            SqrtRational(a * abs(b) if b else a, r)

    @given(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                     st.builds(lambda f, p: f / p, bounded_fracs, big_primes)),
           st.one_of(st.just(0), st.integers(0, 10 ** 6), pos_bounded_fracs,
                     pos_bounded_fracs.map(lambda f: f * f),
                     st.builds(operator.mul, pos_bounded_fracs, big_primes)))
    @settings(max_examples=300, deadline=None)
    def test_constructor_is_canonical(self, q, r):
        # r = 1/m with m square-free, the same q^2 r and sign, zero as (0, 1)
        v = SqrtRational(q, r)
        m = v.r.denominator
        assert (type(v.q), type(v.r)) == (Fraction, Fraction)
        assert v.r.numerator == 1 and squarefree_split(m) == (1, m)
        assert v.q * v.q * v.r == q * q * r
        assert v.sign() == (((q > 0) - (q < 0)) if r else 0)
        if not v.sign():
            assert (v.q, v.r) == (0, 1)

    def test_addition_same_radicand(self):
        x = SqrtRational(Fraction(1, 2), 3)
        y = SqrtRational(Fraction(1, 3), 3)
        assert (x + y) == SqrtRational(Fraction(5, 6), 3)

    def test_addition_mixed_radicand_rejected(self):
        with pytest.raises(ValueError):
            SqrtRational(1, 2) + SqrtRational(1, 3)

    def test_zero_is_canonical(self):
        assert SqrtRational(0, 7) == SqrtRational(0)
        assert SqrtRational(3, 0) == SqrtRational(0)
        assert (SqrtRational(0).q, SqrtRational(0).r) == (0, 1)

    def test_wire_format(self):
        v = SqrtRational(1, Fraction(1, 2))
        assert v.text() == "1/1*sqrt(1/2)"
        assert v.to_json() == {"q": "1/1", "r": "1/2"}

    def test_division(self):
        x = SqrtRational(3, 2)
        assert x / x == SqrtRational(1)
        assert SqrtRational(1) / SqrtRational(1, 2) == \
            SqrtRational(1, Fraction(1, 2))

    @given(st.integers(min_value=1, max_value=10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_squarefree_split(self, n):
        a, b = squarefree_split(n)
        assert a * a * b == n
        # b square-free: no prime square divides it
        d = 2
        while d * d <= b:
            assert b % (d * d) != 0
            d += 1
