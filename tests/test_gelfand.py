import itertools
from fractions import Fraction

import pytest

from gtboson.gelfand import (
    DomainError,
    GelfandPattern,
    IrrepLabel,
    StructureError,
    _phi_bits,
    enumerate_patterns,
    lr_exponents,
    pattern_phi,
    weight,
    weyl_dimension,
)
from gtboson.oracles import semimax_pattern
from gtboson.polyengine import mono_text


class TestValidation:
    def test_valid_triangle(self):
        p = GelfandPattern([[2, 1, 0], [2, 1], [1]])
        assert p.rows == ((2, 1, 0), (2, 1), (1,))

    def test_betweenness_violation(self):
        with pytest.raises(DomainError, match="violates betweenness"):
            GelfandPattern([[2, 1, 0], [2, 2], [2]])

    def test_spin_half_highest(self):
        assert GelfandPattern([[1, 0], [1]]).rows == ((1, 0), (1,))

    def test_malformed_shape(self):
        with pytest.raises(StructureError):
            GelfandPattern([[2, 1, 0], [2]])

    def test_label_rejects_increase(self):
        with pytest.raises(DomainError, match="non-increasing"):
            IrrepLabel([1, 2, 0])

    def test_label_rejects_negative(self):
        with pytest.raises(DomainError, match="non-negative"):
            IrrepLabel([1, 0, -1])

    @pytest.mark.parametrize("rows", [[[1, 0, -1], [0, 0], [0]],
                                      [[-1]], [[0, -2], [-1]]])
    def test_pattern_rejects_a_negative_entry(self, rows):
        # betweenness alone holds for each; h[n,n] < 0 makes a label that
        # IrrepLabel refuses, so the pattern is refused when built
        n = len(rows)
        with pytest.raises(DomainError, match=rf"negative entry: "
                                              rf"h\[{n},{n}\]={rows[0][-1]}$"):
            GelfandPattern(rows)

    @pytest.mark.parametrize("entry", [2.5, 2.0, Fraction(2), "2"])
    def test_non_integer_entries_rejected(self, entry):
        # int() used to truncate these; only integers are entries
        with pytest.raises(TypeError):
            IrrepLabel([entry, 1, 0])
        with pytest.raises(TypeError):
            GelfandPattern([[entry, 1, 0], [1, 1], [1]])

    def test_construction_names_the_broken_inequality(self):
        with pytest.raises(DomainError, match=r"h\[1,2\]=2 >= h\[1,1\]=3"):
            GelfandPattern([[2, 1, 0], [2, 1], [3]])

    @pytest.mark.parametrize("build", [
        GelfandPattern, lr_exponents, pattern_phi, weight])
    def test_no_invalid_pattern_reaches_a_function(self, build):
        with pytest.raises(DomainError, match=r"^pattern 1,0;2 violates "
                           r"betweenness: h\[1,2\]=1 >= h\[1,1\]=2 "
                           r">= h\[2,2\]=0$"):
            build([[1, 0], [2]])


class TestEnumeration:
    def test_fundamental_triplet(self):
        assert len(enumerate_patterns([1, 0, 0])) == 3

    def test_octet(self):
        assert len(enumerate_patterns([2, 1, 0])) == 8

    def test_trivial_rep(self):
        pats = enumerate_patterns([0, 0])
        assert pats == [GelfandPattern([[0, 0], [0]])]

    def test_canonical_order_descending(self):
        pats = enumerate_patterns([2, 1, 0])
        flat = [sum(p.rows, ()) for p in pats]
        assert flat == sorted(flat, reverse=True)

    def test_counts_match_weyl(self):
        for h in itertools.combinations_with_replacement(range(3, -1, -1), 4):
            label = IrrepLabel(h)
            assert len(enumerate_patterns(label)) == weyl_dimension(label)

    def test_unchecked_rows_equal_the_checked_patterns(self):
        # enumeration skips the constructor's checks on the rows it
        # generates; the result must be what the checks would build, over
        # 31,420 patterns of the 251 labels with h1 <= 4 and n <= 5
        count = 0
        for n in range(1, 6):
            for h in itertools.combinations_with_replacement(range(4, -1, -1),
                                                             n):
                pats = enumerate_patterns(h)
                checked = [GelfandPattern(p.rows) for p in pats]
                assert pats == checked, h
                assert list(map(hash, pats)) == list(map(hash, checked)), h
                assert len(set(pats)) == weyl_dimension(h), h
                count += len(pats)
        assert count == 31420

    def test_weyl_examples(self):
        assert weyl_dimension([1, 0, 0]) == 3
        assert weyl_dimension([2, 1, 0]) == 8
        assert weyl_dimension([0, 0, 0, 0]) == 1


class TestWeights:
    def test_max_pattern_weight_is_label(self):
        assert weight(GelfandPattern([[2, 1, 0], [2, 1], [2]])) == (2, 1, 0)

    def test_min_pattern_weight(self):
        assert weight(GelfandPattern([[2, 1, 0], [1, 0], [0]])) == (0, 1, 2)

    def test_spin_half(self):
        assert weight(GelfandPattern([[1, 0], [1]])) == (1, 0)

    def test_weight_sum_is_top_row_sum(self):
        for p in enumerate_patterns([3, 1, 0]):
            assert sum(weight(p)) == 4

    def test_max_is_maximal_in_first_difference_order(self):
        wmax = weight(GelfandPattern([[2, 1, 0], [2, 1], [2]]))
        for p in enumerate_patterns([2, 1, 0]):
            diff = [a - b for a, b in zip(wmax, weight(p))]
            nonzero = [d for d in diff if d]
            if nonzero:
                assert nonzero[0] > 0


class TestExtremePatterns:
    def test_min_agrees_with_enumerated_minimum(self):
        lowest = [((2, 1, 0), (1, 0), (0,)), ((3, 1, 1), (1, 1), (1,)),
                  ((2, 2, 0), (2, 0), (0,)), ((1, 1, 0, 0), (1, 0, 0), (0, 0), (0,))]
        for rows in lowest:
            pats = enumerate_patterns(rows[0])

            def leq(wa, wb):
                diff = [a - b for a, b in zip(wa, wb)]
                nz = [d for d in diff if d]
                return not nz or nz[0] < 0

            wmin = weight(GelfandPattern(rows))
            assert all(leq(wmin, weight(p)) for p in pats)

    def test_semimax(self):
        assert semimax_pattern([2, 1, 0], [1, 1]).rows == ((2, 1, 0), (1, 1), (1,))

    def test_semimax_rejects_bad_branch(self):
        with pytest.raises(DomainError, match=r"pattern 2,1,0;3,0;3 violates "
                                              r"betweenness: h\[1,3\]=2 >= "
                                              r"h\[1,2\]=3 >= h\[2,3\]=1"):
            semimax_pattern([2, 1, 0], [3, 0])


class TestLRExponents:
    def test_su2_example(self):
        lr = lr_exponents([[2, 0], [1]])
        assert lr.L[(2, 1)] == 1 and lr.R[(2, 1)] == 1

    def test_max_pattern_has_no_drops(self):
        lr = lr_exponents([[3, 2, 1], [3, 2], [3]])
        assert all(v == 0 for (lam, mu), v in lr.L.items() if mu < lam)

    def test_min_pattern_has_no_raises(self):
        lr = lr_exponents([[3, 2, 1], [2, 1], [1]])
        assert all(v == 0 for v in lr.R.values())

    def test_validity_iff_nonnegative(self):
        # an invalid pattern object cannot exist, so every exponent table
        # is non-negative
        with pytest.raises(DomainError):
            GelfandPattern([[2, 1, 0], [2, 2], [2]])
        for p in enumerate_patterns([3, 1, 0]):
            lr = lr_exponents(p)
            assert all(v >= 0 for v in lr.L.values())
            assert all(v >= 0 for v in lr.R.values())


class TestPhiMonomial:
    def test_word_1010(self):
        assert mono_text(_phi_bits((1, 0, 1, 0), 0)) == "x(3,2)*y(2,1)*y(4,2)"

    def test_word_0011(self):
        assert mono_text(_phi_bits((0, 0, 1, 1), 0)) == "x(3,1)*x(4,2)"

    def test_determinant_word_is_constant(self):
        assert _phi_bits((1, 1, 1), 0) == ()

    def test_pattern_phi_su2(self):
        assert mono_text(pattern_phi([[2, 0], [1]])) == "x(2,1)*y(2,1)"

    def test_max_pattern_phi_has_no_x(self):
        m = pattern_phi([[2, 1, 0], [2, 1], [2]])
        assert all(v[0] == "y" for v, _ in m)

    def test_injective_per_label(self):
        for h in [(2, 1, 0), (3, 1, 0), (2, 1, 1, 0)]:
            pats = enumerate_patterns(h)
            monos = {pattern_phi(p) for p in pats}
            assert len(monos) == len(pats)
