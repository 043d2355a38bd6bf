import itertools
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from gtboson.basisgen import (
    _branch_family,
    _branch_poly,
    _u4_indices,
    basis_from_branching,
    p_n_1,
    u3_basis_closed,
    u4_basis_closed,
)
from gtboson.gelfand import (
    ConsistencyError,
    DomainError,
    GelfandPattern,
    IrrepLabel,
    enumerate_patterns,
    lr_exponents,
    pattern_phi,
    weight,
)
from gtboson.oracles import (
    branching_kernel,
    const_A,
    kernel_phi_support,
    norm_sq_max,
    norm_sq_semimax,
    norm_sq_u2,
    norm_sq_u3,
    norm_sq_u3_hypergeometric,
    p_n_1_oracle,
    semimax_pattern,
    u2_basis_closed,
    u3_basis_hypergeometric,
    u4_free_index_count,
)
from gtboson.packed import PackedLayout
from gtboson.polyengine import (
    ExactPoly,
    bargmann_inner,
    minor,
    symbolic_matrix,
)


def zp(r, c):
    return ExactPoly.variable(("z", 0, r, c))


def patterns_up_to(n, h1, last=None):
    """Every pattern of every U(n) label with entries <= h1 (and last
    entry `last`, when given), label by label."""
    for h in itertools.combinations_with_replacement(range(h1, -1, -1), n):
        if last is None or h[-1] == last:
            yield from enumerate_patterns(IrrepLabel(h))


def branching_ratio(label, row):
    """Kernel ratio constant A * ||semimax||^2 * ||max of row||^2."""
    return const_A(label) * norm_sq_semimax(label, row) * norm_sq_max(row)


class TestConstants:
    def test_const_a_values(self):
        assert const_A([1, 0]) == 1
        assert const_A([2, 0]) == 2
        assert const_A([0, 0, 0]) > 0

    def test_branching_ratio_trivial(self):
        assert branching_ratio([0, 0], [0]) == 1
        assert branching_ratio([1, 0], [1]) == 1

    def test_branching_ratio_octet(self):
        v = branching_ratio([2, 1, 0], [2, 1])
        assert isinstance(v, Fraction) and v > 0

    def test_branching_ratio_consistency(self):
        # A * ||raw basis||^2 * ||embedded U(2) polynomial||^2 must not depend
        # on the bottom row
        for h in [(2, 1, 0), (3, 2, 0), (2, 2, 1)]:
            label = IrrepLabel(h)
            for p in enumerate_patterns(label):
                b = basis_from_branching(p)
                lhs = const_A(label) * b.norm_sq * norm_sq_u2(p.lower())
                assert lhs == branching_ratio(label, p.rows[1])


class TestU2Basis:
    def test_highest_of_fundamental(self):
        b = u2_basis_closed([[1, 0], [1]])
        assert b.poly == zp(1, 1) and b.norm_sq == 1

    def test_two_boxes(self):
        b = u2_basis_closed([[2, 0], [1]])
        assert b.poly == zp(1, 1) * zp(1, 2) and b.norm_sq == 1

    def test_determinant_state(self):
        b = u2_basis_closed([[1, 1], [1]])
        assert b.norm_sq == 2
        assert b.poly == zp(1, 1) * zp(2, 2) - zp(1, 2) * zp(2, 1)

    def test_matches_oracle_everywhere(self):
        for h in itertools.combinations_with_replacement(range(4, -1, -1), 2):
            for p in enumerate_patterns(IrrepLabel(h)):
                a, c = basis_from_branching(p), u2_basis_closed(p)
                assert a.poly == c.poly and a.norm_sq == c.norm_sq
                assert a.norm_sq == norm_sq_u2(p)


class TestU3Basis:
    def test_fundamental_highest(self):
        b = basis_from_branching([[1, 0, 0], [1, 0], [1]])
        assert b.poly == zp(1, 1)

    def test_fundamental_middle(self):
        b = basis_from_branching([[1, 0, 0], [1, 0], [0]])
        assert b.poly == zp(1, 2)

    def test_antifundamental_two_term(self):
        b = basis_from_branching([[1, 1, 0], [1, 0], [1]])
        assert b.poly == zp(1, 1) * zp(2, 3) - zp(1, 3) * zp(2, 1)
        assert b.norm_sq == 2

    def test_closed_equals_oracle(self):
        # every U(3) pattern with h1 <= 4, term by term and in norm
        count = 0
        for p in patterns_up_to(3, 4):
            a, c = basis_from_branching(p), u3_basis_closed(p)
            assert a.poly.terms == c.poly.terms, p
            assert a.norm_sq == c.norm_sq == norm_sq_u3(p), p
            count += 1
        assert count == 294

    def test_max_pattern_is_single_product(self):
        b = u3_basis_closed([[2, 1, 0], [2, 1], [2]])
        z = symbolic_matrix(3)
        expected = minor(z, (1,), (1,)) * minor(z, (1, 2), (1, 2))
        assert b.poly == expected

    def test_hypergeometric_domain(self):
        with pytest.raises(DomainError):
            u3_basis_hypergeometric([[1, 1, 1], [1, 1], [1]])
        with pytest.raises(DomainError):
            u3_basis_hypergeometric([[1, 1, 0], [1, 0], [0]])

    def test_hypergeometric_agrees_up_to_scale(self):
        for h in [(2, 1, 0), (3, 2, 0)]:
            for p in enumerate_patterns(IrrepLabel(h)):
                h23, h11 = p.rows[0][1], p.rows[2][0]
                if h11 < h23:
                    continue
                a = basis_from_branching(p)
                hb = u3_basis_hypergeometric(p)
                ca, ch = a.poly.leading_coefficient(), hb.poly.leading_coefficient()
                assert a.poly * ch == hb.poly * ca
                assert hb.norm_sq == norm_sq_u3_hypergeometric(p)

    def test_orthogonality_octet(self):
        basis = [basis_from_branching(p) for p in enumerate_patterns([2, 1, 0])]
        for i, bi in enumerate(basis):
            for bj in basis[i + 1:]:
                assert bargmann_inner(bi.poly, bj.poly) == 0

    def test_weights_match_column_degrees(self):
        for p in enumerate_patterns([2, 1, 0]):
            for m in basis_from_branching(p).poly.terms:
                degrees = [0, 0, 0]
                for (_, _, _, col), e in m:
                    degrees[col - 1] += e
                assert tuple(degrees) == weight(p)


class TestU4Basis:
    def test_fundamental(self):
        b = u4_basis_closed([[1, 0, 0, 0], [1, 0, 0], [1, 0], [1]])
        assert b.poly == zp(1, 1)

    def test_antisymmetric_square(self):
        b = u4_basis_closed([[1, 1, 0, 0], [1, 1, 0], [1, 1], [1]])
        assert b.poly == zp(1, 1) * zp(2, 2) - zp(1, 2) * zp(2, 1)

    def test_max_pattern_single_product(self):
        b = u4_basis_closed([[2, 1, 0, 0], [2, 1, 0], [2, 1], [2]])
        z = symbolic_matrix(4)
        assert b.poly == minor(z, (1,), (1,)) * minor(z, (1, 2), (1, 2))

    def test_closed_equals_oracle(self):
        # the 2,099 patterns of the 34 nonzero labels with h1 <= 4 and
        # h4 = 0 (the basis-u4 benchmark's), and the trivial one, term by
        # term and in norm
        count = 0
        for p in patterns_up_to(4, 4, last=0):
            a, c = basis_from_branching(p), u4_basis_closed(p)
            assert a.poly.terms == c.poly.terms, p
            assert a.norm_sq == c.norm_sq, p
            count += 1
        assert count == 2_099 + 1

    def test_one_layout_per_call(self, monkeypatch):
        # the whole five-index sum is expanded on one packed layout
        p = GelfandPattern([[4, 3, 1, 0], [3, 2, 0], [2, 1], [2]])
        assert len(list(_u4_indices(lr_exponents(p)))) > 1
        expect = u4_basis_closed(p)
        built = []
        init = PackedLayout.__init__

        def counted(self, bounds):
            built.append(bounds)
            init(self, bounds)

        monkeypatch.setattr(PackedLayout, "__init__", counted)
        assert u4_basis_closed(p) == expect and len(built) == 1

    def test_five_free_indices(self):
        # on [2,1,1,0] R_{4,2} = 0 for every pattern, so the free index g of
        # the sum stays 0; [3,2,1,0] has 32 of 64 patterns with R_{4,2} > 0
        for label in ([2, 1, 1, 0], [3, 2, 1, 0]):
            for p in enumerate_patterns(label):
                assert u4_free_index_count(p) == 5

    def test_free_index_count_checks_the_pattern_sum(self, monkeypatch):
        # drop the last tuple of the sum: the brute-force solutions differ
        p = GelfandPattern([[2, 1, 1, 0], [2, 1, 0], [1, 1], [1]])
        monkeypatch.setattr("gtboson.oracles._u4_indices",
                            lambda lr: list(_u4_indices(lr))[:-1])
        with pytest.raises(ConsistencyError, match="five-index sum"):
            u4_free_index_count(p)

    def test_u5_basis_is_refused(self):
        # the kernel route is checked up to U(4) only
        with pytest.raises(DomainError, match=r"n <= 4"):
            basis_from_branching([[2, 1, 0, 0, 0], [2, 1, 0, 0], [2, 1, 0],
                                  [1, 1], [1]])

    def test_orthogonality(self):
        basis = [basis_from_branching(p) for p in enumerate_patterns([1, 1, 0, 0])]
        for i, bi in enumerate(basis):
            for bj in basis[i + 1:]:
                assert bargmann_inner(bi.poly, bj.poly) == 0


class TestBranchingKernel:
    def test_trivial_label(self):
        k = branching_kernel([0, 0, 0], [0, 0])
        assert k == ExactPoly.const(1)

    def test_u2_shape(self):
        k = branching_kernel([2, 0], [1])
        assert k == zp(1, 1) * zp(1, 2)

    def test_branching_violation_rejected(self):
        with pytest.raises(DomainError,
                           match=r"branching violated: h\[1,3\]=2 >= "
                                 r"h\[1,2\]=3 >= h\[2,3\]=1"):
            branching_kernel([2, 1, 0], [3, 0])

    def test_phi_support_matches_patterns(self):
        for label, row in [((2, 1, 0), (1, 0)), ((2, 1, 0, 0), (1, 1, 0))]:
            sup = kernel_phi_support(label, row)
            assert sup == {pattern_phi(p) for p in enumerate_patterns(row)}

    def test_extraction_zero_for_foreign_monomial(self):
        # a monomial from a different branch label never appears
        foreign = pattern_phi(GelfandPattern([[2, 0], [1]]))
        assert foreign not in _branch_family((1, 0, 0), (1, 0))

    @pytest.mark.parametrize("label", [(2, 1, 1, 0), (3, 2, 1, 0)])
    def test_family_shares_one_object_per_pair(self, label):
        # every basis polynomial of a branch family points at the same
        # (variable, exponent) tuples, so the cache holds each pair once
        rows = {p.row(3) for p in enumerate_patterns(label)}
        for row in sorted(rows):
            pairs = [pair for poly in _branch_family(label, row).values()
                     for m in poly.terms for pair in m]
            assert len({id(pair) for pair in pairs}) == len(set(pairs)), row


class TestSignConvention:
    """The theorem in `_finish`'s docstring: every route leads with a
    positive term, with no sign search (35 U(2), 294 U(3) and 2,772 U(4)
    patterns with h1 <= 4)."""

    COUNTS = {2: 35, 3: 294, 4: 2_772}

    def test_kernel_coefficients_lead_with_a_positive_term(self):
        for n, expect in self.COUNTS.items():
            count = 0
            for p in patterns_up_to(n, 4):
                assert _branch_poly(p).leading_coefficient() > 0, p
                count += 1
            assert count == expect

    @pytest.mark.parametrize("n, closed", [(2, u2_basis_closed),
                                           (3, u3_basis_closed),
                                           (4, u4_basis_closed)])
    def test_closed_forms_lead_with_a_positive_term(self, n, closed):
        count = 0
        for p in patterns_up_to(n, 4):
            assert closed(p).poly.leading_coefficient() > 0, p
            count += 1
        assert count == self.COUNTS[n]

    def test_hypergeometric_form_leads_with_a_positive_term(self):
        # its domain, h33 = 0 and h11 >= h23, holds 126 of the 294 patterns
        count = 0
        for p in patterns_up_to(3, 4, last=0):
            if p.entry(1, 1) >= p.entry(2, 3):
                hyper = u3_basis_hypergeometric(p)
                assert hyper.poly.leading_coefficient() > 0, p
                count += 1
        assert count == 126


class TestSemimaxNorms:
    def test_u2_cases(self):
        assert norm_sq_semimax([2, 0], [1]) == 1
        assert norm_sq_semimax([1, 1], [1]) == 2
        assert norm_sq_semimax([2, 2], [2]) == 12

    def test_brute_force_u3_u4(self):
        for h in [(2, 1, 0), (3, 2, 1), (1, 1, 0, 0), (2, 1, 1, 0)]:
            label = IrrepLabel(h)
            for row in {p.rows[1] for p in enumerate_patterns(label)}:
                sm = semimax_pattern(label, row)
                assert basis_from_branching(sm).norm_sq == \
                    norm_sq_semimax(label, row)


class TestPn1:
    def test_binomial_example(self):
        assert p_n_1([[2, 1, 0], [2, 0], [1]]) == 2

    def test_max_pattern_is_one(self):
        assert p_n_1([[2, 1, 0], [2, 1], [2]]) == 1

    def test_oracle_agreement(self):
        cases = [(2, 1, 0), (2, 2, 1), (2, 1, 0, 0), (1, 1, 1, 0),
                 (1, 1, 0, 0, 0), (2, 1, 1, 0, 0)]
        for h in cases:
            for p in enumerate_patterns(IrrepLabel(h)):
                assert p_n_1(p) == p_n_1_oracle(p)

    def test_oracle_agreement_u6(self):
        for h in itertools.combinations_with_replacement(range(2, -1, -1), 6):
            for p in enumerate_patterns(IrrepLabel(h)):
                assert p_n_1(p) == p_n_1_oracle(p)

    def test_rank_limits(self):
        with pytest.raises(DomainError):
            p_n_1([[1, 0], [0]])


class TestConcurrency:
    def test_parallel_construction_is_consistent(self):
        pats = enumerate_patterns([2, 1, 0])
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(basis_from_branching, pats * 3))
        for i, p in enumerate(pats * 3):
            assert results[i].poly == basis_from_branching(p).poly
