import hashlib
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtboson.coupling import (
    IsoscalarUndefined,
    _xi_coefficient,
    coupling_table,
    su2_threej,
    su3_isoscalar,
    su3_wigner,
)
from gtboson.oracles import (
    SU6Indices,
    index_solutions,
    index_solutions_bruteforce,
    index_solutions_closed,
    k_exponents,
    racah_threej_oracle,
    su3_wigner_generating,
    su3_wigner_secondary,
    triple_to_su6,
    w_invariants,
    xi_invariant,
)
from gtboson import coupling, oracles
from gtboson.basisgen import basis_from_branching
from gtboson.gelfand import (
    ConsistencyError,
    DomainError,
    GelfandPattern,
    IrrepLabel,
    StructureError,
    enumerate_patterns,
    lr_exponents,
    weight,
    weyl_dimension,
)
from gtboson.polyengine import (
    ExactPoly,
    SqrtRational,
    mono_from_map,
    xvar,
    yvar,
    zvar,
)


def spin_pattern(tj, tm):
    return GelfandPattern([[tj, 0], [(tj + tm) // 2]])


class TestXi:
    def test_displayed_form(self):
        expected = (ExactPoly.variable(yvar(2, 1, 1)) * ExactPoly.variable(xvar(2, 1, 2))
                    - ExactPoly.variable(xvar(2, 1, 1)) * ExactPoly.variable(yvar(2, 1, 2)))
        assert xi_invariant(1, 2) == expected

    def test_equal_slots_rejected(self):
        with pytest.raises(DomainError):
            xi_invariant(2, 2)

    def test_antisymmetry_under_slot_swap(self):
        swap = {1: 3, 3: 1, 2: 2}
        swapped = xi_invariant(1, 3).map_variables(
            lambda v: (v[0], swap[v[1]], v[2], v[3]))
        assert swapped == -xi_invariant(1, 3)

    def test_closed_coefficient_equals_the_expansion(self):
        # every doubled (2j, 2m) triple with 2j <= 8, including the targets
        # off the degree balance (m sum != 0, odd J, triangle broken)
        spins = [(tj, tm) for tj in range(9) for tm in range(-tj, tj + 1, 2)]
        products = {}
        for tjm in itertools.product(spins, repeat=3):
            tJ = sum(tj for tj, _ in tjm)
            p = tuple((tJ - 2 * tj) // 2 for tj, _ in tjm)
            xy = [((tj - tm) // 2, (tj + tm) // 2) for tj, tm in tjm]
            got = _xi_coefficient(p, xy)
            if tJ % 2 or min(p) < 0:
                # no product xi23^p1 xi13^p2 xi12^p3 has these slot degrees
                assert got == 0, tjm
                continue
            if p not in products:
                products[p] = (xi_invariant(2, 3) ** p[0]
                               * xi_invariant(1, 3) ** p[1]
                               * xi_invariant(1, 2) ** p[2])
            target = mono_from_map({
                v: e for s, (a, b) in enumerate(xy, start=1)
                for v, e in ((xvar(2, 1, s), a), (yvar(2, 1, s), b)) if e})
            assert got == products[p].coefficient(target), tjm


class TestRacahOracle:
    def test_half_spin(self):
        v = racah_threej_oracle(Fraction(1, 2), Fraction(1, 2),
                                Fraction(1, 2), Fraction(-1, 2), 0, 0)
        assert v.squared() == Fraction(1, 2)

    def test_unit_spin(self):
        v = racah_threej_oracle(1, 1, 1, -1, 0, 0)
        assert v.squared() == Fraction(1, 3)

    def test_m_sum_rule(self):
        assert racah_threej_oracle(1, 1, 1, 1, 1, 1).is_zero()

    def test_triangle_rule(self):
        assert racah_threej_oracle(2, 0, Fraction(1, 2), 0, 4, 0).is_zero()

    def test_odd_symmetric_zero(self):
        assert racah_threej_oracle(1, 0, 1, 0, 1, 0).is_zero()

    def test_exact_half_integer_float_accepted(self):
        assert racah_threej_oracle(0.5, 0.5, 0.5, -0.5, 0, 0) == \
            racah_threej_oracle(Fraction(1, 2), Fraction(1, 2),
                                Fraction(1, 2), Fraction(-1, 2), 0, 0)

    def test_non_half_integer_float_rejected(self):
        # 0.3 used to be rounded to 1/2 and answered
        with pytest.raises(DomainError):
            racah_threej_oracle(0.3, 0.5, 0.5, -0.5, 0, 0)


def _sympy_check():
    """A check of su2_threej against sympy's wigner_3j on doubled arguments,
    exact in the squared value and the sign; skips without sympy."""
    wigner = pytest.importorskip("sympy.physics.wigner")
    from sympy import Rational

    def check(tj1, tm1, tj2, tm2, tj3, tm3):
        args = (tj1, tm1, tj2, tm2, tj3, tm3)
        want = wigner.wigner_3j(*(Rational(t, 2)
                                  for t in (tj1, tj2, tj3, tm1, tm2, tm3)))
        # sympy writes the value as rational * sqrt(positive rational)
        coeff = want.as_coeff_Mul()[0]
        sq = want ** 2
        got = su2_threej(spin_pattern(tj1, tm1), spin_pattern(tj2, tm2),
                         spin_pattern(tj3, tm3))
        assert got.squared() == Fraction(int(sq.p), int(sq.q)), args
        assert got.sign() == (coeff.p > 0) - (coeff.p < 0), args

    return check


class TestSu2ThreeJ:
    def test_half_spin_magnitude(self):
        v = su2_threej(spin_pattern(1, 1), spin_pattern(1, -1),
                       spin_pattern(0, 0))
        assert v.squared() == Fraction(1, 2)

    def test_unit_spin_magnitude(self):
        v = su2_threej(spin_pattern(2, 2), spin_pattern(2, -2),
                       spin_pattern(0, 0))
        assert v.squared() == Fraction(1, 3)

    def test_all_zero_projections_odd_sum(self):
        v = su2_threej(spin_pattern(2, 0), spin_pattern(2, 0),
                       spin_pattern(2, 0))
        assert v.is_zero()

    def test_weight_mismatch_zero(self):
        v = su2_threej(spin_pattern(1, 1), spin_pattern(1, 1),
                       spin_pattern(0, 0))
        assert v.is_zero()

    def test_equals_oracle_small_sweep(self):
        for tj1, tj2, tj3 in itertools.product(range(5), repeat=3):
            if (tj1 + tj2 + tj3) % 2:
                continue
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    tm3 = -tm1 - tm2
                    if abs(tm3) > tj3:
                        continue
                    got = su2_threej(spin_pattern(tj1, tm1),
                                     spin_pattern(tj2, tm2),
                                     spin_pattern(tj3, tm3))
                    want = racah_threej_oracle(
                        Fraction(tj1, 2), Fraction(tm1, 2),
                        Fraction(tj2, 2), Fraction(tm2, 2),
                        Fraction(tj3, 2), Fraction(tm3, 2))
                    assert got == want

    def test_equals_sympy_through_j6(self):
        check = _sympy_check()
        for tj1, tj2, tj3 in itertools.product(range(13), repeat=3):
            if (tj1 + tj2 + tj3) % 2:
                continue
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    tm3 = -tm1 - tm2
                    if abs(tm3) <= tj3:
                        check(tj1, tm1, tj2, tm2, tj3, tm3)

    @pytest.mark.parametrize("tjm", [
        (60, 0, 60, 0, 60, 0), (60, 2, 58, -4, 40, 2),
        (60, 60, 60, -60, 0, 0), (60, -31, 41, 17, 30, 14),
    ])
    def test_equals_sympy_at_j30(self, tjm):
        _sympy_check()(*tjm)

    def test_shifted_labels_reduce(self):
        # [2,1] has spin 1/2; the 3-j only sees the spin content
        a = su2_threej(GelfandPattern([[2, 1], [2]]),
                       spin_pattern(1, -1), spin_pattern(0, 0))
        b = su2_threej(spin_pattern(1, 1), spin_pattern(1, -1),
                       spin_pattern(0, 0))
        assert a == b


class TestWInvariants:
    def test_w1_displayed_form(self):
        y11 = ExactPoly.variable(yvar(3, 1, 1))
        x11 = ExactPoly.variable(xvar(3, 1, 1))
        x22 = ExactPoly.variable(xvar(3, 2, 2))
        y22 = ExactPoly.variable(yvar(3, 2, 2))
        assert w_invariants()[0] == y11 * x22 * xi_invariant(1, 2) + x11 * y22

    def test_w7_three_terms(self):
        w7 = w_invariants()[6]
        # three products, each with a two-monomial invariant factor
        assert len(w7.terms) == 6

    def test_degree_tables(self):
        # per-slot degrees of each invariant match its binary table
        tables = ["101100", "111000", "100011", "110010", "001011",
                  "001110", "101010"]
        for w, word in zip(w_invariants(), tables):
            for m in w.terms:
                for s in range(3):
                    ones = word[2 * s: 2 * s + 2].count("1")
                    d31 = sum(e for v, e in m if v[1] == s + 1 and v[2:] == (3, 1))
                    d32 = sum(e for v, e in m if v[1] == s + 1 and v[2:] == (3, 2))
                    assert d31 == (1 if ones == 1 else 0)
                    assert d32 == (1 if ones == 2 else 0)


class TestKExponents:
    def test_all_equal_gives_zero(self):
        su6 = SU6Indices(h13=2, h24=2, h34=2, h23=2, h33=2, h12=2, h22=2, h11=2)
        assert k_exponents(su6) == (0, 2, 0, 0, 0, 0, 0)

    def test_unit_k1(self):
        su6 = SU6Indices(h13=1, h24=1, h34=1, h23=1, h33=0, h12=1, h22=0, h11=1)
        assert k_exponents(su6) == (1, 0, 0, 0, 0, 0, 0)

    def test_negative_rejected(self):
        su6 = SU6Indices(h13=0, h24=1, h34=0, h23=1, h33=0, h12=1, h22=0, h11=1)
        with pytest.raises(DomainError):
            k_exponents(su6)

    def test_roundtrip_through_pattern_indices(self):
        for labels, rho, expect in [
            (((1, 0, 0), (1, 1, 0), (1, 1, 1)), 1, (1, 0, 0, 0, 0, 0, 0)),
            (((1, 0, 0), (1, 0, 0), (1, 0, 0)), 1, (0, 0, 0, 0, 0, 0, 1)),
            (((2, 1, 0), (2, 1, 0), (2, 1, 0)), 2, (0, 1, 1, 0, 0, 1, 0)),
        ]:
            su6 = triple_to_su6(labels, rho)
            assert k_exponents(su6) == expect

    def test_non_coupling_triple(self):
        with pytest.raises(DomainError):
            triple_to_su6(((1, 0, 0), (1, 0, 0), (2, 0, 0)), 1)

    def test_octet_multiplicity(self):
        table = coupling_table(((2, 1, 0), (2, 1, 0), (2, 1, 0)))
        assert table.rho_count == 2 and table.k3_values == (0, 1)


class TestCharacterMultiplicity:
    """The Weyl-character count of invariants against the seven-generator
    family that `rho_count` counts, on the 4,096 ordered triples of the
    labels (a, b, 0) with 4 >= a >= b >= 0 and (1, 1, 1), split by the sign
    of tot = sum(p) - sum(q)."""

    LABELS = [(a, b, 0) for a in range(5) for b in range(a + 1)] + [(1, 1, 1)]

    def _triples(self, negative: bool):
        return [t for t in itertools.product(self.LABELS, repeat=3)
                if (sum(a - 2 * b + c for a, b, c in t) < 0) == negative]

    @staticmethod
    def _mismatches(triples):
        return [t for t in triples if oracles.su3_multiplicity_character(t)
                != len(coupling._k_family(t))]

    def test_matches_rho_count_where_tot_is_not_negative(self):
        triples = self._triples(negative=False)
        assert len(triples) == 2_272
        assert self._mismatches(triples) == []

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_matches_rho_count_where_tot_is_negative(self):
        # 156 of these triples couple, 3bar x 3bar x 3bar the smallest, but
        # have no family without the eighth invariant
        assert self._mismatches(self._triples(negative=True)) == []


def octet_slot_tables():
    p = GelfandPattern([[2, 1, 0], [2, 1], [2]])
    lr = lr_exponents(p)
    t = (lr.L[(3, 1)], lr.L[(3, 2)], lr.R[(3, 1)], lr.R[(3, 2)])
    return (t, t, t)


class TestIndexSolutions:
    def test_all_zero(self):
        assert index_solutions(((0, 0, 0, 0),) * 3, (0, 0, 0)) == [(0,) * 15]

    def test_inconsistent_inputs_empty(self):
        assert index_solutions(((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
                               (0, 0, 0)) == []

    def test_routes_agree_octet(self):
        tables = octet_slot_tables()
        for p in itertools.product(range(3), repeat=3):
            assert index_solutions_bruteforce(tables, p) == \
                index_solutions_closed(tables, p)

    def test_route_disagreement_is_a_consistency_error(self, monkeypatch):
        monkeypatch.setattr(oracles, "index_solutions_closed",
                            lambda *a: [(1,) * 15])
        with pytest.raises(ConsistencyError) as exc:
            index_solutions(((0, 0, 0, 0),) * 3, (0, 0, 0))
        assert not isinstance(exc.value, ValueError)

    def test_pair_sums_give_k(self):
        tables = octet_slot_tables()
        sols = index_solutions(tables, (1, 1, 1))
        for iv in sols:
            ks = (iv[0] + iv[1], iv[2] + iv[3], iv[4] + iv[5], iv[6] + iv[7],
                  iv[8] + iv[9], iv[10] + iv[11], iv[12] + iv[13] + iv[14])
            assert all(v >= 0 for v in ks)


class TestCouplingTables:
    def test_singlet_values(self):
        table = coupling_table(((1, 0, 0), (1, 1, 0), (1, 1, 1)))
        assert table.rho_count == 1
        vals = sorted(v.text() for v in table.entries.values())
        assert vals == ["-1/1*sqrt(1/3)", "1/1*sqrt(1/3)", "1/1*sqrt(1/3)"]

    def test_identity_coupling_unit_values(self):
        table = coupling_table(((1, 0, 0), (0, 0, 0), (1, 1, 0)))
        assert {abs(v).text() for v in table.entries.values()} == \
            {"1/1*sqrt(1/1)"}

    def test_non_coupling_triple_is_empty(self):
        table = coupling_table(((1, 0, 0), (1, 0, 0), (2, 0, 0)))
        assert table.rho_count == 0 and not table.entries

    def test_wigner_lookup_and_weight_rule(self):
        labels = ((2, 1, 0), (2, 1, 0), (2, 1, 0))
        pats = [enumerate_patterns(IrrepLabel(h)) for h in labels]
        nonzero = 0
        for p1, p2, p3 in itertools.product(*pats):
            v = su3_wigner(labels, (p1, p2, p3), 1)
            ww = tuple(sum(c) for c in zip(weight(p1), weight(p2), weight(p3)))
            if ww != (3, 3, 3):
                assert v.is_zero()
            nonzero += not v.is_zero()
        assert nonzero == 40

    def test_rho_out_of_range(self):
        with pytest.raises(DomainError):
            su3_wigner(((1, 0, 0), (1, 1, 0), (1, 1, 1)),
                       tuple(enumerate_patterns(IrrepLabel(h))[0]
                             for h in ((1, 0, 0), (1, 1, 0), (1, 1, 1))), 2)

    def test_non_integer_entries_are_refused(self):
        # a float entry used to be truncated by int(): 2.5 read as 2
        labels = ((2, 1, 0),) * 3
        with pytest.raises(TypeError):
            su3_wigner(labels, [[[2.5, 1, 0], [1, 1], [1]],
                                [[2, 1, 0], [1, 0], [0]],
                                [[2, 1, 0], [2, 1], [2]]], 2)
        with pytest.raises(TypeError):
            coupling_table(((2.5, 1, 0), (2, 1, 0), (2, 1, 0)))

    @pytest.mark.parametrize("rho", [1.5, 2.0])
    def test_non_integer_rho_is_refused(self, rho):
        # rho = 1.5 used to read an exact zero, and 2.0 the rho = 2 value
        labels = ((2, 1, 0),) * 3
        pats = ([[2, 1, 0], [2, 1], [2]], [[2, 1, 0], [1, 0], [0]],
                [[2, 1, 0], [2, 0], [1]])
        assert su3_wigner(labels, pats, 2).text() == "7/1*sqrt(1/210)"
        assert su3_isoscalar(labels, ((2, 0),) * 3, 2).text() == \
            "-5/1*sqrt(1/35)"
        for read in (lambda: su3_wigner(labels, pats, rho),
                     lambda: coupling_table(labels).value(pats, rho),
                     lambda: su3_isoscalar(labels, ((2, 0),) * 3, rho)):
            with pytest.raises(TypeError):
                read()

    def test_pattern_outside_its_label_is_refused(self):
        labels = ((2, 1, 0),) * 3
        good = [[2, 1, 0], [1, 0], [0]], [[2, 1, 0], [2, 1], [2]]
        with pytest.raises(DomainError,
                           match=r"slot 1: .*\[3, 0, 0\] is not the label"):
            su3_wigner(labels, [[[3, 0, 0], [1, 0], [0]], *good], 1)
        with pytest.raises(DomainError,
                           match=r"slot 2: .*h\[1,3\]=2 >= h\[1,2\]=3"):
            su3_wigner(labels, [good[0], [[2, 1, 0], [3, 1], [1]], good[1]], 1)
        table = coupling_table(labels)
        with pytest.raises(DomainError, match="three patterns"):
            table.value(good, 1)
        with pytest.raises(DomainError, match=r"rho out of range 1\.\.2"):
            table.value([good[0], good[0], good[1]], 3)
        # a valid triple off the weight rule is still an exact zero
        assert table.value([good[0], good[0], good[1]], 1).is_zero()

    def test_triple_that_does_not_couple(self):
        labels = ((1, 0, 0), (1, 0, 0), (1, 1, 0))
        assert coupling_table(labels).rho_count == 0
        pats = tuple(enumerate_patterns(IrrepLabel(h))[0] for h in labels)
        with pytest.raises(DomainError, match="do not couple"):
            su3_wigner(labels, pats, 1)
        with pytest.raises(DomainError, match="do not couple"):
            su3_isoscalar(labels, ((1, 0), (1, 0), (1, 1)), 1)

    @pytest.mark.parametrize("count", [2, 4])
    def test_label_count_is_a_domain_error(self, count):
        # two labels used to raise a bare "not enough values to unpack",
        # four "too many values to unpack"
        labels = [[2, 1, 0]] * count
        pats = [[[2, 1, 0], [2, 1], [2]], [[2, 1, 0], [1, 0], [0]],
                [[2, 1, 0], [2, 0], [1]]]
        for read in (lambda: coupling_table(labels),
                     lambda: su3_wigner(labels, pats, 1)):
            with pytest.raises(DomainError) as exc:
                read()
            assert str(exc.value) == "SU(3) coupling requires three U(3) " \
                                     "labels"

    def test_paths_agree(self):
        labels = ((1, 0, 0), (1, 1, 0), (2, 1, 0))
        pats = [enumerate_patterns(IrrepLabel(h)) for h in labels]
        for p1, p2, p3 in itertools.product(*pats):
            assert su3_wigner_generating(labels, (p1, p2, p3)) == \
                su3_wigner_secondary(labels, (p1, p2, p3))

    @pytest.mark.parametrize("route", [su3_wigner_secondary,
                                       su3_wigner_generating])
    @pytest.mark.parametrize("rho", [0, 3])
    def test_parameter_routes_reject_rho_out_of_range(self, route, rho):
        # 8 x 8 -> 8 has rho in 1..2; rho = 0 used to read rho = 2
        labels = ((2, 1, 0),) * 3
        pats = (GelfandPattern([[2, 1, 0], [2, 1], [2]]),
                GelfandPattern([[2, 1, 0], [1, 0], [0]]),
                GelfandPattern([[2, 1, 0], [2, 0], [1]]))
        with pytest.raises(DomainError, match=r"rho must be in 1\.\.2"):
            route(labels, pats, rho)

    def test_json_round_trip_keeps_k_vectors(self):
        # the labels and k3 values in the JSON give back the k-vectors
        table = coupling_table(((2, 1, 0),) * 3)
        data = table.to_json()
        family = coupling._k_family(data["labels"])
        assert tuple(family[k3] for k3 in data["k3_values"]) == \
            table.k_vectors == ((1, 0, 0, 1, 1, 0, 0), (0, 1, 1, 0, 0, 1, 0))
        assert data["rho_count"] == len(data["k3_values"]) == 2

    def test_csv_deterministic(self):
        t1 = coupling_table(((1, 0, 0), (1, 0, 0), (1, 0, 0))).to_csv()
        t2 = coupling_table(((1, 0, 0), (1, 0, 0), (1, 0, 0))).to_csv()
        assert t1 == t2 and t1.startswith("pattern1,pattern2,pattern3,rho,value")


# sha256 of to_csv(), recorded with the triple-product construction that the
# per-slot contraction replaced; any change to a value, key or order shows.
PINNED_CSV_SHA256 = {
    ((2, 1, 0), (2, 1, 0), (2, 1, 0)):
        "cb2e4ee89a33f81f145d1badc01e5b7e8b2c6bdd91067d0e29beefb290358cfe",
    ((4, 2, 0), (2, 1, 0), (4, 2, 0)):
        "e700d9164cdcae9992e7c327e5293172b0302ff012c93f5d9c56f2a4dfb92211",
    ((4, 2, 0), (4, 2, 0), (4, 2, 0)):
        "3acd57e331f94c9915372258cb9fe2378990b23a1078bea34f7369d29ed421a6",
}


def _check_block_unitary(table) -> int:
    """Assert exact block unitarity and orthogonality of a table: over the
    first two slots, each (rho, third pattern) block has unit norm and
    distinct blocks pair to zero.  Returns the number of blocks."""
    blocks: dict = {}
    for (r1, r2, r3, rho), val in table.entries.items():
        blocks.setdefault((rho, r3), {})[(r1, r2)] = val
    items = sorted(blocks.items())
    for a, (bkey, block) in enumerate(items):
        for ckey, other in items[a:]:
            # sum of q*sqrt(1/m) terms, grouped by square-free m: zero
            # only if every group is
            acc: dict = {}
            for pq, val in block.items():
                if pq in other:
                    prod = val * other[pq]
                    acc[prod.r] = acc.get(prod.r, Fraction(0)) + prod.q
            acc = {r: q for r, q in acc.items() if q}
            expect = {Fraction(1): Fraction(1)} if bkey == ckey else {}
            assert acc == expect, (bkey, ckey)
    return len(blocks)


# Every triple of U(3) labels with h1 <= 2 and h3 = 0 that couples.
_SMALL_COUPLING_TRIPLES = [
    t for t in itertools.product(
        [(h1, h2, 0) for h1 in range(3) for h2 in range(h1 + 1)], repeat=3)
    if coupling._k_family(t)]


_SU3_LABELS_UPTO_27 = ((1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 2, 0), (2, 1, 0),
                       (3, 0, 0), (3, 3, 0), (3, 1, 0), (3, 2, 0), (4, 2, 0))


class TestPinnedTables:
    @pytest.mark.parametrize("labels", list(PINNED_CSV_SHA256))
    def test_csv_digest(self, labels):
        csv = coupling_table(labels).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == \
            PINNED_CSV_SHA256[labels]

    def test_every_table_of_the_ten_small_labels(self):
        # to_csv, rho_count and k3_values of each of the 183 coupled triples
        # over the ten SU(3) labels of dimension <= 27, in product order;
        # the digest was taken before invariants were expanded in packed
        # exponents
        digest = hashlib.sha256()
        count = 0
        for labels in itertools.product(_SU3_LABELS_UPTO_27, repeat=3):
            if not coupling._k_family(labels):
                continue
            table = coupling_table(labels)
            digest.update(f"{labels}|{table.rho_count}|{table.k3_values}\n"
                          .encode())
            digest.update(table.to_csv().encode())
            count += 1
        assert (count, digest.hexdigest()) == (
            183,
            "09e3ab459f8407ab7c2015e11cc8836e58b7d8023fc4676e2489267d4c25fbbe")

    def test_non_integer_basis_coefficient_is_refused(self, monkeypatch):
        # the integer ring itself refuses the rational scalar
        raw = coupling._branch_poly
        monkeypatch.setattr(coupling, "_branch_poly",
                            lambda p: raw(p) * Fraction(1, 2))
        with pytest.raises(TypeError, match="coefficients are int"):
            # uncached, so the patched basis is used
            coupling._table_cached.__wrapped__((1, 0, 0), (1, 1, 0),
                                               (1, 1, 1))

    def test_bases_and_invariants_have_int_coefficients(self):
        # every U(4) basis with h1 <= 2, and the invariants of 8x8->8
        for h in itertools.combinations_with_replacement(range(2, -1, -1), 4):
            for p in enumerate_patterns(IrrepLabel(h)):
                b = basis_from_branching(p)
                assert type(b.norm_sq) is int, p
                assert all(type(c) is int for c in b.poly.terms.values()), p
        labels = (IrrepLabel((2, 1, 0)),) * 3
        family = coupling._k_family(labels)
        assert len(family) == 2
        for k in family.values():
            layout, terms = coupling._invariant_z(k, labels)
            assert layout.variables == coupling._SLOT_VARS
            assert all(type(m) is int and type(c) is int
                       for m, c in terms.items()), k

    def test_projection_above_the_field_bound_is_skipped(self):
        # a slot monomial whose exponent outgrows its field would, packed
        # naively, carry into the neighbouring field and match an invariant
        # term it is not; the contraction must drop it instead
        labels = (IrrepLabel((2, 1, 0)),) * 3
        layout, terms = coupling._invariant_z(
            coupling._k_family(labels)[0], labels)
        lo, hi = zvar(1, 1, 1), zvar(1, 2, 1)
        if sys.byteorder == "big":
            lo, hi = hi, lo
        key, c = next((key, c) for key, c in terms.items()
                      if layout.exponents(key)[layout.variables.index(hi)])
        mono = [(v, e) for v, e in zip(layout.variables,
                                       layout.exponents(key)) if e]
        parts = [tuple(t for t in mono if t[0][1] == s) for s in (1, 2, 3)]
        exps = dict(parts[0])
        exps[lo] = exps.get(lo, 0) + 2 ** layout.width
        exps[hi] -= 1
        spilled = mono_from_map(exps)
        def naive(m):
            return sum(e << layout._shifts[layout.variables.index(v)]
                       for v, e in m)
        assert naive(spilled) == naive(parts[0])
        assert layout.pack(spilled) is None
        proj = [{u: [(0, 1)]} for u in parts]
        assert coupling._contract((layout, {key: c}), proj) == {0: c}
        proj[0] = {spilled: [(0, 1)]}
        assert coupling._contract((layout, {key: c}), proj) == {}

    def test_27x27_to_27_block_unitary(self):
        labels = ((4, 2, 0),) * 3
        table = coupling_table(labels)
        assert table.rho_count == 3
        assert _check_block_unitary(table) == 3 * 27

    @given(st.sampled_from(_SMALL_COUPLING_TRIPLES))
    @settings(deadline=None)
    def test_small_tables_block_unitary(self, labels):
        table = coupling_table(labels)
        assert _check_block_unitary(table) == \
            table.rho_count * weyl_dimension(labels[2])


# The four tables that the su3-query benchmark reads, then the `su3`
# selftest triples.
_ISOSCALAR_TRIPLES = (
    ((2, 1, 0), (2, 1, 0), (2, 1, 0)),
    ((2, 1, 0), (2, 1, 0), (4, 2, 0)),
    ((1, 0, 0), (2, 1, 0), (2, 2, 0)),
    ((2, 0, 0), (2, 1, 0), (3, 2, 0)),
    ((1, 0, 0), (1, 0, 0), (1, 0, 0)),
    ((1, 0, 0), (1, 0, 0), (2, 2, 0)),
    ((1, 0, 0), (1, 1, 0), (1, 1, 1)),
    ((1, 0, 0), (1, 1, 0), (2, 1, 0)),
)


class TestIsoscalars:
    def test_every_read_of_the_pinned_triples(self):
        # every (middle rows, rho) of each triple, undefined reads included,
        # pinned by one digest of the value texts
        lines = []
        for t in _ISOSCALAR_TRIPLES:
            middles = [sorted({p.rows[1] for p in enumerate_patterns(h)},
                              reverse=True) for h in t]
            for rows in itertools.product(*middles):
                for rho in range(1, coupling_table(t).rho_count + 1):
                    try:
                        v = su3_isoscalar(t, rows, rho).text()
                    except IsoscalarUndefined:
                        v = "undefined"
                    lines.append(f"{t} {rows} {rho} {v}")
        assert len(lines) == 312
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "be4e2771928c60604d75a8bd678a36053acf88b0c7dae548811086d50da6f29f")

    def test_a_read_builds_no_pattern(self, monkeypatch):
        # rows are checked once; the scan works on integers and calls
        # neither the pattern constructor nor su2_threej
        labels = ((2, 1, 0),) * 3
        expect = su3_isoscalar(labels, ((2, 0),) * 3, 2)
        built = []
        init = GelfandPattern.__init__

        def counted(self, rows):
            built.append(rows)
            init(self, rows)

        def su2_threej(*pats):
            raise AssertionError("su2_threej called")

        monkeypatch.setattr(GelfandPattern, "__init__", counted)
        monkeypatch.setattr(coupling, "su2_threej", su2_threej)
        assert su3_isoscalar(labels, ((2, 0),) * 3, 2) == expect
        assert built == []
        GelfandPattern([[1, 0], [1]])
        assert built == [[[1, 0], [1]]]

    def test_equals_the_ratio_of_every_nonzero_row(self):
        # every (middle rows, rho) of the 183 coupled triples over the ten
        # labels of dimension <= 27 reads what the scan it replaced read:
        # the SqrtRational ratio of the entry to su2_threej on every bottom
        # row with a nonzero 3-j, one distinct ratio
        threej = {}

        def su2(tjm):
            if tjm not in threej:
                threej[tjm] = su2_threej(*(spin_pattern(tj, tm)
                                           for tj, tm in tjm))
            return threej[tjm]

        reads = undefined = 0
        for labels in itertools.product(_SU3_LABELS_UPTO_27, repeat=3):
            if not coupling._k_family(labels):
                continue
            table = coupling_table(labels)
            middles = [sorted({p.rows[1] for p in enumerate_patterns(h)})
                       for h in labels]
            for rows, rho in itertools.product(
                    itertools.product(*middles),
                    range(1, table.rho_count + 1)):
                ratios = set()
                for bots in itertools.product(*(range(lo, hi + 1)
                                                for hi, lo in rows)):
                    tj = su2(tuple((hi - lo, 2 * b - hi - lo)
                                   for (hi, lo), b in zip(rows, bots)))
                    if not tj.is_zero():
                        key = tuple((h, r, (b,))
                                    for h, r, b in zip(labels, rows, bots))
                        ratios.add(table.entries.get(
                            key + (rho,), SqrtRational(0)) / tj)
                assert len(ratios) <= 1, (labels, rows, rho)
                reads += 1
                if ratios:
                    assert su3_isoscalar(labels, rows, rho) == ratios.pop()
                else:
                    undefined += 1
                    with pytest.raises(IsoscalarUndefined):
                        su3_isoscalar(labels, rows, rho)
        assert (reads, undefined) == (23030, 14195)

    def test_the_3j_is_read_once_on_each_balanced_row(self, monkeypatch):
        # the scan evaluates the 3-j parts on the bottom rows whose doubled
        # m sum to zero, each once, and on no other row
        seen = []
        parts = coupling._threej_parts

        def counted(tjm):
            seen.append(tuple(tjm))
            return parts(tjm)

        monkeypatch.setattr(coupling, "_threej_parts", counted)
        for t in _ISOSCALAR_TRIPLES:
            if not coupling_table(t).rho_count:
                continue
            middles = [sorted({p.rows[1] for p in enumerate_patterns(h)})
                       for h in t]
            for rows in itertools.product(*middles):
                balanced = [
                    tjm for tjm in itertools.product(*(
                        [(hi - lo, 2 * b - hi - lo) for b in range(lo, hi + 1)]
                        for hi, lo in rows))
                    if sum(tm for _, tm in tjm) == 0]
                seen.clear()
                try:
                    su3_isoscalar(t, rows, 1)
                except IsoscalarUndefined:
                    pass
                assert seen == balanced, (t, rows)

    @pytest.mark.parametrize("rows, lengths", [
        (((2, 0),) * 4, "[2, 2, 2, 2]"), (((2, 0, 0), (2, 0), (2, 0)),
                                          "[3, 2, 2]"),
        (((2,), (2, 0), (2, 0)), "[1, 2, 2]"), (((2, 0), (2, 0)), "[2, 2]")])
    def test_rows_of_the_wrong_shape_are_refused(self, rows, lengths):
        # a fourth row used to be ignored, and the other shapes raised bare
        # unpacking or index errors
        with pytest.raises(StructureError) as exc:
            su3_isoscalar(((2, 1, 0),) * 3, rows, 1)
        assert str(exc.value) == ("expected three middle rows of two "
                                  f"entries, got rows of lengths {lengths}")

    def test_trivial_coupling(self):
        v = su3_isoscalar(((0, 0, 0),) * 3, ((0, 0), (0, 0), (0, 0)), 1)
        assert v == SqrtRational(1)

    def test_singlet_value(self):
        v = su3_isoscalar(((1, 0, 0), (1, 1, 0), (1, 1, 1)),
                          ((1, 0), (1, 0), (1, 1)), 1)
        assert v.squared() == Fraction(2, 3)

    def test_bottom_row_independence_is_checked(self):
        # the call itself scans every m-balanced bottom-row combination
        labels = ((2, 1, 0), (2, 1, 0), (2, 1, 0))
        v1 = su3_isoscalar(labels, ((2, 0), (2, 0), (2, 0)), 1)
        v2 = su3_isoscalar(labels, ((2, 0), (2, 0), (2, 0)), 2)
        assert v1.squared() == Fraction(9, 7)
        assert v2.squared() == Fraction(25, 35)

    def test_undefined_signaled(self):
        # three spin-1/2 rows make every embedded 3-j vanish (half-integral
        # total spin)
        labels = ((2, 1, 0), (2, 1, 0), (2, 1, 0))
        with pytest.raises(IsoscalarUndefined):
            su3_isoscalar(labels, ((2, 1), (2, 1), (1, 0)), 1)

    def test_bottom_row_dependence_is_a_consistency_error(self, monkeypatch):
        # a 3-j of 1, 2, 3, ... on successive rows makes the ratio depend on
        # the bottom row
        calls = iter(range(1, 100))
        monkeypatch.setattr(coupling, "_threej_parts",
                            lambda tjm: (next(calls), 1, 1))
        with pytest.raises(ConsistencyError):
            su3_isoscalar(((2, 1, 0),) * 3, ((2, 0), (2, 0), (2, 0)), 1)

    def test_invalid_row_rejected(self):
        with pytest.raises(DomainError):
            su3_isoscalar(((2, 1, 0),) * 3, ((2, 2), (2, 1), (2, 1)), 1)
        with pytest.raises(DomainError, match=r"row \(3, 0\) violates branching "
                                              r"under \[2, 1, 0\]: h\[1,3\]=2 "
                                              r">= h\[1,2\]=3 >= h\[2,3\]=1"):
            su3_isoscalar(((2, 1, 0),) * 3, ((3, 0), (2, 0), (2, 0)), 1)
        with pytest.raises(TypeError):
            su3_isoscalar(((2, 1, 0),) * 3, ((1.5, 0), (1, 0), (1, 1)), 1)

    @pytest.mark.parametrize("labels, rows, message", [
        (((6, 3, 0),) * 3, ((7, 0), (3, 0), (3, 0)),
         r"row \(7, 0\) violates branching under \[6, 3, 0\]: "
         r"h\[1,3\]=6 >= h\[1,2\]=7 >= h\[2,3\]=3"),
        (((2, 1, 0),) * 3, ((2, 0), (2, 0), (2, 2)),
         r"row \(2, 2\) violates branching under \[2, 1, 0\]"),
        (((2, 1),) * 3, ((2, 0),) * 3, r"three U\(3\) labels"),
        (((2, 1, 0),) * 2, ((2, 0),) * 3, r"three U\(3\) labels"),
        (((2, 1, 0),) * 4, ((2, 0),) * 3, r"three U\(3\) labels")])
    def test_inputs_are_refused_before_the_table_is_built(
            self, monkeypatch, labels, rows, message):
        # a bad row under 6,3,0 used to be refused only after the 4.9 s
        # build of the 28*28*28 table
        def build(*args):
            raise AssertionError("table build started")

        monkeypatch.setattr(coupling, "_table_cached", build)
        with pytest.raises(DomainError, match=message):
            su3_isoscalar(labels, rows, 1)
