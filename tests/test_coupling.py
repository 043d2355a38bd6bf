import hashlib
import itertools
from fractions import Fraction

import pytest

from gtboson.coupling import (
    CouplingTable,
    InvariantSpec,
    IsoscalarUndefined,
    SU6Indices,
    conjugate_label,
    coupling_table,
    index_solutions,
    index_solutions_bruteforce,
    index_solutions_closed,
    k_exponents,
    racah_threej_oracle,
    su2_threej,
    su3_isoscalar,
    su3_wigner,
    su3_wigner_generating,
    su3_wigner_secondary,
    triple_to_su6,
    w_invariants,
    xi_invariant,
)
from gtboson import coupling
from gtboson.gelfand import (
    ConsistencyError,
    DomainError,
    GelfandPattern,
    IrrepLabel,
    enumerate_patterns,
    lr_exponents,
    weight,
)
from gtboson.polyengine import ExactPoly, SqrtRational, xvar, yvar


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
        assert k_exponents(su6).exponents == (0, 2, 0, 0, 0, 0, 0)

    def test_unit_k1(self):
        su6 = SU6Indices(h13=1, h24=1, h34=1, h23=1, h33=0, h12=1, h22=0, h11=1)
        assert k_exponents(su6).exponents == (1, 0, 0, 0, 0, 0, 0)

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
            assert k_exponents(su6).exponents == expect

    def test_non_coupling_triple(self):
        with pytest.raises(DomainError):
            triple_to_su6(((1, 0, 0), (1, 0, 0), (2, 0, 0)), 1)

    def test_octet_multiplicity(self):
        table = coupling_table(((2, 1, 0), (2, 1, 0), (2, 1, 0)))
        assert table.rho_count == 2 and table.k3_values == (0, 1)


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
        monkeypatch.setattr(coupling, "index_solutions_closed",
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

    def test_json_round_trip(self):
        table = coupling_table(((1, 0, 0), (1, 1, 0), (1, 1, 1)))
        back = CouplingTable.from_json(table.to_json())
        assert back.entries == table.entries
        assert back.rho_count == table.rho_count

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


class TestPinnedTables:
    @pytest.mark.parametrize("labels", list(PINNED_CSV_SHA256))
    def test_csv_digest(self, labels):
        csv = coupling_table(labels).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == \
            PINNED_CSV_SHA256[labels]

    def test_non_integer_basis_coefficient_is_refused(self, monkeypatch):
        raw = coupling._raw_basis
        monkeypatch.setattr(coupling, "_raw_basis",
                            lambda rows: (raw(rows)[0] * Fraction(1, 2),
                                          raw(rows)[1]))
        with pytest.raises(ConsistencyError, match="not an integer"):
            # uncached, so the patched basis is used
            coupling._table_cached.__wrapped__((1, 0, 0), (1, 1, 0),
                                               (1, 1, 1))

    def test_27x27_to_27_block_unitary(self):
        labels = ((4, 2, 0),) * 3
        table = coupling_table(labels)
        assert table.rho_count == 3
        blocks: dict = {}
        for (r1, r2, r3, rho), val in table.entries.items():
            blocks.setdefault((rho, r3), {})[(r1, r2)] = val
        assert len(blocks) == 3 * 27
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


class TestIsoscalars:
    def test_trivial_coupling(self):
        v = su3_isoscalar(((0, 0, 0),) * 3, ((0, 0), (0, 0), (0, 0)), 1)
        assert v == SqrtRational.one()

    def test_singlet_value(self):
        v = su3_isoscalar(((1, 0, 0), (1, 1, 0), (1, 1, 1)),
                          ((1, 0), (1, 0), (1, 1)), 1)
        assert v.squared() == Fraction(2, 3)

    def test_bottom_row_independence_is_checked(self):
        # the call itself scans every bottom-row combination
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
        calls = iter(range(1, 100))
        monkeypatch.setattr(coupling, "su2_threej",
                            lambda *p: SqrtRational(next(calls)))
        with pytest.raises(ConsistencyError):
            su3_isoscalar(((2, 1, 0),) * 3, ((2, 0), (2, 0), (2, 0)), 1)

    def test_invalid_row_rejected(self):
        with pytest.raises(DomainError):
            su3_isoscalar(((2, 1, 0),) * 3, ((2, 2), (2, 1), (2, 1)), 1)


class TestConjugateLabel:
    def test_fundamental(self):
        assert conjugate_label([1, 0, 0]).h == (1, 1, 0)

    def test_octet_self_conjugate(self):
        assert conjugate_label([2, 1, 0]).h == (2, 1, 0)
