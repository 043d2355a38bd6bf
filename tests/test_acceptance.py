"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance); each test prints a single PASS/FAIL
line for its criterion (run with `pytest -s` to see them as they complete).
Each criterion's number of checks is pinned, so a suite cannot drop checks
and still pass.
"""

from gtboson import selftest


def _criterion(number, description, result, checks):
    print(f"ACCEPTANCE {number} [{description}]: {result.line()}")
    assert result.ok, result.detail
    assert result.checks == checks


def test_criterion_1_dimension_enumeration():
    _criterion(1, "pattern count equals Weyl dimension, n<=5 h1<=4",
               selftest.suite_dimensions(), 251)


def test_criterion_2_generating_function_fixtures():
    _criterion(2, "word monomials reproduce the closed generating functions",
               selftest.suite_generating_function(), 53)


def test_criterion_3_orthonormality_and_norms():
    _criterion(3, "exact orthonormality and closed norm formulas",
               selftest.suite_orthonormality(), 707)


def test_criterion_4_closed_forms_vs_oracle():
    _criterion(4, "closed U(3)/U(4) forms equal branching extraction",
               selftest.suite_closed_forms(), 40)


def test_criterion_5_pn1_closed_vs_bruteforce():
    _criterion(5, "evaluation factors equal brute-force expansion",
               selftest.suite_pn1(), 193_110)


def test_criterion_6_u4_free_indices():
    _criterion(6, "U(4) constraint system leaves exactly five free indices",
               selftest.suite_u4_free_indices(), 125)


def test_criterion_7_su2_threej():
    _criterion(7, "generating-function 3-j equals Racah oracle, j<=3",
               selftest.suite_su2_threej(), 2_510)


def test_criterion_8_su3_coupling():
    _criterion(8, "SU(3) tables unitary; dual paths agree; isoscalars factor",
               selftest.suite_su3_coupling(), 1_479)


def test_criterion_9_kernel_identity():
    _criterion(9, "reproducing-kernel identity for U(2), degree <= 3",
               selftest.suite_kernel_identity(), 9)
