"""Exact Gel'fand-Tsetlin pattern combinatorics, boson polynomial bases of
the unitary groups U(2)-U(4), and SU(2)/SU(3) coupling coefficients with
multiplicity, all in exact rational / quadratic-surd arithmetic."""

__version__ = "0.1.0"

from .gelfand import (
    BinaryWord,
    ComplementIsVacuum,
    ConsistencyError,
    DomainError,
    GelfandPattern,
    IrrepLabel,
    StructureError,
    complement,
    enumerate_fundamental_words,
    enumerate_patterns,
    lr_exponents,
    max_pattern,
    min_pattern,
    pattern_phi,
    phi_monomial,
    physics_labels,
    semimax_pattern,
    validate_pattern,
    weight,
    weyl_dimension,
)
from .polyengine import (
    ExactPoly,
    GaussianRational,
    SqrtRational,
    bargmann_inner,
    diagonal_degrees,
    minor,
    symbolic_matrix,
)
from .basisgen import (
    BasisPolynomial,
    basis_from_branching,
    branching_kernel,
    const_A,
    const_branching_ratio,
    d_semimax_eval,
    norm_sq_semimax,
    norm_sq_u2,
    norm_sq_u3,
    p_n_1,
    u2_basis_closed,
    u3_basis_closed,
    u4_basis_closed,
)
from .coupling import (
    CouplingTable,
    IsoscalarUndefined,
    coupling_table,
    racah_threej_oracle,
    su2_threej,
    su3_isoscalar,
    su3_wigner,
    w_invariants,
    xi_invariant,
)
