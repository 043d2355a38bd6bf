"""Exact Gel'fand-Tsetlin pattern combinatorics, boson polynomial bases of
the unitary groups U(2)-U(4), and SU(2)/SU(3) coupling coefficients with
multiplicity, all in exact rational / quadratic-surd arithmetic."""

__version__ = "0.1.0"

from .gelfand import (
    ConsistencyError,
    DomainError,
    GelfandPattern,
    IrrepLabel,
    StructureError,
    enumerate_patterns,
    lr_exponents,
    pattern_phi,
    weight,
    weyl_dimension,
)
from .polyengine import (
    ExactPoly,
    SqrtRational,
    bargmann_inner,
    minor,
    symbolic_matrix,
)
from .basisgen import (
    BasisPolynomial,
    basis_from_branching,
    p_n_1,
    u3_basis_closed,
    u4_basis_closed,
)
from .coupling import (
    CouplingTable,
    IsoscalarUndefined,
    coupling_table,
    su2_threej,
    su3_isoscalar,
    su3_wigner,
)
