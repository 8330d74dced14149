"""emsum: exact Euler-Maclaurin expansions of Riemann sums over lattice
polytopes.

The package computes, in exact rational arithmetic, the coefficients A_n of
the asymptotic expansion

    R_N(P; phi) = N^{-dim P} * sum_{gamma in NP cap Z^m} phi(gamma / N)
                ~ A_0 + A_1 / N + A_2 / N^2 + ...

for a full-dimensional lattice polytope P and a polynomial phi, via
Berline-Vergne-type differential operators attached to the transverse cones
of the faces of P, and cross-checks them against a brute-force lattice point
oracle.
"""

from .combinat import (
    J_mu,
    c_seq,
    c_seq_twisted,
    p_poly,
    p_scalar,
)
from .conecalc import (
    DiffOp,
    UniCone,
    bv_op_unimodular,
    divide_by_linear_form,
    ibp_op,
    ibp_symbol,
    ln_op,
    vertex_op,
)
from .engine import (
    ExpansionResult,
    closed_form_2d,
    closed_form_A0_A1,
    closed_form_A2,
    expansion,
)
from .exactcore import (
    CycloElem,
    MultiPoly,
    as_matrix,
    as_scalar,
    as_vector,
    cyclotomic_polynomial,
    orth_project,
    saturation_basis,
    series_coeffs_todd,
    series_coeffs_twisted_todd,
)
from .geometry import (
    Face,
    LatticePolytope,
    PointedConeT,
    build_polytope,
    euler_brion_window_check,
    integrate_poly_over_face,
    is_delzant,
    transverse_cone,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    WeightedEhrhart,
    coefficients_from_oracle,
    riemann_sum,
    szasz_eval,
    weighted_ehrhart,
)
from .subdivide import (
    SignedCell,
    bv_op_pointed,
    cone_operator,
    signed_coefficients,
    triangulate_cone,
    unimodularize,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CycloElem",
    "DEFAULT_BUDGET",
    "DiffOp",
    "ExpansionResult",
    "Face",
    "J_mu",
    "LatticePolytope",
    "MultiPoly",
    "PointedConeT",
    "SignedCell",
    "UniCone",
    "WeightedEhrhart",
    "as_matrix",
    "as_scalar",
    "as_vector",
    "build_polytope",
    "bv_op_pointed",
    "bv_op_unimodular",
    "c_seq",
    "c_seq_twisted",
    "closed_form_2d",
    "closed_form_A0_A1",
    "closed_form_A2",
    "coefficients_from_oracle",
    "cone_operator",
    "cyclotomic_polynomial",
    "divide_by_linear_form",
    "euler_brion_window_check",
    "expansion",
    "ibp_op",
    "ibp_symbol",
    "integrate_poly_over_face",
    "is_delzant",
    "ln_op",
    "orth_project",
    "p_poly",
    "p_scalar",
    "riemann_sum",
    "saturation_basis",
    "series_coeffs_todd",
    "series_coeffs_twisted_todd",
    "signed_coefficients",
    "szasz_eval",
    "transverse_cone",
    "triangulate_cone",
    "unimodularize",
    "vertex_op",
    "weighted_ehrhart",
    "__version__",
]
