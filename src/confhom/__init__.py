"""Mod-p homology of planar configuration spaces, the BV operator on it,
circle- and rotation-equivariant homology, and the homology of braid-group
central quotients with sign coefficients, all by exact enumeration and
F_p linear algebra."""

from .algebra import (
    Element,
    Generator,
    Monomial,
    ONE,
    Prime,
    alpha_gen,
    as_prime,
    beta_gen,
    iota,
    monomial_mul,
    q_iota,
    sphere_bq,
    sphere_q,
    u_class,
)
from .brackets import (
    BasicBracket,
    LabelClass,
    bracket_as_generator,
    bracket_of,
    bracket_sort_key,
    cohen_generators,
    enumerate_basic_brackets,
    is_basic,
    is_hall,
    leaf,
)
from .bv import (
    EquivariantAnswer,
    REGIME_COKER_DELTA,
    REGIME_TENSOR_BS1,
    collapse_total_degree,
    default_degree_bound,
    delta,
    delta_element,
    delta_matrix,
    equivariant_s1,
    equivariant_zp,
    gravity_op_degree,
    serre_e3,
)
from .catalog import (
    SpaceSpec,
    UnsupportedCaseError,
    fixed_point_total_dim,
    generators_for,
    plane_config_generators,
    punctured_plane_basis,
    sphere_labelled_generators,
)
from .enumeration import (
    BigradedDims,
    GradedDims,
    monomial_basis,
    poincare,
    series_coefficient,
    series_table,
    total_dim,
)
from .identities import (
    InvariantViolation,
    MonomialForm,
    SOURCE_WEIGHT_PQ,
    SOURCE_WEIGHT_Q_PLUS_1,
    bijection_image,
    classify_monomial,
    verify_bijection,
    verify_dimension_identity,
)
from .linalg import FpMatrix, rank_kernel_image
from .reports import VerifyReport
from .signhom import (
    shifted_weight_slice,
    sign_rep_homology,
    trivial_rep_homology_p2,
    verify_q_stability,
)
from .verify import run_verifications

__version__ = "0.1.0"
