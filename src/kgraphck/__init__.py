"""Path combinatorics and finite-dimensional Cuntz-Krieger representations
of finite higher-rank graphs."""

__version__ = "0.1.0"

from .degree import Degree
from .kgraph import (
    Edge,
    KGraph,
    Path,
    SkeletonSpec,
    compose,
    segment,
    validate,
)
from .alignment import MinPair, PathFamily, ext, family, lambda_min, mce, pairs_ds, pi_closure
from .exhaustive import ExhaustiveVerdict, Status, fe_enumerate, is_exhaustive, minimal_exhaustive
from .satiation import (
    FamilyCollection,
    Membership,
    full_fe_collection,
    is_satiated,
    member,
    satiate,
    sigma1,
    sigma2,
    sigma3,
    sigma4,
)
from .boundary import (
    aperiodicity_counterexample,
    boundary_path,
    boundary_paths,
    condition_c,
    construct_boundary,
    extend,
    is_aperiodic_path,
    is_boundary,
    is_boundary_windowed,
    omega,
    position,
    position_inverse,
    restrict,
    separation_degree,
)
from .formal import FormalElement, formal_mul, formal_star, gauge_expectation
from .matrices import PartialInjection, SparseMatrix
from .repn import (
    CKFamily,
    UniquenessHypotheses,
    boundary_rep,
    check_uniqueness_hypotheses,
    evaluate,
    expectation_contraction_check,
    faithful_on_core_check,
    formal_theta,
    gap_product,
    gap_vanishing,
    gauge_grid,
    gauge_unitary_check,
    matrix_unit_check,
    nonzero_theta_pattern,
    sampled_gauge_average,
    shift_gaps_check,
    theta,
    verify_family,
)
