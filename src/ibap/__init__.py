"""Inverse best approximation property for finite subspace families.

Decide whether every prescription of best approximations from a family
of subspaces is attainable, produce the geometric certificates behind
that decision, and compute minimal-norm and best-approximation solutions
of the resulting prescribed-projection problems, directly or by periodic
projections with an a-priori linear rate bound.

The public API is the set of names imported below.
"""

from .angles import (
    angle_identity_gap,
    cos_friedrichs,
    projector_product_norm,
)
from .applications import (
    HypothesisError,
    MaskedSignalProblem,
    SlowFamilySpec,
    dft,
    dft_matrix,
    idft,
    recover_with_measurements,
    slow_convergence_demo,
    slow_family,
    solve_moments,
    solve_operator_system,
    time_frequency_recover,
    worst_aligned_start,
)
from .family import (
    BiorthogonalReport,
    DependentFamilyError,
    Family,
    FEASIBILITY_RTOL,
    IbapFailureError,
    IbapReport,
    InfeasibilityCertificate,
    InfeasiblePrescriptionError,
    LevelCertificate,
    PairBound,
    biorthogonal_bounds,
    check_independence,
    dependent_tuple,
    epsilon_solve,
    infeasibility_certificate,
    trailing_sums,
    uniqueness_check,
    validate_prescription,
    verify_ibap,
)
from .solvers import (
    AffineConstraint,
    ConvergenceTrace,
    IterationRecord,
    SolutionSet,
    SolveOptions,
    affine_project,
    best_approximation,
    direct_solve,
    extend_min_norm,
    min_norm_stages,
    prescription_residual,
    rate_bound,
    solve_min_norm,
    solve_two,
)
from .subspaces import (
    COMPLEX,
    MEMBERSHIP_RTOL,
    ORTHONORMALITY_TOL,
    REAL,
    Subspace,
    add,
    as_field_vector,
    field_dtype,
    inner,
    intersect,
)

__version__ = "0.1.0"
