"""The public surface: the names `import ibap` exposes, so that adding or
removing one is a deliberate change of this list."""

import types

import ibap

PUBLIC_NAMES = {
    # angles
    "angle_identity_gap", "cos_friedrichs", "projector_product_norm",
    # applications
    "HypothesisError", "MaskedSignalProblem", "SlowFamilySpec", "dft", "dft_matrix",
    "recover_with_measurements", "slow_family", "solve_moments", "solve_operator_system",
    "time_frequency_recover", "worst_aligned_start",
    # family
    "BiorthogonalReport", "Family",
    "IbapFailureError", "IbapReport", "InfeasibilityCertificate", "InfeasiblePrescriptionError",
    "LevelCertificate", "PairBound", "biorthogonal_bounds", "check_independence",
    "dependent_tuple", "infeasibility_certificate", "trailing_sums",
    "uniqueness_check", "validate_prescription", "verify_ibap",
    # solvers
    "AffineConstraint", "ConvergenceTrace", "SolveOptions", "affine_project",
    "best_approximation", "direct_solve", "extend_min_norm",
    "prescription_residual", "rate_bound", "solve_min_norm", "solve_two",
    # subspaces
    "COMPLEX", "MEMBERSHIP_RTOL", "ORTHONORMALITY_TOL", "REAL", "Subspace", "add",
    "as_field_vector", "field_dtype", "inner", "intersect",
}


def test_the_package_exposes_exactly_its_public_names():
    names = {name for name, value in vars(ibap).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES


def test_the_convergence_trace_is_a_named_tuple_of_its_columns():
    trace = ibap.ConvergenceTrace(residuals=(0.5, 0.25), distances=None, alpha=0.5,
                                  initial_distance=1.0, converged=True)
    assert isinstance(trace, tuple) and trace._fields == (
        "residuals", "distances", "alpha", "initial_distance", "converged")
    assert repr(trace) == ("ConvergenceTrace(residuals=(0.5, 0.25), distances=None, alpha=0.5, "
                           "initial_distance=1.0, converged=True)")
    assert (trace.sweeps, trace.bounds) == (2, [0.5, 0.25])
