"""Closed forms, the minimal-norm recursion, the direct solver, and the
periodic projection iteration with its rate bound."""

import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ibap import (
    AffineConstraint,
    Family,
    IbapFailureError,
    InfeasiblePrescriptionError,
    SlowFamilySpec,
    SolveOptions,
    Subspace,
    affine_project,
    best_approximation,
    check_independence,
    direct_solve,
    extend_min_norm,
    min_norm_stages,
    prescription_residual,
    rate_bound,
    slow_family,
    solve_min_norm,
    solve_two,
    validate_prescription,
    verify_ibap,
    worst_aligned_start,
)
from ibap.angles import _pair
from ibap.family import _stages
from ibap.solvers import _BLOCK, _FLOOR, _MAX_BLOCK, _sweep_map

from conftest import (
    FIELDS,
    dependent_family_with_witness,
    random_family,
    random_independent_dims,
    random_orthogonal_family,
    random_prescription,
    random_subspace,
    random_unit,
    rng_for,
)
from oracles import (
    complement_product_radius,
    constraint_from_affine_set,
    neumann_inverse,
    one_map_iteration,
    parallel_subspace,
    pinv_min_norm,
    reference_iteration,
    slow_trace,
    svd_min_norm,
    zero_subspace,
)


def line(*coords):
    v = np.asarray(coords, dtype=float)
    return Subspace.from_spanning([v / np.linalg.norm(v)], len(coords))


def axes_family(n):
    eye = np.eye(n)
    return Family(tuple(Subspace.from_spanning([eye[:, i]], n) for i in range(n)))


class TestAffineProject:
    def test_point_already_on_the_affine_set_is_fixed(self):
        u = line(1, 0)
        c = AffineConstraint(u, np.array([5.0, 0.0]))
        x = np.array([5.0, -3.0])  # projects to (5, 0) already
        assert np.allclose(affine_project(c, x), x, atol=1e-14)

    def test_zero_point_reduces_to_complement_projection(self):
        rng = rng_for(700)
        u = random_subspace(rng, 6, 2)
        c = AffineConstraint(u, np.zeros(6))
        x = random_unit(rng, 6)
        assert np.allclose(affine_project(c, x), x - u.project(x), atol=1e-14)

    def test_plane_example_matches_hand_value(self):
        u = line(1, 0)
        c = AffineConstraint(u, np.array([5.0, 0.0]))
        got = affine_project(c, np.array([1.0, 2.0]))
        assert np.allclose(got, [5.0, 2.0], atol=1e-14)
        # pseudoinverse oracle on the affine system B^H y = B^H u
        a = u.basis.conj().T
        x = np.array([1.0, 2.0])
        correction = np.linalg.pinv(a) @ (a @ x - a @ np.array([5.0, 0.0]))
        assert np.allclose(x - correction, got, atol=1e-12)

    def test_membership_of_the_result(self):
        rng = rng_for(701)
        for _ in range(20):
            u = random_subspace(rng, 7, 3)
            point = u.project(random_unit(rng, 7) * 2)
            c = AffineConstraint(u, point)
            x = random_unit(rng, 7) * 3
            r = affine_project(c, x)
            assert np.linalg.norm(u.project(r) - point) <= 1e-10
            assert np.linalg.norm(u.project(r - x) - (r - x)) <= 1e-10  # r - x in U

    def test_idempotent_and_nonexpansive(self):
        rng = rng_for(702)
        for _ in range(20):
            u = random_subspace(rng, 8, int(rng.integers(1, 8)))
            point = u.project(random_unit(rng, 8))
            c = AffineConstraint(u, point)
            x = random_unit(rng, 8) * 4
            y = random_unit(rng, 8) * 4
            qx = affine_project(c, x)
            assert np.linalg.norm(affine_project(c, qx) - qx) <= 1e-12
            lip = np.linalg.norm(qx - affine_project(c, y))
            assert lip <= np.linalg.norm(x - y) + 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constraint_point_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="constraint point has non-finite entries"):
            AffineConstraint(line(1, 0, 0), np.array([bad, 0.0, 0.0]))

    def test_constraint_point_must_belong_to_the_subspace(self):
        with pytest.raises(ValueError):
            AffineConstraint(line(1, 0), np.array([1.0, 1.0]))


class TestResolvent:
    """The level step (extend_min_norm) applies (Id - P_u P_v)^(-1) to
    u - P_u v and (Id - P_v P_u)^(-1) to v - P_v u, from the pair's residual SVD."""

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_power_series_oracle(self, field):
        rng = rng_for(703)
        for _ in range(15):
            u = random_subspace(rng, 6, int(rng.integers(1, 4)), field)
            v = random_subspace(rng, 6, int(rng.integers(1, 4)), field)
            a, b = u.project(random_unit(rng, 6, field)), v.project(random_unit(rng, 6, field))
            got = extend_min_norm(u, v, a, b)
            expected = (neumann_inverse(u, v, a - u.project(b))
                        + neumann_inverse(v, u, b - v.project(a)))
            assert np.linalg.norm(got - expected) <= 1e-10

    def test_zero_dim_side_is_the_identity(self):
        rng = rng_for(704)
        v = random_subspace(rng, 5, 2)
        w = v.project(random_unit(rng, 5))
        zero = zero_subspace(5)
        assert np.allclose(extend_min_norm(zero, v, np.zeros(5), w), w)


class TestSolveTwo:
    def test_orthogonal_axes(self):
        z = solve_two(AffineConstraint(line(1, 0), np.array([2.5, 0.0])),
                      AffineConstraint(line(0, 1), np.array([0.0, -4.0])))
        assert np.allclose(z, [2.5, -4.0], atol=1e-14)

    def test_zero_prescription(self):
        rng = rng_for(705)
        u = random_subspace(rng, 6, 2)
        v = random_subspace(rng, 6, 3)
        z = solve_two(AffineConstraint(u, np.zeros(6)), AffineConstraint(v, np.zeros(6)))
        assert np.linalg.norm(z) <= 1e-12

    def test_oblique_lines_match_hand_value(self):
        u1 = line(1, 0)
        u2 = Subspace.from_spanning([np.array([1.0, 1.0]) / np.sqrt(2)], 2)
        z = solve_two(AffineConstraint(u1, np.array([1.0, 0.0])),
                      AffineConstraint(u2, np.array([1.0, 1.0])))
        assert np.allclose(z, [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_constraints_and_minimality_on_random_pairs(self, field):
        rng = rng_for(706)
        for _ in range(25):
            n = int(rng.integers(4, 10))
            ku = int(rng.integers(1, n // 2 + 1))
            kv = int(rng.integers(1, n - ku + 1))
            u = random_subspace(rng, n, ku, field)
            v = random_subspace(rng, n, kv, field)
            f = Family((u, v))
            pres = random_prescription(rng, f)
            z = solve_two(AffineConstraint(u, pres[0]), AffineConstraint(v, pres[1]))
            assert np.linalg.norm(u.project(z) - pres[0]) <= 1e-8
            assert np.linalg.norm(v.project(z) - pres[1]) <= 1e-8
            oracle = pinv_min_norm(f, pres)
            assert abs(np.linalg.norm(z) - np.linalg.norm(oracle)) <= 1e-8
            assert np.linalg.norm(z - oracle) <= 1e-8 * (1 + np.linalg.norm(oracle))

    def test_intersecting_pair_is_refused(self):
        u = line(1, 0)
        with pytest.raises(ValueError):
            solve_two(AffineConstraint(u, np.array([1.0, 0.0])),
                      AffineConstraint(u, np.array([2.0, 0.0])))

    def test_intersecting_pair_is_refused_with_the_recursions_report(self):
        plane = Subspace.from_spanning([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 3)
        with pytest.raises(IbapFailureError) as err:
            solve_two(AffineConstraint(line(1, 0, 0), np.array([1.0, 0.0, 0.0])),
                      AffineConstraint(plane, np.array([0.0, 1.0, 0.0])))
        assert err.value.report.verdict is False
        assert err.value.report.levels[0].degenerate


class TestExtendMinNorm:
    def test_orthogonal_pair_reduces_to_addition(self):
        rng = rng_for(707)
        f = random_orthogonal_family(rng, 7, [2, 3])
        u_pt = f[0].project(random_unit(rng, 7))
        v_pt = f[1].project(random_unit(rng, 7))
        got = extend_min_norm(f[0], f[1], u_pt, v_pt)
        assert np.allclose(got, u_pt + v_pt, atol=1e-12)

    def test_zero_inputs_give_zero(self):
        rng = rng_for(708)
        u = random_subspace(rng, 5, 2)
        v = random_subspace(rng, 5, 2)
        z = extend_min_norm(u, v, np.zeros(5), np.zeros(5))
        assert np.linalg.norm(z) <= 1e-14

    def test_membership_preconditions(self):
        u = line(1, 0, 0)
        v = line(0, 1, 0)
        with pytest.raises(ValueError):
            extend_min_norm(u, v, np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            extend_min_norm(u, v, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_are_refused(self, bad):
        u = line(1, 0, 0)
        v = line(0, 1, 0)
        with pytest.raises(ValueError, match="level point has non-finite entries"):
            extend_min_norm(u, v, np.array([bad, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(ValueError, match="trailing point has non-finite entries"):
            extend_min_norm(u, v, np.zeros(3), np.array([0.0, bad, 0.0]))


class TestSolveMinNorm:
    def test_single_constraint_returns_its_point(self):
        rng = rng_for(710)
        u = random_subspace(rng, 5, 2)
        point = u.project(random_unit(rng, 5))
        f = Family((u,))
        assert np.allclose(solve_min_norm(f, [point]), point, atol=1e-14)

    def test_coordinate_axes_assemble_the_vector(self):
        f = axes_family(3)
        pres = [np.array([1.5, 0, 0]), np.array([0, -2.0, 0]), np.array([0, 0, 0.25])]
        x = solve_min_norm(f, pres)
        assert np.allclose(x, [1.5, -2.0, 0.25], atol=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_pseudoinverse_oracle(self, field):
        rng = rng_for(711)
        f = random_family(rng, 7, [2, 2, 1], field)
        for _ in range(10):
            pres = random_prescription(rng, f)
            x = solve_min_norm(f, pres)
            oracle = pinv_min_norm(f, pres)
            assert np.linalg.norm(x - oracle) <= 1e-8 * (1 + np.linalg.norm(oracle))

    def test_stages_are_minimal_for_the_trailing_systems(self):
        rng = rng_for(712)
        f = random_family(rng, 9, [2, 3, 2])
        pres = random_prescription(rng, f)
        stages = min_norm_stages(f, pres)
        m = len(f)
        for j, stage in enumerate(stages):
            trailing = Family(f.subspaces[m - 1 - j:])
            tail_pres = pres[m - 1 - j:]
            oracle = pinv_min_norm(trailing, tail_pres)
            assert np.linalg.norm(stage - oracle) <= 1e-8 * (1 + np.linalg.norm(oracle))
            # fixed by re-projection onto the trailing solution set
            reproj = direct_solve(trailing, tail_pres, anchor=stage)
            assert np.linalg.norm(reproj - stage) <= 1e-8

    def test_requires_the_property(self):
        f = Family((line(1, 0, 0).complement(), line(0, 1, 0).complement()))
        pres = [np.zeros(3), np.zeros(3)]
        with pytest.raises(IbapFailureError) as err:
            solve_min_norm(f, pres)
        assert err.value.report.verdict is False

    def test_membership_violation(self):
        f = axes_family(2)
        with pytest.raises(ValueError):
            solve_min_norm(f, [np.array([1.0, 1.0]), np.array([0.0, 1.0])])

    def test_zero_subspace_members_are_fine(self):
        rng = rng_for(713)
        u = random_subspace(rng, 5, 2)
        f = Family((u, zero_subspace(5)))
        pres = [u.project(random_unit(rng, 5)), np.zeros(5)]
        x = solve_min_norm(f, pres)
        assert np.linalg.norm(u.project(x) - pres[0]) <= 1e-10


def near_dependent_draws(seed, count):
    """Families of 2-4 members in R^3..R^13, one spanning row of one member
    replaced by a combination of the other members' rows plus a perturbation
    of 1e-17 to 1e-12, with prescriptions P_i x0; about half are independent,
    many with a level sine within a few eps of the rank cutoff."""
    rng = rng_for(seed)
    for _ in range(count):
        n = int(rng.integers(3, 14))
        m = int(rng.integers(2, 5))
        rows = [rng.standard_normal((int(rng.integers(1, max(1, n // m) + 1)), n))
                for _ in range(m)]
        i = int(rng.integers(m))
        others = np.vstack(rows[:i] + rows[i + 1:])
        delta = 10.0 ** rng.uniform(-17, -12)
        rows[i][0] = rng.standard_normal(len(others)) @ others + delta * rng.standard_normal(n)
        family = Family(tuple(Subspace.from_spanning(list(r), n) for r in rows))
        x0 = rng.standard_normal(n)
        yield family, [s.project(x0) for s in family]


class TestNearTheRankCutoff:
    """The level step divides by the level sine, so it is backward stable
    only where the kept columns of W hold no component in the tail."""

    def test_recursion_is_as_accurate_as_the_stacked_solve(self):
        independent = 0
        for family, pres in near_dependent_draws(0, 3000):
            if not check_independence(family):
                continue
            independent += 1
            got = prescription_residual(family, pres, solve_min_norm(family, pres))
            ref = prescription_residual(family, pres, svd_min_norm(family, pres))
            assert got <= 20 * max(ref, 1e-15), (family, got, ref)
        assert independent > 1000

    def test_chain_columns_are_orthogonal_to_the_tail(self):
        for family, _ in near_dependent_draws(1, 500):
            levels, basis, widths = family._chain
            for lev, width in zip(levels, widths):
                lean = np.abs(basis[:, :width].conj().T @ lev.w[:, :lev.rank])
                assert lean.max(initial=0.0) <= family.ambient_dim * np.finfo(float).eps

    def test_pair_just_above_the_cutoff(self):
        rng = rng_for(4)
        n = 5
        vrows = rng.standard_normal((2, n))
        urow, g, c, x0 = (rng.standard_normal(n), rng.standard_normal(n),
                          rng.standard_normal(2), rng.standard_normal(n))
        v = Subspace.from_spanning(list(vrows), n)
        u = Subspace.from_spanning([urow, c @ vrows + 10.0 ** -15.1 * g], n)
        level = _pair(u, v)
        assert 1.0 < level.sines[-1] / (n * np.finfo(float).eps) < 1.2
        f = Family((u, v))
        pres = [u.project(x0), v.project(x0)]
        z = solve_two(AffineConstraint(u, pres[0]), AffineConstraint(v, pres[1]))
        ref = prescription_residual(f, pres, svd_min_norm(f, pres))
        assert prescription_residual(f, pres, z) <= 20 * max(ref, 1e-15)


class TestDirectSolve:
    def test_zero_prescription(self):
        rng = rng_for(714)
        f = random_family(rng, 6, [2, 2])
        x = direct_solve(f, [np.zeros(6), np.zeros(6)])
        assert np.linalg.norm(x) <= 1e-12
        parallel = parallel_subspace(f)
        assert parallel.dim == 2
        for s in f.subspaces:
            assert np.max(np.abs(s.basis.conj().T @ parallel.basis)) <= 1e-10

    def test_axes_pair_in_three_dims(self):
        eye = np.eye(3)
        f = Family((Subspace.from_spanning([eye[:, 0]], 3),
                    Subspace.from_spanning([eye[:, 1]], 3)))
        x = direct_solve(f, [np.array([1.0, 0, 0]), np.array([0, 2.0, 0])])
        assert np.allclose(x, [1.0, 2.0, 0.0], atol=1e-12)
        parallel = parallel_subspace(f)
        assert parallel.dim == 1
        assert np.allclose(np.abs(parallel.basis[:, 0]), [0, 0, 1], atol=1e-12)

    def test_cross_check_with_the_recursion(self):
        rng = rng_for(715)
        for _ in range(15):
            dims = random_independent_dims(rng, 8, 3)
            f = random_family(rng, 8, dims)
            pres = random_prescription(rng, f)
            # an independent family is solved by the recursion, bit for bit
            b = direct_solve(f, pres)
            assert np.array_equal(solve_min_norm(f, pres), b)
            ref = pinv_min_norm(f, pres)
            assert np.linalg.norm(ref - b) <= 1e-8 * (1 + np.linalg.norm(ref))

    @pytest.mark.parametrize("field", FIELDS)
    def test_an_independent_family_gives_the_last_stage(self, field):
        # one pass over the level chain solves every family, and judges
        # none that the chain shows independent: direct_solve's point is
        # the recursion's last stage, bit for bit
        rng = rng_for(717)
        for _ in range(15):
            f = random_family(rng, 8, random_independent_dims(rng, 8, 3), field)
            pres = random_prescription(rng, f)
            assert check_independence(f)
            last = _stages(f, validate_prescription(f, pres))[-1]
            assert np.array_equal(direct_solve(f, pres), last)

    def test_anchor_returns_the_closest_solution(self):
        rng = rng_for(716)
        f = random_family(rng, 7, [2, 2])
        pres = random_prescription(rng, f)
        anchor = random_unit(rng, 7) * 2
        x = direct_solve(f, pres, anchor=anchor)
        assert prescription_residual(f, pres, x) <= 1e-8
        # optimality: the offset from the anchor is orthogonal to the parallel subspace
        gap = parallel_subspace(f).project(x - anchor)
        assert np.linalg.norm(gap) <= 1e-10

    def test_infeasible_prescription_raises_with_certificate(self):
        u1 = line(1, 0)
        u2 = line(0, 1)
        u3 = Subspace.from_spanning([np.array([1.0, 1.0]) / np.sqrt(2)], 2)
        f = Family((u1, u2, u3))
        pres = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, -1.0])]
        with pytest.raises(InfeasiblePrescriptionError) as err:
            direct_solve(f, pres)
        assert err.value.certificate.residual > 1e-8


class TestRateBound:
    def test_axes_rate_is_zero(self):
        for n in (2, 3, 4):
            assert rate_bound(axes_family(n)) == 0.0

    @pytest.mark.parametrize("theta", [np.pi / 3, np.pi / 4, 1.0])
    def test_two_lines_at_an_angle(self, theta):
        f = Family((line(1, 0), line(np.cos(theta), np.sin(theta))))
        assert abs(rate_bound(f) - abs(np.cos(theta))) <= 1e-12

    def test_three_member_family_with_prescribed_angles(self):
        # complement angles are both 0.6, so alpha = sqrt(1 - 0.64^2)
        u1 = line(0, 0.6, 0.8)
        u2 = line(1, 0, 0)
        u3 = line(0.6, 0.8, 0)
        f = Family((u1, u2, u3))
        expected = np.sqrt(1.0 - 0.64 ** 2)
        assert abs(rate_bound(f) - expected) <= 1e-12

    def test_requires_the_property(self):
        f = Family((line(1, 0, 0).complement(), line(0, 1, 0).complement()))
        with pytest.raises(IbapFailureError):
            rate_bound(f)

    @pytest.mark.parametrize("field", FIELDS)
    def test_alpha_bounds_the_spectral_radius_of_a_sweep(self, field):
        # a sweep maps the distance from the solution set, which lies in
        # the sum of the members, by (I - P_1) ... (I - P_m); alpha bounds
        # its norm there, so also its spectral radius
        rng = rng_for(723)
        eps = np.finfo(float).eps
        for _ in range(40):
            n = int(rng.integers(2, 16))
            dims = random_independent_dims(rng, n, int(rng.integers(1, min(n, 5) + 1)))
            f = random_family(rng, n, dims, field)
            assert complement_product_radius(f) <= rate_bound(f) + 64 * eps

    def test_two_members_contract_at_the_squared_norm(self):
        # Kayalar & Weinert (1988): for two subspaces the spectral radius is
        # the squared Friedrichs cosine, the norm that slow_family predicts
        family, predicted = slow_family(SlowFamilySpec.harmonic(16))
        assert abs(complement_product_radius(family) - predicted ** 2) <= 1e-12

    def test_observed_contraction_approaches_the_spectral_radius(self):
        # the distance ratio of the last sweeps is the exact asymptotic rate
        # rho, not the a-priori alpha
        spec = SlowFamilySpec.harmonic(16)
        family, _ = slow_family(spec)
        rho = complement_product_radius(family)
        trace = slow_trace(spec, worst_aligned_start(spec), SolveOptions(record_trace=True))
        assert trace.converged and trace.sweeps > 5000
        d = trace.distances[-21:]
        assert max(abs(b / a - rho) for a, b in zip(d, d[1:])) <= 1e-6
        assert abs(rho - 0.996109) <= 1e-6 and trace.alpha - rho > 1e-3

    @pytest.mark.parametrize("field", FIELDS)
    def test_long_random_runs_contract_at_the_spectral_radius(self, field):
        # the geometric mean ratio of the last 50 distances; a second
        # eigenvalue near rho in modulus slows the approach, so the bound is looser
        rng = rng_for(749)
        long_runs = 0
        for _ in range(200):
            n = int(rng.integers(3, 10))
            f = random_family(rng, n, random_independent_dims(rng, n, int(rng.integers(2, 5))),
                              field)
            pres, start = random_prescription(rng, f), random_unit(rng, n, field) * 3
            if not check_independence(f):
                continue
            _, trace = best_approximation(start, f, pres,
                                          SolveOptions(max_iter=20000, record_trace=True))
            if trace.sweeps <= 200:
                continue
            assert trace.converged
            d = trace.distances
            observed = (d[-1] / d[-51]) ** (1 / 50)
            assert abs(observed - complement_product_radius(f)) <= 1e-4
            long_runs += 1
            if long_runs == 4:
                break
        assert long_runs == 4


class TestBestApproximation:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_the_tolerance_is_positive_and_finite(self, tol):
        # an infinite tolerance would stop every run after its first sweep
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            SolveOptions(tol=tol)

    @pytest.mark.parametrize("tol", [True, False, np.True_, "1e-10", 1e-10 + 0j,
                                     np.complex128(1e-10), None])
    def test_the_tolerance_is_a_real_number(self, tol):
        # True would run with tol 1, and a string or complex failed with a raw TypeError
        with pytest.raises(ValueError, match="^tol must be a real number$"):
            SolveOptions(tol=tol)

    @pytest.mark.parametrize("tol", [np.float64(1e-10), np.float32(1e-10), np.int64(1), 1])
    def test_the_tolerance_may_be_a_numpy_or_integer_scalar_and_is_stored_as_float(self, tol):
        opts = SolveOptions(tol=tol)
        assert type(opts.tol) is float and opts.tol == float(tol)

    @pytest.mark.parametrize("max_iter", [40.0, True, np.True_, "40", None])
    def test_max_iter_is_an_integer(self, max_iter):
        # a float would fail only after its first block, inside the sweeps
        with pytest.raises(ValueError, match="^max_iter must be an integer$"):
            SolveOptions(max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [np.int64(40), np.int32(40), np.uint8(40)])
    def test_max_iter_may_be_a_numpy_integer(self, max_iter):
        rng = rng_for(716)
        f = random_family(rng, 6, [2, 1])
        pres = random_prescription(rng, f)
        _, trace = best_approximation(random_unit(rng, 6), f, pres,
                                      SolveOptions(max_iter=max_iter, tol=1e-300))
        assert trace.sweeps == 40 and not trace.converged

    def test_start_on_the_solution_set_converges_in_one_sweep(self):
        rng = rng_for(717)
        f = random_family(rng, 6, [2, 1])
        pres = random_prescription(rng, f)
        start = direct_solve(f, pres)
        x, trace = best_approximation(start, f, pres)
        assert trace.sweeps == 1 and trace.converged
        assert trace.residuals[0] <= 1e-10
        assert np.linalg.norm(x - start) <= 1e-10

    def test_orthogonal_axes_converge_in_one_sweep(self):
        rng = rng_for(718)
        f = random_orthogonal_family(rng, 5, [1, 2, 1])
        pres = random_prescription(rng, f)
        start = random_unit(rng, 5) * 3
        x, trace = best_approximation(start, f, pres)
        assert trace.alpha == 0.0
        assert trace.sweeps == 1 and trace.converged

    def test_two_lines_at_sixty_degrees(self):
        theta = np.pi / 3
        f = Family((line(1, 0), line(np.cos(theta), np.sin(theta))))
        pres = [np.array([1.0, 0.0]),
                0.5 * np.array([np.cos(theta), np.sin(theta)])]
        rng = rng_for(719)
        start = random_unit(rng, 2) * 3
        opts = SolveOptions(tol=1e-12, record_trace=True)
        x, trace = best_approximation(start, f, pres, opts)
        assert trace.converged
        assert abs(trace.alpha - 0.5) <= 1e-12
        ref = direct_solve(f, pres, anchor=start)
        assert np.linalg.norm(x - ref) <= 1e-10
        dists = trace.distances
        for k in range(len(dists) - 1):
            if dists[k] > 1e-13:
                assert dists[k + 1] <= 0.5 * dists[k] + 1e-13

    @pytest.mark.parametrize("field", FIELDS)
    def test_rate_inequality_and_monotone_decrease(self, field):
        rng = rng_for(720)
        for _ in range(10):
            dims = random_independent_dims(rng, 8, int(rng.integers(2, 5)))
            f = random_family(rng, 8, dims, field)
            pres = random_prescription(rng, f)
            start = random_unit(rng, 8, field) * 2
            opts = SolveOptions(max_iter=300, tol=1e-11, record_trace=True)
            x, trace = best_approximation(start, f, pres, opts)
            assert trace.alpha is not None and trace.alpha < 1.0
            d0 = trace.initial_distance
            prev = d0
            for n, (dist, bound) in enumerate(zip(trace.distances, trace.bounds), 1):
                assert dist <= trace.alpha ** n * d0 + 1e-8
                assert dist <= prev + 1e-12
                assert bound == trace.alpha ** n * d0
                prev = dist

    def test_bound_values_are_nonincreasing(self):
        rng = rng_for(721)
        f = random_family(rng, 6, [2, 2])
        pres = random_prescription(rng, f)
        opts = SolveOptions(max_iter=50, tol=1e-13, record_trace=True)
        _, trace = best_approximation(random_unit(rng, 6), f, pres, opts)
        bounds = trace.bounds
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bounds, bounds[1:]))

    def test_infeasible_prescription_raises(self):
        u1 = line(1, 0)
        u2 = line(0, 1)
        u3 = Subspace.from_spanning([np.array([1.0, 1.0]) / np.sqrt(2)], 2)
        f = Family((u1, u2, u3))
        pres = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, -1.0])]
        with pytest.raises(InfeasiblePrescriptionError):
            best_approximation(np.zeros(2), f, pres)

    def test_feasible_dependent_family_still_converges(self):
        # dependent family, consistent prescription: no bound column, but
        # the iteration still reaches the solution set
        f = Family((line(1, 0, 0).complement(), line(0, 1, 0).complement()))
        pres = [np.zeros(3), np.zeros(3)]
        rng = rng_for(722)
        opts = SolveOptions(max_iter=500, tol=1e-10, record_trace=True)
        x, trace = best_approximation(random_unit(rng, 3), f, pres, opts)
        assert trace.alpha is None
        assert trace.converged
        assert trace.bounds is None
        assert prescription_residual(f, pres, x) <= 1e-10

    def test_max_iter_is_honoured(self):
        theta = 0.05  # slow pair
        f = Family((line(1, 0), line(np.cos(theta), np.sin(theta))))
        pres = [np.zeros(2), np.zeros(2)]
        opts = SolveOptions(max_iter=3, tol=1e-16)
        _, trace = best_approximation(np.array([0.0, 1.0]), f, pres, opts)
        assert trace.sweeps == 3 and not trace.converged

    def test_prescription_off_its_subspace_by_the_membership_slack_converges(self):
        # e0 + 1e-9 e2 passes the membership check of the line through e0;
        # projected once, its gap no longer enters every sweep, so the
        # residual falls below the tolerance instead of stalling at 1e-9
        e = np.eye(3)
        f = Family((line(1, 0, 0), line(1, 1, 0)))
        pres = [e[0] + 1e-9 * e[2], np.zeros(3)]
        _, trace = best_approximation(np.zeros(3), f, pres, SolveOptions(record_trace=True))
        assert trace.converged and trace.sweeps < 100
        assert trace.distances[-1] <= 1e-9


class TestEachPrescriptionValidatedOnce:
    """A call chain checks each prescription vector's membership once:
    solve_two by extend_min_norm's level and trailing points, and
    best_approximation by validate_prescription, whose reference solve
    takes the projected vectors without checking them again."""

    @pytest.fixture
    def members(self, monkeypatch):
        """The `what` of every Subspace.member call."""
        seen = []
        member = Subspace.member

        def counted(self, x, what="vector"):
            seen.append(what)
            return member(self, x, what)

        monkeypatch.setattr(Subspace, "member", counted)
        return seen

    def test_solve_two(self, members):
        c1 = AffineConstraint(line(1, 0, 0), np.array([1.0, 0.0, 0.0]))
        c2 = AffineConstraint(line(1, 1, 0), np.array([1.0, 1.0, 0.0]))
        members.clear()
        assert np.allclose(solve_two(c1, c2), [1.0, 1.0, 0.0], atol=1e-15)
        assert members == ["level point", "trailing point"]

    def test_prescription_residual_checks_the_count_alone(self, members):
        f = Family((line(1, 0, 0), line(0, 1, 0)))
        e = np.eye(3)
        for pres in ([e[0]], [e[0], e[1], e[2]]):
            with pytest.raises(ValueError, match=f"^prescription has {len(pres)} vectors "
                                                 "for 2 subspaces$"):
                prescription_residual(f, pres, np.zeros(3))
        # vectors outside their subspaces are measured, not refused
        assert prescription_residual(f, [e[2], e[1]], e[0]) == math.sqrt(2.0)
        assert members == []

    @pytest.mark.parametrize("dependent", [False, True], ids=["independent", "dependent"])
    def test_best_approximation(self, members, dependent):
        if dependent:
            f = Family((line(1, 0, 0).complement(), line(0, 1, 0).complement()))
            pres = [np.zeros(3), np.zeros(3)]
        else:
            f = axes_family(3)
            pres = list(np.eye(3))
        opts = SolveOptions(max_iter=50, record_trace=True)
        best_approximation(np.ones(3), f, pres, opts)
        assert members == [f"prescription vector {i + 1}" for i in range(len(f))]


class TestIterationNormsDoNotOverflow:
    """d0 is the norm of start - reference scaled by a power of two, and
    the residuals and distances of each block are the norms of vectors
    scaled by the power of two of start and reference where it lies
    outside [2^-64, 2^64]: a run whose start, prescription and tol are
    scaled by 2^600 or 2^-600 is the unscaled run times that scale,
    exactly, where the unscaled squares would over- or underflow."""

    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600], ids=["2^600", "2^-600"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_a_scaled_run_is_the_run_times_the_scale(self, field, scale):
        rng = rng_for(750)
        f = random_family(rng, 7, [2, 1, 2], field)
        pres = random_prescription(rng, f)
        start = random_unit(rng, 7, field) * 3
        opts = SolveOptions(tol=1e-11, record_trace=True)
        x, trace = best_approximation(start, f, pres, opts)
        big_x, big = best_approximation(
            start * scale, f, [u * scale for u in pres],
            SolveOptions(tol=opts.tol * scale, record_trace=True))
        assert trace.converged and trace.sweeps > _BLOCK
        assert (big.sweeps, big.converged) == (trace.sweeps, trace.converged)
        assert big.initial_distance == trace.initial_distance * scale
        assert big.residuals == tuple(r * scale for r in trace.residuals)
        assert big.distances == tuple(d * scale for d in trace.distances)
        assert big.bounds == [b * scale for b in trace.bounds]
        assert np.array_equal(big_x, x * scale)

    def test_the_recipe_of_two_lines(self):
        e = np.eye(3)
        f = Family((line(1, 0, 0), line(1, 1, 0)))
        pres = [1e200 * e[0], 1e200 * (e[0] + e[1])]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x, trace = best_approximation(np.zeros(3), f, pres,
                                          SolveOptions(max_iter=40, record_trace=True))
        assert trace.initial_distance == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
        assert all(map(math.isfinite, trace.residuals + trace.distances))
        assert np.allclose(x, 1e200 * (e[0] + e[1]), rtol=1e-12, atol=0)


class TestRoundingFloor:
    """The residuals cannot fall much below the rounding of the iterate,
    about eps max(||start||, ||reference||); a block that lies within
    _FLOOR times that and ends no lower than it began ends the run, which
    stays unconverged when tol is below the floor."""

    def test_lines_prescribed_at_1e20_stop_with_the_first_block(self):
        # the residual sits at 1.6-2.1 eps ||x|| from the first sweep; the
        # run used to take all max_iter sweeps
        e = np.eye(3)
        f = Family((Subspace.from_spanning([e[0]], 3), Subspace.from_spanning([e[0] + e[1]], 3)))
        x, trace = best_approximation(np.zeros(3), f, [1e20 * e[0], 1e20 * (e[0] + e[1])])
        eps = np.finfo(float).eps
        assert trace.sweeps == _BLOCK and not trace.converged
        assert 0 < max(trace.residuals) <= _FLOOR * eps * np.linalg.norm(x)
        assert np.linalg.norm(x - 1e20 * (e[0] + e[1])) <= 4 * eps * np.linalg.norm(x)

    @pytest.mark.parametrize("k", [-600, -30, 30, 600])
    @pytest.mark.parametrize("field", FIELDS)
    def test_the_stop_is_the_same_at_every_scale(self, field, k):
        # a tolerance below the floor: the run stops on the floor, at the
        # same sweep at every scale 2^k, with its numbers times 2^k exactly
        rng = rng_for(760)
        f = random_family(rng, 9, [3, 2, 3], field)
        pres = random_prescription(rng, f)
        start = random_unit(rng, 9, field) * 3
        runs = [best_approximation(start * s, f, [u * s for u in pres],
                                   SolveOptions(tol=1e-30 * s, record_trace=True))
                for s in (1.0, 2.0 ** k)]
        (x, trace), (big_x, big), scale = runs[0], runs[1], 2.0 ** k
        assert trace.sweeps < 1000 and not trace.converged
        eps = np.finfo(float).eps
        assert max(trace.residuals[-_BLOCK:]) <= _FLOOR * eps * 3
        assert (big.sweeps, big.converged) == (trace.sweeps, trace.converged)
        assert big.residuals == tuple(r * scale for r in trace.residuals)
        assert big.distances == tuple(d * scale for d in trace.distances)
        assert np.array_equal(big_x, x * scale)

    def test_a_run_that_still_falls_within_the_floor_goes_on(self):
        # alpha = 0.9986: the residual enters the floor (1.1e-13 here) near
        # 8.5e-14 and falls for some 200 sweeps more, to a fixed point at
        # 5.65e-14, above tol; the run ends there, not at max_iter
        rng = rng_for(761)
        f = random_family(rng, 9, [3, 2, 3])
        pres = random_prescription(rng, f)
        x, trace = best_approximation(np.zeros(9), f, pres, SolveOptions(tol=1e-14))
        floor = _FLOOR * np.finfo(float).eps * np.linalg.norm(x)
        entered = next(i for i, r in enumerate(trace.residuals) if r <= floor)
        assert not trace.converged and trace.sweeps < 10000
        assert trace.residuals[-1] < 0.7 * trace.residuals[entered]


class TestSweepMatchesTheReference:
    """best_approximation runs each sweep as one small map on the
    coordinates y of x = start + T y, T the chain basis of the sum, and
    measures its residual in those coordinates; it must give the stopping
    decisions, alpha, d0 and bounds of the sweep built from
    affine_project and prescription_residual exactly, and its iterates,
    distances and residuals to rounding.  The one exception is a residual
    within rounding of tol, where one may stop a sweep before the other."""

    @staticmethod
    def assert_same_run(start, family, pres, opts):
        x, trace = best_approximation(start, family, pres, opts)
        ref_x, ref_trace, ref_bounds = reference_iteration(start, family, pres, opts)
        assert trace.alpha == ref_trace.alpha
        assert trace.initial_distance == ref_trace.initial_distance
        eps = np.finfo(float).eps
        # the residual in coordinates differs from ||P x - u|| by rounding
        slack = 16 * eps * max(1.0, float(np.linalg.norm(x)))
        if (trace.sweeps, trace.converged) != (ref_trace.sweeps, ref_trace.converged):
            # where a residual lands within rounding of tol, one run may stop
            # there and the other a sweep later, or at max_iter unconverged:
            # the first to stop converged within the residual slack of tol
            early = min(trace, ref_trace, key=lambda t: (t.sweeps, not t.converged))
            assert early.converged and early.residuals[-1] > opts.tol - slack
            assert abs(trace.sweeps - ref_trace.sweeps) <= 1
            # the iterates are compared after the sweeps both runs share
            shared = dataclasses.replace(opts, max_iter=early.sweeps)
            if trace.sweeps > early.sweeps:
                x, _ = best_approximation(start, family, pres, shared)
            elif ref_trace.sweeps > early.sweeps:
                ref_x = reference_iteration(start, family, pres, shared)[0]
        # the sweep in coordinates rounds differently; its error may grow
        # by rounding of the iterate's size per sweep.  Over 3000 seeds of
        # test_single_constraint and 1000 of test_random_families per field,
        # a correct sweep reached 2.4 of these units for the iterate, 1.9
        # for a distance and 10.6 for a residual: the factors are 1.5 to 2
        # times those
        sweeps = min(trace.sweeps, ref_trace.sweeps)
        drift = 4 * eps * max(1.0, float(np.linalg.norm(ref_x))) * sweeps
        assert x.dtype == ref_x.dtype
        assert np.linalg.norm(x - ref_x) <= drift
        # the columns of the sweeps both runs share: bounds bit for bit,
        # the rest to rounding
        bounds = trace.bounds
        assert repr(bounds and bounds[:sweeps]) == repr(ref_bounds and ref_bounds[:sweeps])
        assert (trace.distances is None) == (ref_trace.distances is None)
        for dist, ref in zip(trace.distances or (), ref_trace.distances or ()):
            # a distance rounds with its own size too
            assert abs(dist - ref) <= max(drift, 4 * eps * ref * sweeps)
        for res, ref in zip(trace.residuals, ref_trace.residuals):
            assert abs(res - ref) <= slack
        return trace

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("field", FIELDS)
    def test_random_families(self, field, record_trace):
        rng = rng_for(730)
        for _ in range(12):
            n = int(rng.integers(3, 12))
            dims = random_independent_dims(rng, n, int(rng.integers(2, min(n, 5) + 1)))
            f = random_family(rng, n, dims, field)
            pres = random_prescription(rng, f)
            opts = SolveOptions(max_iter=400, tol=1e-11, record_trace=record_trace)
            self.assert_same_run(random_unit(rng, n, field) * 3, f, pres, opts)

    @pytest.mark.parametrize("field", FIELDS)
    def test_single_constraint(self, field):
        rng = rng_for(731)
        f = random_family(rng, 6, [3], field)
        pres = random_prescription(rng, f)
        opts = SolveOptions(record_trace=True)
        trace = self.assert_same_run(random_unit(rng, 6, field), f, pres, opts)
        assert trace.sweeps == 1

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_zero_dimensional_member(self, record_trace):
        rng = rng_for(732)
        f = Family((random_subspace(rng, 5, 2), zero_subspace(5), random_subspace(rng, 5, 1)))
        pres = random_prescription(rng, f)
        opts = SolveOptions(max_iter=300, tol=1e-12, record_trace=record_trace)
        self.assert_same_run(random_unit(rng, 5) * 2, f, pres, opts)

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_zero_dimensional_member_at_either_end(self, field, where, record_trace):
        rng = rng_for(735)
        members = [random_subspace(rng, 6, 2, field), random_subspace(rng, 6, 1, field)]
        zero = zero_subspace(6, field)
        f = Family(tuple([zero] + members if where == "first" else members + [zero]))
        pres = random_prescription(rng, f)
        opts = SolveOptions(max_iter=300, tol=1e-12, record_trace=record_trace)
        self.assert_same_run(random_unit(rng, 6, field) * 2, f, pres, opts)

    @pytest.mark.parametrize("field", FIELDS)
    def test_only_zero_dimensional_members(self, field):
        f = Family((zero_subspace(4, field), zero_subspace(4, field)))
        opts = SolveOptions(record_trace=True)
        trace = self.assert_same_run(random_unit(rng_for(736), 4, field), f,
                                     [np.zeros(4)] * 2, opts)
        assert trace.sweeps == 1 and trace.converged
        assert trace.residuals[0] == 0.0

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_dependent_family_without_a_bound(self, record_trace):
        f = Family((line(1, 0, 0).complement(), line(0, 1, 0).complement()))
        opts = SolveOptions(max_iter=500, tol=1e-10, record_trace=record_trace)
        trace = self.assert_same_run(random_unit(rng_for(733), 3), f, [np.zeros(3)] * 2, opts)
        assert trace.alpha is None

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("field", FIELDS)
    def test_run_capped_by_max_iter(self, field, record_trace):
        rng = rng_for(734)
        theta = 0.05  # slow pair
        u = line(1, 0, 0)
        v = line(np.cos(theta), np.sin(theta), 0)
        if field == "complex":
            u, v = Subspace(u.basis * 1j), Subspace(v.basis * np.exp(0.3j))
        f = Family((u, v))
        pres = random_prescription(rng, f)
        opts = SolveOptions(max_iter=7, tol=1e-16, record_trace=record_trace)
        trace = self.assert_same_run(random_unit(rng, 3, field) * 4, f, pres, opts)
        assert trace.sweeps == 7 and not trace.converged


class TestBlocksMatchOneSweepAtATime:
    """best_approximation applies the sweep map every sweep but takes the
    residuals, distances and stopping test once per block: the first of
    _BLOCK sweeps, each later one up to twice the one before and at most
    _MAX_BLOCK, cut at the predicted stop.  Its iterate, trace and bounds
    must equal, bit for bit, those of the one-map loop that does all of
    that after every sweep."""

    @staticmethod
    def assert_identical(start, family, pres, opts):
        x, trace = best_approximation(start, family, pres, opts)
        ref_x, ref_trace, ref_bounds = one_map_iteration(start, family, pres, opts)
        assert x.dtype == ref_x.dtype and np.array_equal(x, ref_x)
        assert trace == ref_trace
        # repr tells float from np.float64 and gives every bit of each value
        assert repr(trace) == repr(ref_trace)
        # the bounds computed from the columns are those taken sweep by sweep
        assert repr(trace.bounds) == repr(ref_bounds)
        return trace

    @staticmethod
    def slow_pair(field, theta):
        u = line(1, 0, 0)
        v = line(np.cos(theta), np.sin(theta), 0)
        if field == "complex":
            u, v = Subspace(u.basis * 1j), Subspace(v.basis * np.exp(0.3j))
        return Family((u, v))

    @staticmethod
    def whole_blocks(count):
        """The lengths of the first `count` blocks of a run far from its stop:
        _BLOCK, then each twice the one before, at most _MAX_BLOCK."""
        lengths = [_BLOCK]
        while len(lengths) < count:
            lengths.append(min(2 * lengths[-1], _MAX_BLOCK))
        return lengths

    def stopping_at(self, stop, field, record_trace):
        """A slow-pair run whose tol is its residual at sweep `stop` in a
        longer run; those residuals decrease strictly, so it stops there."""
        rng = rng_for(748)
        f = self.slow_pair(field, 0.05)
        start, pres = random_unit(rng, 3, field) * 4, random_prescription(rng, f)
        _, longer, _ = one_map_iteration(start, f, pres,
                                         SolveOptions(max_iter=stop + 1, tol=1e-300))
        res = longer.residuals
        assert all(a > b for a, b in zip(res, res[1:]))
        return start, f, pres, SolveOptions(tol=res[stop - 1], record_trace=record_trace)

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The number of sweeps in each block: best_approximation tests a
        block's residuals for the stop with one np.flatnonzero."""
        lengths = []
        flatnonzero = np.flatnonzero

        def counted(a):
            lengths.append(len(a))
            return flatnonzero(a)

        monkeypatch.setattr(np, "flatnonzero", counted)
        return lengths

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("max_iter", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_runs_capped_around_the_block_size(self, max_iter, field, record_trace):
        rng = rng_for(740)
        f = self.slow_pair(field, 0.05)
        opts = SolveOptions(max_iter=max_iter, tol=1e-16, record_trace=record_trace)
        trace = self.assert_identical(random_unit(rng, 3, field) * 4, f,
                                      random_prescription(rng, f), opts)
        assert trace.sweeps == max_iter and not trace.converged

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("field", FIELDS)
    def test_run_converging_mid_block(self, field, record_trace):
        rng = rng_for(741)
        f = self.slow_pair(field, 0.5)
        opts = SolveOptions(tol=1e-12, record_trace=record_trace)
        trace = self.assert_identical(random_unit(rng, 3, field) * 4, f,
                                      random_prescription(rng, f), opts)
        assert trace.converged and trace.sweeps > _BLOCK and trace.sweeps % _BLOCK

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("stop", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
    def test_run_stopping_at_a_chosen_sweep(self, stop, field):
        trace = self.assert_identical(*self.stopping_at(stop, field, record_trace=True))
        assert trace.sweeps == stop and trace.converged

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("field", FIELDS)
    def test_run_reaching_the_block_cap_several_times(self, field, record_trace, blocks):
        # far from tol every block is whole; max_iter cuts the last one
        rng = rng_for(747)
        f = self.slow_pair(field, 0.05)
        whole = self.whole_blocks(5)
        assert whole.count(_MAX_BLOCK) >= 3
        opts = SolveOptions(max_iter=sum(whole) + 5, tol=1e-16, record_trace=record_trace)
        trace = self.assert_identical(random_unit(rng, 3, field) * 4, f,
                                      random_prescription(rng, f), opts)
        assert trace.sweeps == sum(whole) + 5 and not trace.converged
        assert blocks == whole + [5]

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_run_stopping_on_the_first_sweep_of_a_grown_block(self, count, field,
                                                              record_trace, blocks):
        # the slow pair's residuals fall at one rate, so every block but the
        # last runs whole; the predicted stop cuts the last one, which is
        # still longer than the one sweep it keeps
        whole = self.whole_blocks(count)
        trace = self.assert_identical(*self.stopping_at(sum(whole) + 1, field, record_trace))
        assert trace.sweeps == sum(whole) + 1 and trace.converged
        assert blocks[:-1] == whole and blocks[-1] > 1

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_run_stopping_on_the_last_sweep_of_a_grown_block(self, count, field,
                                                             record_trace, blocks):
        whole = self.whole_blocks(count)
        trace = self.assert_identical(*self.stopping_at(sum(whole), field, record_trace))
        assert trace.sweeps == sum(whole) and trace.converged
        assert blocks == whole

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("field", FIELDS)
    def test_random_families(self, field, record_trace):
        rng = rng_for(742)
        for _ in range(12):
            n = int(rng.integers(3, 12))
            dims = random_independent_dims(rng, n, int(rng.integers(1, min(n, 5) + 1)))
            f = random_family(rng, n, dims, field)
            opts = SolveOptions(max_iter=int(rng.integers(1, 4 * _BLOCK)), tol=1e-11,
                                record_trace=record_trace)
            self.assert_identical(random_unit(rng, n, field) * 3, f,
                                  random_prescription(rng, f), opts)

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("n, dims, field", [(120, [12] * 8, "real"), (100, [12] * 4, "complex")],
                             ids=["real-d96", "complex-d48"])
    def test_families_of_the_benchmark_sizes(self, n, dims, field, record_trace):
        rng = rng_for(749)
        f = random_family(rng, n, dims, field)
        opts = SolveOptions(tol=1e-11, record_trace=record_trace)
        trace = self.assert_identical(random_unit(rng, n, field) * 3, f,
                                      random_prescription(rng, f), opts)
        assert trace.converged and f.dim_sum == sum(dims)

    @staticmethod
    def harmonic_run():
        """The slowdemo --truncation 16 run: start, family, prescription."""
        spec = SlowFamilySpec.harmonic(16)
        f, _ = slow_family(spec)
        zeros = np.zeros(f.ambient_dim)
        return worst_aligned_start(spec), f, [zeros, zeros]

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_the_harmonic_slow_family(self, record_trace):
        start, f, pres = self.harmonic_run()
        trace = self.assert_identical(start, f, pres, SolveOptions(record_trace=record_trace))
        assert trace.sweeps == 5195 and trace.converged and f.dim_sum == 32

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_products_follow_the_blocks_not_the_sweeps(self, record_trace, blocks, monkeypatch):
        # each sweep is one ndarray.dot; np.matmul forms a block's residuals,
        # and a trace's distances take none
        calls = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        _, trace = best_approximation(*self.harmonic_run(), SolveOptions(record_trace=record_trace))
        assert trace.sweeps == 5195 and len(blocks) == 42
        assert len(calls) == len(blocks)

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_dependent_family_without_a_bound(self, record_trace):
        f = Family((line(1, 0, 0).complement(), line(0, 1, 0).complement()))
        opts = SolveOptions(max_iter=500, tol=1e-10, record_trace=record_trace)
        self.assert_identical(random_unit(rng_for(743), 3), f, [np.zeros(3)] * 2, opts)

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_zero_dimensional_member_at_either_end(self, field, where, record_trace):
        rng = rng_for(744)
        members = [random_subspace(rng, 6, 2, field), random_subspace(rng, 6, 1, field)]
        zero = zero_subspace(6, field)
        f = Family(tuple([zero] + members if where == "first" else members + [zero]))
        opts = SolveOptions(max_iter=300, tol=1e-12, record_trace=record_trace)
        self.assert_identical(random_unit(rng, 6, field) * 2, f, random_prescription(rng, f), opts)

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("field", FIELDS)
    def test_only_zero_dimensional_members(self, field, record_trace):
        f = Family((zero_subspace(4, field), zero_subspace(4, field)))
        opts = SolveOptions(record_trace=record_trace)
        trace = self.assert_identical(random_unit(rng_for(745), 4, field), f,
                                      [np.zeros(4)] * 2, opts)
        assert trace.sweeps == 1 and trace.converged


class TestSweepMap:
    """A sweep is one (d+1)-square map of [y; 1], x = start + T y with T the
    chain basis of the sum, built once per call without an n-by-n array as
    the product of the members' homogeneous steps.  The first sweep from
    y = 0 checks the map's offset, the second also its linear part; the
    families reach 12 members, as many as the largest benchmark family."""

    @pytest.mark.parametrize("field", FIELDS)
    def test_one_sweep_is_the_per_constraint_composition(self, field):
        rng = rng_for(737)
        eps = np.finfo(float).eps
        for trial in range(60):
            n = int(rng.integers(2, 41))
            m = 1 if trial % 4 == 0 else int(rng.integers(2, min(n, 12) + 1))
            members = list(random_family(rng, n, random_independent_dims(rng, n, m), field))
            zero = zero_subspace(n, field)
            if trial % 3 == 1:
                members = [zero] + members
            if trial % 3 == 2:
                members = members + [zero]
            f = Family(tuple(members))
            pres = random_prescription(rng, f)
            start = random_unit(rng, n, field) * 3
            # the product of the steps keeps [y; 1]'s last entry 1 only
            # while the map's last row is exactly [0, ..., 0, 1]
            live = [(s.basis, s.project(u)) for s, u in zip(f.subspaces, pres) if s.dim]
            last = _sweep_map(f._chain[1], live, start)[0][-1]
            assert np.array_equal(last, np.eye(f.dim_sum + 1)[-1])
            y = start
            for sweeps in (1, 2):
                for s, u in reversed(list(zip(f.subspaces, pres))):
                    y = affine_project(AffineConstraint(s, s.project(u)), y)
                opts = SolveOptions(max_iter=sweeps, tol=1e-300)
                x, trace = best_approximation(start, f, pres, opts)
                assert trace.sweeps == sweeps
                bound = 4 * len(members) * eps * max(1.0, float(np.linalg.norm(x))) * sweeps
                assert np.linalg.norm(x - y) <= bound

    def test_no_square_array_is_built(self):
        # two planes in R^2000: one n-by-n float64 array would be 32 MB
        rng = rng_for(738)
        n = 2000
        f = random_family(rng, n, [2, 2])
        pres = random_prescription(rng, f)
        start = random_unit(rng, n)
        tracemalloc.start()
        try:
            _, trace = best_approximation(start, f, pres, SolveOptions(record_trace=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.converged
        assert peak < 4 * 2 ** 20


class TestCrossChecks:
    @pytest.mark.parametrize("field", FIELDS)
    def test_solve_two_equals_the_recursion_for_pairs(self, field):
        rng = rng_for(723)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            ku = int(rng.integers(1, n // 2 + 1))
            kv = int(rng.integers(1, n - ku + 1))
            f = random_family(rng, n, [ku, kv], field)
            pres = random_prescription(rng, f)
            a = solve_two(AffineConstraint(f[0], pres[0]), AffineConstraint(f[1], pres[1]))
            b = solve_min_norm(f, pres)
            # solve_two is the recursion's one level step, bit for bit
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("field", FIELDS)
    def test_chain_routes_match_the_stacked_route(self, field):
        """direct_solve and the iteration's reference read the level chain,
        cut at each level's rank on a dependent family;
        the oracle is numpy's SVD of the stacked rows cut at dim_sum.  Both
        are backward stable for the stacked system, whose condition over
        its rank is kappa = s_max / s_min, and each shifts toward the
        anchor along its own basis of the sum, accurate to about
        kappa eps; so they agree to c n eps kappa (||x|| + ||anchor||)
        with c = 4; over 600 random families the largest gap seen was 0.7
        of that bound at c = 1."""
        rng = rng_for(741)
        eps = np.finfo(float).eps
        kinds = Counter()
        for trial in range(60):
            n = int(rng.integers(4, 16))
            if trial % 4 == 3:
                f = dependent_family_with_witness(rng, n, field)[0]
            else:
                dims = random_independent_dims(rng, n, int(rng.integers(2, 5)))
                subs = [random_subspace(rng, n, k, field) for k in dims]
                # a zero-dimensional member on top, at the end, or none
                zero = [zero_subspace(n, field)]
                f = Family(tuple([zero + subs, subs + zero, subs][trial % 4]))
            x0 = random_unit(rng, n, field) * 2
            pres = [s.project(x0) for s in f.subspaces]
            anchor = random_unit(rng, n, field) * 3
            sv = np.linalg.svd(np.hstack([s.basis for s in f]), compute_uv=False)
            ref = svd_min_norm(f, pres, anchor=anchor)
            bound = 4 * n * eps * sv[0] / sv[f.dim_sum - 1] * (np.linalg.norm(ref) + 3)
            x = direct_solve(f, pres, anchor=anchor)
            assert np.linalg.norm(x - ref) <= bound
            _, trace = best_approximation(anchor, f, pres, SolveOptions(max_iter=1))
            assert abs(trace.initial_distance - np.linalg.norm(anchor - ref)) <= bound
            independent = verify_ibap(f).verdict
            kinds[independent] += 1
            if independent:
                assert np.array_equal(solve_min_norm(f, pres, anchor=anchor), x)
        assert kinds == {True: 45, False: 15}


class TestNonFiniteStartAndAnchor:
    """A non-finite start or anchor is refused where it enters the library,
    never carried through to a NaN answer."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_route_refuses_it(self, bad):
        rng = rng_for(742)
        f = random_family(rng, 6, [2, 3])
        pres = random_prescription(rng, f)
        v = np.zeros(6)
        v[2] = bad
        with pytest.raises(ValueError, match="anchor has non-finite entries"):
            direct_solve(f, pres, anchor=v)
        with pytest.raises(ValueError, match="anchor has non-finite entries"):
            solve_min_norm(f, pres, anchor=v)
        with pytest.raises(ValueError, match="start has non-finite entries"):
            best_approximation(v, f, pres)


class TestAffineFeasibility:
    def test_constraint_from_an_affine_set_describes_the_same_set(self):
        rng = rng_for(724)
        for _ in range(15):
            parallel = random_subspace(rng, 7, int(rng.integers(0, 7)))
            a = random_unit(rng, 7) * 2
            c = constraint_from_affine_set(a, parallel)
            # a itself and any parallel shift satisfy the constraint
            for shift in (np.zeros(7), parallel.project(random_unit(rng, 7) * 3)):
                y = a + shift
                assert np.linalg.norm(c.subspace.project(y) - c.point) <= 1e-10
            # a point off the set does not
            off = c.subspace.project(random_unit(rng, 7))
            if np.linalg.norm(off) > 1e-3:
                assert np.linalg.norm(c.subspace.project(a + off) - c.point) > 1e-6

    def test_independent_complements_make_affine_intersections_nonempty(self):
        # affine sets whose parallel-complement family is independent
        # always intersect; the intersection point lies in every set
        rng = rng_for(725)
        for _ in range(15):
            n = 8
            dims = random_independent_dims(rng, n, 3)
            normals = random_family(rng, n, dims)  # the complements' family
            assert verify_ibap(normals).verdict
            anchors = [random_unit(rng, n) * 2 for _ in range(3)]
            constraints = [constraint_from_affine_set(a, s.complement())
                           for a, s in zip(anchors, normals.subspaces)]
            fam = Family(tuple(c.subspace for c in constraints))
            x = direct_solve(fam, [c.point for c in constraints])
            for a, s in zip(anchors, normals.subspaces):
                parallel = s.complement()
                gap = (x - a) - parallel.project(x - a)
                assert np.linalg.norm(gap) <= 1e-8

    def test_full_space_member_is_handled(self):
        rng = rng_for(726)
        full = Subspace.full(5)
        f = Family((full, zero_subspace(5)))
        rep = verify_ibap(f)
        assert rep.verdict
        target = random_unit(rng, 5)
        x = solve_min_norm(f, [target, np.zeros(5)])
        assert np.allclose(x, target, atol=1e-10)
