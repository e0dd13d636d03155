"""Family-level decisions: independence, the property verdict and its
certificates, approximate solving, and feasibility certificates."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from ibap import (
    DependentFamilyError,
    Family,
    IbapFailureError,
    InfeasiblePrescriptionError,
    SlowFamilySpec,
    SolveOptions,
    Subspace,
    best_approximation,
    check_independence,
    dependent_tuple,
    direct_solve,
    epsilon_solve,
    infeasibility_certificate,
    prescription_residual,
    slow_family,
    solve_min_norm,
    trailing_sums,
    uniqueness_check,
    validate_prescription,
    verify_ibap,
)
from ibap.cli import EXIT_INFEASIBLE, EXIT_NO_IBAP, EXIT_OK, main

from conftest import (
    FIELDS,
    dependent_family_with_witness,
    random_family,
    random_independent_dims,
    random_orthogonal,
    random_matrix,
    random_prescription,
    random_subspace,
    rng_for,
)
from oracles import (
    complement_chain_alpha,
    gram_rank,
    pinv_min_norm,
    reference_iteration,
    stacked_residual,
    trailing_sum_projectors,
    zero_subspace,
)


def axes_family(n, m=None):
    m = n if m is None else m
    eye = np.eye(n)
    return Family(tuple(Subspace.from_spanning([eye[:, i]], n) for i in range(m)))


def lines(*vectors):
    return Family(tuple(Subspace.from_spanning([v], len(v)) for v in vectors))


def pair_at_sine(rng, sine):
    """A 2- and a 3-dimensional subspace of R^8 meeting at the given sine."""
    q = random_orthogonal(rng, 8)
    u = Subspace.from_spanning([q[:, 0], q[:, 1]], 8)
    v = Subspace.from_spanning([np.sqrt(1 - sine ** 2) * q[:, 0] + sine * q[:, 2],
                                q[:, 3], q[:, 4]], 8)
    return Family((u, v))


class TestIndependence:
    def test_two_distinct_lines_in_the_plane(self):
        f = Family((Subspace.from_spanning([[1.0, 0.0]], 2),
                    Subspace.from_spanning([[1.0, 1.0]], 2)))
        assert check_independence(f)
        assert dependent_tuple(f) is None

    def test_two_planes_in_three_dims_are_dependent(self):
        # complements of two distinct intersecting lines
        f = Family((Subspace.from_spanning([[1, 0, 0]], 3).complement(),
                    Subspace.from_spanning([[0, 1, 0]], 3).complement()))
        assert not check_independence(f)
        witness = dependent_tuple(f)
        assert witness is not None
        total = witness[0] + witness[1]
        assert np.linalg.norm(total) <= 1e-10
        assert max(np.linalg.norm(w) for w in witness) > 0.5
        for s, w in zip(f.subspaces, witness):
            assert np.linalg.norm(s.project(w) - w) <= 1e-10

    def test_zero_member_never_breaks_independence(self):
        rng = rng_for(500)
        u = Subspace.from_spanning(list(rng.standard_normal((4, 2)).T), 4)
        f = Family((u, zero_subspace(4)))
        assert check_independence(f)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            Family(())
        with pytest.raises(ValueError):
            Family((Subspace.full(2), Subspace.full(3)))


class TestVerifyIbap:
    def test_coordinate_axes(self):
        rep = verify_ibap(axes_family(3))
        assert rep.verdict and rep.independent
        assert all(lev.norm == 0.0 for lev in rep.levels)
        assert all(lev.gamma == 1.0 for lev in rep.levels)
        assert rep.alpha == 0.0
        assert rep.sum_dims == rep.dim_sum == 3

    def test_dependent_planes(self):
        f = Family((Subspace.from_spanning([[1, 0, 0]], 3).complement(),
                    Subspace.from_spanning([[0, 1, 0]], 3).complement()))
        rep = verify_ibap(f)
        assert not rep.verdict and not rep.independent
        assert rep.levels[0].norm >= 1.0 - 1e-8
        assert rep.levels[0].degenerate
        assert math.isinf(rep.levels[0].gamma) or rep.levels[0].gamma > 1e4
        assert rep.alpha == 1.0

    def test_report_repr_of_two_lines(self):
        e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        assert repr(verify_ibap(lines(e0, e1))) == (
            "IbapReport(verdict=True, independent=True, levels=(LevelCertificate("
            "index=1, norm=0.0, cos_angle=0.0, gamma=1.0, degenerate=False),), "
            "alpha=0.0, sum_dims=2, dim_sum=2)")
        assert repr(verify_ibap(lines(e0, 3 * e0))) == (
            "IbapReport(verdict=False, independent=False, levels=(LevelCertificate("
            "index=1, norm=1.0, cos_angle=0.0, gamma=inf, degenerate=True),), "
            "alpha=1.0, sum_dims=2, dim_sum=1)")

    def test_report_is_a_named_tuple(self):
        rep = verify_ibap(lines(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        verdict, independent, levels, alpha, sum_dims, dim_sum = rep
        assert (verdict, independent, alpha, sum_dims, dim_sum) == (True, True, 0.0, 2, 2)
        assert levels[0] == (1, 0.0, 0.0, 1.0, False)
        assert list(levels[0]._asdict()) == ["index", "norm", "cos_angle", "gamma", "degenerate"]
        assert rep._replace(alpha=0.5).alpha == 0.5 and rep.alpha == 0.0

    def test_single_member_family_is_trivially_solvable(self):
        rng = rng_for(501)
        f = random_family(rng, 5, [3])
        rep = verify_ibap(f)
        assert rep.verdict
        assert rep.levels == ()
        assert rep.alpha == 0.0

    def test_random_independent_family_solves_prescriptions(self):
        rng = rng_for(502)
        f = random_family(rng, 6, [2, 1, 1])
        rep = verify_ibap(f)
        assert rep.verdict
        for _ in range(20):
            pres = random_prescription(rng, f)
            x = pinv_min_norm(f, pres)  # pseudoinverse oracle
            assert prescription_residual(f, pres, x) <= 1e-10

    @pytest.mark.parametrize("field", FIELDS)
    def test_verdict_equals_independence_and_norm_position(self, field):
        rng = rng_for(503)
        for trial in range(40):
            if trial % 2:
                f, _ = dependent_family_with_witness(rng, 8, field)
            else:
                dims = random_independent_dims(rng, 8, int(rng.integers(1, 5)))
                f = random_family(rng, 8, dims, field)
            rep = verify_ibap(f)
            assert rep.verdict == check_independence(f)
            assert rep.verdict == (rep.sum_dims == rep.dim_sum)
            if rep.verdict:
                assert all(lev.norm < 1.0 for lev in rep.levels)
                assert 0.0 <= rep.alpha < 1.0
            else:
                assert any(lev.norm >= 1.0 - 1e-8 for lev in rep.levels)

    def test_gamma_is_the_optimal_constant(self):
        rng = rng_for(504)
        for _ in range(20):
            dims = random_independent_dims(rng, 9, 3)
            f = random_family(rng, 9, dims)
            rep = verify_ibap(f)
            for lev, tail in zip(rep.levels, trailing_sum_projectors(f)):
                sub = f.subspaces[lev.index - 1]
                # oracle: the smallest norm of (I - P_tail) u over unit u in U_i
                # is the smallest singular value of (I - P_tail) B_i
                mat = (np.eye(9) - tail) @ sub.basis
                smin = np.linalg.svd(mat, compute_uv=False)[-1]
                assert abs(smin - math.sqrt(1.0 - lev.norm ** 2)) <= 1e-10
                assert abs(lev.gamma - 1.0 / smin) <= 1e-6 * lev.gamma


    @pytest.mark.parametrize("field", FIELDS)
    def test_gamma_is_infinite_exactly_at_rank_deficient_levels(self, field):
        # two lines at angle 1e-9: the level norm rounds to 1, yet gamma is 1e9
        lines = Family((Subspace.from_spanning([[1.0, 0.0]], 2, field),
                        Subspace.from_spanning([[1.0, 1e-9]], 2, field)))
        assert abs(verify_ibap(lines).levels[0].gamma - 1e9) <= 1e-6 * 1e9
        # the slow family at that angle: its level norm rounds to 1, and the
        # level is not degenerate, as the verdict says
        rep = verify_ibap(slow_family(SlowFamilySpec(1, (1e-9,)))[0])
        assert rep.levels[0].norm == 1.0
        assert rep.verdict and not rep.levels[0].degenerate
        rng = rng_for(506)
        families = []
        for trial in range(30):
            if trial % 2:
                families.append(dependent_family_with_witness(rng, 8, field)[0])
            else:
                dims = random_independent_dims(rng, 8, int(rng.integers(2, 5)))
                families.append(random_family(rng, 8, dims, field))
        deficient_levels = 0
        for f in families:
            rep = verify_ibap(f)
            for lev, tail in zip(rep.levels, trailing_sum_projectors(f)):
                later = [v for s in f.subspaces[lev.index:] for v in s.basis.T]
                sub = f.subspaces[lev.index - 1]
                deficient = gram_rank(list(sub.basis.T) + later) < sub.dim + gram_rank(later)
                assert math.isinf(lev.gamma) == deficient == lev.degenerate
                if deficient:
                    deficient_levels += 1
                    continue
                n = f.ambient_dim
                smin = np.linalg.svd((np.eye(n) - tail) @ sub.basis, compute_uv=False)[-1]
                assert abs(lev.gamma - 1.0 / smin) <= 1e-6 * lev.gamma
            # the verdict, the flags and gamma read one rank decision
            assert rep.verdict == (not any(lev.degenerate for lev in rep.levels))
        assert deficient_levels == 15

    @pytest.mark.parametrize("field", FIELDS)
    def test_alpha_matches_the_complement_chain(self, field):
        rng = rng_for(130)
        for _ in range(25):
            n = int(rng.integers(4, 12))
            m = int(rng.integers(1, 5))
            f = random_family(rng, n, random_independent_dims(rng, n, m), field)
            report = verify_ibap(f)
            assert report.verdict
            assert abs(report.alpha - complement_chain_alpha(f)) <= 1e-12


class TestEpsilonSolve:
    def test_axes_prescription(self):
        f = axes_family(2)
        x = epsilon_solve(f, [np.array([2.0, 0.0]), np.array([0.0, 3.0])], 1e-6)
        assert np.allclose(x, [2.0, 3.0], atol=1e-12)

    def test_zero_prescription_gives_zero(self):
        rng = rng_for(505)
        f = random_family(rng, 5, [2, 2])
        x = epsilon_solve(f, [np.zeros(5), np.zeros(5)], 1e-9)
        assert np.linalg.norm(x) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_random_family_reaches_numerical_exactness(self, field):
        rng = rng_for(506)
        for _ in range(10):
            dims = random_independent_dims(rng, 8, int(rng.integers(1, 5)))
            f = random_family(rng, 8, dims, field)
            pres = random_prescription(rng, f)
            x = epsilon_solve(f, pres, 1e-6)
            assert prescription_residual(f, pres, x) <= 1e-10

    def test_dependent_family_raises_with_certificate(self):
        rng = rng_for(507)
        f, _ = dependent_family_with_witness(rng, 7)
        pres = [np.zeros(7, dtype=f.dtype) for _ in range(len(f))]
        with pytest.raises(DependentFamilyError) as err:
            epsilon_solve(f, pres, 1e-8)
        cert = err.value.certificate
        assert max(np.linalg.norm(u) for u in cert) > 0.5
        assert np.linalg.norm(sum(cert)) <= 1e-8
        for s, u in zip(f.subspaces, cert):
            assert np.linalg.norm(s.project(u) - u) <= 1e-8

    def test_membership_violation_is_an_error(self):
        f = axes_family(2)
        with pytest.raises(ValueError):
            epsilon_solve(f, [np.array([2.0, 1.0]), np.array([0.0, 3.0])], 1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prescription_is_an_error(self, bad):
        f = axes_family(2)
        with pytest.raises(ValueError, match="non-finite"):
            validate_prescription(f, [np.array([bad, 0.0]), np.array([0.0, 3.0])])

    def test_the_achieved_residual_of_a_large_solution_is_checked(self):
        # every prescription of the pair is feasible, yet its solution has
        # norm near 1e9, and the stacked residual that the point achieves,
        # rounding of size eps ||x||, is far above epsilon
        for seed in range(5):
            rng = rng_for(seed)
            f = pair_at_sine(rng, 1e-9)
            pres = random_prescription(rng, f)
            assert infeasibility_certificate(f, pres) is None
            with pytest.raises(ArithmeticError, match="exceeds epsilon"):
                epsilon_solve(f, pres, 1e-12)

    def test_nonpositive_epsilon_is_an_error(self):
        f = axes_family(2)
        with pytest.raises(ValueError):
            epsilon_solve(f, [np.zeros(2), np.zeros(2)], 0.0)


class TestInfeasibility:
    def fixture_zero_sum(self):
        u1 = Subspace.from_spanning([[1.0, 0.0]], 2)
        u2 = Subspace.from_spanning([[0.0, 1.0]], 2)
        u3 = Subspace.from_spanning([np.array([1.0, 1.0]) / np.sqrt(2)], 2)
        f = Family((u1, u2, u3))
        pres = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, -1.0])]
        return f, pres

    def test_zero_sum_prescription_is_certified_infeasible(self):
        f, pres = self.fixture_zero_sum()
        assert np.linalg.norm(sum(pres)) == 0.0
        cert = infeasibility_certificate(f, pres)
        assert cert is not None
        assert cert.residual > 1e-8
        assert stacked_residual(f, pres) > 1e-2  # oracle confirms a real gap

    def test_zero_prescription_is_feasible(self):
        f, _ = self.fixture_zero_sum()
        pres = [np.zeros(2) for _ in range(3)]
        assert infeasibility_certificate(f, pres) is None

    def test_random_independent_prescriptions_are_feasible(self):
        rng = rng_for(508)
        for _ in range(15):
            dims = random_independent_dims(rng, 7, 3)
            f = random_family(rng, 7, dims)
            pres = random_prescription(rng, f)
            assert infeasibility_certificate(f, pres) is None
            assert stacked_residual(f, pres) <= 1e-10

    def test_no_certificate_implies_an_accurate_epsilon_solve(self):
        rng = rng_for(511)
        for _ in range(15):
            dims = random_independent_dims(rng, 8, int(rng.integers(1, 5)))
            f = random_family(rng, 8, dims)
            pres = random_prescription(rng, f)
            if infeasibility_certificate(f, pres) is None:
                x = epsilon_solve(f, pres, 1e-6)
                assert prescription_residual(f, pres, x) <= 1e-10

    def test_large_solutions_of_independent_families_are_feasible(self):
        # a 2- and a 3-dimensional subspace of R^8 meeting at sine 1e-9:
        # generic prescriptions have solutions of norm near 1e9, whose
        # stacked residual is rounding of size eps ||x||, far above
        # FEASIBILITY_RTOL (1 + ||b||); the test reads the distance of b
        # from the kept range instead, which for an independent family is
        # the whole coefficient space, so that only b's rounding enters
        eps = np.finfo(float).eps
        for seed in range(200):
            rng = rng_for(seed)
            f = pair_at_sine(rng, 1e-9)
            assert verify_ibap(f).verdict
            pres = random_prescription(rng, f)
            assert infeasibility_certificate(f, pres) is None
            x = direct_solve(f, pres).particular
            assert prescription_residual(f, pres, x) <= 8 * eps * np.linalg.norm(x)

    def test_zero_sum_prescriptions_of_dependent_families_stay_infeasible(self):
        for seed in range(200):
            rng = rng_for(seed)
            f, witness = dependent_family_with_witness(rng, int(rng.integers(6, 12)))
            cert = infeasibility_certificate(f, witness)
            assert cert is not None and cert.residual > 1e-8

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("delta", [1e-9, 1e-13])
    def test_contradiction_with_a_large_minimal_norm_point_stays_infeasible(self, delta,
                                                                            rotated, tmp_path):
        # lines along e0, e0 + delta e1, e2 and e2 again: the first two meet
        # at sine delta, so the least-squares point has norm near 1 / delta,
        # yet the coordinates along e2 ask for both 0 and 1: b = (0, 1, 0, 1)
        # lies at 1/sqrt(2) from the range of the stacked system.  The
        # rounding allowance of that range grows like 1 / delta and passes
        # 1/sqrt(2) near delta = 7e-15 (it is 2.5 at 2e-15), below which the
        # contradiction is undecidable; the rotated copy applies one random
        # orthogonal matrix to every vector, so no block structure helps
        e = random_orthogonal(rng_for(1602), 3).T if rotated else np.eye(3)
        vectors = (e[0], e[0] + delta * e[1], e[2], e[2])
        f = lines(*vectors)
        assert f._stacked[3] == f.dim_sum == 3 and not verify_ibap(f).verdict
        pres = [np.zeros(3), f[1].basis[:, 0], np.zeros(3), e[2]]
        cert = infeasibility_certificate(f, pres)
        assert np.linalg.norm(cert.best_point) > 1e8
        with pytest.raises(InfeasiblePrescriptionError) as err:
            direct_solve(f, pres)
        if not rotated:
            assert abs(cert.residual - math.sqrt(0.5)) <= 1e-12
            assert abs(err.value.certificate.residual - math.sqrt(0.5)) <= 1e-12
        with pytest.raises(InfeasiblePrescriptionError):
            best_approximation(np.zeros(3), f, pres)
        doc = {"field": "real", "ambient_dim": 3,
               "subspaces": [{"vectors": [list(v)]} for v in vectors],
               "prescription": [list(u) for u in pres]}
        path = tmp_path / "contradiction.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--method", "direct"]) == EXIT_INFEASIBLE
        assert main(["iterate", str(path)]) == EXIT_INFEASIBLE

    def test_large_solutions_of_dependent_families_are_feasible(self, tmp_path):
        # the pair at sine 1e-9 with its first member repeated and given the
        # same vector: feasible, with solutions of norm near 1e9.  Rounding
        # turns the computed kept range toward its boundary direction by
        # about eps / 1e-9, so b's distance from it is near 1e-7 ||b||, far
        # above FEASIBILITY_RTOL (1 + ||b||) but within the rounding allowance
        eps = np.finfo(float).eps
        for seed in range(10):
            rng = rng_for(seed)
            pair = pair_at_sine(rng, 1e-9)
            f = Family(pair.subspaces + (pair[0],))
            assert f.dim_sum == 5 and not verify_ibap(f).verdict
            u, v = random_prescription(rng, pair)
            pres = [u, v, u]
            assert infeasibility_certificate(f, pres) is None
            solution = direct_solve(f, pres)
            x = solution.particular
            reference = direct_solve(pair, [u, v]).particular
            assert np.linalg.norm(x - reference) <= 1e-5 * np.linalg.norm(reference)
            assert prescription_residual(f, pres, x) <= 8 * eps * np.linalg.norm(x)
            assert solution.parallel.dim == 8 - 5
            best_approximation(np.zeros(8), f, pres, SolveOptions(max_iter=2))
        doc = {"field": "real", "ambient_dim": 8,
               "subspaces": [{"vectors": [list(c) for c in s.basis.T]} for s in f],
               "prescription": [list(p) for p in pres]}
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--method", "direct"]) == EXIT_OK
        assert main(["iterate", str(path), "--max-iter", "2"]) == EXIT_OK

    def test_certificate_mentions_membership_errors(self):
        f, pres = self.fixture_zero_sum()
        pres[0] = np.array([1.0, 0.5])
        with pytest.raises(ValueError):
            infeasibility_certificate(f, pres)


class TestUniqueness:
    def test_axes_in_the_plane(self):
        assert uniqueness_check(axes_family(2))

    def test_single_line_in_three_dims(self):
        f = Family((Subspace.from_spanning([[1, 0, 0]], 3),))
        assert not uniqueness_check(f)

    def test_full_dimension_split_is_unique(self):
        rng = rng_for(509)
        for _ in range(10):
            f = random_family(rng, 6, [2, 3, 1])
            assert check_independence(f)
            assert uniqueness_check(f)

    def test_deficient_split_is_not_unique(self):
        rng = rng_for(510)
        f = random_family(rng, 6, [2, 2])
        assert not uniqueness_check(f)


#: the level rank cutoff of a line against a line in R^2: max(shape) * eps
LINE_CUTOFF = 2 * np.finfo(np.float64).eps


class TestRankCutoff:
    """The verdict, the dimension of the sum, the parallel subspace, the
    check exit code and the recursion's guard agree on either side of the
    level rank cutoff."""

    @pytest.mark.parametrize("factor, independent", [(10.0, True), (1.5, True), (0.1, False)])
    def test_two_lines_near_the_cutoff(self, factor, independent, tmp_path):
        theta = factor * LINE_CUTOFF
        f = Family((Subspace.from_spanning([[1.0, 0.0]], 2),
                    Subspace.from_spanning([[1.0, theta]], 2)))
        report = verify_ibap(f)
        assert report.verdict == check_independence(f) == independent
        assert [lev.degenerate for lev in report.levels] == [not independent]
        assert f.dim_sum == (2 if independent else 1)
        assert direct_solve(f, [np.zeros(2)] * 2).parallel.dim == 2 - f.dim_sum
        pres = [np.array([1.0, 0.0]), np.zeros(2)]
        doc = {"field": "real", "ambient_dim": 2,
               "subspaces": [{"vectors": [[1.0, 0.0]]}, {"vectors": [[1.0, theta]]}],
               "prescription": [list(u) for u in pres]}
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(doc))
        code = EXIT_OK if independent else EXIT_NO_IBAP
        assert main(["check", str(path)]) == code
        assert main(["solve", str(path), "--method", "recursion"]) == code
        eps = np.finfo(float).eps
        # the iteration sweeps in the chain basis T of the sum; below the
        # cutoff T is one column and drops a direction of the first line,
        # yet from a start on that line it ends like the per-constraint sweep
        start, zero = np.array([1.0, 0.0]), [np.zeros(2)] * 2
        x, trace = best_approximation(start, f, zero)
        _, ref, _ = reference_iteration(start, f, zero)
        assert (trace.sweeps, trace.converged) == (ref.sweeps, ref.converged)
        assert trace.residuals[-1] <= 4 * eps
        assert prescription_residual(f, zero, x) <= 4 * eps
        # the recursion refuses exactly where the level's rank decision does
        if independent:
            # the stored lines are componentwise within eps of (1, 0) and
            # (1, theta), so both routes land within a few eps, relative, of
            # the exact solution (1, -1/theta), whose norm is 2e14
            x = solve_min_norm(f, pres)
            assert prescription_residual(f, pres, x) <= 4 * eps
            y = direct_solve(f, pres).particular
            assert np.linalg.norm(x - y) <= 4 * eps * np.linalg.norm(y)
            assert abs(x[1] * theta + 1.0) <= 4 * eps
        else:
            with pytest.raises(IbapFailureError):
                solve_min_norm(f, pres)

    @pytest.mark.parametrize("at_top", [True, False])
    def test_zero_dimensional_member_at_either_end(self, at_top):
        rng = rng_for(511)
        subs = [random_subspace(rng, 6, 2), random_subspace(rng, 6, 3)]
        zero = zero_subspace(6)
        f = Family(tuple([zero] + subs if at_top else subs + [zero]))
        rep = verify_ibap(f)
        lev = rep.levels[0] if at_top else rep.levels[-1]
        assert (lev.norm, lev.gamma, lev.degenerate) == (0.0, 1.0, False)
        assert rep.verdict and f.dim_sum == 5

    @pytest.mark.parametrize("sine", [1e-6, 1e-9])
    def test_trailing_sums_stay_orthonormal_at_a_small_middle_angle(self, sine):
        rng = rng_for(512)
        n = 12
        last = random_subspace(rng, n, 4)
        near = last.basis[:, 0] + sine * rng.standard_normal(n)
        middle = Subspace.from_spanning(list(rng.standard_normal((2, n))) + [near], n)
        f = Family((random_subspace(rng, n, 3), middle, last))
        # Subspace checks each basis for orthonormality to 1e-12
        tails = trailing_sums(f)
        assert [t.dim for t in tails] == [7, 4]
        for i, tail in enumerate(tails):
            for later in f.subspaces[i + 1:]:
                gap = later.basis - tail.basis @ (tail.basis.T @ later.basis)
                assert np.abs(gap).max() <= 1e-12


def near_dependent_family(rng, field):
    """A random family, n from 3 to 13 with 2 to 4 members, in which one
    spanning column is a combination of the other members' columns plus a
    perturbation of norm 1e-17 to 1e-12."""
    n = int(rng.integers(3, 14))
    dims = random_independent_dims(rng, n, int(rng.integers(2, min(4, n) + 1)))
    mats = [random_matrix(rng, n, k, field) for k in dims]
    j = int(rng.integers(len(mats)))
    others = np.hstack(mats[:j] + mats[j + 1:])
    col = others @ random_matrix(rng, others.shape[1], 1, field)[:, 0]
    pert = random_matrix(rng, n, 1, field)[:, 0]
    delta = 10 ** rng.uniform(-17, -12)
    mats[j][:, int(rng.integers(dims[j]))] = (col / np.linalg.norm(col)
                                              + delta * pert / np.linalg.norm(pert))
    return Family(tuple(Subspace.from_spanning(list(m.T), n, field=field) for m in mats))


class TestStackedRoute:
    """direct_solve, infeasibility_certificate and a dependent family's
    iteration cut the stacked SVD at dim_sum, the level chain's rank, and
    call a prescription infeasible by the distance of its stacked
    coordinates b from the range kept at that rank, beyond that range's
    rounding."""

    @pytest.mark.parametrize("field", FIELDS)
    def test_the_stacked_rank_is_dim_sum_next_to_dependence(self, field):
        rng = rng_for(1601)
        built = Counter()
        for _ in range(300):
            f = near_dependent_family(rng, field)
            rank = f._stacked[3]
            # where the stacked values showed full rank the chain was not
            # built; dim_sum builds it now, and it must agree
            built["_chain" in f.__dict__] += 1
            assert rank == f.dim_sum
            zero = [np.zeros(f.ambient_dim, dtype=f.dtype)] * len(f)
            assert direct_solve(f, zero).parallel.dim == f.ambient_dim - f.dim_sum
        assert built[True] > 50 and built[False] > 50

    @pytest.mark.parametrize("s", [3e-8, 1e-8, 1e-9])
    def test_three_lines_with_a_deficient_stack_are_solved(self, s):
        # (0, 1, s), (1, s, 0) and e0: both level sines are s, far above
        # the cutoff, but the stacked smallest singular value is s^2 / sqrt(2),
        # below the stacked matrix's own cutoff
        f = lines(np.array([0.0, 1.0, s]), np.array([1.0, s, 0.0]), np.eye(3)[0])
        _, sv, _, rank = f._stacked
        assert verify_ibap(f).verdict and rank == f.dim_sum == 3
        assert sv[-1] <= 3 * np.finfo(float).eps * sv[0]
        for seed in range(5):
            pres = random_prescription(rng_for(seed), f)
            solution = direct_solve(f, pres)
            x = solve_min_norm(f, pres)
            assert np.linalg.norm(solution.particular - x) <= 1e-6 * np.linalg.norm(x)
            assert solution.parallel.dim == 3 - f.dim_sum == 0
