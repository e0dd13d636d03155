"""Family-level decisions: independence, the property verdict and its
certificates, approximate solving, and feasibility certificates."""

import math

import numpy as np
import pytest

from ibap import (
    DependentFamilyError,
    Family,
    Subspace,
    check_independence,
    dependent_tuple,
    epsilon_solve,
    infeasibility_certificate,
    prescription_residual,
    trailing_sums,
    uniqueness_check,
    validate_prescription,
    verify_ibap,
)

from conftest import (
    FIELDS,
    dependent_family_with_witness,
    random_family,
    random_independent_dims,
    random_prescription,
    rng_for,
)
from oracles import complement_chain_alpha, dense_projector, pinv_min_norm, stacked_residual


def axes_family(n, m=None):
    m = n if m is None else m
    eye = np.eye(n)
    return Family(tuple(Subspace.from_spanning([eye[:, i]], n) for i in range(m)))


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
        f = Family((u, Subspace.zero(4)))
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
            tails = trailing_sums(f)
            for lev, tail in zip(rep.levels, tails):
                sub = f.subspaces[lev.index - 1]
                # oracle: the smallest norm of (I - P_tail) u over unit u in U_i
                # is the smallest singular value of (I - P_tail) B_i
                mat = (np.eye(9) - dense_projector(tail)) @ sub.basis
                smin = np.linalg.svd(mat, compute_uv=False)[-1]
                assert abs(smin - math.sqrt(1.0 - lev.norm ** 2)) <= 1e-10
                assert abs(lev.gamma - 1.0 / smin) <= 1e-6 * lev.gamma


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
