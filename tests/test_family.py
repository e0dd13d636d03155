"""Family-level decisions: independence, the property verdict and its
certificates, exact solving, and feasibility certificates."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from ibap import (
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
    field_dtype,
    infeasibility_certificate,
    prescription_residual,
    slow_family,
    solve_min_norm,
    solve_operator_system,
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
    parallel_subspace,
    pinv_min_norm,
    reference_iteration,
    stacked_residual,
    svd_min_norm,
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


class TestExactSolve:
    """In finite dimension a prescription met within every epsilon > 0 is
    met exactly: direct_solve's point is exact up to rounding."""

    def test_axes_prescription(self):
        f = axes_family(2)
        x = direct_solve(f, [np.array([2.0, 0.0]), np.array([0.0, 3.0])])
        assert np.allclose(x, [2.0, 3.0], atol=1e-12)

    def test_zero_prescription_gives_zero(self):
        rng = rng_for(505)
        f = random_family(rng, 5, [2, 2])
        x = direct_solve(f, [np.zeros(5), np.zeros(5)])
        assert np.linalg.norm(x) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_random_family_reaches_numerical_exactness(self, field):
        rng = rng_for(506)
        for _ in range(10):
            dims = random_independent_dims(rng, 8, int(rng.integers(1, 5)))
            f = random_family(rng, 8, dims, field)
            pres = random_prescription(rng, f)
            x = direct_solve(f, pres)
            assert prescription_residual(f, pres, x) <= 1e-10

    def test_dependent_family_has_a_dependent_tuple(self):
        rng = rng_for(507)
        f, _ = dependent_family_with_witness(rng, 7)
        assert not check_independence(f)
        cert = dependent_tuple(f)
        assert max(np.linalg.norm(u) for u in cert) > 0.5
        assert np.linalg.norm(sum(cert)) <= 1e-8
        for s, u in zip(f.subspaces, cert):
            assert np.linalg.norm(s.project(u) - u) <= 1e-8

    def test_membership_violation_is_an_error(self):
        f = axes_family(2)
        with pytest.raises(ValueError, match="not in its subspace"):
            direct_solve(f, [np.array([2.0, 1.0]), np.array([0.0, 3.0])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prescription_is_an_error(self, bad):
        f = axes_family(2)
        with pytest.raises(ValueError, match="non-finite"):
            validate_prescription(f, [np.array([bad, 0.0]), np.array([0.0, 3.0])])


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

    def test_a_family_of_zero_subspaces_is_feasible(self):
        # its stacked coordinates, and so every norm the rule takes, are empty
        f = Family((zero_subspace(3), zero_subspace(3)))
        pres = [np.zeros(3), np.zeros(3)]
        assert infeasibility_certificate(f, pres) is None
        assert np.array_equal(direct_solve(f, pres), np.zeros(3))

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

    def test_no_certificate_implies_an_accurate_direct_solve(self):
        rng = rng_for(511)
        for _ in range(15):
            dims = random_independent_dims(rng, 8, int(rng.integers(1, 5)))
            f = random_family(rng, 8, dims)
            pres = random_prescription(rng, f)
            if infeasibility_certificate(f, pres) is None:
                x = direct_solve(f, pres)
                assert prescription_residual(f, pres, x) <= 1e-10

    @pytest.mark.parametrize("field", FIELDS)
    def test_every_route_raises_the_one_certificate(self, field):
        # stacked_lstsq builds the one certificate of each refusal, and
        # every route hands it the validated prescription: the iteration
        # projects the prescription onto the subspaces for its sweeps only
        e0 = np.eye(3, dtype=field_dtype(field))[0]
        f = lines(e0, e0)
        pres = [e0, -e0]
        for g, w in ((f, pres), dependent_family_with_witness(rng_for(512), 7, field)):
            cert = infeasibility_certificate(g, w)
            for route in (lambda: direct_solve(g, w),
                          lambda: best_approximation(np.zeros(g.ambient_dim), g, w)):
                with pytest.raises(InfeasiblePrescriptionError) as refused:
                    route()
                assert refused.value.certificate.residual == cert.residual
                assert np.array_equal(refused.value.certificate.best_point, cert.best_point)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-600, -30, 30, 600])
    @pytest.mark.parametrize("field", FIELDS)
    def test_a_scaled_witness_scales_every_certificate(self, field, k):
        # scaling by 2^k is exact, and so is every product of the judging
        # pass and every norm taken at a power of two: each route refuses
        # the witness times 2^k with its residual times 2^k
        g, w = dependent_family_with_witness(rng_for(513), 7, field)
        scale = 2.0 ** k
        unit = infeasibility_certificate(g, w).residual
        scaled = [u * scale for u in w]
        assert infeasibility_certificate(g, scaled).residual == unit * scale
        for route in (lambda: direct_solve(g, scaled),
                      lambda: best_approximation(np.zeros(g.ambient_dim), g, scaled)):
            with pytest.raises(InfeasiblePrescriptionError) as refused:
                route()
            assert refused.value.certificate.residual == unit * scale

    def test_large_solutions_of_independent_families_are_feasible(self):
        # a 2- and a 3-dimensional subspace of R^8 meeting at sine 1e-9:
        # generic prescriptions have solutions of norm near 1e9, whose
        # stacked residual is rounding of size eps ||x||, far above
        # MEMBERSHIP_RTOL ||b||; the test reads each level's null part
        # instead, and an independent family's levels have none
        eps = np.finfo(float).eps
        for seed in range(200):
            rng = rng_for(seed)
            f = pair_at_sine(rng, 1e-9)
            assert verify_ibap(f).verdict
            pres = random_prescription(rng, f)
            assert infeasibility_certificate(f, pres) is None
            x = direct_solve(f, pres)
            assert prescription_residual(f, pres, x) <= 8 * eps * np.linalg.norm(x)

    @pytest.mark.parametrize("field", FIELDS)
    def test_the_certificate_residual_is_the_residual_of_its_point(self, field):
        # best_point meets every constraint but the refused level's along
        # its kept directions, so its largest constraint residual is the
        # refused null part
        for seed in range(50):
            f, witness = dependent_family_with_witness(rng_for(seed), 7, field)
            cert = infeasibility_certificate(f, witness)
            got = prescription_residual(f, witness, cert.best_point)
            assert abs(got - cert.residual) <= 1e-10 * cert.residual

    def test_zero_sum_prescriptions_of_dependent_families_stay_infeasible(self):
        for seed in range(200):
            rng = rng_for(seed)
            f, witness = dependent_family_with_witness(rng, int(rng.integers(6, 12)))
            cert = infeasibility_certificate(f, witness)
            assert cert is not None and cert.residual > 1e-8

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("delta", [1e-9, 1e-13, 7e-15, 2e-15, 1e-15])
    def test_contradiction_with_a_large_minimal_norm_point_stays_infeasible(self, delta,
                                                                            rotated, tmp_path):
        # lines along e0, e0 + delta e1, e2 and e2 again: the first two meet
        # at sine delta, so the chain's point has norm near 1 / delta, yet
        # the coordinates along e2 ask for both 0 and 1.  The level of the
        # third line against the fourth is degenerate, and its null part is
        # |e2^H (0 - e2)| = 1; no small sine lies below it, so its rounding
        # allowance stays near eps at every delta down to the line cutoff
        # 3 eps; the rotated copy applies one random orthogonal matrix to
        # every vector, so no block structure helps
        e = random_orthogonal(rng_for(1602), 3).T if rotated else np.eye(3)
        vectors = (e[0], e[0] + delta * e[1], e[2], e[2])
        f = lines(*vectors)
        assert f.dim_sum == 3 and not verify_ibap(f).verdict
        pres = [np.zeros(3), f[1].basis[:, 0], np.zeros(3), e[2]]
        cert = infeasibility_certificate(f, pres)
        assert np.linalg.norm(cert.best_point) > 1e8
        with pytest.raises(InfeasiblePrescriptionError, match="at level 3") as err:
            direct_solve(f, pres)
        if not rotated:
            assert abs(cert.residual - 1.0) <= 1e-12
            assert abs(err.value.certificate.residual - 1.0) <= 1e-12
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
        # same vector: feasible, with solutions of norm near 1e9.  The
        # repeated member's level is degenerate, and its null part is the
        # rounding of the stage below, of size eps ||x||, far above
        # MEMBERSHIP_RTOL ||b|| but within the allowance 4 n eps ||v||
        eps = np.finfo(float).eps
        for seed in range(10):
            rng = rng_for(seed)
            pair = pair_at_sine(rng, 1e-9)
            f = Family(pair.subspaces + (pair[0],))
            assert f.dim_sum == 5 and not verify_ibap(f).verdict
            u, v = random_prescription(rng, pair)
            pres = [u, v, u]
            assert infeasibility_certificate(f, pres) is None
            x = direct_solve(f, pres)
            reference = direct_solve(pair, [u, v])
            assert np.linalg.norm(x - reference) <= 1e-5 * np.linalg.norm(reference)
            assert prescription_residual(f, pres, x) <= 8 * eps * np.linalg.norm(x)
            assert parallel_subspace(f).dim == 8 - 5
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


class TestNormsAtExtremeScales:
    """The feasibility rule (family.stacked_lstsq), its point and
    prescription_residual take each norm at a power of
    two: a problem scaled by 2^600 or 2^-600, which is exact, gives its
    results times that scale where the unscaled squares would over- or
    underflow.  Feasibility and membership are judged relative to the
    problem's own size, so a refusal holds at every scale."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_large_contradiction_is_refused(self):
        # the line through e0 prescribed e0 and -e0, scaled by 2^600
        scale = 2.0 ** 600
        e0 = np.eye(3)[0]
        f = lines(e0, e0)
        big = [scale * e0, -scale * e0]
        residual = infeasibility_certificate(f, [e0, -e0]).residual
        assert infeasibility_certificate(f, big).residual == residual * scale
        with pytest.raises(InfeasiblePrescriptionError) as err:
            direct_solve(f, big)
        assert err.value.certificate.residual == residual * scale
        with pytest.raises(InfeasiblePrescriptionError):
            best_approximation(np.zeros(3), f, big)
        with pytest.raises(ValueError, match="not in the range of its operator"):
            solve_operator_system([[[1.0, 0.0], [1.0, 0.0]]], [[scale, -scale]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-600, -30, 0, 30, 600])
    def test_a_contradiction_is_refused_at_every_scale(self, k):
        # the feasibility and membership rules are relative: the level of
        # the first line against the second has the null part
        # |e0^H (2^k e0 + 2^k e0)| = 2^(k + 1), and 2^k e2 lies wholly off the line
        scale = 2.0 ** k
        e = np.eye(3)
        f = lines(e[0], e[0])
        big = [scale * e[0], -scale * e[0]]
        assert infeasibility_certificate(f, big).residual == scale * 2.0
        with pytest.raises(InfeasiblePrescriptionError):
            direct_solve(f, big)
        with pytest.raises(InfeasiblePrescriptionError):
            best_approximation(np.zeros(3), f, big)
        with pytest.raises(ValueError, match="not in the range of its operator"):
            solve_operator_system([[[1.0, 0.0], [1.0, 0.0]]], [[scale, -scale]])
        with pytest.raises(ValueError, match="not in its subspace"):
            f[0].member(scale * e[2])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600], ids=["2^600", "2^-600"])
    def test_direct_solve_is_the_solve_times_the_scale(self, scale):
        e = np.eye(3)
        f = lines(e[0], e[0] + e[1])
        pres = [e[0], e[0] + e[1]]
        x = direct_solve(f, pres)
        big = [u * scale for u in pres]
        big_x = direct_solve(f, big)
        assert np.array_equal(big_x, x * scale)
        assert prescription_residual(f, big, big_x) == prescription_residual(f, pres, x) * scale


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
        assert not direct_solve(f, [np.zeros(2)] * 2).any()
        assert parallel_subspace(f).dim == 2 - f.dim_sum
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
            y = direct_solve(f, pres)
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


def dependent_above_near_levels(rng, n, levels, top_in_gp=False, near_on_near=False):
    """A dependent family of n-vectors, top first: a line D inside a
    generic plane G, then `levels` lines at sines of 1.5 to 100 times the
    line cutoff n eps against the sum below each, each leaning toward a
    direction of a generic plane P, then G and P.  D is the dependent
    member; the near-cutoff levels lie between it and the plane it lies in.
    With top_in_gp, D is drawn in G + P instead of G; with near_on_near,
    each near line also leans toward the directions in which the earlier
    near lines leave the sum below them, as (0, 1, s) leans on (1, s, 0)
    above e0, which keeps its sine but takes the stack's smallest kept
    singular value to the product of sines."""
    p, g = random_subspace(rng, n, 2), random_subspace(rng, n, 2)
    tail = np.linalg.qr(np.hstack([g.basis, p.basis]))[0]
    near = []
    for _ in range(levels):
        a = p.basis @ rng.standard_normal(2)
        if near_on_near and near:
            a = a + tail[:, 4:] @ rng.standard_normal(len(near))
        w = rng.standard_normal(n)
        for _ in range(2):
            w -= tail @ (tail.T @ w)
        sine = 10 ** rng.uniform(math.log10(1.5), 2) * n * np.finfo(float).eps
        v = math.sqrt(1 - sine * sine) * a / np.linalg.norm(a) + sine * w / np.linalg.norm(w)
        near.insert(0, Subspace.from_spanning([v], n))
        tail = np.column_stack([tail, w / np.linalg.norm(w)])
    plane = np.hstack([g.basis, p.basis]) if top_in_gp else g.basis
    top = Subspace.from_spanning([plane @ rng.standard_normal(plane.shape[1])], n)
    return Family((top, *near, g, p))


class TestStackedRoute:
    """On a family that the chain shows dependent, direct_solve,
    infeasibility_certificate and the iteration cut each level step at the
    level's rank, and call a prescription infeasible where a level's null
    part exceeds MEMBERSHIP_RTOL ||b|| plus its propagated rounding."""

    @pytest.mark.parametrize("field", FIELDS)
    def test_the_stacked_rank_is_dim_sum_next_to_dependence(self, field):
        rng = rng_for(1601)
        seen = Counter()
        for _ in range(300):
            f = near_dependent_family(rng, field)
            independent = check_independence(f)
            seen[independent] += 1
            zero = [np.zeros(f.ambient_dim, dtype=f.dtype)] * len(f)
            assert not direct_solve(f, zero).any()
            # the level chain is the one factorization cached on either kind
            assert [key for key in f.__dict__ if key != "subspaces"] == ["_chain"]
            assert parallel_subspace(f).dim == f.ambient_dim - f.dim_sum
        assert seen[True] > 50 and seen[False] > 50

    @pytest.mark.parametrize("variant", [{}, {"top_in_gp": True}, {"near_on_near": True}],
                             ids=["as-generated", "top-in-gp", "near-on-near"])
    def test_contradictions_above_near_cutoff_levels_are_refused(self, variant):
        # the sharpness of the feasibility test below a dependent member:
        # every feasible prescription P_i x is accepted, and at least 3/4 of
        # the contradictions that move the dependent member's vector by
        # 1e-3 ||x|| along its line are refused (1500 of 1500 in each
        # variant at this seed)
        rng = rng_for(1602)
        refused = Counter()
        for _ in range(1500):
            n = int(rng.integers(8, 13))
            f = dependent_above_near_levels(rng, n, int(rng.integers(2, 5)), **variant)
            assert not check_independence(f) and f.dim_sum == len(f) + 1
            assert all(not lev.degenerate for lev in verify_ibap(f).levels[1:])
            x = rng.standard_normal(n)
            pres = [s.project(x) for s in f]
            refused["feasible"] += infeasibility_certificate(f, pres) is not None
            pres[0] = pres[0] + 1e-3 * np.linalg.norm(x) * f[0].basis[:, 0]
            refused["contradiction"] += infeasibility_certificate(f, pres) is not None
        assert refused["feasible"] == 0 and refused["contradiction"] >= 1125

    @pytest.mark.parametrize("s", [3e-8, 1e-8, 1e-9])
    def test_three_lines_with_a_deficient_stack_are_solved(self, s):
        # (0, 1, s), (1, s, 0) and e0: both level sines are s, far above
        # the cutoff, but the stack's smallest singular value is s^2 / sqrt(2),
        # below the stacked matrix's own cutoff: the chain reads no stack
        f = lines(np.array([0.0, 1.0, s]), np.array([1.0, s, 0.0]), np.eye(3)[0])
        for seed in range(5):
            pres = random_prescription(rng_for(seed), f)
            x = direct_solve(f, pres)
            reference = svd_min_norm(f, pres)
            assert np.linalg.norm(x - reference) <= 1e-6 * np.linalg.norm(reference)
        assert infeasibility_certificate(f, pres) is None
        sv = np.linalg.svd(np.hstack([s.basis for s in f]), compute_uv=False)
        assert verify_ibap(f).verdict and f.dim_sum == 3
        assert sv[-1] <= 3 * np.finfo(float).eps * sv[0]
