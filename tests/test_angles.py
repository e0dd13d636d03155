"""Projector-product norms, Friedrichs angles, and their identities."""

import numpy as np
import pytest

from ibap import (
    COMPLEX,
    Subspace,
    add,
    angle_identity_gap,
    cos_friedrichs,
    field_dtype,
    intersect,
    projector_product_norm,
)

from ibap.angles import _factor_level
from ibap.subspaces import _EPS

from conftest import FIELDS, random_family, random_orthogonal, random_subspace, rng_for
from oracles import dense_product_norm, reference_level, sampled_sup_inner


def line(*coords):
    v = np.asarray(coords, dtype=float)
    return Subspace.from_spanning([v / np.linalg.norm(v)], len(coords))


class TestProductNorm:
    def test_identical_lines(self):
        u = line(1, 0)
        assert projector_product_norm(u, u) == 1.0

    def test_orthogonal_lines(self):
        assert projector_product_norm(line(1, 0), line(0, 1)) == 0.0

    @pytest.mark.parametrize("theta", np.linspace(0.05, 1.5, 7))
    def test_lines_at_an_angle(self, theta):
        u = line(1, 0)
        v = line(np.cos(theta), np.sin(theta))
        # oracle 1: scalar product of the unit directions
        by_hand = abs(np.cos(theta))
        # oracle 2: dense spectral norm of the projector product
        dense = dense_product_norm(u, v)
        got = projector_product_norm(u, v)
        assert abs(got - by_hand) <= 1e-12
        assert abs(got - dense) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_symmetry_and_range(self, field):
        rng = rng_for(400)
        for _ in range(25):
            u = random_subspace(rng, 7, int(rng.integers(0, 8)), field)
            v = random_subspace(rng, 7, int(rng.integers(0, 8)), field)
            a = projector_product_norm(u, v)
            b = projector_product_norm(v, u)
            assert 0.0 <= a <= 1.0
            assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_agrees_with_dense_oracle(self, field):
        rng = rng_for(401)
        for _ in range(20):
            u = random_subspace(rng, 8, int(rng.integers(1, 6)), field)
            v = random_subspace(rng, 8, int(rng.integers(1, 6)), field)
            assert abs(projector_product_norm(u, v) - dense_product_norm(u, v)) <= 1e-11

    def test_monotone_in_the_second_argument(self):
        # for w inside v the product norm cannot exceed the one with v
        rng = rng_for(402)
        for _ in range(30):
            u = random_subspace(rng, 8, 3)
            v = random_subspace(rng, 8, 5)
            w = Subspace.from_spanning(list((v.basis @ rng.standard_normal((5, 2))).T), 8)
            assert projector_product_norm(u, w) <= projector_product_norm(u, v) + 1e-12

    def test_characterization_below_one_iff_trivial_intersection(self):
        rng = rng_for(403)
        for _ in range(30):
            n = 8
            ku = int(rng.integers(1, 6))
            kv = int(rng.integers(1, 6))
            u = random_subspace(rng, n, ku)
            v = random_subspace(rng, n, kv)
            norm = projector_product_norm(u, v)
            trivial = intersect(u, v).dim == 0
            if norm < 1.0 - 1e-8:
                assert trivial
            if norm > 1.0 - 1e-12:
                assert not trivial


class TestFriedrichs:
    def test_equal_subspaces_have_angle_zero(self):
        rng = rng_for(404)
        u = random_subspace(rng, 6, 3)
        assert cos_friedrichs(u, u) == 0.0

    def test_orthogonal_lines(self):
        assert cos_friedrichs(line(1, 0), line(0, 1)) == 0.0

    def test_nested_subspaces_have_angle_zero(self):
        rng = rng_for(405)
        v = random_subspace(rng, 7, 4)
        w = Subspace.from_spanning(list((v.basis @ rng.standard_normal((4, 2))).T), 7)
        assert cos_friedrichs(v, w) == 0.0
        assert cos_friedrichs(w, v) == 0.0

    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.1])
    def test_planes_sharing_a_line(self, theta):
        # planes through e1, with residual directions e2 and cos t e2 + sin t e3
        u = Subspace.from_spanning([[1, 0, 0], [0, 1, 0]], 3)
        v = Subspace.from_spanning([[1, 0, 0], [0, np.cos(theta), np.sin(theta)]], 3)
        got = cos_friedrichs(u, v)
        assert abs(got - np.cos(theta)) <= 1e-12
        # definition-level oracle: sampled maximization over the residual subspaces
        rng = rng_for(406)
        shared = intersect(u, v)
        wp = shared.complement()
        ru, rv = intersect(u, wp), intersect(v, wp)
        sampled = sampled_sup_inner(rng, ru, rv, samples=2000)
        assert sampled <= got + 1e-9
        assert got - sampled <= 5e-3

    def test_reduces_to_product_norm_when_intersection_trivial(self):
        rng = rng_for(407)
        for _ in range(25):
            u = random_subspace(rng, 9, 3)
            v = random_subspace(rng, 9, 4)
            assert intersect(u, v).dim == 0
            gap = abs(cos_friedrichs(u, v) - projector_product_norm(u, v))
            assert gap <= 1e-12


class TestAngleIdentity:
    def test_orthogonal_pair(self):
        assert angle_identity_gap(line(1, 0, 0), line(0, 1, 0)) <= 1e-14

    def test_equal_pair(self):
        rng = rng_for(408)
        u = random_subspace(rng, 5, 2)
        assert angle_identity_gap(u, u) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_random_pairs(self, field):
        rng = rng_for(409)
        for _ in range(30):
            u = random_subspace(rng, 6, int(rng.integers(1, 5)), field)
            v = random_subspace(rng, 6, int(rng.integers(1, 5)), field)
            assert angle_identity_gap(u, v) <= 1e-10

    def test_pairs_with_shared_directions(self, ):
        rng = rng_for(410)
        for _ in range(20):
            shared = random_subspace(rng, 8, 2)
            u = add(shared, random_subspace(rng, 8, 2))
            v = add(shared, random_subspace(rng, 8, 1))
            assert angle_identity_gap(u, v) <= 1e-10


def pair_with_shared_directions(rng, n, shared, extra_u, extra_v, field):
    common = random_subspace(rng, n, shared, field)
    u = add(common, random_subspace(rng, n, extra_u, field))
    v = add(common, random_subspace(rng, n, extra_v, field))
    return u, v


class TestCrossGramRoute:
    @pytest.mark.parametrize("shared", [1, 2, 3])
    def test_friedrichs_matches_scipy_principal_angles(self, shared):
        linalg = pytest.importorskip("scipy.linalg")
        rng = rng_for(411 + shared)
        for field in FIELDS:
            for _ in range(10):
                extra_u, extra_v = (int(k) for k in rng.integers(1, 4, size=2))
                u, v = pair_with_shared_directions(rng, 10, shared, extra_u, extra_v, field)
                angles = np.sort(linalg.subspace_angles(u.basis, v.basis))
                assert np.all(angles[:shared] <= 1e-7)
                assert abs(cos_friedrichs(u, v) - np.cos(angles[shared])) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_complements_share_the_friedrichs_angle(self, field):
        # c(U, V) = c(U-perp, V-perp)
        rng = rng_for(415)
        for _ in range(20):
            shared, extra_u, extra_v = (int(k) for k in rng.integers(1, 4, size=3))
            u, v = pair_with_shared_directions(rng, 11, shared, extra_u, extra_v, field)
            c = cos_friedrichs(u, v)
            assert 0.0 < c < 1.0
            assert abs(cos_friedrichs(u.complement(), v.complement()) - c) <= 1e-12


def assert_level_is_reference(basis, tail):
    """_factor_level(basis, tail) equals reference_level bit for bit; returns it."""
    level = _factor_level(basis, tail)
    ref = reference_level(basis, tail)
    for name, got, want in zip(level._fields, level, ref):
        if name == "rank":
            assert type(got) is int and got == want
        else:
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
    return level


class TestLevelMatchesTheWrapperFormulas:
    """The level's cosines, capped at 1, and its rank, taken by numpy's C
    entry points, are those of np.linalg.norm, np.clip and np.sum."""

    @pytest.mark.parametrize("field", FIELDS)
    def test_every_level_of_seeded_chains(self, field):
        rng = rng_for(420)
        for dims in ((3, 4, 2, 5), (6, 1, 1, 3), (2, 9, 4)):
            family = random_family(rng, 24, dims, field)
            levels, basis, widths = family._chain
            for s, level, width in zip(family.subspaces, levels, widths):
                fresh = assert_level_is_reference(s.basis, basis[:, :width])
                assert fresh.rank == level.rank
                assert fresh.cosines.tobytes() == level.cosines.tobytes()

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("multiple", [0.1, 1.0, 10.0])
    def test_sines_at_multiples_of_the_cutoff(self, field, multiple):
        # U = span(cos t q0 + sin t q10, q11) against T = span(q0..q4), with
        # sin t at the given multiple of the rank cutoff max(24, 2) eps
        q = random_orthogonal(rng_for(421), 24, field)
        sine = multiple * 24 * _EPS
        basis = np.column_stack([np.sqrt(1 - sine ** 2) * q[:, 0] + sine * q[:, 10], q[:, 11]])
        level = assert_level_is_reference(basis, q[:, :5])
        assert abs(level.sines[0] - 1.0) < 1e-12 and level.sines[1] < 1e-13
        if multiple != 1.0:  # at the cutoff itself either decision is right
            assert level.rank == (2 if multiple > 1.0 else 1)

    @pytest.mark.parametrize("field", FIELDS)
    def test_dim_u_above_dim_t(self, field):
        rng = rng_for(422)
        u, t = random_subspace(rng, 24, 7, field), random_subspace(rng, 24, 3, field)
        level = assert_level_is_reference(u.basis, t.basis)
        # no angle pairs the first dim U - dim T sines
        assert np.all(level.cosines[:4] == 0.0) and np.all(level.cosines[4:] > 0.0)
        assert level.rank == 7

    @pytest.mark.parametrize("field", FIELDS)
    def test_rank_zero(self, field):
        q = random_orthogonal(rng_for(423), 24, field)
        level = assert_level_is_reference(q[:, 1:3], q[:, :5])
        assert level.rank == 0 and level.degenerate and level.gamma == np.inf
        empty = assert_level_is_reference(q[:, :0], q[:, :5])
        assert empty.rank == 0 and empty.sines.size == 0


class TestLineLevels:
    """A line's level takes the residual r of its basis off the tail as
    its own singular triple (||r||, r / ||r||, [[1]]), not an SVD."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("multiple", [0.1, 1.5, 10.0])
    def test_agrees_with_the_svd_of_its_residual(self, field, multiple):
        # the line cos t q0 + sin t e^(i phi) q10 against T = span(q0..q4),
        # sin t at the given multiple of the rank cutoff 24 eps
        rng = rng_for(424)
        sine = multiple * 24 * _EPS
        for _ in range(20):
            q = random_orthogonal(rng, 24, field)
            phase = np.exp(2j * np.pi * rng.uniform()) if field == COMPLEX else 1.0
            basis = (np.sqrt(1 - sine ** 2) * q[:, 0] + sine * phase * q[:, 10])[:, None]
            level = assert_level_is_reference(basis, q[:, :5])
            w, sines, vh, cosines, rank = reference_level(basis, q[:, :5], by_svd=True)
            assert level.rank == rank == (1 if multiple > 1.0 else 0)
            assert level.cosines.tobytes() == cosines.tobytes()
            assert abs(level.sines[0] - sines[0]) <= 2 * _EPS * sines[0]
            # r = w_svd s vh, so r / ||r|| is w_svd times the phase vh
            assert np.max(np.abs(level.w - w * vh[0, 0])) <= 2 * _EPS

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_line_inside_the_tail(self, field):
        # e0 + e1 (e0 + i e1 when complex) against span(e0, e1): the
        # residual is exactly 0, and the level is finite
        e = np.eye(4, dtype=field_dtype(field))
        line = Subspace.from_spanning([e[0] + (1j if field == COMPLEX else 1.0) * e[1]], 4)
        plane = Subspace(e[:, :2])
        level = assert_level_is_reference(line.basis, plane.basis)
        assert level.sines.tolist() == [0.0]
        assert all(np.isfinite(a).all() for a in (level.w, level.vh, level.cosines))
        assert level.rank == 0 and level.degenerate and level.gamma == np.inf
        assert intersect(line, plane).dim == 1 and add(line, plane).dim == 2

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_line_whose_residual_squares_underflow(self, field):
        # e0 + 1e-170 e2 (i e2 when complex) against span(e0, e1): the
        # squares of the residual 1e-170 e2 underflow, so its norm reads 0
        e = np.eye(4, dtype=field_dtype(field))
        basis = (e[0] + 1e-170 * (1j if field == COMPLEX else 1.0) * e[2])[:, None]
        line, plane = Subspace(basis), Subspace(e[:, :2])
        level = assert_level_is_reference(line.basis, plane.basis)
        assert level.rank == 0 and level.degenerate
        assert not any(np.isnan(a).any() for a in (level.w, level.sines, level.vh, level.cosines))
        assert intersect(line, plane).dim == 1 and add(line, plane).dim == 2
