"""Subspace construction, projection, and lattice operations."""

import math
import warnings

import numpy as np
import pytest

from ibap import COMPLEX, REAL, Family, Subspace, add, angle_identity_gap, inner, intersect
from ibap.subspaces import MEMBERSHIP_RTOL, _orthonormal_columns, _span_and_complement, field_dtype

from conftest import (FIELDS, random_matrix, random_orthogonal, random_subspace, random_unit,
                      rng_for)
from oracles import gram_rank, is_zero, mutual_projection_gap, zero_subspace


class TestFromSpanning:
    def test_collinear_vectors_give_a_line(self):
        u = Subspace.from_spanning([[1.0, 0.0], [2.0, 0.0]], 2)
        assert u.dim == 1
        assert np.allclose(np.abs(u.basis[:, 0]), [1.0, 0.0])

    def test_empty_set_gives_zero_subspace(self):
        u = Subspace.from_spanning([], 3)
        assert u.dim == 0
        assert is_zero(u)
        assert u.ambient_dim == 3

    def test_two_independent_vectors_fill_the_plane(self):
        vectors = [[1.0, 1.0], [1.0, -1.0]]
        assert gram_rank(vectors) == 2  # independent oracle for the expected rank
        u = Subspace.from_spanning(vectors, 2)
        assert u.dim == 2

    def test_dimension_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            Subspace.from_spanning([[1.0, 0.0, 0.0]], 2)

    def test_empty_without_ambient_dim_is_an_error(self):
        with pytest.raises(ValueError):
            Subspace.from_spanning([])

    def test_default_cutoff_keeps_a_small_direction(self):
        vectors = [[1.0, 0.0], [1.0, 1e-9]]
        assert Subspace.from_spanning(vectors, 2).dim == 2

    def test_complex_input_in_real_field_is_an_error(self):
        with pytest.raises(ValueError):
            Subspace.from_spanning([[1.0 + 1.0j, 0.0]], 2, field=REAL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, bad):
        with pytest.raises(ValueError, match="basis has non-finite entries"):
            Subspace(np.array([[bad], [0.0]]))
        with pytest.raises(ValueError, match="spanning vector 0 has non-finite entries"):
            Subspace.from_spanning([[bad, 0.0]], 2)

    @pytest.mark.parametrize("field", FIELDS)
    def test_array_and_list_give_the_same_bits(self, field):
        rows = random_matrix(rng_for(950), 7, 4, field).T
        # the basis of the vectors as separate columns
        ref = _orthonormal_columns(np.column_stack(list(rows)))
        for vectors in (rows, list(rows), rows.tolist()):
            basis = Subspace.from_spanning(vectors, 7, field=field).basis
            assert basis.dtype == ref.dtype and basis.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_messages_name_the_first_offending_vector(self, as_array):
        def message(vectors, field=None):
            with pytest.raises(ValueError) as exc:
                Subspace.from_spanning(np.array(vectors) if as_array else vectors, 2, field=field)
            return str(exc.value)

        assert message([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) == \
            "spanning vector 0 has shape (3,), expected (2,)"
        assert message([[1.0, 0.0], [1.0, 1j]], REAL) == \
            "spanning vector 1 has nonzero imaginary entries in a real problem"
        for field in (None, REAL, COMPLEX):
            assert message([[1.0, 0.0], [np.nan, 0.0]], field) == \
                "spanning vector 1 has non-finite entries"
        assert message([[np.nan, 0.0], [1.0, 1j]], REAL) == \
            "spanning vector 0 has non-finite entries"
        assert message([[1.0, 1j], [np.inf, 0.0]], REAL) == \
            "spanning vector 0 has nonzero imaginary entries in a real problem"

    def test_messages_of_vectors_that_do_not_stack(self):
        with pytest.raises(ValueError, match=r"^spanning vector 1 has shape \(3,\), expected"):
            Subspace.from_spanning([[1.0, 0.0], [1.0, 0.0, 0.0]], 2)
        # an earlier vector's fault comes first; without a field no
        # imaginary part is a fault
        with pytest.raises(ValueError, match="^spanning vector 0 has non-finite entries"):
            Subspace.from_spanning([[np.nan, 0.0], [1.0, 0.0, 0.0]], 2)
        with pytest.raises(ValueError, match=r"^spanning vector 2 has shape \(1,\)"):
            Subspace.from_spanning([[1j, 0.0], [1.0, 0.0], [1.0]], 2)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestProject:
    def test_coordinate_projection(self):
        u = Subspace.from_spanning([[1.0, 0.0]], 2)
        assert np.allclose(u.project([3.0, 4.0]), [3.0, 0.0])

    def test_zero_subspace_projects_to_zero(self):
        z = zero_subspace(4)
        assert np.array_equal(z.project([1.0, 2.0, 3.0, 4.0]), np.zeros(4))

    def test_diagonal_projection_matches_hand_value(self):
        d = np.array([1.0, 1.0]) / np.sqrt(2)
        u = Subspace.from_spanning([d], 2)
        x = np.array([1.0, 0.0])
        # oracle: <x, d> d computed from the raw direction
        expected = inner(x, d) * d
        assert np.allclose(expected, [0.5, 0.5])
        assert np.allclose(u.project(x), [0.5, 0.5], atol=1e-14)

    def test_dimension_mismatch(self):
        u = Subspace.from_spanning([[1.0, 0.0]], 2)
        with pytest.raises(ValueError):
            u.project([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("field", FIELDS)
    def test_residual_is_orthogonal_to_the_subspace(self, field):
        rng = rng_for(101)
        for _ in range(25):
            u = random_subspace(rng, 7, 3, field)
            x = random_unit(rng, 7, field) * 3.0
            p = u.project(x)
            assert np.linalg.norm(u.basis.conj().T @ (x - p)) <= 1e-10


class TestMember:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", FIELDS)
    def test_non_finite_entries_are_an_error(self, field, bad):
        # a NaN distance compares false against any bound
        u = Subspace(np.eye(3, dtype=field_dtype(field)))
        with pytest.raises(ValueError, match="point has non-finite entries"):
            u.member(np.array([bad, 0.0, 0.0]), what="point")

    def test_non_finite_imaginary_part_is_an_error(self):
        u = Subspace(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="non-finite"):
            u.member(np.array([complex(0.0, np.inf), 0.0]))

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_vector_whose_squares_overflow_is_judged(self, field):
        # the squares of 1e200 overflow, and an infinite gap would meet an
        # infinite bound; the norms are taken after a power-of-two scaling
        u = Subspace.from_spanning([[1.0, 0.0, 0.0]], 3, field=field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"not in its subspace "
                                                 r"\(distance 1\.000e\+200, allowance 1\.414e\+192\)"):
                u.member([1e200, 1e200, 0.0])
            assert np.array_equal(u.member([1e200, 0.0, 0.0]), [1e200, 0.0, 0.0])
            if field == COMPLEX:
                # the modulus of this entry overflows; its parts do not
                assert u.member([1.5e308 + 1.5e308j, 0.0, 0.0])[0] == 1.5e308 + 1.5e308j
                with pytest.raises(ValueError, match="not in its subspace"):
                    u.member([1.5e308 + 1.5e308j, 0.0, 1.5e308j])

    def test_complex_vectors_below_the_normal_range_are_judged(self):
        # numpy divides a complex vector by a power of two through its
        # reciprocal, which must stay finite; the rule is relative at every
        # scale, so a subnormal vector half outside the line is refused
        u = Subspace.from_spanning([[1.0, 0.0, 0.0]], 3, field=COMPLEX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in ([1e-308 + 1e-308j, 0, 0], [5e-324j, 0, 0]):
                assert np.array_equal(u.member(x), x)
            with pytest.raises(ValueError, match="not in its subspace"):
                u.member([1e-310, 1e-310j, 0])

    @pytest.mark.parametrize("field", FIELDS)
    def test_decisions_in_the_normal_range_are_those_of_the_unscaled_norms(self, field):
        # the scaling is exact, so at every scale a gap just either side of
        # MEMBERSHIP_RTOL * ||x|| is judged as by the plain norms
        rng = rng_for(104)
        eps = np.finfo(float).eps
        for _ in range(200):
            u = random_subspace(rng, 6, 2, field)
            x = u.basis @ random_matrix(rng, 2, 1, field)[:, 0] * 10.0 ** rng.uniform(-6, 6)
            off = u.complement().basis[:, 0]
            for rel in (1 - 4 * eps, 1 + 4 * eps, 1 - 1e-9, 1 + 1e-9):
                v = x + off * (rel * MEMBERSHIP_RTOL * float(np.linalg.norm(x)))
                gap = float(np.linalg.norm(u.project(v) - v))
                inside = not gap > MEMBERSHIP_RTOL * float(np.linalg.norm(v))
                try:
                    u.member(v)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == inside


class TestComplement:
    def test_line_in_three_dims(self):
        u = Subspace.from_spanning([[1.0, 0.0, 0.0]], 3)
        c = u.complement()
        assert c.dim == 2
        assert np.max(np.abs(c.basis.conj().T @ u.basis)) <= 1e-12

    def test_full_space_has_zero_complement(self):
        assert Subspace(np.eye(4)).complement().dim == 0

    def test_zero_subspace_has_full_complement(self):
        assert zero_subspace(4).complement().dim == 4

    @pytest.mark.parametrize("field", FIELDS)
    def test_double_complement_restores_the_span(self, field):
        rng = rng_for(202)
        for _ in range(20):
            u = random_subspace(rng, 8, int(rng.integers(0, 9)), field)
            again = u.complement().complement()
            assert again.dim == u.dim
            assert mutual_projection_gap(u, again) <= 1e-10

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("k", [0, 1, 23, 24])
    def test_complement_is_orthonormal_and_orthogonal_to_the_space(self, field, k):
        u = random_subspace(rng_for(203), 24, k, field)
        c = u.complement()
        assert c.dim == 24 - k and c.dtype == u.dtype
        assert np.max(np.abs(c.basis.conj().T @ c.basis - np.eye(24 - k)), initial=0.0) <= 1e-14
        assert np.max(np.abs(u.basis.conj().T @ c.basis), initial=0.0) <= 1e-14


class TestSpanAndComplement:
    """_span_and_complement: a span and its orthocomplement from one
    complete QR of the spanning matrix, with from_spanning's rank."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("factor", [10.0, 0.1])
    @pytest.mark.parametrize("n, k", [(24, 5), (8, 8), (6, 9)])
    def test_rank_at_the_cutoff_is_that_of_from_spanning(self, n, k, factor, field):
        # the smallest singular value of the spanning matrix at `factor`
        # times the cutoff max(n, k) eps of the largest
        rng = rng_for(204)
        p = min(n, k)
        left = random_orthogonal(rng, n, field)[:, :p]
        right = random_orthogonal(rng, k, field)[:p]
        sv = np.ones(p)
        sv[-1] = factor * max(n, k) * np.finfo(float).eps
        mat = (left * sv) @ right
        space, comp = _span_and_complement(mat)
        assert space.dim == Subspace.from_spanning(mat.T, n, field=field).dim
        assert space.dim == (p if factor > 1 else p - 1)
        assert comp.dim == n - space.dim and comp.dtype == space.dtype == mat.dtype

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n, cols", [(24, [15]), (24, [10, 5]), (6, [9]), (24, [0])],
                             ids=["thin", "deficient", "wide", "empty"])
    def test_span_and_complement_of_every_shape(self, n, cols, field):
        # `cols` random columns, then (deficient) combinations of them
        rng = rng_for(205)
        mat = random_matrix(rng, n, cols[0], field)
        if len(cols) > 1:
            mat = np.column_stack([mat, mat @ random_matrix(rng, cols[0], cols[1], field)])
        space, comp = _span_and_complement(mat)
        ref = Subspace.from_spanning(mat.T, n, field=field)
        assert (space.dim, comp.dim) == (ref.dim, n - ref.dim) == (min(n, cols[0]),
                                                                   n - min(n, cols[0]))
        assert mutual_projection_gap(space, ref) <= 1e-12
        both = np.column_stack([space.basis, comp.basis])
        assert np.max(np.abs(both.conj().T @ both - np.eye(n))) <= 1e-14


class TestSumAndIntersection:
    def test_sum_of_axes(self):
        u = Subspace.from_spanning([[1.0, 0.0, 0.0]], 3)
        v = Subspace.from_spanning([[0.0, 1.0, 0.0]], 3)
        assert add(u, v).dim == 2

    def test_sum_with_zero_is_identity(self):
        rng = rng_for(7)
        u = random_subspace(rng, 5, 2)
        s = add(u, zero_subspace(5))
        assert s.dim == u.dim
        assert mutual_projection_gap(u, s) <= 1e-12

    def test_oblique_sum_fills_the_plane(self):
        vectors = [[1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2)]
        assert gram_rank(vectors) == 2
        u = Subspace.from_spanning([vectors[0]], 2)
        v = Subspace.from_spanning([vectors[1]], 2)
        assert add(u, v).dim == 2

    def test_distinct_lines_meet_trivially(self):
        u = Subspace.from_spanning([[1.0, 0.0]], 2)
        v = Subspace.from_spanning([[1.0, 1.0]], 2)
        assert intersect(u, v).dim == 0

    def test_self_intersection_restores_the_span(self):
        rng = rng_for(8)
        u = random_subspace(rng, 6, 3)
        w = intersect(u, u)
        assert w.dim == 3
        assert mutual_projection_gap(u, w) <= 1e-10

    def test_two_planes_in_three_dims_meet_in_a_line(self):
        rng = rng_for(9)
        for _ in range(10):
            u = random_subspace(rng, 3, 2)
            v = random_subspace(rng, 3, 2)
            w = intersect(u, v)
            assert w.dim == 1
            # oracle: nullspace of the stacked complement constraints
            stack = np.vstack([u.complement().basis.conj().T, v.complement().basis.conj().T])
            _, s, vh = np.linalg.svd(stack)
            null = vh[np.sum(s > 1e-10):].conj().T
            assert null.shape[1] == 1
            oracle = Subspace(null)
            assert mutual_projection_gap(w, oracle) <= 1e-10

    def test_members_of_intersection_lie_in_both(self):
        rng = rng_for(10)
        for _ in range(10):
            u = random_subspace(rng, 8, 5)
            v = random_subspace(rng, 8, 6)
            w = intersect(u, v)
            assert w.dim == 3  # 5 + 6 - 8 generically
            for col in w.basis.T:
                assert np.linalg.norm(u.project(col) - col) <= 1e-10
                assert np.linalg.norm(v.project(col) - col) <= 1e-10

    def test_mixed_field_is_an_error(self):
        u = Subspace(np.eye(3))
        v = Subspace(np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            add(u, v)

    def test_ambient_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            add(Subspace(np.eye(3)), Subspace(np.eye(4)))

    @pytest.mark.parametrize("swap", [False, True], ids=["ab", "ba"])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("factor", [30, 10, 3, 1.5, 0.7, 0.3, 0.1, 0.03])
    @pytest.mark.parametrize("n", [4, 8, 64])
    def test_planes_near_the_rank_cutoff(self, n, factor, field, swap):
        # span(e0, e1) and span(sqrt(1 - s^2) e0 + s e2, e3) meet at sine s,
        # near the level's cutoff max(n, 2) eps: the sum, the intersection,
        # the family's dim_sum and the Friedrichs angle take one rank decision
        s = factor * n * np.finfo(float).eps
        e = np.eye(n)
        tilt = 1j * s if field == COMPLEX else s
        a = Subspace.from_spanning([e[0], e[1]], n, field=field)
        b = Subspace.from_spanning([math.sqrt(1 - s * s) * e[0] + tilt * e[2], e[3]], n,
                                   field=field)
        if swap:
            a, b = b, a
        assert add(a, b).dim + intersect(a, b).dim == 4
        assert add(a, b).dim == Family((a, b)).dim_sum
        assert angle_identity_gap(a, b) <= 1e-10


@pytest.mark.parametrize("field", FIELDS)
class TestProjectorProperties:
    def test_idempotence(self, field):
        rng = rng_for(301)
        for _ in range(25):
            u = random_subspace(rng, 9, int(rng.integers(1, 9)), field)
            x = random_unit(rng, 9, field) * 2.0
            p = u.project(x)
            assert np.linalg.norm(u.project(p) - p) <= 1e-12 * max(1.0, np.linalg.norm(p))

    def test_self_adjointness(self, field):
        rng = rng_for(302)
        for _ in range(25):
            u = random_subspace(rng, 9, int(rng.integers(1, 9)), field)
            x = random_unit(rng, 9, field)
            y = random_unit(rng, 9, field)
            lhs = inner(u.project(x), y)
            rhs = inner(x, u.project(y))
            assert abs(lhs - rhs) <= 1e-12

    def test_pythagoras(self, field):
        rng = rng_for(303)
        for _ in range(25):
            u = random_subspace(rng, 9, int(rng.integers(0, 10)), field)
            x = random_unit(rng, 9, field) * 3.0
            p = u.project(x)
            total = np.linalg.norm(x) ** 2
            split = np.linalg.norm(p) ** 2 + np.linalg.norm(x - p) ** 2
            assert abs(total - split) <= 1e-10 * total

    def test_dimension_count(self, field):
        rng = rng_for(304)
        for _ in range(20):
            k = int(rng.integers(0, 10))
            u = random_subspace(rng, 9, k, field)
            assert u.dim + u.complement().dim == 9

    def test_basis_invariance(self, field):
        rng = rng_for(305)
        for _ in range(15):
            k = int(rng.integers(1, 5))
            base = random_matrix(rng, 8, k, field)
            mixer = random_matrix(rng, k, k + 2, field)
            u1 = Subspace.from_spanning(list(base.T), 8, field=field)
            u2 = Subspace.from_spanning(list((base @ mixer).T), 8, field=field)
            assert u1.dim == u2.dim == k
            assert mutual_projection_gap(u1, u2) <= 1e-10


class TestImmutability:
    def test_basis_is_read_only(self):
        u = Subspace(np.eye(3))
        with pytest.raises(ValueError):
            u.basis[0, 0] = 7.0

    def test_operations_do_not_mutate_inputs(self):
        rng = rng_for(11)
        u = random_subspace(rng, 5, 2)
        snapshot = u.basis.copy()
        add(u, u.complement())
        intersect(u, u)
        u.project(np.ones(5))
        assert np.array_equal(u.basis, snapshot)
