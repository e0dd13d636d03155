"""Application reductions: moments, operator systems, masked signal
recovery, and the angle-degradation family."""

import math
import tracemalloc

import numpy as np
import pytest

from ibap import (
    Family,
    HypothesisError,
    MaskedSignalProblem,
    SlowFamilySpec,
    SolveOptions,
    Subspace,
    check_independence,
    dft,
    dft_matrix,
    idft,
    inner,
    intersect,
    projector_product_norm,
    rate_bound,
    recover_with_measurements,
    slow_family,
    solve_moments,
    solve_operator_system,
    time_frequency_recover,
    worst_aligned_start,
)
from ibap.angles import _pair
from ibap.applications import _solve_moments
from ibap.subspaces import _span_and_complement

from conftest import random_matrix, rng_for
from oracles import min_norm_complex_via_real, constrained_min_norm_in_space, slow_trace


def complex_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestDft:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
    def test_unitarity(self, n):
        w = dft_matrix(n)
        assert np.max(np.abs(w.conj().T @ w - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("n", [3, 8, 12])
    def test_round_trip_and_parseval(self, n):
        rng = rng_for(800 + n)
        x = complex_unit(rng, n) * 3
        assert np.linalg.norm(idft(dft(x)) - x) <= 1e-12
        assert abs(np.linalg.norm(dft(x)) - np.linalg.norm(x)) <= 1e-12

    def test_matrix_is_cached_and_read_only(self):
        assert dft_matrix(8) is dft_matrix(8)
        with pytest.raises(ValueError):
            dft_matrix(8)[0, 0] = 0

    def test_matrix_matches_the_fft_entrywise(self):
        # each entry's phase is rounded from (jk) mod n, not from jk: at
        # n = 1024 the entries built from exp(-2 pi i jk / n) were 2.2e-14 off
        n = 1024
        ref = np.fft.fft(np.eye(n), axis=0, norm="ortho")
        assert np.abs(dft_matrix(n) - ref).max() <= 1e-15

    @pytest.mark.parametrize("shape", [(1,), (2,), (7,), (97,), (112,), (256,), (12, 3)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_transforms_are_the_dense_products(self, shape):
        # the FFT acts on the first axis, as dft_matrix(n) @ x does on columns
        n = shape[0]
        x = 3 * random_matrix(rng_for(820 + n), n, math.prod(shape[1:]), "complex").reshape(shape)
        bound = 1e-13 * np.linalg.norm(x)
        assert np.linalg.norm(dft(x) - dft_matrix(n) @ x) <= bound
        assert np.linalg.norm(idft(x) - dft_matrix(n).conj().T @ x) <= bound


class TestMoments:
    def test_single_coordinate_moment_in_the_full_space(self):
        x = solve_moments(Subspace.full(4), [np.eye(4)[:, 0]], [5.0])
        assert np.allclose(x, [5.0, 0, 0, 0], atol=1e-12)

    def test_zero_values_give_zero(self):
        rng = rng_for(801)
        space = Subspace.from_spanning(list(random_matrix(rng, 5, 3).T), 5)
        vs = [rng.standard_normal(5) for _ in range(2)]
        x = solve_moments(space, vs, [0.0, 0.0])
        assert np.linalg.norm(x) <= 1e-10

    def test_partial_space_example(self):
        space = Subspace.from_spanning(list(np.eye(4)[:, :3].T), 4)
        v = np.array([1.0, 1.0, 0.0, 0.0])
        x = solve_moments(space, [v], [2.0])
        # oracle: minimal-norm member of the space meeting the constraint
        oracle = constrained_min_norm_in_space(space.basis, [v], [2.0])
        assert np.allclose(oracle, [1.0, 1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(x, [1.0, 1.0, 0.0, 0.0], atol=1e-10)

    def test_constraints_recomputed_from_raw_vectors(self):
        rng = rng_for(802)
        for _ in range(15):
            n = int(rng.integers(4, 9))
            kdim = int(rng.integers(2, n))
            space = Subspace.from_spanning(list(random_matrix(rng, n, kdim).T), n)
            nmom = int(rng.integers(1, 3))
            vs = [rng.standard_normal(n) for _ in range(nmom)]
            etas = [float(rng.standard_normal()) for _ in range(nmom)]
            try:
                x = solve_moments(space, vs, etas)
            except HypothesisError:
                continue
            assert np.linalg.norm(space.project(x) - x) <= 1e-8
            for v, eta in zip(vs, etas):
                assert abs(inner(x, v) - eta) <= 1e-8
            oracle = constrained_min_norm_in_space(space.basis, vs, etas)
            assert abs(np.linalg.norm(x) - np.linalg.norm(oracle)) <= 1e-8

    def test_complex_moments(self):
        rng = rng_for(803)
        space = Subspace.full(5, "complex")
        vs = [complex_unit(rng, 5), complex_unit(rng, 5)]
        etas = [1.0 + 2.0j, -0.5j]
        x = solve_moments(space, vs, etas)
        for v, eta in zip(vs, etas):
            assert abs(inner(x, v) - eta) <= 1e-8

    def test_dependent_vectors_are_refused(self):
        # a zero combination of the vectors lies in the orthocomplement, so
        # the family check refuses them with the one message
        v = np.array([1.0, 2.0, 0.0])
        with pytest.raises(HypothesisError, match="linearly dependent or .* orthocomplement"):
            solve_moments(Subspace.full(3), [v, 2 * v], [1.0, 2.0])

    def test_span_meeting_the_complement_is_refused(self):
        space = Subspace.from_spanning([np.eye(3)[:, 0]], 3)
        with pytest.raises(HypothesisError, match="orthocomplement"):
            solve_moments(space, [np.eye(3)[:, 1]], [1.0])

    def test_zero_vector_is_refused(self):
        with pytest.raises(HypothesisError):
            solve_moments(Subspace.full(3), [np.zeros(3)], [1.0])

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_tiny_and_huge_vectors_scale_out(self, scale):
        # each norm is taken after scaling by a power of two, so the squares
        # of entries near 1e-170 or 1e170 neither underflow nor overflow
        rng = rng_for(804)
        space = Subspace.from_spanning(list(random_matrix(rng, 8, 5).T), 8)
        vs = [rng.standard_normal(8) for _ in range(2)]
        x = solve_moments(space, vs, [1.0, -2.0])
        y = solve_moments(space, [scale * v for v in vs], [scale, -2.0 * scale])
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)
        e5 = np.eye(8)[5]
        z = solve_moments(Subspace.full(8), [scale * e5], [scale])
        assert np.max(np.abs(z - e5)) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("c", [1.5e308 + 1.5e308j, 1e-308 + 1e-308j])
    def test_complex_entries_at_the_ends_of_the_range(self, c):
        # the modulus of 1.5e308 (1 + i) overflows; below 2^-1022 numpy's
        # complex division by a power of two overflows forming its reciprocal
        x = solve_moments(Subspace.full(3, "complex"), [[c, 0, 0]], [np.conj(c)])
        assert np.max(np.abs(x - np.eye(3)[0])) <= 2 * np.finfo(float).eps

    def test_a_complex_value_is_reported_before_a_failing_hypothesis(self):
        # the values are checked before the family is built
        e0 = np.eye(2)[0]
        with pytest.raises(ValueError, match="moment value 2 is complex in a real problem"):
            solve_moments(Subspace.full(2), [e0, e0], [1.0, 1j])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_is_refused(self, bad):
        with pytest.raises(ValueError, match="moment vector 2 has non-finite entries"):
            solve_moments(Subspace.full(3), [np.eye(3)[:, 0], [0.0, bad, 0.0]], [1.0, 2.0])

    @pytest.mark.parametrize("field, cols, moments", [
        ("real", [4, 2], 2), ("real", [14], 3), ("real", [0], 0), ("real", [0], 1),
        ("complex", [6], 3), ("complex", [3, 2], 2)],
        ids=["deficient", "wide", "empty", "empty-refused", "complex", "complex-deficient"])
    def test_one_factorization_agrees_with_the_library_path(self, field, cols, moments):
        # the command line's space and orthocomplement, from one complete QR
        # of the spanning vectors, against from_spanning and complement()
        rng = rng_for(805)
        n = 10
        mat = random_matrix(rng, n, cols[0], field)
        if len(cols) > 1:
            mat = np.column_stack([mat, mat @ random_matrix(rng, cols[0], cols[1], field)])
        vs = list(random_matrix(rng, n, moments, field).T)
        etas = list(random_matrix(rng, moments, 1, field)[:, 0])
        space, comp = _span_and_complement(mat)
        ref = Subspace.from_spanning(mat.T, n, field=field)
        assert (space.dim, comp.dim) == (ref.dim, ref.complement().dim)
        if cols[0] == 0 < moments:
            for call in (lambda: _solve_moments(comp, vs, etas),
                         lambda: solve_moments(ref, vs, etas)):
                with pytest.raises(HypothesisError, match="orthocomplement"):
                    call()
            return
        x = _solve_moments(comp, vs, etas)
        y = solve_moments(ref, vs, etas)
        assert np.linalg.norm(x - y) <= 1e-12 * max(np.linalg.norm(y), 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v, value", [(1e-200, 1e200), (1e-320, 1.0)])
    def test_a_point_beyond_float64_names_its_moment(self, v, value):
        # the solution value / v * e0 overflows; the error names the moment
        # the caller gave, without a warning on the way
        with pytest.raises(ValueError, match="^moment vector 2: its prescribed point is not "
                                             "representable in float64$"):
            solve_moments(Subspace.full(3), [np.eye(3)[1], [v, 0, 0]], [1.0, value])


class TestOperatorSystems:
    def test_two_coordinate_rows(self):
        x = solve_operator_system([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
                                  [np.array([3.0]), np.array([4.0])])
        assert np.allclose(x, [3.0, 4.0], atol=1e-12)

    def test_single_invertible_operator(self):
        rng = rng_for(804)
        t = random_matrix(rng, 4, 4)
        y = rng.standard_normal(4)
        x = solve_operator_system([t], [y])
        assert np.allclose(x, np.linalg.solve(t, y), atol=1e-8)

    def test_zero_right_hand_sides(self):
        rng = rng_for(805)
        t1 = random_matrix(rng, 2, 6)
        t2 = random_matrix(rng, 3, 6)
        x = solve_operator_system([t1, t2], [np.zeros(2), np.zeros(3)])
        assert np.linalg.norm(x) <= 1e-10

    def test_planted_solutions_are_reached_with_minimal_norm(self):
        rng = rng_for(806)
        for _ in range(15):
            n = int(rng.integers(5, 10))
            sizes = [int(rng.integers(1, 3)) for _ in range(3)]
            if sum(sizes) > n:
                continue
            ts = [random_matrix(rng, p, n) for p in sizes]
            x0 = rng.standard_normal(n)
            ys = [t @ x0 for t in ts]
            x = solve_operator_system(ts, ys)
            for t, y in zip(ts, ys):
                assert np.linalg.norm(t @ x - y) <= 1e-8 * (1 + np.linalg.norm(y))
            assert np.linalg.norm(x) <= np.linalg.norm(x0) + 1e-8

    def test_small_singular_value_above_the_rank_cutoff_is_kept(self):
        # 5e-15 is above the package cutoff max(2, 50) * eps but below
        # pinv's default rcond 1e-15: the system is consistent and solved
        rng = rng_for(819)
        left = np.linalg.qr(random_matrix(rng, 2, 2))[0]
        right = np.linalg.qr(random_matrix(rng, 50, 2))[0]
        t = left @ np.diag([1.0, 5e-15]) @ right.T
        y = t @ rng.standard_normal(50)
        x = solve_operator_system([t], [y])
        assert np.linalg.norm(t @ x - y) <= 1e-12 * np.linalg.norm(y)
        # minimal norm: x lies in the row space of t
        assert np.linalg.norm(x - right @ (right.T @ x)) <= 1e-12 * np.linalg.norm(x)

    def test_rhs_outside_the_range_is_refused(self):
        t = np.array([[1.0, 0.0], [1.0, 0.0]])  # range is the diagonal line
        with pytest.raises(ValueError):
            solve_operator_system([t], [np.array([1.0, 2.0])])

    @pytest.mark.parametrize("kernel", [False, True])
    @pytest.mark.parametrize("smallest", [1e-9, 1e-11])
    def test_range_of_an_ill_conditioned_operator_is_accepted(self, smallest, kernel):
        # the solution's norm is about 1 / smallest, so the solve's rounding
        # eps ||T|| ||x|| of the residual exceeds MEMBERSHIP_RTOL ||y||;
        # with a kernel, rounding also turns the kept range, which ends at
        # smallest, toward the discarded direction by about eps / smallest
        rng = rng_for(820)
        for _ in range(20):
            left = np.linalg.qr(random_matrix(rng, 4, 4))[0]
            right = np.linalg.qr(random_matrix(rng, 4, 4))[0]
            diag = [1.0, 1.0, smallest, 0.0] if kernel else [1.0, 1.0, 1.0, smallest]
            t = left @ np.diag(diag) @ right.T
            x0 = right @ (rng.standard_normal(4) * [1.0 / d if d else 0.0 for d in diag])
            x = solve_operator_system([t], [t @ x0])
            assert np.linalg.norm(x - x0) <= 1e-3 * np.linalg.norm(x0)

    def test_rhs_a_little_outside_the_range_is_refused(self):
        rng = rng_for(821)
        for _ in range(20):
            left = np.linalg.qr(random_matrix(rng, 4, 4))[0]
            right = np.linalg.qr(random_matrix(rng, 4, 4))[0]
            t = left @ np.diag([1.0, 1.0, 1.0, 0.0]) @ right.T
            y = t @ rng.standard_normal(4) + 1e-3 * left[:, 3]
            with pytest.raises(ValueError, match="not in the range"):
                solve_operator_system([t], [y])

    @pytest.mark.parametrize("delta", [1e-13, 1e-14])
    def test_rhs_off_a_small_kept_singular_direction_is_refused(self, delta):
        # y = (0, 1, 1) lies 1 off the range span(e0, e1) of T, whose kept
        # direction e1 leans by at most 4 * 3 eps / delta under rounding,
        # below that gap.  At delta = 2e-15 it would not be: y is then in the
        # range of T + E, E = delta e2 e1^T, whose norm delta is below the
        # operator's rounding 4 * 3 eps ||T||, so that case cannot be decided
        t = np.array([[1.0, 0.0], [0.0, delta], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"right-hand side 1 is not in the range of its "
                                             r"operator \(residual 1\.000e\+00, allowance"):
            solve_operator_system([t], [np.array([0.0, 1.0, 1.0])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_is_refused(self, bad):
        t = np.array([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="operator 2 has non-finite entries"):
            solve_operator_system([np.eye(2), t], [np.ones(2), np.ones(2)])

    def test_kernel_condition_failure_names_the_level(self):
        t = np.array([[1.0, 0.0]])
        with pytest.raises(HypothesisError) as err:
            solve_operator_system([t, t.copy()], [np.array([1.0]), np.array([1.0])])
        assert err.value.level == 1


class TestTimeFrequencyRecovery:
    def test_empty_time_mask_returns_the_band_limited_signal(self):
        rng = rng_for(807)
        n = 8
        b = np.array([1.0 + 0.5j, -2.0j])
        p = MaskedSignalProblem(n=n, time_mask=(), freq_mask=(0, 3),
                                time_values=np.zeros(0), freq_values=b)
        x = time_frequency_recover(p)
        ext = np.zeros(n, dtype=complex)
        ext[[0, 3]] = b
        assert np.linalg.norm(x - idft(ext)) <= 1e-10

    def test_empty_freq_mask_returns_the_masked_extension(self):
        n = 6
        a = np.array([2.0, -1.0 + 1.0j])
        p = MaskedSignalProblem(n=n, time_mask=(1, 4), freq_mask=(),
                                time_values=a, freq_values=np.zeros(0))
        x = time_frequency_recover(p)
        expected = np.zeros(n, dtype=complex)
        expected[[1, 4]] = a
        assert np.linalg.norm(x - expected) <= 1e-12

    @pytest.mark.parametrize("n", [4.0, True, np.True_, "4", None])
    def test_the_length_is_an_integer(self, n):
        # a float would fail only in the recovery, sizing the bases
        with pytest.raises(ValueError, match="^signal length must be an integer$"):
            MaskedSignalProblem(n, (1,), (2,), np.ones(1), np.ones(1))

    @pytest.mark.parametrize("index", [1.5, 1.0, True, np.True_, "1", None])
    def test_mask_indices_are_integers(self, index):
        # 1.5 was read as 1, and the problem solved
        with pytest.raises(ValueError, match="^time mask index must be an integer$"):
            MaskedSignalProblem(4, (index,), (2,), np.ones(1), np.ones(1))
        with pytest.raises(ValueError, match="^frequency mask index must be an integer$"):
            MaskedSignalProblem(4, (2,), (index,), np.ones(1), np.ones(1))

    def test_numpy_integers_are_accepted(self):
        p = MaskedSignalProblem(np.int64(4), np.array([1]), (np.uint8(2),),
                                np.ones(1), np.ones(1))
        assert p.time_mask == (1,) and p.freq_mask == (2,)
        ref = MaskedSignalProblem(4, (1,), (2,), np.ones(1), np.ones(1))
        assert np.array_equal(time_frequency_recover(p), time_frequency_recover(ref))

    def test_small_masks_match_the_stacked_oracle(self):
        rng = rng_for(808)
        n = 8
        a = np.array([complex(*rng.standard_normal(2)) for _ in range(2)])
        b = np.array([complex(*rng.standard_normal(2))])
        p = MaskedSignalProblem(n=n, time_mask=(0, 1), freq_mask=(0,),
                                time_values=a, freq_values=b)
        x = time_frequency_recover(p)
        # oracle: real-stacked least squares on the raw constraint rows
        w = dft_matrix(n)
        rows = np.vstack([np.eye(n, dtype=complex)[[0, 1], :], w[[0], :]])
        rhs = np.concatenate([a, b])
        oracle = min_norm_complex_via_real(rows, rhs)
        assert np.linalg.norm(x - oracle) <= 1e-8

    def test_constraints_hold_entrywise(self):
        rng = rng_for(809)
        for _ in range(10):
            n = int(rng.integers(6, 14))
            ta = int(rng.integers(0, 3))
            tb = int(rng.integers(0, 3))
            tmask = tuple(sorted(rng.choice(n, size=ta, replace=False).tolist()))
            fmask = tuple(sorted(rng.choice(n, size=tb, replace=False).tolist()))
            if len(tmask) * len(fmask) >= n:
                continue
            a = rng.standard_normal(len(tmask)) + 1j * rng.standard_normal(len(tmask))
            b = rng.standard_normal(len(fmask)) + 1j * rng.standard_normal(len(fmask))
            p = MaskedSignalProblem(n=n, time_mask=tmask, freq_mask=fmask,
                                    time_values=a, freq_values=b)
            x = time_frequency_recover(p)
            spectrum = dft(x)
            for k, i in enumerate(tmask):
                assert abs(x[i] - a[k]) <= 1e-8
            for k, i in enumerate(fmask):
                assert abs(spectrum[i] - b[k]) <= 1e-8

    def test_uncertainty_shortcut_guarantees_trivial_intersection(self):
        rng = rng_for(810)
        for _ in range(15):
            n = int(rng.integers(4, 12))
            ta = int(rng.integers(1, n))
            tb_max = max(1, (n - 1) // ta)
            tb = int(rng.integers(1, tb_max + 1))
            assert ta * tb < n
            tmask = tuple(sorted(rng.choice(n, size=ta, replace=False).tolist()))
            fmask = tuple(sorted(rng.choice(n, size=tb, replace=False).tolist()))
            eye = np.eye(n, dtype=complex)
            u1 = Subspace(eye[:, list(tmask)])
            u2 = Subspace(dft_matrix(n).conj().T[:, list(fmask)])
            assert intersect(u1, u2).dim == 0
            assert projector_product_norm(u1, u2) < 1.0
            # the level chain, the only judge, accepts these masks too
            a = rng.standard_normal(ta) + 1j * rng.standard_normal(ta)
            b = rng.standard_normal(tb) + 1j * rng.standard_normal(tb)
            p = MaskedSignalProblem(n=n, time_mask=tmask, freq_mask=fmask,
                                    time_values=a, freq_values=b)
            x = time_frequency_recover(p)
            assert np.abs(x[list(tmask)] - a).max() <= 1e-8
            assert np.abs(dft(x)[list(fmask)] - b).max() <= 1e-8

    def test_full_masks_are_refused(self):
        n = 4
        p = MaskedSignalProblem(n=n, time_mask=tuple(range(n)), freq_mask=tuple(range(n)),
                                time_values=np.ones(n), freq_values=np.ones(n))
        with pytest.raises(HypothesisError):
            time_frequency_recover(p)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            MaskedSignalProblem(n=4, time_mask=(0, 0), freq_mask=(),
                                time_values=np.zeros(2), freq_values=np.zeros(0))
        with pytest.raises(ValueError):
            MaskedSignalProblem(n=4, time_mask=(5,), freq_mask=(),
                                time_values=np.zeros(1), freq_values=np.zeros(0))
        with pytest.raises(ValueError):
            MaskedSignalProblem(n=4, time_mask=(0,), freq_mask=(),
                                time_values=np.zeros(2), freq_values=np.zeros(0))


    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_comb_masks_meet_in_the_comb(self, n):
        # both masks hold the comb of spacing sqrt(n), which is its own
        # transform, plus sqrt(n) other random indices each
        comb = int(round(n ** 0.5))
        teeth = set(range(0, n, comb))
        rng = rng_for(811)
        extra = [int(i) for i in rng.permutation(n) if int(i) not in teeth]
        tmask = sorted(teeth | set(extra[:comb]))
        fmask = sorted(teeth | set(extra[comb:2 * comb]))
        u_time = Subspace(np.eye(n, dtype=complex)[:, tmask])
        u_freq = Subspace(dft_matrix(n).conj().T[:, fmask])
        # the shared direction's sine is rounding, far below the level rank
        # cutoff: 0.002-0.02 of it (0.32-0.42 with phases rounded from jk)
        assert not check_independence(Family((u_time, u_freq)))
        assert _pair(u_time, u_freq).sines[-1] <= 0.05 * n * np.finfo(np.float64).eps
        p = MaskedSignalProblem(n=n, time_mask=tmask, freq_mask=fmask,
                                time_values=np.ones(len(tmask)),
                                freq_values=np.ones(len(fmask)))
        with pytest.raises(HypothesisError, match="masks too large"):
            time_frequency_recover(p)

    def test_memory_grows_with_the_samples_not_with_n_squared(self):
        # the supports are n x 64 each; one n x n complex array is 64 MiB
        rng = rng_for(816)
        n = 2048
        tmask = tuple(sorted(rng.choice(n, size=64, replace=False).tolist()))
        fmask = tuple(sorted(rng.choice(n, size=64, replace=False).tolist()))
        x = complex_unit(rng, n)
        p = MaskedSignalProblem(n=n, time_mask=tmask, freq_mask=fmask,
                                time_values=x[list(tmask)], freq_values=dft(x)[list(fmask)])
        tracemalloc.start()
        try:
            recover_with_measurements(p, [], [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestRecoverWithMeasurements:
    def base_problem(self, rng, n=8):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        return MaskedSignalProblem(n=n, time_mask=(0, 1), freq_mask=(0,),
                                   time_values=a, freq_values=b)

    def test_no_measurements_reduces_to_plain_recovery(self):
        rng = rng_for(811)
        p = self.base_problem(rng)
        assert np.allclose(recover_with_measurements(p, [], []),
                           time_frequency_recover(p), atol=1e-12)

    def test_zero_moment_forces_a_zero_component(self):
        rng = rng_for(812)
        p = self.base_problem(rng)
        ek = np.eye(8, dtype=complex)[:, 5]
        x = recover_with_measurements(p, [ek], [0.0])
        assert abs(inner(x, ek)) <= 1e-8

    def test_matches_the_stacked_oracle(self):
        rng = rng_for(813)
        n = 8
        p = self.base_problem(rng, n)
        m1 = np.zeros(n, dtype=complex)
        m1[5] = 1.0 + 0.5j
        m1[6] = -0.25j
        eta = complex(*rng.standard_normal(2))
        x = recover_with_measurements(p, [m1], [eta])
        w = dft_matrix(n)
        rows = np.vstack([m1.conj()[None, :],
                          np.eye(n, dtype=complex)[[0, 1], :],
                          w[[0], :]])
        rhs = np.concatenate([[eta], p.time_values, p.freq_values])
        oracle = min_norm_complex_via_real(rows, rhs)
        assert np.linalg.norm(x - oracle) <= 1e-8

    def test_empty_masks_reduce_to_a_moment_problem(self):
        rng = rng_for(814)
        n = 6
        p = MaskedSignalProblem(n=n, time_mask=(), freq_mask=(),
                                time_values=np.zeros(0), freq_values=np.zeros(0))
        m1 = complex_unit(rng, n)
        eta = 0.75 - 0.2j
        got = recover_with_measurements(p, [m1], [eta])
        expected = solve_moments(Subspace.full(n, "complex"), [m1], [eta])
        assert np.linalg.norm(got - expected) <= 1e-10

    def test_support_inside_the_time_mask_is_refused(self):
        rng = rng_for(815)
        p = self.base_problem(rng)
        bad = np.zeros(8, dtype=complex)
        bad[0] = 1.0  # support {0} inside the time mask {0, 1}
        with pytest.raises(HypothesisError) as err:
            recover_with_measurements(p, [bad], [1.0])
        assert err.value.level == 1

    def test_overlapping_supports_are_refused(self):
        rng = rng_for(816)
        p = self.base_problem(rng)
        m1 = np.zeros(8, dtype=complex)
        m1[5] = 1.0
        m2 = np.zeros(8, dtype=complex)
        m2[5] = 2.0
        m2[6] = 1.0
        with pytest.raises(HypothesisError):
            recover_with_measurements(p, [m1, m2], [1.0, 2.0])

    def test_dependent_measurement_is_a_hypothesis_failure(self):
        rng = rng_for(823)
        p = self.base_problem(rng)
        # ones - e0 - e1 lies in the sum of the time support {0, 1} and the
        # frequency support {0}, the constant signals
        m = np.ones(8, dtype=complex)
        m[[0, 1]] = 0.0
        with pytest.raises(HypothesisError, match="masks too large"):
            recover_with_measurements(p, [m], [1.0])

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_tiny_and_huge_measurements_scale_out(self, scale):
        rng = rng_for(824)
        p = self.base_problem(rng)
        m = np.zeros(8, dtype=complex)
        m[5] = 1.0 + 0.5j
        m[6] = -0.25j
        x = recover_with_measurements(p, [m], [0.3 - 0.1j])
        y = recover_with_measurements(p, [scale * m], [(0.3 - 0.1j) * scale])
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)
        e5 = np.eye(8, dtype=complex)[5]
        z = recover_with_measurements(p, [scale * e5], [scale])
        assert abs(z[5] - 1.0) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("c", [1.5e308 + 1.5e308j, 1e-308 + 1e-308j])
    def test_complex_measurements_at_the_ends_of_the_range(self, c):
        p = self.base_problem(rng_for(824))
        z = recover_with_measurements(p, [c * np.eye(8)[5]], [np.conj(c)])
        assert abs(z[5] - 1.0) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurement_is_refused(self, bad):
        p = self.base_problem(rng_for(822))
        m = np.zeros(8, dtype=complex)
        m[5] = bad
        with pytest.raises(ValueError, match="measurement 1 has non-finite entries"):
            recover_with_measurements(p, [m], [1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_point_beyond_float64_names_its_measurement(self):
        p = self.base_problem(rng_for(822))
        ms = [np.eye(8, dtype=complex)[5], 1e-200 * np.eye(8, dtype=complex)[6]]
        with pytest.raises(ValueError, match="^measurement 2: its prescribed point is not "
                                             "representable in float64$"):
            recover_with_measurements(p, ms, [1.0, 1e200j])


class TestSlowFamily:
    def test_single_block_norm_by_hand(self):
        fam, predicted = slow_family(SlowFamilySpec(1, (1.0,)))
        # 2 by 2 block: the basis directions have scalar product 1/sqrt(2)
        assert abs(predicted - 1 / np.sqrt(2)) <= 1e-15
        assert abs(projector_product_norm(fam[0], fam[1]) - predicted) <= 1e-12

    @pytest.mark.parametrize("blocks", [1, 3, 10])
    def test_constant_weights(self, blocks):
        fam, predicted = slow_family(SlowFamilySpec(blocks, (1.0,) * blocks))
        assert abs(predicted - 1 / np.sqrt(2)) <= 1e-15
        assert abs(projector_product_norm(fam[0], fam[1]) - predicted) <= 1e-10

    def test_harmonic_weights_degrade_the_rate(self):
        spec = SlowFamilySpec.harmonic(50)
        fam, predicted = slow_family(spec)
        assert abs(predicted - 1 / np.sqrt(1 + 1 / 2500)) <= 1e-12
        assert abs(rate_bound(fam) - predicted) <= 1e-10

    def test_norm_formula_on_random_specs(self):
        rng = rng_for(817)
        for _ in range(10):
            blocks = int(rng.integers(1, 12))
            alphas = tuple(float(a) for a in rng.uniform(0.05, 3.0, size=blocks))
            fam, predicted = slow_family(SlowFamilySpec(blocks, alphas))
            assert abs(predicted - max(1 / np.sqrt(1 + a * a) for a in alphas)) <= 1e-15
            assert abs(projector_product_norm(fam[0], fam[1]) - predicted) <= 1e-10

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SlowFamilySpec(2, (1.0,))
        with pytest.raises(ValueError):
            SlowFamilySpec(1, (0.0,))
        with pytest.raises(ValueError):
            SlowFamilySpec(0, ())

    @pytest.mark.parametrize("truncation", [2.0, True, np.True_, "2", None])
    def test_truncation_is_an_integer(self, truncation):
        # a float would fail only inside slow_family, sizing the bases
        with pytest.raises(ValueError, match="^truncation must be an integer$"):
            SlowFamilySpec(truncation, (1.0, 2.0))

    @pytest.mark.parametrize("truncation", [np.int64(2), np.uint8(2)])
    def test_truncation_may_be_a_numpy_integer(self, truncation):
        fam, predicted = slow_family(SlowFamilySpec(truncation, (1.0, 2.0)))
        ref, ref_predicted = slow_family(SlowFamilySpec(2, (1.0, 2.0)))
        assert predicted == ref_predicted
        assert all(np.array_equal(a.basis, b.basis) for a, b in zip(fam, ref))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_is_refused(self, bad):
        with pytest.raises(ValueError, match="weights have non-finite entries"):
            SlowFamilySpec(2, (1.0, bad))

    def test_huge_weight_keeps_the_basis_orthonormal(self):
        # a * a overflows; the scale 1 / hypot(1, a) does not
        fam, predicted = slow_family(SlowFamilySpec(1, (1e200,)))
        assert predicted == 1.0 / math.hypot(1.0, 1e200)
        assert np.array_equal(fam[1].basis, [[1e-200], [1.0]])


class TestSlowConvergenceDemo:
    def test_constant_weights_contract_at_one_half(self):
        spec = SlowFamilySpec(3, (1.0, 1.0, 1.0))
        opts = SolveOptions(max_iter=40, tol=1e-13, record_trace=True)
        dists = slow_trace(spec, worst_aligned_start(spec), opts).distances
        for k in range(min(10, len(dists) - 1)):
            if dists[k] > 1e-11:
                assert abs(dists[k + 1] / dists[k] - 0.5) <= 1e-6

    def test_zero_start_terminates_immediately(self):
        spec = SlowFamilySpec.harmonic(4)
        trace = slow_trace(spec, np.zeros(8), SolveOptions(record_trace=True))
        assert trace.sweeps == 1 and trace.converged
        assert trace.residuals[0] <= 1e-14

    def test_contraction_ratio_reaches_the_prediction(self):
        rng = rng_for(818)
        for blocks in (2, 5):
            alphas = tuple(float(a) for a in rng.uniform(0.2, 2.0, size=blocks))
            spec = SlowFamilySpec(blocks, alphas)
            _, predicted = slow_family(spec)
            opts = SolveOptions(max_iter=30, tol=1e-13, record_trace=True)
            dists = slow_trace(spec, worst_aligned_start(spec), opts).distances
            ratios = [dists[k + 1] / dists[k] for k in range(len(dists) - 1)
                      if dists[k] > 1e-10]
            assert ratios, "trace too short to measure a ratio"
            assert min(ratios) >= predicted ** 2 - 1e-6

    def test_ratio_increases_toward_one_with_the_truncation(self):
        worst = []
        for blocks in (4, 16, 64):
            spec = SlowFamilySpec.harmonic(blocks)
            opts = SolveOptions(max_iter=25, tol=1e-14, record_trace=True)
            dists = slow_trace(spec, worst_aligned_start(spec), opts).distances
            ratios = [dists[k + 1] / dists[k] for k in range(len(dists) - 1)
                      if dists[k] > 1e-10]
            worst.append(max(ratios))
        assert worst[0] < worst[1] < worst[2] < 1.0
        assert worst[2] > 0.999
