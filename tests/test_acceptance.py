"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and
prints a single pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see the lines as they appear.
"""

import csv
import json
from contextlib import contextmanager

import numpy as np

from ibap import (
    AffineConstraint,
    Family,
    SlowFamilySpec,
    SolveOptions,
    Subspace,
    angle_identity_gap,
    best_approximation,
    biorthogonal_bounds,
    check_independence,
    dft,
    dft_matrix,
    direct_solve,
    infeasibility_certificate,
    inner,
    MaskedSignalProblem,
    prescription_residual,
    projector_product_norm,
    rate_bound,
    recover_with_measurements,
    slow_family,
    solve_min_norm,
    solve_moments,
    solve_operator_system,
    solve_two,
    time_frequency_recover,
    verify_ibap,
)
from ibap.cli import EXIT_INFEASIBLE, EXIT_NO_IBAP, EXIT_OK, main

from conftest import (
    FIELDS,
    dependent_family_with_witness,
    random_family,
    random_independent_dims,
    random_matrix,
    random_orthogonal_family,
    random_prescription,
    random_subspace,
    random_unit,
    rng_for,
)
from oracles import min_norm_complex_via_real, pinv_min_norm
from test_biorthogonal import block_sequences


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def random_ibap_instance(rng, max_n=12, max_m=4):
    field = FIELDS[int(rng.integers(0, 2))]
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(max(2, m), max_n + 1))
    dims = random_independent_dims(rng, n, m)
    return random_family(rng, n, dims, field)


def test_criterion_1_minimal_norm_oracle_equivalence():
    with criterion(1, "minimal-norm oracle equivalence"):
        rng = rng_for(1001)
        for _ in range(200):
            family = random_ibap_instance(rng)
            pres = random_prescription(rng, family)
            got = solve_min_norm(family, pres)
            ref = pinv_min_norm(family, pres)
            assert np.linalg.norm(got - ref) <= 1e-8 * (1 + np.linalg.norm(ref))


def test_criterion_2_two_subspace_closed_form():
    with criterion(2, "two-subspace closed form"):
        rng = rng_for(1002)
        done = 0
        while done < 200:
            field = FIELDS[int(rng.integers(0, 2))]
            n = int(rng.integers(3, 13))
            ku = int(rng.integers(1, n // 2 + 1))
            kv = int(rng.integers(1, n - ku + 1))
            u = random_subspace(rng, n, ku, field)
            v = random_subspace(rng, n, kv, field)
            if projector_product_norm(u, v) > 0.99:
                continue
            done += 1
            fam_pres = [u.project(random_unit(rng, n, field) * 2),
                        v.project(random_unit(rng, n, field) * 2)]
            z = solve_two(AffineConstraint(u, fam_pres[0]), AffineConstraint(v, fam_pres[1]))
            assert np.linalg.norm(u.project(z) - fam_pres[0]) <= 1e-8
            assert np.linalg.norm(v.project(z) - fam_pres[1]) <= 1e-8
            oracle = pinv_min_norm(Family((u, v)), fam_pres)
            assert abs(np.linalg.norm(z) - np.linalg.norm(oracle)) <= 1e-8


def test_criterion_3_decision_soundness():
    with criterion(3, "decision soundness with solvability and certificates"):
        rng = rng_for(1003)
        for trial in range(200):
            if trial % 5 < 2:
                field = FIELDS[int(rng.integers(0, 2))]
                family, witness = dependent_family_with_witness(
                    rng, int(rng.integers(6, 11)), field)
            else:
                family, witness = random_ibap_instance(rng), None
            report = verify_ibap(family)
            assert report.verdict == check_independence(family)
            if report.verdict:
                for _ in range(20):
                    pres = random_prescription(rng, family)
                    x = direct_solve(family, pres)
                    assert prescription_residual(family, pres, x) <= 1e-10
            else:
                assert witness is not None
                assert np.linalg.norm(sum(witness)) <= 1e-10
                cert = infeasibility_certificate(family, witness)
                assert cert is not None and cert.residual > 0


def test_criterion_4_rate_bound_inequality():
    with criterion(4, "iteration rate bound inequality"):
        rng = rng_for(1004)
        for _ in range(100):
            family = random_ibap_instance(rng, max_n=10)
            pres = random_prescription(rng, family)
            start = random_unit(rng, family.ambient_dim, family.field) * 2
            opts = SolveOptions(max_iter=200, tol=1e-11, record_trace=True)
            _, trace = best_approximation(start, family, pres, opts)
            alpha = trace.alpha
            assert alpha is not None and 0.0 <= alpha < 1.0
            d0 = trace.initial_distance
            for n, dist in enumerate(trace.distances, 1):
                assert dist <= alpha ** n * d0 + 1e-8
        # mutually orthogonal families have rate bound zero and need one sweep
        for _ in range(10):
            n = int(rng.integers(4, 11))
            m = int(rng.integers(2, 5))
            dims = random_independent_dims(rng, n, m)
            family = random_orthogonal_family(rng, n, dims,
                                              FIELDS[int(rng.integers(0, 2))])
            assert rate_bound(family) == 0.0
            pres = random_prescription(rng, family)
            start = random_unit(rng, n, family.field) * 3
            _, trace = best_approximation(start, family, pres)
            assert trace.sweeps == 1 and trace.converged


def test_criterion_5_angle_identities_and_monotonicity():
    with criterion(5, "angle identity and projector-norm monotonicity"):
        rng = rng_for(1005)
        for _ in range(100):
            field = FIELDS[int(rng.integers(0, 2))]
            n = int(rng.integers(3, 9))
            u = random_subspace(rng, n, int(rng.integers(1, n)), field)
            v = random_subspace(rng, n, int(rng.integers(1, n)), field)
            assert angle_identity_gap(u, v) <= 1e-10
        for _ in range(100):
            field = FIELDS[int(rng.integers(0, 2))]
            n = int(rng.integers(4, 10))
            u = random_subspace(rng, n, int(rng.integers(1, n - 1)), field)
            kv = int(rng.integers(2, n))
            v = random_subspace(rng, n, kv, field)
            kw = int(rng.integers(1, kv))
            w = Subspace.from_spanning(
                list((v.basis @ random_matrix(rng, kv, kw, field)).T), n, field=field)
            assert projector_product_norm(u, w) <= projector_product_norm(u, v) + 1e-12


def test_criterion_6_biorthogonal_sandwich():
    with criterion(6, "bi-orthogonal sandwich bounds"):
        rng = rng_for(1006)
        for _ in range(100):
            blocks = int(rng.integers(1, 7))
            cap = float(rng.uniform(0.005, 0.1))
            seqs = block_sequences(rng, blocks, cap)
            report = biorthogonal_bounds(seqs)
            for pair in report.pairs:
                assert pair.lower <= pair.norm + 1e-10
                assert pair.norm <= pair.upper + 1e-10
            if report.condition_sum < 1.0:
                assert report.ibap.verdict


def test_criterion_7_slow_family_prediction():
    with criterion(7, "slow-family norm prediction and rate degradation"):
        rng = rng_for(1007)
        for _ in range(20):
            blocks = int(rng.integers(1, 30))
            alphas = tuple(float(a) for a in rng.uniform(0.02, 4.0, size=blocks))
            family, predicted = slow_family(SlowFamilySpec(blocks, alphas))
            got = projector_product_norm(family[0], family[1])
            assert abs(got - predicted) <= 1e-10
        rates = []
        for blocks in (4, 16, 64):
            family, _ = slow_family(SlowFamilySpec.harmonic(blocks))
            rates.append(rate_bound(family))
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[2] > 0.999


def test_criterion_8_application_round_trips():
    with criterion(8, "application constraint round-trips"):
        rng = rng_for(1008)
        # constrained moments
        done = 0
        while done < 50:
            n = int(rng.integers(4, 10))
            kdim = int(rng.integers(2, n + 1))
            space = random_subspace(rng, n, kdim)
            nmom = int(rng.integers(1, min(3, kdim) + 1))
            vs = [rng.standard_normal(n) for _ in range(nmom)]
            etas = [float(e) for e in rng.standard_normal(nmom)]
            try:
                x = solve_moments(space, vs, etas)
            except ValueError:
                continue
            done += 1
            assert np.linalg.norm(space.project(x) - x) <= 1e-8
            for v, eta in zip(vs, etas):
                assert abs(inner(x, v) - eta) <= 1e-8
        # operator systems with planted solutions
        done = 0
        while done < 50:
            n = int(rng.integers(5, 10))
            m = int(rng.integers(1, 4))
            sizes = [int(rng.integers(1, 3)) for _ in range(m)]
            if sum(sizes) > n:
                continue
            ts = [random_matrix(rng, p, n) for p in sizes]
            x0 = rng.standard_normal(n)
            ys = [t @ x0 for t in ts]
            x = solve_operator_system(ts, ys)
            done += 1
            for t, y in zip(ts, ys):
                assert np.linalg.norm(t @ x - y) <= 1e-8 * (1 + np.linalg.norm(y))
            assert np.linalg.norm(x) <= np.linalg.norm(x0) + 1e-8
        # masked time/frequency recovery; small masks never report intersection
        done = 0
        while done < 50:
            n = int(rng.integers(4, 16))
            ta = int(rng.integers(0, 4))
            tb = int(rng.integers(0, 4))
            if ta * tb >= n:
                continue
            tmask = tuple(sorted(rng.choice(n, size=ta, replace=False).tolist()))
            fmask = tuple(sorted(rng.choice(n, size=tb, replace=False).tolist()))
            a = rng.standard_normal(ta) + 1j * rng.standard_normal(ta)
            b = rng.standard_normal(tb) + 1j * rng.standard_normal(tb)
            problem = MaskedSignalProblem(n=n, time_mask=tmask, freq_mask=fmask,
                                          time_values=a, freq_values=b)
            x = time_frequency_recover(problem)  # must not raise for small masks
            done += 1
            spectrum = dft(x)
            for k, i in enumerate(tmask):
                assert abs(x[i] - a[k]) <= 1e-8
            for k, i in enumerate(fmask):
                assert abs(spectrum[i] - b[k]) <= 1e-8
        # recovery with one extra measurement, checked against raw constraints
        done = 0
        while done < 50:
            n = int(rng.integers(6, 12))
            tmask = (0, 1)
            fmask = (0,)
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            problem = MaskedSignalProblem(n=n, time_mask=tmask, freq_mask=fmask,
                                          time_values=a, freq_values=b)
            m1 = np.zeros(n, dtype=complex)
            support = rng.choice(np.arange(2, n), size=2, replace=False)
            m1[support] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            eta = complex(*rng.standard_normal(2))
            x = recover_with_measurements(problem, [m1], [eta])
            done += 1
            spectrum = dft(x)
            assert abs(inner(x, m1) - eta) <= 1e-8
            for k, i in enumerate(tmask):
                assert abs(x[i] - a[k]) <= 1e-8
            for k, i in enumerate(fmask):
                assert abs(spectrum[i] - b[k]) <= 1e-8
            rows = np.vstack([m1.conj()[None, :],
                              np.eye(n, dtype=complex)[list(tmask), :],
                              dft_matrix(n)[list(fmask), :]])
            rhs = np.concatenate([[eta], a, b])
            oracle = min_norm_complex_via_real(rows, rhs)
            assert np.linalg.norm(x - oracle) <= 1e-8


def test_criterion_9_cli_contract(tmp_path):
    with criterion(9, "command-line contract and trace bound"):
        axes = tmp_path / "axes.json"
        axes.write_text(json.dumps({
            "field": "real", "ambient_dim": 3,
            "subspaces": [{"name": "U1", "vectors": [[1, 0, 0]]},
                          {"name": "U2", "vectors": [[0, 1, 0]]},
                          {"name": "U3", "vectors": [[0, 0, 1]]}],
            "prescription": [[2, 0, 0], [0, 3, 0], [0, 0, 1]],
        }))
        dependent = tmp_path / "dependent.json"
        dependent.write_text(json.dumps({
            "field": "real", "ambient_dim": 3,
            "subspaces": [{"name": "P1", "vectors": [[0, 1, 0], [0, 0, 1]]},
                          {"name": "P2", "vectors": [[1, 0, 0], [0, 0, 1]]}],
            "prescription": [[0, 0, 0], [0, 0, 0]],
        }))
        s = 1 / np.sqrt(2)
        zero_sum = tmp_path / "zerosum.json"
        zero_sum.write_text(json.dumps({
            "field": "real", "ambient_dim": 2,
            "subspaces": [{"name": "U1", "vectors": [[1, 0]]},
                          {"name": "U2", "vectors": [[0, 1]]},
                          {"name": "U3", "vectors": [[s, s]]}],
            "prescription": [[1, 0], [0, 1], [-1, -1]],
        }))
        c, sn = 0.5, np.sqrt(3) / 2
        sixty = tmp_path / "sixty.json"
        sixty.write_text(json.dumps({
            "field": "real", "ambient_dim": 2,
            "subspaces": [{"name": "L1", "vectors": [[1, 0]]},
                          {"name": "L2", "vectors": [[c, sn]]}],
            "prescription": [[1, 0], [0.5 * c, 0.5 * sn]],
            "anchor": [2.0, -1.5],
        }))

        assert main(["check", str(axes)]) == EXIT_OK
        assert main(["check", str(dependent)]) == EXIT_NO_IBAP
        assert main(["solve", str(axes), "--method", "recursion"]) == EXIT_OK
        assert main(["solve", str(axes), "--method", "iterate"]) == EXIT_OK
        assert main(["solve", str(zero_sum)]) == EXIT_INFEASIBLE
        assert main(["solve", str(dependent), "--method", "recursion"]) == EXIT_NO_IBAP
        assert main(["iterate", str(zero_sum)]) == EXIT_INFEASIBLE

        trace = tmp_path / "sixty.csv"
        assert main(["iterate", str(sixty), "--tol", "1e-12",
                     "--trace", str(trace)]) == EXIT_OK
        rows = list(csv.reader(trace.open()))
        assert rows[0] == ["iter", "max_residual", "dist_to_solution", "bound"]
        assert len(rows) > 2
        for row in rows[1:]:
            assert float(row[2]) <= float(row[3]) + 1e-8
