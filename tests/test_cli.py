"""Command-line front end: file formats, exit codes, and trace output."""

import csv
import decimal
import importlib.util
import json
import math
import os
import sys
import warnings
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibap.angles
import ibap.applications
import ibap.cli
import ibap.family
from ibap import ConvergenceTrace, best_approximation, infeasibility_certificate
from ibap.cli import (
    DEFAULT_MAX_ITER,
    EXIT_INFEASIBLE,
    EXIT_NO_IBAP,
    EXIT_OK,
    EXIT_PARSE,
    ParseError,
    Problem,
    _repr_column,
    _scalar,
    _vector,
    _vectors,
    _write_trace_csv,
    build_family,
    build_parser,
    load_problem,
    main,
)
from ibap.subspaces import MEMBERSHIP_RTOL, field_dtype

from conftest import FIELDS, random_matrix, rng_for
from oracles import parallel_subspace, save_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def axes_doc(prescription=True):
    doc = {
        "field": "real",
        "ambient_dim": 3,
        "subspaces": [
            {"name": "U1", "vectors": [[1, 0, 0]]},
            {"name": "U2", "vectors": [[0, 1, 0]]},
            {"name": "U3", "vectors": [[0, 0, 1]]},
        ],
    }
    if prescription:
        doc["prescription"] = [[2, 0, 0], [0, 3, 0], [0, 0, 1]]
    return doc


def dependent_planes_doc():
    return {
        "field": "real",
        "ambient_dim": 3,
        "subspaces": [
            {"name": "P1", "vectors": [[0, 1, 0], [0, 0, 1]]},
            {"name": "P2", "vectors": [[1, 0, 0], [0, 0, 1]]},
        ],
        "prescription": [[0, 0, 0], [0, 0, 0]],
    }


def zero_sum_doc():
    s = 1 / np.sqrt(2)
    return {
        "field": "real",
        "ambient_dim": 2,
        "subspaces": [
            {"name": "U1", "vectors": [[1, 0]]},
            {"name": "U2", "vectors": [[0, 1]]},
            {"name": "U3", "vectors": [[s, s]]},
        ],
        "prescription": [[1, 0], [0, 1], [-1, -1]],
    }


def sixty_degree_doc():
    c, s = 0.5, np.sqrt(3) / 2
    return {
        "field": "real",
        "ambient_dim": 2,
        "subspaces": [
            {"name": "L1", "vectors": [[1, 0]]},
            {"name": "L2", "vectors": [[c, s]]},
        ],
        "prescription": [[1, 0], [0.5 * c, 0.5 * s]],
        "anchor": [2.0, -1.5],
    }


class TestRoundTrip:
    def test_real_problem_round_trips_bitwise(self, tmp_path):
        rng = rng_for(900)
        spans = tuple(tuple(rng.standard_normal(4) for _ in range(2)) for _ in range(2))
        problem = Problem(field="real", ambient_dim=4, names=("A", "B"), spans=spans,
                          prescription=None, anchor=rng.standard_normal(4))
        p1 = tmp_path / "p1.json"
        save_problem(str(p1), problem)
        loaded = load_problem(str(p1))
        for span_a, span_b in zip(problem.spans, loaded.spans):
            for va, vb in zip(span_a, span_b):
                assert np.array_equal(np.asarray(va, dtype=float), vb)
        assert np.array_equal(problem.anchor, loaded.anchor)
        p2 = tmp_path / "p2.json"
        save_problem(str(p2), loaded)
        assert p1.read_text() == p2.read_text()
        f1 = build_family(loaded)
        f2 = build_family(load_problem(str(p2)))
        for a, b in zip(f1.subspaces, f2.subspaces):
            assert np.array_equal(a.basis, b.basis)

    def test_complex_problem_round_trips_bitwise(self, tmp_path):
        rng = rng_for(901)
        vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pres = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        problem = Problem(field="complex", ambient_dim=3, names=("U",),
                          spans=((vec,),), prescription=(vec * 0.5,), anchor=None)
        p1 = tmp_path / "c1.json"
        save_problem(str(p1), problem)
        loaded = load_problem(str(p1))
        assert np.array_equal(np.asarray(vec, dtype=complex), loaded.spans[0][0])
        p2 = tmp_path / "c2.json"
        save_problem(str(p2), loaded)
        assert p1.read_text() == p2.read_text()


class TestCheck:
    def test_axes_report_and_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "axes.json", axes_doc())
        assert main(["check", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "inverse best approximation property: yes" in out
        assert "rate bound alpha: 0" in out
        assert "unique solutions: yes" in out

    def test_dependent_planes_exit_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "dep.json", dependent_planes_doc())
        assert main(["check", path]) == EXIT_NO_IBAP
        out = capsys.readouterr().out
        assert "independent: no" in out

    def test_json_report_written(self, tmp_path):
        path = write_json(tmp_path / "axes.json", axes_doc())
        out = tmp_path / "report.json"
        assert main(["check", path, "--json-out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["verdict"] is True
        assert doc["independent"] is True
        assert doc["unique"] is True
        assert doc["alpha"] == 0.0
        assert len(doc["levels"]) == 2
        assert all(lev["gamma"] == 1.0 for lev in doc["levels"])

    def test_json_report_bytes_of_a_dependent_family(self, tmp_path):
        # key order, indent=1 and the degenerate level's null gamma
        path = write_json(tmp_path / "dep.json", dependent_planes_doc())
        out = tmp_path / "report.json"
        assert main(["check", path, "--json-out", str(out)]) == EXIT_NO_IBAP
        assert out.read_bytes() == (
            b'{\n "verdict": false,\n "independent": false,\n "unique": true,\n'
            b' "alpha": 1.0,\n "sum_dims": 4,\n "dim_sum": 3,\n "sums_closed": true,\n'
            b' "levels": [\n  {\n   "index": 1,\n   "norm": 1.0,\n   "cos_angle": 0.0,\n'
            b'   "gamma": null,\n   "degenerate": true\n  }\n ]\n}\n')

    def test_unwritable_json_out_exit_four(self, tmp_path, capsys):
        path = write_json(tmp_path / "axes.json", axes_doc())
        out = tmp_path / "missing" / "report.json"
        assert main(["check", path, "--json-out", str(out)]) == EXIT_PARSE
        captured = capsys.readouterr()
        # the path is checked before the work: nothing is reported on stdout
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and str(out) in err[0]

    def test_failed_check_leaves_an_existing_report_as_it_is(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        assert main(["check", str(bad), "--json-out", str(out)]) == EXIT_PARSE
        assert out.read_text() == "earlier report\n"

    def test_gamma_values_finite_on_a_random_fixture(self, tmp_path, capsys):
        rng = rng_for(902)
        doc = {
            "field": "real",
            "ambient_dim": 5,
            "subspaces": [
                {"name": f"U{i}", "vectors": [list(rng.standard_normal(5))]}
                for i in range(3)
            ],
        }
        path = write_json(tmp_path / "rand.json", doc)
        out = tmp_path / "rep.json"
        assert main(["check", path, "--json-out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert all(lev["gamma"] is not None and lev["gamma"] >= 1.0 for lev in rep["levels"])

    def test_parse_error_exit_four(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["check", str(bad)]) == EXIT_PARSE
        assert main(["check", str(tmp_path / "missing.json")]) == EXIT_PARSE

    def test_schema_violations_exit_four(self, tmp_path):
        doc = axes_doc()
        doc["ambient_dim"] = -1
        assert main(["check", write_json(tmp_path / "a.json", doc)]) == EXIT_PARSE
        doc = axes_doc()
        doc["subspaces"][0]["vectors"][0] = [1, 0]
        assert main(["check", write_json(tmp_path / "b.json", doc)]) == EXIT_PARSE
        doc = axes_doc()
        doc["field"] = "quaternion"
        assert main(["check", write_json(tmp_path / "c.json", doc)]) == EXIT_PARSE

    def test_complex_scalar_in_real_field_exit_four(self, tmp_path):
        doc = axes_doc()
        doc["subspaces"][0]["vectors"][0] = [[1, 1], 0, 0]
        assert main(["check", write_json(tmp_path / "d.json", doc)]) == EXIT_PARSE


class TestSolve:
    def test_zero_prescription_yields_the_zero_vector(self, tmp_path, capsys):
        doc = axes_doc(prescription=False)
        doc["prescription"] = [[0, 0, 0]] * 3
        path = write_json(tmp_path / "zero.json", doc)
        assert main(["solve", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "solution: [0.0, 0.0, 0.0]" in out

    def test_zero_sum_prescription_exit_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "zs.json", zero_sum_doc())
        assert main(["solve", path]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "certificate residual" in err

    def test_methods_agree(self, tmp_path, capsys):
        rng = rng_for(903)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        doc = {
            "field": "real",
            "ambient_dim": 6,
            "subspaces": [
                {"name": "A", "vectors": [list(v) for v in rng.standard_normal((2, 6))]},
                {"name": "B", "vectors": [list(v) for v in rng.standard_normal((1, 6))]},
                {"name": "C", "vectors": [list(v) for v in rng.standard_normal((2, 6))]},
            ],
        }
        path = write_json(tmp_path / "fam.json", doc)
        family = build_family(load_problem(path))
        pres = [s.project(rng.standard_normal(6)) for s in family.subspaces]
        doc["prescription"] = [list(map(float, u)) for u in pres]
        path = write_json(tmp_path / "fam.json", doc)
        # dims 2 + 1 + 2 in R^6: a one-dimensional parallel subspace, so the
        # anchor picks a different point of the solution set
        parallel = parallel_subspace(family)
        assert parallel.dim == 1
        anchor = json.dumps(list(map(float, 3 * rng.standard_normal(6))))
        solutions, printed = {}, {}
        for extra in ([], ["--anchor", anchor]):
            for method in ("direct", "recursion", "iterate"):
                assert main(["solve", path, "--method", method, *extra]) == EXIT_OK
                out = capsys.readouterr().out
                printed[method, bool(extra)] = out.split("\n", 1)[1]
                line = next(l for l in out.splitlines() if l.startswith("solution:"))
                solutions[method, bool(extra)] = np.array(json.loads(line.split("solution: ")[1]))
        for anchored in (False, True):
            # an independent family: the direct solve is the recursion
            assert printed["direct", anchored] == printed["recursion", anchored]
            direct = solutions["direct", anchored]
            assert np.linalg.norm(direct - solutions["recursion", anchored]) <= 1e-8
            assert np.linalg.norm(direct - solutions["iterate", anchored]) <= 1e-8
        moved = solutions["direct", True] - solutions["direct", False]
        assert np.linalg.norm(moved) > 1e-3
        assert np.linalg.norm(parallel.project(moved) - moved) <= 1e-10

    def test_recursion_on_dependent_family_exit_three(self, tmp_path):
        path = write_json(tmp_path / "dep.json", dependent_planes_doc())
        assert main(["solve", path, "--method", "recursion"]) == EXIT_NO_IBAP

    @pytest.mark.parametrize("method", ["direct", "recursion", "iterate"])
    def test_huge_prescription_off_its_subspace_exit_four(self, tmp_path, capsys, method):
        # the squares of 1e200 overflow; the vector still lies 1e200 off U1,
        # against an allowance of MEMBERSHIP_RTOL times its norm
        doc = axes_doc()
        doc["prescription"][0] = [1e200, 1e200, 0]
        path = write_json(tmp_path / "huge.json", doc)
        assert main(["solve", path, "--method", method]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "is not in its subspace (distance 1.000e+200, allowance 1.414e+192)" in err

    def test_missing_prescription_exit_four(self, tmp_path):
        path = write_json(tmp_path / "nopres.json", axes_doc(prescription=False))
        assert main(["solve", path]) == EXIT_PARSE

    def test_anchor_changes_the_representative(self, tmp_path, capsys):
        doc = {
            "field": "real",
            "ambient_dim": 3,
            "subspaces": [
                {"name": "U1", "vectors": [[1, 0, 0]]},
                {"name": "U2", "vectors": [[0, 1, 0]]},
            ],
            "prescription": [[1, 0, 0], [0, 2, 0]],
        }
        path = write_json(tmp_path / "anchored.json", doc)
        assert main(["solve", path, "--anchor", "[0, 0, 7]"]) == EXIT_OK
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("solution:"))
        assert np.allclose(json.loads(line.split("solution: ")[1]), [1.0, 2.0, 7.0])


class TestIterate:
    def test_axes_converge_in_a_single_row(self, tmp_path, capsys):
        path = write_json(tmp_path / "axes.json", axes_doc())
        trace = tmp_path / "trace.csv"
        assert main(["iterate", path, "--trace", str(trace)]) == EXIT_OK
        rows = list(csv.reader(trace.open()))
        assert rows[0] == ["iter", "max_residual", "dist_to_solution", "bound"]
        assert len(rows) == 2
        assert rows[1][0] == "1"
        assert float(rows[1][1]) <= 1e-10

    def test_sixty_degree_rows_respect_the_bound(self, tmp_path):
        path = write_json(tmp_path / "sixty.json", sixty_degree_doc())
        trace = tmp_path / "trace.csv"
        assert main(["iterate", path, "--tol", "1e-12", "--trace", str(trace)]) == EXIT_OK
        rows = list(csv.reader(trace.open()))[1:]
        assert len(rows) >= 5
        for row in rows:
            dist = float(row[2])
            bound = float(row[3])
            assert dist <= bound + 1e-8

    def test_slow_fixture_emits_many_rows_with_the_predicted_ratio(self, tmp_path):
        blocks = 64
        alphas = [1.0 / (j + 1) for j in range(blocks)]
        scales = [1.0 / np.sqrt(1 + a * a) for a in alphas]
        n = 2 * blocks
        even = [[0.0] * n for _ in range(blocks)]
        mixed = [[0.0] * n for _ in range(blocks)]
        for j, a in enumerate(alphas):
            even[j][2 * j] = 1.0
            mixed[j][2 * j] = scales[j]
            mixed[j][2 * j + 1] = a * scales[j]
        start = [0.0] * n
        start[2 * (blocks - 1) + 1] = 1.0
        doc = {
            "field": "real",
            "ambient_dim": n,
            "subspaces": [{"name": "even", "vectors": even},
                          {"name": "mixed", "vectors": mixed}],
            "prescription": [[0.0] * n, [0.0] * n],
            "anchor": start,
        }
        path = write_json(tmp_path / "slow.json", doc)
        trace = tmp_path / "trace.csv"
        assert main(["iterate", path, "--max-iter", "150", "--tol", "1e-14",
                     "--trace", str(trace)]) == EXIT_OK
        rows = list(csv.reader(trace.open()))[1:]
        assert len(rows) > 100
        predicted_sq = max(s * s for s in scales)
        dists = [float(r[2]) for r in rows]
        ratios = [dists[k + 1] / dists[k] for k in range(len(dists) - 1) if dists[k] > 1e-12]
        assert abs(max(ratios) - predicted_sq) <= 1e-6

    def test_infeasible_fixture_exit_two(self, tmp_path):
        path = write_json(tmp_path / "zs.json", zero_sum_doc())
        assert main(["iterate", path]) == EXIT_INFEASIBLE

    def test_norms_of_a_huge_prescription_do_not_overflow(self, tmp_path, capsys):
        # the squares of these entries overflow; their norms need not
        doc = {"field": "real", "ambient_dim": 3,
               "subspaces": [{"vectors": [[1, 0, 0]]}, {"vectors": [[1, 1, 0]]}],
               "prescription": [[1e200, 0, 0], [1e200, 1e200, 0]]}
        path = write_json(tmp_path / "huge.json", doc)
        trace = tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["iterate", path, "--max-iter", "40", "--trace", str(trace)]) == EXIT_OK
        out = capsys.readouterr().out
        residual = float(out.split("max residual: ")[1])
        assert 0.0 < residual < 1e190
        rows = list(csv.reader(trace.open()))[1:]
        # the residual sits at its rounding floor, about 1.6 eps ||x||, from
        # the first sweep, so the run ends with the first block
        assert len(rows) == 32 and "converged: no" in out
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        # the distance to the solution 1e200 (e0 + e1) shrinks below d0
        assert float(rows[-1][2]) < float(rows[0][3]) < math.sqrt(2) * 1e200

    def test_a_run_stopped_on_its_rounding_floor_warns(self, tmp_path, capsys):
        # the residual sits near 2 eps ||x|| = 6.3e4, far above tol, from the
        # first sweep: the run ends with its first block, not converged
        doc = {"field": "real", "ambient_dim": 3,
               "subspaces": [{"vectors": [[1, 0, 0]]}, {"vectors": [[1, 1, 0]]}],
               "prescription": [[1e20, 0, 0], [1e20, 1e20, 0]]}
        path = write_json(tmp_path / "floor.json", doc)
        assert main(["solve", path, "--method", "iterate"]) == EXIT_OK
        assert capsys.readouterr().err == "warning: stopped after 32 sweeps above tolerance\n"
        assert main(["iterate", path]) == EXIT_OK
        assert "sweeps: 32  converged: no" in capsys.readouterr().out

    def test_unwritable_trace_exit_four(self, tmp_path, capsys):
        path = write_json(tmp_path / "axes.json", axes_doc())
        # a directory cannot be opened for writing
        assert main(["iterate", path, "--trace", str(tmp_path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        # the path is checked before the work: nothing is reported on stdout
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and str(tmp_path) in err[0]

    def test_env_var_overrides_the_default_tolerance(self, tmp_path, monkeypatch, capsys):
        path = write_json(tmp_path / "sixty.json", sixty_degree_doc())
        monkeypatch.setenv("IBAP_DEFAULT_TOL", "10.0")
        assert main(["iterate", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "sweeps: 1" in out
        monkeypatch.setenv("IBAP_DEFAULT_TOL", "not-a-number")
        assert main(["iterate", path]) == EXIT_PARSE


class TestMomentsCommand:
    def test_single_constraint_fixture(self, tmp_path, capsys):
        doc = {
            "field": "real",
            "ambient_dim": 3,
            "space": None,
            "constraints": [{"vector": [1, 0, 0], "value": 5}],
        }
        path = write_json(tmp_path / "mom.json", doc)
        assert main(["moments", path]) == EXIT_OK
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("solution:"))
        assert np.allclose(json.loads(line.split("solution: ")[1]), [5.0, 0.0, 0.0])

    @pytest.mark.parametrize("field", FIELDS)
    def test_the_whole_space_prints_what_its_identity_rows_print(self, field, tmp_path,
                                                                 capsys):
        # without a space the orthocomplement is zero and no basis of the
        # whole space is built; the n identity rows span it explicitly
        rng = rng_for(1502)
        n = 7
        mats = random_matrix(rng, 3, n, field)
        values = random_matrix(rng, 3, 1, field)[:, 0]

        def enc(z):
            return [z.real, z.imag] if field == "complex" else z.real

        doc = {"field": field, "ambient_dim": n,
               "constraints": [{"vector": [enc(z) for z in v], "value": enc(eta)}
                               for v, eta in zip(mats, values)]}
        outs = []
        for space in (None, [[enc(z) for z in row] for row in np.eye(n, dtype=complex)]):
            assert main(["moments", write_json(tmp_path / "mom.json",
                                               dict(doc, space=space))]) == EXIT_OK
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and "space membership residual: 0.000000e+00" in outs[0].out

    def test_hypothesis_failure_exit_three(self, tmp_path):
        doc = {
            "field": "real",
            "ambient_dim": 3,
            "space": [[1, 0, 0]],
            "constraints": [{"vector": [0, 1, 0], "value": 1}],
        }
        path = write_json(tmp_path / "mom.json", doc)
        assert main(["moments", path]) == EXIT_NO_IBAP

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_solution_beyond_float64_exits_four(self, tmp_path, capsys):
        doc = {"field": "real", "ambient_dim": 3,
               "constraints": [{"vector": [1e-200, 0, 0], "value": 1e200}]}
        assert main(["moments", write_json(tmp_path / "mom.json", doc)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid input: moment vector 1: its prescribed point is not "
                                "representable in float64\n")


class TestConstraintErrorOrder:
    """The constraints are read one entry at a time: where any entry is
    refused, the first error in document order is the one reported."""

    @pytest.mark.parametrize("constraints, message", [
        ([{"vector": [1, 0, 0], "value": True}, {"vector": [0, 1], "value": 1}],
         "constraint value 1: booleans are not numbers"),
        ([{"vector": [1, "x", 0], "value": 1}, {"vector": [0, 1, 0]}],
         "constraint vector 1[1]: expected a number or [re, im] pair, got 'x'"),
        ([{"vector": [1, 0], "value": 1}, {"vector": [0, 1, 0], "value": False}],
         "constraint vector 1: has 2 entries, expected 3"),
        ([{"vector": [1, 0, 0], "value": 1}, [0, 1, 0]],
         "<path>: constraint 2 needs 'vector' and 'value'"),
    ], ids=["value-before-short-vector", "vector-before-malformed-entry",
            "short-vector-before-value", "malformed-entry"])
    def test_the_first_error_in_document_order(self, tmp_path, capsys, constraints, message):
        path = write_json(tmp_path / "mom.json",
                          {"field": "real", "ambient_dim": 3, "constraints": constraints})
        assert main(["moments", path]) == EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: {message.replace('<path>', path)}\n"

    def test_measurements_are_read_in_document_order(self, tmp_path, capsys):
        doc = {"n": 4, "time_mask": [0], "freq_mask": [], "time_values": [1.0],
               "freq_values": [], "measurements": [
                   {"vector": [0, [1, 2], 0, 0], "value": [1, 0]},
                   {"vector": [0, 0, 3, 1], "value": 2}]}
        assert main(["signal", write_json(tmp_path / "sig.json", doc)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "measurement 2 residual" in out
        doc["measurements"][1]["value"] = [1, 2, 3]
        assert main(["signal", write_json(tmp_path / "sig.json", doc)]) == EXIT_PARSE
        assert capsys.readouterr().err == ("parse error: measurement value 2: complex scalars "
                                           "must be [re, im] number pairs\n")


class TestNormsAtExtremeScales:
    """solve, moments, iterate and signal print norms taken at a power of
    two: a problem scaled by 2^k, which is exact, prints its numbers times
    that scale, also at k = +-600, where the unscaled squares would over-
    or underflow, and stops the iteration at the same sweep.  The refusals
    are relative, so a small problem is refused as at unit scale."""

    @staticmethod
    def printed(argv, capsys):
        assert main(argv) == EXIT_OK
        return dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
                    if ": " in line)

    @staticmethod
    def pairs(vector):
        return [[z.real, z.imag] for z in np.asarray(vector, dtype=complex)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-600, -30, 30, 600])
    def test_iterate_trace(self, tmp_path, capsys, k):
        # a complex line and plane of C^3, run from the anchor
        line = np.array([1.0, 1.0 + 1.0j, 2.0j])
        out, traces = [], []
        for s in (1.0, 2.0 ** k):
            doc = {"field": "complex", "ambient_dim": 3,
                   "subspaces": [{"vectors": [[1, 0, 0], [0, 1, 0]]},
                                 {"vectors": [self.pairs(line)]}],
                   "prescription": [self.pairs([s, -0.5j * s, 0]),
                                    self.pairs((0.75 - 0.25j) * s * line)],
                   "anchor": self.pairs([0.5 * s, 0.25j * s, -s])}
            path = write_json(tmp_path / "scaled.json", doc)
            trace = tmp_path / "trace.csv"
            out.append(self.printed(["iterate", path, "--trace", str(trace),
                                     "--tol", repr(1e-10 * s)], capsys))
            traces.append(list(csv.reader(trace.open()))[1:])
        (unit, big), scale = out, 2.0 ** k
        assert big["sweeps"] == unit["sweeps"] and unit["sweeps"].endswith("converged: yes")
        assert big["rate bound alpha"] == unit["rate bound alpha"]
        assert (json.loads(big["solution"])
                == [[v * scale for v in z] for z in json.loads(unit["solution"])])
        assert float(big["max residual"]) == pytest.approx(float(unit["max residual"]) * scale,
                                                           rel=1e-6)
        assert len(traces[0]) == len(traces[1]) == int(unit["sweeps"].split()[0]) > 1
        for row, big_row in zip(*traces):
            assert big_row[0] == row[0]
            assert [float(v) for v in big_row[1:]] == [float(v) * scale for v in row[1:]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-600, -30, 30, 600])
    def test_slowdemo_trace(self, tmp_path, capsys, k):
        # the family has no scale: a start and a tolerance scaled by 2^k
        # run the same sweeps, with every residual, distance and bound scaled
        start = [0.3, -0.5, 0.125, 0.7, 0.2, -0.4, 0.6, 0.05]
        out, traces = [], []
        for s in (1.0, 2.0 ** k):
            trace = tmp_path / "trace.csv"
            out.append(self.printed(["slowdemo", "--truncation", "4",
                                     "--start", json.dumps([v * s for v in start]),
                                     "--tol", repr(1e-10 * s), "--trace", str(trace)], capsys))
            traces.append(list(csv.reader(trace.open()))[1:])
        (unit, big), scale = out, 2.0 ** k
        assert big == unit and unit["sweeps"].endswith("converged: yes")
        assert len(traces[0]) == len(traces[1]) == int(unit["sweeps"].split()[0]) > 1
        for row, big_row in zip(*traces):
            assert big_row[0] == row[0]
            assert [float(v) for v in big_row[1:]] == [float(v) * scale for v in row[1:]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-600, -30, 30, 600])
    def test_signal(self, tmp_path, capsys, k):
        out = []
        for s in (1.0, 2.0 ** k):
            doc = {"n": 8, "time_mask": [0, 3], "freq_mask": [1, 6],
                   "time_values": [s, [0.5 * s, -s]],
                   "freq_values": [[0.25 * s, 0.75 * s], -2 * s],
                   "measurements": [{"vector": [0, 0, 0, 0, 1, 1, 0, 0],
                                     "value": [s, 0.5 * s]}]}
            out.append(self.printed(["signal", write_json(tmp_path / "sig.json", doc)], capsys))
        (unit, big), scale = out, 2.0 ** k
        assert (json.loads(big["solution"])
                == [[v * scale for v in z] for z in json.loads(unit["solution"])])
        for key in ("time residual", "frequency residual", "measurement 1 residual"):
            assert float(big[key]) == pytest.approx(float(unit[key]) * scale, rel=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600], ids=["2^600", "2^-600"])
    @pytest.mark.parametrize("method", ["direct", "recursion", "iterate"])
    def test_solve(self, tmp_path, capsys, method, scale):
        out = []
        for s in (1.0, scale):
            doc = {"field": "real", "ambient_dim": 3,
                   "subspaces": [{"vectors": [[1, 0, 0]]}, {"vectors": [[1, 1, 0]]}],
                   "prescription": [[s, 0, 0], [s, s, 0]]}
            path = write_json(tmp_path / "scaled.json", doc)
            # a tolerance scaled with the problem stops the iteration at the same sweep
            out.append(self.printed(["solve", path, "--method", method,
                                     "--tol", repr(1e-10 * s)], capsys))
        unit, big = out
        assert json.loads(big["solution"]) == [v * scale for v in json.loads(unit["solution"])]
        assert float(big["norm"]) == float(unit["norm"]) * scale
        assert float(big["max residual"]) == pytest.approx(float(unit["max residual"]) * scale,
                                                           rel=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600], ids=["2^600", "2^-600"])
    def test_moments(self, tmp_path, capsys, scale):
        out = []
        for s in (1.0, scale):
            doc = {"field": "real", "ambient_dim": 3, "space": [[1, 0, 0], [1, 1, 1]],
                   "constraints": [{"vector": [1, 2, 0], "value": 3 * s}]}
            out.append(self.printed(["moments", write_json(tmp_path / "mom.json", doc)], capsys))
        unit, big = out
        assert json.loads(big["solution"]) == [v * scale for v in json.loads(unit["solution"])]
        assert float(big["norm"]) == float(unit["norm"]) * scale
        for key in ("space membership residual", "moment 1 residual"):
            assert float(big[key]) == pytest.approx(float(unit[key]) * scale, rel=1e-6)

    @pytest.mark.parametrize("k", [-600, -30, 30, 600])
    def test_check(self, tmp_path, capsys, k):
        # spanning vectors scaled by 2^k span the same subspaces: the report,
        # its file and the exit code are those at unit scale, for an
        # independent real family and a dependent complex one
        rng = rng_for(1501)
        real = [rng.standard_normal((d, 6)) for d in (2, 1, 2)]
        cplx = [rng.standard_normal((d, 5)) + 1j * rng.standard_normal((d, 5)) for d in (2, 3)]
        cplx[1][0] = cplx[0][0] - 0.5j * cplx[0][1]
        for field, mats, code in (("real", real, EXIT_OK), ("complex", cplx, EXIT_NO_IBAP)):
            runs = []
            for s in (1.0, 2.0 ** k):
                doc = {"field": field, "ambient_dim": mats[0].shape[1],
                       "subspaces": [{"vectors": [self.pairs(v * s) if field == "complex"
                                                  else list(v * s) for v in m]}
                                     for m in mats]}
                report = tmp_path / "report.json"
                argv = ["check", write_json(tmp_path / "fam.json", doc),
                        "--json-out", str(report)]
                runs.append((main(argv), capsys.readouterr(), report.read_text()))
            (unit_code, unit, unit_report), (code_k, big, big_report) = runs
            assert unit_code == code_k == code
            assert big.out == unit.out and big.err == unit.err == ""
            assert big_report == unit_report

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-600, -30, 30, 600])
    def test_rejections(self, tmp_path, capsys, k):
        # each rejection exits with its unit-scale code, and each distance
        # and allowance it prints is the unit one times 2^k, exactly: the
        # zero-sum prescription of three lines (its level's null part; its
        # allowance is compared as printed, to four digits), a vector half
        # a unit off its line (its allowance MEMBERSHIP_RTOL times its
        # norm), a dependent family without the recursion, dependent
        # moment vectors and masks meeting in a comb
        e = np.eye(3)

        def zero_sum(s):
            doc = zero_sum_doc()
            doc["prescription"] = [[v * s for v in u] for u in doc["prescription"]]
            return doc

        def off_line(s):
            return {"field": "real", "ambient_dim": 3,
                    "subspaces": [{"vectors": [[1, 0, 0]]}, {"vectors": [[0, 1, 0]]}],
                    "prescription": [[s, 0, 0.5 * s], [0, 0, 0]]}

        def planes(s):
            return dict(dependent_planes_doc(), prescription=[list(s * e[1]), list(s * e[0])])

        def moments(s):
            return {"field": "real", "ambient_dim": 3,
                    "constraints": [{"vector": [s, s, 0], "value": s},
                                    {"vector": [2 * s, 2 * s, 0], "value": 2 * s}]}

        def comb(s):
            return {"n": 8, "time_mask": [0, 2, 4, 6], "freq_mask": [0, 1, 2, 4, 6],
                    "time_values": [s, -s, [0, s], 0.5 * s],
                    "freq_values": [s, [s, s], -s, 0, 2 * s]}

        off_allowance = MEMBERSHIP_RTOL * math.hypot(1.0, 0.5)
        unit_r = infeasibility_certificate(build_family(load_problem(
            write_json(tmp_path / "zs.json", zero_sum(1.0)))), zero_sum(1.0)["prescription"]).residual
        for make, argv, code, numbers in (
                (zero_sum, ["solve", "--method", "direct"], EXIT_INFEASIBLE, [unit_r]),
                (zero_sum, ["iterate"], EXIT_INFEASIBLE, [unit_r]),
                (zero_sum, ["solve", "--method", "recursion"], EXIT_NO_IBAP, []),
                (off_line, ["solve", "--method", "direct"], EXIT_PARSE, [0.5, off_allowance]),
                (off_line, ["iterate"], EXIT_PARSE, [0.5, off_allowance]),
                (planes, ["solve", "--method", "recursion"], EXIT_NO_IBAP, []),
                (moments, ["moments"], EXIT_NO_IBAP, []),
                (comb, ["signal"], EXIT_NO_IBAP, [])):
            errs = []
            for s in (1.0, 2.0 ** k):
                path = write_json(tmp_path / "reject.json", make(s))
                assert main([argv[0], path, *argv[1:]]) == code
                captured = capsys.readouterr()
                assert captured.out == ""
                errs.append(captured.err)
            if make is zero_sum and code == EXIT_INFEASIBLE:
                big_r = infeasibility_certificate(
                    build_family(load_problem(path)), make(2.0 ** k)["prescription"]).residual
                assert big_r == unit_r * 2.0 ** k
            unit, big = errs
            # the unit message with each of its distances scaled
            assert all(format(value, ".3e") in unit for value in numbers)
            for value in numbers:
                for spec in (".3e", ".6e"):
                    unit = unit.replace(format(value, spec), format(value * 2.0 ** k, spec))
            if code == EXIT_INFEASIBLE:
                printed = unit.split("allowance ")[1].split(")")[0]
                unit = unit.replace(f"allowance {printed}",
                                    f"allowance {float(printed) * 2.0 ** k:.3e}")
            assert big == unit and (not numbers or big != errs[0])

    @pytest.mark.parametrize("method", ["direct", "iterate"])
    def test_a_small_contradiction_is_infeasible(self, tmp_path, capsys, method):
        # the line through e0 prescribed 1e-9 e0 and -1e-9 e0, as e0 and -e0 are
        doc = {"field": "real", "ambient_dim": 3,
               "subspaces": [{"vectors": [[1, 0, 0]]}, {"vectors": [[1, 0, 0]]}],
               "prescription": [[1e-9, 0, 0], [-1e-9, 0, 0]]}
        path = write_json(tmp_path / "small.json", doc)
        assert main(["solve", path, "--method", method]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith("infeasible: ")

    @pytest.mark.parametrize("method", ["direct", "recursion", "iterate"])
    def test_a_small_vector_off_its_line_is_refused(self, tmp_path, capsys, method):
        # 1e-9 e2 lies wholly outside the line through e0, as e2 does
        doc = {"field": "real", "ambient_dim": 3,
               "subspaces": [{"vectors": [[1, 0, 0]]}, {"vectors": [[0, 1, 0]]}],
               "prescription": [[0, 0, 1e-9], [0, 0, 0]]}
        path = write_json(tmp_path / "off.json", doc)
        assert main(["solve", path, "--method", method]) == EXIT_PARSE
        assert "not in its subspace" in capsys.readouterr().err


class TestSignalCommand:
    def test_empty_time_mask_is_the_inverse_transform(self, tmp_path, capsys):
        doc = {
            "n": 4,
            "time_mask": [],
            "freq_mask": [0],
            "time_values": [],
            "freq_values": [[2.0, 0.0]],
        }
        path = write_json(tmp_path / "sig.json", doc)
        assert main(["signal", path]) == EXIT_OK
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("solution:"))
        got = np.array([complex(re, im) for re, im in json.loads(line.split("solution: ")[1])])
        assert np.allclose(got, np.ones(4), atol=1e-10)  # idft of 2 e_0 with n = 4

    def test_only_the_sampled_rows_are_transformed(self, tmp_path, monkeypatch, capsys):
        # the supports, the prescribed point and the frequency residual come
        # from the |F| sampled DFT rows: no FFT and no n x n matrix
        def refuse(*args, **kwargs):
            raise AssertionError("a whole transform was computed")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, refuse)
        monkeypatch.setattr(ibap.applications, "dft_matrix", refuse)
        doc = {"n": 16, "time_mask": [0, 5], "freq_mask": [1, 2, 9],
               "time_values": [1.0, [0.0, 2.0]], "freq_values": [0.5, [1.0, -1.0], 2.0]}
        path = write_json(tmp_path / "sig.json", doc)
        assert main(["signal", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert float(out.split("frequency residual: ")[1].split()[0]) <= 1e-14

    def test_measurements_are_reported(self, tmp_path, capsys):
        doc = {
            "n": 8,
            "time_mask": [0, 1],
            "freq_mask": [0],
            "time_values": [1.0, 2.0],
            "freq_values": [[0.5, 0.5]],
            "measurements": [{"vector": [0, 0, 0, 0, 0, 1.0, 1.0, 0], "value": 0.0}],
        }
        path = write_json(tmp_path / "sig.json", doc)
        assert main(["signal", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "measurement 1 residual" in out

    @pytest.mark.parametrize("measurements", [5, False])
    def test_measurements_must_be_a_list(self, tmp_path, capsys, measurements):
        doc = {
            "n": 8,
            "time_mask": [0, 1],
            "freq_mask": [0],
            "time_values": [1.0, 2.0],
            "freq_values": [[0.5, 0.5]],
            "measurements": measurements,
        }
        path = write_json(tmp_path / "sig.json", doc)
        assert main(["signal", path]) == EXIT_PARSE
        assert "measurements must be a list" in capsys.readouterr().err

    def test_oversized_masks_exit_three(self, tmp_path, capsys):
        doc = {
            "n": 4,
            "time_mask": [0, 1, 2, 3],
            "freq_mask": [0, 1, 2, 3],
            "time_values": [1, 1, 1, 1],
            "freq_values": [1, 1, 1, 1],
        }
        path = write_json(tmp_path / "sig.json", doc)
        assert main(["signal", path]) == EXIT_NO_IBAP
        assert capsys.readouterr().err.startswith("hypothesis failure: masks too large")

    def test_dependent_measurement_exits_three(self, tmp_path, capsys):
        # the one refusal of a dependent family, with or without measurements
        doc = {
            "n": 4,
            "time_mask": [0, 1, 2],
            "freq_mask": [0, 1, 2, 3],
            "time_values": [1, 1, 1],
            "freq_values": [1, 1, 1, 1],
            "measurements": [{"vector": [0, 0, 0, 1], "value": 1.0}],
        }
        path = write_json(tmp_path / "sig.json", doc)
        assert main(["signal", path]) == EXIT_NO_IBAP
        assert capsys.readouterr().err.startswith("hypothesis failure: masks too large")


class TestSlowdemoCommand:
    def test_harmonic_demo_prints_the_prediction(self, tmp_path, capsys):
        trace = tmp_path / "demo.csv"
        assert main(["slowdemo", "--truncation", "16", "--max-iter", "50",
                     "--tol", "1e-13", "--trace", str(trace)]) == EXIT_OK
        out = capsys.readouterr().out
        predicted = float(next(l for l in out.splitlines()
                               if l.startswith("predicted norm:")).split(": ")[1])
        assert abs(predicted - 1 / np.sqrt(1 + 1 / 256)) <= 1e-12
        rows = list(csv.reader(trace.open()))[1:]
        dists = [float(r[2]) for r in rows]
        ratios = [dists[k + 1] / dists[k] for k in range(len(dists) - 1) if dists[k] > 1e-11]
        assert abs(max(ratios) - predicted ** 2) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_random_start_converges_within_its_bound(self, seed, tmp_path, capsys):
        # the worst-aligned start lies in one block, where an accelerated
        # sweep could finish at once; a random start excites all sixteen
        start = json.dumps(rng_for(seed).standard_normal(32).tolist())
        trace = tmp_path / "demo.csv"
        assert main(["slowdemo", "--truncation", "16", "--start", start,
                     "--trace", str(trace)]) == EXIT_OK
        assert "converged: yes" in capsys.readouterr().out
        rows = list(csv.reader(trace.open()))[1:]
        # 4694 to 5251 sweeps over these seeds, distance at most 0.64 of the bound
        assert 4000 < len(rows) < DEFAULT_MAX_ITER
        assert all(float(r[2]) <= float(r[3]) for r in rows)

    def test_explicit_alphas(self, capsys):
        assert main(["slowdemo", "--alphas", "[1.0, 1.0]", "--max-iter", "30"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "predicted norm: 0.7071067811865475" in out

    def test_huge_weight_exits_zero(self, capsys):
        assert main(["slowdemo", "--alphas", "[1e200]"]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"predicted norm: {1 / math.hypot(1, 1e200)!r}" in out

    @pytest.mark.parametrize("argv, code", [(["--alphas", "[1e-300]"], EXIT_NO_IBAP),
                                            (["--truncation", "4"], EXIT_OK)],
                             ids=["without-the-property", "harmonic"])
    def test_the_family_is_factorized_once(self, argv, code, monkeypatch):
        # the run and, without the property, rate_bound share one level chain
        calls = []
        factor = ibap.subspaces._factor_level

        def counted(basis, tail):
            calls.append(basis.shape)
            return factor(basis, tail)

        monkeypatch.setattr(ibap.angles, "_factor_level", counted)
        monkeypatch.setattr(ibap.subspaces, "_factor_level", counted)
        assert main(["slowdemo", *argv]) == code
        assert len(calls) == 1

    def test_a_family_without_the_property_is_refused_before_the_run(self, capsys,
                                                                      monkeypatch):
        runs = []
        monkeypatch.setattr(ibap.cli, "best_approximation", lambda *args: runs.append(args))
        assert main(["slowdemo", "--alphas", "[1e-300]"]) == EXIT_NO_IBAP
        captured = capsys.readouterr()
        assert runs == [] and captured.out == ""
        assert captured.err == ("property failure: rate bound presupposes the inverse "
                                "best approximation property\n")

    def test_missing_arguments_exit_four(self):
        assert main(["slowdemo"]) == EXIT_PARSE
        assert main(["slowdemo", "--alphas", "nonsense"]) == EXIT_PARSE

    def test_unwritable_trace_exit_four(self, tmp_path, capsys):
        trace = tmp_path / "missing" / "demo.csv"
        assert main(["slowdemo", "--truncation", "4", "--trace", str(trace)]) == EXIT_PARSE
        captured = capsys.readouterr()
        # the path is checked before the work: nothing is reported on stdout
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and str(trace) in err[0]


class TestDistancesOnlyWithATrace:
    """iterate and slowdemo take the distances to the solution only for a
    --trace file, whose rows come from the trace's columns.  stdout is the
    same with and without one, but for the line that names the file."""

    @pytest.fixture
    def traced(self, monkeypatch):
        """options.record_trace of every best_approximation call."""
        seen = []

        def spy(start, family, prescription, options=None):
            seen.append(options.record_trace)
            return best_approximation(start, family, prescription, options)

        monkeypatch.setattr(ibap.cli, "best_approximation", spy)
        return seen

    @pytest.mark.parametrize("command", ["iterate", "slowdemo"])
    def test_stdout_is_the_same_without_the_distances(self, command, tmp_path, capsys, traced):
        argv = (["iterate", write_json(tmp_path / "sixty.json", sixty_degree_doc())]
                if command == "iterate" else ["slowdemo", "--truncation", "6"])
        trace = tmp_path / "trace.csv"
        assert main(argv) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(argv + ["--trace", str(trace)]) == EXIT_OK
        out = capsys.readouterr().out
        assert traced == [False, True]
        assert out.replace(f"trace written to {trace}\n", "") == plain
        assert plain.count("\n") + 1 == out.count("\n")
        assert all(row[2] for row in list(csv.reader(trace.open()))[1:])

    def test_solve_takes_no_distances(self, tmp_path, traced):
        path = write_json(tmp_path / "sixty.json", sixty_degree_doc())
        assert main(["solve", path, "--method", "iterate"]) == EXIT_OK
        assert traced == [False]


def repr_trace_csv(trace) -> bytes:
    """The trace CSV written from the trace's columns, one repr per field."""
    def field(column, i):
        return "" if column is None else repr(column[i])

    dists, bounds = trace.distances, trace.bounds
    rows = "".join(f"{i + 1},{res!r},{field(dists, i)},{field(bounds, i)}\r\n"
                   for i, res in enumerate(trace.residuals))
    return ("iter,max_residual,dist_to_solution,bound\r\n" + rows).encode()


def decade_trace(alpha=0.9, with_distances=True, sweeps=300):
    """A trace whose residuals, distances and bounds cross every decade
    from 10 down to 1e-12, with ragged digits."""
    rng = rng_for(760)
    res = np.logspace(1, -12, sweeps) * rng.uniform(0.5, 2.0, sweeps)
    dists = np.logspace(1.5, -12.5, sweeps) * rng.uniform(0.5, 2.0, sweeps)
    return ConvergenceTrace(residuals=tuple(res.tolist()),
                            distances=tuple(dists.tolist()) if with_distances else None,
                            alpha=alpha, initial_distance=12.345678901234567,
                            converged=True)


class TestTraceCsv:
    """_write_trace_csv builds each row from the trace's columns, every
    float field formatted as repr by _repr_column, one orjson.dumps per
    column."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=300, deadline=None)
    def test_the_formatter_is_repr_on_finite_floats(self, values):
        assert _repr_column(values) == list(map(repr, values))

    def test_the_formatter_is_repr_on_random_bit_patterns(self):
        bits = rng_for(761).integers(0, 2 ** 64, 200_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)].tolist()
        assert _repr_column(values) == list(map(repr, values))

    @pytest.mark.parametrize("values", [
        [1e-5, 1e-4, 1e16], [-1e-5, -1e-4, -1e16],
        [math.nextafter(1e-5, 0), math.nextafter(1e-4, 0), math.nextafter(1e16, 0)],
        [5e-324, -5e-324, -0.0, 0.0, 1.0, 1e308, 2.2250738585072014e-308],
        [1e-6, 9.5e-6, 1.5e-5, 10.00001, 100.00001, -0.00001234],
        [], [3], list(range(1, 12)),
    ], ids=["decade-boundaries", "negative-boundaries", "below-boundaries", "extremes",
            "fifth-decade", "empty", "one-int", "ints"])
    def test_the_formatter_at_its_edges(self, values):
        assert _repr_column(values) == list(map(repr, values))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_column_falls_back_to_repr(self, bad):
        values = [1e-5, bad, 2e16]
        assert _repr_column(values) == ["1e-05", repr(bad), "2e+16"]

    @pytest.mark.parametrize("trace", [
        decade_trace(),
        decade_trace(alpha=None),
        decade_trace(with_distances=False),
        decade_trace(alpha=None, with_distances=False),
        decade_trace(sweeps=1),
        ConvergenceTrace(residuals=(math.inf, 2e-5), distances=(math.nan, 0.0), alpha=0.5,
                         initial_distance=math.inf, converged=False),
    ], ids=["decades", "alpha-none", "distances-none", "neither", "one-sweep", "non-finite"])
    def test_the_file_is_that_of_the_columns(self, trace, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        _write_trace_csv(str(path), trace)
        assert path.read_bytes() == repr_trace_csv(trace)
        assert capsys.readouterr().out == f"trace written to {path}\n"

    def test_a_slowdemo_trace_is_that_of_its_columns(self, tmp_path, monkeypatch):
        seen = []

        def spy(*args):
            x, trace = best_approximation(*args)
            seen.append(trace)
            return x, trace

        monkeypatch.setattr(ibap.cli, "best_approximation", spy)
        path = tmp_path / "demo.csv"
        assert main(["slowdemo", "--truncation", "6", "--trace", str(path)]) == EXIT_OK
        assert path.read_bytes() == repr_trace_csv(seen[0])


NON_FINITE_TOKENS = ["NaN", "Infinity", "-Infinity", "1e999", "-1.8e308", "9" * 400]
NON_FINITE_IDS = ["nan", "inf", "-inf", "1e999", "-1.8e308", "400-digit-int"]


def assert_refused(argv, message, capsys):
    """main(argv) exits 4 with nothing on stdout and `message` as its one stderr line."""
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


class TestNonFiniteInput:
    """JSON NaN/Infinity tokens and numbers beyond the float range are
    refused where they enter, as a non-finite number that names the token,
    never carried to a NaN answer."""

    def test_check_rejects_a_nan_spanning_vector(self, tmp_path, capsys):
        doc = axes_doc(prescription=False)
        doc["subspaces"][0]["vectors"] = [[float("nan"), 0, 0]]
        assert main(["check", write_json(tmp_path / "p.json", doc)]) == EXIT_PARSE
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, old, new", [
        ("check", axes_doc(prescription=False), "[0, 1, 0]", "[0, {}, 0]"),
        ("moments", {"ambient_dim": 3, "constraints": [{"vector": [1, 0, 0], "value": 5}]},
         '"value": 5', '"value": {}'),
        ("signal", {"n": 4, "time_mask": [], "freq_mask": [0], "time_values": [],
                    "freq_values": [[2.0, 0.0]]}, "[2.0, 0.0]", "[{}, 0.0]"),
    ], ids=["check", "moments", "signal"])
    @pytest.mark.parametrize("token", NON_FINITE_TOKENS, ids=NON_FINITE_IDS)
    def test_every_problem_file_names_the_token(self, tmp_path, capsys, command, doc, old, new,
                                                token):
        text = json.dumps(doc).replace(old, new.format(token))
        assert token in text
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert_refused([command, str(path)], f"parse error: {path}: non-finite number {token}",
                       capsys)

    @pytest.mark.parametrize("method", ["direct", "recursion", "iterate"])
    @pytest.mark.parametrize("token", NON_FINITE_TOKENS, ids=NON_FINITE_IDS)
    def test_solve_rejects_a_non_finite_prescription(self, tmp_path, capsys, method, token):
        text = json.dumps(axes_doc()).replace("[2, 0, 0]", f"[{token}, 0, 0]")
        assert token in text
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert_refused(["solve", str(path), "--method", method],
                       f"parse error: {path}: non-finite number {token}", capsys)

    @pytest.mark.parametrize("token", NON_FINITE_TOKENS, ids=NON_FINITE_IDS)
    def test_solve_rejects_a_non_finite_anchor_option(self, tmp_path, capsys, token):
        path = write_json(tmp_path / "p.json", axes_doc())
        assert_refused(["solve", path, "--anchor", f"[1, {token}, 0]"],
                       f"parse error: --anchor: non-finite number {token}", capsys)

    def test_iterate_rejects_a_nan_anchor(self, tmp_path, capsys):
        doc = axes_doc()
        doc["anchor"] = [0, float("nan"), 0]
        path = write_json(tmp_path / "p.json", doc)
        assert_refused(["iterate", path], f"parse error: {path}: non-finite number NaN", capsys)

    @pytest.mark.parametrize("token", NON_FINITE_TOKENS, ids=NON_FINITE_IDS)
    def test_slowdemo_rejects_a_non_finite_start(self, capsys, token):
        assert_refused(["slowdemo", "--truncation", "2", "--start", f"[0, {token}, 0, 0]"],
                       f"parse error: --start: non-finite number {token}", capsys)

    @pytest.mark.parametrize("token", NON_FINITE_TOKENS, ids=NON_FINITE_IDS)
    def test_slowdemo_rejects_non_finite_weights(self, capsys, token):
        assert_refused(["slowdemo", "--alphas", f"[1.0, {token}]"],
                       f"parse error: --alphas: non-finite number {token}", capsys)

    def test_slowdemo_rejects_non_numeric_weights(self):
        assert main(["slowdemo", "--alphas", "[\"1.0\"]"]) == EXIT_PARSE


class TestNonFiniteTolerance:
    """An infinite tolerance would stop every iteration after one sweep and
    call it converged: --tol and IBAP_DEFAULT_TOL must be positive and finite."""

    @staticmethod
    def argvs(tmp_path):
        path = write_json(tmp_path / "sixty.json", sixty_degree_doc())
        return [["iterate", path], ["solve", path, "--method", "iterate"],
                ["slowdemo", "--truncation", "4"]]

    @pytest.mark.parametrize("tol", ["inf", "1e999"])
    def test_option(self, tmp_path, capsys, tol):
        for argv in self.argvs(tmp_path):
            assert_refused([*argv, "--tol", tol],
                           "invalid input: tol must be positive and finite", capsys)

    @pytest.mark.parametrize("tol", ["inf", "1e999", "nan", "0", "-1e-10"])
    def test_environment_variable(self, tmp_path, capsys, monkeypatch, tol):
        monkeypatch.setenv("IBAP_DEFAULT_TOL", tol)
        for argv in self.argvs(tmp_path):
            assert_refused(argv, "error: IBAP_DEFAULT_TOL must be positive and finite", capsys)


class TestDecoderIsExact:
    """cli._loads, on UTF-8 bytes and on text, decodes every number to the
    float json.loads gives, bit for bit, on the decimals that stress correct
    rounding."""

    @staticmethod
    def literals():
        rng = rng_for(19)
        doubles = np.frombuffer(rng.bytes(8 * 20000), np.float64)
        doubles = doubles[np.isfinite(doubles)]
        # a zero exponent field: subnormals of either sign
        subnormals = (np.frombuffer(rng.bytes(8 * 2000), np.uint64)
                      & np.uint64(0x800F_FFFF_FFFF_FFFF)).view(np.float64)
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                 1.7976931348623157e308, -1.7976931348623157e308]
        out = [repr(float(x)) for x in chain(doubles, subnormals, edges)]
        out += ["2.2250738585072011e-308", "2.2250738585072012e-308", "1.7976931348623157e308",
                "1.7976931348623158e308", "4.9406564584124654e-324", "2.4703282292062327e-324",
                "2.4703282292062328e-324", "-0", "0e-999", "1e-400"]
        # non-shortest decimals of 20 to 30 digits
        for digits, exp in zip(rng.integers(20, 31, 5000), rng.integers(-345, 308, 5000)):
            mantissa = "".join(map(str, rng.integers(0, 10, digits)))
            out.append(f"{rng.choice(['', '-'])}{mantissa[0]}.{mantissa[1:]}e{exp}")
        # exact halfway points between adjacent doubles, where ties go to even
        with decimal.localcontext() as ctx:
            ctx.prec = 1200
            for x in chain(doubles[:500], subnormals[:200], edges[:-2]):
                up = np.nextafter(x, np.inf)
                mid = (decimal.Decimal(float(x)) + decimal.Decimal(float(up))) / 2
                out.append(f"{mid:e}")
        # integers at and beyond 2**64, which json.loads keeps as int
        big = [2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1,
               2 ** 64 + 2 ** 11, 2 ** 64 + 3 * 2 ** 11, 10 ** 20, 10 ** 308, -(2 ** 64),
               -(2 ** 64) - 2 ** 11, -(2 ** 63) - 1]
        big += [int("".join(map(str, rng.integers(1, 10, d)))) for d in rng.integers(20, 300, 500)]
        return out + [str(v) for v in big]

    def test_same_floats_as_the_standard_library(self):
        literals = self.literals()
        text = "[" + ",".join(literals) + "]"
        ref = np.array([float(v) for v in json.loads(text)])
        assert np.isfinite(ref).all()
        for doc in (text.encode(), text):
            got = np.array([float(v) for v in ibap.cli._loads(doc, "doc")])
            diff = got.view(np.uint64) != ref.view(np.uint64)
            assert [lit for lit, d in zip(literals, diff) if d] == []


class TestOneDecoder:
    """Every JSON input goes through cli._loads; a document that is not
    UTF-8, or holds a lone surrogate, is invalid JSON."""

    @pytest.mark.parametrize("name, detail", [
        # a byte that is not UTF-8 is named where it is; orjson alone
        # reports every encoding error at position 0
        (b'"U\xff1"', "'utf-8' codec can't decode byte 0xff in position 61: invalid start byte"),
        (b'"\xed\xa0\x80"',
         "'utf-8' codec can't decode byte 0xed in position 60: invalid continuation byte"),
        (b'"\\ud800"', "no matched low surrogate in string: line 1 column 67 (char 66)")],
        ids=["invalid-utf8", "encoded-surrogate", "escaped-surrogate"])
    def test_a_name_that_is_not_unicode_text_is_invalid_json(self, tmp_path, capsys, name,
                                                             detail):
        data = json.dumps(axes_doc(prescription=False)).encode()
        path = tmp_path / "bad.json"
        path.write_bytes(data.replace(b'"U1"', name))
        assert_refused(["check", str(path)], f"parse error: {path}: invalid JSON ({detail})",
                       capsys)

    def test_deep_nesting_exits_four(self, tmp_path, capsys):
        # json.loads raised RecursionError at this depth, and so did repr
        # of such a value in a message: a traceback with exit 1
        deep = "[" * 100000 + "]" * 100000
        path = tmp_path / "deep.json"
        path.write_text(f'{{"field": {deep}, "ambient_dim": 1, "subspaces": []}}')
        for argv, message in (
                (["check", str(path)], f"{path}: field must be 'real' or 'complex', "
                                       "got [[[[[[[...]]]]]]]"),
                (["slowdemo", "--alphas", f'[{{"a": {deep}}}]'],
                 "--alphas[0]: expected a number or [re, im] pair, got {'a': [[[[[[...]]]]]]}"),
                (["slowdemo", "--truncation", "2", "--start", deep],
                 "--start: has 1 entries, expected 4")):
            assert_refused(argv, f"parse error: {message}", capsys)

    def test_no_command_decodes_with_the_standard_library(self, tmp_path, monkeypatch, capsys):
        axes = write_json(tmp_path / "axes.json", axes_doc())
        moments = write_json(tmp_path / "mom.json", {
            "ambient_dim": 3, "constraints": [{"vector": [1, 0, 0], "value": 5}]})
        signal = write_json(tmp_path / "sig.json", {
            "n": 4, "time_mask": [], "freq_mask": [0], "time_values": [],
            "freq_values": [[2.0, 0.0]]})

        def refuse(*args, **kwargs):
            raise AssertionError("the standard library decoder was called")

        monkeypatch.setattr(json, "loads", refuse)
        monkeypatch.setattr(json, "load", refuse)
        for argv in (["check", axes], ["solve", axes, "--anchor", "[1, 2, 3]"],
                     ["moments", moments], ["signal", signal],
                     ["slowdemo", "--alphas", "[1.0, 0.5]", "--start", "[1, 0, 0, 1]",
                      "--max-iter", "30"]):
            assert main(argv) == EXIT_OK, argv
        assert "solution:" in capsys.readouterr().out


def parse_outcome(parse):
    """(dtype, bytes) of a parsed vector, or the ParseError message."""
    try:
        arr = parse()
    except ParseError as exc:
        return str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


def per_row_walk(rows, n, field):
    """rows parsed one row and one entry at a time, each row checked for
    its type and length and each entry read by _scalar, row j named
    f"v {j}" as _vectors' callers name theirs."""
    out = []
    for j, row in enumerate(rows, 1):
        if not isinstance(row, list):
            raise ParseError(f"v {j}: expected a list of scalars")
        if len(row) != n:
            raise ParseError(f"v {j}: has {len(row)} entries, expected {n}")
        out.append([_scalar(x, field, f"v {j}[{i}]") for i, x in enumerate(row)])
    return np.asarray(out, dtype=field_dtype(field)).reshape(len(rows), n)


class TestVectorParser:
    """_vectors converts a list of vectors in one step where it can, and
    _vector is its one-row case; they must give the bits and the first
    error of the per-row, per-entry _scalar parse."""

    EDGE_NUMBERS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                    2 ** 53 + 1, 2 ** 63 + 1, 2 ** 64 + 3, -(2 ** 70) - 1, 10 ** 308]

    @staticmethod
    def same_as_per_entry(values, field):
        got = parse_outcome(lambda: _vector(values, len(values), field, "v"))
        ref = parse_outcome(lambda: np.asarray(
            [_scalar(x, field, f"v[{i}]") for i, x in enumerate(values)],
            dtype=field_dtype(field)))
        assert got == ref

    def test_property_real(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        number = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-(2 ** 80), 2 ** 80), st.sampled_from(self.EDGE_NUMBERS))
        entry = st.one_of(number, number, number, st.just(True),
                          st.lists(number, min_size=2, max_size=2))

        @hyp.settings(max_examples=300, deadline=None, database=None)
        @hyp.given(st.lists(entry, min_size=1, max_size=20))
        @hyp.example([-0.0, 5e-324, 2 ** 53 + 1, 1, 2.5])
        def check(values):
            self.same_as_per_entry(values, "real")

        check()

    def test_property_complex(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        number = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-(2 ** 80), 2 ** 80), st.sampled_from(self.EDGE_NUMBERS))
        pair = st.lists(number, min_size=2, max_size=2)
        entry = st.one_of(pair, pair, pair, number, st.just([1.0, True]),
                          st.lists(number, min_size=3, max_size=3))

        @hyp.settings(max_examples=300, deadline=None, database=None)
        @hyp.given(st.one_of(st.lists(entry, min_size=1, max_size=20),
                             st.lists(number, min_size=1, max_size=20)))
        @hyp.example([[-0.0, -0.0], [5e-324, 2 ** 53 + 1], [1, 2.5]])
        @hyp.example([-0.0, 5e-324, 2 ** 53 + 1, 1, 2.5])
        def check(values):
            self.same_as_per_entry(values, "complex")

        check()

    @staticmethod
    def same_as_per_row(n, rows, field):
        got = parse_outcome(lambda: _vectors(rows, n, field, lambda j: f"v {j}"))
        assert got == parse_outcome(lambda: per_row_walk(rows, n, field))

    @classmethod
    def check_rows(cls, field, good, bad):
        """Lists of rows, mostly of valid entries, with ragged, non-list and
        empty rows and bad entries in any row."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        entry = st.one_of(good, good, good, bad)

        def rows_of(n):
            row = st.one_of(st.lists(good, min_size=n, max_size=n),
                            st.lists(good, min_size=n, max_size=n),
                            st.lists(entry, min_size=n, max_size=n),
                            st.lists(entry, max_size=n + 2),
                            st.sampled_from([None, 1.0, "1.0", True, {"v": 1}]))
            return st.tuples(st.just(n), st.lists(row, max_size=5))

        @hyp.settings(max_examples=300, deadline=None, database=None)
        @hyp.given(st.integers(1, 6).flatmap(rows_of))
        def check(case):
            cls.same_as_per_row(*case, field)

        check()

    def test_rows_property_real(self):
        st = pytest.importorskip("hypothesis").strategies
        number = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-(2 ** 80), 2 ** 80), st.sampled_from(self.EDGE_NUMBERS))
        bad = st.one_of(st.just(True), st.just(None), st.lists(number, min_size=2, max_size=2))
        self.check_rows("real", number, bad)

    def test_rows_property_complex(self):
        st = pytest.importorskip("hypothesis").strategies
        number = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-(2 ** 80), 2 ** 80), st.sampled_from(self.EDGE_NUMBERS))
        # a plain number is valid in a complex file; a list mixing plain
        # numbers and pairs is read by the walk
        bad = st.one_of(number, st.just([1.0, True]), st.just("1"),
                        st.lists(number, min_size=3, max_size=3))
        self.check_rows("complex", st.lists(number, min_size=2, max_size=2), bad)
        self.check_rows("complex", number, st.one_of(st.just(True),
                                                     st.lists(number, min_size=2, max_size=2)))

    @pytest.mark.parametrize("n, rows, field", [
        (3, [], "real"),
        (2, [[-0.0, 5e-324], [2 ** 53 + 1, 1.7976931348623157e308]], "real"),
        (3, [[1, 2, 3], [4, True, 6]], "real"),
        (2, [[1, 2], [1, 2, 3]], "real"),
        (2, [[1, 2], 5, [1, True]], "real"),
        (2, [[1, 2], [3, 1e999]], "real"),
        (2, [[[1, 0], [0, 1]], [1, [0, -0.0]]], "complex"),
        (2, [[[-0.0, -0.0], [5e-324, 2 ** 64 + 3]], [[1, 0], [0, 1, 2]]], "complex"),
        (2, [[-0.0, 5e-324], [2 ** 53 + 1, 1.7976931348623157e308]], "complex"),
        (2, [[1, 2], [3, [0, 1]]], "complex"),
        (2, [[1, 2], [True, 0]], "complex"),
    ], ids=["empty", "edge-numbers", "bool-in-row-2", "ragged", "non-list-row", "1e999",
            "plain-number-in-complex", "triple-in-row-2", "complex-edge-numbers",
            "pair-after-numbers", "complex-plain-bool"])
    def test_rows_examples(self, n, rows, field):
        self.same_as_per_row(n, rows, field)

    def test_the_signal_workload_reads_its_measurement_vectors_at_once(self, tmp_path,
                                                                      monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location(
            "workloads", os.path.join(ROOT, "bench", "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        cmd = next(c for c in workloads.build("applications", 7, str(tmp_path))
                   if c.kind == "signal")
        named = []

        def counted(value, field, what):
            named.append(what)
            return _scalar(value, field, what)

        monkeypatch.setattr(ibap.cli, "_scalar", counted)
        assert main(list(cmd.argv)) == EXIT_OK
        assert cmd.verify(capsys.readouterr().out) is None
        # the values still go through _scalar, one call each
        assert sum(w.startswith("measurement value") for w in named) == 4
        assert not [w for w in named if w.startswith("measurement vector")]

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_valid_file_converts_each_list_once(self, tmp_path, monkeypatch, field):
        import ibap.cli
        import ibap.subspaces

        calls = Counter()
        for module, name in ((ibap.cli, "_scalar"), (ibap.subspaces, "as_field_vector"),
                             (ibap.cli, "_finite_array")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        rng = rng_for(960)
        n, dims = 9, (2, 1, 3, 2)
        spans = tuple(random_matrix(rng, n, k, field).T for k in dims)
        problem = Problem(field=field, ambient_dim=n, names=("A", "B", "C", "D"), spans=spans,
                          prescription=np.array([s[0] for s in spans]),
                          anchor=random_matrix(rng, n, 1, field)[:, 0])
        path = tmp_path / "p.json"
        save_problem(str(path), problem)
        family = build_family(load_problem(str(path)))
        assert family.dims == dims
        # one conversion per numeric list: each subspace, the prescription, the anchor
        assert calls == {"_finite_array": len(dims) + 2}

    @staticmethod
    def run_check(tmp_path, capsys, doc):
        code = main(["check", write_json(tmp_path / "p.json", doc)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_boolean_entry_is_named(self, tmp_path, capsys):
        doc = axes_doc(prescription=False)
        doc["subspaces"][0]["vectors"][0] = [True, 0, 0]
        code, out, err = self.run_check(tmp_path, capsys, doc)
        assert code == EXIT_PARSE and out == ""
        assert err == "parse error: subspace U1 vector 1[0]: booleans are not numbers\n"

    def test_three_element_complex_entry_is_named(self, tmp_path, capsys):
        doc = {"field": "complex", "ambient_dim": 2,
               "subspaces": [{"name": "U1", "vectors": [[[1, 0], [0, 0, 1]]]}]}
        code, out, err = self.run_check(tmp_path, capsys, doc)
        assert code == EXIT_PARSE and out == ""
        assert err == ("parse error: subspace U1 vector 1[1]: "
                       "complex scalars must be [re, im] number pairs\n")

    def test_complex_file_mixing_numbers_and_pairs(self, tmp_path, capsys):
        def doc(u1, u2):
            return {"field": "complex", "ambient_dim": 2,
                    "subspaces": [{"name": "U1", "vectors": [u1]},
                                  {"name": "U2", "vectors": [u2]}]}
        mixed = self.run_check(tmp_path, capsys, doc([1, [0, 1]], [0, [-1, 0]]))
        pairs = self.run_check(tmp_path, capsys, doc([[1, 0], [0, 1]], [[0, 0], [-1, 0]]))
        assert mixed[0] == EXIT_OK and mixed == pairs


class TestParser:
    def test_cached_parser_gives_the_runs_of_a_fresh_one(self, tmp_path, capsys):
        axes = write_json(tmp_path / "axes.json", axes_doc())
        sixty = write_json(tmp_path / "sixty.json", sixty_degree_doc())
        argvs = [["check", axes], ["solve", axes, "--method", "bogus"],
                 ["solve", sixty, "--method", "iterate"], ["iterate", sixty]]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        # one parser serves every call, argparse errors included
        cached = [run(argv) for argv in argvs]
        assert [code for code, _, _ in cached] == [EXIT_OK, 2, EXIT_OK, EXIT_OK]
        assert build_parser() is build_parser()
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert fresh == cached

    def test_iteration_options_are_shared(self):
        parser = build_parser()
        argvs = {"solve": ["solve", "p.json"], "iterate": ["iterate", "p.json"],
                 "slowdemo": ["slowdemo"]}
        for command, argv in argvs.items():
            args = parser.parse_args(argv)
            assert (args.max_iter, args.tol) == (DEFAULT_MAX_ITER, None), command
            assert getattr(args, "trace", "absent") == ("absent" if command == "solve" else None)
            args = parser.parse_args([*argv, "--max-iter", "7", "--tol", "1e-3"])
            assert (args.max_iter, args.tol) == (7, 1e-3), command
        for argv in (["iterate", "p.json"], ["slowdemo"]):
            assert parser.parse_args([*argv, "--trace", "t.csv"]).trace == "t.csv"
        for argv in (["check", "p.json"], ["moments", "p.json"], ["signal", "p.json"]):
            assert not {"max_iter", "tol", "trace"} & set(vars(parser.parse_args(argv)))

    def test_solve_has_no_trace_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "p.json", "--trace", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace x" in capsys.readouterr().err
