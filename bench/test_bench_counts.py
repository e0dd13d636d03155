"""The benchmark's own checks: exact counts and the metric names it declares.

Runs every workload at its tiny smoke sizes, twice with the same seed and
tracing on; the factorization counts, call counts and sweeps must agree
exactly and every answer must match the numpy reference.  No wall time is
checked here.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import workloads  # noqa: E402


def _counts(result):
    return {k: v for k, v in result["per_layer"].items() if k.endswith(("_calls", "sweeps"))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_with_the_same_seed(workload, tmp_path):
    cli_main = harness.import_cli()
    runs = [harness.run_workload(cli_main, workload, 5, 0.0, True, str(tmp_path / str(i)),
                                 scale="smoke") for i in range(2)]
    for run in runs:
        assert run["failed"] == 0, run["failures"]
        assert not run["missing_targets"]
    first, second = (_counts(r) for r in runs)
    assert first == second
    assert first["linalg.svd_calls"] > 0 and first["solvers.sweeps"] > 0


def test_declared_metrics_are_the_reported_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(harness.END_TO_END)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(harness.PER_LAYER)
