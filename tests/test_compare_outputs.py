"""tools/compare_outputs.py: the report of two runs of the benchmark commands."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", os.path.join(ROOT, "tools", "compare_outputs.py"))
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

TRACE = "iter,max_residual,dist_to_solution,bound\n1,0.5,2.0,\n2,1e-11,0.25,\n"


def record(stdout="sweeps: 2  converged: yes\nsolution: [3.0, 4.0]\n", trace=TRACE, code=0):
    return {"workload": "w", "seed": 1, "index": 0, "kind": "iterate",
            "argv": ["iterate", "<workdir>/p.json"], "exit": code, "stdout": stdout,
            "stderr": "", "trace": trace}


def test_equal_runs_are_byte_identical():
    lines, ok = compare_outputs.compare([record()], [record()])
    assert ok and lines[-1].startswith("1 of 1 commands byte-identical")
    assert "stdout equal" in lines[0] and "trace equal" in lines[0]


def test_rounding_differences_are_measured_but_accepted():
    new = record(stdout="sweeps: 2  converged: yes\nsolution: [3.0, 4.000001]\n",
                 trace=TRACE.replace("0.25", "0.2500001"))
    lines, ok = compare_outputs.compare([record()], [new])
    assert ok and lines[-1].startswith("0 of 1 commands byte-identical")
    assert "solution rel 2.00e-07" in lines[0]
    assert "dist_to_solution abs 1.00e-07 rel 4.00e-07" in lines[0]
    assert "bound abs 0.00e+00 rel 0.00e+00" in lines[0]


@pytest.mark.parametrize("new", [
    record(code=2),
    record(stdout="sweeps: 3  converged: yes\nsolution: [3.0, 4.0]\n"),
    record(trace=TRACE + "3,1e-12,0.1,\n"),
])
def test_a_differing_exit_code_or_sweep_count_fails(new):
    _, ok = compare_outputs.compare([record()], [new])
    assert not ok


def test_a_text_difference_between_equal_values_fails():
    # a formatter that wrote 1e-5 for 1e-05 changes the file, not the values
    old = record(trace=TRACE.replace("1e-11", "1e-05"))
    new = record(trace=TRACE.replace("1e-11", "1e-5").replace("0.25", "0.2500001"))
    lines, ok = compare_outputs.compare([old], [new])
    assert not ok and lines[-1].startswith("0 of 1 commands byte-identical")
    assert "max_residual abs 0.00e+00 rel 0.00e+00 TEXT in 1 equal rows" in lines[0]
    assert "dist_to_solution abs 1.00e-07 rel 4.00e-07;" in lines[0]
    assert "exit codes, sweep counts or trace texts DIFFER" in lines[-1]
    columns, same_iter = compare_outputs.trace_difference(old["trace"], new["trace"])
    assert same_iter and columns["max_residual"] == (0.0, 0.0, 1)
    assert columns["dist_to_solution"][2] == 0


def test_differing_stderr_is_printed_under_its_command():
    old = dict(record(code=3), stderr="property failure: dependent\n")
    new = dict(record(code=3), stderr="hypothesis failure: masks too large\nsecond line\n")
    lines, ok = compare_outputs.compare([old, record()], [new, record()])
    assert ok and "stderr DIFFERS" in lines[0]
    assert lines[1:5] == ["    - property failure: dependent",
                          "    + hypothesis failure: masks too large",
                          "    + second line",
                          "w seed 1 #0 iterate <workdir>/p.json: exit 0/0, stderr equal, "
                          "stdout equal, trace equal"]
    assert lines[-1].startswith("1 of 2 commands byte-identical")


def test_complex_solutions_and_relative_norms():
    old = "solution: [[3.0, 0.0], [0.0, 4.0]]\n"
    new = "solution: [[3.0, 0.0], [0.0, 4.5]]\n"
    assert compare_outputs.solution_difference(old, new) == pytest.approx(0.1)
    assert compare_outputs.solution_difference(old, "no solution\n") is None


def test_the_working_tree_agrees_with_itself():
    src = os.path.join(ROOT, "src")
    runs = [compare_outputs.run_side(src, ["applications"], [5], scale="smoke")
            for _ in range(2)]
    # no temporary path is left to tell the two runs apart
    assert runs[0] and not any("ibap-compare-" in " ".join(r["argv"]) + r["stdout"] + r["stderr"]
                               for r in runs[0])
    # each slowdemo runs from its default start and from a random unit
    # start, each without and with a trace
    slowdemo = [r for r in runs[0] if r["kind"] == "slowdemo"]
    assert [r["trace"] is not None for r in slowdemo] == [False, True, False, True]
    plain, start = slowdemo[0]["argv"], slowdemo[2]["argv"]
    assert slowdemo[1]["argv"] == plain + ["--trace", slowdemo[1]["argv"][-1]]
    assert start[:-2] == plain and start[-2] == "--start"
    assert slowdemo[3]["argv"] == start + ["--trace", slowdemo[3]["argv"][-1]]
    unit = json.loads(start[-1])
    assert len(unit) == 2 * int(plain[plain.index("--truncation") + 1])
    assert abs(sum(v * v for v in unit) - 1.0) <= 1e-12
    assert all("converged: yes" in r["stdout"] for r in slowdemo)
    lines, ok = compare_outputs.compare(*runs)
    assert ok and lines[-1].startswith(f"{len(runs[0])} of {len(runs[0])} commands")


def test_last_line_names_the_largest_differences_and_their_commands():
    small = record(stdout="sweeps: 2  converged: yes\nsolution: [3.0, 4.000001]\n",
                   trace=TRACE.replace("0.25", "0.2500001"))
    large = dict(record(stdout="sweeps: 2  converged: yes\nsolution: [3.0, 4.1]\n",
                        trace=TRACE.replace("2.0", "2.0000001")), index=1)
    lines, ok = compare_outputs.compare([record(), dict(record(), index=1)], [small, large])
    assert ok and lines[-1].endswith(
        "; largest solution difference: rel 2.00e-02 at w seed 1 #1 iterate "
        "<workdir>/p.json; largest trace difference: dist_to_solution "
        "rel 4.00e-07 abs 1.00e-07 at w seed 1 #0 iterate <workdir>/p.json")


def test_last_line_of_equal_runs_names_no_difference():
    lines, _ = compare_outputs.compare([record()], [record()])
    assert lines[-1].endswith(
        "; largest solution difference: none; largest trace difference: none")


REPORT = '{\n "verdict": true\n}\n'


def test_reports_are_compared_byte_for_byte():
    checked = dict(record(), report=REPORT)
    lines, ok = compare_outputs.compare([checked], [checked])
    assert ok and "report equal" in lines[0]
    assert lines[-1].startswith("1 of 1 commands byte-identical; 1 of 1 --json-out reports equal")
    lines, ok = compare_outputs.compare([checked], [dict(record(), report=REPORT + " ")])
    assert ok and "report DIFFERS" in lines[0]
    assert lines[-1].startswith("0 of 1 commands byte-identical; 0 of 1 --json-out reports equal")
    lines, ok = compare_outputs.compare([checked], [record()])
    assert not ok and "report MISSING on one side" in lines[0]


def test_each_check_command_writes_its_report():
    runs = compare_outputs.run_side(os.path.join(ROOT, "src"), ["applications"], [5],
                                    scale="smoke")
    checks = [r for r in runs if r["argv"][0] == "check"]
    assert checks and all(r["argv"][-2] == "--json-out" for r in checks)
    assert all("verdict" in json.loads(r["report"]) for r in checks)
    assert all(r["report"] is None for r in runs if r["argv"][0] != "check")
