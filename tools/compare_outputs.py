"""Compare the CLI outputs of a git revision with those of the working tree.

    python3 tools/compare_outputs.py HEAD~
    python3 tools/compare_outputs.py 3b27fd2 --seeds 3 --workloads applications

Runs every command that ``bench/workloads.build`` makes, on the chosen
workloads and seeds (default: both workloads, seeds 3, 7 and 11), and
each ``slowdemo`` command a second time with ``--trace`` into its
workdir, so that its distances are compared too, and twice more from a
random unit ``--start`` drawn from a generator seeded by the workload
seed, without and with ``--trace``: that run crosses several blocks of
sweeps before it settles.  Each ``check`` command runs with
``--json-out`` into its workdir, so that its report file is compared
too.  All of them run once with the ``src/`` of the revision (extracted
with ``git archive`` into a temporary directory) and once with the
``src/`` of the working tree.
Both sides take their commands from the working tree's ``bench/``, so
they run the same argv on byte-identical problem files.  Each side runs
in its own interpreter with BLAS pinned to one thread, calling
``ibap.cli.main`` in-process as the benchmark does; the temporary paths
in argv, stdout and stderr are replaced by ``<workdir>``.

One line per command reports its exit codes, whether stderr, stdout,
the ``--trace`` CSV and the ``--json-out`` report are byte-equal, and
where they differ the largest difference: norm-wise relative for the
printed solution, and per trace column the largest absolute and
relative difference.  Where stderr differs, the revision's and the
working tree's stderr follow that line, indented and marked ``-`` and
``+`` line by line.  The last line sums up, counts the equal reports,
and names the largest solution difference and the largest relative
trace-column difference over all commands, each with its command.
A trace row whose text differs while its value is equal (``1e-5`` for
``1e-05``) is a text difference, counted per column.
Exits 1 when an exit code or a sweep count differs (the ``sweeps:``
line or the trace's ``iter`` column), when a trace column has a text
difference, or when a trace or report is written on one side only, 0
otherwise.
Run it from the repository root.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORKLOADS = ("dense-families", "applications")
SEEDS = (3, 7, 11)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PLACEHOLDER = "<workdir>"


# ---------------------------------------------------------------- one side


def _run_side_here(src, workdir, workloads_, seeds, scale):
    """Run every command in this interpreter; returns one record per command."""
    sys.path[:0] = [src, BENCH]
    import numpy as np
    import workloads
    from ibap.cli import main

    def norm(text):
        return text.replace(workdir, PLACEHOLDER)

    records = []
    for workload in workloads_:
        for seed in seeds:
            wd = os.path.join(workdir, f"{workload}-{seed}")
            cmds = []
            for cmd in workloads.build(workload, seed, wd, scale=scale):
                cmds.append(cmd)
                if cmd.kind == "slowdemo":
                    n = 2 * int(cmd.argv[cmd.argv.index("--truncation") + 1])
                    start = np.random.default_rng(seed).standard_normal(n)
                    start_argv = ("--start", json.dumps((start / np.linalg.norm(start)).tolist()))
                    for extra in ((), start_argv):
                        if extra:
                            cmds.append(dataclasses.replace(cmd, argv=cmd.argv + extra))
                        path = os.path.join(wd, f"slowdemo-{len(cmds)}.csv")
                        cmds.append(dataclasses.replace(
                            cmd, argv=cmd.argv + extra + ("--trace", path), trace_path=path))
            for i, cmd in enumerate(cmds):
                report_path = None
                if cmd.argv[0] == "check":
                    report_path = os.path.join(wd, f"check-{i}.json")
                    cmd = dataclasses.replace(cmd, argv=cmd.argv + ("--json-out", report_path))
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = main(list(cmd.argv))
                    except SystemExit as exc:
                        code = exc.code
                    except Exception:  # a crash is reported, not fatal
                        code = "crash"
                        err.write(traceback.format_exc(limit=3).strip().splitlines()[-1])
                trace = report = None
                if cmd.trace_path and os.path.isfile(cmd.trace_path):
                    with open(cmd.trace_path) as fh:
                        trace = fh.read()
                if report_path and os.path.isfile(report_path):
                    with open(report_path, "rb") as fh:
                        report = fh.read().decode()
                records.append({"workload": workload, "seed": seed, "index": i,
                                "kind": cmd.kind, "argv": [norm(a) for a in cmd.argv],
                                "exit": code, "stdout": norm(out.getvalue()),
                                "stderr": norm(err.getvalue()), "trace": trace,
                                "report": report})
    return records


def run_side(src, workloads_=WORKLOADS, seeds=SEEDS, scale="full"):
    """Run every command with the ibap sources at `src`, in a fresh
    interpreter with one BLAS thread; returns its records."""
    with tempfile.TemporaryDirectory(prefix="ibap-compare-") as workdir:
        result = os.path.join(workdir, "records.json")
        run_worker(__file__, src, workdir, result, "--scale", scale,
                   "--workloads", *workloads_, "--seeds", *map(str, seeds))
        with open(result) as fh:
            return json.load(fh)


def run_worker(script, *args, stdout=None):
    """Run `script --worker *args` in a fresh interpreter: no PYTHONPATH,
    no bytecode written, BLAS on one thread.  Returns the CompletedProcess;
    raises CalledProcessError when the worker fails."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    env.update({var: "1" for var in BLAS_VARS})
    return subprocess.run([sys.executable, os.path.abspath(script), "--worker", *args],
                          env=env, check=True, stdin=subprocess.DEVNULL, stdout=stdout,
                          text=True)


def revision_src(rev, dest):
    """Extract src/ of git revision `rev` into `dest`; returns its path."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return os.path.join(dest, "src")


# ---------------------------------------------------------------- comparison


def _solution(stdout):
    for line in stdout.splitlines():
        if line.startswith("solution:"):
            vals = json.loads(line[len("solution:"):])
            return [complex(*v) if isinstance(v, list) else complex(v) for v in vals]
    return None


def _sweeps(stdout):
    m = re.search(r"^sweeps: (\d+)", stdout, re.M)
    return int(m.group(1)) if m else None


def _norm(v):
    return sum(abs(z) ** 2 for z in v) ** 0.5


def solution_difference(old_stdout, new_stdout):
    """||new - old|| / ||old|| of the printed solutions (absolute when
    ||old|| is 0); None when either prints none or their lengths differ."""
    old, new = _solution(old_stdout), _solution(new_stdout)
    if old is None or new is None or len(old) != len(new):
        return None
    diff = _norm([a - b for a, b in zip(new, old)])
    scale = _norm(old)
    return diff / scale if scale else diff


def differing_lines(old_stdout, new_stdout):
    """Labels (the text before ':') of the stdout lines that differ."""
    old, new = old_stdout.splitlines(), new_stdout.splitlines()
    labels = [b.split(":", 1)[0] for a, b in zip(old, new) if a != b]
    if len(old) != len(new):
        labels.append(f"{len(old)} -> {len(new)} lines")
    return labels


def trace_difference(old_csv, new_csv):
    """Per value column: (largest absolute difference, largest relative
    difference, rows whose text differs while their values are equal), or
    a string naming a structural mismatch; plus whether `iter` agrees."""
    old = list(csv.reader(io.StringIO(old_csv)))
    new = list(csv.reader(io.StringIO(new_csv)))
    same_iter = [r[0] for r in old] == [r[0] for r in new]
    if not same_iter or old[:1] != new[:1]:
        return {"iter": f"{len(old) - 1} -> {len(new) - 1} rows"}, False
    columns = {}
    for j, name in enumerate(old[0][1:], start=1):
        worst_abs = worst_rel = 0.0
        text_only = 0
        for a, b in zip(old[1:], new[1:]):
            if a[j] == b[j]:
                continue
            if a[j] == "" or b[j] == "":
                worst_abs = worst_rel = float("inf")
                break
            x, y = float(a[j]), float(b[j])
            # 1e-5 for 1e-05, or -0.0 for 0.0: the same value written otherwise
            text_only += x == y
            worst_abs = max(worst_abs, abs(y - x))
            if x:
                worst_rel = max(worst_rel, abs(y - x) / abs(x))
            elif y:
                worst_rel = float("inf")
        columns[name] = (worst_abs, worst_rel, text_only)
    return columns, True


def compare(old_records, new_records):
    """One report line per command and a summary that ends with the largest
    nonzero solution and relative trace-column differences, each with its
    command; returns (lines, ok)."""
    lines, ok, identical, reports, equal_reports = [], True, 0, 0, 0
    solution = trace = None  # (rel, head) and (rel, abs, column, head)
    if len(old_records) != len(new_records):
        return [f"{len(old_records)} commands at the revision, "
                f"{len(new_records)} in the working tree"], False
    for old, new in zip(old_records, new_records):
        head = f"{old['workload']} seed {old['seed']} #{old['index']} {' '.join(old['argv'])}"
        if old["argv"] != new["argv"]:
            lines.append(f"{head}: argv differs: {' '.join(new['argv'])}")
            ok = False
            continue
        parts = [f"exit {old['exit']}/{new['exit']}",
                 "stderr " + ("equal" if old["stderr"] == new["stderr"] else "DIFFERS")]
        ok = ok and old["exit"] == new["exit"]
        if old["stdout"] == new["stdout"]:
            parts.append("stdout equal")
        else:
            rel = solution_difference(old["stdout"], new["stdout"])
            note = "" if rel is None else f"solution rel {rel:.2e}; "
            if rel and rel > (solution[0] if solution else 0.0):
                solution = (rel, head)
            parts.append(f"stdout DIFFERS ({note}lines: "
                         f"{', '.join(differing_lines(old['stdout'], new['stdout']))})")
            if _sweeps(old["stdout"]) != _sweeps(new["stdout"]):
                parts.append(f"SWEEPS {_sweeps(old['stdout'])} -> {_sweeps(new['stdout'])}")
                ok = False
        if old["trace"] == new["trace"]:
            if old["trace"] is not None:
                parts.append("trace equal")
        elif old["trace"] is None or new["trace"] is None:
            ok = False
            parts.append("trace MISSING on one side")
        else:
            columns, same_iter = trace_difference(old["trace"], new["trace"])
            ok = ok and same_iter
            for name, (worst_abs, worst_rel, text_only) in columns.items() if same_iter else ():
                ok = ok and not text_only
                if worst_rel > (trace[0] if trace else 0.0):
                    trace = (worst_rel, worst_abs, name, head)
            parts.append("trace DIFFERS (" + "; ".join(
                f"{k} {v}" if isinstance(v, str) else
                f"{k} abs {v[0]:.2e} rel {v[1]:.2e}" + (f" TEXT in {v[2]} equal rows" if v[2] else "")
                for k, v in columns.items()) + ")")
        old_report, new_report = old.get("report"), new.get("report")
        if old_report is not None or new_report is not None:
            reports += 1
            equal_reports += old_report == new_report
            if old_report is None or new_report is None:
                ok = False
                parts.append("report MISSING on one side")
            else:
                parts.append("report " + ("equal" if old_report == new_report else "DIFFERS"))
        same = all(old.get(k) == new.get(k)
                   for k in ("exit", "stderr", "stdout", "trace", "report"))
        identical += same
        lines.append(f"{head}: " + ", ".join(parts))
        if old["stderr"] != new["stderr"]:
            lines += [f"    {sign} {text}" for sign, side in (("-", old), ("+", new))
                      for text in side["stderr"].splitlines() or [""]]
    lines.append(f"{identical} of {len(old_records)} commands byte-identical; "
                 f"{equal_reports} of {reports} --json-out reports equal; "
                 + ("exit codes, sweep counts and trace texts agree" if ok
                    else "exit codes, sweep counts or trace texts DIFFER")
                 + "; largest solution difference: "
                 + (f"rel {solution[0]:.2e} at {solution[1]}" if solution else "none")
                 + "; largest trace difference: "
                 + (f"{trace[2]} rel {trace[0]:.2e} abs {trace[1]:.2e} at {trace[3]}"
                    if trace else "none"))
    return lines, ok


# ---------------------------------------------------------------- entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revision", nargs="?", help="git revision to compare against")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="problem sizes of bench/workloads.py")
    parser.add_argument("--worker", nargs=3, metavar=("SRC", "WORKDIR", "RESULT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        src, workdir, result = args.worker
        records = _run_side_here(src, workdir, args.workloads, args.seeds, args.scale)
        with open(result, "w") as fh:
            json.dump(records, fh)
        return 0
    if args.revision is None:
        parser.error("a git revision is required")
    with tempfile.TemporaryDirectory(prefix="ibap-rev-") as dest:
        old = run_side(revision_src(args.revision, dest), args.workloads, args.seeds,
                       args.scale)
    new = run_side(os.path.join(ROOT, "src"), args.workloads, args.seeds, args.scale)
    lines, ok = compare(old, new)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
