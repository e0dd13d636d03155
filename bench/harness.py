"""Closed-loop benchmark of the ibap command-line tool.

One client runs the workload's commands one after another in this
process, calling ``ibap.cli.main(argv)`` with stdout captured, and checks
every answer against the numpy reference of ``workloads``.  A pass runs
every command of the workload; passes repeat until the time budget is
spent (see run_workload for how times are reduced).

``--trace 0`` reports the end-to-end metrics with no wrapper installed;
command times are scaled to a fixed host speed by a probe timed between
commands (HostProbe).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones; ``trace.overhead_s`` is the median
command time of a traced pass minus that of an untraced one.  Each run
also writes a detail file
(environment, per-command samples, failures and, when traced, the
factorization shapes of each command) and, when traced, the spans of its
first traced pass, under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh interpreters timed for setup_s, after one that compiles bytecode
SETUP_REPEATS = 9
#: seconds of repeated executions a short command gets per pass, and the
#: cap on its repetitions
LIGHT_S = 0.2
MAX_REPS = 40
#: reference time of the host probe, close to its median on the test host
#: (Intel Xeon, 2 vCPUs); reported command times are seconds at this
#: probe time (see HostProbe)
PROBE_REF_S = 0.0045

END_TO_END = tuple((f"{k}_s", "s") for k in workloads.KINDS) + (
    ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

_FNS = {
    "subspaces": ("from_spanning", "complement", "intersect", "add", "project"),
    "angles": ("projector_product_norm", "cos_friedrichs"),
}
PER_LAYER = (
    (("cli.load_problem_s", "s"), ("cli.build_family_s", "s"), ("cli.trace_csv_bytes", "bytes"))
    + tuple((f"{layer}.{fn}_{what}", unit) for layer, fns in _FNS.items() for fn in fns
            for what, unit in (("calls", "count"), ("s", "s")))
    + (("family.verify_ibap_calls", "count"), ("family.verify_ibap_s", "s"),
       ("family.verify_ibap_self_s", "s"), ("family.verify_ibap_per_op", "calls/op"),
       ("family.trailing_sums_calls", "count"), ("family.trailing_sums_s", "s"),
       ("family.stacked_lstsq_s", "s"), ("family.validate_prescription_s", "s"),
       ("family.uniqueness_check_s", "s"))
    + tuple((f"solvers.{fn}_s", "s") for fn in ("solve_min_norm", "extend_min_norm",
                                                "direct_solve", "best_approximation",
                                                "rate_bound"))
    + (("solvers.extend_min_norm_calls", "count"), ("solvers.sweeps", "count"),
       ("solvers.sweep_us", "us"), ("solvers.affine_project_calls", "count"))
    + tuple((f"applications.{fn}_s", "s") for fn in ("recover_with_measurements",
                                                     "solve_moments", "slow_family"))
    + (("linalg.svd_calls", "count"), ("linalg.svd_square_calls", "count"),
       ("linalg.svd_s", "s"), ("linalg.svd_flops", "flop"), ("linalg.lstsq_calls", "count"),
       ("linalg.solve_calls", "count"), ("linalg.time_share", "fraction"),
       ("trace.overhead_s", "s"), ("failed_frac", "fraction"))
)


class HostProbe:
    """A fixed piece of work of a few milliseconds, independent of ibap and
    of the seed, timed between commands to follow the host's speed: an SVD,
    small projections in a numpy loop and plain Python arithmetic, the
    kinds of work the commands do.

    The 2-vCPU test host runs the same code up to 1.9 times slower while
    its neighbours are busy, in stretches of a second to minutes, so a
    run's wall times depend on the neighbours' share of it.  Each
    execution is therefore timed in units of the probe run right after it
    and reported as seconds at the probe time PROBE_REF_S (scaled_time).
    The parts are weighted so that the probe slows down about as much as
    the commands do, by 1.3 to 1.8 times (small numpy operations slow
    down the most, large factorizations the least).
    """

    def __init__(self):
        rng = np.random.default_rng(20240607)
        self.mat = rng.standard_normal((100, 100))
        self.bases = [np.linalg.qr(rng.standard_normal((60, 3)))[0] for _ in range(20)]
        self.vec = rng.standard_normal(60)

    def __call__(self) -> float:
        t0 = perf_counter()
        np.linalg.svd(self.mat)
        x = self.vec
        for _ in range(10):
            for q in self.bases:
                x = x - q @ (q.T @ x)
        acc = 0
        for i in range(10000):
            acc += i * i
        return perf_counter() - t0


def scaled_time(samples, probes) -> float:
    """Median over executions of wall seconds times PROBE_REF_S over the
    probe time right after the execution."""
    return statistics.median(t * PROBE_REF_S / p for t, p in zip(samples, probes))


@dataclass
class PassResult:
    wall: float
    times: list        # per command, the seconds of each of its executions
    failures: list
    csv_bytes: int = 0
    verify_ibap_ops: int = 0
    cut: bool = False
    shapes: list = None   # traced: the factorizations of each command
    probes: list = None   # per command, the probe time after each execution


def _run_command(cli_main, cmd):
    """Run one command in-process; returns (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed command, not a failed run
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    return perf_counter() - t0, code, out.getvalue(), error or err.getvalue().strip()


def _check(cmd, code, stdout, error):
    if code != cmd.expect_exit:
        return f"exit {code}, expected {cmd.expect_exit}: {error[-200:]}"
    try:
        return cmd.verify(stdout)
    except (ValueError, TypeError, IndexError) as exc:
        return f"unreadable output ({exc})"


def schedule(first_times, reps):
    """Order of executions for a pass: each command at its place in the
    first pass, and the repeats of a short command spread evenly over the
    pass, so that its samples do not all fall in one stretch of machine
    load."""
    total = sum(first_times) or 1.0
    slots = []
    elapsed = 0.0
    for i, (t, k) in enumerate(zip(first_times, reps)):
        if k == 1:
            slots.append(((elapsed + t / 2) / total, i))
        else:
            slots.extend(((j + 0.5) / k, i) for j in range(k))
        elapsed += t
    return [i for _, i in sorted(slots)]


def run_pass(cli_main, cmds, order=None, tracer=None, deadline=None, estimates=None,
             probe=None):
    """Run the commands in the given order of indices (default: each once).

    With a probe, it runs after each command.
    With a deadline, the pass ends before the first command that its
    estimate says would not finish in time; `cut` is then set.
    """
    order = range(len(cmds)) if order is None else order
    times = [[] for _ in cmds]
    probes = [[] for _ in cmds]
    failures = []
    csv_bytes = verify_ops = 0
    cut = False
    shapes = []
    if tracer is not None:
        tracer.reset()
    gc.collect()
    t_start = perf_counter()
    for i in order:
        if deadline is not None and perf_counter() + estimates[i] > deadline:
            cut = True
            break
        cmd = cmds[i]
        if cmd.trace_path and os.path.exists(cmd.trace_path):
            os.remove(cmd.trace_path)
        before = tracer.calls["family.verify_ibap"] if tracer else 0
        if tracer:
            tracer.shapes.clear()
            tracer.active = True
        try:
            dt, code, stdout, error = _run_command(cli_main, cmd)
        finally:
            if tracer:
                tracer.active = False
        times[i].append(dt)
        if probe is not None:
            probes[i].append(probe())
        if tracer:
            verify_ops += tracer.calls["family.verify_ibap"] > before
            shapes.append({"argv": " ".join(cmd.argv)[:160],
                           "calls": [{"call": list(map(str, k)), "count": v}
                                     for k, v in tracer.shapes.most_common()]})
        reason = _check(cmd, code, stdout, error)
        if reason:
            failures.append({"argv": " ".join(cmd.argv)[:200], "reason": reason})
        if cmd.trace_path and os.path.exists(cmd.trace_path):
            csv_bytes += os.path.getsize(cmd.trace_path)
    wall = perf_counter() - t_start
    return PassResult(wall, times, failures, csv_bytes, verify_ops, cut, shapes, probes)


def layer_metrics(tracer: Tracer, res: PassResult) -> dict:
    """Per-layer values of one traced pass, keyed by PER_LAYER names."""
    cmd_wall = sum(sum(t) for t in res.times)
    linalg_s = sum(v for k, v in tracer.incl.items() if k.startswith("linalg."))
    sweeps = tracer.sweeps
    special = {
        "cli.trace_csv_bytes": res.csv_bytes,
        "family.verify_ibap_per_op": (tracer.calls["family.verify_ibap"] / res.verify_ibap_ops
                                      if res.verify_ibap_ops else 0.0),
        "solvers.sweeps": sweeps,
        "solvers.sweep_us": (1e6 * tracer.self_s["solvers.best_approximation"] / sweeps
                             if sweeps else 0.0),
        "linalg.svd_square_calls": tracer.svd_square,
        "linalg.svd_flops": tracer.svd_flops,
        "linalg.time_share": linalg_s / cmd_wall if cmd_wall else 0.0,
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith("_calls"):
            out[name] = tracer.calls[name[:-len("_calls")]]
        elif name.endswith("_self_s"):
            out[name] = tracer.self_s[name[:-len("_self_s")]]
        elif name.endswith("_s") and not name.startswith("trace."):
            out[name] = tracer.incl[name[:-len("_s")]]
    return out


def measure_setup(repeats=SETUP_REPEATS) -> list:
    """Wall seconds for fresh interpreters to finish ``import ibap.cli``.

    These are not scaled by the host probe: an interpreter's start-up
    follows process creation and the file cache more than the probe."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-c", "import ibap.cli"]
    times = []
    for i in range(repeats + 1):
        t0 = perf_counter()
        subprocess.run(argv, env=env, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        if i:  # the first one compiles bytecode
            times.append(perf_counter() - t0)
    return times


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints
        buf = io.StringIO()
        with redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version, "numpy": np.__version__,
        "numpy_config": blas,
        "threads": {k: v for k, v in os.environ.items() if "THREADS" in k},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu, "platform": platform.platform(),
    }


def run_workload(cli_main, workload, seed, seconds, traced, workdir, scale="full",
                 spans_path=None):
    """Generate, warm up and measure one workload; returns a result dict.

    The first pass runs each command once.  Untraced, later passes repeat
    each command that took less than LIGHT_S often enough to fill LIGHT_S,
    spread over the pass (see schedule), and run until the time budget is
    spent.  A command's time is the median over its executions of the
    wall time scaled by the host probe (scaled_time), and a kind's time
    per pass is the sum over its commands.  The detail file keeps the
    plain wall median of each command too.

    Traced, untraced and traced passes alternate as whole passes, so that
    every traced pass sees each command exactly once.
    """
    cmds = workloads.build(workload, seed, os.path.join(workdir, "main"), scale)
    if scale == "full":  # warm every code path on the tiny variant first
        run_pass(cli_main, workloads.build(workload, seed, os.path.join(workdir, "warm"),
                                           "smoke"))
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    traced_passes, layers = [], []
    probe = HostProbe()
    deadline = perf_counter() + seconds
    try:
        plain = [run_pass(cli_main, cmds, probe=probe)]
        first = [t[0] for t in plain[0].times]
        order = schedule(first, [max(1, min(MAX_REPS, math.ceil(LIGHT_S / t))) for t in first])
        while tracer is None and not plain[-1].cut and perf_counter() < deadline:
            plain.append(run_pass(cli_main, cmds, order, deadline=deadline, estimates=first,
                                  probe=probe))
        while tracer is not None:
            c0 = perf_counter()
            tracer.recording = not traced_passes and spans_path is not None
            res = run_pass(cli_main, cmds, tracer=tracer)
            tracer.recording = False
            layers.append(layer_metrics(tracer, res))
            traced_passes.append(res)
            if len(traced_passes) == 1:
                self_by_layer = tracer.self_time_by_layer()
            if perf_counter() + 2 * (perf_counter() - c0) > deadline:
                break
            plain.append(run_pass(cli_main, cmds, probe=probe))
    finally:
        if tracer is not None:
            tracer.uninstall()
    every = plain + traced_passes
    attempted = sum(len(t) for p in every for t in p.times)
    failures = [f for p in every for f in p.failures]
    med = statistics.median
    samples = [[s for p in plain for s in p.times[i]] for i in range(len(cmds))]
    probes = [[h for p in plain for h in p.probes[i]] for i in range(len(cmds))]
    per_cmd = [scaled_time(ss, pp) for ss, pp in zip(samples, probes)]
    wall_cmd = [med(ss) for ss in samples]
    e2e = {f"{k}_s": sum(t for c, t in zip(cmds, per_cmd) if c.kind == k)
           for k in workloads.KINDS}
    e2e["ops_per_s"] = len(cmds) / sum(per_cmd)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"attempted": attempted, "failed": len(failures), "failures": failures[:20],
              "end_to_end": e2e, "passes": len(plain), "pass_wall": [p.wall for p in plain],
              "commands": [{"argv": " ".join(c.argv)[:160], "kind": c.kind, "time_s": t,
                            "wall_median_s": w, "samples": ss, "probes": pp}
                           for c, t, w, ss, pp in zip(cmds, per_cmd, wall_cmd, samples, probes)]}
    if tracer is not None:
        per_layer = {name: med(lay[name] for lay in layers) for name in layers[0]}
        per_layer["trace.overhead_s"] = (med(sum(t[0] for t in p.times) for p in traced_passes)
                                         - sum(wall_cmd))
        per_layer["failed_frac"] = len(failures) / attempted
        result["per_layer"] = per_layer
        result["self_s_by_layer"] = self_by_layer
        result["linalg_shapes"] = traced_passes[0].shapes
        result["missing_targets"] = tracer.missing
        if spans_path is not None:
            result["spans_written"] = tracer.write_spans(spans_path)
    return result


def _metric_block(values, names):
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def import_cli():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ibap.cli
    return ibap.cli.main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes: correctness and "
                             "counts only, no timing")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(ROOT, ".bench_work", f"{os.getpid()}")
    try:
        if args.smoke:
            return _smoke(args, workdir)
        setup = measure_setup()
        cli_main = import_cli()
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spans = os.path.join(out_dir, f"{tag}-spans.csv.gz") if args.trace else None
        res = run_workload(cli_main, args.workload, args.seed, args.seconds, bool(args.trace),
                           workdir, spans_path=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["end_to_end"]["setup_s"] = statistics.median(setup)
    res["setup_runs"] = setup
    res["environment"] = environment(args)
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(res, fh, indent=1, default=str)
    for f in res["failures"]:
        print(f"FAILED {f['argv']}: {f['reason']}", file=sys.stderr)
    if args.trace:
        print("self seconds by layer (first traced pass): "
              + json.dumps({k: round(v, 4) for k, v in res["self_s_by_layer"].items()}),
              file=sys.stderr)
        metrics = _metric_block(res["per_layer"], PER_LAYER)
    else:
        metrics = _metric_block(res["end_to_end"], END_TO_END)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _smoke(args, workdir) -> int:
    cli_main = import_cli()
    attempted = failed = 0
    counts = {}
    for w in workloads.WORKLOADS:
        res = run_workload(cli_main, w, args.seed, 0.0, True, os.path.join(workdir, w),
                           scale="smoke")
        attempted += res["attempted"]
        failed += res["failed"]
        for f in res["failures"]:
            print(f"FAILED {w}: {f['argv']}: {f['reason']}", file=sys.stderr)
        counts[w] = {k: v for k, v in res["per_layer"].items()
                     if k.endswith(("_calls", "sweeps"))}
        print(f"{w}: {res['attempted']} commands, {res['failed']} failed, "
              f"{counts[w]['linalg.svd_calls']} svd calls, "
              f"{counts[w]['solvers.sweeps']} sweeps")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if failed == 0 else 1
