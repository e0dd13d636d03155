"""Order-balanced A/B timing of the benchmark commands: a git revision
against the working tree.

    python3 tools/ab.py HEAD~
    python3 tools/ab.py 3b27fd2 --rounds 40 --reps 5 --workloads applications
    python3 tools/ab.py HEAD --kinds moments reject

Writes the problem files of every command that ``bench/workloads.build``
makes for the chosen workloads, once, from the working tree's ``bench/``,
so that both sides run the same argv on the same files.  The revision's
``src/`` is extracted with ``git archive``, as ``tools/compare_outputs.py``
does.  Each round then starts one fresh interpreter per side, with BLAS
pinned to one thread; the side that runs first alternates from round to
round, so with an even number of rounds each side runs first equally
often.  An interpreter imports ``ibap`` from its side's ``src/``, runs
every command once to warm up, then runs all of them ``--reps`` times
over, calling ``ibap.cli.main`` in-process as the benchmark does, and
takes each command's median.  A kind's time in a round is the sum over
its commands, as the benchmark's ``<kind>_s`` is; ``pass`` is the sum
over all commands of the workload.  ``--kinds`` keeps only the commands
of the named kinds, so that a focused comparison runs more rounds in the
same time; ``pass`` then sums only those.

One line per workload and kind gives the median over rounds of the
ratio working tree / revision, the rounds in which the working tree is
faster, a distribution-free interval for that median (order statistics
of the ratios, see median_interval), and each side's median time.  A
command whose exit code differs from the one the workload expects is
reported after the table, and the tool then exits 1.
Run it from the repository root.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

TOOLS = os.path.dirname(os.path.abspath(__file__))
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)
from compare_outputs import (BENCH, BLAS_VARS, ROOT, WORKLOADS, revision_src,  # noqa: E402
                             run_worker)

#: coverage of the interval printed for each median ratio
LEVEL = 0.95
#: the workloads' seed; the problems are built at full scale
SEED = 1


# ---------------------------------------------------------------- one side


def _run_side_here(src, commands, reps):
    """Time the commands in this interpreter: one warm-up run, then `reps`
    runs of all of them in turn.  Returns each command's median seconds
    and the exit code of its warm-up run."""
    sys.path.insert(0, src)
    from ibap.cli import main

    def run(argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a wrong exit code, not a failed run
                code = "crash: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            return perf_counter() - t0, code

    codes = [run(cmd["argv"])[1] for cmd in commands]
    samples = [[] for _ in commands]
    for _ in range(reps):
        gc.collect()
        for i, cmd in enumerate(commands):
            samples[i].append(run(cmd["argv"])[0])
    return {"seconds": [statistics.median(s) for s in samples], "exits": codes}


def run_side(src, commands_path, reps):
    """Run the commands of the JSON file at commands_path with the ibap
    sources at `src`, in a fresh interpreter with one BLAS thread."""
    out = run_worker(__file__, src, commands_path, "--reps", str(reps),
                     stdout=subprocess.PIPE).stdout
    return json.loads(out.splitlines()[-1])


def _workloads():
    """The module bench/workloads of the working tree."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import workloads

    return workloads


def build_commands(workloads_, seed, scale, workdir, kinds=None):
    """Write the workloads' problem files into workdir; returns one
    {"workload", "kind", "argv", "expect_exit"} per command, with `kinds`
    only those of these kinds."""
    return [{"workload": w, "kind": c.kind, "argv": list(c.argv), "expect_exit": c.expect_exit}
            for w in workloads_
            for c in _workloads().build(w, seed, os.path.join(workdir, w), scale=scale)
            if kinds is None or c.kind in kinds]


def run_rounds(old_src, new_src, commands, rounds, reps, workdir):
    """Alternate the two sides for `rounds` rounds, the revision first in
    the even ones; returns the list of (old, new) worker results."""
    path = os.path.join(workdir, "commands.json")
    with open(path, "w") as fh:
        json.dump(commands, fh)
    results = []
    for r in range(rounds):
        sides = {}
        for name in (("old", "new") if r % 2 == 0 else ("new", "old")):
            sides[name] = run_side(old_src if name == "old" else new_src, path, reps)
        results.append((sides["old"], sides["new"]))
    return results


# ---------------------------------------------------------------- summary


def median_interval(values, level=LEVEL):
    """(lo, hi): the order statistics x_(k) and x_(n+1-k) of the values,
    with the largest k whose interval covers the median with probability
    at least `level` (binomial, distribution-free); the minimum and the
    maximum when no k reaches it."""
    xs = sorted(values)
    n = len(xs)

    def coverage(k):  # 1 - 2 P(Bin(n, 1/2) <= k - 1)
        return 1 - 2 * sum(math.comb(n, i) for i in range(k)) / 2 ** n

    k = 1
    while k < (n + 1) // 2 and coverage(k + 1) >= level:
        k += 1
    return xs[k - 1], xs[n - k]


def kind_times(commands, seconds):
    """{(workload, kind): seconds} from one side's per-command seconds, with
    each workload's total under the kind "pass"."""
    out = {}
    for cmd, t in zip(commands, seconds):
        key = (cmd["workload"], cmd["kind"])
        out[key] = out.get(key, 0.0) + t
    for workload in dict.fromkeys(cmd["workload"] for cmd in commands):
        out[(workload, "pass")] = sum(t for cmd, t in zip(commands, seconds)
                                      if cmd["workload"] == workload)
    return out


def summarize(commands, results):
    """One row per (workload, kind), in order of first appearance, then
    one "pass" row per workload:
    (workload, kind, median ratio, wins, rounds, (lo, hi), old median s,
    new median s)."""
    per_round = [(kind_times(commands, old["seconds"]), kind_times(commands, new["seconds"]))
                 for old, new in results]
    rows = []
    for key in per_round[0][0]:
        olds = [o[key] for o, _ in per_round]
        news = [n[key] for _, n in per_round]
        ratios = [n / o for o, n in zip(olds, news)]
        rows.append((*key, statistics.median(ratios), sum(r < 1.0 for r in ratios),
                     len(ratios), median_interval(ratios), statistics.median(olds),
                     statistics.median(news)))
    return rows


def wrong_exits(commands, results):
    """Lines naming each command whose exit code, on either side in any
    round, differs from the one its workload expects."""
    lines = []
    for i, cmd in enumerate(commands):
        seen = {side["exits"][i] for pair in results for side in pair}
        if seen != {cmd["expect_exit"]}:
            lines.append(f"{cmd['workload']} {' '.join(cmd['argv'])}: exits "
                         f"{sorted(map(str, seen))}, expected {cmd['expect_exit']}")
    return lines


def format_rows(rows):
    lines = [f"{'workload':<16}{'kind':<17}{'ratio':>7}{'wins':>8}  {'interval':<17}"
             f"{'revision ms':>12}{'tree ms':>10}"]
    for workload, kind, ratio, wins, n, (lo, hi), old, new in rows:
        lines.append(f"{workload:<16}{kind:<17}{ratio:>7.3f}{f'{wins}/{n}':>8}  "
                     f"{f'[{lo:.3f}, {hi:.3f}]':<17}{1e3 * old:>12.3f}{1e3 * new:>10.3f}")
    return lines


# ---------------------------------------------------------------- entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revision", nargs="?", help="git revision to compare against")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--kinds", nargs="+", metavar="KIND",
                        help="time only the commands of these kinds; each workload's "
                             "pass row then sums only them")
    # host load drifts between the two interpreters of a round, so many
    # short rounds narrow the interval more than a few long ones
    parser.add_argument("--rounds", type=int, default=30,
                        help="interpreters per side, alternating (default 30)")
    parser.add_argument("--reps", type=int, default=10,
                        help="timed runs of every command per interpreter (default 10)")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "COMMANDS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        src, path = args.worker
        with open(path) as fh:
            commands = json.load(fh)
        print(json.dumps(_run_side_here(src, commands, args.reps)))
        return 0
    if args.revision is None:
        parser.error("a git revision is required")
    if args.rounds < 1 or args.reps < 1:
        parser.error("--rounds and --reps must be at least 1")
    known = _workloads().KINDS
    unknown = [kind for kind in args.kinds or () if kind not in known]
    if unknown:
        parser.error(f"unknown kinds {', '.join(unknown)}; the kinds are {', '.join(known)}")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    with tempfile.TemporaryDirectory(prefix="ibap-ab-") as workdir:
        commands = build_commands(args.workloads, SEED, "full", workdir, args.kinds)
        results = run_rounds(revision_src(args.revision, workdir),
                             os.path.join(ROOT, "src"), commands, args.rounds, args.reps,
                             workdir)
    print(f"{args.revision} vs working tree: {args.rounds} rounds of {args.reps} runs "
          f"per command, seed {SEED}; ratio = tree / revision, wins = rounds the "
          f"tree is faster, interval >= {LEVEL:.0%} for the median ratio")
    print("\n".join(format_rows(summarize(commands, results))))
    bad = wrong_exits(commands, results)
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
