"""Median and quartiles per workload and metric over benchmark detail files.

    python3 bench/summarize.py .bench_out/*-trace0.json [--out FILE]

Reads the detail files that run.py writes under .bench_out/, groups them
by workload, and prints one JSON document with the median, the first and
third quartiles, the spread (quartile distance over median) and the
seeds of every metric (end-to-end metrics from untraced files, per-layer
metrics from traced ones), with the environment of the first file.
"""

import argparse
import json
import statistics
import sys


def _portable(env):
    """The environment without install paths: the BLAS name, version and
    build line stand in for numpy's full configuration."""
    out = {k: v for k, v in env.items() if k != "numpy_config"}
    config = env.get("numpy_config")
    if isinstance(config, dict):
        blas = config.get("Build Dependencies", {}).get("blas", {})
        out["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    return out


def summarize(paths):
    groups = {}
    for path in paths:
        with open(path) as fh:
            res = json.load(fh)
        env = res["environment"]
        g = groups.setdefault(env["workload"], {"seeds": [], "failed": 0, "values": {},
                                                "environment": _portable(env)})
        g["seeds"].append(env["seed"])
        g["failed"] += res["failed"]
        block = res["per_layer"] if env["trace"] else res["end_to_end"]
        for name, value in block.items():
            g["values"].setdefault(name, []).append(value)
    out = {}
    for workload, g in sorted(groups.items()):
        metrics = {}
        for name, vals in g["values"].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None}
        out[workload] = {"seeds": sorted(g["seeds"]), "failed": g["failed"], "metrics": metrics,
                         "environment": g["environment"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--out", default=None, help="also write the summary to this file")
    args = parser.parse_args(argv)
    text = json.dumps(summarize(args.files), indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
