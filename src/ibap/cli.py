"""File-driven command-line front end.

Problem descriptions are UTF-8 JSON documents (schemas in the README): a
`check`/`solve`/`iterate` problem lists a field tag, the ambient
dimension, named spanning-vector lists, and optionally a prescription
and an anchor; `moments` and `signal` have their own small schemas.
Complex scalars are written as two-element [re, im] arrays; all numerals
are decimal.

Exit codes, stable across commands:
  0  success
  2  infeasible prescription (a certificate is printed)
  3  independence or inverse-best-approximation failure where required
  4  parse or validation error, or an output file that cannot be written

The environment variable IBAP_DEFAULT_TOL, when set, overrides the
default iteration tolerance of 1e-10; like --tol, it must be positive and
finite.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import reprlib
import sys
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np
import orjson

from .applications import (
    HypothesisError,
    MaskedSignalProblem,
    SlowFamilySpec,
    dft_rows,
    recover_with_measurements,
    slow_family,
    solve_moments,
    worst_aligned_start,
)
from .family import (
    DependentFamilyError,
    Family,
    IbapFailureError,
    InfeasiblePrescriptionError,
    IbapReport,
    uniqueness_check,
    verify_ibap,
)
from .solvers import (
    SolveOptions,
    best_approximation,
    direct_solve,
    prescription_residual,
    rate_bound,
    solve_min_norm,
)
from .subspaces import COMPLEX, REAL, Subspace, field_dtype, inner

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NO_IBAP = 3
EXIT_PARSE = 4

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000
TOL_ENV_VAR = "IBAP_DEFAULT_TOL"


class ParseError(ValueError):
    pass


def default_tol() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        val = float(raw)
    except ValueError:
        raise ParseError(f"{TOL_ENV_VAR}={raw!r} is not a number") from None
    if not 0 < val < math.inf:
        raise ParseError(f"{TOL_ENV_VAR} must be positive and finite")
    return val


# ---------------------------------------------------------------- parsing


def _scalar(value, field: str, what: str):
    """One decoded scalar; _loads has already refused non-finite numbers."""
    if isinstance(value, bool):
        raise ParseError(f"{what}: booleans are not numbers")
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, list):
        raise ParseError(f"{what}: expected a number or [re, im] pair, "
                         f"got {reprlib.repr(value)}")
    if field != COMPLEX:
        raise ParseError(f"{what}: [re, im] scalars require the complex field")
    if len(value) != 2 or not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                                  for p in value):
        raise ParseError(f"{what}: complex scalars must be [re, im] number pairs")
    return complex(float(value[0]), float(value[1]))


#: JSON numbers decode to exactly these types; bool is a subclass of int
_NUMBER_TYPES = frozenset((int, float))


def _finite_array(rows: list, n: int, field: str) -> np.ndarray | None:
    """rows as one (len(rows), n) array, or None when some row or entry needs _scalar.

    One type scan per nesting level and one conversion; _loads has already
    refused non-finite numbers.
    In a complex file, entries that are all [re, im] pairs are reinterpreted
    as complex128 and entries that are all plain numbers converted to it;
    both keep -0.0.  A list mixing the two goes to _scalar.
    """
    if not set(map(type, rows)) <= {list} or not set(map(len, rows)) <= {n}:
        return None
    flat = list(chain.from_iterable(rows))
    types = set(map(type, flat))
    pairs = field == COMPLEX and types <= {list}
    if pairs:
        if not set(map(len, flat)) <= {2}:
            return None
        flat = list(chain.from_iterable(flat))
        types = set(map(type, flat))
    if not types <= _NUMBER_TYPES:
        return None
    arr = np.fromiter(flat, np.float64, len(flat))
    if field == COMPLEX:
        arr = arr.view(np.complex128) if pairs else arr.astype(np.complex128)
    return arr.reshape(len(rows), n)


def _vectors(rows: list, n: int, field: str, what) -> np.ndarray:
    """A list of vectors as the rows of one (len(rows), n) array, by _finite_array;
    where that fails, the _scalar walk names the first offending row, what(j)
    for row j from 1, or entry, and reads a complex file's list that mixes
    plain numbers and [re, im] pairs.
    """
    arr = _finite_array(rows, n, field)
    if arr is not None:
        return arr
    out = []
    for j, values in enumerate(rows, 1):
        if not isinstance(values, list):
            raise ParseError(f"{what(j)}: expected a list of scalars")
        if len(values) != n:
            raise ParseError(f"{what(j)}: has {len(values)} entries, expected {n}")
        out.append([_scalar(v, field, f"{what(j)}[{i}]") for i, v in enumerate(values)])
    return np.array(out, dtype=field_dtype(field)).reshape(len(rows), n)


def _vector(values, n: int, field: str, what: str) -> np.ndarray:
    """One vector, named `what` in errors: the one-row case of _vectors."""
    return _vectors([values], n, field, lambda _: what)[0]


def _vector_value_entries(raw, n: int, field: str, what: str, path: str):
    """(vectors, values) from a list of {"vector": ..., "value": ...} objects."""
    if not isinstance(raw, list):
        raise ParseError(f"{path}: {what}s must be a list")
    vectors = []
    values = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "vector" not in entry or "value" not in entry:
            raise ParseError(f"{path}: {what} {i + 1} needs 'vector' and 'value'")
        vectors.append(_vector(entry["vector"], n, field, f"{what} vector {i + 1}"))
        values.append(_scalar(entry["value"], field, f"{what} value {i + 1}"))
    return vectors, values


class Problem(NamedTuple):
    """Raw content of a check/solve/iterate problem file."""

    field: str
    ambient_dim: int
    names: tuple
    spans: tuple          # one (k, n) array of spanning vectors, as rows, per subspace
    prescription: np.ndarray | None   # (m, n), a row per subspace
    anchor: np.ndarray | None


#: orjson's message for each non-finite token it refuses, and that token's pattern
_NON_FINITE = {
    "unexpected character": re.compile("NaN|Infinity"),
    "no digit after minus sign": re.compile("-Infinity"),
    "number is infinity when parsed as double":
        re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"),
}


def _loads(data: bytes | str, what: str):
    """Decode a JSON document, UTF-8 bytes or text, with orjson.

    NaN, Infinity, -Infinity and numbers beyond the float range are refused
    as non-finite, naming the token; any other error is invalid JSON.
    """
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        pattern = _NON_FINITE.get(exc.msg)
        token = pattern and pattern.match(exc.doc, exc.pos)
        if token:
            raise ParseError(f"{what}: non-finite number {token.group()}") from None
        # orjson checks the encoding first and reports it at position 0;
        # the codec's error names the offending byte or character
        try:
            data.decode() if isinstance(data, bytes) else data.encode()
        except UnicodeError as bad:
            exc = bad
        raise ParseError(f"{what}: invalid JSON ({exc})") from None


def _load_json(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    doc = _loads(data, path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _field_of(doc: dict, path: str) -> str:
    field = doc.get("field", REAL)
    if field not in (REAL, COMPLEX):
        raise ParseError(f"{path}: field must be 'real' or 'complex', "
                         f"got {reprlib.repr(field)}")
    return field


def _positive_int(doc: dict, key: str, path: str) -> int:
    n = doc.get(key)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"{path}: {key} must be a positive integer")
    return n


def load_problem(path: str) -> Problem:
    doc = _load_json(path)
    field = _field_of(doc, path)
    n = _positive_int(doc, "ambient_dim", path)
    raw_subs = doc.get("subspaces")
    if not isinstance(raw_subs, list) or not raw_subs:
        raise ParseError(f"{path}: subspaces must be a nonempty list")
    names = []
    spans = []
    for i, entry in enumerate(raw_subs):
        if not isinstance(entry, dict) or "vectors" not in entry:
            raise ParseError(f"{path}: subspace {i + 1} must be an object with 'vectors'")
        name = entry.get("name", f"U{i + 1}")
        if not isinstance(name, str):
            raise ParseError(f"{path}: subspace {i + 1} name must be a string")
        vectors = entry["vectors"]
        if not isinstance(vectors, list):
            raise ParseError(f"{path}: subspace {name}: vectors must be a list")
        names.append(name)
        spans.append(_vectors(vectors, n, field, lambda j: f"subspace {name} vector {j}"))
    prescription = None
    if doc.get("prescription") is not None:
        raw = doc["prescription"]
        if not isinstance(raw, list) or len(raw) != len(spans):
            raise ParseError(f"{path}: prescription must list one vector per subspace")
        prescription = _vectors(raw, n, field, lambda j: f"prescription vector {j}")
    anchor = None
    if doc.get("anchor") is not None:
        anchor = _vector(doc["anchor"], n, field, "anchor")
    return Problem(field=field, ambient_dim=n, names=tuple(names), spans=tuple(spans),
                   prescription=prescription, anchor=anchor)


def build_family(problem: Problem) -> Family:
    subs = tuple(Subspace.from_spanning(span, problem.ambient_dim, field=problem.field)
                 for span in problem.spans)
    return Family(subs)


def _require_prescription(problem: Problem, path: str) -> list:
    if problem.prescription is None:
        raise ParseError(f"{path}: a prescription is required for this command")
    return list(problem.prescription)


# ---------------------------------------------------------------- output


def _fmt_vector(vec, field: str) -> str:
    """vec as JSON from one tolist(), complex entries as [re, im] pairs."""
    vec = np.asarray(vec)
    parts = np.column_stack((vec.real, vec.imag)) if field == COMPLEX else vec.real
    return json.dumps(parts.astype(np.float64, copy=False).tolist())


def _report_dict(report: IbapReport, unique: bool) -> dict:
    return {
        "verdict": report.verdict,
        "independent": report.independent,
        "unique": unique,
        "alpha": report.alpha,
        "sum_dims": report.sum_dims,
        "dim_sum": report.dim_sum,
        "sums_closed": True,
        "levels": [{**lev._asdict(), "gamma": None if math.isinf(lev.gamma) else lev.gamma}
                   for lev in report.levels],
    }


def _print_report(doc: dict, family: Family, names) -> None:
    """The check report: the family's shape, then _report_dict's content."""
    print(f"ambient dimension: {family.ambient_dim} ({family.field})")
    print("subspaces: " + ", ".join(f"{name} (dim {s.dim})"
                                    for name, s in zip(names, family.subspaces)))
    print(f"independent: {'yes' if doc['independent'] else 'no'}")
    print(f"inverse best approximation property: {'yes' if doc['verdict'] else 'no'}")
    for lev in doc["levels"]:
        gamma = "inf" if lev["gamma"] is None else f"{lev['gamma']:.12g}"
        flag = "  [degenerate]" if lev["degenerate"] else ""
        print(f"level {lev['index']}: norm = {lev['norm']:.12g}"
              f"  cos angle = {lev['cos_angle']:.12g}  gamma = {gamma}{flag}")
    print(f"rate bound alpha: {doc['alpha']:.12g}")
    print(f"sum of dims: {doc['sum_dims']}  dim of sum: {doc['dim_sum']}")
    print(f"trailing sums closed: {'yes' if doc['sums_closed'] else 'no'} (finite dimension)")
    print(f"unique solutions: {'yes' if doc['unique'] else 'no'}")


def _write_text(path: str, text: str, mode: str = "w") -> None:
    """Write text untranslated; an unwritable path is a ParseError naming it."""
    try:
        with open(path, mode, newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from None


#: a value in [1e-5, 1e-4) as orjson writes it, after its comma and sign
_FIFTH_DECADE = re.compile(rb"(,-?)0\.0000([1-9])(\d*)")


def _fifth_decade_repr(match) -> bytes:
    lead, head, tail = match.groups()
    return lead + head + (b"." + tail if tail else b"") + b"e-05"


def _repr_column(values) -> list:
    """list(map(repr, values)) for a sequence of floats or ints, from one orjson.dumps.

    orjson writes the shortest round-trip digits, as repr does, in another
    layout: exponents without "+" or zero padding, and values in
    [1e-5, 1e-4) positional; both are mended on the bytes.  A column with
    a non-finite value, which orjson writes as null, goes through repr.
    """
    if not values:
        return []
    data = orjson.dumps(values)
    if b"null" in data:
        return list(map(repr, values))
    # each value between commas; orjson writes exponents from -6 down
    data = b"," + data[1:-1].replace(b"e", b"e+").replace(b"e+-", b"e-") + b","
    for digit in b"6789":
        data = data.replace(b"e-%c," % digit, b"e-0%c," % digit)
    if b"0.0000" in data:
        data = _FIFTH_DECADE.sub(_fifth_decade_repr, data)
    return data[1:-1].decode().split(",")


def _write_trace_csv(path: str | None, trace) -> None:
    """With a path, write the trace as CSV (repr fields, CRLF line ends) and say so.

    The rows are zipped from the trace's columns and bounds, each formatted
    by one _repr_column; no IterationRecord is built.
    """
    if not path:
        return
    columns = [list(range(1, trace.sweeps + 1)), trace.residuals, trace.distances, trace.bounds]
    fields = [_repr_column(c) if c is not None else repeat("") for c in columns]
    rows = "\r\n".join(map(",".join, zip(*fields)))
    _write_text(path, f"iter,max_residual,dist_to_solution,bound\r\n{rows}\r\n")
    print(f"trace written to {path}")


def _iterate(args, family: Family, prescription, anchor, record_trace: bool):
    """best_approximation from the anchor, or from zero, under the command's options."""
    start = anchor if anchor is not None else np.zeros(family.ambient_dim, dtype=family.dtype)
    opts = SolveOptions(max_iter=args.max_iter, tol=args.tol, record_trace=record_trace)
    return best_approximation(start, family, prescription, opts)


# ---------------------------------------------------------------- commands


def cmd_check(args) -> int:
    problem = load_problem(args.problem)
    family = build_family(problem)
    report = verify_ibap(family)
    doc = _report_dict(report, uniqueness_check(family))
    _print_report(doc, family, problem.names)
    if args.json_out:
        _write_text(args.json_out, json.dumps(doc, indent=1) + "\n")
    return EXIT_OK if report.verdict else EXIT_NO_IBAP


def cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    family = build_family(problem)
    prescription = _require_prescription(problem, args.problem)
    anchor = problem.anchor
    if args.anchor is not None:
        anchor = _vector(_loads(args.anchor, "--anchor"), problem.ambient_dim, problem.field,
                         "--anchor")
    if args.method == "direct":
        x = direct_solve(family, prescription, anchor=anchor).particular
    elif args.method == "recursion":
        x = solve_min_norm(family, prescription, anchor=anchor)
    else:
        x, trace = _iterate(args, family, prescription, anchor, record_trace=False)
        if not trace.converged:
            print(f"warning: stopped after {trace.sweeps} sweeps above tolerance",
                  file=sys.stderr)
    print(f"method: {args.method}")
    if anchor is not None:
        print("best approximation to anchor")
    print(f"solution: {_fmt_vector(x, problem.field)}")
    print(f"norm: {float(np.linalg.norm(x))!r}")
    print(f"max residual: {prescription_residual(family, prescription, x):.6e}")
    return EXIT_OK


def cmd_iterate(args) -> int:
    problem = load_problem(args.problem)
    family = build_family(problem)
    prescription = _require_prescription(problem, args.problem)
    x, trace = _iterate(args, family, prescription, problem.anchor, bool(args.trace))
    _write_trace_csv(args.trace, trace)
    alpha = "none" if trace.alpha is None else f"{trace.alpha!r}"
    print(f"sweeps: {trace.sweeps}  converged: {'yes' if trace.converged else 'no'}")
    print(f"rate bound alpha: {alpha}")
    print(f"solution: {_fmt_vector(x, problem.field)}")
    print(f"max residual: {trace.residuals[-1]:.6e}")
    return EXIT_OK


def cmd_moments(args) -> int:
    path = args.problem
    doc = _load_json(path)
    field = _field_of(doc, path)
    n = _positive_int(doc, "ambient_dim", path)
    if doc.get("space") is None:
        space = Subspace.full(n, field=field)
    else:
        if not isinstance(doc["space"], list):
            raise ParseError(f"{path}: space must be a list of spanning vectors")
        rows = _vectors(doc["space"], n, field, lambda j: f"space vector {j}")
        space = Subspace.from_spanning(rows, n, field=field)
    vectors, values = _vector_value_entries(doc.get("constraints"), n, field, "constraint", path)
    x = solve_moments(space, vectors, values)
    print(f"solution: {_fmt_vector(x, field)}")
    print(f"norm: {float(np.linalg.norm(x))!r}")
    gap = float(np.linalg.norm(space.project(x) - x))
    print(f"space membership residual: {gap:.6e}")
    for i, (v, eta) in enumerate(zip(vectors, values)):
        err = abs(inner(x, v) - eta)
        print(f"moment {i + 1} residual: {err:.6e}")
    return EXIT_OK


def cmd_signal(args) -> int:
    path = args.problem
    doc = _load_json(path)
    n = _positive_int(doc, "n", path)
    for key in ("time_mask", "freq_mask", "time_values", "freq_values"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"{path}: {key} must be a list")
    tmask = doc["time_mask"]
    fmask = doc["freq_mask"]
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in tmask + fmask):
        raise ParseError(f"{path}: masks must contain integers")
    tvals = [_scalar(v, COMPLEX, f"time value {i + 1}") for i, v in enumerate(doc["time_values"])]
    fvals = [_scalar(v, COMPLEX, f"freq value {i + 1}") for i, v in enumerate(doc["freq_values"])]
    problem = MaskedSignalProblem(n=n, time_mask=tuple(tmask), freq_mask=tuple(fmask),
                                  time_values=np.asarray(tvals, dtype=np.complex128),
                                  freq_values=np.asarray(fvals, dtype=np.complex128))
    measurements, values = [], []
    if doc.get("measurements") is not None:
        measurements, values = _vector_value_entries(doc["measurements"], n, COMPLEX,
                                                     "measurement", path)
    x = recover_with_measurements(problem, measurements, values)
    spectrum = dft_rows(n, problem.freq_mask) @ x
    print(f"solution: {_fmt_vector(x, COMPLEX)}")
    terr = max((abs(x[i] - problem.time_values[k]) for k, i in enumerate(problem.time_mask)),
               default=0.0)
    ferr = max((abs(s - b) for s, b in zip(spectrum, problem.freq_values)), default=0.0)
    print(f"time residual: {terr:.6e}")
    print(f"frequency residual: {ferr:.6e}")
    for i, (m, eta) in enumerate(zip(measurements, values)):
        print(f"measurement {i + 1} residual: {abs(inner(x, m) - eta):.6e}")
    return EXIT_OK


def cmd_slowdemo(args) -> int:
    if args.alphas is not None:
        raw = _loads(args.alphas, "--alphas")
        if not isinstance(raw, list) or not raw:
            raise ParseError("--alphas must be a nonempty JSON list of positive numbers")
        spec = SlowFamilySpec(len(raw), tuple(_scalar(a, REAL, f"--alphas[{i}]")
                                              for i, a in enumerate(raw)))
        if args.truncation is not None and args.truncation != len(raw):
            raise ParseError("--truncation disagrees with the length of --alphas")
    else:
        if args.truncation is None:
            raise ParseError("either --alphas or --truncation is required")
        spec = SlowFamilySpec.harmonic(args.truncation)
    family, predicted = slow_family(spec)
    start = (worst_aligned_start(spec) if args.start is None
             else _vector(_loads(args.start, "--start"), family.ambient_dim, REAL, "--start"))
    # a family without the property is refused before the run, which
    # reuses the level chain that rate_bound builds
    alpha = rate_bound(family)
    zeros = np.zeros(family.ambient_dim)
    _, trace = _iterate(args, family, [zeros, zeros], start, bool(args.trace))
    print(f"predicted norm: {predicted!r}")
    print(f"rate bound alpha: {alpha!r}")
    print(f"per-sweep contraction (squared norm): {predicted * predicted!r}")
    print(f"sweeps: {trace.sweeps}  converged: {'yes' if trace.converged else 'no'}")
    _write_trace_csv(args.trace, trace)
    return EXIT_OK


# ---------------------------------------------------------------- driver

#: (error type, stderr prefix, exit code); the first matching entry applies
_FAILURES = (
    (ParseError, "parse error", EXIT_PARSE),
    (InfeasiblePrescriptionError, "infeasible", EXIT_INFEASIBLE),
    (DependentFamilyError, "dependent family", EXIT_NO_IBAP),
    (IbapFailureError, "property failure", EXIT_NO_IBAP),
    (HypothesisError, "hypothesis failure", EXIT_NO_IBAP),
    (ValueError, "invalid input", EXIT_PARSE),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ibap",
        description="Decide the inverse best approximation property and solve "
                    "prescribed-projection problems from JSON problem files.")
    sub = parser.add_subparsers(dest="command", required=True)
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("problem")
    iteration = argparse.ArgumentParser(add_help=False)
    iteration.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    iteration.add_argument("--tol", type=float, default=None)
    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument("--trace", default=None, help="write a CSV convergence trace")

    p = sub.add_parser("check", parents=[problem],
                       help="decide the property and print certificates")
    p.add_argument("--json-out", default=None, help="write a machine-readable report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", parents=[problem, iteration],
                       help="solve the prescription in the problem file")
    p.add_argument("--method", choices=["direct", "recursion", "iterate"], default="direct")
    p.add_argument("--anchor", default=None,
                   help="JSON vector; computes the best approximation to it")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("iterate", parents=[problem, iteration, tracing],
                       help="run the periodic projection iteration")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("moments", parents=[problem], help="constrained moment problem")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("signal", parents=[problem], help="masked time/frequency recovery")
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("slowdemo", parents=[iteration, tracing],
                       help="angle-degradation demonstration family")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--alphas", default=None, help="JSON list of positive weights")
    p.add_argument("--start", default=None, help="JSON start vector")
    p.set_defaults(func=cmd_slowdemo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "tol") and args.tol is None:
        try:
            args.tol = default_tol()
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    try:
        # open each output before the work, so that an unwritable path fails
        # fast; appending nothing leaves an existing file as it is
        for path in filter(None, (getattr(args, "trace", None), getattr(args, "json_out", None))):
            _write_text(path, "", mode="a")
        return args.func(args)
    except ValueError as exc:
        prefix, code = next((p, c) for kind, p, c in _FAILURES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        if isinstance(exc, InfeasiblePrescriptionError):
            print(f"certificate residual: {exc.certificate.residual:.6e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
