"""Seeded problem generator and numpy reference for the benchmark workloads.

Each workload is a fixed list of CLI commands over problem files written
in the README schemas.  Everything is drawn from one numpy generator
seeded by the benchmark's --seed, so the same seed gives byte-identical
files.  The program only ever sees the files; the expected exit code and
the reference answer of every command are computed here with plain numpy
(QR, least squares and the FFT), never with the package under test.

Every workload runs every command kind, so each end-to-end metric exists
on every workload; the kinds a workload is about run at the stated sizes
and the others at small sizes that keep the pass short.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("dense-families", "applications")

#: command kinds, one end-to-end metric "<kind>_s" each; "reject" holds
#: every command whose expected exit code is 2 or 3
KINDS = ("check", "solve_recursion", "solve_direct", "solve_iterate", "iterate",
         "slowdemo", "signal", "moments", "reject")

EXIT_OK, EXIT_INFEASIBLE, EXIT_NO_IBAP = 0, 2, 3

#: iteration tolerance the CLI applies by default (README)
CLI_TOL = 1e-10
#: relative distance allowed between a printed solution and the reference;
#: iterative answers stop on the constraint residual, so their distance to
#: the solution set is larger by the conditioning of the family
DIRECT_RTOL = 1e-7
ITERATE_RTOL = 1e-5
#: absolute tolerance on printed level norms (12 significant digits)
NORM_ATOL = 1e-8


@dataclass(frozen=True)
class Command:
    """One CLI invocation with its expectation.

    verify(stdout) returns None when the output agrees with the numpy
    reference and a one-line reason otherwise.
    """

    kind: str
    argv: tuple
    expect_exit: int
    verify: Callable[[str], "str | None"]
    trace_path: "str | None" = None


# ---------------------------------------------------------------- encoding


def _enc_vec(vec, field):
    vec = np.asarray(vec)
    if field == "complex":
        return [[float(z.real), float(z.imag)] for z in vec]
    return [float(z) for z in vec.real]


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _rand(rng, shape, field):
    a = rng.standard_normal(shape)
    if field == "complex":
        a = a + 1j * rng.standard_normal(shape)
    return a


def _orth(mat):
    q, _ = np.linalg.qr(mat)
    return q


def _proj(q, x):
    return q @ (q.conj().T @ x)


# ---------------------------------------------------------------- output parsing


def _line(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _vector_from(stdout, prefix="solution:"):
    raw = _line(stdout, prefix)
    if raw is None:
        return None
    vals = json.loads(raw)
    if vals and isinstance(vals[0], list):
        return np.array([complex(re_, im) for re_, im in vals])
    return np.array(vals, dtype=float)


def _close(x, ref, rtol):
    if x is None:
        return "no solution printed"
    if x.shape != ref.shape:
        return f"solution has {x.shape[0]} entries, expected {ref.shape[0]}"
    err = float(np.linalg.norm(x - ref)) / max(1.0, float(np.linalg.norm(ref)))
    return None if err <= rtol else f"solution off the reference by {err:.3e}"


def _solution_check(ref, rtol):
    return lambda out: _close(_vector_from(out), ref, rtol)


def _iterate_check(ref, prints_sweeps):
    """An iteration's answer: converged (when the command says), final
    residual at most the CLI tolerance, point near the reference."""
    def verify(out):
        m = re.search(r"sweeps: (\d+)\s+converged: (\w+)", out)
        if prints_sweeps and (not m or m.group(2) != "yes"):
            return "iteration did not converge"
        res = _line(out, "max residual:")
        if res is None or not float(res) <= CLI_TOL:
            return f"final residual {res} above {CLI_TOL}"
        return _close(_vector_from(out), ref, ITERATE_RTOL)
    return verify


def _check_check(norms, dims, unique):
    """check on an independent family: verdict yes, dim of sum == sum of
    dims, level norms as the reference, alpha in [0, 1)."""
    def verify(out):
        if _line(out, "inverse best approximation property:") != "yes":
            return "wrong verdict"
        if _line(out, "unique solutions:") != ("yes" if unique else "no"):
            return "wrong uniqueness flag"
        m = re.search(r"sum of dims: (\d+)\s+dim of sum: (\d+)", out)
        if not m or (int(m.group(1)), int(m.group(2))) != (dims, dims):
            return "wrong dimension count"
        got = [float(v) for v in re.findall(r"^level \d+: norm = (\S+)", out, re.M)]
        if len(got) != len(norms):
            return f"{len(got)} levels printed, expected {len(norms)}"
        worst = max((abs(a - b) for a, b in zip(got, norms)), default=0.0)
        if worst > NORM_ATOL:
            return f"level norm off the reference by {worst:.3e}"
        alpha = float(_line(out, "rate bound alpha:"))
        if not 0.0 <= alpha < 1.0:
            return f"rate bound {alpha} outside [0, 1)"
        return None
    return verify


def _verdict_only(expect_verdict):
    yes = "yes" if expect_verdict else "no"
    return lambda out: (None if _line(out, "inverse best approximation property:") == yes
                        else "wrong verdict")


def _no_check(out):
    return None


# ---------------------------------------------------------------- families


@dataclass
class _FamilyProblem:
    path: str
    n: int
    spans: list        # one n-by-k spanning matrix per subspace
    x_true: np.ndarray
    anchor: "np.ndarray | None"
    feasible: bool


def _write_family(path, field, spans, prescription, anchor):
    doc = {
        "field": field,
        "ambient_dim": spans[0].shape[0],
        "subspaces": [{"name": f"U{i + 1}", "vectors": [_enc_vec(c, field) for c in s.T]}
                      for i, s in enumerate(spans)],
        "prescription": [_enc_vec(u, field) for u in prescription],
    }
    if anchor is not None:
        doc["anchor"] = _enc_vec(anchor, field)
    return _write(path, doc)


def _feasible_family(rng, path, spans, field, with_anchor):
    n = spans[0].shape[0]
    x_true = _rand(rng, n, field)
    prescription = [_proj(_orth(s), x_true) for s in spans]
    anchor = _rand(rng, n, field) if with_anchor else None
    _write_family(path, field, spans, prescription, anchor)
    return _FamilyProblem(path, n, spans, x_true, anchor, True)


def _haar(rng, n, field):
    q, r = np.linalg.qr(_rand(rng, (n, n), field))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _generic_spans(rng, n, m, k, field):
    """Spanning sets of m generic k-dimensional subspaces.

    The subspaces are a fixed generic family per shape, turned by a seeded
    Haar-random unitary and spanned by seeded random combinations of its
    basis: the seed changes every number in the file but no angle, so the
    factorization work and the sweeps to converge are the same on every
    seed and runs with different seeds measure the same work.
    """
    fixed = np.random.default_rng([n, m, k, int(field == "complex")])
    q = _haar(rng, n, field)
    return [q @ _rand(fixed, (n, k), field) @ _rand(rng, (k, k), field) for _ in range(m)]


def _random_family(rng, path, n, m, k, field, with_anchor):
    return _feasible_family(rng, path, _generic_spans(rng, n, m, k, field), field, with_anchor)


def _dependent_family(rng, path, spans, field):
    """Plant a + b (a in U1, b in U2) in the last subspace; the zero-sum
    prescription (a, b, 0, ..., -(a + b)) is then infeasible."""
    a = spans[0] @ _rand(rng, spans[0].shape[1], field)
    b = spans[1] @ _rand(rng, spans[1].shape[1], field)
    spans = list(spans)
    spans[-1] = np.column_stack([a + b, spans[-1]])
    zero = np.zeros(spans[0].shape[0], dtype=a.dtype)
    prescription = [a, b] + [zero] * (len(spans) - 3) + [-(a + b)]
    _write_family(path, field, spans, prescription, None)
    return _FamilyProblem(path, spans[0].shape[0], spans, zero, None, False)


def _family_solution(p: _FamilyProblem, start):
    """Closest point of the solution set x_true + (sum of U_i)^perp to start."""
    q = _orth(np.hstack(p.spans))
    base = _proj(q, p.x_true)
    if start is None:
        return base
    return base + start - _proj(q, start)


def _level_norms(spans):
    norms = []
    for i in range(len(spans) - 1):
        qi = _orth(spans[i])
        qt = _orth(np.hstack(spans[i + 1:]))
        norms.append(min(1.0, float(np.linalg.norm(qi.conj().T @ qt, 2))))
    return norms


def _family_commands(p: _FamilyProblem, kinds, workdir):
    """Commands over one family problem file, in the order of `kinds`."""
    cmds = []
    if not p.feasible:
        stacked = np.hstack(p.spans)
        verify = _verdict_only(False)
        for kind, argv, code in (
                ("check", ("check", p.path), EXIT_NO_IBAP),
                ("solve_recursion", ("solve", p.path, "--method", "recursion"), EXIT_NO_IBAP),
                ("solve_direct", ("solve", p.path, "--method", "direct"), EXIT_INFEASIBLE),
                ("iterate", ("iterate", p.path), EXIT_INFEASIBLE)):
            if kind in kinds:
                cmds.append(Command("reject", argv, code,
                                    verify if kind == "check" else _no_check))
        assert np.linalg.matrix_rank(stacked) < stacked.shape[1]
        return cmds
    # solve and iterate both start from the anchor, or from 0 without one
    ref = _family_solution(p, p.anchor)
    sum_dims = sum(s.shape[1] for s in p.spans)
    for kind in kinds:
        if kind == "check":
            cmds.append(Command(kind, ("check", p.path), EXIT_OK,
                                _check_check(_level_norms(p.spans), sum_dims, sum_dims == p.n)))
        elif kind == "solve_recursion":
            cmds.append(Command(kind, ("solve", p.path, "--method", "recursion"), EXIT_OK,
                                _solution_check(ref, DIRECT_RTOL)))
        elif kind == "solve_direct":
            cmds.append(Command(kind, ("solve", p.path, "--method", "direct"), EXIT_OK,
                                _solution_check(ref, DIRECT_RTOL)))
        elif kind == "solve_iterate":
            cmds.append(Command(kind, ("solve", p.path, "--method", "iterate"),
                                EXIT_OK, _iterate_check(ref, False)))
        elif kind == "iterate":
            trace = os.path.join(workdir, os.path.basename(p.path) + ".csv")
            cmds.append(Command(kind, ("iterate", p.path, "--trace", trace),
                                EXIT_OK, _iterate_check(ref, True), trace))
    return cmds


# ---------------------------------------------------------------- slowdemo


def _slowdemo_command(truncation):
    """slowdemo from its default worst-aligned start, which fixes its sweeps."""
    predicted = 1.0 / math.sqrt(1.0 + 1.0 / truncation ** 2)
    argv = ("slowdemo", "--truncation", str(truncation))

    def verify(out):
        m = re.search(r"sweeps: (\d+)\s+converged: (\w+)", out)
        if not m or m.group(2) != "yes":
            return "slowdemo did not converge"
        got = float(_line(out, "predicted norm:"))
        alpha = float(_line(out, "rate bound alpha:"))
        # for two subspaces meeting trivially the rate bound is the
        # Friedrichs cosine, which is the largest per-block cosine
        if abs(got - predicted) > 1e-12 or abs(alpha - predicted) > NORM_ATOL:
            return f"predicted norm {got} / alpha {alpha}, expected {predicted}"
        return None
    return Command("slowdemo", argv, EXIT_OK, verify)


# ---------------------------------------------------------------- applications


def _signal_command(rng, workdir, tag, n, n_time, n_freq, n_meas, support=3):
    idx = rng.permutation(n)
    tmask = sorted(int(i) for i in idx[:n_time])
    rest = [int(i) for i in idx[n_time:]]
    fmask = sorted(int(i) for i in rng.permutation(n)[:n_freq])
    meas = []
    for j in range(n_meas):
        vec = np.zeros(n)
        vec[rest[j * support:(j + 1) * support]] = rng.standard_normal(support)
        meas.append(vec)
    x_true = _rand(rng, n, "complex")
    spectrum = np.fft.fft(x_true, norm="ortho")
    doc = {
        "n": n,
        "time_mask": tmask,
        "freq_mask": fmask,
        "time_values": _enc_vec(x_true[tmask], "complex"),
        "freq_values": _enc_vec(spectrum[fmask], "complex"),
        "measurements": [{"vector": _enc_vec(m, "real"),
                          "value": _enc_vec([np.vdot(m, x_true)], "complex")[0]}
                         for m in meas],
    }
    path = _write(os.path.join(workdir, f"{tag}.json"), doc)
    k = np.arange(n)
    rows = np.vstack([np.eye(n)[tmask], np.exp(-2j * np.pi * np.outer(fmask, k) / n)
                      / math.sqrt(n)] + [m[None, :].astype(complex) for m in meas])
    rhs = rows @ x_true
    ref = np.linalg.lstsq(rows, rhs, rcond=None)[0]
    return Command("signal", ("signal", path), EXIT_OK, _solution_check(ref, DIRECT_RTOL))


def _signal_reject_command(rng, workdir, tag, n, comb):
    """Masks that both contain the comb of spacing n / comb: the comb is
    its own transform, so the two support subspaces meet (exit 3)."""
    step = n // comb
    teeth = set(range(0, n, step))
    extra = [int(i) for i in rng.permutation(n) if int(i) not in teeth]
    tmask = sorted(teeth | set(extra[:comb]))
    fmask = sorted(teeth | set(extra[comb:2 * comb]))
    doc = {
        "n": n,
        "time_mask": tmask,
        "freq_mask": fmask,
        "time_values": _enc_vec(_rand(rng, len(tmask), "complex"), "complex"),
        "freq_values": _enc_vec(_rand(rng, len(fmask), "complex"), "complex"),
    }
    path = _write(os.path.join(workdir, f"{tag}.json"), doc)
    return Command("reject", ("signal", path), EXIT_NO_IBAP, _no_check)


def _moments_command(rng, workdir, tag, n, dim, n_constraints, reject=False):
    space = rng.standard_normal((n, dim))
    vecs = rng.standard_normal((n, n_constraints))
    q = _orth(space)
    if reject:
        # one moment vector orthogonal to the space: its constraint
        # cannot be met inside the space (exit 3)
        vecs[:, 0] -= _proj(q, vecs[:, 0])
    x_true = q @ rng.standard_normal(dim)
    values = vecs.T @ x_true
    doc = {
        "field": "real",
        "ambient_dim": n,
        "space": [_enc_vec(c, "real") for c in space.T],
        "constraints": [{"vector": _enc_vec(v, "real"), "value": float(eta)}
                        for v, eta in zip(vecs.T, values)],
    }
    path = _write(os.path.join(workdir, f"{tag}.json"), doc)
    if reject:
        return Command("reject", ("moments", path), EXIT_NO_IBAP, _no_check)
    coeff = np.linalg.lstsq(vecs.T @ q, values, rcond=None)[0]
    return Command("moments", ("moments", path), EXIT_OK,
                   _solution_check(q @ coeff, DIRECT_RTOL))


# ---------------------------------------------------------------- workloads

ALL_FAMILY_KINDS = ("check", "solve_recursion", "solve_direct", "iterate")

#: sizes per scale; "full" is what the timed runs use, "smoke" the tiny
#: variant used for warm-up and for the determinism test
SIZES = {
    "full": {
        # (n, m, k, field, anchor)
        "dense": [(120, 8, 12, "real", False), (100, 4, 12, "complex", True),
                  (72, 12, 4, "real", True)],
        "dense_dependent": (100, 5, 8),
        "small_family": (150, 4, 25),
        "slowdemo": 16,
        "signal": (112, 20, 20, 4),
        "signal_small": (96, 18, 18, 2),
        "signal_comb": (256, 16),
        "moments": (110, 80, 22),
        "moments_small": (80, 60, 16),
    },
    "smoke": {
        "dense": [(30, 3, 5, "real", False), (20, 2, 4, "complex", True),
                  (24, 6, 2, "real", True)],
        "dense_dependent": (20, 4, 2),
        "small_family": (16, 3, 3),
        "slowdemo": 6,
        "signal": (32, 6, 6, 2),
        "signal_small": (16, 3, 3, 1),
        "signal_comb": (64, 8),
        "moments": (20, 14, 4),
        "moments_small": (12, 8, 3),
    },
}

def build(workload: str, seed: int, workdir: str, scale: str = "full") -> list:
    """Write the workload's problem files into workdir and return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    sz = SIZES[scale]
    # the workload name enters the stream so workloads differ at equal seeds
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(workdir, exist_ok=True)
    f = lambda name: os.path.join(workdir, name)  # noqa: E731
    cmds = []
    if workload == "dense-families":
        for i, (n, m, k, field, anchor) in enumerate(sz["dense"]):
            p = _random_family(rng, f(f"dense{i}.json"), n, m, k, field, anchor)
            kinds = ALL_FAMILY_KINDS + (("solve_iterate",) if field == "complex" else ())
            cmds += _family_commands(p, kinds, workdir)
        n, m, k = sz["dense_dependent"]
        dep = _dependent_family(rng, f("dependent.json"), _generic_spans(rng, n, m, k, "real"),
                                "real")
        cmds += _family_commands(dep, ALL_FAMILY_KINDS, workdir)
        cmds.append(_slowdemo_command(sz["slowdemo"]))
        cmds.append(_signal_command(rng, workdir, "signal", *sz["signal_small"]))
        cmds.append(_moments_command(rng, workdir, "moments", *sz["moments_small"]))
    else:
        cmds.append(_signal_command(rng, workdir, "signal", *sz["signal"]))
        cmds.append(_moments_command(rng, workdir, "moments", *sz["moments"]))
        cmds.append(_signal_reject_command(rng, workdir, "signal_reject", *sz["signal_comb"]))
        cmds.append(_moments_command(rng, workdir, "moments_reject", *sz["moments"],
                                     reject=True))
        n, m, k = sz["small_family"]
        p = _random_family(rng, f("family.json"), n, m, k, "real", True)
        cmds += _family_commands(p, ALL_FAMILY_KINDS + ("solve_iterate",), workdir)
        n, m, k = sz["dense_dependent"]
        dep = _dependent_family(rng, f("dependent.json"), _generic_spans(rng, n, m, k, "real"),
                                "real")
        cmds += _family_commands(dep, ALL_FAMILY_KINDS, workdir)
        cmds.append(_slowdemo_command(sz["slowdemo"]))
    missing = set(KINDS) - {c.kind for c in cmds}
    assert not missing, f"{workload} lacks command kinds {sorted(missing)}"
    return cmds
