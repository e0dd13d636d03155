"""Solvers for prescribed-projection problems.

Three routes are provided and cross-checked by the test suite; each
factorizes a family once (see Family) and shifts toward an anchor along
the chain's orthonormal basis T of the sum of the members:

* a finite recursion that extends a trailing minimal-norm solution one
  level at a time, yielding the global minimal-norm solution; its level
  step, the two-subspace solve, is also the solver for two constraints;
* direct_solve: that recursion, cut on a dependent family at each level's
  rank, whose point stacked_lstsq judges level by level (the one refusal);
* the periodic projection iteration onto the affine constraint sets,
  with an a-priori linear rate bound from the level angles; each sweep
  is one small square map on the iterate's coordinates in the chain
  basis of the sum, the product of the members' affine steps there; the
  residuals and the trace are taken once per block of sweeps.

The resolvents (Id - P_U P_V)^(-1) of the two-subspace step are applied
in basis coordinates from the level's factored residual (subspaces._Level), never
as power series or linear solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .family import (
    Family,
    IbapFailureError,
    _counted,
    _stages,
    check_independence,
    stacked_lstsq,
    validate_prescription,
    verify_ibap,
)
from .subspaces import _EPS, Subspace, _binary_scale, _integer, _norm, as_field_vector

#: sweeps in the first block of best_approximation's residual and trace bookkeeping
_BLOCK = 32
#: most sweeps in any block; each block may be twice the one before
_MAX_BLOCK = 128
#: best_approximation scales the norms of its blocks where the largest entry
#: of start and reference lies outside [1 / _UNSCALED, _UNSCALED]
_UNSCALED = 2.0 ** 64
#: best_approximation's rounding floor, in units of eps * max(||start||, ||reference||)
_FLOOR = 16


@dataclass(frozen=True, eq=False)
class AffineConstraint:
    """The requirement that the best approximation from `subspace` be `point`.

    Equivalently, membership in the affine set point + complement; the
    point must belong to the subspace.
    """

    subspace: Subspace
    point: np.ndarray

    def __post_init__(self):
        u = self.subspace.member(self.point, what="constraint point").copy()
        u.setflags(write=False)
        object.__setattr__(self, "point", u)


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 10000
    tol: float = 1e-10
    record_trace: bool = False

    def __post_init__(self):
        if _integer(self.max_iter, "max_iter") < 1:
            raise ValueError("max_iter must be at least 1")
        # a bool is an int, and would run with tol 1
        if isinstance(self.tol, bool) or not isinstance(self.tol, (int, float, np.integer,
                                                                   np.floating)):
            raise ValueError("tol must be a real number")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        object.__setattr__(self, "tol", float(self.tol))


class ConvergenceTrace(NamedTuple):
    """A run of the iteration as per-sweep columns: each sweep's residual
    and, with record_trace, its distance to the solution (else None)."""

    residuals: tuple
    distances: tuple | None
    alpha: float | None
    initial_distance: float
    converged: bool

    @property
    def sweeps(self) -> int:
        return len(self.residuals)

    @property
    def bounds(self) -> list | None:
        """The bound alpha^n * d0 of each sweep n, or None without alpha."""
        if self.alpha is None:
            return None
        alpha, d0 = self.alpha, self.initial_distance
        return [alpha ** n * d0 for n in range(1, self.sweeps + 1)]


def affine_project(constraint: AffineConstraint, x) -> np.ndarray:
    """Projection onto the constraint's affine set: u + x - P x."""
    u = constraint.subspace
    x = as_field_vector(x, u.ambient_dim, u.dtype)
    return constraint.point + x - u.project(x)


def solve_two(c1: AffineConstraint, c2: AffineConstraint) -> np.ndarray:
    """Minimal-norm point satisfying two prescribed-projection constraints.

    One level step of the minimal-norm recursion, with c1 as the level
    and c2 as the trailing solution; an intersecting pair raises
    IbapFailureError, as the recursion does.
    """
    return extend_min_norm(c1.subspace, c2.subspace, c1.point, c2.point)


def extend_min_norm(level: Subspace, trailing: Subspace, u, v) -> np.ndarray:
    """One step of the minimal-norm recursion.

    Given the prescribed point u in `level` and a point v of `trailing`
    (the minimal-norm solution of the constraints after this level),
    returns the point of level + trailing projecting to u on `level` and
    to v on `trailing`: the recursion on the two-member family, whose
    chain is one factored residual of the pair (see family._level_step).
    """
    family = Family((level, trailing))
    pres = [level.member(u, what="level point"), trailing.member(v, what="trailing point")]
    _require_independence(family)
    return _stages(family, pres)[-1]


def _require_independence(family: Family) -> None:
    """The recursion's one gate: refuse a family without the IBAP."""
    if not check_independence(family):
        raise IbapFailureError(
            "family does not satisfy the inverse best approximation property",
            verify_ibap(family))


def min_norm_stages(family: Family, prescription) -> list:
    """Intermediate minimal-norm solutions of the trailing subsystems.

    Entry j solves the last j+1 constraints; the final entry is the
    minimal-norm solution of the whole prescription.  Requires the IBAP;
    each level step comes from the family's cached level chain.
    """
    _require_independence(family)
    return _stages(family, validate_prescription(family, prescription))


def solve_min_norm(family: Family, prescription, anchor=None) -> np.ndarray:
    """Minimal-norm solution of the prescribed-projection problem, or with
    an anchor the solution closest to it: direct_solve on a family that
    the recursion's gate has found independent."""
    _require_independence(family)
    return direct_solve(family, prescription, anchor)


def prescription_residual(family: Family, prescription, x) -> float:
    """max_i || P_i x - u_i ||, the observable constraint residual, of one
    vector u_i per subspace, none of them checked for membership."""
    x = as_field_vector(x, family.ambient_dim, family.dtype)
    pres = _counted(family, prescription)
    return max(_norm(s.project(x) - u) for s, u in zip(family.subspaces, pres))


def direct_solve(family: Family, prescription, anchor=None) -> np.ndarray:
    """The minimal-norm solution, or with an anchor the solution closest to it.

    An independent family attains every prescription, so its point is
    the recursion's, from the level chain alone.  A dependent family's
    point is stacked_lstsq's, which raises InfeasiblePrescriptionError
    with its certificate where a level refuses the prescription.  Either
    point moves toward the anchor along the chain basis of the sum.
    """
    return _direct(family, validate_prescription(family, prescription), anchor)


def _direct(family: Family, valid: list, anchor) -> np.ndarray:
    """direct_solve on a validated prescription: x, or with an anchor the
    point of x + span(T)^perp closest to it, T the chain basis of the sum."""
    x = _stages(family, valid)[-1] if check_independence(family) else stacked_lstsq(family, valid)
    if anchor is None:
        return x
    t = family._chain[1]
    d = as_field_vector(anchor, family.ambient_dim, family.dtype, what="anchor") - x
    return x + d - t @ (t.conj().T @ d)


def rate_bound(family: Family) -> float:
    """A-priori linear rate of the periodic projection iteration.

    Computed from the Friedrichs angle cosines of the levels of
    verify_ibap; the family must satisfy the IBAP.  The bound is below 1
    in exact arithmetic, but in double precision it rounds to 1.0 once
    the smallest level angle is below about 1e-8.
    """
    report = verify_ibap(family)
    if not report.verdict:
        raise IbapFailureError("rate bound presupposes the inverse best approximation property",
                               report)
    return report.alpha


def _sweep_map(t: np.ndarray, live: list, start: np.ndarray):
    """best_approximation's sweep in the coordinates y of x = start + T y,
    T = t: the (d+1)-square map m = A_1 ... A_m of [y; 1], the product of
    the members' homogeneous steps A_j (a sweep takes the last first), whose
    last row stays [0, ..., 0, 1] exactly; the coordinates whose product
    with [y; 1] holds each live member's residual Q_j^H (x - u_j); and where
    each member's entries start in that product's real view."""
    # T is orthonormal to rounding only, so y follows member j's step
    # x <- u_j + x - Q_j Q_j^H x through T^+ ~ (2I - T^H T) T^H: with
    # g = T^H [Q, u] = [G, ...] and kv = T^+ [Q, u] = [K, ...] it is
    # y <- y - K_j (G_j^H y + Q_j^H start) + T^+ u_j, and m <- m A_j;
    # [G^H, Q^H (start - u)] gives the residual coordinates of [y; 1]
    q = np.concatenate([qi for qi, _ in live], axis=1)
    k = q.shape[1]
    g = t.conj().T @ np.column_stack([q] + [u for _, u in live])
    kv = 2 * g - (t.conj().T @ t) @ g
    qs = q.conj().T @ start
    coords = np.vstack([g[:, :k].conj(), qs - np.concatenate([qi.conj().T @ u for qi, u in live])])
    offsets = np.cumsum([0] + [qi.shape[1] for qi, _ in live])
    # m^T <- A_j^T m^T, so that each product writes contiguous rows
    mt = np.eye(t.shape[1] + 1, dtype=start.dtype)
    for j, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        mk = kv[:, lo:hi].T @ mt[:-1]
        mt[-1] += kv[:, k + j] @ mt[:-1] - qs[lo:hi] @ mk
        mt[:-1] -= coords[:-1, lo:hi] @ mk
    # two float64 entries per complex one
    return np.ascontiguousarray(mt.T), coords, (2 if q.dtype.kind == "c" else 1) * offsets[:-1]


def _row_norms(v: np.ndarray, scale: float, starts=None) -> np.ndarray:
    """The norm of each row of the float64 array v, or with `starts` the
    largest norm of the row's segments that begin there, overwriting v.

    The squares are those of v / scale, for a power of two `scale`, and the
    norms are multiplied by it: bit for bit the unscaled norms wherever no
    square over- or underflows.
    """
    if scale != 1.0:
        v /= scale
    sq = np.square(v, out=v)
    # the segments are summed down the columns of the transposed view,
    # faster than along the rows and in the same order
    norms = np.sqrt(sq.sum(axis=1) if starts is None
                    else np.add.reduceat(sq.T, starts, axis=0).max(axis=0))
    if scale != 1.0:
        norms *= scale
    return norms


def best_approximation(start, family: Family, prescription,
                       options: SolveOptions | None = None):
    """Periodic projection iteration from `start` onto the solution set.

    Each validated prescription vector is projected onto its subspace
    once; the sweeps, the residuals and an independent family's reference
    solution use those projected vectors, and a dependent family's
    reference, which stacked_lstsq may refuse, the validated ones.  The
    reference is direct_solve's toward start; nothing is validated again.
    The sweeps move x = start + T y only inside the sum, whose orthonormal
    basis T the level chain holds, so each is one (d+1)-square map of
    [y; 1], d = dim_sum, built once per call: the affine projectors from
    the last constraint to the first, up to rounding.  The residual
    max_i ||Q_i^H x - Q_i^H u_i|| is taken in the same coordinates.  The
    run stops when it reaches options.tol, after options.max_iter sweeps,
    or after a block that lies within the rounding floor
    _FLOOR * eps * max(||start||, ||reference||) and ends no lower than it
    began: its sweeps have stopped falling.  The trace holds each sweep's
    residual, converged (whether tol was reached) and, only with
    options.record_trace, the distance ||y - c||, c = T^H (reference -
    start), to the true best approximation; with the IBAP, the bound values
    alpha^n * d0.  d0, and for a start or reference of extreme size the
    norms of each block, are taken of vectors scaled by a power of two, so
    that no square overflows.  Only the map runs per sweep, the rest once
    per block, bit for bit as one sweep at a time: the first block has
    _BLOCK sweeps, each later one up to twice the one before and at most
    _MAX_BLOCK, ending about where the previous block's mean residual
    ratio reaches tol.  Sweeps past the stopping one are dropped; the
    point is formed once, at the stop.  Returns (point, trace).
    """
    opts = options if options is not None else SolveOptions()
    subs = family.subspaces
    valid = validate_prescription(family, prescription)
    pres = [s.project(u) for s, u in zip(subs, valid)]
    start = as_field_vector(start, family.ambient_dim, family.dtype, what="start")
    report = verify_ibap(family)
    alpha = report.alpha if report.verdict else None
    reference = _direct(family, pres if report.verdict else valid, start)
    diff = start - reference
    d0 = _norm(diff)
    # zero-dimensional members are exact identities and drop out
    live = [(s.basis, u) for s, u in zip(subs, pres) if s.dim]
    if not live:
        return start, ConvergenceTrace(
            residuals=(0.0,), distances=(d0,) if opts.record_trace else None,
            alpha=alpha, initial_distance=d0, converged=True)
    # every iterate lies within d0 of the reference, so no entry of a
    # residual or distance exceeds a small multiple of those of start and
    # reference, up to rounding: norms taken at their power of two cannot
    # overflow
    scale = _binary_scale(np.concatenate([start, reference]))
    if 1.0 / _UNSCALED <= scale <= _UNSCALED:
        scale = 1.0
    floor = _FLOOR * _EPS * max(_norm(start), _norm(reference))
    t = family._chain[1]
    m, coords, starts = _sweep_map(t, live, start)
    # reference - start lies in the span of T, so ||y - c|| is the
    # distance ||start + T y - reference|| up to rounding
    c = t.conj().T @ -diff
    y = np.append(np.zeros(t.shape[1], dtype=start.dtype), 1.0)
    # each sweep of a block writes its [y; 1] into a row of one buffer
    # by ndarray.dot, the gemv of m @ y without the ufunc dispatch
    dot = m.dot
    buf = np.empty((min(_MAX_BLOCK, opts.max_iter), y.size), dtype=y.dtype)
    rows = list(buf)
    # and each sweep's residual coordinates into a row of another
    prods = np.empty((len(buf), 1, coords.shape[1]), dtype=y.dtype)
    residuals, dists = [], []
    size = _BLOCK
    while len(residuals) < opts.max_iter:
        ys = buf[:min(size, opts.max_iter - len(residuals))]
        for row in rows[:len(ys)]:
            y = dot(y, row)
        # a stack of one-vector products rounds each sweep as a lone product
        prod = np.matmul(ys[:, None], coords, out=prods[:len(ys)])
        res = _row_norms(prod[:, 0].view(np.float64), scale, starts)
        hit = np.flatnonzero(res <= opts.tol)
        take = int(hit[0]) + 1 if hit.size else len(ys)
        residuals += res[:take].tolist()
        if opts.record_trace:
            dists += _row_norms((ys[:take, :-1] - c).view(np.float64), scale).tolist()
        y = ys[take - 1]
        if hit.size or (res[-1] >= res[0] and res.max() <= floor):
            break
        # the next block may double, and ends near where this block's mean
        # ratio reaches tol
        size = min(2 * len(ys), _MAX_BLOCK)
        drop = (math.log(res[0]) - math.log(res[-1])) / max(len(res) - 1, 1)
        if drop > 0:
            size = min(size, math.ceil((math.log(res[-1]) - math.log(opts.tol)) / drop) + 1)
    return start + t @ y[:-1], ConvergenceTrace(
        residuals=tuple(residuals), distances=tuple(dists) if opts.record_trace else None,
        alpha=alpha, initial_distance=d0, converged=residuals[-1] <= opts.tol)
