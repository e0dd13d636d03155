"""Solvers for prescribed-projection problems.

Three routes are provided and cross-checked by the test suite; each
factorizes a family once (see Family) and shifts toward an anchor along
its own orthonormal basis of the sum of the members:

* a finite recursion that extends a trailing minimal-norm solution one
  level at a time, yielding the global minimal-norm solution; its level
  step, the two-subspace solve, is also the solver for two constraints;
* a direct stacked least-squares solver, the only one that takes the
  stacked SVD, which produces the full solution set (particular point
  plus parallel subspace);
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
    InfeasiblePrescriptionError,
    _counted,
    check_independence,
    stacked_lstsq,
    validate_prescription,
    verify_ibap,
)
from .subspaces import Subspace, _binary_scale, _Level, _norm, as_field_vector

#: sweeps in the first block of best_approximation's residual and trace bookkeeping
_BLOCK = 32
#: most sweeps in any block; each block may be twice the one before
_MAX_BLOCK = 128
#: best_approximation scales the norms of its blocks where the largest entry
#: of start and reference lies outside [1 / _UNSCALED, _UNSCALED]
_UNSCALED = 2.0 ** 64


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
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


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


class SolutionSet(NamedTuple):
    """The affine solution set: a particular solution plus the parallel
    subspace (the intersection of all constraint complements)."""

    particular: np.ndarray
    parallel: Subspace


def affine_project(constraint: AffineConstraint, x) -> np.ndarray:
    """Projection onto the constraint's affine set: u + x - P x."""
    u = constraint.subspace
    x = as_field_vector(x, u.ambient_dim, u.dtype)
    return constraint.point + x - u.project(x)


def _level_step(level: _Level, basis: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The point of U + T projecting to u on U and to v on T.

    level factors U (orthonormal basis `basis`) against T, with
    C = T^H B and R = B - T C = W S V^H.  Since R^H R = I - C^H C, the
    resolvents in basis coordinates are (I - C^H C)^(-1) = M = V S^-2 V^H
    and (I - C C^H)^(-1) C = C M; together they give
    x = v + R M B^H (u - v) = v + W S^-1 V^H B^H (u - v).  W holds no
    component in T (see subspaces._factor_level), so dividing by the sines
    keeps the step backward stable down to the rank cutoff, above which
    min_norm_stages' independence check keeps every sine.
    """
    return v + level.w @ ((level.vh @ (basis.conj().T @ (u - v))) / level.sines)


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
    chain is one factored residual of the pair (see _level_step).
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


def _stages(family: Family, pres: list) -> list:
    """min_norm_stages on a validated prescription of an independent family."""
    stages = [pres[-1]]
    for s, level, u in reversed(list(zip(family.subspaces, family._chain[0], pres))):
        stages.append(_level_step(level, s.basis, u, stages[-1]))
    return stages


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
    an anchor the solution closest to it, as in direct_solve."""
    x = min_norm_stages(family, prescription)[-1]
    return _toward_anchor(family._chain[1], x, anchor)


def prescription_residual(family: Family, prescription, x) -> float:
    """max_i || P_i x - u_i ||, the observable constraint residual, of one
    vector u_i per subspace, none of them checked for membership."""
    x = as_field_vector(x, family.ambient_dim, family.dtype)
    pres = _counted(family, prescription)
    return max(_norm(s.project(x) - u) for s, u in zip(family.subspaces, pres))


def direct_solve(family: Family, prescription, anchor=None) -> SolutionSet:
    """Stacked least-squares reference solver.

    Solves all constraints at once by minimal-norm least squares on the
    stacked SVD cut at dim_sum; with an anchor, shifts the particular
    solution to the closest point of the solution set.  Raises with an
    infeasibility certificate where family._checked_lstsq finds the
    stacked coordinates b infeasible.
    """
    x = _stacked_point(family, validate_prescription(family, prescription))
    u, _, _, rank = family._stacked
    return SolutionSet(particular=_toward_anchor(u[:, :rank], x, anchor),
                       parallel=Subspace(u[:, rank:]))


def _stacked_point(family: Family, pres: list) -> np.ndarray:
    """direct_solve's minimal-norm particular solution of a validated prescription."""
    x, certificate = stacked_lstsq(family, pres)
    if certificate is not None:
        raise InfeasiblePrescriptionError(
            f"prescription is infeasible (stacked residual {certificate.residual:.3e})",
            certificate)
    return x


def _toward_anchor(basis: np.ndarray, x, anchor) -> np.ndarray:
    """x, or with an anchor the point of x + span(basis)^perp closest to it."""
    if anchor is None:
        return x
    d = as_field_vector(anchor, basis.shape[0], basis.dtype, what="anchor") - x
    return x + d - basis @ (basis.conj().T @ d)


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
    norms = np.sqrt(sq.sum(axis=1) if starts is None
                    else np.add.reduceat(sq, starts, axis=1).max(axis=1))
    if scale != 1.0:
        norms *= scale
    return norms


def best_approximation(start, family: Family, prescription,
                       options: SolveOptions | None = None):
    """Periodic projection iteration from `start` onto the solution set.

    Each validated prescription vector is projected onto its subspace
    once, so that it lies in the subspace to rounding; the reference
    solution (solve_min_norm's toward start, or for a dependent family,
    whose feasibility the level chain cannot decide, direct_solve's, both
    without validating again), d0, the sweeps and the residuals all use
    those projected vectors.  The sweeps move x = start + T y only inside
    the sum of the members, whose orthonormal basis T the level chain
    holds, so each is one (d+1)-square map of [y; 1], d = dim_sum, built
    once per call; its iterates are those of the affine projectors applied
    from the last constraint to the first, up to rounding, and the
    residual max_i ||Q_i^H x - Q_i^H u_i|| is taken in the same
    coordinates.  Stops when it drops to options.tol or after
    options.max_iter sweeps; both outcomes are recorded in the returned
    trace, which holds each sweep's residual and, only with
    options.record_trace, its distance to the true best approximation,
    ||y - c|| with c = T^H (reference - start), and with the IBAP the
    bound values alpha^n * d0.  d0, and for a start or reference of
    extreme size the norms of each block, are taken of vectors scaled by a
    power of two, so that no square overflows.  Only the map runs per
    sweep, the rest once per block, bit for bit as one sweep at a time:
    the first block has _BLOCK sweeps, each later one up to twice the one
    before and at most _MAX_BLOCK, ending about where the previous block's
    mean residual ratio reaches tol.  Sweeps past the stopping one are dropped;
    the point is formed once, at the stop.  Returns (point, trace).
    """
    opts = options if options is not None else SolveOptions()
    subs = family.subspaces
    pres = [s.project(u) for s, u in zip(subs, validate_prescription(family, prescription))]
    start = as_field_vector(start, family.ambient_dim, family.dtype, what="start")
    report = verify_ibap(family)
    alpha = report.alpha if report.verdict else None
    if report.verdict:
        reference = _toward_anchor(family._chain[1], _stages(family, pres)[-1], start)
    else:
        u, _, _, rank = family._stacked
        reference = _toward_anchor(u[:, :rank], _stacked_point(family, pres), start)
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
    residuals, dists = [], []
    size = _BLOCK
    while len(residuals) < opts.max_iter:
        ys = buf[:min(size, opts.max_iter - len(residuals))]
        for row in rows[:len(ys)]:
            y = dot(y, row)
        # a stack of one-vector products rounds each sweep as a lone product
        res = _row_norms(np.matmul(ys[:, None], coords)[:, 0].view(np.float64), scale, starts)
        hit = np.flatnonzero(res <= opts.tol)
        take = int(hit[0]) + 1 if hit.size else len(ys)
        residuals += res[:take].tolist()
        if opts.record_trace:
            dists += _row_norms((ys[:take, :-1] - c).view(np.float64), scale).tolist()
        y = ys[take - 1]
        if hit.size:
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
