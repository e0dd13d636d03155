"""Independent reference computations used to verify the library.

Each oracle takes a different route than the implementation it checks:
Gram eigenvalues instead of basis SVDs, dense projector matrices instead
of cross-Gram factors, truncated power series instead of direct solves,
sampling instead of spectral maximization, real-stacked least squares
instead of complex solves, complement chains of dense projectors, each
intersection the null space of stacked complement constraints, instead
of level cosines and the level's intersection,
pseudoinverse projectors of the later members instead of the level
chain's trailing sums, one public affine_project call per constraint
and one prescription_residual per sweep instead of the sweep as one
small map on the coordinates of the iterate in the chain basis of the
sum with the residual in those coordinates, the one-map loop with its
bookkeeping after every sweep instead of once per block of sweeps, and
the spectral radius of the dense product of complement projectors
instead of the level angles, and numpy's SVD of the stacked rows cut at
dim_sum (svd_min_norm) instead of the recursion that direct_solve takes
on an independent family.  Two oracles take the implementation's
route: reference_level, the level factorization through numpy's Python
wrappers (np.linalg.norm, np.clip, np.sum), which its C entry points
must match bit for bit, and one_map_iteration, which runs
solvers._sweep_map's own map, so that it checks the blocking alone.  It
also holds helpers that only tests use, such as save_problem, the
writer of problem files, and parallel_subspace, the intersection of the
complements from the public API.
"""

import json
import math

import numpy as np

from ibap import (
    COMPLEX,
    REAL,
    AffineConstraint,
    ConvergenceTrace,
    SolveOptions,
    Subspace,
    add,
    affine_project,
    as_field_vector,
    best_approximation,
    direct_solve,
    field_dtype,
    prescription_residual,
    slow_family,
    validate_prescription,
    verify_ibap,
)
from ibap.solvers import _sweep_map


def gram_rank(vectors, tol=1e-10):
    """Numerical rank via eigenvalues of the Gram matrix."""
    vs = [np.asarray(v) for v in vectors]
    if not vs:
        return 0
    g = np.array([[np.vdot(b, a) for b in vs] for a in vs])
    eig = np.linalg.eigvalsh(g)
    top = eig[-1] if eig.size else 0.0
    if top <= 0:
        return 0
    return int(np.sum(eig > tol * top))


def zero_subspace(ambient_dim, field=REAL):
    return Subspace(np.zeros((ambient_dim, 0), dtype=field_dtype(field)))


def is_zero(subspace):
    return subspace.dim == 0


def constraint_from_affine_set(point, parallel):
    """AffineConstraint for the affine set point + parallel: membership in
    it is projecting, on the complement of the parallel subspace, to the
    point's own projection there."""
    sub = parallel.complement()
    return AffineConstraint(sub, sub.project(point))


def dense_projector(subspace):
    b = subspace.basis
    return b @ b.conj().T


def dense_product_norm(u, v):
    """Spectral norm of the dense projector product."""
    return float(np.linalg.norm(dense_projector(u) @ dense_projector(v), 2))


def mutual_projection_gap(u, v):
    """sup over unit x in one subspace of the distance to the other,
    maximized over both directions; 0 iff equal spans."""
    n = u.basis.shape[0]
    eye = np.eye(n, dtype=u.basis.dtype)
    a = float(np.linalg.norm((eye - dense_projector(v)) @ u.basis, 2)) if u.dim else 0.0
    b = float(np.linalg.norm((eye - dense_projector(u)) @ v.basis, 2)) if v.dim else 0.0
    return max(a, b)


def sampled_sup_inner(rng, u, v, samples=4000):
    """Monte Carlo lower estimate of sup |<x, y>| over unit x in u, y in v."""
    if u.dim == 0 or v.dim == 0:
        return 0.0
    best = 0.0
    for _ in range(samples):
        a = rng.standard_normal(u.dim)
        b = rng.standard_normal(v.dim)
        if np.iscomplexobj(u.basis):
            a = a + 1j * rng.standard_normal(u.dim)
            b = b + 1j * rng.standard_normal(v.dim)
        x = u.basis @ (a / np.linalg.norm(a))
        y = v.basis @ (b / np.linalg.norm(b))
        best = max(best, abs(np.vdot(y, x)))
    return best


def neumann_inverse(u, v, w, term_tol=1e-14, max_terms=100000):
    """(Id - P_u P_v)^(-1) w as the truncated power series sum_j (P_u P_v)^j w."""
    pu = dense_projector(u)
    pv = dense_projector(v)
    acc = np.array(w, dtype=pu.dtype)
    term = acc.copy()
    for _ in range(max_terms):
        term = pu @ (pv @ term)
        acc = acc + term
        if np.linalg.norm(term) < term_tol:
            return acc
    raise RuntimeError("power series did not reach the term tolerance")


def trailing_sum_projectors(family, rcond=1e-10):
    """For each level i < m, the dense projector A A^+ onto the sum of the
    members after it, with A their stacked bases and A^+ its pseudoinverse."""
    subs = family.subspaces
    out = []
    for i in range(len(subs) - 1):
        a = np.hstack([s.basis for s in subs[i + 1:]])
        out.append(a @ np.linalg.pinv(a, rcond=rcond))
    return out


def stacked_rows(family, prescription):
    rows = [s.basis.conj().T for s in family.subspaces]
    rhs = [s.basis.conj().T @ np.asarray(u, dtype=family.dtype)
           for s, u in zip(family.subspaces, prescription)]
    a = np.vstack(rows)
    b = np.concatenate(rhs) if rhs else np.zeros(0, dtype=family.dtype)
    return a, b


def pinv_min_norm(family, prescription):
    """Minimal-norm solution by explicit pseudoinverse of the stacked system."""
    a, b = stacked_rows(family, prescription)
    if a.shape[0] == 0:
        return np.zeros(family.ambient_dim, dtype=family.dtype)
    return np.linalg.pinv(a) @ b


def svd_min_norm(family, prescription, anchor=None):
    """Minimal-norm least-squares solution of the stacked system from
    numpy's SVD of its rows, cut at family.dim_sum, or with an anchor the
    solution closest to it, moved along the kept right singular vectors."""
    a, b = stacked_rows(family, prescription)
    r = family.dim_sum
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh[:r].conj().T
    x = v @ ((u[:, :r].conj().T @ b) / s[:r])
    if anchor is None:
        return x
    d = np.asarray(anchor, dtype=family.dtype) - x
    return x + d - v @ (v.conj().T @ d)


def parallel_subspace(family):
    """The intersection of the members' complements, from the public API:
    the complement of U_1 + ... + U_m, the sum built by add from the last
    member up, so that its dimension is ambient_dim - dim_sum."""
    total = family.subspaces[-1]
    for s in reversed(family.subspaces[:-1]):
        total = add(s, total)
    return total.complement()


def stacked_residual(family, prescription, x=None):
    a, b = stacked_rows(family, prescription)
    if a.shape[0] == 0:
        return 0.0
    if x is None:
        x = np.linalg.pinv(a) @ b
    return float(np.linalg.norm(a @ x - b))


def min_norm_complex_via_real(a, b):
    """Minimal-norm solution of a complex system through a real-stacked
    least-squares problem on the split real and imaginary parts."""
    ar, ai = a.real, a.imag
    br, bi = b.real, b.imag
    big = np.block([[ar, -ai], [ai, ar]])
    rhs = np.concatenate([br, bi])
    sol, _, _, _ = np.linalg.lstsq(big, rhs, rcond=None)
    n = a.shape[1]
    return sol[:n] + 1j * sol[n:]


def constrained_min_norm_in_space(space_basis, constraint_vectors, values):
    """Minimize the norm of x = space_basis @ c subject to <x, v_i> = values[i].

    Because the basis is orthonormal, the coefficient norm equals the
    vector norm, so the minimal-norm coefficients come from one
    pseudoinverse solve in coordinates.
    """
    rows = np.array([np.conj(v) @ space_basis for v in constraint_vectors])
    vals = np.asarray(values, dtype=rows.dtype)
    coeff = np.linalg.pinv(rows) @ vals
    return space_basis @ coeff


def meet_projector(p, q, tol=1e-10):
    """Projector onto the intersection of the ranges of the orthogonal
    projectors p and q: N N^H with N the null space of the stacked
    complement constraints [I - p; I - q], from one SVD of that stack whose
    singular values at most tol count as zero.  A principal angle t between
    the ranges gives the singular value sqrt(2) sin(t / 2), and the null
    directions singular values of the order of eps."""
    eye = np.eye(p.shape[0])
    _, s, vh = np.linalg.svd(np.vstack([eye - p, eye - q]))
    null = vh[np.count_nonzero(s > tol):].conj().T
    return null @ null.conj().T


def dense_friedrichs(p, q):
    """c(U, V) = ||P_U P_V - P_(U meet V)|| from the dense projectors
    p = P_U and q = P_V, with P_(U meet V) from meet_projector."""
    return float(np.linalg.norm(p @ q - meet_projector(p, q), 2))


def complement_chain_alpha(family):
    """Rate bound sqrt(1 - prod_i (1 - c_i^2)) with c_i the Friedrichs
    cosine between the complement of U_i and the intersection of the
    complements after it, all on dense projector matrices: I - P_i for
    each complement and meet_projector for each intersection."""
    subs = family.subspaces
    if len(subs) == 1:
        return 0.0
    eye = np.eye(family.ambient_dim)
    comps = [eye - dense_projector(s) for s in subs]
    tail = comps[-1]
    prod = 1.0
    for comp in reversed(comps[:-1]):
        c = dense_friedrichs(comp, tail)
        prod *= 1.0 - c * c
        tail = meet_projector(comp, tail)
    return float(np.sqrt(max(0.0, 1.0 - prod)))


def complement_product_radius(family):
    """Spectral radius of (I - P_1) ... (I - P_m), the map that one sweep
    applies to the distance from the solution set, on the sum of the
    members: dense projector matrices, and a basis of the sum from the
    SVD of the stacked bases."""
    n = family.ambient_dim
    prod = np.eye(n, dtype=family.dtype)
    for s in family.subspaces:
        prod = prod @ (np.eye(n) - dense_projector(s))
    stacked = np.hstack([s.basis for s in family.subspaces])
    u, sv, _ = np.linalg.svd(stacked, full_matrices=False)
    w = u[:, :int(np.sum(sv > 1e-10 * sv[0]))]
    return float(np.max(np.abs(np.linalg.eigvals(w.conj().T @ prod @ w))))


def reference_level(basis, tail, by_svd=False):
    """subspaces._factor_level as first written, through numpy's Python
    wrappers: the cosines by np.linalg.norm(axis=0) of cv = C V clipped by
    np.clip, the rank by np.sum; returns (w, sines, vh, cosines, rank, cv).
    The residual r of a one-column basis is its own singular triple
    (np.linalg.norm(r), r / np.linalg.norm(r), [[1]]), r itself for w
    when its norm is 0; by_svd takes np.linalg.svd of every residual."""
    coef = tail.conj().T @ basis
    res = basis - tail @ coef
    res -= tail @ (tail.conj().T @ res)
    if basis.shape[1] == 1 and not by_svd:
        top = np.linalg.norm(res)
        w, s, vh = res / top if top else res, np.array([top]), np.ones((1, 1), dtype=res.dtype)
    else:
        w, s, vh = np.linalg.svd(res, full_matrices=False)
    cv = coef @ vh.conj().T
    cosines = np.clip(np.linalg.norm(cv, axis=0), 0.0, 1.0)
    cosines[:max(0, basis.shape[1] - tail.shape[1])] = 0.0
    rank = int(np.sum(s > max(basis.shape) * np.finfo(np.float64).eps))
    w[:, :rank] -= tail @ (tail.conj().T @ w[:, :rank])
    return w, s, vh, cosines, rank, cv


def reference_point(start, family, valid):
    """The solution closest to start by the public call best_approximation
    makes: direct_solve on the validated prescription `valid`."""
    return direct_solve(family, valid, anchor=start)


def reference_iteration(start, family, prescription, options=None):
    """The periodic projection iteration built from the public pieces:
    each prescription vector projected onto its subspace once, then
    affine_project per constraint, prescription_residual per sweep, and
    np.linalg.norm for the distances.  Returns (x, trace, bounds): the
    point and trace as best_approximation returns them, and the bound
    alpha^n * d0 taken at each sweep n."""
    opts = options if options is not None else SolveOptions()
    valid = validate_prescription(family, prescription)
    pres = [s.project(u) for s, u in zip(family.subspaces, valid)]
    start = as_field_vector(start, family.ambient_dim, family.dtype, what="start")
    alpha = verify_ibap(family).alpha
    reference = reference_point(start, family, valid)
    d0 = float(np.linalg.norm(start - reference))
    constraints = [AffineConstraint(s, u) for s, u in zip(family.subspaces, pres)]
    x = start
    residuals, dists, bounds = [], [], []
    converged = False
    for n in range(1, opts.max_iter + 1):
        for c in reversed(constraints):
            x = affine_project(c, x)
        res = prescription_residual(family, pres, x)
        residuals.append(res)
        if opts.record_trace:
            dists.append(float(np.linalg.norm(x - reference)))
        bounds.append(alpha ** n * d0)
        if res <= opts.tol:
            converged = True
            break
    trace = ConvergenceTrace(residuals=tuple(residuals),
                             distances=tuple(dists) if opts.record_trace else None,
                             alpha=alpha, initial_distance=d0, converged=converged)
    return x, trace, bounds


def one_map_iteration(start, family, prescription, options=None):
    """best_approximation as one loop over sweeps: each sweep takes [y; 1]
    on by solvers._sweep_map's (d+1)-square map in the coordinates y of
    x = start + T y, T the chain basis of the sum, then takes its residual,
    iterate, distance ||y - c|| with c = T^H (reference - start), and bound
    before the next one.  It shares the map, so it checks only the blocking
    of best_approximation, bit for bit; reference_iteration checks the map
    against affine_project.  Returns (x, trace, bounds) as
    reference_iteration does."""
    opts = options if options is not None else SolveOptions()
    subs = family.subspaces
    valid = validate_prescription(family, prescription)
    pres = [s.project(u) for s, u in zip(subs, valid)]
    start = as_field_vector(start, family.ambient_dim, family.dtype, what="start")
    alpha = verify_ibap(family).alpha
    reference = reference_point(start, family, valid)
    d0 = float(np.linalg.norm(start - reference))
    # zero-dimensional members are exact identities and drop out
    live = [(s.basis, u) for s, u in zip(subs, pres) if s.dim]
    x = start
    if live:
        t = family._chain[1]
        m, coords, starts = _sweep_map(t, live, start)
        # the distance to the reference in the same coordinates
        c = t.conj().T @ (reference - start)
        y = np.append(np.zeros(t.shape[1], dtype=start.dtype), 1.0)
    residuals, dists, bounds = [], [], []
    converged = False
    for n in range(1, opts.max_iter + 1):
        res = 0.0
        if live:
            y = m @ y
            r = (y @ coords).view(np.float64)
            res = math.sqrt(np.add.reduceat(r * r, starts).max())
            x = start + t @ y[:-1]
        residuals.append(res)
        if opts.record_trace:
            dist = d0
            if live:
                v = (y[:-1] - c).view(np.float64)
                dist = math.sqrt((v * v).sum())
            dists.append(dist)
        bounds.append(alpha ** n * d0)
        if res <= opts.tol:
            converged = True
            break
    trace = ConvergenceTrace(residuals=tuple(residuals),
                             distances=tuple(dists) if opts.record_trace else None,
                             alpha=alpha, initial_distance=d0, converged=converged)
    return x, trace, bounds


def slow_trace(spec, start, options=None):
    """The trace of the iteration on slow_family(spec) from start with the
    zero prescription, which is always feasible, as slowdemo runs it."""
    family, _ = slow_family(spec)
    zeros = np.zeros(family.ambient_dim)
    return best_approximation(start, family, [zeros, zeros], options)[1]


def _encode_scalar(z, field):
    if field == COMPLEX:
        z = complex(z)
        return [z.real, z.imag]
    return float(np.real(z))


def _encode_vector(vec, field):
    return [_encode_scalar(z, field) for z in np.asarray(vec)]


def save_problem(path, problem):
    """Write a cli.Problem as a problem file that load_problem reads back."""
    doc = {
        "field": problem.field,
        "ambient_dim": problem.ambient_dim,
        "subspaces": [
            {"name": name, "vectors": [_encode_vector(v, problem.field) for v in span]}
            for name, span in zip(problem.names, problem.spans)
        ],
    }
    if problem.prescription is not None:
        doc["prescription"] = [_encode_vector(v, problem.field) for v in problem.prescription]
    if problem.anchor is not None:
        doc["anchor"] = _encode_vector(problem.anchor, problem.field)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
