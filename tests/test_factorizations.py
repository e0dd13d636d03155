"""Factorization counts of the analysis layer on a fixed family.

Each family is factorized at most once per call chain, by one of two
factorizations cached on the Family: the level chain, one thin SVD of
each level's residual off its trailing sum (m - 1 in all) and one QR of
its kept columns, and the full SVD of its stacked bases.  A line's level
takes neither: its one-column residual is its own singular triple, read
from its norm, and its kept column is divided by its norm.  On an
independent family, check, the recursion, direct_solve, the iteration,
infeasibility_certificate and dependent_tuple take only the chain, with
or without an anchor or a trace, and so does direct_solve on a family
whose stack is numerically deficient while its chain is not.  The
stacked SVD is taken only for a family that the chain shows dependent:
direct_solve and the iteration then take the chain and exactly one
stacked SVD, whose solve decides feasibility.  None of these chains
builds a complement or calls a linear solve.  A lone pair (the Friedrichs
cosine) takes one thin SVD of its residual; the two-constraint solve
takes the two-member chain, that one thin SVD plus its QR, and an
operator system adds one thin SVD per operator to the chain of its
family.  The lattice reads that one level too: intersect takes its thin
SVD, add that SVD plus one QR.  The moment problem's one complement is
one complete QR; the moments command takes the space and that complement
from one complete QR of its spanning vectors and the singular values of
its R factor, and for the whole space builds no n x n array at all.  The
periodic projection sweep makes no per-sweep call of Subspace.project or
affine_project.
"""

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import ibap.solvers
from ibap import (
    AffineConstraint,
    Family,
    HypothesisError,
    MaskedSignalProblem,
    SolveOptions,
    Subspace,
    add,
    best_approximation,
    cos_friedrichs,
    dependent_tuple,
    direct_solve,
    infeasibility_certificate,
    intersect,
    min_norm_stages,
    recover_with_measurements,
    solve_min_norm,
    solve_moments,
    solve_operator_system,
    solve_two,
    uniqueness_check,
    verify_ibap,
)
from ibap.cli import main

from conftest import random_family, random_prescription, random_subspace, rng_for

N = 24
DIMS = (3, 4, 2, 5)


@pytest.fixture(scope="module")
def problem():
    rng = rng_for(1201)
    family = random_family(rng, N, DIMS)
    return family.subspaces, random_prescription(rng, family)


@pytest.fixture
def log(monkeypatch):
    """Records ("svd", shape, full_u, uv), ("lstsq", shape), ("pinv", shape) and
    ("solve", shape) for every call, and ("complement",) for every orthogonal
    complement built."""
    calls = []
    svd, lstsq, pinv, solve = np.linalg.svd, np.linalg.lstsq, np.linalg.pinv, np.linalg.solve
    complement = Subspace.complement

    def counted_svd(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append(("svd", np.shape(a), full_matrices and compute_uv, compute_uv))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    def counted_lstsq(a, b, *args, **kwargs):
        calls.append(("lstsq", np.shape(a)))
        return lstsq(a, b, *args, **kwargs)

    def counted_pinv(a, *args, **kwargs):
        calls.append(("pinv", np.shape(a)))
        return pinv(a, *args, **kwargs)

    def counted_solve(a, b):
        calls.append(("solve", np.shape(a)))
        return solve(a, b)

    def counted_complement(self):
        calls.append(("complement",))
        return complement(self)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(Subspace, "complement", counted_complement)
    return calls


@pytest.fixture
def qrs(monkeypatch):
    """Records (shape, mode) for every QR."""
    calls = []
    qr = np.linalg.qr

    def counted_qr(a, mode="reduced"):
        calls.append((np.shape(a), mode))
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    return calls


def full_u_svds(calls):
    """Shapes of the full-u SVDs with N rows, the only kind that is n by n."""
    return [c[1] for c in calls if c[0] == "svd" and c[2] and c[1][0] == N]


def thin_svds(calls):
    """Shapes of the thin SVDs with singular vectors and N rows."""
    return [c[1] for c in calls if c[0] == "svd" and not c[2] and c[3] and c[1][0] == N]


#: the level chain: one thin SVD per level, of U_i's residual, from the last but one up
LEVELS = [(N, k) for k in reversed(DIMS[:-1])]
STACKED = [(N, sum(DIMS))]
#: the dependent family repeats the first member at the end
DEPENDENT_LEVELS = [(N, k) for k in reversed(DIMS)]
DEPENDENT_STACKED = [(N, sum(DIMS) + DIMS[0])]
#: the deficient family is three lines (0, 1, s), (1, s, 0) and e0 at s = 1e-8:
#: level sines s, stacked smallest singular value s^2 / sqrt(2); a line's
#: level takes the norm of its residual, no SVD
DEFICIENT_LEVELS = []


def deficient_problem():
    s, e = 1e-8, np.eye(N)
    subspaces = tuple(Subspace.from_spanning([v], N)
                      for v in (e[1] + s * e[2], e[0] + s * e[1], e[0]))
    return subspaces, [u.basis[:, 0] * c for u, c in zip(subspaces, (1.0, -2.0, 0.5))]


def iterate(record_trace):
    options = SolveOptions(max_iter=3, record_trace=record_trace)
    return lambda f, pres: best_approximation(np.ones(N), f, pres, options)


def direct(f, pres):
    return direct_solve(f, pres, anchor=np.ones(N))


#: chain -> (call, its family: "generic", "dependent" or "deficient",
#: its thin SVDs, its full-u SVDs)
CHAINS = {
    "verify_ibap": (lambda f, pres: verify_ibap(f), "generic", LEVELS, []),
    "min_norm_stages": (lambda f, pres: min_norm_stages(f, pres), "generic", LEVELS, []),
    "solve_min_norm": (lambda f, pres: solve_min_norm(f, pres), "generic", LEVELS, []),
    "solve_min_norm-anchor": (lambda f, pres: solve_min_norm(f, pres, anchor=np.ones(N)),
                              "generic", LEVELS, []),
    "direct_solve": (direct, "generic", LEVELS, []),
    "direct_solve-deficient": (direct, "deficient", DEFICIENT_LEVELS, []),
    "direct_solve-dependent": (direct, "dependent", DEPENDENT_LEVELS, DEPENDENT_STACKED),
    "infeasibility_certificate": (infeasibility_certificate, "generic", LEVELS, []),
    "dependent_tuple": (lambda f, pres: dependent_tuple(f), "generic", LEVELS, []),
    "best_approximation-trace": (iterate(True), "generic", LEVELS, []),
    "best_approximation": (iterate(False), "generic", LEVELS, []),
    "best_approximation-dependent-trace": (iterate(True), "dependent",
                                           DEPENDENT_LEVELS, DEPENDENT_STACKED),
    "best_approximation-dependent": (iterate(False), "dependent",
                                     DEPENDENT_LEVELS, DEPENDENT_STACKED),
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_one_stacked_svd_and_no_complement(chain, problem, log):
    """At most one stacked SVD, taken only for a dependent family; at most
    one chain."""
    subspaces, pres = problem
    call, kind, thin, full = CHAINS[chain]
    if kind == "dependent":
        # feasible: the repeated member is prescribed the same vector
        subspaces, pres = subspaces + subspaces[:1], pres + pres[:1]
    elif kind == "deficient":
        subspaces, pres = deficient_problem()
        log.clear()
    call(Family(subspaces), pres)
    assert full_u_svds(log) == full
    # the level chain is built at most once per chain
    assert thin_svds(log) == thin
    assert len([c for c in log if c[0] == "svd"]) == len(thin) + len(full)
    assert not [c for c in log if c[0] in ("lstsq", "solve", "complement")]


def test_check_chain_factorizes_the_family_once(problem, log):
    family = Family(problem[0])
    report = verify_ibap(family)
    unique = uniqueness_check(family)
    assert report.verdict and not unique and 0.0 < report.alpha < 1.0
    # the level chain and nothing else: no stacked or values-only SVD
    assert log == [("svd", shape, False, True) for shape in LEVELS]
    # the recursion reuses the cached chain
    solve_min_norm(family, problem[1])
    assert log == [("svd", shape, False, True) for shape in LEVELS]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_solve_two_takes_one_residual_svd(field, log):
    rng = rng_for(1203)
    u, v = random_subspace(rng, N, 3, field), random_subspace(rng, N, 5, field)
    x = rng.standard_normal(N)
    c1, c2 = AffineConstraint(u, u.project(x)), AffineConstraint(v, v.project(x))
    log.clear()
    z = solve_two(c1, c2)
    assert np.allclose(v.project(z), c2.point)
    # the two-member chain's one residual, of the level off the trailing
    # member, serves the independence check and both resolvents
    assert log == [("svd", (N, 3), False, True)]


def test_friedrichs_cosine_takes_one_residual_svd(log):
    rng = rng_for(1205)
    u, v = random_subspace(rng, N, 6, "real"), random_subspace(rng, N, 20, "real")
    log.clear()
    # dim u + dim v > N, so the pair meets in two dimensions
    assert 0.0 < cos_friedrichs(u, v) < 1.0
    assert log == [("svd", (N, 6), False, True)]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_lattice_operations_take_one_level(field, log, qrs):
    # a 12- and a 16-dimensional subspace of R^24 meet in dimension 4
    rng = rng_for(1206)
    a, b = random_subspace(rng, N, 12, field), random_subspace(rng, N, 16, field)
    log.clear()
    assert intersect(a, b).dim == 4
    # the thin SVD of a's residual off b, and no complement, QR or n x n SVD
    assert log == [("svd", (N, 12), False, True)] and qrs == []
    log.clear()
    assert add(a, b).dim == N
    # that SVD, then the QR of its 8 kept columns, which extend b's basis
    assert log == [("svd", (N, 12), False, True)] and qrs == [((N, 8), "reduced")]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_lattice_operations_on_a_line_take_no_factorization(field, log, qrs):
    # a line against a plane: its level is the norm of its residual
    rng = rng_for(1207)
    a, b = random_subspace(rng, N, 1, field), random_subspace(rng, N, 2, field)
    log.clear()
    assert intersect(a, b).dim == 0 and add(a, b).dim == 3
    assert log == [] and qrs == []


def test_operator_system_adds_one_thin_svd_per_operator(log):
    rng = rng_for(1204)
    ops = [rng.standard_normal((p, N)) for p in DIMS]
    x0 = rng.standard_normal(N)
    x = solve_operator_system(ops, [t @ x0 for t in ops])
    assert all(np.allclose(t @ x, t @ x0) for t in ops)
    calls = list(log)
    rows = Family(tuple(Subspace.from_spanning(list(t), N) for t in ops))
    pres = [s.project(x0) for s in rows.subspaces]
    log.clear()
    solve_min_norm(rows, pres)
    # one thin SVD of each operator's adjoint, then the chain of its family
    assert calls == [("svd", (N, p), False, True) for p in DIMS] + log
    assert not [c for c in calls if c[0] in ("pinv", "lstsq", "complement")]


@pytest.mark.parametrize("meets_complement", [False, True])
def test_moments_build_one_complement(meets_complement, log, qrs):
    rng = rng_for(1202)
    space = random_subspace(rng, N, 15, "real")
    vectors = list(rng.standard_normal((4, N)))
    if meets_complement:
        vectors[-1] = vectors[-1] - space.project(vectors[-1])
        with pytest.raises(HypothesisError, match="orthocomplement"):
            solve_moments(space, vectors, [1.0, 2.0, 3.0, 4.0])
    else:
        x = solve_moments(space, vectors, [1.0, 2.0, 3.0, 4.0])
        assert np.allclose([v @ x for v in vectors], [1.0, 2.0, 3.0, 4.0])
    # the orthocomplement of the space, a member of the family that is solved,
    # is the only complete QR and takes no full-u SVD: the decision and the
    # recursion use the level chain
    assert [c for c in log if c[0] == "complement"] == [("complement",)]
    assert [q for q in qrs if q[1] == "complete"] == [((N, 15), "complete")]
    assert full_u_svds(log) == []


@pytest.mark.parametrize("field", ["real", "complex"])
def test_the_moments_command_factors_its_space_once(field, log, qrs, tmp_path, capsys):
    # the space and its orthocomplement come from one complete QR of the
    # n x k spanning matrix and the singular values of its k x k R factor:
    # no thin SVD of the spanning vectors, and no complement of the basis
    rng = rng_for(1205)
    space = rng.standard_normal((15, N))
    vectors = rng.standard_normal((4, N))
    if field == "complex":
        space = space + 1j * rng.standard_normal((15, N))
        vectors = vectors + 1j * rng.standard_normal((4, N))

    def entry(z):
        return [z.real, z.imag] if field == "complex" else z.real

    doc = {"field": field, "ambient_dim": N,
           "space": [[entry(z) for z in v] for v in space],
           "constraints": [{"vector": [entry(z) for z in v], "value": float(i)}
                           for i, v in enumerate(vectors)]}
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(doc))
    assert main(["moments", str(path)]) == 0
    assert "moment 4 residual" in capsys.readouterr().out
    assert [c for c in log if c[0] == "svd"] == [("svd", (15, 15), False, False)]
    assert qrs == [((N, 15), "complete")]
    assert not [c for c in log if c[0] == "complement"]


LARGE_N = 1000


def large_problem(kind, rng):
    """A problem file at n = LARGE_N: whole-space moments, or a family of
    three members of dimension 4 with a prescription."""
    vectors = rng.standard_normal((12, LARGE_N))
    if kind == "moments":
        return {"field": "real", "ambient_dim": LARGE_N, "space": None,
                "constraints": [{"vector": list(v), "value": float(i)}
                                for i, v in enumerate(vectors[:3])]}
    x = rng.standard_normal(LARGE_N)
    subs = [Subspace.from_spanning(vectors[i:i + 4], LARGE_N) for i in (0, 4, 8)]
    return {"field": "real", "ambient_dim": LARGE_N,
            "subspaces": [{"vectors": [list(v) for v in vectors[i:i + 4]]} for i in (0, 4, 8)],
            "prescription": [list(s.project(x)) for s in subs]}


@pytest.mark.parametrize("argv", [["moments"], ["check"], ["solve", "--method", "direct"],
                                  ["solve", "--method", "recursion"], ["iterate"]],
                         ids=["moments", "check", "direct", "recursion", "iterate"])
def test_commands_build_nothing_n_by_n(argv, tmp_path, monkeypatch, capsys):
    # at n = 1000, no numpy.linalg call takes an array with two dimensions
    # of at least n, and no n x n array is allocated (peak well below its
    # bytes): whole-space moments builds its zero orthocomplement as such,
    # and every route on an independent family takes only the level chain
    n = LARGE_N
    path = tmp_path / "large.json"
    path.write_text(json.dumps(large_problem(argv[0], rng_for(1206))))
    shapes = []

    def logged(func):
        def call(*args, **kwargs):
            shapes.extend(np.shape(a) for a in args if isinstance(a, np.ndarray))
            return func(*args, **kwargs)
        return call

    for name in np.linalg.__all__:
        func = getattr(np.linalg, name)
        if callable(func) and not isinstance(func, type):
            monkeypatch.setattr(np.linalg, name, logged(func))
    tracemalloc.start()
    try:
        assert main([argv[0], str(path), *argv[1:]]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert not [s for s in shapes if len(s) == 2 and min(s) >= n]
    assert peak < n * n * 8 / 4


def line_svds(calls):
    """Shapes of the SVDs of one N-vector."""
    return [c[1] for c in calls if c[0] == "svd" and c[1] == (N, 1)]


def test_moment_lines_take_no_svd_of_their_own(log, qrs):
    # each moment line's basis is v / ||v||, and each line level of the
    # chain takes the norm of its residual: no SVD and no QR of a line
    rng = rng_for(1203)
    space = random_subspace(rng, N, 15, "real")
    vectors = list(rng.standard_normal((4, N)))
    solve_moments(space, vectors, [1.0, 2.0, 3.0, 4.0])
    assert line_svds(log) == []
    assert qrs == [((N, 15), "complete")]


def test_measurement_lines_take_no_svd_of_their_own(log, qrs):
    # the family is the measurement lines, then the time and frequency
    # supports; its chain has one level per line, which takes the norm of
    # its residual, and one for the time support, which takes an SVD and a QR
    rng = rng_for(1204)
    problem = MaskedSignalProblem(n=N, time_mask=(0, 1, 2), freq_mask=(0, 5),
                                  time_values=rng.standard_normal(3),
                                  freq_values=rng.standard_normal(2))
    measurements = np.zeros((3, N), dtype=complex)
    for i, m in enumerate(measurements):
        m[3 + 2 * i: 5 + 2 * i] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    recover_with_measurements(problem, list(measurements), [1.0, -2.0, 0.5j])
    assert [c[1] for c in log if c[0] == "svd"] == [(N, 3)]
    assert qrs == [((N, 3), "reduced")]


def test_the_sweep_calls_no_projection_per_sweep(monkeypatch):
    counts = Counter()
    project, affine_project = Subspace.project, ibap.solvers.affine_project

    def counted_project(self, x):
        counts["project"] += 1
        return project(self, x)

    def counted_affine_project(constraint, x):
        counts["affine_project"] += 1
        return affine_project(constraint, x)

    monkeypatch.setattr(Subspace, "project", counted_project)
    monkeypatch.setattr(ibap.solvers, "affine_project", counted_affine_project)
    e = np.eye(N)
    theta = 0.05  # lines this close contract by cos(theta)^2 per sweep
    family = Family((Subspace.from_spanning([e[0]], N),
                     Subspace.from_spanning([np.cos(theta) * e[0] + np.sin(theta) * e[1]], N)))
    pres = [e[0], np.zeros(N)]
    seen = {}
    for max_iter in (1, 50):
        counts.clear()
        _, trace = best_approximation(np.ones(N), family, pres,
                                      SolveOptions(max_iter=max_iter, record_trace=True))
        assert trace.sweeps == max_iter and not trace.converged
        seen[max_iter] = dict(counts)
    assert seen[1] == seen[50]
