"""Desk-scale application reductions to prescribed-projection problems.

Covers constrained moment problems, linear operator systems, recovery of
a signal from masked time and frequency samples (with optional scalar
measurements), and the two-subspace family whose angle degrades with the
truncation length, making alternating projections arbitrarily slow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .family import Family, _degenerate_level
from .solvers import solve_min_norm
from .subspaces import (COMPLEX, MEMBERSHIP_RTOL, _EPS, Subspace, _binary_scale, _integer,
                        _lean, _norm, _plain_norm, _rank_from_singular_values, as_field_vector)


class HypothesisError(ValueError):
    """A structural hypothesis of an application reduction fails.

    level, when set, is the 1-based index of the offending member: moment
    vector, measurement or operator i; a signal's family lists its
    measurement lines first, so level (measurements) + 1 is the time support.
    """

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


def dft_rows(n: int, rows) -> np.ndarray:
    """The given rows of the unitary discrete Fourier matrix of length n,
    entries exp(-2 pi i jk / n) / sqrt(n), as a (len(rows), n) array.

    Every entry is read from one table of the n scaled roots of unity at
    the exponent (j k) mod n, so each phase is rounded from a fraction of
    one turn, never from the unreduced product j k, and no n x n array is
    formed for a few rows.
    """
    if n < 1:
        raise ValueError("transform length must be positive")
    roots = np.exp(-2j * np.pi / n * np.arange(n)) / math.sqrt(n)
    return roots[np.multiply.outer(np.asarray(rows, dtype=np.int64), np.arange(n)) % n]


def dft_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier matrix, dft_rows of all n rows, as a new array.

    Forward and inverse carry the same 1/sqrt(n) scaling, so
    frequency-support projectors are orthogonal without weights.
    """
    return dft_rows(n, range(n))


def dft(x) -> np.ndarray:
    """dft_matrix(n) @ x by the FFT, along the first axis."""
    return np.fft.fft(np.asarray(x, dtype=np.complex128), axis=0, norm="ortho")


def _validated_mask(mask, n: int, what: str) -> tuple:
    idx = [_integer(i, f"{what} index") for i in mask]
    if len(set(idx)) != len(idx):
        raise ValueError(f"{what} contains duplicate indices")
    for i in idx:
        if not 0 <= i < n:
            raise ValueError(f"{what} index {i} out of range for length {n}")
    return tuple(idx)


@dataclass(frozen=True, eq=False)
class MaskedSignalProblem:
    """Recover a length-n signal from its values on a time-index set and
    the values of its unitary DFT on a frequency-index set."""

    n: int
    time_mask: tuple
    freq_mask: tuple
    time_values: np.ndarray
    freq_values: np.ndarray

    def __post_init__(self):
        if _integer(self.n, "signal length") < 1:
            raise ValueError("signal length must be positive")
        tmask = _validated_mask(self.time_mask, self.n, "time mask")
        fmask = _validated_mask(self.freq_mask, self.n, "frequency mask")
        tvals = np.asarray(self.time_values, dtype=np.complex128)
        fvals = np.asarray(self.freq_values, dtype=np.complex128)
        if tvals.shape != (len(tmask),):
            raise ValueError(f"time values have shape {tvals.shape}, expected ({len(tmask)},)")
        if fvals.shape != (len(fmask),):
            raise ValueError(f"frequency values have shape {fvals.shape}, expected ({len(fmask)},)")
        for name, vals in (("time", tvals), ("frequency", fvals)):
            if not np.isfinite(vals).all():
                raise ValueError(f"{name} values have non-finite entries")
        tvals.setflags(write=False)
        fvals.setflags(write=False)
        object.__setattr__(self, "time_mask", tmask)
        object.__setattr__(self, "freq_mask", fmask)
        object.__setattr__(self, "time_values", tvals)
        object.__setattr__(self, "freq_values", fvals)


def _signal_constraints(problem: MaskedSignalProblem):
    """The time and frequency support subspaces, each with its prescribed point.

    The time support is spanned by unit columns, the frequency support by
    the conjugates of the sampled DFT rows, which hold its point as the
    combination freq_values of them: O(n (|T| + |F|)) work and memory.
    """
    n, tmask = problem.n, list(problem.time_mask)
    time_basis = np.zeros((n, len(tmask)), dtype=np.complex128)
    time_basis[tmask, range(len(tmask))] = 1.0
    a_ext = np.zeros(n, dtype=np.complex128)
    a_ext[tmask] = problem.time_values
    freq_basis = dft_rows(n, problem.freq_mask).conj().T
    return ((Subspace(time_basis), a_ext),
            (Subspace(freq_basis), freq_basis @ problem.freq_values))


def time_frequency_recover(problem: MaskedSignalProblem) -> np.ndarray:
    """Minimal-norm signal matching the masked time and frequency data.

    recover_with_measurements without measurements: the level chain of
    the time and frequency support subspaces decides whether they meet
    trivially, and its one level step solves the pair.
    """
    return recover_with_measurements(problem, [], [])


def _line(v: np.ndarray, eta):
    """The line spanned by the nonzero v and its point eta v / ||v||^2, both
    from w = v / p, p = _binary_scale(v), as (eta / p) w / ||w||^2: dividing
    by p is exact, and no square of w underflows or overflows."""
    p = _binary_scale(v)
    w = v / p
    norm = _plain_norm(w)
    return Subspace((w / norm)[:, None]), eta / p * w / norm ** 2


def _lines(vectors, values, what: str) -> list:
    """_line of each vector and value; a point that overflows float64 is
    refused, naming its vector as what i."""
    with np.errstate(over="ignore", invalid="ignore"):
        lines = [_line(v, eta) for v, eta in zip(vectors, values)]
    if not np.isfinite([u for _, u in lines]).all():
        i = next(i for i, (_, u) in enumerate(lines) if not np.isfinite(u).all())
        raise ValueError(f"{what} {i + 1}: its prescribed point is not representable in float64")
    return lines


def _finite_values(values, what: str) -> list:
    """values as complex numbers, refusing a non-finite one as what i."""
    values = [complex(v) for v in values]
    for i, z in enumerate(values):
        if not cmath.isfinite(z):
            raise ValueError(f"{what} {i + 1} is not finite")
    return values


def recover_with_measurements(problem: MaskedSignalProblem, measurements,
                              values) -> np.ndarray:
    """Masked time/frequency recovery with extra scalar measurements.

    Each measurement vector contributes the constraint <x, m_i> = value_i.
    Measurement supports must be pairwise disjoint and must not be
    contained in the time mask; the assembled family, the measurement
    lines followed by the time and frequency supports, must be linearly
    independent, as its level chain decides.
    """
    measurements = [as_field_vector(m, problem.n, np.complex128, what=f"measurement {i + 1}")
                    for i, m in enumerate(measurements)]
    values = _finite_values(values, "measurement value")
    if len(values) != len(measurements):
        raise ValueError(f"{len(measurements)} measurement vectors but {len(values)} values")
    time_set = set(problem.time_mask)
    supports = []
    for i, m in enumerate(measurements):
        supp = set(np.nonzero(m)[0].tolist())
        if not supp:
            raise HypothesisError(f"measurement {i + 1} is the zero vector", level=i + 1)
        if supp <= time_set:
            raise HypothesisError(
                f"measurement {i + 1} is supported inside the time mask", level=i + 1)
        for j, other in enumerate(supports):
            if supp & other:
                raise HypothesisError(
                    f"measurements {j + 1} and {i + 1} have overlapping supports", level=i + 1)
        supports.append(supp)
    (u_time, a_ext), (u_freq, b_sig) = _signal_constraints(problem)
    lines = _lines(measurements, values, "measurement")
    family = Family(tuple(sub for sub, _ in lines) + (u_time, u_freq))
    if (level := _degenerate_level(family)) is not None:
        raise HypothesisError("masks too large: the time and frequency supports and the "
                              "measurements are linearly dependent", level=level)
    return solve_min_norm(family, [u for _, u in lines] + [a_ext, b_sig])


def solve_moments(space: Subspace, vectors, values) -> np.ndarray:
    """Minimal-norm member of `space` with prescribed scalar products.

    Solves for x in the space with <x, v_i> = values[i] for each moment
    vector.  The moment vectors must be nonzero, and the moment lines
    together with the orthocomplement of the space, the family that is
    solved, must be linearly independent: the vectors themselves are
    independent and their span meets that orthocomplement trivially.
    The orthocomplement is space.complement(), one complete QR of the
    basis; the command line instead takes it from one complete QR of the
    spanning vectors (subspaces._span_and_complement), or for the whole
    space builds the zero subspace, and passes it to _solve_moments.
    """
    return _solve_moments(space.complement(), vectors, values)


def _solve_moments(complement: Subspace, vectors, values) -> np.ndarray:
    """solve_moments, given the orthocomplement of the space."""
    n = complement.ambient_dim
    vs = [as_field_vector(v, n, complement.dtype, what=f"moment vector {i + 1}")
          for i, v in enumerate(vectors)]
    values = list(values)
    if len(values) != len(vs):
        raise ValueError(f"{len(vs)} moment vectors but {len(values)} values")
    for i, v in enumerate(vs):
        if not v.any():
            raise HypothesisError(f"moment vector {i + 1} is zero", level=i + 1)
    etas = _finite_values(values, "moment value")
    if complement.field != COMPLEX:
        for i, z in enumerate(etas):
            if z.imag != 0:
                raise ValueError(f"moment value {i + 1} is complex in a real problem")
        etas = [z.real for z in etas]
    lines = _lines(vs, etas, "moment vector")
    family = Family(tuple(sub for sub, _ in lines) + (complement,))
    if (level := _degenerate_level(family)) is not None:
        raise HypothesisError("the moment vectors are linearly dependent or their span "
                              "meets the orthocomplement of the space", level=level)
    return solve_min_norm(family, [u for _, u in lines] + [np.zeros(n, dtype=complement.dtype)])


def solve_operator_system(operators, rhs) -> np.ndarray:
    """Minimal-norm x with T_i x = y_i for the given matrices.

    Each right-hand side must lie in the range of its operator, within
    MEMBERSHIP_RTOL of its norm plus the rounding of that range, and every
    kernel must together with the intersection of the later kernels cover
    the whole space; the deficient level is reported otherwise.  Where an
    operator has a singular value near its rounding, an accepted x may
    leave ||T x - y|| large, but its normwise backward error
    ||T x - y|| / (||T|| ||x|| + ||y||) stays of the order of eps (Rigal and
    Gaches, 1967; Higham, 2002, Thm 7.1): x solves exactly a system whose
    T and y each move that much, relative.  T = [[1, 0], [0, 2e-15], [0, 0]]
    and y = (0, 1, 1) give a residual of 1 and a backward error of 9 eps.
    """
    mats = [np.atleast_2d(np.asarray(t)) for t in operators]
    rhs = list(rhs)
    if not mats:
        raise ValueError("at least one operator is required")
    if len(rhs) != len(mats):
        raise ValueError(f"{len(mats)} operators but {len(rhs)} right-hand sides")
    n = mats[0].shape[1]
    use_complex = any(np.iscomplexobj(t) for t in mats) or any(np.iscomplexobj(np.asarray(y)) for y in rhs)
    dtype = np.complex128 if use_complex else np.float64
    mats = [np.asarray(t, dtype=dtype) for t in mats]
    for i, t in enumerate(mats):
        if t.shape[1] != n:
            raise ValueError(f"operator {i + 1} has {t.shape[1]} columns, expected {n}")
        if not np.isfinite(t).all():
            raise ValueError(f"operator {i + 1} has non-finite entries")
    points = []
    row_spaces = []
    for i, (t, y) in enumerate(zip(mats, rhs)):
        y = as_field_vector(y, t.shape[0], dtype, what=f"right-hand side {i + 1}")
        # one thin SVD of T^H = Q S W^H gives the row-space basis Q_r and
        # the pseudoinverse solution T^+ y = Q_r S_r^(-1) W_r^H y
        q, s, wh = np.linalg.svd(t.conj().T, full_matrices=False)
        r = _rank_from_singular_values(s, t.shape)
        c = wh[:r] @ y
        gap = _norm(y - wh[:r].conj().T @ c)
        # y is in the range within MEMBERSHIP_RTOL ||y|| plus the lean of W_r
        # under the backward error e
        e = 4 * max(t.shape) * _EPS * np.max(s, initial=0.0)
        allowance = MEMBERSHIP_RTOL * _norm(y) + e * _lean(c, s)
        if gap > allowance:
            raise ValueError(
                f"right-hand side {i + 1} is not in the range of its operator "
                f"(residual {gap:.3e}, allowance {allowance:.3e})")
        points.append(q[:, :r] @ (c / s[:r]))
        row_spaces.append(Subspace(q[:, :r]))
    family = Family(tuple(row_spaces))
    # ker T_i + (later kernels) is the whole space exactly when the row
    # space of T_i meets the sum of the later row spaces trivially, which
    # is when its level is not degenerate
    if (level := _degenerate_level(family)) is not None:
        raise HypothesisError(
            f"kernel overlap condition fails at level {level}: "
            "the kernel plus the intersection of the later kernels "
            "does not cover the space", level=level)
    return solve_min_norm(family, points)


@dataclass(frozen=True, eq=False)
class SlowFamilySpec:
    """Truncated two-subspace family with per-block mixing weights.

    Block j of the ambient space of dimension 2 * truncation carries one
    direction of each subspace; the weight alphas[j] > 0 sets the angle
    between them.
    """

    truncation: int
    alphas: tuple

    def __post_init__(self):
        if _integer(self.truncation, "truncation") < 1:
            raise ValueError("truncation must be at least 1")
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) != self.truncation:
            raise ValueError(f"{len(alphas)} weights for truncation {self.truncation}")
        if not all(map(math.isfinite, alphas)):
            raise ValueError("weights have non-finite entries")
        if any(not a > 0 for a in alphas):
            raise ValueError("all weights must be positive")
        object.__setattr__(self, "alphas", alphas)

    @classmethod
    def harmonic(cls, truncation: int) -> "SlowFamilySpec":
        """Weights 1/(j+1); the angle degrades as the truncation grows."""
        return cls(truncation, tuple(1.0 / (j + 1) for j in range(truncation)))


def slow_family(spec: SlowFamilySpec):
    """Two-subspace family whose projector-product norm is predictable.

    The first subspace is spanned by the even coordinate directions, the
    second by per-block unit mixtures of the even and odd directions.
    Returns (family, predicted_norm) with predicted_norm the largest
    per-block value 1 / sqrt(1 + alpha^2), taken as 1 / hypot(1, alpha)
    so that no weight overflows; as the weights shrink, the norm
    approaches 1 and the iteration rate degrades.
    """
    n = 2 * spec.truncation
    basis_even = np.zeros((n, spec.truncation))
    basis_mixed = np.zeros((n, spec.truncation))
    for j, a in enumerate(spec.alphas):
        scale = 1.0 / math.hypot(1.0, a)
        basis_even[2 * j, j] = 1.0
        basis_mixed[2 * j, j] = scale
        basis_mixed[2 * j + 1, j] = a * scale
    family = Family((Subspace(basis_even), Subspace(basis_mixed)))
    predicted = max(1.0 / math.hypot(1.0, a) for a in spec.alphas)
    return family, predicted


def worst_aligned_start(spec: SlowFamilySpec) -> np.ndarray:
    """Unit start vector in the block attaining the predicted norm."""
    j = int(np.argmin(spec.alphas))
    r = np.zeros(2 * spec.truncation)
    r[2 * j + 1] = 1.0
    return r

