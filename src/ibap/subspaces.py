"""Subspaces of R^n and C^n held as column-orthonormal bases.

Everything else in this package (projectors, angles, feasibility checks,
solvers) reduces to small dense linear algebra on these bases.  Subspace
values are immutable after construction and safe to share across threads;
no operation mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: max-norm tolerance for the orthonormality invariant of stored bases
ORTHONORMALITY_TOL = 1e-12

#: relative tolerance for "v lies in a range": a subspace (Subspace.member), an
#: operator's range (solve_operator_system) or a family's (family.stacked_lstsq)
MEMBERSHIP_RTOL = 1e-8

_EPS = float(np.finfo(np.float64).eps)


def field_dtype(field: str) -> np.dtype:
    """numpy dtype backing a field tag, either "real" or "complex"."""
    if field == REAL:
        return np.dtype(np.float64)
    if field == COMPLEX:
        return np.dtype(np.complex128)
    raise ValueError(f"unknown field {field!r}, expected 'real' or 'complex'")


def inner(x, y):
    """Scalar product, linear in x and conjugate-linear in y."""
    return np.vdot(np.asarray(y), np.asarray(x))


def as_field_vector(x, ambient_dim: int, dtype, what: str = "vector") -> np.ndarray:
    """Coerce x to a finite length-ambient_dim vector of the given dtype.

    Complex input with a nonzero imaginary part is rejected when the
    target dtype is real, and non-finite entries, whose norms and
    distances would compare false against any bound, always are.
    """
    arr = np.asarray(x)
    if arr.shape != (ambient_dim,):
        raise ValueError(f"{what} has shape {arr.shape}, expected ({ambient_dim},)")
    if arr.dtype.kind == "c" and np.dtype(dtype) == np.float64:
        if np.any(arr.imag != 0):
            raise ValueError(f"{what} has nonzero imaginary entries in a real problem")
        arr = arr.real
    arr = np.asarray(arr, dtype=dtype)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has non-finite entries")
    return arr


def _integer(value, what: str) -> int:
    """value as an int; a bool, or a type other than int and numpy's integers, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer")
    return int(value)


def _binary_scale(x: np.ndarray) -> float:
    """The power of two that puts the largest real or imaginary part of x
    in [1, 2), but at least 2^-1022, and 1/2 for x = 0 or empty.  Dividing
    by it is exact: numpy divides a complex array by multiplying with the
    reciprocal, which the floor keeps finite.  It is read from the float64
    view, so the modulus of no complex entry can overflow."""
    top = np.abs(np.ascontiguousarray(x).view(np.float64)).max(initial=0.0)
    return 2.0 ** max(math.frexp(top)[1] - 1, -1022)


def _plain_norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a float64 or complex128 vector, bit for bit: the
    same ravel and dot products, without its dispatch on ord and axis."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _norm(x: np.ndarray) -> float:
    """||x|| as p ||x / p||, p = _binary_scale(x), so that no square over- or
    underflows: bit for bit np.linalg.norm(x) wherever none of its squares does."""
    p = _binary_scale(x)
    return p * _plain_norm(x / p)


def _rank_from_singular_values(s: np.ndarray, shape, scale: float | None = None) -> int:
    """Numerical rank: the singular values above max(shape) * eps times scale.

    scale defaults to the largest singular value; a matrix whose scale is
    known beforehand, such as a residual of orthonormal columns (scale 1),
    passes it.  This is the package's only rank decision.
    """
    top = s[0] if s.size and scale is None else scale
    if s.size == 0 or top <= 0.0:
        return 0
    return int(np.count_nonzero(s > max(shape) * _EPS * top))


class _Level(NamedTuple):
    """A subspace U against an orthonormal tail basis T, from one thin SVD
    of the residual, or from its norm when U is a line.

    The residual R of the basis B of U off T is W diag(sines) vh, the
    sines descending; a one-column R = r is its own singular triple
    (||r||, r / ||r||, [[1]]).  cosines[j] = ||C v_j|| with C = T^H B is
    paired with sines[j].  rank counts the sines above the package cutoff
    at unit scale, so it is dim(U + T) - dim T, and the first rank columns
    of w, projected off T after the factorization, extend T to a basis of
    U + T; they are the only columns that the chain and the level step read.
    The rows of vh past rank map B to a basis of U meet T (intersect).
    """

    w: np.ndarray
    sines: np.ndarray
    vh: np.ndarray
    cosines: np.ndarray
    rank: int

    @property
    def norm(self) -> float:
        """||P_U P_T||, the largest principal cosine (0 when none exists)."""
        return float(self.cosines.max()) if self.cosines.size else 0.0

    @property
    def cos_angle(self) -> float:
        """Friedrichs cosine: the one paired with the smallest sine above the cutoff."""
        return float(self.cosines[self.rank - 1]) if self.rank else 0.0

    @property
    def sine(self) -> float:
        """The sine paired with cos_angle, from the cosine at large angles
        and from the residual at small ones, so it is accurate at both ends."""
        c = self.cos_angle
        return math.sqrt(1.0 - c * c) if c * c < 0.5 else float(self.sines[self.rank - 1])

    @property
    def degenerate(self) -> bool:
        """Whether a sine falls to the rank cutoff, that is U meets T."""
        return self.rank < self.sines.size

    @property
    def gamma(self) -> float:
        """1 / sine when no direction of U lies in T, infinite otherwise."""
        return math.inf if self.degenerate else 1.0 / self.sine


def _factor_level(basis: np.ndarray, tail: np.ndarray) -> _Level:
    """The _Level of the column-orthonormal basis against the tail basis,
    its first rank columns of w orthogonal to the tail to rounding."""
    tail_h = tail.conj().T
    coef = tail_h @ basis
    res = basis - tail @ coef
    # project off the tail twice: after one pass the rounding left in a
    # direction that U shares with T reaches the rank cutoff in small
    # dimensions, after the second it stays below a third of it
    res -= tail @ (tail_h @ res)
    if basis.shape[1] == 1:
        # a line's residual r is its own singular triple (||r||, r / ||r||, [[1]]);
        # when its squares underflow to a norm of 0, the level has rank 0
        # and no caller reads its w, so r is kept there
        top = _plain_norm(res)
        w = res / top if top else res
        s = np.array([top])
        vh = np.ones((1, 1), dtype=res.dtype)
    else:
        w, s, vh = np.linalg.svd(res, full_matrices=False)
    # the column norms of C V as np.linalg.norm(axis=0) takes them, capped at 1
    cv = coef @ vh.conj().T
    cosines = np.sqrt(np.add.reduce((cv.conj() * cv).real, axis=0))
    np.minimum(cosines, 1.0, out=cosines)
    # with dim U > dim T the first dim U - dim T sines are 1: no angle pairs them
    cosines[:max(0, basis.shape[1] - tail.shape[1])] = 0.0
    rank = _rank_from_singular_values(s, basis.shape, scale=1.0)
    # w_j leans into the tail by about eps / s[j]: project that off, so
    # that small sines keep the chain basis and the level step exact
    w[:, :rank] -= tail @ (tail_h @ w[:, :rank])
    return _Level(w, s, vh, cosines, rank)


def _extend(tail: np.ndarray, basis: np.ndarray):
    """One step of a chain of sums: the _Level of basis against the tail,
    and the tail extended by the level's kept columns made orthonormal, a
    single one by its norm and several by their QR."""
    lev = _factor_level(basis, tail)
    kept = lev.w[:, :lev.rank]
    kept = kept / _plain_norm(kept) if lev.rank == 1 else np.linalg.qr(kept)[0]
    return lev, np.concatenate([tail, kept], axis=1)


def _orthonormal_columns(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of mat, via rank-revealing SVD."""
    if mat.shape[1] == 0:
        return mat
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, :_rank_from_singular_values(s, mat.shape)]


def _span_and_complement(mat: np.ndarray):
    """(space, complement): the Subspace spanned by the columns of the n x k
    matrix mat and its orthogonal complement, from one complete Householder
    QR, mat = Q R.  With p = min(n, k), the top p rows of R have the
    singular values of mat (Chan's R-SVD), and their count above the cutoff
    is the rank that Subspace.from_spanning reads.  At full rank the first p
    columns of Q span the space and the rest the complement; below it the
    first p are rotated by R's left singular vectors, and their first rank
    columns span the space.  An empty set (k = 0) gives the zero subspace
    and the whole space.  mat is divided by _binary_scale(mat) first, as in
    Subspace.from_spanning."""
    p = min(mat.shape)
    q, r = np.linalg.qr(mat / _binary_scale(mat), mode="complete")
    rank = _rank_from_singular_values(np.linalg.svd(r[:p], compute_uv=False), mat.shape)
    if rank < p:
        q[:, :p] = q[:, :p] @ np.linalg.svd(r[:p], full_matrices=False)[0]
    return Subspace(q[:, :rank]), Subspace(q[:, rank:])


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace as an (ambient_dim, dim) orthonormal basis matrix.

    dim == 0 encodes the zero subspace; it is a regular value, never an
    error.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis)
        if basis.ndim != 2:
            raise ValueError(f"basis must be a 2-D array, got shape {basis.shape}")
        dtype = np.complex128 if basis.dtype.kind == "c" else np.float64
        basis = np.array(basis, dtype=dtype)
        n, k = basis.shape
        if not np.isfinite(basis).all():
            raise ValueError("basis has non-finite entries")
        if n < 1:
            raise ValueError("ambient dimension must be positive")
        if k > n:
            raise ValueError(f"{k} basis columns cannot be independent in dimension {n}")
        if k:
            gram = basis.conj().T @ basis
            gram.flat[::k + 1] -= 1.0  # the Gram minus the identity
            defect = np.max(np.abs(gram))
            if defect > ORTHONORMALITY_TOL:
                raise ValueError(f"basis columns are not orthonormal (defect {defect:.3e})")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int | None = None,
                      field: str | None = None) -> "Subspace":
        """Subspace spanned by the rows of a (k, n) array, or by a list of vectors.

        A list is stacked once.  The shape, a nonzero imaginary part in the
        real field and finiteness are checked on the stack; a failure names
        the first offending vector with as_field_vector's message.  The
        rank counts singular values above max(shape) * eps times the
        largest.  The stack is divided by _binary_scale first, which is
        exact: an SVD commutes with powers of two in range, so vectors
        scaled by 2^k span one basis at every k, where LAPACK would rescale
        an extreme stack by a rounded factor.  An empty set gives the zero
        subspace; ambient_dim is then required.
        """
        if ambient_dim is None:
            if not len(vectors):
                raise ValueError("ambient_dim is required for an empty spanning set")
            if np.ndim(vectors[0]) != 1:
                raise ValueError("spanning vectors must be 1-D arrays")
            ambient_dim = len(vectors[0])
        try:
            stack = np.asarray(vectors) if len(vectors) else np.zeros((0, ambient_dim))
        except ValueError:  # vectors of different lengths do not stack
            stack = np.zeros(0)
        complex_stack = stack.dtype.kind == "c"
        dtype = field_dtype(field or (COMPLEX if complex_stack else REAL))
        imag = complex_stack and dtype == np.float64
        mat = np.asarray(stack.real if imag else stack, dtype=dtype)
        if (stack.shape[1:] == (ambient_dim,) and not (imag and np.any(stack.imag != 0))
                and np.isfinite(mat).all()):
            return cls(_orthonormal_columns(mat.T / _binary_scale(mat)))
        # name the first offending vector; without a field no imaginary part is rejected
        for i, v in enumerate(vectors):
            as_field_vector(v, ambient_dim, field_dtype(field or COMPLEX),
                            what=f"spanning vector {i}")

    @classmethod
    def full(cls, ambient_dim: int, field: str = REAL) -> "Subspace":
        return cls(np.eye(ambient_dim, dtype=field_dtype(field)))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def field(self) -> str:
        return COMPLEX if self.basis.dtype.kind == "c" else REAL

    @property
    def dtype(self) -> np.dtype:
        return self.basis.dtype

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of x onto this subspace."""
        x = as_field_vector(x, self.ambient_dim, self.dtype)
        if self.dim == 0:
            return np.zeros(self.ambient_dim, dtype=self.dtype)
        return self.basis @ (self.basis.conj().T @ x)

    def member(self, x, what: str = "vector") -> np.ndarray:
        """x coerced to the field (see as_field_vector), checked to lie in the subspace.

        Raises ValueError when the distance to the subspace exceeds
        MEMBERSHIP_RTOL * ||x||, at every scale; membership violations are
        errors, never silent projections.  The norms are taken of x / p,
        p = _binary_scale(x), so that none overflows; p times them is the
        norms of x, bit for bit, wherever those neither over- nor underflow.
        """
        x = as_field_vector(x, self.ambient_dim, self.dtype, what=what)
        p = _binary_scale(x)
        w = x / p
        gap = _plain_norm(self.project(w) - w)
        if gap > MEMBERSHIP_RTOL * _plain_norm(w):
            raise ValueError(f"{what} is not in its subspace (distance {p * gap:.3e})")
        return x

    def complement(self) -> "Subspace":
        """Orthogonal complement: the last ambient_dim - dim columns of the
        complete QR of the basis, which is orthonormal already, so no rank
        is decided and the dimensions add up to ambient_dim exactly."""
        return Subspace(np.linalg.qr(self.basis, mode="complete")[0][:, self.dim:])

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, field={self.field})"


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if a.field != b.field:
        raise ValueError(f"fields differ: {a.field} vs {b.field}")


def add(a: Subspace, b: Subspace) -> Subspace:
    """Sum of two subspaces: b's basis extended by a's level against it,
    so dim(a + b) is the rank that Family((a, b)) and the angles read."""
    _check_compatible(a, b)
    return Subspace(_extend(b.basis, a.basis)[1])


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection: the directions of a whose sines against b fall to
    the level's rank cutoff, so dim(a meet b) = dim a - the level's rank."""
    _check_compatible(a, b)
    lev = _factor_level(a.basis, b.basis)
    return Subspace(a.basis @ lev.vh[lev.rank:].conj().T)
