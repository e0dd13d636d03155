"""Subspaces of R^n and C^n held as column-orthonormal bases.

Everything else in this package (projectors, angles, feasibility checks,
solvers) reduces to small dense linear algebra on these bases.  Subspace
values are immutable after construction and safe to share across threads;
no operation mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: max-norm tolerance for the orthonormality invariant of stored bases
ORTHONORMALITY_TOL = 1e-12

#: relative tolerance for "u lies in U" membership checks
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
    if np.iscomplexobj(arr) and np.dtype(dtype) == np.float64:
        if np.any(arr.imag != 0):
            raise ValueError(f"{what} has nonzero imaginary entries in a real problem")
        arr = arr.real
    arr = np.asarray(arr, dtype=dtype)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has non-finite entries")
    return arr


def _binary_scale(x: np.ndarray) -> float:
    """The power of two that puts the largest real or imaginary part of x
    in [1, 2), but at least 2^-1022, and 1/2 for x = 0 or empty.  Dividing
    by it is exact: numpy divides a complex array by multiplying with the
    reciprocal, which the floor keeps finite.  It is read from the float64
    view, so the modulus of no complex entry can overflow."""
    top = np.abs(np.ascontiguousarray(x).view(np.float64)).max(initial=0.0)
    return 2.0 ** max(math.frexp(top)[1] - 1, -1022)


def _norm(x: np.ndarray) -> float:
    """||x|| as p ||x / p||, p = _binary_scale(x), so that no square over- or
    underflows: bit for bit np.linalg.norm(x) wherever none of its squares does."""
    p = _binary_scale(x)
    return p * float(np.linalg.norm(x / p))


def _rank_from_singular_values(s: np.ndarray, shape, scale: float | None = None) -> int:
    """Numerical rank: the singular values above max(shape) * eps times scale.

    scale defaults to the largest singular value; a matrix whose scale is
    known beforehand, such as a residual of orthonormal columns (scale 1),
    passes it.  This is the package's only rank decision.
    """
    top = s[0] if s.size and scale is None else scale
    if s.size == 0 or top <= 0.0:
        return 0
    return int(np.sum(s > max(shape) * _EPS * top))


def _orthonormal_columns(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of mat, via rank-revealing SVD."""
    if mat.shape[1] == 0:
        return mat
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, :_rank_from_singular_values(s, mat.shape)]


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
        dtype = np.complex128 if np.iscomplexobj(basis) else np.float64
        basis = np.array(basis, dtype=dtype)
        n, k = basis.shape
        if not np.isfinite(basis).all():
            raise ValueError("basis has non-finite entries")
        if n < 1:
            raise ValueError("ambient dimension must be positive")
        if k > n:
            raise ValueError(f"{k} basis columns cannot be independent in dimension {n}")
        if k:
            defect = np.max(np.abs(basis.conj().T @ basis - np.eye(k)))
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
        largest.  An empty set gives the zero subspace; ambient_dim is then
        required.
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
        dtype = field_dtype(field or (COMPLEX if np.iscomplexobj(stack) else REAL))
        imag = np.iscomplexobj(stack) and dtype == np.float64
        mat = np.asarray(stack.real if imag else stack, dtype=dtype)
        if (stack.shape[1:] == (ambient_dim,) and not (imag and np.any(stack.imag != 0))
                and np.isfinite(mat).all()):
            return cls(_orthonormal_columns(mat.T))
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
        return COMPLEX if np.iscomplexobj(self.basis) else REAL

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
        MEMBERSHIP_RTOL * max(1, ||x||); membership violations are
        errors, never silent projections.  The norms are taken of x / p,
        p = _binary_scale(x), so that none overflows; p times them is the
        norms of x, bit for bit, wherever those neither over- nor underflow.
        """
        x = as_field_vector(x, self.ambient_dim, self.dtype, what=what)
        p = _binary_scale(x)
        w = x / p
        gap = float(np.linalg.norm(self.project(w) - w))
        if p * gap > MEMBERSHIP_RTOL and gap > MEMBERSHIP_RTOL * float(np.linalg.norm(w)):
            raise ValueError(f"{what} is not in its subspace (distance {p * gap:.3e})")
        return x

    def complement(self) -> "Subspace":
        """Orthogonal complement; dimensions add up to ambient_dim exactly."""
        n, k = self.basis.shape
        if k == 0:
            return Subspace(np.eye(n, dtype=self.dtype))
        if k == n:
            return Subspace(np.zeros((n, 0), dtype=self.dtype))
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(u[:, k:])

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, field={self.field})"


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if a.field != b.field:
        raise ValueError(f"fields differ: {a.field} vs {b.field}")


def add(a: Subspace, b: Subspace) -> Subspace:
    """Sum of two subspaces, the span of their union."""
    _check_compatible(a, b)
    return Subspace(_orthonormal_columns(np.hstack([a.basis, b.basis])))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, computed as the complement of the sum of complements."""
    _check_compatible(a, b)
    return add(a.complement(), b.complement()).complement()
