"""Projector-product norms and Friedrichs angles between subspace pairs.

These two scalars carry all the geometric information used by the
family-level feasibility certificates and the convergence rate bound.
Both are principal cosines, read from one SVD of the cross-Gram matrix.
"""

from __future__ import annotations

import numpy as np

from .subspaces import Subspace, _check_compatible, add, intersect

#: norms at or above 1 minus this band are flagged numerically degenerate
DEGENERACY_BAND = 1e-8


def principal_cosines(u: Subspace, v: Subspace) -> np.ndarray:
    """Cosines of the principal angles between two subspaces, descending.

    They are the singular values of the cross-Gram matrix of the two
    bases (Bjorck & Golub, Math. Comp. 27, 1973), clamped to [0, 1];
    there are min(dim u, dim v) of them.
    """
    if u.dim == 0 or v.dim == 0:
        return np.zeros(0)
    s = np.linalg.svd(u.basis.conj().T @ v.basis, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def _nth_cosine(cosines: np.ndarray, d: int) -> float:
    """cosines[d], or 0 when fewer than d + 1 principal angles exist."""
    return float(cosines[d]) if d < cosines.size else 0.0


def projector_product_norm(u: Subspace, v: Subspace) -> float:
    """Operator norm of the composition of the two orthogonal projectors.

    Equals the largest singular value of the cross-Gram matrix of the two
    bases, clamped to [0, 1]; this is the cosine of the smallest principal
    angle between the subspaces.  Symmetric in its arguments.
    """
    _check_compatible(u, v)
    return _nth_cosine(principal_cosines(u, v), 0)


def is_degenerate(norm: float) -> bool:
    """Whether a projector-product norm sits in the near-1 degeneracy band."""
    return norm >= 1.0 - DEGENERACY_BAND


def cos_friedrichs(u: Subspace, v: Subspace) -> float:
    """Cosine of the Friedrichs angle between two subspaces.

    The first d = dim u + dim v - dim(u + v) principal cosines equal 1
    and belong to the intersection; the Friedrichs cosine is the next
    one, s[d], read from one SVD of the cross-Gram matrix with the
    package's rank cutoff deciding d.  When one subspace contains the
    other no principal angle is left and the value is 0.
    """
    _check_compatible(u, v)
    return _nth_cosine(principal_cosines(u, v), u.dim + v.dim - add(u, v).dim)


def angle_identity_gap(u: Subspace, v: Subspace) -> float:
    """Discrepancy of the identity c(U, V) = ||P_U P_V - P_(U meet V)||.

    Evaluates the right-hand side on dense projector matrices and returns
    the absolute difference from cos_friedrichs; zero in exact arithmetic.
    """
    _check_compatible(u, v)
    pu = u.basis @ u.basis.conj().T
    pv = v.basis @ v.basis.conj().T
    w = intersect(u, v)
    pw = w.basis @ w.basis.conj().T
    dense = float(np.linalg.norm(pu @ pv - pw, 2))
    return abs(cos_friedrichs(u, v) - dense)
