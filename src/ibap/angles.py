"""Projector-product norms and Friedrichs angles between subspace pairs.

These two scalars carry all the geometric information used by the
family-level feasibility certificates and the convergence rate bound.
Both come from the residual R = B - T (T^H B) of a basis B of one
subspace off an orthonormal basis T of the other, factored by one thin
SVD (a one-column R = r is its own singular triple, read from its
norm): its singular values are the sines of the principal angles,
accurate where the angles are small (Knyazev & Argentati, SIAM J. Sci.
Comput. 23, 2002), and the cosine paired with the sine s_j is
||T^H B v_j|| for its right singular vector v_j.  That factorization (subspaces._factor_level) also gives
each level of a family's trailing-sum chain (see Family), the lattice
operations add and intersect, and the recursion's level step; its rank
(the sines above the cutoff at unit scale) is the one rank decision that
the verdict, the degenerate flags, gamma, the dimensions of sums and
intersections and the recursion's refusal read.
"""

from __future__ import annotations

import numpy as np

from .subspaces import Subspace, _check_compatible, _factor_level, _Level, intersect


def _pair(u: Subspace, v: Subspace) -> _Level:
    """u as a level against the tail v."""
    _check_compatible(u, v)
    return _factor_level(u.basis, v.basis)


def projector_product_norm(u: Subspace, v: Subspace) -> float:
    """Operator norm of the composition of the two orthogonal projectors.

    The cosine of the smallest principal angle between the subspaces,
    clamped to [0, 1]; symmetric in its arguments.
    """
    return _pair(u, v).norm


def cos_friedrichs(u: Subspace, v: Subspace) -> float:
    """Cosine of the Friedrichs angle between two subspaces.

    The principal angles whose sines fall below the package's rank cutoff
    belong to the intersection; the Friedrichs cosine is the one paired
    with the smallest sine above it.  When one subspace contains the
    other no principal angle is left and the value is 0.
    """
    return _pair(u, v).cos_angle


def angle_identity_gap(u: Subspace, v: Subspace) -> float:
    """Discrepancy of the identity c(U, V) = ||P_U P_V - P_(U meet V)||.

    Evaluates the right-hand side on dense projector matrices and returns
    the absolute difference from cos_friedrichs; zero in exact arithmetic.
    """
    pu, pv, pw = (s.basis @ s.basis.conj().T for s in (u, v, intersect(u, v)))
    return abs(cos_friedrichs(u, v) - float(np.linalg.norm(pu @ pv - pw, 2)))
