"""Projector-product norms and Friedrichs angles between subspace pairs.

These two scalars carry all the geometric information used by the
family-level feasibility certificates and the convergence rate bound.
Both come from one thin SVD of the residual R = B - T (T^H B) of a basis
B of one subspace off an orthonormal basis T of the other: its singular
values are the sines of the principal angles, accurate where the angles
are small (Knyazev & Argentati, SIAM J. Sci. Comput. 23, 2002), and the
cosine paired with the sine s_j is ||T^H B v_j|| for its right singular
vector v_j.  The same factorization gives each level of a family's
trailing-sum chain (see Family) and the recursion's level step; its rank
(the sines above the cutoff at unit scale) is the one rank decision that
the verdict, the degenerate flags, gamma and the recursion's refusal read.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .subspaces import Subspace, _check_compatible, _rank_from_singular_values, intersect


class _Level(NamedTuple):
    """A subspace U against an orthonormal tail basis T, from one thin SVD.

    The residual R of the basis B of U off T is W diag(sines) vh, the
    sines descending, and cosines[j] = ||C v_j|| with C = T^H B is paired
    with sines[j].  rank counts the sines above the package cutoff at
    unit scale, so it is dim(U + T) - dim T, and the first rank columns
    of w, projected off T after the SVD, extend T to a basis of U + T;
    they are the only columns that the chain and the level step read.
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
    _check_compatible(u, v)
    pu = u.basis @ u.basis.conj().T
    pv = v.basis @ v.basis.conj().T
    w = intersect(u, v)
    pw = w.basis @ w.basis.conj().T
    dense = float(np.linalg.norm(pu @ pv - pw, 2))
    return abs(cos_friedrichs(u, v) - dense)
