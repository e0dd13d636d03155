"""Families of subspaces and the inverse best approximation property.

A family (U_1, ..., U_m) satisfies the inverse best approximation
property (IBAP) when every prescription (u_1, ..., u_m) with u_i in U_i
is realized as the tuple of best approximations of some point x, that is
P_i x = u_i for all i.  In finite dimension this holds exactly when the
subspaces are linearly independent.  The decision and the per-level
certificates (trailing-sum projector norms, Friedrichs angles, gamma
constants), which quantify how well-conditioned it is and feed the
convergence rate bound of the iterative solver, all come from one
factorization of the residual per level, cached on the Family: a thin
SVD, or for a line the residual's norm (see subspaces._factor_level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .angles import projector_product_norm
from .subspaces import (MEMBERSHIP_RTOL, _EPS, Subspace, _check_compatible, _extend, _norm,
                        _rank_from_singular_values)

#: max-norm tolerance on the Gram defects of biorthogonal_bounds' input
#: sequences: they are caller-built vectors, not stored bases, so this is
#: looser than ORTHONORMALITY_TOL, yet far below any genuine overlap
BIORTHOGONAL_TOL = 1e-10


class DependentFamilyError(ValueError):
    """The subspaces admit a nonzero tuple summing to zero.

    The certificate attribute holds such a tuple (u_1, ..., u_m), one
    vector per subspace, scaled so the largest has unit norm.
    """

    def __init__(self, message: str, certificate):
        super().__init__(message)
        self.certificate = certificate


class IbapFailureError(ValueError):
    """An operation requiring the IBAP was invoked on a family without it."""

    def __init__(self, message: str, report: "IbapReport"):
        super().__init__(message)
        self.report = report


class InfeasibilityCertificate(NamedTuple):
    """Witness that a prescription admits no exact solution.

    residual is the distance of the stacked coordinates b from the kept
    range (see _checked_lstsq); best_point attains it.
    """

    residual: float
    best_point: np.ndarray


class InfeasiblePrescriptionError(ValueError):
    def __init__(self, message: str, certificate: InfeasibilityCertificate):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True, eq=False)
class Family:
    """An ordered family of subspaces sharing ambient dimension and field.

    Two factorizations are taken on first use and cached.  The level
    chain pairs each U_i, from the last but one up to the first, with an
    orthonormal basis T of the sum of the members after it: one thin SVD
    of the residual B_i - T (T^H B_i), or its norm when U_i is a line,
    gives the level's sines and cosines (subspaces._Level), dim(U_i + T)
    and the columns, projected off T, whose QR (for one column, its
    division by its norm) extends T to a basis of U_i + T.  Every
    trailing-sum basis is thus a column prefix of one basis of
    U_1 + ... + U_m, of width dim_sum; it serves check, the recursion and
    an independent family's iteration.  The full SVD of the stacked bases
    serves only the stacked route (direct_solve, stacked_lstsq, the
    dependent tuple), cut at dim_sum: its smallest singular value is at
    most every level sine, so where it shows full column rank the chain
    is not built.
    """

    subspaces: tuple

    def __post_init__(self):
        subs = tuple(self.subspaces)
        if not subs:
            raise ValueError("a family needs at least one subspace")
        for s in subs:
            if not isinstance(s, Subspace):
                raise TypeError(f"family members must be Subspace, got {type(s).__name__}")
            _check_compatible(subs[0], s)
        object.__setattr__(self, "subspaces", subs)

    @property
    def ambient_dim(self) -> int:
        return self.subspaces[0].ambient_dim

    @property
    def field(self) -> str:
        return self.subspaces[0].field

    @property
    def dtype(self):
        return self.subspaces[0].dtype

    @property
    def dims(self) -> tuple:
        return tuple(s.dim for s in self.subspaces)

    def __len__(self) -> int:
        return len(self.subspaces)

    def __iter__(self):
        return iter(self.subspaces)

    def __getitem__(self, i):
        return self.subspaces[i]

    def __repr__(self) -> str:
        return f"Family(dims={list(self.dims)}, ambient={self.ambient_dim}, field={self.field})"

    @cached_property
    def _chain(self):
        """The levels' factorizations, top first, a basis of the sum whose
        column prefixes span the trailing sums, and each level's prefix width."""
        basis = self.subspaces[-1].basis
        levels, widths = [], []
        for s in reversed(self.subspaces[:-1]):
            widths.append(basis.shape[1])
            lev, basis = _extend(basis, s.basis)
            levels.append(lev)
        basis.setflags(write=False)
        return tuple(reversed(levels)), basis, tuple(reversed(widths))

    @cached_property
    def _stacked(self):
        """Read-only full SVD (u, s, vh) of the stacked bases and its rank, dim_sum."""
        mat = np.concatenate([s.basis for s in self.subspaces], axis=1)
        u, s, vh = np.linalg.svd(mat, full_matrices=True)
        full = _rank_from_singular_values(s, mat.shape) == mat.shape[1]
        rank = mat.shape[1] if full else self.dim_sum
        for arr in (u, s, vh):
            arr.setflags(write=False)
        return u, s, vh, rank

    @property
    def dim_sum(self) -> int:
        """Dimension of U_1 + ... + U_m: dim U_m plus each level's rank."""
        return self._chain[1].shape[1]


class LevelCertificate(NamedTuple):
    """Certificates for one level i, pairing U_i against the trailing sum.

    norm is the projector-product norm of the pair, cos_angle the
    Friedrichs angle cosine, gamma the optimal constant bounding
    ||u|| <= gamma * ||(I - P_trailing) u|| over u in U_i, which is one
    over the smallest singular value of the level's residual; it is infinite
    exactly when a sine falls below the rank cutoff, that is when U_i
    meets the trailing sum.  degenerate flags that same rank decision,
    the one the verdict is made of.
    """

    index: int
    norm: float
    cos_angle: float
    gamma: float
    degenerate: bool


class IbapReport(NamedTuple):
    """Outcome of the IBAP decision with its per-level certificates.

    verdict coincides with linear independence of the subspaces, the
    exact finite-dimensional criterion, decided by the ranks of the level
    chain; alpha is the a-priori linear rate bound of the periodic
    projection iteration (1.0 when no uniform guarantee exists).  With
    the property, alpha is below 1 in exact arithmetic, but in double
    precision it rounds to 1.0 once the smallest level angle is below
    about 1e-8.
    """

    verdict: bool
    independent: bool
    levels: tuple
    alpha: float
    sum_dims: int
    dim_sum: int


def trailing_sums(family: Family) -> list:
    """For each level i < m, the sum of the subspaces after it.

    Each is a column prefix of the family's cached chain basis.
    """
    _, basis, widths = family._chain
    return [Subspace(basis[:, :width]) for width in widths]


def check_independence(family: Family) -> bool:
    """Whether the only tuple with u_i in U_i and zero sum is the zero tuple.

    Finite-dimensional test: the dimension of the sum equals the sum of
    the dimensions.
    """
    return family.dim_sum == sum(family.dims)


def dependent_tuple(family: Family):
    """A nonzero tuple (u_i) with u_i in U_i and sum zero, or None.

    Such a tuple certifies both linear dependence and, by the zero-sum
    infeasibility argument, a prescription with empty solution set.
    Independence is read from the stacked SVD's rank, so a generic family
    takes that one factorization and no level chain.
    """
    if family._stacked[3] == sum(family.dims):
        return None
    coeff = family._stacked[2][-1].conj()
    chunks = np.split(coeff, np.cumsum(family.dims)[:-1])
    parts = [s.basis @ c for s, c in zip(family.subspaces, chunks)]
    scale = max(float(np.linalg.norm(p)) for p in parts)
    return [p / scale for p in parts]


def verify_ibap(family: Family) -> IbapReport:
    """Decide the IBAP and assemble all per-level certificates.

    Everything comes from the family's cached level chain: the verdict is
    independence (each level's rank equals its dimension), and each level
    of U_i against its trailing sum gives its norm, Friedrichs cosine and
    gamma (see subspaces._Level), and is flagged degenerate exactly when its
    gamma is infinite, so the verdict holds exactly when no level is
    degenerate.  alpha is sqrt(1 - prod_i s_i^2) over the sines
    s_i paired with the level cosines c_i: since c(M, N) = c(M-perp,
    N-perp), these are the angles between each complement and the
    intersection of the later complements that bound the iteration rate.
    Degenerate numerics never raise.
    """
    independent = check_independence(family)
    chain = family._chain[0]
    levels = tuple(LevelCertificate(index=i + 1, norm=lev.norm, cos_angle=lev.cos_angle,
                                    gamma=lev.gamma, degenerate=lev.degenerate)
                   for i, lev in enumerate(chain))
    alpha = 1.0
    if independent:
        alpha = math.sqrt(max(0.0, 1.0 - math.prod(lev.sine ** 2 for lev in chain)))
    return IbapReport(verdict=independent, independent=independent, levels=levels,
                      alpha=alpha, sum_dims=sum(family.dims), dim_sum=family.dim_sum)


def validate_prescription(family: Family, prescription) -> list:
    """Check one vector per subspace, each finite and a member of its subspace."""
    return [s.member(u, f"prescription vector {i + 1}")
            for i, (s, u) in enumerate(zip(family.subspaces, _counted(family, prescription)))]


def _counted(family: Family, prescription) -> list:
    """The prescription as a list, checked to hold one vector per subspace."""
    prescription = list(prescription)
    if len(prescription) != len(family):
        raise ValueError(f"prescription has {len(prescription)} vectors for {len(family)} subspaces")
    return prescription


def _checked_lstsq(b: np.ndarray, factors):
    """Minimal-norm least-squares x of a x = b from (u, s, vh, rank), an SVD of a^H.

    Returns (x, residual, feasible): the residual is b's distance from the
    kept range, ||b - V_r c|| with c = V_r^H b, and b is feasible within
    MEMBERSHIP_RTOL ||b||, the rule of Subspace.member, plus that range's
    rounding: the backward error e leans V_r by up to e / (s_i - s_(rank+1))
    at each kept i.
    """
    u, s, vh, rank = factors
    c = vh[:rank] @ b
    x = u[:, :rank] @ (c / s[:rank])
    residual = _norm(b - vh[:rank].conj().T @ c)
    e = 4 * max(u.shape[0], vh.shape[1]) * _EPS * np.max(s, initial=0.0)
    lean = _norm(c / (s[:rank] - (s[rank] if rank < len(s) else 0.0)))
    return x, residual, not residual > MEMBERSHIP_RTOL * _norm(b) + e * lean


def stacked_lstsq(family: Family, prescription: list):
    """_checked_lstsq on the stacked coordinate system, from the family's stacked SVD.

    Its rows are the conjugate-transposed bases, so it is equivalent to
    P_i x = u_i for prescriptions inside their subspaces.  Returns the
    least-squares point and its InfeasibilityCertificate, or None if feasible.
    """
    b = np.concatenate([s.basis.conj().T @ u for s, u in zip(family.subspaces, prescription)])
    x, residual, feasible = _checked_lstsq(b, family._stacked)
    return x, None if feasible else InfeasibilityCertificate(residual=residual, best_point=x)


def infeasibility_certificate(family: Family, prescription):
    """Certificate that the prescription has no solution, or None; a
    zero-sum prescription with nonzero members always produces one."""
    return stacked_lstsq(family, validate_prescription(family, prescription))[1]


def epsilon_solve(family: Family, prescription, epsilon: float) -> np.ndarray:
    """Point whose projections approximate the prescription within epsilon.

    Linear independence is required and, in finite dimension, yields the
    exact solution; ArithmeticError reports a stacked residual of the point
    above epsilon, which only numerics can cause.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pres = validate_prescription(family, prescription)
    cert = dependent_tuple(family)
    if cert is not None:
        raise DependentFamilyError(
            "the subspaces are linearly dependent; approximate prescriptions are unattainable",
            cert)
    x = stacked_lstsq(family, pres)[0]
    residual = _norm(np.concatenate(
        [s.basis.conj().T @ (x - u) for s, u in zip(family.subspaces, pres)]))
    if residual > epsilon:
        raise ArithmeticError(
            f"stacked solve residual {residual:.3e} exceeds epsilon {epsilon:.3e}")
    return x


def uniqueness_check(family: Family) -> bool:
    """Whether prescriptions admit at most one solution.

    True exactly when the intersection of the complements is trivial,
    i.e. the subspaces together span the whole space.
    """
    return family.dim_sum == family.ambient_dim


class PairBound(NamedTuple):
    """Sandwich bounds for one pair of nearly bi-orthogonal sequences.

    sup_inner is the largest same-index scalar product magnitude; the
    computed projector-product norm of the two spans must lie between
    its square and itself.
    """

    pair: tuple
    sup_inner: float
    lower: float
    upper: float
    norm: float


class BiorthogonalReport(NamedTuple):
    pairs: tuple
    condition_sum: float
    family: Family
    ibap: IbapReport


def biorthogonal_bounds(sequences) -> BiorthogonalReport:
    """Bounds relating same-index scalar products to projector norms.

    Takes three orthonormal vector sequences of equal finite length whose
    members at different indices are pairwise orthogonal across
    sequences.  For each pair of sequences the projector-product norm of
    the spans is sandwiched between the squared and plain supremum of the
    same-index scalar products.  The report also carries the sufficient
    condition sum (the three square-rooted suprema); when it is below 1
    the spanned family satisfies the IBAP.
    """
    sequences = [list(seq) for seq in sequences]
    if len(sequences) != 3:
        raise ValueError("exactly three sequences are required")
    length = len(sequences[0])
    if length == 0 or any(len(seq) != length for seq in sequences):
        raise ValueError("sequences must share the same positive length")
    mats = []
    for i, seq in enumerate(sequences):
        cols = np.column_stack([np.asarray(v) for v in seq])
        gram_defect = np.max(np.abs(cols.conj().T @ cols - np.eye(length)))
        if gram_defect > BIORTHOGONAL_TOL:
            raise ValueError(f"sequence {i + 1} is not orthonormal (defect {gram_defect:.3e})")
        mats.append(cols)
    pairs = []
    sup_inners = {}
    for i in range(3):
        for j in range(i + 1, 3):
            cross = mats[i].conj().T @ mats[j]
            off = cross - np.diag(np.diag(cross))
            worst = float(np.max(np.abs(off))) if length > 1 else 0.0
            if worst > BIORTHOGONAL_TOL:
                raise ValueError(
                    f"sequences {i + 1} and {j + 1} are not cross-orthogonal "
                    f"off the diagonal (defect {worst:.3e})")
            sup_inners[(i, j)] = float(np.max(np.abs(np.diag(cross))))
    spans = [Subspace.from_spanning(m.T, m.shape[0]) for m in mats]
    for i in range(3):
        for j in range(i + 1, 3):
            sup = sup_inners[(i, j)]
            norm = projector_product_norm(spans[i], spans[j])
            pairs.append(PairBound(pair=(i + 1, j + 1), sup_inner=sup,
                                   lower=sup * sup, upper=sup, norm=norm))
    condition_sum = sum(math.sqrt(p.sup_inner) for p in pairs)
    fam = Family(tuple(spans))
    return BiorthogonalReport(pairs=tuple(pairs), condition_sum=condition_sum,
                              family=fam, ibap=verify_ibap(fam))
