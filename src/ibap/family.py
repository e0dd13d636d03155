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
One pass over the chain (_stages) solves every prescription and, where
the chain shows the family dependent, judges it on the way: it refuses a
level whose null part exceeds its rounding, and is the only source of
InfeasiblePrescriptionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .angles import projector_product_norm
from .subspaces import MEMBERSHIP_RTOL, _EPS, Subspace, _check_compatible, _extend, _lean, _norm

#: max-norm tolerance on the Gram defects of biorthogonal_bounds' input
#: sequences: they are caller-built vectors, not stored bases, so this is
#: looser than ORTHONORMALITY_TOL, yet far below any genuine overlap
BIORTHOGONAL_TOL = 1e-10


class IbapFailureError(ValueError):
    """An operation requiring the IBAP was invoked on a family without it."""

    def __init__(self, message: str, report: "IbapReport"):
        super().__init__(message)
        self.report = report


class InfeasibilityCertificate(NamedTuple):
    """Witness that a prescription admits no exact solution.

    best_point is stacked_lstsq's point and residual the largest null part
    it refuses, which is prescription_residual of best_point to rounding.
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

    One factorization is taken on first use and cached.  The level
    chain pairs each U_i, from the last but one up to the first, with an
    orthonormal basis T of the sum of the members after it: one thin SVD
    of the residual B_i - T (T^H B_i), or its norm when U_i is a line,
    gives the level's sines and cosines (subspaces._Level), dim(U_i + T)
    and the columns, projected off T, whose QR (for one column, its
    division by its norm) extends T to a basis of U_i + T.  Every
    trailing-sum basis is thus a column prefix of one basis of
    U_1 + ... + U_m, of width dim_sum; it serves check, every solve, the
    judgment of a dependent family's prescription (_stages), the
    dependent tuple and every shift toward an anchor.  The intersection of
    the complements is the complement of
    S = add(U_1, add(U_2, ... add(U_(m-1), U_m))), whose basis
    is the chain's, so S.complement() has dimension ambient_dim - dim_sum.
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
    The chain's first degenerate level i has a null direction n with
    z = B_i n in the later members' sum; one least-squares solve writes z =
    sum_(j>i) B_j c_j, and the tuple is (0, ..., 0, z, -B_j c_j, ...), scaled.
    """
    if check_independence(family):
        return None
    i, lev = next((i, lev) for i, lev in enumerate(family._chain[0]) if lev.degenerate)
    z = family[i].basis @ lev.vh[lev.rank].conj()
    later = family.subspaces[i + 1:]
    coeff = np.linalg.lstsq(np.concatenate([s.basis for s in later], axis=1), z, rcond=None)[0]
    chunks = np.split(coeff, np.cumsum([s.dim for s in later])[:-1])
    parts = [np.zeros_like(z)] * i + [z] + [-(s.basis @ c) for s, c in zip(later, chunks)]
    scale = max(_norm(p) for p in parts)
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


def _stages(family: Family, pres: list) -> list:
    """The recursion's stages on a validated prescription: entry j meets the
    last j + 1 constraints, each level's along its kept directions.

    Level i factors U_i (basis B_i) against the later members' basis T as
    B_i - T C = W S V^H, C = T^H B_i.  With v the stage below and
    g = V^H B_i^H (u_i - v), the step v + W_r (g[:r] / S_r) applies the
    resolvents (I - C^H C)^(-1) = V S^-2 V^H and (I - C C^H)^(-1) C; W holds
    no component in T (subspaces._factor_level), so the step is backward
    stable down to the rank cutoff, where it is cut.  On a family that the
    chain shows dependent, some x = v + z, z orthogonal to T, meets
    B_i^H x = B_i^H u_i exactly when the null part g[r:] is 0 (Bjorck,
    Numerical Methods for Least Squares Problems, 1996); a level is refused
    where its norm exceeds MEMBERSHIP_RTOL ||b|| (b the stacked coordinates)
    + ||eg[r:]|| + 4 n eps subspaces._lean(g[:r], S), the lean of the kept
    directions toward the null ones.  eg = |C V|^T err + 4 n eps (||u_i||
    + ||v||) bounds the rounding of g (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 8) and err that of v's chain
    coordinates: 4 n eps ||u_m|| on U_m's block, (eg[:r] + 4 n eps |g[:r]|)
    / S_r on each kept block.  The refusal names the level with the largest
    refused null part, which its certificate holds with the last stage.
    """
    judge = not check_independence(family)
    if judge:
        rtol = MEMBERSHIP_RTOL * _norm(np.concatenate(
            [s.basis.conj().T @ u for s, u in zip(family.subspaces, pres)]))
        e = 4 * family.ambient_dim * _EPS
        err = np.full(family.dims[-1], e * _norm(pres[-1]))
    stages, judged = [pres[-1]], []
    for i, lev in reversed(list(enumerate(family._chain[0]))):
        u, v, r = pres[i], stages[-1], lev.rank
        g = lev.vh @ (family[i].basis.conj().T @ (u - v))
        stages.append(v + lev.w[:, :r] @ (g[:r] / lev.sines[:r]))
        if judge:
            eg = np.abs(lev.cv).T @ err + e * (_norm(u) + _norm(v))
            judged.append((_norm(g[r:]), i + 1, rtol + _norm(eg[r:]) + e * _lean(g[:r], lev.sines)))
            err = np.concatenate([err, (eg[:r] + e * np.abs(g[:r])) / lev.sines[:r]])
    residual, level, allowance = max([t for t in judged if t[0] > t[2]], default=(0.0, 0, 0.0))
    if residual:
        raise InfeasiblePrescriptionError(
            f"prescription is infeasible at level {level} "
            f"(residual {residual:.3e}, allowance {allowance:.3e})",
            InfeasibilityCertificate(residual=residual, best_point=stages[-1]))
    return stages


def stacked_lstsq(family: Family, prescription: list) -> np.ndarray:
    """The last of _stages on a validated prescription: the minimal-norm
    solution, judged on the way where the chain shows the family dependent."""
    return _stages(family, prescription)[-1]


def infeasibility_certificate(family: Family, prescription):
    """The certificate of stacked_lstsq's refusal of the prescription, or
    None; a zero-sum prescription with nonzero members always has one.
    An independent family attains every prescription and is not judged."""
    try:
        stacked_lstsq(family, validate_prescription(family, prescription))
    except InfeasiblePrescriptionError as err:
        return err.certificate
    return None


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
    shape = np.shape(sequences[0][0])
    for i, seq in enumerate(sequences):
        if any(np.shape(v) != shape for v in seq):
            raise ValueError(f"sequence {i + 1} holds a vector of shape other than {shape}, "
                             "that of the first vector of sequence 1")
    # the three spans share one field, complex when any sequence is
    mats = [np.column_stack(seq) for seq in sequences]
    dtype = np.complex128 if any(np.iscomplexobj(m) for m in mats) else np.float64
    mats = [np.asarray(m, dtype=dtype) for m in mats]
    for i, cols in enumerate(mats):
        gram_defect = np.max(np.abs(cols.conj().T @ cols - np.eye(length)))
        if gram_defect > BIORTHOGONAL_TOL:
            raise ValueError(f"sequence {i + 1} is not orthonormal (defect {gram_defect:.3e})")
    spans = [Subspace.from_spanning(m.T, m.shape[0]) for m in mats]
    pairs = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        cross = mats[i].conj().T @ mats[j]
        off = cross - np.diag(np.diag(cross))
        worst = float(np.max(np.abs(off)))
        if worst > BIORTHOGONAL_TOL:
            raise ValueError(
                f"sequences {i + 1} and {j + 1} are not cross-orthogonal "
                f"off the diagonal (defect {worst:.3e})")
        sup = float(np.max(np.abs(np.diag(cross))))
        pairs.append(PairBound(pair=(i + 1, j + 1), sup_inner=sup, lower=sup * sup, upper=sup,
                               norm=projector_product_norm(spans[i], spans[j])))
    condition_sum = sum(math.sqrt(p.sup_inner) for p in pairs)
    fam = Family(tuple(spans))
    return BiorthogonalReport(pairs=tuple(pairs), condition_sum=condition_sum,
                              family=fam, ibap=verify_ibap(fam))
