"""Existence criteria by rank and subspace constancy, and the spectrum scan.

At finite dimension every matrix is a finite-rank Fredholm operator, so the
finite-rank, Fredholm and semi-Fredholm existence characterizations all
collapse to the same computation: constancy of rank (equivalently nullity
n - r, equivalently corank m - r) of t - lam*s across the sampled region,
anchored at lam = 0. :func:`finite_rank_criterion` is therefore also the
Fredholm and semi-Fredholm criterion; its report exposes the nullity and
corank verdicts as views of the one rank profile. The Moore-Penrose
characterization is sharper: the pseudoinverse family (t - lam*s)^+ is
itself the resolvent exactly when the kernel and range subspaces stay fixed,
and this module computes both sides of that equivalence independently so the
agreement is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, SingularSystemError
from .geninv import mp_axiom_residuals
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_matrix,
    factor,
    factors,
    numerical_rank,
    op_norms2,
    projector,
    ranks_and_marginals,
    solve_stack,
)
from .resolvent import DiskGrid, Pencil, max_identity_residual, pair_indices


@dataclass(frozen=True)
class RankProfile:
    """Rank, nullity and corank of t - lam*s at each sampled point.

    marginal flags points whose smallest retained singular value sits within
    a factor of 10 of the rank cutoff, i.e. where the integer rank is not a
    robust decision.
    """

    points: tuple[complex, ...]
    ranks: tuple[int, ...]
    nullities: tuple[int, ...]
    coranks: tuple[int, ...]
    marginal: tuple[bool, ...]

    def __post_init__(self):
        lengths = {len(self.points), len(self.ranks), len(self.nullities),
                   len(self.coranks), len(self.marginal)}
        if len(lengths) != 1:
            raise ValueError("profile lists must have equal length")


def rank_profile(p: Pencil, grid: DiskGrid, tol: TolerancePolicy = DEFAULT_TOL) -> RankProfile:
    """Numerical rank of t - lam*s at every grid point, one values-only SVD per chunk."""
    m, n = p.shape
    ranks: list[int] = []
    marginal: list[bool] = []
    for lams in p.point_chunks(grid.points, live=1):
        chunk_ranks, chunk_marginal = ranks_and_marginals(p.at_many(lams), tol)
        ranks += chunk_ranks.tolist()
        marginal += chunk_marginal.tolist()
    return RankProfile(
        points=tuple(grid.points),
        ranks=tuple(ranks),
        nullities=tuple(n - r for r in ranks),
        coranks=tuple(m - r for r in ranks),
        marginal=tuple(marginal),
    )


def _constant_from_zero(profile: RankProfile, values: tuple[int, ...]) -> bool:
    anchor = values[profile.points.index(0)]
    return all(v == anchor for v in values)


@dataclass(frozen=True)
class RankConstancyReport:
    """Verdict of the rank-constancy existence criterion, with its profile.

    Nullity n - r and corank m - r are constant exactly when the rank r is,
    so this report also carries the Fredholm and semi-Fredholm verdicts:
    nullity_constant and corank_constant read the profile's own columns.
    """

    verdict: bool
    profile: RankProfile

    @property
    def nullity_constant(self) -> bool:
        return _constant_from_zero(self.profile, self.profile.nullities)

    @property
    def corank_constant(self) -> bool:
        return _constant_from_zero(self.profile, self.profile.coranks)


def finite_rank_criterion(
    p: Pencil, grid: DiskGrid, tol: TolerancePolicy = DEFAULT_TOL
) -> RankConstancyReport:
    """Existence iff rank(t - lam*s) equals rank(t) at every sampled point.

    Constancy is judged against the rank at lam = 0, which anchors every
    criterion in this module.
    """
    profile = rank_profile(p, grid, tol)
    return RankConstancyReport(
        verdict=_constant_from_zero(profile, profile.ranks),
        profile=profile,
    )


@dataclass(frozen=True)
class MPResolventReport:
    """Two independent views of whether (t - lam*s)^+ is the resolvent.

    kernel_gaps / range_gaps measure subspace drift of N(t-lam s), R(t-lam s)
    against lam = 0; constancy_verdict demands all gaps stay under gap_tol.
    identity_verdict checks the resolvent identity pairwise on the
    pointwise-computed pseudoinverse family itself (plus its axioms), never
    through the explicit resolvent formula, so the two verdicts are computed
    along genuinely different routes and must agree. max_identity_residual
    is the exact spectral maximum over the sampled pairs, relative to
    ||(t - 0*s)^+||, found by :func:`max_identity_residual`'s screened pass.
    """

    points: tuple[complex, ...]
    kernel_gaps: tuple[float, ...]
    range_gaps: tuple[float, ...]
    max_identity_residual: float
    max_axiom_residual: float
    constancy_verdict: bool
    identity_verdict: bool


def mp_resolvent_characterization(
    p: Pencil, grid: DiskGrid, tol: TolerancePolicy = DEFAULT_TOL, seed: int = 0
) -> MPResolventReport:
    """Evaluate both sides of the pseudoinverse-resolvent equivalence.

    Each grid point is factored once; its pseudoinverse, kernel and range
    are views of that one SVD. Chunk by chunk of the grid, the points are
    factored by one batched SVD, and the subspace gaps and Moore-Penrose
    axiom residuals are stacked norms.
    """
    return _mp_characterization(p, grid, tol, seed)[0]


def _mp_characterization(
    p: Pencil, grid: DiskGrid, tol: TolerancePolicy, seed: int
) -> tuple[MPResolventReport, np.ndarray]:
    """The report of :func:`mp_resolvent_characterization` and the stack of
    pseudoinverses, one per grid point."""
    t_factor = factor(p.t, tol)
    t_kernel, t_range = projector(t_factor.kernel), projector(t_factor.range)
    m, n = p.shape
    pinvs = np.empty((len(grid.points), n, m), dtype=np.complex128)
    kernel_gaps: list[float] = []
    range_gaps: list[float] = []
    max_axiom = 0.0
    done = 0
    # per point: t - lam s, its u and vh, the pseudoinverse, the projectors
    # and their difference, and the products and deviations of the axioms
    for lams in p.point_chunks(grid.points, live=10):
        pinvs[done : done + len(lams)], kernel_part, range_part, axiom_part = _mp_point_checks(
            p.at_many(lams), t_kernel, t_range, tol
        )
        done += len(lams)
        kernel_gaps += kernel_part
        range_gaps += range_part
        for residuals in axiom_part:
            max_axiom = max(max_axiom, *residuals)
    scale = pinvs[grid.points.index(0)]
    max_identity, _ = max_identity_residual(
        p.s, scale, pinvs, grid.points, pair_indices(len(grid.points), seed)
    )
    constancy = all(g <= tol.gap_tol for g in kernel_gaps + range_gaps)
    identity = max_identity <= tol.residual_tol and max_axiom <= tol.residual_tol
    report = MPResolventReport(
        points=tuple(grid.points),
        kernel_gaps=tuple(kernel_gaps),
        range_gaps=tuple(range_gaps),
        max_identity_residual=max_identity,
        max_axiom_residual=max_axiom,
        constancy_verdict=constancy,
        identity_verdict=identity,
    )
    return report, pinvs


def _mp_point_checks(
    a: np.ndarray, t_kernel: np.ndarray, t_range: np.ndarray, tol: TolerancePolicy
) -> tuple[np.ndarray, list[float], list[float], list[list[float]]]:
    """For one chunk a of t - lam*s: the pseudoinverses, the kernel and range
    gaps against the projectors of t, and the four MP-axiom residuals per point."""
    a_factors = factors(a, tol)
    b = np.stack([a_factor.pinv for a_factor in a_factors])
    kernels = np.stack([projector(a_factor.kernel) for a_factor in a_factors]) - t_kernel
    kernel_gaps = op_norms2(kernels).tolist()
    ranges = np.stack([projector(a_factor.range) for a_factor in a_factors]) - t_range
    range_gaps = op_norms2(ranges).tolist()
    return b, kernel_gaps, range_gaps, mp_axiom_residuals(a, b).tolist()


@dataclass(frozen=True)
class InvertibilityReport:
    """Pseudoinverse-resolvent verdict for the pencil (t, I) next to plain invertibility.

    The two booleans agree: the shifted pseudoinverse family is the resolvent
    exactly when t is invertible, in which case it coincides with the
    classical resolvent and max_classical_residual records the worst
    condition-scaled deviation ||(t-lam I)^+ - (t-lam I)^-1|| / cond over the
    grid (None when t is singular).
    """

    mp_resolvent_ok: bool
    t_invertible: bool
    max_classical_residual: float | None
    mp_report: MPResolventReport


def invertibility_corollary(
    t, grid: DiskGrid, tol: TolerancePolicy = DEFAULT_TOL
) -> InvertibilityReport:
    """Decide invertibility of square t via the shifted pseudoinverse family."""
    t = as_matrix(t)
    n = t.shape[0]
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatchError(f"invertibility needs a square matrix, got {t.shape}")
    pencil = Pencil(t, np.eye(n, dtype=np.complex128))
    report, pinvs = _mp_characterization(pencil, grid, tol, seed=0)
    invertible = numerical_rank(t, tol) == n
    worst: float | None = None
    if invertible:
        worst = 0.0
        done = 0
        # per point: t - lam I, its inverse, the pseudoinverse and their difference
        for lams in pencil.point_chunks(grid.points, live=4):
            try:
                deviations = _classical_deviations(
                    pencil.at_many(lams), pinvs[done : done + len(lams)], tol
                )
            except SingularSystemError:
                worst = np.inf
                break
            done += len(lams)
            for value in deviations:
                worst = max(worst, value)
    return InvertibilityReport(
        mp_resolvent_ok=report.constancy_verdict and report.identity_verdict,
        t_invertible=invertible,
        max_classical_residual=worst,
        mp_report=report,
    )


def _classical_deviations(
    a: np.ndarray, pinvs: np.ndarray, tol: TolerancePolicy
) -> list[float]:
    """||a_k^+ - a_k^-1|| / cond(a_k) for one chunk of square matrices a_k.

    Raises SingularSystemError when some a_k is singular to tolerance.
    """
    classical = solve_stack(a, np.eye(a.shape[1], dtype=np.complex128), tol)
    cond = op_norms2(a) * op_norms2(classical)
    return (op_norms2(pinvs - classical) / cond).tolist()


@dataclass(frozen=True)
class ScanPoint:
    """One sample of the rank-drop scan: rank of t - lam*s at lam."""

    lam: complex
    rank: int
    is_drop: bool


def rectangular_region(
    re_min: float, re_max: float, im_min: float, im_max: float, steps: int
) -> tuple[complex, ...]:
    """Row-major rectangular sampling of the complex plane, steps points per axis."""
    if steps < 1:
        raise ValueError("region needs at least one step per axis")
    res = np.linspace(re_min, re_max, steps)
    ims = np.linspace(im_min, im_max, steps)
    return tuple(complex(re, im) for im in ims for re in res)


def generalized_spectrum_scan(
    p: Pencil, region, tol: TolerancePolicy = DEFAULT_TOL
) -> list[ScanPoint]:
    """Rank of t - lam*s over a region; drop points mark the rank-drop locus.

    A point is a drop point when its rank falls below the maximum rank seen
    anywhere in the region (the generic value). For a pencil (t, I) with
    normal t these are exactly the sampled eigenvalues.
    """
    points = [complex(lam) for lam in region]
    if not points:
        raise ValueError("region is empty")
    ranks: list[int] = []
    for lams in p.point_chunks(points, live=1):
        ranks += ranks_and_marginals(p.at_many(lams), tol)[0].tolist()
    top = max(ranks)
    return [
        ScanPoint(lam=lam, rank=r, is_drop=r < top)
        for lam, r in zip(points, ranks)
    ]
