"""Existence criteria by rank and subspace constancy, and the spectrum scan.

At finite dimension every matrix is a finite-rank Fredholm operator, so the
finite-rank, Fredholm and semi-Fredholm existence characterizations all
collapse to the same computation: constancy of rank (equivalently nullity
n - r, equivalently corank m - r) of t - lam*s across the sampled region,
anchored at lam = 0. :func:`finite_rank_criterion` is therefore also the
Fredholm and semi-Fredholm criterion; its report exposes the rank,
nullity and corank verdicts as views of the one rank profile. That profile
reads its ranks from :func:`resolvent.grid_pass`, which also decides
transversality, so ``RankConstancyReport(existence_check(...).profile)``
is the finite-rank report of the same grid without ranking it again. The
spectrum scan reads its ranks straight from :func:`linalg.grid_ranks` and
keeps them, its points and its drop flags as arrays (:class:`SpectrumScan`),
so a scan builds no Python object per point until its CSV is written. The Moore-Penrose
characterization is sharper: the pseudoinverse family (t - lam*s)^+ is
itself the resolvent exactly when the kernel and range subspaces stay fixed,
and this module computes both sides of that equivalence independently so the
agreement is a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, SingularSystemError
from .geninv import mp_axiom_deviations
from .linalg import (
    DEFAULT_TOL,
    Factor,
    TolerancePolicy,
    as_matrix,
    chunked_stage,
    decided_maximum,
    empty_basis,
    factor,
    factors,
    grid_ranks,
    numerical_rank,
    op_norms2,
    pencil_values,
    relative_residuals,
    residual_bounds,
    solve_stack,
)
from .identity import decide_identity
from .resolvent import DiskGrid, Pencil, RankProfile, grid_pass


def _constant_from_zero(profile: RankProfile, values: tuple[int, ...]) -> bool:
    anchor = values[profile.points.index(0)]
    return all(v == anchor for v in values)


@dataclass(frozen=True)
class RankConstancyReport:
    """Verdict of the rank-constancy existence criterion, as views of its profile.

    verdict holds when the rank is constant. Nullity n - r and corank m - r
    are constant exactly when the rank r is, so this report also carries the
    Fredholm and semi-Fredholm verdicts: nullity_constant and
    corank_constant read the profile's own columns.
    """

    profile: RankProfile

    @property
    def verdict(self) -> bool:
        return _constant_from_zero(self.profile, self.profile.ranks)

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
    return RankConstancyReport(grid_pass(p, grid.points, tol)[0])


@dataclass(frozen=True)
class MPResolventReport:
    """Two independent views of whether (t - lam*s)^+ is the resolvent.

    kernel_gaps / range_gaps measure subspace drift of N(t-lam s), R(t-lam s)
    against lam = 0, as the gaps ||P_lam - P_0||_2 of their orthogonal
    projectors, read off the point's SVD and t's (:meth:`linalg.Factors.gaps`):
    where rank(t - lam s) equals rank(t) = r, the norms of V_0[:r] V_lam[r:]^H
    and of U_0[:, r:]^H U_lam[:, :r], at most 1; exactly 1 where the ranks
    differ.
    constancy_verdict demands all gaps stay under gap_tol.
    identity_verdict checks the resolvent identity on the pointwise-computed
    pseudoinverse family itself (plus its axioms), never through the
    explicit resolvent formula, so the two verdicts are computed along
    genuinely different routes and must agree.

    max_identity_residual: the identity value the verdict was decided on,
        relative to ||(t - 0*s)^+||, from the decision ``analyze`` uses too
        (:func:`identity.decide_identity`), anchored at the member at
        lam = 0: at most residual_tol, it is at least the residual of every
        ordered pair of grid points; above it, the exact residual of one
        pair, a certified lower bound on their maximum
    identity_method: "bound" when the bound on every ordered pair of grid
        points built from the per-point deviations of the pairs (k, 0)
        decided, at most residual_tol; "pairs" when that bound exceeded
        residual_tol, or a point's deviation alone did, and exact residuals
        decided, of the pairs through lam = 0 and then of every other pair
        whose bound exceeded it
    max_axiom_residual: the value the four Moore-Penrose axioms over the
        grid points were decided on; which value it is says axiom_method
    axiom_method: "bound" when it is the largest of the bounds on every
        (point, axiom) residual (:func:`linalg.residual_bounds`), at most
        residual_tol; "exact" when that bound exceeded residual_tol and it
        is the exact maximum, from :func:`linalg.decided_maximum`, which
        takes exact spectral norms only of the few residuals whose bound can
        reach the maximum
    """

    points: tuple[complex, ...]
    kernel_gaps: tuple[float, ...]
    range_gaps: tuple[float, ...]
    max_identity_residual: float
    identity_method: str
    max_axiom_residual: float
    axiom_method: str
    constancy_verdict: bool
    identity_verdict: bool


def mp_resolvent_characterization(
    p: Pencil, grid: DiskGrid, tol: TolerancePolicy = DEFAULT_TOL, st_norm: float | None = None,
    t_factor: Factor | None = None,
) -> MPResolventReport:
    """Evaluate both sides of the pseudoinverse-resolvent equivalence.

    Each grid point is factored once; its pseudoinverse, kernel and range
    are views of that one SVD. Chunk by chunk of the grid, the points are
    factored by one batched SVD, the subspace gaps are stacked norms of
    products of its factors with t's, and the Moore-Penrose axiom residuals
    are bounded; exact residuals are taken only where the largest bound
    exceeds residual_tol. The identity is decided by
    :func:`identity.decide_identity`: by its bound on every ordered pair
    where that meets residual_tol, and otherwise by exact residuals, of the
    pairs through lam = 0 first, on every pair the bound leaves undecided.
    st_norm, when given, is ||s t^+||_2 for the Moore-Penrose inverse t^+
    of t, as :func:`resolvent.build_family` took it: the norm of s times
    the pseudoinverse at lam = 0, which the identity's bound then does not
    take again. t_factor, when given, is ``linalg.factor(p.t, tol)``, as the
    caller took it for :func:`geninv.mp_inverse`: the gaps are read off it,
    and t is not factored again.
    """
    return _mp_characterization(p, grid, tol, st_norm, t_factor)[0]


def _mp_characterization(
    p: Pencil, grid: DiskGrid, tol: TolerancePolicy, st_norm: float | None = None,
    t_factor: Factor | None = None,
) -> tuple[MPResolventReport, np.ndarray]:
    """The report of :func:`mp_resolvent_characterization` and the stack of
    pseudoinverses, one per grid point.

    The axioms are decided bound first: per chunk, each (point, axiom)
    residual ||D||_2 / ||X||_2 is bounded by :func:`linalg.residual_bounds`,
    zero where D is zero. :func:`linalg.decided_maximum` reports the largest
    bound where that is at most residual_tol, and otherwise takes exact
    residuals only where the bound can reach the maximum, rebuilding that
    one axiom's D and X from the point's pseudoinverse through the same
    code, so no verdict rests on a bound's slack.
    """
    t_factor = factor(p.t, tol) if t_factor is None else t_factor
    lams = np.array(grid.points, dtype=np.complex128)

    def stage(part: slice, a: np.ndarray) -> tuple[np.ndarray, ...]:
        a_factors = factors(a, tol)
        pinvs = a_factors.pinvs
        kernel_gaps, range_gaps = a_factors.gaps(t_factor)
        # the axiom bounds need neither u nor vh
        del a_factors
        bounds = np.empty((len(a), 4))
        for axiom, (deviation, scale) in enumerate(mp_axiom_deviations(a, pinvs)):
            bounds[:, axiom] = residual_bounds(deviation, scale)
            # dropped before the next deviation is formed
            del deviation
        return pinvs, kernel_gaps, range_gaps, bounds

    # per point, at the axiom bounds: t - lam s, the pseudoinverse, the two
    # axiom products, one deviation, and the bounds' scaled copy and its
    # squares; before them, u and vh, with the copies and products the gaps
    # take of them, hold fewer
    pinvs, kernel_gaps, range_gaps, axiom_bounds = chunked_stage(p.t, p.s, lams, 7, stage)

    def exact(position: int) -> float:
        point, axiom = divmod(position, 4)
        here = slice(point, point + 1)
        a = pencil_values(p.t, p.s, lams[here])
        (deviation, scale), = mp_axiom_deviations(a, pinvs[here], (axiom,))
        return float(relative_residuals(deviation, scale)[0])

    max_axiom, axiom_method, _ = decided_maximum(axiom_bounds, tol.residual_tol, exact)
    max_identity, method, _ = decide_identity(p.s, pinvs, lams, tol, st_norm)
    constancy = all(g <= tol.gap_tol for g in kernel_gaps.tolist() + range_gaps.tolist())
    identity = max_identity <= tol.residual_tol and max_axiom <= tol.residual_tol
    report = MPResolventReport(
        points=tuple(grid.points),
        kernel_gaps=tuple(kernel_gaps.tolist()),
        range_gaps=tuple(range_gaps.tolist()),
        max_identity_residual=max_identity,
        identity_method=method,
        max_axiom_residual=max_axiom,
        axiom_method=axiom_method,
        constancy_verdict=constancy,
        identity_verdict=identity,
    )
    return report, pinvs


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
    report, pinvs = _mp_characterization(pencil, grid, tol)
    invertible = numerical_rank(t, tol) == n

    def stage(part: slice, a: np.ndarray) -> tuple[np.ndarray]:
        """||a_k^+ - a_k^-1|| / cond(a_k); raises SingularSystemError when
        some a_k is singular to tolerance."""
        classical = solve_stack(a, np.eye(n, dtype=np.complex128), tol)
        cond = op_norms2(a) * op_norms2(classical)
        return (op_norms2(pinvs[part] - classical) / cond,)

    worst: float | None = None
    if invertible:
        # per point: t - lam I, its inverse, the pseudoinverse and their
        # difference; the solve's full-rank screen adds at most
        # linalg.SCREEN_LIVE to t - lam I and frees them before the inverse
        # is built, so four covers it
        lams = np.array(grid.points, dtype=np.complex128)
        try:
            deviations, = chunked_stage(pencil.t, pencil.s, lams, 4, stage)
            worst = max(0.0, *deviations.tolist())
        except SingularSystemError:
            worst = np.inf
    return InvertibilityReport(
        mp_resolvent_ok=report.constancy_verdict and report.identity_verdict,
        t_invertible=invertible,
        max_classical_residual=worst,
        mp_report=report,
    )


@dataclass(frozen=True)
class SpectrumScan:
    """The rank-drop scan of t - lam*s over a region, as read-only arrays in
    the region's order: the points (complex128), the rank of t - lam*s at
    each (int64) and whether it is a drop point (bool)."""

    points: np.ndarray
    ranks: np.ndarray
    is_drop: np.ndarray


def rectangular_region(
    re_min: float, re_max: float, im_min: float, im_max: float, steps: int
) -> tuple[complex, ...]:
    """Row-major rectangular sampling of the complex plane, steps points per axis.

    Each axis is ``numpy.linspace`` of its bounds. Where the width between
    two finite bounds overflows, the axis is that of the halved bounds,
    doubled: scaling by 2 is exact, so it holds the points linspace would
    give in exact arithmetic up to its own rounding, each finite. Where
    only the width's last multiple overflows, as from 0 to the largest
    float, linspace sets that point to its bound, so no point overflows.
    """
    if steps < 1:
        raise ValueError("region needs at least one step per axis")
    for name, bound in (("re_min", re_min), ("re_max", re_max), ("im_min", im_min), ("im_max", im_max)):
        if not math.isfinite(bound):
            raise ValueError(f"region bound {name} must be finite, got {bound!r}")
    with np.errstate(over="ignore"):
        res, ims = [np.linspace(low, high, steps) if math.isfinite(high - low)
                    else 2.0 * np.linspace(low / 2.0, high / 2.0, steps)
                    for low, high in ((float(re_min), float(re_max)), (float(im_min), float(im_max)))]
    # parts set apart, not re + 1j * im, which loses the sign of a zero
    region = np.empty((steps, steps), dtype=np.complex128)
    region.real, region.imag = res, ims[:, None]
    return tuple(region.ravel().tolist())


def generalized_spectrum_scan(
    p: Pencil, region, tol: TolerancePolicy = DEFAULT_TOL
) -> SpectrumScan:
    """Rank of t - lam*s over a region; drop points mark the rank-drop locus.

    A point is a drop point when its rank falls below the maximum rank seen
    anywhere in the region (the generic value). For a pencil (t, I) with
    normal t these are exactly the sampled eigenvalues. The ranks are those
    of the one rank pass :func:`linalg.grid_ranks`, with no product. An
    empty region or a non-finite point raises ValueError, naming the first
    such point.
    """
    points = np.fromiter(region, dtype=np.complex128)
    if not len(points):
        raise ValueError("region is empty")
    finite = np.isfinite(points)
    if not finite.all():
        raise ValueError(f"scan point {complex(points[np.argmin(finite)])} is not finite")
    m, n = p.shape
    ranks = grid_ranks(p.t, p.s, points, empty_basis(n), empty_basis(m), tol)[0]
    is_drop = ranks < ranks.max()
    for array in (points, ranks, is_drop):
        array.setflags(write=False)
    return SpectrumScan(points, ranks, is_drop)
