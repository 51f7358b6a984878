"""Generalized resolvents of linear matrix pencils.

For a pencil lam -> t - lam*s and a generalized inverse tplus of t, the
family

    G(lam) = tplus @ (I - lam * s @ tplus)^-1

is defined on the open disk |lam| < 1/||s @ tplus||. On that disk G(lam) is
always an outer inverse of t - lam*s with constant range R(tplus) and
constant kernel N(tplus); it is a genuine generalized resolvent (inner and
outer axioms plus the resolvent identity

    G(lam) - G(mu) = (lam - mu) * G(lam) @ s @ G(mu))

exactly when R(t - lam*s) stays transversal to N(tplus) across the region.
This module builds and evaluates the family, verifies the three resolvent
conditions on sampled disk grids, and decides existence through the
transversality, direct-sum, fixed-complement and continuity criteria.
The family is evaluated and checked in rank-r coordinates, r the rank of
tplus (:class:`RankCoordinates`): one r x r solve per point, and no m x m
system.

The resolvent identity of a sampled family is decided in one place,
:func:`identity.decide_identity`, for this family and for the pointwise
pseudoinverses of :mod:`criteria` alike: a bound on every ordered pair from
one residual per point, anchored at the member at lam = 0, and exact
residuals, first of the pairs through lam = 0 and then of every other pair,
only where a bound exceeds residual_tol.

Every rank of t - lam*s at sampled points comes from the one rank pass
:func:`linalg.grid_ranks`, here through :func:`grid_pass`, its rank
profile and :func:`linalg.split_verdicts`; it runs the rank kernel
:func:`linalg.split_ranks` chunk by chunk; a pass without a product ranks
only the points :func:`linalg.full_rank_cover` leaves out, every other one
being proved of full rank, not marginal, box by box. The subspace criteria
compare the numerical ranks of t - lam*s and of its products with fixed
orthonormal bases, read off one factorization of tplus or of the
complements, so no grid point is given a full SVD. The direct sums of an inverse and of
fixed complements are one check of a pair of bases, with one report,
:class:`DirectSumReport`. The same pass gives the rank profile of
:mod:`criteria` and its spectrum scan, which reads the ranks straight
from :func:`linalg.grid_ranks`, and :func:`existence_check` keeps the
profile of the ranks it decided with, so transversality and rank
constancy on one grid rank each point once.

Every other per-point stage, here and in :mod:`criteria` (the axiom
residuals, the continuity probe, the pseudoinverse characterization and
the invertibility corollary), is a stage function too. Every stage is run
by the one driver :func:`linalg.chunked_stage`, sized by the one count of
matrices the stage keeps alive per point, the rank passes included;
t - lam*s is built there, each chunk into one workspace kept for the
whole pass, and a point where it is not finite is rejected there, by
name, for every stage.

All grid verdicts certify the sampled points only; no interpolation between
samples is claimed.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidFamilyError, OutOfRadiusError, ShapeMismatchError
from .geninv import ComplementPair, GenInverse, check_inverse_shape, inverse_residuals, user_supplied
from .identity import decide_identity
from .linalg import (
    DEFAULT_TOL,
    SCREEN_SLACK,
    Factor,
    TolerancePolicy,
    as_matrix,
    bounded_residuals,
    chunked_stage,
    decided_maximum,
    empty_basis,
    factor,
    frobenius_norms,
    grid_ranks,
    op_norm2,
    op_norms2,
    pencil_values,
    relative_residual,
    relative_residuals,
    solve_stack,
    split_ranks,
    split_verdicts,
)

RADIUS_CAP = 1e12


@dataclass(frozen=True)
class Pencil:
    """The pair (t, s) defining the operator family lam -> t - lam*s."""

    t: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", as_matrix(self.t))
        object.__setattr__(self, "s", as_matrix(self.s))
        if self.t.shape != self.s.shape:
            raise ShapeMismatchError(
                f"pencil operators differ in shape: {self.t.shape} vs {self.s.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.t.shape

    def at(self, lam: complex) -> np.ndarray:
        return self.t - lam * self.s


@dataclass(frozen=True)
class DiskGrid:
    """Finite sample points in a closed disk around 0; 0 itself is always present."""

    radius: float
    points: tuple[complex, ...]

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"grid radius must be positive and finite, got {self.radius!r}")
        pts = tuple(complex(p) for p in self.points)
        for p in pts:
            if not cmath.isfinite(p):
                raise ValueError(f"grid point {p} is not finite")
        if not any(p == 0 for p in pts):
            pts = (0j,) + pts
        object.__setattr__(self, "points", pts)
        worst = max(abs(p) for p in pts)
        if worst > self.radius * (1 + 1e-12):
            raise ValueError(
                f"grid point of modulus {worst:.6g} exceeds radius {self.radius:.6g}"
            )


def default_grid(radius: float, points: int = 25) -> DiskGrid:
    """0 plus concentric rings of 8 points out to the given radius.

    25 points means three full rings; other counts fill rings of 8 and put
    the remainder on the outermost ring. Where a ring's radius overflows as
    radius * ring / rings, it is that of the halved radius, doubled:
    scaling by 2 is exact, so every ring radius that does not overflow
    keeps its bits.
    """
    if points < 1:
        raise ValueError("grid needs at least one point")
    pts: list[complex] = [0j]
    remaining = points - 1
    rings = math.ceil(remaining / 8) if remaining else 0
    placed = 0
    for ring in range(1, rings + 1):
        count = min(8, remaining - placed)
        r = radius * ring / rings
        if not math.isfinite(r):
            r = 2.0 * (radius / 2.0 * ring / rings)
        for j in range(count):
            pts.append(r * cmath.exp(2j * math.pi * j / count))
        placed += count
    return DiskGrid(radius=radius, points=tuple(pts))


@dataclass(frozen=True)
class RankCoordinates:
    """The explicit family of an inverse tplus of rank r in r x r coordinates.

    From tplus's SVD take X = U_r (n x r), Sigma_r and V_r (m x r), so that
    T+_r = X Y^H with Y^H = Sigma_r V_r^H. By the push-through identity the
    family of T+_r is

        G(lam) = X N(lam) Y^H,  N(lam) = (I_r - lam K)^-1,  K = Y^H S X,

    Urquhart's formula X (Y^H (t - lam s) X)^-1 Y^H, since Y^H t X = I_r
    for a generalized inverse (Ben-Israel & Greville, *Generalized
    Inverses*, ch. 1; Henderson & Searle, SIAM Review 23, 1981). So each
    point solves one r x r system, and with A = t - lam s:

    - the inner deviation A G A - A is (A X) N (Y^H A) - A, where
      A X = T X - lam S X and Y^H A = Y^H T - lam Y^H S are affine in lam,
      from four products taken once;
    - the outer deviation G A G - G is X (N B N - N) Y^H with
      B = Y^H t X - lam K, and ||X Z Y^H||_2 = ||Z Sigma_r||_2, so the outer
      residual is ||(N B N - N) Sigma_r||_2 / ||N Sigma_r||_2, all r x r;
    - the identity deviation G_i - G_j - (l_i - l_j) G_i s G_j is
      X [N_i - N_j - (l_i - l_j) N_i K N_j] Y^H, of the norm of the bracket
      times Sigma_r: the deviation of the r x r family
      M(lam) = 2^-e N(lam) Sigma_r with s' = 2^e V_r^H S X, e the binary
      exponent of sigma_1, so M(0) has norm in [1/2, 1), and its products
      M s' M stay in range wherever the m x n products would not. Scaling
      by a power of 2 is exact in the normal range.

    Which r. The rank tplus was built with (:class:`geninv.GenInverse`),
    less any singular value that is exactly zero, never a cutoff of
    rank_rtol on tplus's own singular values: the inner residual is taken
    relative to ||A||, so a part of tplus far below ||tplus|| can carry it,
    as the singular value 1 of tplus = diag(1, 1e200) does for
    t = diag(1, 1e-200) at rank_rtol 1e-300. So ||T+ - T+_r||_2 is
    sigma_{r+1}, the rounding of the product that formed tplus, and the
    family is that of tplus up to the rounding an m x m solve had as well.

    Rounding of the reductions. The computed X and V_r are orthonormal
    only to their rounding: ||X^H X - I||_2 and ||V_r^H V_r - I||_2 are at
    most delta, a modest multiple of max(m, n) EPS for LAPACK's SVD. Every
    singular value of X and V_r then lies in [sqrt(1 - delta),
    sqrt(1 + delta)], so ||X Z V_r^H||_2 lies within a factor 1 +- delta
    of ||Z||_2, and a relative residual, a quotient of two such norms,
    within a factor 1 +- 3 delta of its r x r value. At every size this
    package handles, delta < 1e-11, far inside NORM_BOUND_SLACK, which
    widens every bound these residuals are decided on.

    st_bound, the norm the identity's margins take (widened there by
    NORM_BOUND_SLACK), is an upper bound on ||C||_2, C = fl(s' M(0)): the
    smaller of ||C||_F, which is 0 where s' vanishes, and ||s tplus||_2
    widened for the rounding. Exactly, s' M(0) = V_r^H S X Sigma_r is
    V_r^H (s T+_r) V_r, of norm at most ||s tplus||_2 + ||s||_2 sigma_{r+1},
    up to the factor (1 + delta)^2 and the rounding of the products that
    formed s tplus, s' and C and of tplus's SVD, each a modest multiple of
    max(m, n) EPS ||s||_F ||tplus||_F, which SCREEN_SLACK ||s||_F sqrt(r)
    sigma_1 covers (see SCREEN_SLACK).
    """

    # X, Y^H, K, then T X, S X, Y^H T, Y^H S and Y^H t X
    x: np.ndarray
    yh: np.ndarray
    k: np.ndarray
    tx: np.ndarray
    sx: np.ndarray
    yht: np.ndarray
    yhs: np.ndarray
    yhtx: np.ndarray
    # 2^-e Sigma_r, the columns scaling N into M, and s' = 2^e V_r^H S X
    scale: np.ndarray
    s_prime: np.ndarray
    st_bound: float


@dataclass(frozen=True)
class ResolventFamily:
    """Everything needed to evaluate G(lam) = tplus (I - lam s tplus)^-1.

    st_norm = ||s tplus||_2 gives the disk of convergence |lam| < radius;
    no product s tplus is kept. The rest is taken once, on first use, so a
    command that only needs the radius takes neither: tplus_factor, the
    full SVD of tplus at rank r, the rank tplus was built with less its
    exactly zero singular values, which :func:`existence_check` and
    :func:`direct_sum_criteria` read at their own cutoff
    (:meth:`linalg.Factor.with_cutoff`); and coordinates, the family in
    rank-r coordinates (:class:`RankCoordinates`), which :func:`evaluate`,
    :func:`projector_family` and :func:`check_resolvent_axioms` run on: no
    m x m system is solved.
    """

    pencil: Pencil
    g: GenInverse
    st_norm: float
    radius: float

    @cached_property
    def tplus_factor(self) -> Factor:
        svd = factor(self.g.tplus)
        return Factor(svd.u, svd.s, svd.vh, int(np.count_nonzero(svd.s[: self.g.rank])))

    @cached_property
    def coordinates(self) -> RankCoordinates:
        t, s = self.pencil.t, self.pencil.s
        svd = self.tplus_factor
        r = svd.rank
        sigma, vh = svd.s[:r], svd.vh[:r]
        x = svd.range.basis
        yh = sigma[:, None] * vh
        exponent = math.frexp(sigma[0])[1] if r else 0
        sx, yht = s @ x, yh @ t
        w = vh @ sx
        scale, s_prime = np.ldexp(sigma, -exponent), np.ldexp(1.0, exponent) * w
        tail = svd.s[r] if r < len(svd.s) else 0.0
        rounding = SCREEN_SLACK * math.sqrt(r) * (sigma[0] if r else 0.0)
        widened = self.st_norm + frobenius_norms(s[None])[0] * (tail + rounding)
        return RankCoordinates(
            x=x, yh=yh, k=sigma[:, None] * w, tx=t @ x, sx=sx, yht=yht, yhs=yh @ s,
            yhtx=yht @ x, scale=scale, s_prime=s_prime,
            # s' M(0) scales the columns of s', with the bits of the product
            st_bound=min(widened, frobenius_norms((s_prime * scale)[None])[0]),
        )


def build_family(p: Pencil, g: GenInverse) -> ResolventFamily:
    """Assemble the resolvent family and its disk of convergence.

    The radius is 1/||s @ tplus||_2, capped at RADIUS_CAP when the product
    vanishes (constant family, infinite radius in exact arithmetic). This is
    the one place that checks that g is an inverse of p.t: every criterion
    of an inverse takes its family.
    """
    if not np.array_equal(g.t, p.t):
        raise ShapeMismatchError("the inverse was built for a different operator than pencil.t")
    st_norm = op_norm2(p.s @ g.tplus)
    radius = min(RADIUS_CAP, 1.0 / st_norm) if st_norm else RADIUS_CAP
    return ResolventFamily(pencil=p, g=g, st_norm=st_norm, radius=radius)


def _require_in_radius(f: ResolventFamily, lam: complex) -> None:
    growth = abs(lam) * f.st_norm
    if growth >= 1.0:
        raise OutOfRadiusError(
            f"|lam| * ||s tplus|| = {growth:.6g} >= 1, outside the disk of convergence",
            growth,
        )


def _solves(c: RankCoordinates, lams: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """N(lam) = (I_r - lam K)^-1 at points inside the disk, by one stacked solve."""
    eye = np.eye(len(c.k), dtype=np.complex128)
    return solve_stack(eye - lams[:, None, None] * c.k, eye, tol)


def _inner_deviations(
    c: RankCoordinates, lams: np.ndarray, n: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """A G A - A = (A X) N (Y^H A) - A for the stack a of A = t - lam s at lams."""
    lam = lams[:, None, None]
    deviations = (c.tx - lam * c.sx) @ n @ (c.yht - lam * c.yhs)
    deviations -= a
    return deviations


def _outer_deviations(
    c: RankCoordinates, lams: np.ndarray, n: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """(N B N - N) 2^-e Sigma_r = N (B M) - M, B = Y^H t X - lam K, for M = 2^-e N Sigma_r."""
    return n @ ((c.yhtx - lams[:, None, None] * c.k) @ m) - m


def evaluate(f: ResolventFamily, lam: complex, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """G(lam) = X (I_r - lam K)^-1 Y^H (:class:`RankCoordinates`); G(0) is X Y^H."""
    lam = complex(lam)
    _require_in_radius(f, lam)
    c = f.coordinates
    return c.x @ _solves(c, np.array([lam]), tol)[0] @ c.yh


@dataclass(frozen=True)
class ResolventAxiomReport:
    """Per-point residuals of the inverse axioms and the identity's deciding value.

    inner_residuals:   (t-lam s) G (t-lam s) = t-lam s, per grid point
    outer_residuals:   G (t-lam s) G = G, per grid point
        each the value its verdict was decided on, by
        :func:`linalg.bounded_residuals`: at most residual_tol, an upper
        bound on the relative residual; above it, a certified lower bound or
        the exact residual. Where an axiom's largest bound exceeds
        residual_tol, the points :func:`linalg.decided_maximum` took exactly
        hold their exact residuals, so the largest value of each axiom is
        its exact maximum over the grid; otherwise it is the largest bound
    axiom_method: "bound" when every inner and outer bound is at most
        residual_tol; "exact" when some bound exceeded it and that axiom's
        largest value is its exact maximum
    max_identity_residual: the resolvent-identity value the verdict was
        decided on, relative to ||tplus||_2, in rank-r coordinates
        (:class:`RankCoordinates`): at most residual_tol, it is at
        least the residual of every ordered pair of usable points; above
        it, the exact residual of worst_pair
    identity_method: as :func:`identity.decide_identity` decided it:
        "bound" when the bound built from per-point solve residuals decided
        every pair; "pairs" when that bound exceeded residual_tol and
        exact residuals decided, of the pairs through lam = 0 and then of
        every other pair whose bound exceeded it
    worst_pair: the pair whose exact residual is max_identity_residual,
        where that exceeds residual_tol, the first in row-major order of the
        points; otherwise None
    skipped: grid points outside the disk of convergence (reported, not fatal)
    Verdicts certify the sampled points only.
    """

    points: tuple[complex, ...]
    inner_residuals: tuple[float, ...]
    outer_residuals: tuple[float, ...]
    axiom_method: str
    max_identity_residual: float
    identity_method: str
    worst_pair: tuple[complex, complex] | None
    skipped: tuple[complex, ...]
    ok: bool


def check_resolvent_axioms(
    f: ResolventFamily,
    grid: DiskGrid,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ResolventAxiomReport:
    """Verify both inverse axioms at every grid point and the identity on every pair.

    Runs in the rank-r coordinates of the family (:class:`RankCoordinates`),
    whose docstring shows why each reduced norm is the norm of the m x n
    quantity within NORM_BOUND_SLACK: no m x m system is solved and no
    n x m G(lam) is formed. Chunk by chunk of the grid, N(lam) comes from
    one stacked r x r solve, the inner deviation (A X) N (Y^H A) - A from
    affine factors, and the outer one, r x r, from N and
    M = 2^-e N Sigma_r. Each axiom residual is decided from O(mn) norm
    bounds: an upper bound where it meets residual_tol, a certified lower
    bound where that fails it, and the exact norm only where neither
    decides (:func:`linalg.bounded_residuals`). Where an axiom's largest
    upper bound exceeds residual_tol, its exact maximum is taken by
    :func:`linalg.decided_maximum`, one point at a time and only at the
    points whose bound can reach it, each deviation rebuilt by the
    operations of the stage, so it has the stage's bits. The identity is
    decided by :func:`identity.decide_identity` on the r x r family M with
    s' = 2^e V_r^H S X, whose member at lam = 0 is 2^-e Sigma_r, and with
    st_bound for ||s' M(0)||_2: on the bound of every ordered pair where it
    meets residual_tol, and otherwise on exact residuals, of the pairs
    through lam = 0 and then of every pair the bound leaves undecided, so no
    verdict turns false on the bound's slack and none rests on a sample.
    """
    usable: list[complex] = []
    skipped: list[complex] = []
    for lam in grid.points:
        if abs(lam) * f.st_norm < 1.0:
            usable.append(lam)
        else:
            skipped.append(lam)
    lams = np.array(usable, dtype=np.complex128)
    c = f.coordinates
    measure = partial(bounded_residuals, limit=tol.residual_tol)

    def stage(part: slice, a: np.ndarray) -> tuple[np.ndarray, ...]:
        n = _solves(c, lams[part], tol)
        inner = measure(_inner_deviations(c, lams[part], n, a), a)
        m = n * c.scale
        outer = measure(_outer_deviations(c, lams[part], n, m), m)
        return (n, m, *inner, *outer)

    def exact(axiom: int, decided: np.ndarray, known: np.ndarray, k: int) -> float:
        """The exact residual of one axiom at point k, from a deviation
        rebuilt as the stage built it, so it has the stage's bits."""
        if not known[k]:
            part = slice(k, k + 1)
            if axiom == 0:
                a = pencil_values(f.pencil.t, f.pencil.s, lams[part])
                pair = (_inner_deviations(c, lams[part], solves[part], a), a)
            else:
                pair = (_outer_deviations(c, lams[part], solves[part], values[part]), values[part])
            decided[k], known[k] = relative_residuals(*pair)[0], True
        return float(decided[k])

    # per point: t - lam s, (A X) N, Y^H A and their product, which becomes
    # the deviation in place, then the norm bounds' squares and the copy of
    # failing deviations the lower bound takes; A X is freed once (A X) N is
    # formed; N and M are r x r, and the r x r solve with its screen and
    # the outer deviation are formed while no inner deviation is held
    solves, values, *axioms = chunked_stage(f.pencil.t, f.pencil.s, lams, 5, stage)
    methods = [decided_maximum(bounds, tol.residual_tol, partial(exact, axiom, decided, known))[1]
               for axiom, (decided, bounds, known) in enumerate((axioms[:3], axioms[3:]))]
    inner, outer = axioms[0], axioms[3]
    max_identity, method, worst = decide_identity(c.s_prime, values, lams, tol, c.st_bound)
    worst_point = max(inner.tolist() + outer.tolist(), default=0.0)
    ok = not skipped and max(worst_point, max_identity) <= tol.residual_tol
    return ResolventAxiomReport(
        points=tuple(usable),
        inner_residuals=tuple(inner.tolist()),
        outer_residuals=tuple(outer.tolist()),
        axiom_method="exact" if "exact" in methods else "bound",
        max_identity_residual=max_identity,
        identity_method=method,
        worst_pair=None if worst is None else (usable[worst[0]], usable[worst[1]]),
        skipped=tuple(skipped),
        ok=ok,
    )


@dataclass(frozen=True)
class ProjectorPair:
    """The idempotents p = (t-lam s) G(lam) and q = G(lam) (t-lam s).

    p projects the codomain onto R(t-lam s) along N(tplus) and q projects
    the domain onto R(tplus) along N(t-lam s) whenever the family exists at
    lam; idempotency itself holds everywhere in the disk and its residuals
    are recorded.
    """

    p_lambda: np.ndarray
    q_lambda: np.ndarray
    p_idempotency: float
    q_idempotency: float


def projector_family(
    f: ResolventFamily, lam: complex, tol: TolerancePolicy = DEFAULT_TOL
) -> ProjectorPair:
    """Compute the projector pair of the family at one point."""
    g_lam = evaluate(f, lam, tol)
    a = f.pencil.at(lam)
    p = a @ g_lam
    q = g_lam @ a
    return ProjectorPair(
        p_lambda=p,
        q_lambda=q,
        p_idempotency=relative_residual(p @ p - p, p),
        q_idempotency=relative_residual(q @ q - q, q),
    )


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


@dataclass(frozen=True)
class ExistenceCertificate:
    """Per-point transversality verdicts over a grid; verdict is their conjunction.

    profile is the rank profile of t - lam*s on the same grid, read off the
    values-only SVDs that decide transversality.
    """

    verdict: bool
    per_point: tuple[tuple[complex, bool], ...]
    profile: RankProfile


def existence_check(
    f: ResolventFamily,
    grid: DiskGrid,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ExistenceCertificate:
    """Test R(t - lam s) transversal to N(tplus) at every sampled point, for
    the pencil and inverse of the family f.

    Warns when the grid reaches the family's disk of convergence, by the
    ||s tplus||_2 that :func:`build_family` took.
    """
    if grid.radius * f.st_norm >= 1.0:
        warnings.warn(
            "grid radius reaches the boundary of the family's disk of convergence; "
            "verdicts on or outside it do not certify existence",
            stacklevel=2,
        )
    coimage = f.tplus_factor.with_cutoff(tol).coimage.basis
    profile, transversal, _, _ = grid_pass(f.pencil, grid.points, tol, f_perp=coimage)
    per_point = tuple(zip(grid.points, transversal.tolist()))
    return ExistenceCertificate(
        verdict=all(ok for _, ok in per_point),
        per_point=per_point,
        profile=profile,
    )


def grid_pass(
    p: Pencil, points: Sequence[complex], tol: TolerancePolicy,
    e: np.ndarray | None = None, f_perp: np.ndarray | None = None,
) -> tuple[RankProfile, np.ndarray, np.ndarray, np.ndarray]:
    """The rank profile of t - lam*s at the points, in order, and their
    transversality, domain and codomain verdicts
    (:func:`linalg.split_verdicts`) for the bases e and f_perp, from the one
    rank pass :func:`linalg.grid_ranks`.

    Each basis defaults to the basis of {0}, whose product is not formed.
    """
    m, n = p.shape
    e = empty_basis(n) if e is None else e
    f_perp = empty_basis(m) if f_perp is None else f_perp
    split = grid_ranks(p.t, p.s, np.asarray(points, dtype=np.complex128), e, f_perp, tol)
    ranks = split[0].tolist()
    nullities, coranks = tuple(n - r for r in ranks), tuple(m - r for r in ranks)
    profile = RankProfile(tuple(points), tuple(ranks), nullities, coranks, tuple(split[3].tolist()))
    return (profile, *split_verdicts(split, e.shape[1], f_perp.shape[1]))


@dataclass(frozen=True)
class DirectSumReport:
    """Per-point verdicts that a pair of subspaces E, F splits the domain and
    codomain of t - lam*s.

    domain_splits:   domain = N(t-lam s) + E
    codomain_splits: codomain = R(t-lam s) + F

    :func:`direct_sum_criteria` takes an inverse's own E = R(tplus) and
    F = N(tplus); :func:`fixed_complements_check` takes one fixed
    ComplementPair (e, f). For an inverse, the for-every-inverse flavor of
    the criterion is obtained by invoking this again with further inverses
    and conjoining the verdicts.
    """

    per_point: tuple[tuple[complex, bool, bool], ...]
    domain_verdict: bool
    codomain_verdict: bool
    verdict: bool


def _direct_sums(
    p: Pencil, grid: DiskGrid, tol: TolerancePolicy, e: np.ndarray, f_perp: np.ndarray
) -> DirectSumReport:
    """The :class:`DirectSumReport` of E = span(e) and F = span(f_perp)^perp, by one grid pass."""
    _, _, domain, codomain = grid_pass(p, grid.points, tol, e, f_perp)
    domain_verdict, codomain_verdict = bool(domain.all()), bool(codomain.all())
    return DirectSumReport(
        per_point=tuple(zip(grid.points, domain.tolist(), codomain.tolist())),
        domain_verdict=domain_verdict,
        codomain_verdict=codomain_verdict,
        verdict=domain_verdict and codomain_verdict,
    )


def direct_sum_criteria(
    f: ResolventFamily, grid: DiskGrid, tol: TolerancePolicy = DEFAULT_TOL
) -> DirectSumReport:
    """Check both splittings induced by the inverse of the family f at every
    sampled point of its pencil."""
    tplus_factor = f.tplus_factor.with_cutoff(tol)
    return _direct_sums(f.pencil, grid, tol, tplus_factor.range.basis, tplus_factor.coimage.basis)


def fixed_complements_check(
    p: Pencil, c: ComplementPair, grid: DiskGrid, tol: TolerancePolicy = DEFAULT_TOL
) -> DirectSumReport:
    """Check domain = N(t-lam s) + e and codomain = R(t-lam s) + f on the grid."""
    return _direct_sums(p, grid, tol, *c.bases(p.shape, tol))


@dataclass(frozen=True)
class ContinuityPointReport:
    """Continuity diagnostics of a supplied inverse family at one point."""

    lam: complex
    deviation: float
    banach_product: float
    w_invertible: bool


@dataclass(frozen=True)
class ContinuityReport:
    """Continuity surrogate for a pointwise family of generalized inverses.

    max_deviation is max ||family(lam) - family(0)|| over the grid. The
    premises hold when every kernel projector stays Banach-close to the one
    at 0 (product of norms < 1) and every correction operator
    w = I + (p_lam - p_0) p_0 is invertible; under those premises the
    transversality verdict at family(0) must come out true, and
    conclusion_consistent records that implication.
    """

    per_point: tuple[ContinuityPointReport, ...]
    max_deviation: float
    premises_ok: bool
    existence_verdict: bool
    conclusion_consistent: bool


def continuity_check(
    p: Pencil,
    inverse_family: Callable[[complex], np.ndarray] | dict,
    grid: DiskGrid,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> ContinuityReport:
    """Probe whether a pointwise inverse family is continuous enough at 0.

    Every family member is verified to be a generalized inverse of
    t - lam*s before use; a failing member raises InvalidFamilyError naming
    the first offending point in grid order. Every member is looked up, and
    checked to be a matrix of the inverse's shape, before any is verified.
    The verification, norms and ranks run chunk by chunk on stacks.
    """
    lookup = inverse_family.__getitem__ if isinstance(inverse_family, dict) else inverse_family
    m, n = p.shape
    members = np.empty((len(grid.points), n, m), dtype=np.complex128)
    for k, lam in enumerate(grid.points):
        b = as_matrix(lookup(lam))
        check_inverse_shape(p.shape, b.shape)
        members[k] = b
    b0 = members[grid.points.index(0)]
    eye = np.eye(n, dtype=np.complex128)
    p0 = eye - b0 @ p.at(0)
    p0_norm = op_norm2(p0)

    def stage(part: slice, a: np.ndarray) -> tuple[np.ndarray, ...]:
        b = members[part]
        inner, outer, ba = inverse_residuals(a, b)
        failed = np.flatnonzero(~((inner <= tol.residual_tol) & (outer <= tol.residual_tol)))
        if failed.size:
            lam = grid.points[part][failed[0]]
            raise InvalidFamilyError(
                f"family member at lam={lam} is not a generalized inverse of t - lam*s", lam
            )
        drift = (eye - ba) - p0
        w_ranks = split_ranks(eye + drift @ p0, empty_basis(n), empty_basis(n), tol)[0]
        return op_norms2(b - b0), op_norms2(drift) * p0_norm, w_ranks

    # per point: t - lam s, b (t - lam s), the two axiom deviations, p_lam - p0 and w
    lams = np.array(grid.points, dtype=np.complex128)
    deviations, banach, ranks = chunked_stage(p.t, p.s, lams, 6, stage)
    rows = [
        ContinuityPointReport(lam=lam, deviation=d, banach_product=nb, w_invertible=r == n)
        for lam, d, nb, r in zip(grid.points, deviations.tolist(), banach.tolist(), ranks.tolist())
    ]
    premises_ok = all(r.banach_product < 1.0 and r.w_invertible for r in rows)
    cert = existence_check(build_family(p, user_supplied(p.t, b0, tol)), grid, tol)
    return ContinuityReport(
        per_point=tuple(rows),
        max_deviation=max(r.deviation for r in rows),
        premises_ok=premises_ok,
        existence_verdict=cert.verdict,
        conclusion_consistent=(not premises_ok) or cert.verdict,
    )

