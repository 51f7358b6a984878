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

The resolvent identity of a sampled family is decided in one place,
:func:`_decide_identity`, for this family and for the pointwise
pseudoinverses of :mod:`criteria` alike: a bound on every ordered pair from
one residual per point, anchored at the member at lam = 0, and the exact
maximum over sampled pairs only where that bound exceeds residual_tol.

Every rank of t - lam*s at sampled points comes from one private grid pass,
whose stage, :func:`linalg.rank_stage`, runs the rank kernel
:func:`linalg.split_ranks` chunk by chunk. The subspace criteria compare the
numerical ranks of t - lam*s and of its products with fixed orthonormal
bases, read off one factorization of tplus or of the complements, so no
grid point is given a full SVD. The same pass gives the rank profiles and
the spectrum scan of :mod:`criteria`, and :func:`existence_check` keeps
the profile of the ranks it decided with, so transversality and rank
constancy on one grid rank each point once.

Every other per-point stage, here and in :mod:`criteria` (the axiom
residuals, the continuity probe, the pseudoinverse characterization and
the invertibility corollary), is a stage function too. Every stage is run
by the one driver :func:`linalg.chunked_stage`, through
:func:`_point_stage`, sized by the one count of matrices the stage keeps
alive per point; t - lam*s is built there, each chunk into one workspace
kept for the whole pass.

All grid verdicts certify the sampled points only; no interpolation between
samples is claimed.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidFamilyError, OutOfRadiusError, ShapeMismatchError
from .geninv import ComplementPair, GenInverse, inverse_residuals, user_supplied
from .linalg import (
    DEFAULT_TOL,
    EPS,
    NORM_BOUND_SLACK,
    NORM_FLOOR,
    TolerancePolicy,
    as_matrix,
    chunked_stage,
    chunks,
    empty_basis,
    exact_maximum,
    factor,
    frobenius_norms,
    norm_lower_bounds,
    norm_upper_bounds,
    op_norm2,
    op_norms2,
    rank_stage,
    relative_residual,
    solve_right_stack,
    split_ranks,
    split_verdicts,
)

RADIUS_CAP = 1e12
RADIUS_EPS = 1e-14

# The smallest positive double: a product in gradual underflow errs by at most half of it.
UNDERFLOW = float(np.nextafter(0.0, 1.0))

PAIR_SAMPLE_LIMIT = 1600
PAIR_FULL_MAX_POINTS = 40


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

    def at_many(self, lams: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The stack t - lams[k] * s, of shape (len(lams), m, n), written into out when given."""
        stack = np.multiply(lams[:, None, None], self.s, out=out)
        return np.subtract(self.t, stack, out=stack)


@dataclass(frozen=True)
class DiskGrid:
    """Sample points in a closed disk around 0; 0 itself is always present."""

    radius: float
    points: tuple[complex, ...]

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"grid radius must be positive and finite, got {self.radius!r}")
        pts = tuple(complex(p) for p in self.points)
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
    the remainder on the outermost ring.
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
        for j in range(count):
            pts.append(r * cmath.exp(2j * math.pi * j / count))
        placed += count
    return DiskGrid(radius=radius, points=tuple(pts))


@dataclass(frozen=True)
class ResolventFamily:
    """Everything needed to evaluate G(lam) = tplus (I - lam s tplus)^-1."""

    pencil: Pencil
    g: GenInverse
    st_plus: np.ndarray
    st_norm: float
    radius: float


def build_family(p: Pencil, g: GenInverse) -> ResolventFamily:
    """Assemble the resolvent family and its disk of convergence.

    The radius is 1/||s @ tplus||_2, capped at RADIUS_CAP when the product
    vanishes (constant family, infinite radius in exact arithmetic). This is
    the one place that checks that g is an inverse of p.t: every criterion
    of an inverse takes its family.
    """
    if not np.array_equal(g.t, p.t):
        raise ShapeMismatchError("the inverse was built for a different operator than pencil.t")
    st_plus = p.s @ g.tplus
    st_norm = op_norm2(st_plus)
    radius = RADIUS_CAP if st_norm <= RADIUS_EPS else min(RADIUS_CAP, 1.0 / st_norm)
    return ResolventFamily(pencil=p, g=g, st_plus=st_plus, st_norm=st_norm, radius=radius)


def _require_in_radius(f: ResolventFamily, lam: complex) -> None:
    growth = abs(lam) * f.st_norm
    if growth >= 1.0:
        raise OutOfRadiusError(
            f"|lam| * ||s tplus|| = {growth:.6g} >= 1, outside the disk of convergence",
            growth,
        )


def _evaluate_stack(f: ResolventFamily, lams: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """G(lam) for points inside the disk, by one stacked right-solve against I - lam s tplus."""
    m = f.pencil.shape[0]
    eye = np.eye(m, dtype=np.complex128)
    return solve_right_stack(eye - lams[:, None, None] * f.st_plus, f.g.tplus, tol)


def evaluate(f: ResolventFamily, lam: complex, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """G(lam) by a direct solve against (I - lam s tplus); G(0) is tplus."""
    lam = complex(lam)
    _require_in_radius(f, lam)
    return _evaluate_stack(f, np.array([lam]), tol)[0]


def evaluate_neumann(f: ResolventFamily, lam: complex, terms: int) -> np.ndarray:
    """Partial geometric sum of G(lam): sum_k lam^k tplus (s tplus)^k.

    Exists solely as an independent cross-check of :func:`evaluate`; the
    truncation error is bounded by ||tplus|| r^terms / (1-r) with
    r = |lam| ||s tplus||.
    """
    if terms < 1:
        raise ValueError("the partial sum needs at least one term")
    lam = complex(lam)
    _require_in_radius(f, lam)
    term = f.g.tplus
    total = term.copy()
    step = lam * f.st_plus
    for _ in range(terms - 1):
        term = term @ step
        total += term
    return total


def max_identity_residual(
    s: np.ndarray,
    scale: np.ndarray,
    values: np.ndarray | Sequence[np.ndarray],
    points: np.ndarray | Sequence[complex],
    pairs: np.ndarray | Sequence[tuple[int, int]],
) -> tuple[float, tuple[int, int] | None]:
    """Worst resolvent-identity residual over index pairs into a sampled family.

    ``values`` is the family as one (k, n, m) stack, G_i = values[i] at
    points[i]; ``pairs`` is a (P, 2) integer array of indices (i, j) into
    it. A sequence of equal-shape matrices or of index pairs is stacked into
    that form first, at the cost of a copy.

    The residual of pair (i, j) is ||D||_2 / ||scale||_2 for the deviation
    D = G_i - G_j - (l_i - l_j) (G_i @ s) @ G_j, formed exactly as a single
    pair evaluation forms it; ||scale||_2 is computed once. This runs on the
    shared screen of :mod:`linalg`: :func:`linalg.norm_upper_bounds` bounds
    every deviation without a factorization, and
    :func:`linalg.exact_maximum` takes exact spectral norms largest bound
    first, rebuilding each deviation through the same code, until the next
    bound is strictly below the best exact value. So the returned residual
    is the exact spectral maximum and the returned pair is the first
    maximizing one in ``pairs`` order; the pair is None when every
    deviation is zero.

    Memory: the screen takes the pairs in chunks of about CHUNK_BYTES,
    counting six matrices of 16 * n * max(n, m) bytes per pair: the
    gathered G_i, G_j and G_i @ s, their product, the peak-scaled deviation
    and its adjoint, and one for the chunk's distinct G_i @ s and the Gram.
    Beyond the chunk it holds the bounds (8 bytes per pair), the sorted pair
    order and one G_i @ s carried into the next chunk; a sequence
    ``values`` adds a stacked copy of the family.
    """
    g = np.asarray(values, dtype=np.complex128)
    lams = np.asarray(points, dtype=np.complex128)
    index = np.asarray(pairs, dtype=np.intp).reshape(len(pairs), 2)
    scale_norm = max(op_norm2(scale), NORM_FLOOR)

    def exact(position: int) -> float:
        pair = index[position : position + 1]
        deviation = _deviations(g, lams, g[pair[:, 0]] @ s, pair[:, 0], pair[:, 1])
        return float(op_norms2(deviation)[0]) / scale_norm

    # +inf, where a deviation overflows against a floored scale, exceeds every bound
    with np.errstate(over="ignore"):
        bounds = _screen_deviations(s, g, lams, index) / scale_norm
    best, position = exact_maximum(bounds, exact)
    if position is None:
        return best, None
    i, j = index[position].tolist()
    return best, (i, j)


def _deviations(
    g: np.ndarray,
    lams: np.ndarray,
    g_s: np.ndarray,
    firsts: np.ndarray,
    seconds: np.ndarray,
) -> np.ndarray:
    """Stacked G_i - G_j - (l_i - l_j) (G_i @ s) @ G_j for index arrays of i and j.

    g_s[k] is G_i @ s for i = firsts[k]. Each product is one slice of a
    stacked matmul of the per-pair shapes, so it has the per-pair bits.
    """
    rights = g[seconds]
    # matmul with out= may round differently from the per-pair product
    products = g_s @ rights
    deviations = np.subtract(g[firsts], rights, out=rights)
    np.multiply((lams[firsts] - lams[seconds])[:, None, None], products, out=products)
    deviations -= products
    return deviations


def _screen_deviations(
    s: np.ndarray, g: np.ndarray, lams: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """:func:`linalg.norm_upper_bounds` of every pair's deviation.

    Pairs are taken in order of first index, in chunks of about CHUNK_BYTES.
    Each G_i @ s is formed once: per chunk for its distinct first indices,
    and the last one is carried into the next chunk, which may start with
    the same i.
    """
    bounds = np.zeros(len(pairs))
    if not len(pairs):
        return bounds
    order = np.argsort(pairs[:, 0], kind="stable")
    _, height, width = g.shape
    carried: tuple[int, np.ndarray] | None = None
    # per pair: the gathered G_i, G_j and G_i @ s, the product, the scaled
    # deviation and its adjoint, and one more for the chunk's own G_i @ s
    # and the Gram
    for chunk in chunks(len(order), 6 * 16 * height * max(height, width)):
        part = order[chunk]
        firsts, seconds = pairs[part, 0], pairs[part, 1]
        rows, inverse = np.unique(firsts, return_inverse=True)
        fresh = rows if carried is None or rows[0] != carried[0] else rows[1:]
        g_s = g[fresh] @ s
        if len(fresh) < len(rows):
            g_s = np.concatenate([carried[1][None], g_s])
        carried = (rows[-1], g_s[-1])
        bounds[part] = norm_upper_bounds(_deviations(g, lams, g_s[inverse], firsts, seconds))
    return bounds


def pair_indices(count: int, seed: int = 0) -> np.ndarray:
    """Distinct ordered index pairs (i, j), i != j, for pairwise identity checks.

    All of them, row-major, for up to PAIR_FULL_MAX_POINTS points; beyond
    that, the distinct off-diagonal pairs of a deterministic pseudorandom
    draw of PAIR_SAMPLE_LIMIT pairs, in order of first draw, which keeps the
    quadratic cost bounded. The pairs (i, i), whose deviation is exactly
    zero, and repeated draws cannot change the maximum or the first
    maximizing pair, so they are left out. Returns a (P, 2) array.
    """
    if count <= PAIR_FULL_MAX_POINTS:
        pairs = np.indices((count, count)).reshape(2, -1).T
    else:
        pairs = np.random.default_rng(seed).integers(0, count, size=(PAIR_SAMPLE_LIMIT, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    _, first = np.unique(pairs, axis=0, return_index=True)
    return pairs[np.sort(first)]


@dataclass(frozen=True)
class ResolventAxiomReport:
    """Per-point residuals of the inverse axioms and the identity's deciding value.

    inner_residuals:   (t-lam s) G (t-lam s) = t-lam s, per grid point
    outer_residuals:   G (t-lam s) G = G, per grid point
    max_identity_residual: the resolvent-identity value the verdict was
        decided on, relative to ||tplus||_2; which value it is says
        identity_method
    identity_method: as :func:`_decide_identity` decided it: "bound" when it
        is the bound built from per-point solve residuals, at least the
        residual of every ordered pair of usable points; "pairs" when that
        bound exceeded residual_tol and it is the exact spectral maximum
        over the pairs of :func:`pair_indices`, by :func:`max_identity_residual`
    worst_pair: with "pairs", the first pair attaining the maximum, None when
        every deviation is zero; always None with "bound"
    skipped: grid points outside the disk of convergence (reported, not fatal)
    Verdicts certify the sampled points only.
    """

    points: tuple[complex, ...]
    inner_residuals: tuple[float, ...]
    outer_residuals: tuple[float, ...]
    max_identity_residual: float
    identity_method: str
    worst_pair: tuple[complex, complex] | None
    skipped: tuple[complex, ...]
    ok: bool


def check_resolvent_axioms(
    f: ResolventFamily,
    grid: DiskGrid,
    tol: TolerancePolicy = DEFAULT_TOL,
    seed: int = 0,
) -> ResolventAxiomReport:
    """Verify both inverse axioms at every grid point and the identity on every pair.

    Chunk by chunk of the grid, G(lam) comes from one stacked solve and each
    axiom residual from one stacked norm. The identity is decided by
    :func:`_decide_identity` on the kept family, whose member at lam = 0 is
    tplus itself: on the bound of every ordered pair where it meets
    residual_tol, and otherwise on the pairs of :func:`pair_indices` (drawn
    with seed), so no verdict turns false on the bound's slack.
    """
    usable: list[complex] = []
    skipped: list[complex] = []
    for lam in grid.points:
        if abs(lam) * f.st_norm < 1.0:
            usable.append(lam)
        else:
            skipped.append(lam)
    lams = np.array(usable, dtype=np.complex128)

    def stage(part: slice, a: np.ndarray) -> tuple[np.ndarray, ...]:
        g = _evaluate_stack(f, lams[part], tol)
        return (g, *inverse_residuals(a, g)[:2])

    # per point: t - lam s, I - lam s tplus, G, G (t - lam s), a product and a
    # deviation; the solve's full-rank screen adds at most linalg.SCREEN_LIVE
    # to I - lam s tplus and frees them before the residuals are built
    values, inner, outer = _point_stage(f.pencil, lams, 6, stage)
    max_identity, method, worst = _decide_identity(f.pencil.s, values, lams, tol, seed, f.st_norm)
    worst_point = max(inner.tolist() + outer.tolist(), default=0.0)
    ok = not skipped and max(worst_point, max_identity) <= tol.residual_tol
    return ResolventAxiomReport(
        points=tuple(usable),
        inner_residuals=tuple(inner.tolist()),
        outer_residuals=tuple(outer.tolist()),
        max_identity_residual=max_identity,
        identity_method=method,
        worst_pair=None if worst is None else (usable[worst[0]], usable[worst[1]]),
        skipped=tuple(skipped),
        ok=ok,
    )


def _decide_identity(
    s: np.ndarray, values: np.ndarray, lams: np.ndarray, tol: TolerancePolicy, seed: int,
    st_norm: float | None = None,
) -> tuple[float, str, tuple[int, int] | None]:
    """Decide the resolvent identity G_i - G_j = (l_i - l_j) G_i S G_j on a
    sampled family: the (k, n, m) stack values, G_k = values[k] at lams[k],
    one of which is 0.

    The family is anchored at its member G_0 at lam = 0, with C = fl(S G_0):
    the solve residuals E_k = G_k (I - l_k C) - G_0 are bounded chunk by
    chunk (:func:`_solve_residual_bounds`), and :func:`_identity_bound`
    turns them into a bound on every ordered pair's deviation relative to
    ||G_0||_2. The lemma behind it holds for any matrices G_k, so the same
    decision serves the explicit family, whose G_0 is tplus and E_k the
    residual of the solve that built G_k, and the pointwise pseudoinverses,
    whose E_k is the deviation of the pair (k, 0).

    Returns the deciding value, "bound" or "pairs", and with "pairs" the
    first maximizing pair of indices (None when every deviation is zero).
    "bound" when the bound is at most residual_tol; otherwise the exact
    spectral maximum over the pairs of :func:`pair_indices` (drawn with
    seed), by :func:`max_identity_residual` with scale G_0. The bound needs
    every 1 - |l_k| ||C||_2 positive, ||C||_2 widened by NORM_BOUND_SLACK:
    given as st_norm, a grid that reaches the disk's boundary goes to the
    pairs at once; without it, ||C||_2 is taken only after the residuals
    pass. A residual above residual_tol * ||G_0||_2 (the bound's scale) ends
    the pass: with two or more points every pair through it has a bound
    above residual_tol, since every margin is at most 1.
    """
    def margins(norm: float) -> np.ndarray:
        """Lower bounds on 1 - |l_k| ||C||_2, from ||C||_2 widened by NORM_BOUND_SLACK."""
        return 1.0 - np.abs(lams) * (norm * (1.0 + NORM_BOUND_SLACK))

    anchor = values[np.flatnonzero(lams == 0)[0]]
    st_plus = s @ anchor
    bound = math.inf
    if st_norm is None or np.all(margins(st_norm) > 0.0):
        residuals = np.empty(len(lams))
        scale = max(norm_lower_bounds(anchor[None])[0], NORM_FLOOR)
        # per point: the difference, the product, and the norm bound's scaled
        # copy, its adjoint and the Gram
        for part in chunks(len(lams), 5 * 16 * max(anchor.shape) ** 2):
            residuals[part] = _solve_residual_bounds(s, anchor, st_plus, lams[part], values[part])
            # +inf, where a residual overflows against the floored scale, exceeds residual_tol
            with np.errstate(over="ignore"):
                if len(lams) > 1 and np.any(residuals[part] / scale > tol.residual_tol):
                    break
        else:
            point_margins = margins(op_norm2(st_plus) if st_norm is None else st_norm)
            if np.all(point_margins > 0.0):
                bound = _identity_bound(s, anchor, lams, point_margins, residuals)
    if bound <= tol.residual_tol:
        return bound, "bound", None
    best, worst = max_identity_residual(s, anchor, values, lams, pair_indices(len(lams), seed))
    return best, "pairs", worst


def _rounding(inner: int) -> float:
    """A bound on the relative rounding of an entry of a complex matrix product
    of inner dimension at most inner: sqrt(2) gamma_(inner+2) <= (inner + 2)
    * EPS / sqrt(2) (Higham, ch. 3), taken as (inner + 4) * EPS, which
    leaves room for the rounding of the Frobenius norms and scalar
    operations that carry it into a bound."""
    return (inner + 4) * EPS


def _solve_residual_bounds(
    s: np.ndarray, tplus: np.ndarray, st_plus: np.ndarray, lams: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Upper bounds on ||E_k||_2 for the matrices G_k = g[k] at the points lams[k], where

        E_k = G_k (I - l_k C) - T+ = (G_k - T+) - l_k G_k C

    is, for G_k solved from (I - l_k C), the residual of that solve, in
    exact arithmetic on C = st_plus = fl(S @ T+).

    E_k is formed as fl(G_k - T+) - fl(l_k fl(G_k @ C)) and bounded by
    :func:`linalg.norm_upper_bounds`, plus the rounding of forming it, in
    Frobenius norms: EPS for the first difference, 2 EPS for the scaled
    product and the last difference, and :func:`_rounding` of
    |l_k| ||G_k||_F ||C||_F for the product. Where C has a nonzero entry,
    a gradual underflow term covers the products' absolute errors below
    the normal range. Each term is zero where what it bounds is exactly
    computed, so a family that is exactly constant (C = 0, G_k = T+) has
    bound 0.
    """
    m, n = s.shape
    difference = g - tplus
    product = g @ st_plus
    product *= lams[:, None, None]
    moduli = np.abs(lams)
    rounding = EPS * (frobenius_norms(difference) + 2.0 * frobenius_norms(product))
    rounding += _rounding(m) * moduli * frobenius_norms(g) * frobenius_norms(st_plus[None])[0]
    if np.any(st_plus):
        # sqrt(2) UNDERFLOW per product term and per scaled entry
        rounding += 2.0 * UNDERFLOW * math.sqrt(m * n) * (moduli * m + 1.0)
    difference -= product
    return norm_upper_bounds(difference) + rounding


def _identity_bound(
    s: np.ndarray, tplus: np.ndarray, lams: np.ndarray, margins: np.ndarray,
    residuals: np.ndarray,
) -> float:
    """A bound on ||D_ij||_2 / ||T+||_2 over every ordered pair i != j of the
    points lams, for matrices G_k whose residuals E_k = G_k A_k - T+ have
    the bounds ``residuals`` (:func:`_solve_residual_bounds`), where
    margins[k] > 0 is a lower bound on 1 - |l_k| ||C||_2.

    D_ij = G_i - G_j - (l_i - l_j) G_i S G_j is the deviation of the
    resolvent identity. With C = fl(S T+) and A_k = I - l_k C, expanding
    G_j A_j = T+ + E_j and (l_i - l_j) C = A_j - A_i gives, exactly, for
    any matrices G_k,

        D_ij A_j = E_i - E_j - (l_i - l_j) G_i (S E_j + S T+ - C),

    so ||D_ij|| <= (||E_i|| + ||E_j|| + |l_i - l_j| ||G_i|| (||S|| ||E_j|| + ||S T+ - C||))
    * ||A_j^-1||. Here ||A_j^-1|| <= 1 / margins[j], G_i A_i = T+ + E_i
    gives ||G_i|| <= (||T+|| + ||E_i||) ||A_i^-1||, and ||S T+ - C|| is C's
    own rounding, :func:`_rounding` of || |S| |T+| ||_F. The norms of S and
    T+ come from :func:`linalg.norm_upper_bounds` and the scale ||T+||_2
    from :func:`linalg.norm_lower_bounds`. The pairs are combined in one
    (k, k) array.
    """
    m, n = s.shape
    drift = _rounding(n) * frobenius_norms((np.abs(s) @ np.abs(tplus))[None])[0]
    if np.any(s):
        # sqrt(2) n UNDERFLOW per entry of C
        drift += 2.0 * UNDERFLOW * m * n
    g_norms = (norm_upper_bounds(tplus[None])[0] + residuals) / margins
    gaps = np.abs(lams[:, None] - lams[None, :]) * g_norms[:, None]
    spread = drift + norm_upper_bounds(s[None])[0] * residuals
    bounds = (residuals[:, None] + residuals[None, :] + gaps * spread[None, :]) / margins[None, :]
    np.fill_diagonal(bounds, 0.0)
    # +inf, where the bound overflows against a floored scale, exceeds residual_tol
    with np.errstate(over="ignore"):
        return float(bounds.max(initial=0.0) / max(norm_lower_bounds(tplus[None])[0], NORM_FLOOR))


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
    criterion: str
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
    coimage = factor(f.g.tplus, tol).coimage.basis
    profile, transversal, _, _ = _grid_pass(f.pencil, grid.points, tol, f_perp=coimage)
    per_point = tuple(zip(grid.points, transversal.tolist()))
    return ExistenceCertificate(
        verdict=all(ok for _, ok in per_point),
        per_point=per_point,
        criterion="transversality",
        profile=profile,
    )


@dataclass(frozen=True)
class FixedComplementsReport:
    """Per-point verdicts that one fixed pair (e, f) splits kernel and range."""

    per_point: tuple[tuple[complex, bool, bool], ...]
    verdict: bool


def fixed_complements_check(
    p: Pencil, c: ComplementPair, grid: DiskGrid, tol: TolerancePolicy = DEFAULT_TOL
) -> FixedComplementsReport:
    """Check domain = N(t-lam s) + e and codomain = R(t-lam s) + f on the grid."""
    m, n = p.shape
    if c.e.ambient_dim != n or c.f.ambient_dim != m:
        raise ShapeMismatchError(
            f"complements have ambient ({c.e.ambient_dim}, {c.f.ambient_dim}), "
            f"pencil needs ({n}, {m})"
        )
    f_perp = factor(c.f.basis.conj().T, tol).kernel.basis
    _, _, domain, codomain = _grid_pass(p, grid.points, tol, c.e.basis, f_perp)
    rows = list(zip(grid.points, domain.tolist(), codomain.tolist()))
    return FixedComplementsReport(
        per_point=tuple(rows),
        verdict=all(d and cdom for _, d, cdom in rows),
    )


def _point_stage(
    p: Pencil, points: Sequence[complex], live: int,
    stage: Callable[[slice, np.ndarray], Sequence[np.ndarray]],
) -> tuple[np.ndarray, ...]:
    """:func:`linalg.chunked_stage` of t - lam*s at the points, in order."""
    lams = np.asarray(points, dtype=np.complex128)
    return chunked_stage(lambda part, out: p.at_many(lams[part], out), len(lams), p.shape, live, stage)


def _grid_pass(
    p: Pencil, points: Sequence[complex], tol: TolerancePolicy,
    e: np.ndarray | None = None, f_perp: np.ndarray | None = None,
) -> tuple[RankProfile, np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`linalg.rank_stage` of t - lam*s at the points, in order.

    Returns the rank profile at the points and their transversality, domain
    and codomain verdicts (:func:`linalg.split_verdicts`) for the bases e
    and f_perp. Each defaults to the basis of {0}, whose product is not
    formed. The stage runs through :func:`_point_stage`, sized for the
    products it forms or, with none, for the full-rank screen, and decides
    where the screen runs.
    """
    m, n = p.shape
    e = empty_basis(n) if e is None else e
    f_perp = empty_basis(m) if f_perp is None else f_perp
    split = _point_stage(p, points, *rank_stage(p.shape, tol, e, f_perp))
    ranks = split[0].tolist()
    nullities, coranks = tuple(n - r for r in ranks), tuple(m - r for r in ranks)
    profile = RankProfile(tuple(points), tuple(ranks), nullities, coranks, tuple(split[3].tolist()))
    return (profile, *split_verdicts(split, e.shape[1], f_perp.shape[1]))


@dataclass(frozen=True)
class DirectSumReport:
    """Per-point splitting verdicts for one generalized inverse.

    domain_splits:   domain = N(t-lam s) + R(tplus)
    codomain_splits: codomain = R(t-lam s) + N(tplus)

    The for-every-inverse flavor of the criterion is obtained by invoking
    this again with further inverses and conjoining the verdicts.
    """

    per_point: tuple[tuple[complex, bool, bool], ...]
    domain_verdict: bool
    codomain_verdict: bool
    verdict: bool


def direct_sum_criteria(
    f: ResolventFamily, grid: DiskGrid, tol: TolerancePolicy = DEFAULT_TOL
) -> DirectSumReport:
    """Check both splittings induced by the inverse of the family f at every
    sampled point of its pencil."""
    tplus_factor = factor(f.g.tplus, tol)
    _, _, domain, codomain = _grid_pass(
        f.pencil, grid.points, tol, tplus_factor.range.basis, tplus_factor.coimage.basis
    )
    rows = list(zip(grid.points, domain.tolist(), codomain.tolist()))
    domain_verdict = all(d for _, d, _ in rows)
    codomain_verdict = all(c for _, _, c in rows)
    return DirectSumReport(
        per_point=tuple(rows),
        domain_verdict=domain_verdict,
        codomain_verdict=codomain_verdict,
        verdict=domain_verdict and codomain_verdict,
    )


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
        if b.shape != (n, m):
            raise ShapeMismatchError(
                f"inverse of a {p.shape} matrix must have shape {(n, m)}, got {b.shape}"
            )
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
    deviations, banach, ranks = _point_stage(p, grid.points, 6, stage)
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

