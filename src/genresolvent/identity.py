"""The resolvent identity of a sampled family of matrices.

A family G_k at points l_k, one of which is 0, satisfies the resolvent
identity on the sample when every ordered pair (i, j) has a zero deviation

    D_ij = G_i - G_j - (l_i - l_j) G_i S G_j.

:func:`decide_identity` is the one decision of that identity, for the
explicit family of :mod:`resolvent` and for the pointwise pseudoinverses of
:mod:`criteria` alike. Every residual is ||D_ij||_2 relative to
||G_0||_2, the norm of the member at lam = 0. The decision takes three
steps, each only where the one before leaves a pair undecided:

1. "bound": a bound on every ordered pair from one residual per point
   (:func:`_identity_bound`); where every pair's bound is at most
   residual_tol, their maximum decides.
2. The 2 (k - 1) pairs through lam = 0: their deviations are formed and
   bounded, and their exact maximum taken where a bound exceeds
   residual_tol. An exact maximum above residual_tol decides.
3. Every other pair whose bound from step 1 exceeds residual_tol, all of
   them, the same way.

So a reported value at most residual_tol is at least every pair's
residual, and a value above it is the exact residual of the pair it names.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    EPS,
    NORM_BOUND_SLACK,
    NORM_FLOOR,
    UNDERFLOW,
    TolerancePolicy,
    chunks,
    decided_maximum,
    frobenius_norms,
    norm_lower_bounds,
    norm_upper_bounds,
    op_norm2,
    op_norms2,
)


def decide_identity(
    s: np.ndarray, values: np.ndarray, lams: np.ndarray, tol: TolerancePolicy,
    st_norm: float | None = None,
) -> tuple[float, str, tuple[int, int] | None]:
    """Decide the resolvent identity on the (k, n, m) stack values, G_k =
    values[k] at lams[k], one of which is 0.

    Returns the deciding value, the method, "bound" (step 1) or "pairs"
    (steps 2 and 3), and the pair of indices whose exact residual the value
    is, where it exceeds residual_tol; otherwise None. In step 2 that value
    is a certified lower bound on the maximum over every pair; in step 3 it
    is that maximum, since every pair left out is at most residual_tol. A
    passing "pairs" value is the largest of the bounds or exact maxima that
    decided each pair.

    st_norm, when given, is an upper bound on ||S G_0||_2, as computed,
    which gives step 1 its margins before the per-point pass; without it,
    ||S G_0||_2 is taken only after the pass ends.
    """
    limit = tol.residual_tol
    zero = int(np.flatnonzero(lams == 0)[0])
    bounds = _pair_bounds(s, values, lams, zero, limit, st_norm)
    top = float(bounds.max(initial=0.0))
    # a NaN bound, as of non-finite entries, fails the comparison too
    if top <= limit:
        return top, "bound", None
    through_zero = np.zeros(bounds.shape, dtype=bool)
    through_zero[zero] = through_zero[:, zero] = True
    through_zero[zero, zero] = False
    undecided = ~(bounds <= limit) & ~through_zero
    value = float(bounds[~through_zero & ~undecided].max(initial=0.0))
    scale = max(op_norm2(values[zero]), NORM_FLOOR)
    for chosen in (through_zero, undecided):
        best, pair = _pairs_maximum(s, values, lams, np.argwhere(chosen), scale, limit)
        if best > limit:
            return best, "pairs", pair
        value = max(value, best)
    return value, "pairs", None


def _pair_bounds(
    s: np.ndarray, values: np.ndarray, lams: np.ndarray, zero: int, limit: float,
    st_norm: float | None,
) -> np.ndarray:
    """The (k, k) bounds of :func:`_identity_bound` on every ordered pair,
    anchored at G_0 = values[zero] with C = fl(S G_0), from one per-point
    pass of the solve residuals E_k = G_k (I - l_k C) - G_0
    (:func:`_solve_residual_bounds`), chunk by chunk.

    For the explicit family, whose G_0 is tplus, E_k is the residual of the
    solve that built G_k; for the pointwise pseudoinverses it is, up to the
    rounding of C, the deviation of the pair (k, 0). A residual above
    limit * ||G_0||_2 (the bound's scale) ends the pass: with two or more
    points every pair through it has a bound above limit, since every
    margin is at most 1, and every pair is then left without a bound, +inf.
    """
    anchor = values[zero]
    st_plus = s @ anchor
    count = len(lams)
    residuals = np.empty(count)
    scale = max(norm_lower_bounds(anchor[None])[0], NORM_FLOOR)
    # per point: the difference, the product, and the Frobenius norm's
    # moduli, scaled copy and squares
    for part in chunks(count, 5 * 16 * max(anchor.shape) ** 2):
        residuals[part] = _solve_residual_bounds(s, anchor, st_plus, lams[part], values[part])
        # +inf, where a residual overflows against the floored scale, exceeds limit
        with np.errstate(over="ignore"):
            if count > 1 and np.any(residuals[part] / scale > limit):
                return np.where(np.eye(count, dtype=bool), 0.0, np.inf)
    norm = op_norm2(st_plus) if st_norm is None else st_norm
    # lower bounds on 1 - |l_k| ||C||_2, from ||C||_2 widened by NORM_BOUND_SLACK
    margins = 1.0 - np.abs(lams) * (norm * (1.0 + NORM_BOUND_SLACK))
    return _identity_bound(s, anchor, lams, margins, residuals)


def _pairs_maximum(
    s: np.ndarray, g: np.ndarray, lams: np.ndarray, pairs: np.ndarray, scale: float,
    limit: float,
) -> tuple[float, tuple[int, int] | None]:
    """The residuals ||D_ij||_2 / scale of the (P, 2) index pairs into the
    family g decided bound first by :func:`linalg.decided_maximum`: the
    largest :func:`linalg.norm_upper_bounds` of the deviations where that is
    at most limit, and otherwise their exact maximum, which rebuilds each
    deviation it needs through the same code, with the first pair attaining
    it in pairs order (None when the bound decides or every deviation is
    zero).

    The deviations are bounded in chunks of about CHUNK_BYTES, counting six
    matrices of 16 * n * max(n, m) bytes per pair: while they are formed,
    the chunk's distinct G_i @ s, the gathered G_i @ s, G_i and G_j, and
    their product; while they are bounded, the deviations and the bound's
    scaled copy, adjoint and Gram.
    """
    _, height, width = g.shape
    bounds = np.zeros(len(pairs))
    # +inf, where a deviation overflows against a floored scale, exceeds every bound
    with np.errstate(over="ignore"):
        for part in chunks(len(pairs), 6 * 16 * height * max(height, width)):
            firsts, seconds = pairs[part, 0], pairs[part, 1]
            rows, inverse = np.unique(firsts, return_inverse=True)
            deviations = _deviations(g, lams, (g[rows] @ s)[inverse], firsts, seconds)
            bounds[part] = norm_upper_bounds(deviations)
        bounds /= scale

    def exact(position: int) -> float:
        pair = pairs[position : position + 1]
        deviation = _deviations(g, lams, g[pair[:, 0]] @ s, pair[:, 0], pair[:, 1])
        return float(op_norms2(deviation)[0]) / scale

    best, _, position = decided_maximum(bounds, limit, exact)
    return best, None if position is None else (int(pairs[position, 0]), int(pairs[position, 1]))


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
    # the difference of the halved points stays finite where l_i - l_j
    # overflows; the product it scales, doubled, has the bits of the one
    # l_i - l_j scales wherever the halved points are normal numbers
    np.multiply((lams[firsts] / 2.0 - lams[seconds] / 2.0)[:, None, None], products, out=products)
    products *= 2.0
    deviations -= products
    return deviations


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

    E_k is formed as fl(G_k - T+) - fl(l_k fl(G_k @ C)) and bounded by its
    :func:`linalg.frobenius_norms`, widened by NORM_BOUND_SLACK, plus the
    rounding of forming it, in Frobenius norms: EPS for the first
    difference, 2 EPS for the scaled product and the last difference, and
    :func:`_rounding` of |l_k| ||G_k||_F ||C||_F for the product. Where C has a nonzero entry,
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
        # sqrt(2) UNDERFLOW per product term and per scaled entry; where
        # |l_k| m overflows, +inf is the bound, and the exact pairs decide
        with np.errstate(over="ignore"):
            rounding += 2.0 * UNDERFLOW * math.sqrt(m * n) * (moduli * m + 1.0)
    difference -= product
    return frobenius_norms(difference) * (1.0 + NORM_BOUND_SLACK) + rounding


def _identity_bound(
    s: np.ndarray, tplus: np.ndarray, lams: np.ndarray, margins: np.ndarray,
    residuals: np.ndarray,
) -> np.ndarray:
    """Bounds on ||D_ij||_2 / ||T+||_2, as the (k, k) array of every ordered
    pair (i, j) of the points lams, for matrices G_k whose residuals
    E_k = G_k A_k - T+ have the bounds ``residuals``
    (:func:`_solve_residual_bounds`), where margins[k] is a lower bound on
    1 - |l_k| ||C||_2. A pair through a point whose margin is not positive
    has no bound, +inf; the diagonal, whose deviations are exactly zero, is 0.

    With C = fl(S T+) and A_k = I - l_k C, expanding G_j A_j = T+ + E_j and
    (l_i - l_j) C = A_j - A_i gives, exactly, for any matrices G_k,

        D_ij A_j = E_i - E_j - (l_i - l_j) G_i (S E_j + S T+ - C),

    so ||D_ij|| <= (||E_i|| + ||E_j|| + |l_i - l_j| ||G_i|| (||S|| ||E_j|| + ||S T+ - C||))
    * ||A_j^-1||. Here ||A_j^-1|| <= 1 / margins[j], G_i A_i = T+ + E_i
    gives ||G_i|| <= (||T+|| + ||E_i||) ||A_i^-1||, and ||S T+ - C|| is C's
    own rounding, :func:`_rounding` of || |S| |T+| ||_F. The norms of S and
    T+ come from :func:`linalg.norm_upper_bounds` and the scale ||T+||_2
    from :func:`linalg.norm_lower_bounds`.
    """
    m, n = s.shape
    usable = margins > 0.0
    margins = np.where(usable, margins, 1.0)
    drift = _rounding(n) * frobenius_norms((np.abs(s) @ np.abs(tplus))[None])[0]
    if np.any(s):
        # sqrt(2) n UNDERFLOW per entry of C
        drift += 2.0 * UNDERFLOW * m * n
    g_norms = (norm_upper_bounds(tplus[None])[0] + residuals) / margins
    gaps = np.abs(lams[:, None] - lams[None, :]) * g_norms[:, None]
    spread = drift + norm_upper_bounds(s[None])[0] * residuals
    bounds = (residuals[:, None] + residuals[None, :] + gaps * spread[None, :]) / margins[None, :]
    bounds[~usable] = np.inf
    bounds[:, ~usable] = np.inf
    np.fill_diagonal(bounds, 0.0)
    # +inf, where a bound overflows against a floored scale, exceeds residual_tol
    with np.errstate(over="ignore"):
        return bounds / max(norm_lower_bounds(tplus[None])[0], NORM_FLOOR)
