"""Stability of generalized inverses under small perturbations.

Given a generalized inverse tplus of t and a nearby operator tbar with
||tplus|| * ||tbar - t|| < 1, the candidate

    b = tplus @ (I + dt @ tplus)^-1 = (I + tplus @ dt)^-1 @ tplus,   dt = tbar - t,

is always an outer inverse of tbar, and is a full generalized inverse
exactly when R(tbar) is transversal to N(tplus). The same transversality is
equivalent to either of the two splittings

    codomain = R(tbar) + N(tplus),      domain = N(tbar) + R(tplus).

:func:`perturbed_inverse` is the one computation of this module: it
computes b, classifies it, and evaluates all four conditions so their
agreement can be observed rather than assumed. The three subspace
conditions come from one call of the rank kernel :func:`linalg.split_ranks`,
as comparisons of rank(tbar), rank(tbar U) and rank(V^H tbar) for
orthonormal bases U of R(tplus) and V of N(tplus)^perp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenResolventError, PerturbationTooLargeError, ShapeMismatchError
from .geninv import GenInverse, InverseVerdict, verify_gen_inverse
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_matrix,
    factor,
    op_norm2,
    relative_residual,
    solve,
    solve_right,
    split_ranks,
    split_verdicts,
)


@dataclass(frozen=True)
class PerturbationResult:
    """The perturbed inverse b, its classification and residuals, and the
    verdicts of the four equivalent stability conditions.

    classification is GENERALIZED or OUTER_ONLY. smallness is
    ||tplus||_2 * ||tbar - t||_2 and is < 1 by construction.
    """

    b: np.ndarray
    classification: InverseVerdict
    inner_residual: float
    outer_residual: float
    smallness: float
    transversal: bool
    codomain_splits: bool
    domain_splits: bool

    @property
    def b_is_generalized(self) -> bool:
        return self.classification is InverseVerdict.GENERALIZED

    def as_tuple(self) -> tuple[bool, bool, bool, bool]:
        return (self.b_is_generalized, self.transversal, self.codomain_splits, self.domain_splits)

    @property
    def agree(self) -> bool:
        return len(set(self.as_tuple())) == 1


def _checked(g: GenInverse, tbar) -> np.ndarray:
    """tbar as a complex matrix of the shape of g's base operator."""
    tbar = as_matrix(tbar)
    if tbar.shape != g.t.shape:
        raise ShapeMismatchError(f"perturbed operator shape {tbar.shape} != {g.t.shape}")
    return tbar


def _rank_verdicts(g: GenInverse, tbar, tol: TolerancePolicy) -> tuple[bool, bool, bool]:
    """Transversality, the codomain split and the domain split of a checked
    tbar against E = R(tplus) and F = N(tplus), from one rank pass."""
    plus_factor = factor(g.tplus, tol)
    e, f_perp = plus_factor.range.basis, plus_factor.coimage.basis
    split = split_ranks(tbar[None], e, f_perp, tol)
    transversal, domain, codomain = split_verdicts(split, e.shape[1], f_perp.shape[1])
    return bool(transversal[0]), bool(codomain[0]), bool(domain[0])


def smallness_of(g: GenInverse, tbar) -> float:
    """The contraction product ||tplus||_2 * ||tbar - t||_2."""
    return op_norm2(g.tplus) * op_norm2(_checked(g, tbar) - g.t)


def transversal(tbar, g: GenInverse, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True iff R(tbar) meets N(tplus) only at the origin."""
    return _rank_verdicts(g, _checked(g, tbar), tol)[0]


def perturbed_inverse(
    g: GenInverse, tbar, tol: TolerancePolicy = DEFAULT_TOL
) -> PerturbationResult:
    """Compute and classify b = (I + tplus dt)^-1 tplus for tbar = t + dt,
    and evaluate the four equivalent stability conditions.

    Both factorizations of the formula are evaluated and cross-checked
    against each other before classification. The outer axiom holds for
    every admissible perturbation (R(b) lies inside R(tplus), which the
    defect of the outer product annihilates), so the classification is
    either GENERALIZED or OUTER_ONLY; the residuals are still measured per
    call instead of assumed. The first condition is read off those
    residuals, the other three off the ranks of :func:`linalg.split_ranks`
    (the codomain split is transversality plus a dimension count), so tests
    observe the equivalence numerically. Raises PerturbationTooLargeError
    when the smallness precondition fails.
    """
    tbar = _checked(g, tbar)
    small = smallness_of(g, tbar)
    if small >= 1.0:
        raise PerturbationTooLargeError(
            f"perturbation too large: ||tplus||*||dt|| = {small:.6g} >= 1", small
        )
    dt = tbar - g.t
    m, n = g.t.shape
    left = solve(np.eye(n, dtype=np.complex128) + g.tplus @ dt, g.tplus, tol)
    right = solve_right(np.eye(m, dtype=np.complex128) + dt @ g.tplus, g.tplus, tol)
    agreement = relative_residual(left - right, left)
    if agreement > tol.residual_tol:
        raise GenResolventError(
            f"left and right factorizations disagree (relative deviation {agreement:.3e})"
        )
    inner, outer, verdict = verify_gen_inverse(tbar, left, tol)
    if verdict not in (InverseVerdict.GENERALIZED, InverseVerdict.OUTER_ONLY):
        raise GenResolventError(
            f"perturbed inverse unexpectedly fails the outer axiom (residual {outer:.3e})"
        )
    return PerturbationResult(left, verdict, inner, outer, small, *_rank_verdicts(g, tbar, tol))


@dataclass(frozen=True)
class EquivalenceReport:
    """Transversality verdicts against two inverses of the same operator.

    Agreement is guaranteed by the theory only for sufficiently small
    perturbations, with no constructive bound; this reports, never asserts.
    """

    verdict1: bool
    verdict2: bool
    agree: bool


def equivalence_check(
    tbar,
    g1: GenInverse,
    g2: GenInverse,
    perturbation_bound: float,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> EquivalenceReport:
    """Run the transversality test against two generalized inverses of one t.

    The caller supplies the perturbation bound under which agreement is
    expected; exceeding it is an error since the comparison would be
    meaningless. An infinite bound means no bound; a NaN one is rejected.
    """
    tbar = _checked(g1, tbar)
    if math.isnan(perturbation_bound):
        raise ValueError(f"perturbation_bound must be a number or inf, got {perturbation_bound}")
    if not np.array_equal(g1.t, g2.t):
        raise ShapeMismatchError("the two inverses invert different base operators")
    deviation = op_norm2(tbar - g1.t)
    if deviation > perturbation_bound:
        raise PerturbationTooLargeError(
            f"||tbar - t|| = {deviation:.6g} exceeds the supplied bound {perturbation_bound:.6g}",
            deviation,
        )
    v1 = transversal(tbar, g1, tol)
    v2 = transversal(tbar, g2, tol)
    return EquivalenceReport(verdict1=v1, verdict2=v2, agree=v1 == v2)
