"""Stability of generalized inverses under small perturbations.

Given a generalized inverse tplus of t and a nearby operator tbar with
||tplus|| * ||tbar - t|| < 1, the candidate

    b = tplus @ (I + dt @ tplus)^-1 = (I + tplus @ dt)^-1 @ tplus,   dt = tbar - t,

is always an outer inverse of tbar, and is a full generalized inverse
exactly when R(tbar) is transversal to N(tplus). The same transversality is
equivalent to either of the two splittings

    codomain = R(tbar) + N(tplus),      domain = N(tbar) + R(tplus).

This module computes b, classifies it, and evaluates all four conditions so
their agreement can be observed rather than assumed. The three subspace
conditions come from the one rank kernel :func:`linalg.split_ranks`, as
comparisons of rank(tbar), rank(tbar U) and rank(V^H tbar) for orthonormal
bases U of R(tplus) and V of N(tplus)^perp.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import GenResolventError, PerturbationTooLargeError, ShapeMismatchError
from .geninv import GenInverse, InverseVerdict, verify_gen_inverse
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_matrix,
    empty_basis,
    factor,
    op_norm2,
    relative_residual,
    solve,
    solve_right,
    split_ranks,
    split_verdicts,
)


class PerturbationClass(enum.Enum):
    GENERALIZED = "generalized"
    OUTER_ONLY = "outer-only"


@dataclass(frozen=True)
class PerturbationResult:
    """The perturbed inverse b with its classification and residuals.

    smallness is ||tplus||_2 * ||tbar - t||_2 and is < 1 by construction.
    """

    b: np.ndarray
    classification: PerturbationClass
    inner_residual: float
    outer_residual: float
    smallness: float


def smallness_of(g: GenInverse, tbar) -> float:
    """The contraction product ||tplus||_2 * ||tbar - t||_2."""
    tbar = as_matrix(tbar)
    if tbar.shape != g.t.shape:
        raise ShapeMismatchError(f"perturbed operator shape {tbar.shape} != {g.t.shape}")
    return op_norm2(g.tplus) * op_norm2(tbar - g.t)


def transversal(tbar, g: GenInverse, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True iff R(tbar) meets N(tplus) only at the origin."""
    tbar = as_matrix(tbar)
    if tbar.shape != g.t.shape:
        raise ShapeMismatchError(f"perturbed operator shape {tbar.shape} != {g.t.shape}")
    f_perp = factor(g.tplus, tol).coimage.basis
    split = split_ranks(tbar[None], empty_basis(tbar.shape[1]), f_perp, tol)
    verdicts, _, _ = split_verdicts(split, 0, f_perp.shape[1])
    return bool(verdicts[0])


def perturbed_inverse(
    g: GenInverse, tbar, tol: TolerancePolicy = DEFAULT_TOL
) -> PerturbationResult:
    """Compute and classify b = (I + tplus dt)^-1 tplus for tbar = t + dt.

    Both factorizations of the formula are evaluated and cross-checked
    against each other before classification. The outer axiom holds for
    every admissible perturbation (R(b) lies inside R(tplus), which the
    defect of the outer product annihilates), so the classification is
    either GENERALIZED or OUTER_ONLY; the residuals are still measured per
    call instead of assumed.
    """
    tbar = as_matrix(tbar)
    small = smallness_of(g, tbar)
    if small >= 1.0:
        raise PerturbationTooLargeError(
            f"perturbation too large: ||tplus||*||dt|| = {small:.6g} >= 1", small
        )
    dt = tbar - g.t
    n = g.t.shape[1]
    m = g.t.shape[0]
    left = solve(np.eye(n, dtype=np.complex128) + g.tplus @ dt, g.tplus, tol)
    right = solve_right(np.eye(m, dtype=np.complex128) + dt @ g.tplus, g.tplus, tol)
    agreement = relative_residual(left - right, left)
    if agreement > tol.residual_tol:
        raise GenResolventError(
            f"left and right factorizations disagree (relative deviation {agreement:.3e})"
        )
    inner, outer, verdict = verify_gen_inverse(tbar, left, tol)
    if verdict is InverseVerdict.GENERALIZED:
        classification = PerturbationClass.GENERALIZED
    elif outer <= tol.residual_tol:
        classification = PerturbationClass.OUTER_ONLY
    else:
        raise GenResolventError(
            f"perturbed inverse unexpectedly fails the outer axiom (residual {outer:.3e})"
        )
    return PerturbationResult(
        b=left,
        classification=classification,
        inner_residual=inner,
        outer_residual=outer,
        smallness=small,
    )


@dataclass(frozen=True)
class SplittingChecks:
    """Verdicts of the four equivalent stability conditions.

    result is the perturbed inverse the first verdict classifies.
    """

    b_is_generalized: bool
    transversal: bool
    codomain_splits: bool
    domain_splits: bool
    result: PerturbationResult = field(compare=False)

    def as_tuple(self) -> tuple[bool, bool, bool, bool]:
        return (self.b_is_generalized, self.transversal, self.codomain_splits, self.domain_splits)

    @property
    def agree(self) -> bool:
        return len(set(self.as_tuple())) == 1


def splitting_checks(
    tbar, g: GenInverse, tol: TolerancePolicy = DEFAULT_TOL
) -> SplittingChecks:
    """Evaluate all four stability conditions.

    They are equivalent under the smallness precondition. The first is read
    off the axiom residuals of b, the other three off the ranks of
    :func:`linalg.split_ranks` (the codomain split is transversality plus a
    dimension count), so tests observe the equivalence numerically. Raises
    PerturbationTooLargeError, as :func:`perturbed_inverse` does, when the
    smallness precondition fails.
    """
    tbar = as_matrix(tbar)
    result = perturbed_inverse(g, tbar, tol)
    plus_factor = factor(g.tplus, tol)
    e, f_perp = plus_factor.range.basis, plus_factor.coimage.basis
    split = split_ranks(tbar[None], e, f_perp, tol)
    transversal, domain, codomain = split_verdicts(split, e.shape[1], f_perp.shape[1])
    return SplittingChecks(
        b_is_generalized=result.classification is PerturbationClass.GENERALIZED,
        transversal=bool(transversal[0]),
        codomain_splits=bool(codomain[0]),
        domain_splits=bool(domain[0]),
        result=result,
    )


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
    meaningless.
    """
    tbar = as_matrix(tbar)
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
