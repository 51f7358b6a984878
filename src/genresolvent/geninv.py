"""Generalized inverses of complex matrices.

A generalized inverse of T is any B with T B T = T (inner axiom) and
B T B = B (outer axiom). Each one determines the projectors P = T B onto
R(T) and Q = B T along N(T), and hence the direct sums

    domain  = N(T) + R(B),      codomain = N(B) + R(T).

Conversely a choice of complements (E for N(T), F for R(T)) determines a
unique generalized inverse with R(B) = E, N(B) = F, given by Urquhart's
formula B = E (F_perp^H T E)^-1 F_perp^H for bases E of E and F_perp of
F's orthogonal complement; the Moore-Penrose inverse is the choice of
orthogonal complements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidComplementError, InvalidInverseError, ShapeMismatchError
from .linalg import (
    DEFAULT_TOL,
    Factor,
    SubspaceBasis,
    TolerancePolicy,
    as_matrix,
    factor,
    relative_residuals,
    residual_bounds,
    solve,
    split_ranks,
    split_verdicts,
)


class InverseKind(enum.Enum):
    MOORE_PENROSE = "moore-penrose"
    FROM_COMPLEMENTS = "from-complements"
    USER_SUPPLIED = "user-supplied"


class InverseVerdict(enum.Enum):
    GENERALIZED = "generalized"
    INNER_ONLY = "inner-only"
    OUTER_ONLY = "outer-only"
    NEITHER = "neither"


@dataclass(frozen=True)
class GenInverse:
    """A verified pair (t, tplus), the kind of inverse tplus is, and the rank
    it was built with: an upper bound on rank(tplus), exact but for the
    rounding of the product that formed tplus. It is the rank of t's SVD for
    the Moore-Penrose inverse, dim e for one from complements, and
    min(m, n) for a user-supplied one, which was built with none.

    Construction goes through the factory functions, which reject
    candidates violating the inner or outer axiom.
    """

    t: np.ndarray
    tplus: np.ndarray
    kind: InverseKind
    rank: int


def inverse_residuals(
    a: np.ndarray, b: np.ndarray, measure: Callable[[np.ndarray, np.ndarray], Any] = relative_residuals
) -> tuple[Any, Any, np.ndarray]:
    """Inner and outer axiom residuals of stacks a of shape (k, m, n) and b of (k, n, m).

    inner = ||a (b a) - a|| / ||a|| and outer = ||(b a) b - b|| / ||b|| per
    member, each with a tiny floor so the zero matrix is handled, as
    measure(deviation, scale) takes them: exactly by default, or bound first
    by :func:`linalg.bounded_residuals` with its limit bound, or by any
    stacked measure such as :func:`linalg.residual_bounds`. Each deviation
    is dropped before the next is formed. Also returns the stack b a, which
    callers may reuse.
    Stacks are trusted: built inside the package, not validated.
    """
    ba = b @ a
    return measure(a @ ba - a, a), measure(ba @ b - b, b), ba


def check_inverse_shape(shape: tuple[int, int], inverse_shape: tuple[int, ...]) -> None:
    """Raise ShapeMismatchError unless inverse_shape is that of an inverse of
    a matrix of the given shape: (n, m) for (m, n)."""
    if inverse_shape != shape[::-1]:
        raise ShapeMismatchError(f"inverse of a {shape} matrix must have shape "
                                 f"{shape[::-1]}, got {inverse_shape}")


def verify_gen_inverse(
    t, b, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[float, float, InverseVerdict]:
    """Relative residuals of the inner and outer axioms, and the verdict.

    The one-matrix view of :func:`inverse_residuals`. The verdict compares
    both residuals to residual_tol.
    """
    t = as_matrix(t)
    b = as_matrix(b)
    check_inverse_shape(t.shape, b.shape)
    inner, outer, _ = inverse_residuals(t[None], b[None])
    inner, outer = float(inner[0]), float(outer[0])
    inner_ok = inner <= tol.residual_tol
    outer_ok = outer <= tol.residual_tol
    if inner_ok and outer_ok:
        verdict = InverseVerdict.GENERALIZED
    elif inner_ok:
        verdict = InverseVerdict.INNER_ONLY
    elif outer_ok:
        verdict = InverseVerdict.OUTER_ONLY
    else:
        verdict = InverseVerdict.NEITHER
    return inner, outer, verdict


@dataclass(frozen=True)
class MPAxiomReport:
    """Residuals of the four Moore-Penrose axioms and the combined verdict."""

    inner_residual: float
    outer_residual: float
    p_hermitian_residual: float
    q_hermitian_residual: float
    ok: bool


def mp_axiom_deviations(
    t: np.ndarray, b: np.ndarray, axioms: Sequence[int] = range(4)
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Moore-Penrose axioms of stacks t of shape (k, m, n) and b of (k, n, m).

    Yields (deviation, scale) stack pairs for the axioms asked for, by
    index into the order inner, outer, p-Hermitian and q-Hermitian, with
    p = t b and q = b t: (p t - t, t), (q b - b, b), (p - p^H, p) and
    (q - q^H, q), one at a time: a deviation is formed when its pair is
    drawn, so a caller that drops each before drawing the next holds one.
    Only the products those axioms need are formed, by the same operations
    whichever axioms are asked for. An axiom's residual is
    ||deviation||_2 / ||scale||_2, as in :func:`verify_mp_axioms`. Stacks
    are trusted: built inside the package, not validated.
    """
    p = t @ b if not {0, 2}.isdisjoint(axioms) else None
    q = b @ t if not {1, 3}.isdisjoint(axioms) else None
    forms = (
        lambda: (p @ t - t, t),
        lambda: (q @ b - b, b),
        lambda: (p - p.conj().swapaxes(1, 2), p),
        lambda: (q - q.conj().swapaxes(1, 2), q),
    )
    for axiom in axioms:
        yield forms[axiom]()


def verify_mp_axioms(t, b, tol: TolerancePolicy = DEFAULT_TOL) -> MPAxiomReport:
    """Check t b t = t, b t b = b and Hermitian-ness of t b and b t."""
    t = as_matrix(t)
    b = as_matrix(b)
    check_inverse_shape(t.shape, b.shape)
    inner, outer, p_herm, q_herm = (
        float(relative_residuals(deviation, scale)[0])
        for deviation, scale in mp_axiom_deviations(t[None], b[None])
    )
    ok = max(inner, outer, p_herm, q_herm) <= tol.residual_tol
    return MPAxiomReport(inner, outer, p_herm, q_herm, ok)


def _checked(
    t: np.ndarray, b: np.ndarray, kind: InverseKind, tol: TolerancePolicy, rank: int
) -> GenInverse:
    """The verified pair (t, b); raises InvalidInverseError when b fails an axiom.
    Both axioms are decided bound first (:func:`linalg.residual_bounds`),
    and exactly where a bound exceeds residual_tol, so the residuals in the
    message are exact. A Moore-Penrose inverse that fails is t's own,
    computed here, so the error names residual_tol: below that inverse's
    rounding no inverse of t meets it."""
    check_inverse_shape(t.shape, b.shape)
    inner, outer, _ = inverse_residuals(t[None], b[None], residual_bounds)
    if not (inner[0] <= tol.residual_tol and outer[0] <= tol.residual_tol):
        inner, outer, _ = inverse_residuals(t[None], b[None])
    inner, outer = float(inner[0]), float(outer[0])
    if not (inner <= tol.residual_tol and outer <= tol.residual_tol):
        failing = (f"the Moore-Penrose inverse of T misses residual_tol {tol.residual_tol:.3e}"
                   if kind is InverseKind.MOORE_PENROSE
                   else "candidate fails the generalized-inverse axioms")
        raise InvalidInverseError(
            f"{failing} (inner residual {inner:.3e}, outer residual {outer:.3e})"
        )
    return GenInverse(t=t, tplus=b, kind=kind, rank=rank)


def pinv_matrix(t, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse as a bare matrix, via SVD with the shared rank cutoff.

    Singular values at or below the cutoff are zeroed, never inverted.
    """
    return factor(t, tol).pinv


def mp_inverse(
    t, tol: TolerancePolicy = DEFAULT_TOL, t_factor: Factor | None = None
) -> GenInverse:
    """The Moore-Penrose inverse of t, verified against all axioms.

    t_factor, when given, is ``factor(t, tol)`` as the caller took it, so a
    caller that also reads t's kernel and range factors t once.
    """
    t = as_matrix(t)
    t_factor = factor(t, tol) if t_factor is None else t_factor
    return _checked(t, t_factor.pinv, InverseKind.MOORE_PENROSE, tol, t_factor.rank)


def user_supplied(t, b, tol: TolerancePolicy = DEFAULT_TOL) -> GenInverse:
    """Wrap a caller-provided inverse, rejecting it unless both axioms hold."""
    t = as_matrix(t)
    b = as_matrix(b)
    return _checked(t, b, InverseKind.USER_SUPPLIED, tol, min(t.shape))


@dataclass(frozen=True)
class ComplementPair:
    """Complements (e, f) of the kernel and range of some matrix.

    e lives in the domain and complements N(t); f lives in the codomain and
    complements R(t). Validity is relative to t and is checked where the
    pair is consumed; :meth:`bases` is the one check of a pair's ambient
    dimensions.
    """

    e: SubspaceBasis
    f: SubspaceBasis

    def bases(self, shape: tuple[int, int], tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal bases of e and of f's orthogonal complement, for an
        operator of the given (m, n) shape; raises ShapeMismatchError unless
        e lies in C^n and f in C^m."""
        m, n = shape
        if self.e.ambient_dim != n or self.f.ambient_dim != m:
            raise ShapeMismatchError(
                f"complements have ambient ({self.e.ambient_dim}, {self.f.ambient_dim}), "
                f"operator needs ({n}, {m})"
            )
        return self.e.basis, factor(self.f.basis.conj().T, tol).kernel.basis


def geninv_from_complements(
    t, c: ComplementPair, tol: TolerancePolicy = DEFAULT_TOL
) -> GenInverse:
    """The generalized inverse determined by complements of N(t) and R(t).

    Urquhart's formula tplus = E (F_perp^H t E)^-1 F_perp^H, with E a basis
    of e and F_perp one of f's orthogonal complement: the unique generalized
    inverse with range e and kernel f. Once both splits hold, F_perp^H t E
    is square and invertible, so the inverse costs one r x r solve.
    """
    t = as_matrix(t)
    e, f_perp = c.bases(t.shape, tol)
    split = split_ranks(t[None], e, f_perp, tol)
    _, domain, codomain = split_verdicts(split, c.e.dim, f_perp.shape[1])
    if not domain[0]:
        raise InvalidComplementError("domain split failed: N(t) + e is not the whole domain")
    if not codomain[0]:
        raise InvalidComplementError("codomain split failed: R(t) + f is not the whole codomain")
    f_perp_h = f_perp.conj().T
    tplus = e @ solve(f_perp_h @ t @ e, f_perp_h, tol)
    return _checked(t, tplus, InverseKind.FROM_COMPLEMENTS, tol, c.e.dim)


def complements_of(g: GenInverse, tol: TolerancePolicy = DEFAULT_TOL) -> ComplementPair:
    """Read the complements (R(tplus), N(tplus)) back off a generalized inverse."""
    tplus_factor = factor(g.tplus, tol)
    return ComplementPair(e=tplus_factor.range, f=tplus_factor.kernel)
