"""Dense complex linear algebra substrate.

Factorizations, numerical rank, orthonormal subspace bases, projectors,
spectral norms and subspace comparisons. Every operator in the package is a
dense complex matrix (``numpy.ndarray`` of ``complex128``); this module owns
the tolerance conventions the rest of the package inherits.

All functions are pure: inputs are validated, promoted to read-only complex
arrays, and never mutated, so results are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FactorizationError,
    InvalidComplementError,
    ShapeMismatchError,
    SingularSystemError,
)

EPS = float(np.finfo(np.float64).eps)
# Floor on a scale norm in relative residuals, so a zero scale cannot divide by 0.
NORM_FLOOR = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical tolerances shared by the whole analysis.

    rank_rtol     relative singular-value cutoff factor: sigma below
                  rank_rtol * sigma_max * max(m, n) counts as zero
    residual_tol  relative bound under which a matrix-equation residual
                  counts as satisfied
    gap_tol       bound under which a projector-difference norm counts as
                  subspace equality

    Each lies in the open interval (0, 1): a subspace gap never exceeds 1,
    the zero candidate inverse has inner residual exactly 1, and a rank_rtol
    of 1 puts the cutoff at or above sigma_max, so a bound of 1 or more
    decides nothing. NaN and inf fail the same comparison.
    """

    rank_rtol: float = EPS
    residual_tol: float = 1e-10
    gap_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rtol", "residual_tol", "gap_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in the open interval (0, 1), got {value!r}")


DEFAULT_TOL = TolerancePolicy()


def as_matrix(a) -> np.ndarray:
    """Validate and promote input to a read-only 2-D complex128 array.

    Rejects non-2-D input and non-finite entries. Real input is promoted to
    complex; the returned array is a copy, frozen against accidental writes.
    """
    arr = np.array(a, dtype=np.complex128, order="C")
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of C^ambient_dim given by orthonormal basis columns.

    ``basis`` has shape (ambient_dim, dim); dim may be zero, which represents
    the trivial subspace {0}. Orthonormality is validated at construction.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", as_matrix(self.basis))
        if self.ambient_dim < 0:
            raise ValueError("ambient dimension must be non-negative")
        if self.basis.shape[0] != self.ambient_dim:
            raise ShapeMismatchError(
                f"basis has {self.basis.shape[0]} rows, ambient is {self.ambient_dim}"
            )
        if self.basis.shape[1] > self.ambient_dim:
            raise ShapeMismatchError("more basis columns than ambient dimension")
        k = self.basis.shape[1]
        if k:
            gram = self.basis.conj().T @ self.basis
            if np.max(np.abs(gram - np.eye(k))) > 1e-8:
                raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def zero_subspace(ambient_dim: int) -> SubspaceBasis:
    """The trivial subspace {0} of C^ambient_dim."""
    return SubspaceBasis(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))


def full_subspace(ambient_dim: int) -> SubspaceBasis:
    """The whole space C^ambient_dim with the standard basis."""
    return SubspaceBasis(ambient_dim, np.eye(ambient_dim, dtype=np.complex128))


def subspace_from_columns(columns, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the span of arbitrary (possibly dependent) columns."""
    return factor(columns, tol).range


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full singular value decomposition a = u @ diag(s) @ vh.

    Returns (u, s, vh) with unitary u, vh and s descending. Raises
    FactorizationError if the iterative kernel does not converge.
    """
    a = as_matrix(a)
    if a.size == 0:
        raise ShapeMismatchError("svd requires a non-empty matrix")
    return _svd(a, compute_uv=True)


def _svd(a: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"svd did not converge: {exc}") from exc


def rank_cutoff(s: np.ndarray, shape: tuple[int, int], tol: TolerancePolicy) -> float:
    """Singular-value cutoff: values at or below it count as zero."""
    top = float(s[0]) if s.size else 0.0
    return tol.rank_rtol * top * max(shape)


def _count_above_cutoff(s: np.ndarray, shape, tol: TolerancePolicy) -> int:
    return int(np.count_nonzero(s > rank_cutoff(s, shape, tol)))


def numerical_rank(a, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff; 0 for the zero matrix."""
    a = as_matrix(a)
    if min(a.shape) == 0:
        return 0
    return _count_above_cutoff(_svd(a, compute_uv=False), a.shape, tol)


def rank_and_marginal(a, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[int, bool]:
    """Numerical rank plus a marginality flag.

    The rank decision is marginal when the smallest retained singular value
    is within a factor of 10 of the cutoff, i.e. the rank would flip under a
    modest tolerance change.
    """
    a = as_matrix(a)
    if min(a.shape) == 0:
        return 0, False
    s = _svd(a, compute_uv=False)
    cutoff = rank_cutoff(s, a.shape, tol)
    r = int(np.count_nonzero(s > cutoff))
    marginal = r > 0 and float(s[r - 1]) <= 10.0 * cutoff
    return r, marginal


@dataclass(frozen=True)
class Factor:
    """One full SVD a = u @ diag(s) @ vh and its numerical rank.

    Kernel, range and pseudoinverse are views of the same factorization, so
    a caller that needs several of them pays for one SVD. An empty matrix
    factors with identity u and vh and rank 0.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int

    @property
    def kernel(self) -> SubspaceBasis:
        """Orthonormal basis of the null space N(a)."""
        return SubspaceBasis(self.vh.shape[0], self.vh[self.rank :].conj().T)

    @property
    def range(self) -> SubspaceBasis:
        """Orthonormal basis of the range R(a)."""
        return SubspaceBasis(self.u.shape[0], self.u[:, : self.rank])

    @property
    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse: values at or below the cutoff are zeroed, never inverted."""
        k = self.s.size
        inv_s = np.zeros(k, dtype=np.float64)
        inv_s[: self.rank] = 1.0 / self.s[: self.rank]
        return (self.vh.conj().T[:, :k] * inv_s) @ self.u.conj().T[:k, :]


def factor(a, tol: TolerancePolicy = DEFAULT_TOL) -> Factor:
    """Full SVD of a with the shared rank cutoff applied."""
    a = as_matrix(a)
    m, n = a.shape
    if a.size == 0:
        return Factor(np.eye(m, dtype=np.complex128), np.zeros(0),
                      np.eye(n, dtype=np.complex128), 0)
    u, s, vh = _svd(a, compute_uv=True)
    return Factor(u, s, vh, _count_above_cutoff(s, a.shape, tol))


def kernel_basis(a, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the null space N(a)."""
    return factor(a, tol).kernel


def range_basis(a, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the range R(a)."""
    return factor(a, tol).range


def op_norm2(a) -> float:
    """Spectral norm: the largest singular value."""
    a = as_matrix(a)
    if min(a.shape) == 0 or not np.any(a):
        return 0.0
    return float(_svd(a, compute_uv=False)[0])


def projector(b: SubspaceBasis) -> np.ndarray:
    """Orthogonal projector onto the subspace: basis @ basis^H."""
    return b.basis @ b.basis.conj().T


def subspace_gap(m: SubspaceBasis, n: SubspaceBasis) -> float:
    """Gap ||P_M - P_N||_2 between two subspaces of the same ambient space.

    Zero iff the subspaces are equal; equals the sine of the largest
    principal angle when the dimensions match, and exactly 1 when they
    differ.
    """
    if m.ambient_dim != n.ambient_dim:
        raise ShapeMismatchError(
            f"ambient dimensions differ: {m.ambient_dim} vs {n.ambient_dim}"
        )
    if m.ambient_dim == 0:
        return 0.0
    return op_norm2(projector(m) - projector(n))


def intersection_trivial(
    m: SubspaceBasis, n: SubspaceBasis, tol: TolerancePolicy = DEFAULT_TOL
) -> bool:
    """True iff the subspaces meet only at the origin.

    Decided by whether the concatenated bases have full column rank.
    """
    if m.ambient_dim != n.ambient_dim:
        raise ShapeMismatchError(
            f"ambient dimensions differ: {m.ambient_dim} vs {n.ambient_dim}"
        )
    if m.dim == 0 or n.dim == 0:
        return True
    stacked = np.hstack([m.basis, n.basis])
    return numerical_rank(stacked, tol) == m.dim + n.dim


def direct_sum_check(
    m: SubspaceBasis, n: SubspaceBasis, tol: TolerancePolicy = DEFAULT_TOL
) -> bool:
    """True iff the ambient space is the (not necessarily orthogonal) sum M + N."""
    if m.ambient_dim != n.ambient_dim:
        raise ShapeMismatchError(
            f"ambient dimensions differ: {m.ambient_dim} vs {n.ambient_dim}"
        )
    if m.dim + n.dim != m.ambient_dim:
        return False
    return intersection_trivial(m, n, tol)


def oblique_projector(
    m: SubspaceBasis, n: SubspaceBasis, tol: TolerancePolicy = DEFAULT_TOL
) -> np.ndarray:
    """Projector onto M along N, for a direct sum M + N = ambient space.

    Built by a block solve against the concatenated basis [M | N] rather
    than by inverting Gram matrices, which conditions better.
    """
    if not direct_sum_check(m, n, tol):
        raise InvalidComplementError("subspaces do not form a direct sum of the ambient space")
    if m.dim == 0:
        return np.zeros((m.ambient_dim, m.ambient_dim), dtype=np.complex128)
    stacked = np.hstack([m.basis, n.basis])
    coeffs = solve(stacked, np.eye(m.ambient_dim, dtype=np.complex128), tol)
    return m.basis @ coeffs[: m.dim]


def solve(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Solve a @ x = b for square, numerically invertible a.

    Raises SingularSystemError carrying a condition estimate when the
    smallest singular value falls at or below the rank cutoff.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"system matrix is not square: {a.shape}")
    if b.shape[0] != n:
        raise ShapeMismatchError(f"right-hand side has {b.shape[0]} rows, expected {n}")
    if n == 0:
        return np.zeros_like(b)
    s = _svd(a, compute_uv=False)
    cutoff = rank_cutoff(s, a.shape, tol)
    smin = float(s[-1])
    if smin <= cutoff:
        cond = float(s[0]) / smin if smin > 0.0 else np.inf
        raise SingularSystemError(
            f"system matrix singular to tolerance (cond ~ {cond:.3e})", cond
        )
    return np.linalg.solve(a, b)


def solve_right(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Solve x @ a = b for x, i.e. apply a^-1 from the right."""
    a = as_matrix(a)
    b = as_matrix(b)
    return solve(a.T, b.T, tol).T


def relative_residual(deviation, scale) -> float:
    """Spectral norm of the deviation relative to the scale matrix's norm.

    A tiny floor guards division when the scale is the zero matrix.
    """
    return op_norm2(deviation) / max(op_norm2(scale), NORM_FLOOR)
