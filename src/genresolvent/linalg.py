"""Dense complex linear algebra substrate.

Factorizations, numerical rank, orthonormal subspace bases, projectors,
spectral norms and subspace comparisons. Every operator in the package is a
dense complex matrix (``numpy.ndarray`` of ``complex128``); this module owns
the tolerance conventions the rest of the package inherits.

:func:`split_ranks` is the one values-only rank kernel of the package.
It gives the numerical rank of A, its marginal flag and, against the same
cutoff, the ranks of A E and F_perp^H A for fixed orthonormal bases E and
F_perp. Transversality, the two direct-sum splittings, fixed complements
and the perturbation splittings are comparisons of those integers
(:func:`split_verdicts`), never of concatenated kernel and range bases;
:func:`numerical_rank` and :func:`rank_and_marginal` are its one-matrix
views with empty bases. :func:`rank_stage` is the one grid rank stage: it
runs the kernel chunk by chunk, for the rank profiles, scans and subspace
criteria of the grid stages, and a rank pass is that stage run by
:func:`chunked_stage`, as every other grid stage is.

Most matrices a grid pass ranks without a product, and most systems
:func:`solve_stack` checks, are of full rank by a wide margin, and an SVD
is the dearest way to show it. So both first run a private full-rank
screen: one Gram matrix of the smaller side per member, its diagonal
lowered by a shift that covers the rank cutoff, the factor 10 of the
marginal rule and every rounding error on the way (SCREEN_SLACK), and one
batched Cholesky factorization. If it succeeds, the SVD would have given
every member full rank, not marginal, and none is factored; if it breaks
down on any member, or some ||A||_F^2 is near under- or overflow, the
stack takes the SVD path unchanged, which also gives the condition number
of a singular system. So every rank, marginal flag and singularity
verdict is the SVD's, and a certified member carries no singular values.
Ranks with products skip the screen: A's own SVD sets their cutoff. A
declined screen adds its cost to the SVD's, so the rank stage screens a
chunk only when the matrices before it were full rank: the first chunk
when its first matrix alone passes (a one-matrix probe), a later one when
the chunk before held a member of full rank, not marginal. On a pencil
singular at every lam it screens one matrix. Every chunk of a rank pass
without a product is sized for the screen's SCREEN_LIVE matrices beside
each member, screened or not. :func:`split_ranks` itself never screens, so
a single matrix is always factored.

All functions are pure: inputs are never mutated, so results are safe to
share across threads. Public single-matrix functions validate their inputs and
promote them to read-only complex arrays with :func:`as_matrix`.

The per-point stages of the package work on stacks: (k, m, n) complex128
arrays built inside the package, such as ``t - lams[:, None, None] * s``.
The stack functions (:func:`op_norms2`, :func:`norm_upper_bounds`,
:func:`norm_lower_bounds`, :func:`frobenius_norms`, :func:`factors`, :func:`split_ranks`,
:func:`solve_stack`, :func:`solve_right_stack`, :func:`relative_residuals`)
trust their input and skip ``as_matrix``; each makes one batched LAPACK
call per stack it factors. The single-matrix functions are their
one-element views, so there is one code path. Batched SVDs, solves and
products return exactly, bit for bit, what per-matrix calls return (a
``matmul`` written with ``out=`` need not). Every pass over t - lam*s at
sampled points runs through one driver, :func:`chunked_stage`: it cuts the
points into chunks by :func:`chunks`, has the caller build each chunk's
stack into one workspace kept for the pass, and runs a stage function on
each, the rank passes' :func:`rank_stage` among them. The count of the
matrices a stage keeps alive per point is the driver's one sizing
argument. CHUNK_BYTES is an approximate budget, not a cap: copies and
scratch arrays a stage makes beyond that count are not counted.

The exact maxima the reports print, of resolvent-identity and
Moore-Penrose axiom residuals, share one screen: :func:`norm_upper_bounds`
and :func:`norm_lower_bounds` bound a stack's spectral norms without a
factorization, and :func:`exact_maximum` takes exact norms largest bound
first, only until no bound left can reach the best exact value. The
maximum and its first maximizing position are those of an exact norm of
every member. The same bounds, with :func:`frobenius_norms` for rounding
terms, build the identity bound that decides the identity of both
``analyze`` and ``mp-check`` without the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import FactorizationError, ShapeMismatchError, SingularSystemError

EPS = float(np.finfo(np.float64).eps)
# Floor on a scale norm in relative residuals, so a zero scale cannot divide by 0.
NORM_FLOOR = float(np.finfo(np.float64).tiny)
# Relative widening of the norm bounds of norm_upper_bounds and
# norm_lower_bounds past their exact-arithmetic values. Upward it covers the
# rounding of the Gram product and of its Frobenius norm, at most a few
# times max(m, n) * EPS relative to ||X^H X||_F, so about that times 1/2 on
# its square root. Downward it covers the rounding of Y w against
# ||Y||_2: at most gamma_n ||Y||_F ||w|| <= n^(3/2) * EPS * ||Y||_2 * ||w||
# for Y scaled to unit peak, plus the rounding of the scaling and of the two
# vector norms. Both ways it also covers the computed largest singular value
# of the exact stage, within a modest multiple of n * EPS of ||X||_2. At
# every size this package handles (n up to a few hundred, so n^(3/2) * EPS
# below 1e-11) these add up to far less than NORM_BOUND_SLACK.
NORM_BOUND_SLACK = 1e-6
# Slack of the full-rank screen (_full_rank_certified), one constant for two
# quantities. As delta, relative to ||A||_F, it bounds the error of each
# singular value the values-only SVD returns: those are the singular values
# of A + E with ||E||_2 a modest multiple of max(m, n) * EPS * ||A||_2
# (backward-stable bidiagonalization and QR iteration), so by Weyl's
# inequality each moves by at most delta * ||A||_F. As kappa, relative to
# ||A||_F^2, it bounds the distance between the Gram matrix H = X^H X of the
# smaller side and the matrix whose Cholesky factor the screen computes: the
# rounding of the Gram product, within gamma_m |X^H| |X|, of 2-norm at most
# about 4 max(m, n) * EPS * ||A||_F^2 in complex arithmetic; the backward
# error of a Cholesky factorization that runs to completion, within
# gamma_(p+1) |R^H| |R|, of 2-norm at most about (p + 1) * EPS * tr(H)
# (Higham, ch. 10; Rump, BIT 46, 2006); and the rounding of the diagonal
# shift and of ||A||_F^2 = tr(H), a few EPS more. At every size this package
# handles (n up to a few hundred, so max(m, n) * EPS below 1e-13) each of
# these is below 1e-11, a tenth of SCREEN_SLACK at most.
SCREEN_SLACK = 1e-10
# The screen runs only where ||A||_F^2 lies strictly inside this range. Above
# its lower end the Gram's gradual underflow, at most about m * p * 2^-1074
# in 2-norm, is negligible against kappa * ||A||_F^2; below its upper end
# neither the Gram nor its shifted diagonal can overflow.
SCREEN_RANGE = (float(np.finfo(np.float64).tiny) / EPS, float(np.finfo(np.float64).max) * EPS)
# Matrices the screen keeps alive per member beside the member itself: the
# adjoint, the Gram and the Cholesky factor (fewer entries when not square).
SCREEN_LIVE = 3
# Approximate bytes held at once by one stack of per-point matrices and the
# arrays built from it, so peak memory stays flat in n and grid size.
CHUNK_BYTES = 2 << 20


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
    the trivial subspace {0}. The constructor validates orthonormality;
    bases read off an SVD skip the check (see :class:`Factor`).
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

    @classmethod
    def _trusted(cls, basis: np.ndarray) -> SubspaceBasis:
        """A basis known to be orthonormal, such as columns of an SVD factor.

        ``basis`` must be a fresh C-contiguous complex array that nothing
        else holds; it is frozen and stored without the ``as_matrix`` copy
        and the orthonormality check of the public constructor.
        """
        basis.setflags(write=False)
        trusted = object.__new__(cls)
        object.__setattr__(trusted, "ambient_dim", basis.shape[0])
        object.__setattr__(trusted, "basis", basis)
        return trusted


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


def chunks(count: int, point_bytes: int) -> Iterator[slice]:
    """Consecutive slices of range(count), each of at least one index and,
    at point_bytes per index, of at most CHUNK_BYTES in all.

    point_bytes is the caller's estimate of what one index keeps alive, so
    the memory a chunk really takes can exceed CHUNK_BYTES by the arrays the
    estimate leaves out.
    """
    step = _chunk_length(point_bytes)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _chunk_length(point_bytes: int) -> int:
    return max(1, CHUNK_BYTES // max(point_bytes, 1))


def _ranks(s: np.ndarray, shape: tuple[int, ...], tol: TolerancePolicy):
    """Per-row counts of the singular values s[k] above their cutoffs, and the cutoffs.

    The cutoff of a matrix is rank_rtol * sigma_max * max(m, n); values at or
    below it count as zero.
    """
    cutoffs = tol.rank_rtol * s[:, 0] * max(shape[-2:])
    return np.count_nonzero(s > cutoffs[:, None], axis=1), cutoffs


def _full_rank_certified(
    stack: np.ndarray, tol: TolerancePolicy, gram: np.ndarray | None = None
) -> bool:
    """Whether the values-only SVD would give every member A of a (k, m, n)
    stack, min(m, n) > 0, full rank p = min(m, n) with a rank not marginal.

    A proof without an SVD. The SVD's decision needs its smallest value
    above 10 * rank_rtol * max(m, n) times its largest; computed values lie
    within delta ||A||_F of the exact ones, and sigma_max <= ||A||_F, so
    sigma_min(A) >= target = (10 rtol max(m, n) (1 + delta) + delta) ||A||_F
    suffices. sigma_min(A)^2 is the smallest eigenvalue of the Gram H of the
    smaller side, and a Cholesky factorization of the computed H less
    (target^2 + kappa ||A||_F^2) I that runs to completion proves it is at
    least target^2, rounding included (SCREEN_SLACK is delta and kappa).
    False when the factorization breaks down on some member (the batched
    call raises for the whole stack) or some ||A||_F^2 lies outside
    SCREEN_RANGE; the caller then takes the SVD.

    The Gram is written into gram, a C-contiguous (k, p, p) array that
    overlaps no input, when given; otherwise it is allocated. kappa covers
    its rounding in any order of summation. Either way the adjoint and the
    Cholesky factor are allocated here.
    """
    k, m, n = stack.shape
    adjoint = np.conjugate(stack.swapaxes(1, 2), order="C")
    gram = np.matmul(adjoint, stack, out=gram) if n <= m else np.matmul(stack, adjoint, out=gram)
    # freed before the factor is allocated, which can then take its memory
    del adjoint
    size = gram.shape[1]
    diagonal = gram.reshape(k, size * size)[:, :: size + 1]
    squares = diagonal.real.sum(axis=1)
    if not np.all((squares > SCREEN_RANGE[0]) & (squares < SCREEN_RANGE[1])):
        return False
    # target / ||A||_F
    ratio = 10.0 * tol.rank_rtol * max(m, n) * (1.0 + SCREEN_SLACK) + SCREEN_SLACK
    diagonal -= ((ratio * ratio + SCREEN_SLACK) * squares)[:, None]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def empty_basis(dim: int) -> np.ndarray:
    """The (dim, 0) basis of {0}: a :func:`split_ranks` product with it is not formed."""
    return np.zeros((dim, 0), dtype=np.complex128)


def numerical_rank(a, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff; 0 for the zero matrix."""
    return rank_and_marginal(a, tol)[0]


def rank_and_marginal(a, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[int, bool]:
    """Numerical rank plus a marginality flag; the one-matrix view of :func:`split_ranks`."""
    a = as_matrix(a)
    m, n = a.shape
    ranks, _, _, marginal = split_ranks(a[None], empty_basis(n), empty_basis(m), tol)
    return int(ranks[0]), bool(marginal[0])


@dataclass(frozen=True)
class Factor:
    """One full SVD a = u @ diag(s) @ vh and its numerical rank.

    Kernel, range and pseudoinverse are views of the same factorization, so
    a caller that needs several of them pays for one SVD. The kernel and
    range bases are read-only copies of columns of vh^H and u, orthonormal
    by construction and so not revalidated. An empty matrix factors with
    identity u and vh and rank 0. The one-matrix view of :class:`Factors`.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int

    @property
    def kernel(self) -> SubspaceBasis:
        """Orthonormal basis of the null space N(a)."""
        return SubspaceBasis._trusted(np.conjugate(self.vh[self.rank :].T, order="C"))

    @property
    def range(self) -> SubspaceBasis:
        """Orthonormal basis of the range R(a)."""
        return SubspaceBasis._trusted(np.array(self.u[:, : self.rank], order="C"))

    @property
    def coimage(self) -> SubspaceBasis:
        """Orthonormal basis of N(a)^perp = R(a^H)."""
        return SubspaceBasis._trusted(np.conjugate(self.vh[: self.rank].T, order="C"))

    @property
    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse: values at or below the cutoff are zeroed, never inverted."""
        return _pinvs(self.u[None], self.s[None], self.vh[None], np.array([self.rank]))[0]


@dataclass(frozen=True)
class Factors:
    """Full SVDs a[i] = u[i] @ diag(s[i]) @ vh[i] of a (k, m, n) stack and their ranks.

    The stacked views of :class:`Factor`: every member's pseudoinverse,
    formed with the operand shapes and memory layouts of the one-matrix
    view, so each slice has its bits, and every member's kernel and range
    gaps from an anchor's, read off the same factors without a projector.
    ``factors[i]`` is member i as a :class:`Factor`.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    ranks: np.ndarray

    def __getitem__(self, i: int) -> Factor:
        return Factor(self.u[i], self.s[i], self.vh[i], int(self.ranks[i]))

    @property
    def pinvs(self) -> np.ndarray:
        """The (k, n, m) stack of Moore-Penrose inverses."""
        return _pinvs(self.u, self.s, self.vh, self.ranks)

    def gaps(self, anchor: Factor) -> tuple[np.ndarray, np.ndarray]:
        """Gaps ||P_i - P||_2 of N(a[i]) and of R(a[i]) from the anchor's kernel and range.

        For subspaces of equal dimension the gap is the norm of one
        subspace's basis projected onto the other's orthogonal complement
        (Golub & Van Loan, §2.5.3), and the SVDs hold both. Where rank(a[i])
        equals the anchor's rank r, the kernel gap is the norm of the
        r x (n - r) product anchor.vh[:r] @ vh[i][r:]^H and the range gap
        that of the (m - r) x r product anchor.u[:, r:]^H @ u[i][:, :r],
        each stack from one :func:`op_norms2` call, and clipped at 1, which
        rounding can pass on near orthogonal subspaces. A member whose vh
        (or u) has the anchor's bits has kernel (or range) gap 0 and is not
        factored. Where the ranks differ, both gaps are 1.
        """
        r = anchor.rank
        equal = self.ranks == r
        kernel, range_ = np.where(equal, 0.0, 1.0), np.where(equal, 0.0, 1.0)
        moved = equal & np.any(self.vh != anchor.vh, axis=(1, 2))
        kernel[moved] = op_norms2(anchor.vh[:r] @ np.conjugate(self.vh[moved, r:]).swapaxes(1, 2))
        moved = equal & np.any(self.u != anchor.u, axis=(1, 2))
        range_[moved] = op_norms2(np.conjugate(anchor.u[:, r:]).T @ self.u[moved, :, :r])
        return np.minimum(kernel, 1.0), np.minimum(range_, 1.0)


def _pinvs(u: np.ndarray, s: np.ndarray, vh: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Pseudoinverses vh^H diag(1/s) u^H from stacked SVD factors, kept values inverted."""
    k = s.shape[1]
    inv_s = np.zeros(s.shape, dtype=np.float64)
    kept = np.arange(k) < ranks[:, None]
    inv_s[kept] = 1.0 / s[kept]
    left = np.conjugate(vh).swapaxes(1, 2)[:, :, :k] * inv_s[:, None, :]
    return left @ np.conjugate(u).swapaxes(1, 2)[:, :k, :]


def factors(stack: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> Factors:
    """Factors of every matrix of a (k, m, n) stack, read off one batched full SVD."""
    k, m, n = stack.shape
    if min(m, n) == 0:
        eye_m = np.broadcast_to(np.eye(m, dtype=np.complex128), (k, m, m))
        eye_n = np.broadcast_to(np.eye(n, dtype=np.complex128), (k, n, n))
        return Factors(eye_m, np.zeros((k, 0)), eye_n, np.zeros(k, dtype=np.int64))
    u, s, vh = _svd(stack, compute_uv=True)
    return Factors(u, s, vh, _ranks(s, stack.shape, tol)[0])


def factor(a, tol: TolerancePolicy = DEFAULT_TOL) -> Factor:
    """Full SVD of a with the shared rank cutoff applied."""
    return factors(as_matrix(a)[None], tol)[0]


def kernel_basis(a, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the null space N(a)."""
    return factor(a, tol).kernel


def range_basis(a, tol: TolerancePolicy = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the range R(a)."""
    return factor(a, tol).range


def op_norms2(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a (k, m, n) stack, by one values-only SVD of its nonzero members.

    Zero and empty matrices have norm 0 and are not factored.
    """
    k, m, n = stack.shape
    norms = np.zeros(k)
    if k == 0 or min(m, n) == 0:
        return norms
    nonzero = np.any(stack, axis=(1, 2))
    if nonzero.all():
        norms[:] = _svd(stack, compute_uv=False)[:, 0]
    elif nonzero.any():
        norms[nonzero] = _svd(stack[nonzero], compute_uv=False)[:, 0]
    return norms


def op_norm2(a) -> float:
    """Spectral norm: the largest singular value."""
    return float(op_norms2(as_matrix(a)[None])[0])


def _peak_scaled(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest entry modulus of each matrix and the stack divided by it.

    Zero matrices stay zero. A scaled matrix has entries of modulus
    at most 1 and one of modulus 1, up to the rounding of the scaling, so
    products of a few scaled factors can neither overflow nor lose their
    leading terms to underflow. A matrix is multiplied by the reciprocal of
    its peak, except where the peak is subnormal and the reciprocal could
    overflow: such a matrix is divided by its peak. The scaled stack is
    C-contiguous, whatever the memory order of the input, so it can be
    viewed as real pairs.
    """
    peak = np.abs(stack).max(axis=(1, 2))
    scaled = np.multiply(stack, (1.0 / np.maximum(peak, NORM_FLOOR))[:, None, None], order="C")
    if peak.min() < NORM_FLOOR:
        # real and imaginary parts apart: a complex division takes the reciprocal too
        for k in np.flatnonzero((peak > 0.0) & (peak < NORM_FLOOR)):
            scaled[k] = stack[k].real / peak[k] + 1j * (stack[k].imag / peak[k])
    return peak, scaled


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of a C-contiguous (k, m, n) complex stack."""
    return np.square(stack.view(np.float64)).sum(axis=(1, 2))


def norm_upper_bounds(stack: np.ndarray) -> np.ndarray:
    """Upper bounds on the spectral norms of a (k, m, n) stack, without a factorization.

    The bound is the Schatten-4 norm ||X^H X||_F^(1/2) >= ||X||_2, taken on
    the peak-scaled matrix and widened by NORM_BOUND_SLACK; it is zero
    exactly where the matrix is zero, and at most min(m, n)^(1/4) times the
    norm before the widening.
    """
    k, m, n = stack.shape
    if k == 0 or min(m, n) == 0:
        return np.zeros(k)
    peak, scaled = _peak_scaled(stack)
    adjoint = np.conjugate(scaled.swapaxes(1, 2), order="C")
    gram = adjoint @ scaled if n <= m else scaled @ adjoint
    return peak * np.sqrt(np.sqrt(_squared_norms(gram))) * (1.0 + NORM_BOUND_SLACK)


def norm_lower_bounds(stack: np.ndarray) -> np.ndarray:
    """Lower bounds on the spectral norms of a (k, m, n) stack, without a factorization.

    On the peak-scaled matrix Y, start from the column y = Y e_j of largest
    norm, taken exactly, and take one power step: w = Y^H y, and the bound
    is ||Y w|| / ||w||. That is at least ||y|| >= ||Y||_F / sqrt(n), the
    Rayleigh quotients of power steps on Y^H Y never falling, and w has
    norm at least its j-th entry ||y||^2 >= 1. The bound is zero exactly
    where the matrix is zero, and is narrowed by NORM_BOUND_SLACK.
    """
    k, m, n = stack.shape
    if k == 0 or min(m, n) == 0:
        return np.zeros(k)
    peak, scaled = _peak_scaled(stack)
    squares = np.square(scaled.view(np.float64)).reshape(k, m, n, 2)
    first = scaled[np.arange(k), :, squares.sum(axis=(1, 3)).argmax(axis=1)]
    # w^H = y^H Y, a (k, 1, n) stack of rows
    step = np.conjugate(first)[:, None, :] @ scaled
    image = scaled @ np.conjugate(step).swapaxes(1, 2)
    ratio = np.sqrt(_squared_norms(image) / np.where(peak > 0.0, _squared_norms(step), 1.0))
    return peak * ratio * (1.0 - NORM_BOUND_SLACK)


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (k, m, n) stack, taken on the peak-scaled matrices
    so that no square overflows or underflows; zero exactly where the matrix is zero."""
    k, m, n = stack.shape
    if k == 0 or min(m, n) == 0:
        return np.zeros(k)
    peak, scaled = _peak_scaled(stack)
    return peak * np.sqrt(_squared_norms(scaled))


def exact_maximum(bounds: np.ndarray, exact: Callable[[int], float]) -> tuple[float, int | None]:
    """The largest exact(i) over the positions i of bounds, given 0 <= exact(i) <= bounds[i].

    exact is called largest bound first, ties in position order, until the
    next bound is zero or strictly below the best exact value: no value
    left out can reach the maximum. A NaN bound, as of a matrix with
    non-finite entries, counts as unbounded. Returns the maximum and the
    first position attaining it, or (0.0, None) when every value is zero.
    """
    best, best_position = 0.0, None
    order = np.argsort(-np.nan_to_num(bounds, nan=np.inf), kind="stable")
    for position in order.tolist():
        if bounds[position] == 0.0 or bounds[position] < best:
            break
        value = exact(position)
        if value > best or (value == best > 0.0 and position < best_position):
            best, best_position = value, position
    return best, best_position


def projector(b: SubspaceBasis) -> np.ndarray:
    """Orthogonal projector onto the subspace: basis @ basis^H."""
    return b.basis @ np.conjugate(b.basis).T


def subspace_gap(m: SubspaceBasis, n: SubspaceBasis) -> float:
    """Gap ||P_M - P_N||_2 between two subspaces of the same ambient space.

    Zero iff the subspaces are equal; equals the sine of the largest
    principal angle when the dimensions match, clipped at 1, which rounding
    can pass on near orthogonal subspaces, and exactly 1 when they differ.
    """
    if m.ambient_dim != n.ambient_dim:
        raise ShapeMismatchError(
            f"ambient dimensions differ: {m.ambient_dim} vs {n.ambient_dim}"
        )
    if m.dim != n.dim:
        return 1.0
    if m.ambient_dim == 0:
        return 0.0
    return min(op_norm2(projector(m) - projector(n)), 1.0)


def split_ranks(
    stack: np.ndarray,
    right: np.ndarray,
    left: np.ndarray,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """rank(A), rank(A @ right), rank(left^H @ A) and the marginal flag of
    rank(A), for each A of a (k, m, n) stack.

    right is (n, p) and left is (m, q), each with orthonormal columns; an
    :func:`empty_basis` asks for no product. Each rank array comes from one
    values-only SVD, and all three count singular values above the cutoff
    of A itself, rank_rtol * sigma_max(A) * max(m, n). The products restrict
    A to fixed subspaces, so their rounding errors are on the scale of
    ||A||, not of their own norms: a product's own cutoff would count the
    rounding noise of A on its numerical kernel as rank. The rank of A is
    marginal when its smallest kept singular value is within a factor of 10
    of the cutoff, i.e. the rank would flip under a modest tolerance change.
    Empty matrices and products have rank 0 and are not factored. Every
    other stack is factored: the full-rank screen runs in
    :func:`rank_stage`, not here.
    """
    k, m, n = stack.shape
    ranks = np.zeros((3, k), dtype=np.int64)
    marginal = np.zeros(k, dtype=bool)
    if k and min(m, n):
        s = _svd(stack, compute_uv=False)
        ranks[0], cutoffs = _ranks(s, stack.shape, tol)
        kept = s[np.arange(k), np.maximum(ranks[0] - 1, 0)]
        marginal = (ranks[0] > 0) & (kept <= 10.0 * cutoffs)
        for row, product in ((1, stack @ right), (2, np.conjugate(left.T) @ stack)):
            if min(product.shape[1:]):
                s = _svd(product, compute_uv=False)
                ranks[row] = np.count_nonzero(s > cutoffs[:, None], axis=1)
    return ranks[0], ranks[1], ranks[2], marginal


def rank_stage(
    shape: tuple[int, int],
    tol: TolerancePolicy,
    right: np.ndarray,
    left: np.ndarray,
) -> tuple[int, Callable[[slice, np.ndarray], tuple[np.ndarray, ...]]]:
    """The live count and stage of a :func:`chunked_stage` rank pass over
    (m, n) matrices: :func:`split_ranks`, or the full-rank screen, on each chunk.

    right and left are the bases of :func:`split_ranks`; an
    :func:`empty_basis` asks for no product. So a rank pass is
    ``chunked_stage(build, count, shape, *rank_stage(shape, tol, right, left))``.
    A chunk counts one matrix per member and one more per product
    asked for or, without a product, SCREEN_LIVE more for the screen. The
    stage keeps the screen's state from chunk to chunk, so it serves one
    pass.

    Without a product, the full-rank screen saves the SVD of a chunk it
    certifies, but adds its Gram and Cholesky to the SVD of one it
    declines, so it runs on a chunk only when the matrices before suggest
    it will certify: on the first chunk when its first matrix alone passes
    it (a one-matrix probe), and on each later one when the chunk before
    held a matrix of full rank and not marginal. So on matrices rank
    deficient throughout, such as a pencil singular at every lam, the
    screen runs once, on the probe, and on matrices rank deficient at
    isolated members it runs on every chunk after the probe; either way
    each rank is the SVD's. With a product the screen never runs: A's own
    SVD sets the products' cutoff. The stage writes every Gram of its pass
    into one array, allocated at the first chunk, the longest; only the
    screen's adjoint and Cholesky factor, and the products and singular
    values of an SVD, are allocated per chunk.
    """
    products = bool(right.shape[1]) + bool(left.shape[1])
    p = min(shape)
    screen, gram = False, None

    def stage(part: slice, a: np.ndarray) -> tuple[np.ndarray, ...]:
        nonlocal screen, gram
        k = len(a)
        if part.start == 0:
            # the first chunk is the longest, and its first matrix the probe
            gram = np.empty((0 if products else k, p, p), dtype=np.complex128)
            screen = not products and _full_rank_certified(a[:1], tol, gram[:1])
        if screen and _full_rank_certified(a, tol, gram[:k]):
            return (np.full(k, p, dtype=np.int64), *np.zeros((2, k), dtype=np.int64),
                    np.zeros(k, dtype=bool))
        split = split_ranks(a, right, left, tol)
        screen = not products and bool(np.any((split[0] == p) & ~split[3]))
        return split

    return 1 + (products or SCREEN_LIVE), stage


def chunked_stage(
    build: Callable[[slice, np.ndarray], np.ndarray],
    count: int,
    shape: tuple[int, int],
    live: int,
    stage: Callable[[slice, np.ndarray], Sequence[np.ndarray]],
) -> tuple[np.ndarray, ...]:
    """A per-point stage over count (m, n) matrices, chunk by chunk, in order.

    build(part, out) returns the matrices of a slice part of range(count)
    as a (k, m, n) stack written into out, a C-contiguous view of the pass's
    one workspace; it is called on consecutive slices, chunk by chunk.
    stage(part, a) returns a tuple of arrays with one entry per member of a
    along their first axis. Each result is joined over the chunks into one
    array of count entries. A chunk is sized, by :func:`chunks`, for live
    matrices of the larger square size per member: the main arrays the
    stage keeps per point, not every copy or scratch array it makes. The
    workspace holds the longest chunk's stack, which a stage must not keep
    past its call. It is allocated once per pass: chunk arrays freed and
    allocated again at every chunk would be returned to the operating
    system and faulted back in each time by a fresh process's allocator.
    count >= 1.
    """
    m, n = shape
    point_bytes = live * 16 * max(m, n) ** 2
    work = np.empty(min(count, _chunk_length(point_bytes)) * m * n, dtype=np.complex128)
    joined: tuple[np.ndarray, ...] = ()
    for part in chunks(count, point_bytes):
        k = part.stop - part.start
        results = stage(part, build(part, work[: k * m * n].reshape(k, m, n)))
        if not joined:
            joined = tuple(np.empty((count,) + r.shape[1:], dtype=r.dtype) for r in results)
        for out, result in zip(joined, results):
            out[part] = result
    return joined


def split_verdicts(
    split: Sequence[np.ndarray], e_dim: int, f_perp_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transversality and the two splittings from the ranks of :func:`split_ranks`.

    split is what :func:`split_ranks` returned for right = e, an orthonormal
    basis of a subspace E of the domain C^n, and left = f_perp, one of the
    orthogonal complement of a subspace F of the codomain C^m; e_dim and
    f_perp_dim are their column counts. By the rank identities

        rank(A e) = dim E - dim(E meet N(A)),
        rank(f_perp^H A) = rank(A) - dim(R(A) meet F),

    each verdict compares those integers, as boolean arrays:

        transversal  R(A) meets F only at 0:  rank(f_perp^H A) == rank(A)
        domain       C^n = N(A) + E, direct:  rank(A) == dim E == rank(A e)
        codomain     C^m = R(A) + F, direct:  rank(A) + dim F == m, and transversal
    """
    ranks, right, left = split[:3]
    transversal = left == ranks
    domain = (ranks == e_dim) & (right == e_dim)
    return transversal, domain, (ranks == f_perp_dim) & transversal


def solve_stack(a: np.ndarray, b: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Solve a[k] @ x[k] = b for a (k, n, n) stack of numerically invertible matrices.

    b is one (n, r) right-hand side shared by every system. Invertibility
    is checked first: by the full-rank screen when it certifies the whole
    stack, and otherwise by one values-only SVD of the stack, where the
    lowest-index matrix whose smallest singular value falls at or below its
    rank cutoff raises SingularSystemError carrying a condition estimate,
    and nothing is solved.
    b is passed as a (1, n, r) stack: NumPy before 2.0 reads a b of one
    dimension less than a as a stack of vectors, not as one shared matrix.
    """
    k, n, _ = a.shape
    if n == 0:
        return np.zeros((k,) + b.shape, dtype=np.complex128)
    if not _full_rank_certified(a, tol):
        s = _svd(a, compute_uv=False)
        _, cutoffs = _ranks(s, a.shape, tol)
        singular = np.flatnonzero(s[:, -1] <= cutoffs)
        if singular.size:
            top, smin = float(s[singular[0], 0]), float(s[singular[0], -1])
            cond = top / smin if smin > 0.0 else np.inf
            raise SingularSystemError(
                f"system matrix singular to tolerance (cond ~ {cond:.3e})", cond
            )
    return np.linalg.solve(a, b[None])


def solve_right_stack(a: np.ndarray, b: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Solve x[k] @ a[k] = b for a (k, m, m) stack, i.e. apply each a[k]^-1 from the right.

    Solved as a[k]^T x[k]^T = b^T, with the singularity check of :func:`solve_stack`.
    """
    return solve_stack(a.swapaxes(1, 2), b.T, tol).swapaxes(1, 2)


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
    return solve_stack(a[None], b, tol)[0]


def solve_right(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Solve x @ a = b for x, i.e. apply a^-1 from the right."""
    a = as_matrix(a)
    b = as_matrix(b)
    return solve(a.T, b.T, tol).T


def relative_residuals(deviations: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Spectral norm of each deviation relative to its scale matrix's norm, for stacks.

    A tiny floor guards division when a scale is the zero matrix.
    """
    return op_norms2(deviations) / np.maximum(op_norms2(scales), NORM_FLOOR)


def relative_residual(deviation, scale) -> float:
    """Spectral norm of the deviation relative to the scale matrix's norm."""
    return float(relative_residuals(as_matrix(deviation)[None], as_matrix(scale)[None])[0])
