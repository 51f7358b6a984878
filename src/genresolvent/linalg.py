"""Dense complex linear algebra substrate.

Factorizations, numerical rank, orthonormal subspace bases (each a view of
one :func:`factor`), spectral norms and subspace comparisons. Every
operator in the package is a dense complex matrix (``numpy.ndarray`` of
``complex128``); this module owns the tolerance conventions the rest of
the package inherits.

:func:`split_ranks` is the one values-only rank kernel of the package.
It gives the numerical rank of A, its marginal flag and, against the same
cutoff, the ranks of A E and F_perp^H A for fixed orthonormal bases E and
F_perp. Transversality, the two direct-sum splittings, fixed complements
and the perturbation splittings are comparisons of those integers
(:func:`split_verdicts`), never of concatenated kernel and range bases;
:func:`numerical_rank` and :func:`rank_and_marginal` are its one-matrix
views with empty bases. :func:`grid_ranks` owns every rank of t - lam s at
sampled points, for the rank profiles, scans and subspace criteria: it
runs the kernel chunk by chunk through :func:`chunked_stage`, as every
other grid stage runs, on the points the full-rank cover below leaves out.

Most matrices a grid pass ranks without a product, and most systems
:func:`solve_stack` checks, are of full rank by a wide margin, and an SVD
is the dearest way to show it. A private full-rank screen shows it
cheaper: one Gram matrix of the smaller side per member, its diagonal
lowered by a shift that covers the rank cutoff, the factor 10 of the
marginal rule and every rounding error on the way (SCREEN_SLACK), and one
batched Cholesky factorization. If it succeeds, the SVD would have given
every member full rank, not marginal, and none is factored; if it breaks
down on any member, or some ||A||_F^2 is near under- or overflow, the
stack takes the SVD path unchanged, which also gives the condition number
of a singular system. So every rank, marginal flag and singularity
verdict is the SVD's, and a certified member carries no singular values.
:func:`solve_stack` screens every stack it solves, and the cover below
screens one point alone as its probe; the rank pass itself never
screens, nor does :func:`split_ranks`, so a matrix the cover leaves out is
always factored. Ranks with products skip the cover and the screen: A's
own SVD sets their cutoff.

A grid pass without a product ranks t - lam s at points where full rank
holds on whole disks, not only at the points: by Weyl's inequality
(Golub & Van Loan, Cor. 8.6.2) sigma_p(t - lam s) falls by at most
|lam - mu| ||s||_2 from its value at mu. So :func:`full_rank_cover` proves
full rank, not marginal, box by box in front of the rank pass: one
Cholesky factorization of the Gram at each box's anchor, the midpoint of
its bounding box, which need not be a sample point, its diagonal lowered
by the screen's target for every point of the box plus the box's radius
about the anchor times a bound on ||s||_2 (:func:`norm_upper_bounds` with
COVER_SQUARINGS, no SVD) and the rounding of forming t - lam s at the
points and of the anchor's Gram, its gradual underflow included, so one
test decides every box, however small s is, and however few its points:
a single point is a box too, whose radius is a rounding error. A box
that fails splits into quadrants, and :func:`grid_ranks` ranks only the
points no box covers, among them every point that is not finite, which
the rank pass names. A certified box of two points or more proves full
rank on a disk that holds its points, so no eigenvalue of the pencil lies
there; a single point's box excludes no area. The cover starts only where
one of its probes, the screen of the first point alone, else of the
last, passes. It builds no anchor: the Gram of t - x s is a quadratic in
x, so the cover expands it once about the region's centre mu0 and forms
each box's Gram from t0 = fl(t - mu0 s), t0^H t0, t0^H s and s^H s in
O(p^2), chunk by chunk into one Gram array of its own. The centring keeps
the expansion's rounding on the scale of ||t - lam s|| over the region,
not of |lam| ||s||; what its products lose below the normal range is a
term of a few max(m, n) p UNDERFLOW in each box's shift, UNDERFLOW the
constant the identity's bounds take for the same loss.

All functions are pure: inputs are never mutated, so results are safe to
share across threads. Public single-matrix functions validate their inputs and
promote them to read-only complex arrays with :func:`as_matrix`.

The per-point stages of the package work on stacks: (k, m, n) complex128
arrays built inside the package, such as ``t - lams[:, None, None] * s``.
The stack functions (:func:`op_norms2`, :func:`norm_upper_bounds`,
:func:`norm_lower_bounds`, :func:`frobenius_norms`, :func:`factors`, :func:`split_ranks`,
:func:`solve_stack`, :func:`relative_residuals`,
:func:`residual_bounds`, :func:`residual_lower_bounds`, :func:`bounded_residuals`)
trust their input and skip ``as_matrix``; each makes one batched LAPACK
call per stack it factors. The single-matrix functions are their
one-element views, so there is one code path. Batched SVDs, solves and
products return exactly, bit for bit, what per-matrix calls return (a
``matmul`` written with ``out=`` need not). Every per-point stage over
t - lam*s at sampled points runs through one driver, :func:`chunked_stage`:
it cuts the points into chunks by :func:`chunks`, builds each chunk's stack
by :func:`pencil_values` into one workspace kept for the pass, rejects a
point where it is not finite by name, and runs a stage function on each:
the rank passes of :func:`grid_ranks`, the axiom residuals, the continuity
probe, the pseudoinverse characterization and the invertibility
corollary. :func:`full_rank_cover`, which runs before a rank pass without
a product, builds only its probes and its centre.
The count of the matrices a stage keeps alive per point is the driver's
one sizing argument. CHUNK_BYTES is an approximate budget, not a cap: copies and
scratch arrays a stage makes beyond that count are not counted.

The residuals the reports print are decided bound first, in O(mn) work
per matrix. :func:`residual_bounds` bounds each relative residual from
above by the deviation's :func:`frobenius_norms`, since
||D||_2 <= ||D||_F (Golub & Van Loan, §2.3), over the scale's
:func:`norm_lower_bounds`; :func:`residual_lower_bounds` bounds it from
below the other way round. :func:`bounded_residuals` takes an upper bound
at most residual_tol as the value, certifies a failing residual by a lower
bound above it, and takes the exact value only where neither decides, so
no verdict rests on a bound's slack. Where a report prints a maximum of
residuals, :func:`decided_maximum` prints the largest upper bound if that
is at most residual_tol, and otherwise the exact maximum of
:func:`exact_maximum`, which takes exact norms largest bound first, one
at a time, only until no bound left can reach the best exact value: the
maximum and its first maximizing position are those of an exact norm of
every member. :func:`norm_upper_bounds`, a tighter bound that forms a
Gram matrix, prunes the exact maximum over the resolvent identity's pairs.
Each bound scales a matrix by its peak entry only where its squares could
over- or underflow (:func:`_scaled_where_needed`).
The same bounds, with :func:`frobenius_norms` for rounding terms, build
the identity bound that decides the identity of both ``analyze`` and
``mp-check`` without the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import FactorizationError, ShapeMismatchError, SingularSystemError

EPS = float(np.finfo(np.float64).eps)
# Floor on a scale norm in relative residuals, so a zero scale cannot divide by 0.
NORM_FLOOR = float(np.finfo(np.float64).tiny)
# Relative widening of the norm bounds past their exact-arithmetic values:
# of norm_upper_bounds, norm_lower_bounds and of a computed Frobenius norm
# taken as a bound on a spectral norm. Upward it covers the rounding of a
# sum of squares, at most m * n * EPS relative, so about half that on its
# square root, and for norm_upper_bounds that of the Gram product before
# it and of each squaring: a power H of unit Frobenius norm squares within
# gamma_p ||H||_F^2, about p * EPS, against ||H^2||_2 >= 1 / p, so p^2 * EPS
# relative, which the roots taken after only shrink. Downward it covers
# the rounding of Y w against ||Y||_2: at most
# gamma_n ||Y||_F ||w|| <= n^(3/2) * EPS * ||Y||_2 * ||w||, plus the
# rounding of any scaling and of the two vector norms. Both ways it also
# covers the computed largest singular value of the exact stage, within a
# modest multiple of n * EPS of ||X||_2, and the factor 1 +- 3 delta by
# which a relative residual reduced to the rank-r coordinates of
# resolvent.RankCoordinates can differ from its m x n value, delta the
# rounding of the SVD's orthonormal factors, a modest multiple of n * EPS.
# At every size this package handles (n up to a few hundred, so m * n *
# EPS, n^(3/2) * EPS and p^2 * EPS below 1e-10) these add up to far less
# than NORM_BOUND_SLACK.
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
# Squarings of the Gram matrix in the bound on ||s||_2 that full_rank_cover
# takes from norm_upper_bounds: the Schatten-128 norm of s, at most
# min(m, n)^(1/128) times ||s||_2 (3.1% above it at min(m, n) = 50).
COVER_SQUARINGS = 5
# The smallest positive double: a product in gradual underflow errs by at most
# half of it (Higham, Accuracy and Stability of Numerical Algorithms, §2.1).
UNDERFLOW = float(np.nextafter(0.0, 1.0))
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


def _in_screen_range(squares: np.ndarray) -> np.ndarray:
    return (squares > SCREEN_RANGE[0]) & (squares < SCREEN_RANGE[1])


def _screen_ratio(shape: tuple[int, ...], tol: TolerancePolicy) -> float:
    """The full-rank screen's target over ||A||_F for (m, n) matrices."""
    return 10.0 * tol.rank_rtol * max(shape[-2:]) * (1.0 + SCREEN_SLACK) + SCREEN_SLACK


def _full_rank_certified(stack: np.ndarray, tol: TolerancePolicy) -> bool:
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
    call raises for the whole stack) or some ||A||_F^2 = tr(H) lies outside
    SCREEN_RANGE, as where the Gram overflows; the caller then takes the SVD.
    The adjoint is freed before the Cholesky factor is allocated.
    """
    k, m, n = stack.shape
    adjoint = np.conjugate(stack.swapaxes(1, 2), order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.matmul(adjoint, stack) if n <= m else np.matmul(stack, adjoint)
        del adjoint
        p = gram.shape[1]
        diagonal = gram.reshape(k, p * p)[:, :: p + 1]
        squares = diagonal.real.sum(axis=1)
    if not np.all(_in_screen_range(squares)):
        return False
    ratio = _screen_ratio(stack.shape, tol)
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

    def with_cutoff(self, tol: TolerancePolicy) -> Factor:
        """The same SVD with the rank the cutoff of tol gives it, and its views."""
        shape = (self.u.shape[0], self.vh.shape[0])
        rank = int(_ranks(self.s[None], shape, tol)[0][0]) if self.s.size else 0
        return Factor(self.u, self.s, self.vh, rank)


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
    viewed as real pairs, and real where the input is.
    """
    peak = np.abs(stack).max(axis=(1, 2))
    scaled = np.multiply(stack, (1.0 / np.maximum(peak, NORM_FLOOR))[:, None, None], order="C")
    if peak.min() < NORM_FLOOR:
        for k in np.flatnonzero((peak > 0.0) & (peak < NORM_FLOOR)):
            if np.isrealobj(scaled):
                scaled[k] = stack[k] / peak[k]
            else:
                # real and imaginary parts apart: a complex division takes the reciprocal too
                scaled[k] = stack[k].real / peak[k] + 1j * (stack[k].imag / peak[k])
    return peak, scaled


def _scaled_where_needed(stack: np.ndarray, power: int):
    """Factors f, a C-contiguous stack Y with each matrix X = f Y, and the
    squared Frobenius norms of Y.

    Where ||X||_F^(2 power) lies strictly inside SCREEN_RANGE, no sum of
    squares of a product of power matrices of X's size and norm overflows,
    and underflow loses only terms far below its leading ones: there Y = X
    and f = 1, so a C-contiguous stack that needs no scaling is not copied
    (f is then the float 1.0). Elsewhere f and Y are :func:`_peak_scaled`'s
    peak and scaled matrix.
    """
    stack = np.ascontiguousarray(stack)
    with np.errstate(over="ignore"):
        squares = _squared_norms(stack)
    low, high = (bound ** (1.0 / power) for bound in SCREEN_RANGE)
    if low < squares.min() and squares.max() < high:
        return 1.0, stack, squares
    far = np.flatnonzero(~((squares > low) & (squares < high)))
    factors, stack = np.ones(len(stack)), stack.copy()
    factors[far], stack[far] = _peak_scaled(stack[far])
    squares[far] = _squared_norms(stack[far])
    return factors, stack, squares


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of a C-contiguous (k, m, n) complex stack."""
    return np.square(stack.view(np.float64)).sum(axis=(1, 2))


def norm_upper_bounds(stack: np.ndarray, squarings: int = 0) -> np.ndarray:
    """Upper bounds on the spectral norms of a (k, m, n) stack, without a factorization.

    The bound is the Schatten-2^(squarings + 2) norm
    ||(X^H X)^(2^squarings)||_F^(1/2^(squarings + 1)) >= ||X||_2, taken on
    the matrix scaled where needed (:func:`_scaled_where_needed`) and widened
    by NORM_BOUND_SLACK; it is zero exactly where the matrix is zero, and at
    most min(m, n)^(1/2^(squarings + 2)) times the norm before the widening.
    The Gram matrix is squared in place of the power, each square divided
    by its Frobenius norm first, so no power overflows or underflows, and
    the norms are multiplied back under their roots. Its Gram matrix costs a
    product, so it bounds only where tightness saves work: the pairs whose
    exact maximum the identity takes, the fixed s and tplus of the
    identity's bound, and ||s||_2 of :func:`full_rank_cover`.
    """
    k, m, n = stack.shape
    if k == 0 or min(m, n) == 0:
        return np.zeros(k)
    factors, scaled, _ = _scaled_where_needed(stack, 2)
    adjoint = np.conjugate(scaled.swapaxes(1, 2), order="C")
    gram = adjoint @ scaled if n <= m else scaled @ adjoint
    squares = _squared_norms(gram)
    bound = np.sqrt(np.sqrt(squares))
    for level in range(1, squarings + 1):
        gram /= np.maximum(np.sqrt(squares), NORM_FLOOR)[:, None, None]
        gram = gram @ gram
        squares = _squared_norms(gram)
        bound *= squares ** (0.5 ** (level + 2))
    return factors * bound * (1.0 + NORM_BOUND_SLACK)


def norm_lower_bounds(stack: np.ndarray) -> np.ndarray:
    """Lower bounds on the spectral norms of a (k, m, n) stack, without a factorization.

    On the matrix Y scaled where needed (:func:`_scaled_where_needed`), start
    from the column y = Y e_j of largest norm, taken exactly, and take one
    power step: w = Y^H y, and the bound is ||Y w|| / ||w||. That is at
    least ||y|| >= ||Y||_F / sqrt(n), the Rayleigh quotients of power steps
    on Y^H Y never falling, and w has norm at least its j-th entry
    ||y||^2 > 0. The bound is zero exactly where the matrix is zero, and is
    narrowed by NORM_BOUND_SLACK.
    """
    k, m, n = stack.shape
    if k == 0 or min(m, n) == 0:
        return np.zeros(k)
    factors, scaled, squares = _scaled_where_needed(stack, 3)
    # squared column norms: the rows summed first, in contiguous passes, then each (re, im) pair
    columns = np.square(scaled.view(np.float64)).sum(axis=1).reshape(k, n, 2).sum(axis=2)
    first = scaled[np.arange(k), :, columns.argmax(axis=1)]
    # w^H = y^H Y, a (k, 1, n) stack of rows
    step = np.conjugate(first)[:, None, :] @ scaled
    image = scaled @ np.conjugate(step).swapaxes(1, 2)
    ratio = np.sqrt(_squared_norms(image) / np.where(squares > 0.0, _squared_norms(step), 1.0))
    return factors * ratio * (1.0 - NORM_BOUND_SLACK)


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (k, m, n) stack, taken on the matrices scaled
    where needed (:func:`_scaled_where_needed`), so that no square overflows
    or underflows; zero exactly where the matrix is zero.

    ||X||_2 <= ||X||_F <= sqrt(min(m, n)) ||X||_2 (Golub & Van Loan, §2.3),
    so each is an upper bound on the spectral norm without a product."""
    k, m, n = stack.shape
    if k == 0 or min(m, n) == 0:
        return np.zeros(k)
    factors, _, squares = _scaled_where_needed(stack, 1)
    return factors * np.sqrt(squares)


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
    other stack is factored: the full-rank screen runs only in
    :func:`solve_stack` and as the probes of :func:`full_rank_cover`.
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


def pencil_values(t: np.ndarray, s: np.ndarray, lams: np.ndarray, out: np.ndarray | None = None):
    """The (k, m, n) stack t - lams[i] * s, written into out when given."""
    stack = np.multiply(lams[:, None, None], s, out=out)
    return np.subtract(t, stack, out=stack)


def full_rank_cover(
    t: np.ndarray, s: np.ndarray, lams: np.ndarray, tol: TolerancePolicy
) -> np.ndarray:
    """The mask of the points lams at which the values-only SVD would give
    fl(t - lam s), as :func:`pencil_values` builds it, full rank
    p = min(m, n), not marginal, proved box by box without an SVD. A rank
    pass without a product ranks only the points left out, so each rank
    and marginal flag is the SVD's.

    The cover starts only where a probe passes: the full-rank screen of the
    first point alone, built as the rank pass builds it, else that of the
    last point, the opposite corner of a row-major region or a point of the
    outer ring of :func:`resolvent.default_grid`. A probe that passes
    certifies its point, so the cover certifies some point exactly when a
    probe passed, and on a pencil singular at every lam it costs those two
    one-matrix Cholesky factorizations. Then the finite points are cut into
    boxes, first their bounding box, then quadrants of it; a point that is
    not finite starts outside every box, so the rank pass names the first
    such point. Each box, of one point or more, is decided at one anchor,
    the midpoint mu of its bounding box up to rounding, which need not be a
    point of lams: Weyl's inequality (Golub & Van Loan, Cor. 8.6.2)
    compares t - lam s and t - nu s at any two complex numbers, so for lam
    in the box

        sigma_p(fl(t - lam s)) >= sigma_p(t - nu s) - |lam - nu| beta - e(lam),

    where beta >= ||s||_2 is the Schatten bound of
    :func:`norm_upper_bounds`, and e(x) = 4 EPS (||t||_F + |x| ||s||_F)
    bounds ||fl(t - x s) - (t - x s)||_F: the complex product rounds within
    sqrt(2) EPS |x| |s_ij| and the difference within EPS / 2 of its value,
    entry by entry.

    No anchor is built: the Gram of t - x s is a quadratic in x, expanded
    once about the centre mu0, the first box's mu to the bit. With
    t0 = fl(t - mu0 s) and d = fl(mu - mu0), each box's Gram is that of
    t0 - d s,

        H(d) = P - d Q - conj(d) Q^H + |d|^2 R,  P = t0^H t0, Q = t0^H s, R = s^H s,

    p x p, formed in O(p^2) per box; where m < n the Gram of the smaller
    side is the same with (t0^H, s^H, conj d). In exact arithmetic
    t0 - d s = t - nu s + E0 with nu = mu0 + d and ||E0||_F <= e(mu0), and
    d rounds within EPS |d|, so every point of the box lies within
    radius = max |lam - mu| + EPS |d| of nu. With N = ||t0||_F + |d| ||s||_F,
    P, Q and R round within gamma_max(m, n) of their absolute products, and
    their combination within a few EPS of its terms, whose norms sum to at
    most N^2: the computed H(d) lies within about (max(m, n) + 8) EPS N^2 of
    the exact Gram of t0 - d s in 2-norm, and its trace as near
    ||t0 - d s||_F^2, which kappa N^2 covers. Below the normal range a real
    product also errs by up to UNDERFLOW / 2 and a sum by nothing (gradual
    underflow; Higham, Accuracy and Stability of Numerical Algorithms,
    §2.1): sqrt(2) UNDERFLOW per complex product term, max(m, n) of them in
    each entry of P, Q and R and a few more in their combination, and
    UNDERFLOW in fl(|d|^2), which R multiplies. So the 2-norm and the trace
    of the error of H(d) gain at most

        W = sqrt(2) (max(m, n) + 4) p (1 + |d|)^2 UNDERFLOW + ||s||_F^2 UNDERFLOW,

    each entry's term p times over, however small t0 and s are; the norms
    in N and W are :func:`frobenius_norms`, which no underflow shrinks. So
    sigma_p(t0 - d s) >= c, with

        c = radius beta + 2 e_max + ratio F,
        F = sqrt(tr H(d) + kappa N^2 + W) + radius ||s||_F + 2 e_max,

    e_max the largest of e(mu0) and every e(lam) in the box, gives every
    point of the box sigma_p(fl(t - lam s)) >= c - e(mu0) - radius beta -
    e(lam) >= ratio F >= ratio ||fl(t - lam s)||_F, F bounding that norm,
    which is the target of :func:`_full_rank_certified` (ratio is its
    ratio); and so the SVD's verdict, full rank and not marginal. c,
    widened by NORM_BOUND_SLACK for its own rounding, is proved as the
    screen proves its target: one Cholesky factorization of H(d) less
    (c^2 + kappa N^2 + W) I, each box its own call, kappa (SCREEN_SLACK)
    covering the rounding of H(d) and the factorization's backward error.
    A box whose Cholesky breaks down, or that cannot pass, splits into the
    quadrants of its bounding box. A box cannot pass where c^2 p is at
    least tr H(d); where tr H(d) lies outside SCREEN_RANGE, which keeps the
    factorization itself in the normal range; or where ||t - x s||_F is
    near overflow at x = mu0, mu or some lam of the box, which keeps t0,
    P, d Q and |d|^2 R finite, while W, infinite where ||s||_F^2 overflows,
    keeps R finite wherever a box can pass. A single point is a box of
    radius EPS |d|, which the proof covers unchanged. A box whose points do
    not spread over its quadrants, such as a single point or repeated
    points, is left out when it fails.

    Each level's Grams are written, chunk by chunk, into one array
    allocated once per call, and each chunk's diagonals are shifted in one
    operation.
    """
    k = len(lams)
    m, n = t.shape
    p = min(m, n)
    certified = np.zeros(k, dtype=bool)
    # the probes: the first point alone, else the last
    for probe in sorted({0, k - 1}) if k and p else ():
        with np.errstate(over="ignore", invalid="ignore"):
            stack = pencil_values(t, s, lams[probe : probe + 1])
        if _full_rank_certified(stack, tol):
            certified[probe] = True
            break
    else:
        return certified
    ratio = _screen_ratio((m, n), tol)
    widen = 1.0 + NORM_BOUND_SLACK
    beta = norm_upper_bounds(s[None], COVER_SQUARINGS)[0]
    # the first term of W over (1 + |d|)^2
    underflow = 2.0 ** 0.5 * (max(m, n) + 4) * p * UNDERFLOW
    # chunks of boxes sized as a screened stack of m x n matrices: per box,
    # the Gram and the two terms of its expansion formed beside it, and one
    # Cholesky factor at a time
    point_bytes = (1 + SCREEN_LIVE) * 16 * max(m, n) ** 2
    grams = np.empty((min(k, _chunk_length(point_bytes)), p, p), dtype=np.complex128)
    # the box of each point at this level, -1 once certified or left out;
    # a point that is not finite is left out from the start
    box, count = np.where(np.isfinite(lams), 0, -1), 1
    with np.errstate(over="ignore", invalid="ignore"):
        # P, Q and R of the expansion about the centre mu0, the midpoint of
        # the finite points' bounding box as the first level computes it
        z = lams[box == 0]
        centre = z.real.min() / 2 + z.real.max() / 2 + 1j * (z.imag.min() / 2 + z.imag.max() / 2)
        t0 = pencil_values(t, s, np.array([centre]))[0]
        t_norm, t0_norm, s_norm = frobenius_norms(np.stack([t, t0, s])) * widen
        # x and y tall, so that x^H x is the Gram of the smaller side
        x, y = (t0, s) if m >= n else (t0.conj().T, s.conj().T)
        xh = np.conjugate(x.T)
        tt, ts, ss = xh @ x, xh @ y, np.conjugate(y.T) @ y
        while count:
            points = np.flatnonzero(box >= 0)
            z, at = lams[points], box[points]
            sizes = np.bincount(at, minlength=count)
            # the midpoint of each box's bounding box
            middle = [_per_box(np.minimum, np.inf, at, part, count) / 2
                      + _per_box(np.maximum, -np.inf, at, part, count) / 2
                      for part in (z.real, z.imag)]
            mu = middle[0] + 1j * middle[1]
            # a wide pencil expands t0^H - conj(d) s^H
            d = mu - centre if m >= n else np.conjugate(mu - centre)
            radius = _per_box(np.maximum, 0.0, at, np.abs(z - mu[at]), count) + EPS * np.abs(d)
            # the largest of |mu0|, |mu| and every |lam| of the box
            reach = t_norm + _per_box(np.maximum, np.maximum(np.abs(mu), np.abs(centre)),
                                      at, np.abs(z), count) * s_norm
            rounding = 4.0 * EPS * reach
            # c less ratio sqrt(tr H(d) + kappa N^2 + W)
            base = radius * beta + 2.0 * rounding + ratio * (radius * s_norm + 2.0 * rounding)
            eligible = np.flatnonzero(reach < SCREEN_RANGE[1] ** 0.5)
            passed = np.zeros(count, dtype=bool)
            for part in chunks(len(eligible), point_bytes):
                boxes = eligible[part]
                shift = d[boxes]
                # H(d) = P - (d Q + (d Q)^H) + |d|^2 R
                gram = np.multiply(shift[:, None, None], ts, out=grams[: len(boxes)])
                gram += np.conjugate(gram.swapaxes(1, 2))
                np.subtract(tt, gram, out=gram)
                gram += (shift.real * shift.real + shift.imag * shift.imag)[:, None, None] * ss
                diagonal = gram.reshape(len(boxes), p * p)[:, :: p + 1]
                squares = diagonal.real.sum(axis=1)
                # kappa N^2 + W, (1 + |d|)^2 taken so that it cannot overflow
                size = np.abs(shift)
                slack = SCREEN_SLACK * np.square(t0_norm + size * s_norm)
                slack += underflow * (1.0 + size) * (1.0 + size) + UNDERFLOW * (s_norm * s_norm)
                c = (base[boxes] + ratio * np.sqrt(squares + slack) * widen) * widen
                diagonal -= (c * c + slack)[:, None]
                for i in np.flatnonzero(_in_screen_range(squares) & (c * c * p < squares)).tolist():
                    try:
                        np.linalg.cholesky(gram[i])
                    except np.linalg.LinAlgError:
                        continue
                    passed[boxes[i]] = True
            certified[points[passed[at]]] = True
            # the quadrants of each box left that hold a point, numbered box
            # by box; a box whose points fall in one quadrant is left out
            keys = 4 * at + (z.real > middle[0][at]) + 2 * (z.imag > middle[1][at])
            children = np.bincount(keys, minlength=4 * count)
            kept = (children > 0) & (children < np.repeat(sizes, 4)) & np.repeat(~passed, 4)
            box[points] = np.where(kept[keys], np.cumsum(kept)[keys] - 1, -1)
            count = int(np.count_nonzero(kept))
    return certified


def _per_box(ufunc: np.ufunc, start, boxes: np.ndarray, values: np.ndarray, count: int):
    """ufunc reduced over the values of each of count boxes, from start, a
    scalar or one value per box; boxes[i] is the box of values[i]."""
    reduced = np.full(count, start, dtype=values.dtype)
    ufunc.at(reduced, boxes, values)
    return reduced


def chunked_stage(
    t: np.ndarray,
    s: np.ndarray,
    lams: np.ndarray,
    live: int,
    stage: Callable[[slice, np.ndarray], Sequence[np.ndarray]],
) -> tuple[np.ndarray, ...]:
    """A per-point stage over t - lam s at the points lams, chunk by chunk, in order.

    Each chunk, a slice part of range(len(lams)), is built by
    :func:`pencil_values` as a (k, m, n) stack into a C-contiguous view of
    the pass's one workspace; a chunk where t - lam s is not finite raises
    ValueError naming its first such point, so the first in order.
    stage(part, a) returns a tuple of arrays with one entry per member of a
    along their first axis. Each result is joined over the chunks into one array of
    len(lams) entries. A chunk is sized, by :func:`chunks`, for live
    matrices of the larger square size per member: the main arrays the
    stage keeps per point, not every copy or scratch array it makes. The
    workspace holds the longest chunk's stack, which a stage must not keep
    past its call. It is allocated here, once per pass: chunk arrays freed
    and allocated again at every chunk would be returned to the operating
    system and faulted back in each time by a fresh process's allocator.
    Every grid stage of the package, the rank passes of :func:`grid_ranks`
    among them, runs here; :func:`full_rank_cover` builds no chunk of t - lam s.
    With no point no chunk is built and the result is the empty tuple.
    """
    m, n = t.shape
    point_bytes = live * 16 * max(m, n) ** 2
    work = np.empty(min(len(lams), _chunk_length(point_bytes)) * m * n, dtype=np.complex128)
    joined: tuple[np.ndarray, ...] = ()
    for part in chunks(len(lams), point_bytes):
        k = part.stop - part.start
        with np.errstate(over="ignore", invalid="ignore"):
            a = pencil_values(t, s, lams[part], work[: k * m * n].reshape(k, m, n))
        finite = np.isfinite(a).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"t - lam*s is not finite at lam = {lams[part][np.argmin(finite)]}")
        results = stage(part, a)
        if not joined:
            joined = tuple(np.empty((len(lams),) + r.shape[1:], dtype=r.dtype) for r in results)
        for out, result in zip(joined, results):
            out[part] = result
    return joined


def _full_rank(k: int, p: int) -> tuple[np.ndarray, ...]:
    """The arrays of :func:`split_ranks` for k matrices of full rank p, not
    marginal, with no product."""
    return np.full(k, p, dtype=np.int64), *np.zeros((2, k), dtype=np.int64), np.zeros(k, dtype=bool)


def grid_ranks(
    t: np.ndarray,
    s: np.ndarray,
    lams: np.ndarray,
    right: np.ndarray,
    left: np.ndarray,
    tol: TolerancePolicy,
) -> tuple[np.ndarray, ...]:
    """The four arrays of :func:`split_ranks` of t - lam s at every point
    lams, in order: the one rank pass of the package.

    right and left are the bases of :func:`split_ranks`; an
    :func:`empty_basis` asks for no product. The pass is :func:`split_ranks`
    run by :func:`chunked_stage`, each chunk sized for one matrix per
    member and one per product, and never screened. With a product it ranks
    every point: A's own SVD sets the products' cutoff. Without one,
    :func:`full_rank_cover` first proves full rank, not marginal, box by
    box, and the pass ranks only the points it leaves out, in their order.
    With no point to rank, the four arrays are empty.
    """
    products = bool(right.shape[1]) + bool(left.shape[1])
    rest = np.ones(len(lams), dtype=bool) if products else ~full_rank_cover(t, s, lams, tol)
    split = _full_rank(len(lams), min(t.shape))
    ranked = chunked_stage(t, s, lams[rest], 1 + products,
                           lambda part, a: split_ranks(a, right, left, tol))
    for joined, ranks in zip(split, ranked):
        joined[rest] = ranks
    return split


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


def residual_bounds(deviations: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Upper bounds on :func:`relative_residuals` in O(mn) work per member:
    :func:`frobenius_norms` of each deviation, widened by NORM_BOUND_SLACK,
    over :func:`norm_lower_bounds` of its scale, floored as there; zero
    exactly where the deviation is zero. ||D||_2 <= ||D||_F <= sqrt(min(m, n))
    ||D||_2, so no Gram matrix is needed."""
    upper = frobenius_norms(deviations) * (1.0 + NORM_BOUND_SLACK)
    return upper / np.maximum(norm_lower_bounds(scales), NORM_FLOOR)


def residual_lower_bounds(deviations: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Lower bounds on :func:`relative_residuals` without a factorization:
    :func:`norm_lower_bounds` of each deviation over :func:`frobenius_norms`
    of its scale, widened by NORM_BOUND_SLACK and floored as there."""
    upper = frobenius_norms(scales) * (1.0 + NORM_BOUND_SLACK)
    return norm_lower_bounds(deviations) / np.maximum(upper, NORM_FLOOR)


def bounded_residuals(
    deviations: np.ndarray, scales: np.ndarray, limit: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relative residuals decided bound first, their :func:`residual_bounds`
    and the mask of the exact ones.

    Each value is the member's :func:`residual_bounds` where that is at most
    limit; where it exceeds limit or is NaN, its
    :func:`residual_lower_bounds` where that exceeds limit, which certifies
    the residual failing; and its exact :func:`relative_residuals` where
    neither bound decides. So every value at most limit is at least the
    exact residual, every value above limit is at most the exact one, and
    each comparison with limit gives the exact verdict: none rests on a
    bound's slack.
    """
    bounds = residual_bounds(deviations, scales)
    values, over = bounds.copy(), np.flatnonzero(~(bounds <= limit))
    exact = np.zeros(len(bounds), dtype=bool)
    if over.size:
        values[over] = residual_lower_bounds(deviations[over], scales[over])
        exact[over] = ~(values[over] > limit)
    if exact.any():
        values[exact] = relative_residuals(deviations[exact], scales[exact])
    return values, bounds, exact


def decided_maximum(
    bounds: np.ndarray, limit: float, exact: Callable[[int], float]
) -> tuple[float, str, int | None]:
    """The maximum of residuals with the upper bounds ``bounds``, as a report
    prints it, its method and the first position attaining it.

    Where every bound is at most limit, the largest bound, "bound" and None;
    otherwise, or where a bound is NaN, their exact maximum and its position
    by :func:`exact_maximum`, which calls exact(i) on the raveled positions,
    one at a time, only where a bound can reach it, and "exact".
    """
    top = float(bounds.max(initial=0.0))
    if top <= limit:
        return top, "bound", None
    best, position = exact_maximum(bounds.ravel(), exact)
    return best, "exact", position


def relative_residual(deviation, scale) -> float:
    """Spectral norm of the deviation relative to the scale matrix's norm."""
    return float(relative_residuals(as_matrix(deviation)[None], as_matrix(scale)[None])[0])
