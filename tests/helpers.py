"""Random-instance generators and test references, shared by the test suite
and the experiment scripts, which run with this directory on PYTHONPATH.

Structured pencils are built in a common singular frame T = U D V^H,
S = U E V^H so that the singular values of t - lam*s are |d_i - lam*e_i|
and every rank decision on the sampled grids is provably far from the
cutoff:

  constant support  supp(e) inside supp(d): kernel and range never move,
                    so the resolvent family exists on the whole disk.
  switched support  one extra entry of e sits on a zero of d: the rank
                    jumps at every nonzero lam, so every criterion fails.

Generic Gaussian instances (full-rank t) are also clean: inside the disk
of convergence the rank can neither drop (outer-inverse argument) nor
exceed min(m, n).

The references at the end (subspace bases and gaps, the Neumann series of a
resolvent family) are the definitions the package's own routes are checked
against. This module imports from ``genresolvent`` only names that earlier
commits also export: CI's report-digest job runs the scripts, and so this
module, against the package of the base commit.
"""

from __future__ import annotations

import math

import numpy as np

from genresolvent import (
    ComplementPair,
    DEFAULT_TOL,
    GenInverse,
    Pencil,
    ResolventFamily,
    ShapeMismatchError,
    SubspaceBasis,
    TolerancePolicy,
    factor,
    geninv_from_complements,
    op_norm2,
    relative_residual,
)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, (n, n)))
    # fix the phase ambiguity so the factor is a deterministic function of the draw
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _phases(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def rect_diag(m: int, n: int, values: np.ndarray) -> np.ndarray:
    d = np.zeros((m, n), dtype=np.complex128)
    k = len(values)
    d[np.arange(k), np.arange(k)] = values
    return d


def framed_pencil(
    rng: np.random.Generator,
    m: int,
    n: int,
    rank: int,
    switched: bool = False,
) -> Pencil:
    """Pencil in a shared singular frame; see the module docstring."""
    k = min(m, n)
    assert 0 <= rank <= k
    assert not (switched and rank >= k)
    u = unitary(rng, m)
    v = unitary(rng, n)
    d = np.zeros(k, dtype=np.complex128)
    e = np.zeros(k, dtype=np.complex128)
    d[:rank] = rng.uniform(0.3, 2.0, rank) * _phases(rng, rank)
    e[:rank] = rng.uniform(0.2, 1.0, rank) * _phases(rng, rank)
    if switched:
        e[rank] = rng.uniform(0.5, 1.0) * _phases(rng, 1)[0]
    t = u @ rect_diag(m, n, d) @ v.conj().T
    s = u @ rect_diag(m, n, e) @ v.conj().T
    return Pencil(t, s)


def generic_full_pencil(rng: np.random.Generator, m: int, n: int) -> Pencil:
    """Full-rank Gaussian t with an unrelated Gaussian s."""
    return Pencil(complex_gaussian(rng, (m, n)), complex_gaussian(rng, (m, n)))


def random_rank_matrix(rng: np.random.Generator, m: int, n: int, rank: int) -> np.ndarray:
    """Matrix of exact numerical rank with singular values in [0.3, 2]."""
    u = unitary(rng, m)
    v = unitary(rng, n)
    d = np.zeros(min(m, n), dtype=np.complex128)
    d[:rank] = rng.uniform(0.3, 2.0, rank) * _phases(rng, rank)
    return u @ rect_diag(m, n, d) @ v.conj().T


def random_complements(
    rng: np.random.Generator, t: np.ndarray, scale: float = 0.3, tol=DEFAULT_TOL
) -> ComplementPair:
    """Complements of N(t) and R(t), the orthogonal ones tilted toward N(t)
    and R(t) by Gaussian factors of the given scale."""
    t_factor, th_factor = factor(t, tol), factor(t.conj().T, tol)
    ker, rng_basis = t_factor.kernel, t_factor.range
    row, left_null = th_factor.range, th_factor.kernel
    r = rng_basis.dim
    n = t.shape[1]
    m = t.shape[0]
    e_cols = row.basis + ker.basis @ (scale * complex_gaussian(rng, (n - r, r)))
    f_cols = left_null.basis + rng_basis.basis @ (scale * complex_gaussian(rng, (r, m - r)))
    return ComplementPair(e=factor(e_cols, tol).range, f=factor(f_cols, tol).range)


def random_complement_inverse(
    rng: np.random.Generator, t: np.ndarray, scale: float = 0.3, tol=DEFAULT_TOL
) -> GenInverse:
    """A generalized inverse from randomly tilted complements of N(t), R(t)."""
    return geninv_from_complements(t, random_complements(rng, t, scale, tol), tol)


def perturbation_instance(rng: np.random.Generator, case: str):
    """A base matrix plus a perturbed one, with smallness < 0.9.

    'aligned'  perturbation inside the singular frame's support: the rank
               and transversality survive.
    'switched' perturbation switches on a new support entry: they break.
    'full'     full-rank base with a generic perturbation: survival is
               automatic because the smallest singular value cannot reach 0.
    """
    m = int(rng.integers(2, 7))
    n = int(rng.integers(2, 7))
    k = min(m, n)
    if case == "full":
        t = random_rank_matrix(rng, m, n, k)
        sigma_min = np.linalg.svd(t, compute_uv=False)[-1]
        delta = complex_gaussian(rng, (m, n))
        delta *= rng.uniform(0.1, 0.85) * sigma_min / np.linalg.svd(delta, compute_uv=False)[0]
        return t, t + delta
    rank = int(rng.integers(1, k))
    u = unitary(rng, m)
    v = unitary(rng, n)
    d = np.zeros(k, dtype=np.complex128)
    d[:rank] = rng.uniform(0.3, 2.0, rank) * _phases(rng, rank)
    t = u @ rect_diag(m, n, d) @ v.conj().T
    sigma_min = np.abs(d[:rank]).min()
    delta_vals = np.zeros(k, dtype=np.complex128)
    if case == "aligned":
        delta_vals[:rank] = (
            rng.uniform(0.05, 0.25, rank) * sigma_min * _phases(rng, rank) / np.sqrt(rank)
        )
    elif case == "switched":
        delta_vals[rank] = rng.uniform(0.1, 0.8) * sigma_min * _phases(rng, 1)[0]
    else:
        raise ValueError(f"unknown case {case!r}")
    return t, t + u @ rect_diag(m, n, delta_vals) @ v.conj().T


def normal_pencil(rng: np.random.Generator, eigenvalues) -> Pencil:
    """T = U diag(eigenvalues) U^H for a Haar unitary U, and S = I.

    The singular values of t - lam*s are |eigenvalues - lam|, up to the
    rounding of T.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.complex128)
    n = len(eigenvalues)
    u = unitary(rng, n)
    return Pencil((u * eigenvalues) @ u.conj().T, np.eye(n, dtype=np.complex128))


def off_lattice(rng: np.random.Generator, count: int, extent: float = 3.0,
                spacing: float = 0.1, distance: float = 0.02) -> np.ndarray:
    """Complex values inside [-extent, extent]^2, each at least distance from
    every point of the lattice spacing * (Z + iZ)."""
    values: list[complex] = []
    while len(values) < count:
        z = complex(*rng.uniform(-extent + spacing, extent - spacing, 2))
        nearest = complex(round(z.real / spacing), round(z.imag / spacing)) * spacing
        if abs(z - nearest) >= distance:
            values.append(z)
    return np.array(values)


# a residual_tol that no bound on a nonzero residual meets: the grid stages
# take their exact paths, for the identity and for the inverse axioms
EXACT = TolerancePolicy(residual_tol=1e-300)


def assert_same_scan(a, b) -> None:
    """Two spectrum scans hold the same points, bit for bit, and the same
    ranks and drop flags, of the same dtypes."""
    assert a.points.dtype == b.points.dtype and a.points.tobytes() == b.points.tobytes()
    for x, y in ((a.ranks, b.ranks), (a.is_drop, b.is_drop)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def ordered_pairs(count, through=None):
    """Every ordered pair (i, j), i != j, of count points, in row-major order;
    with through, only the pairs of which it is one index."""
    return [(i, j) for i in range(count) for j in range(count)
            if i != j and (through is None or through in (i, j))]


def reference_identity_max(s, scale, values, points, pairs):
    """The per-pair loop the identity decision's exact pairs replace: one
    deviation, one norm per pair. Returns the largest residual and the first
    pair attaining it."""
    best, worst = 0.0, None
    for i, j in pairs:
        deviation = values[i] - values[j] - (points[i] - points[j]) * (values[i] @ s @ values[j])
        res = relative_residual(deviation, scale)
        if res > best:
            best, worst = res, (i, j)
    return best, worst


def rank_coordinates(f: ResolventFamily) -> dict:
    """The family's rank-r coordinates (``resolvent.RankCoordinates``), rebuilt
    with plain numpy from one SVD of tplus, at the rank its inverse was built
    with less its exactly zero singular values, by the package's operations,
    so that each array has the package's bits."""
    t, s = f.pencil.t, f.pencil.s
    u, values, vh = np.linalg.svd(np.array(f.g.tplus, dtype=np.complex128, order="C"))
    r = int(np.count_nonzero(values[: f.g.rank]))
    sigma, vh = values[:r], vh[:r]
    x = np.array(u[:, :r], order="C")
    yh = sigma[:, None] * vh
    exponent = math.frexp(sigma[0])[1] if r else 0
    sx, yht = s @ x, yh @ t
    w = vh @ sx
    return {"x": x, "yh": yh, "k": sigma[:, None] * w, "tx": t @ x, "sx": sx, "yht": yht,
            "yhs": yh @ s, "yhtx": yht @ x, "scale": np.ldexp(sigma, -exponent),
            "s_prime": np.ldexp(1.0, exponent) * w}


def rank_point(c: dict, lam: complex, a: np.ndarray):
    """N = (I_r - lam K)^-1 by one solve, M = 2^-e N Sigma_r, and the inner
    and outer deviations (A X) N (Y^H A) - A and N (B M) - M,
    B = Y^H t X - lam K, at one point, where a is t - lam s."""
    eye = np.eye(len(c["k"]), dtype=np.complex128)
    n = np.linalg.solve(eye - lam * c["k"], eye)
    m = n * c["scale"]
    inner = (c["tx"] - lam * c["sx"]) @ n @ (c["yht"] - lam * c["yhs"]) - a
    return n, m, inner, n @ ((c["yhtx"] - lam * c["k"]) @ m) - m


def span(*columns) -> SubspaceBasis:
    """The subspace spanned by the given columns."""
    return factor(np.column_stack([np.asarray(c, dtype=complex) for c in columns])).range


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


def evaluate_neumann(f: ResolventFamily, lam: complex, terms: int) -> np.ndarray:
    """Partial geometric sum of G(lam): sum_k lam^k tplus (s tplus)^k, for
    terms >= 1 and lam inside the disk of convergence.

    The independent cross-check of ``evaluate``; the truncation error is
    bounded by ||tplus|| r^terms / (1-r) with r = |lam| ||s tplus||.
    """
    term = f.g.tplus
    total = term.copy()
    step = complex(lam) * (f.pencil.s @ f.g.tplus)
    for _ in range(terms - 1):
        term = term @ step
        total += term
    return total
