"""The stacked grid stages against plain per-point loops.

Every per-point stage builds t - lam*s for a chunk of grid points as one
(k, m, n) stack and factors, solves and takes norms with one batched call
per stack. Batched LAPACK and BLAS calls return what per-matrix calls
return, bit for bit, so each stage must equal the loop it replaced, kept
here as the reference and written with plain numpy: one matrix, one SVD,
one solve at a time. Results are compared with ==, for chunk budgets from
one byte (one point per chunk) to the default.

The subspace verdicts come from the rank kernel ``linalg.split_ranks``; the
reference decides them the way the per-point code did, by the rank of
concatenated kernel and range bases. The two routes agree away from the
rank cutoff, which the hypothesis test checks, and the pinned cases show
where they part. The Moore-Penrose subspace gaps are also checked against
their definition, a projector difference, within its rounding.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genresolvent import (
    DEFAULT_TOL,
    ComplementPair,
    DiskGrid,
    InvalidComplementError,
    InvalidFamilyError,
    Pencil,
    SingularSystemError,
    SubspaceBasis,
    TolerancePolicy,
    build_family,
    check_resolvent_axioms,
    continuity_check,
    default_grid,
    direct_sum_criteria,
    existence_check,
    factor,
    finite_rank_criterion,
    fixed_complements_check,
    generalized_spectrum_scan,
    geninv_from_complements,
    invertibility_corollary,
    mp_inverse,
    mp_resolvent_characterization,
    pinv_matrix,
    rectangular_region,
)
from genresolvent import criteria, linalg, resolvent
from genresolvent.linalg import EPS, NORM_FLOOR, solve_stack, split_ranks, split_verdicts
from helpers import (
    EXACT,
    complex_gaussian,
    framed_pencil,
    generic_full_pencil,
    projector,
    random_complement_inverse,
    random_rank_matrix,
    rank_coordinates,
    rank_point,
    unitary,
)

BUDGETS = [1, 3 * 16 * 5 * 5, linalg.CHUNK_BYTES]


# --- the per-point reference -------------------------------------------------


def copy(a):
    return np.array(a, dtype=np.complex128, order="C")


def norm2(a):
    a = copy(a)
    if min(a.shape) == 0 or not np.any(a):
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def relative(deviation, scale):
    return norm2(deviation) / max(norm2(scale), NORM_FLOOR)


def rank_marginal(a, tol=DEFAULT_TOL):
    a = copy(a)
    if min(a.shape) == 0:
        return 0, False
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = tol.rank_rtol * float(s[0]) * max(a.shape)
    r = int(np.count_nonzero(s > cutoff))
    return r, r > 0 and float(s[r - 1]) <= 10.0 * cutoff


def full_factor(a, tol=DEFAULT_TOL):
    """u, s, vh and rank; bases and pseudoinverse built as one matrix at a time."""
    u, s, vh = np.linalg.svd(copy(a))
    r = int(np.count_nonzero(s > tol.rank_rtol * float(s[0]) * max(a.shape)))
    k = s.size
    inv_s = np.zeros(k)
    inv_s[:r] = 1.0 / s[:r]
    return {
        "u": u,
        "vh": vh,
        "rank": r,
        "kernel": copy(vh[r:].conj().T),
        "range": copy(u[:, :r]),
        "pinv": (vh.conj().T[:, :k] * inv_s) @ u.conj().T[:k, :],
    }


def gaps(a_factor, t_factor):
    """Kernel and range gaps from t's subspaces: 1 where the ranks differ;
    else 0 where the factor has t's bits, and otherwise the norm of a
    complement of one subspace applied to the other's basis, at most 1."""
    r = t_factor["rank"]
    if a_factor["rank"] != r:
        return 1.0, 1.0
    v0, u0, vh, u = t_factor["vh"], t_factor["u"], a_factor["vh"], a_factor["u"]
    kernel = 0.0 if np.array_equal(vh, v0) else min(norm2(v0[:r] @ vh[r:].conj().T), 1.0)
    rng = 0.0 if np.array_equal(u, u0) else min(norm2(u0[:, r:].conj().T @ u[:, :r]), 1.0)
    return kernel, rng


def meets_trivially(m, n, tol=DEFAULT_TOL):
    if m.shape[1] == 0 or n.shape[1] == 0:
        return True
    return rank_marginal(np.hstack([m, n]), tol)[0] == m.shape[1] + n.shape[1]


def splits(m, n, tol=DEFAULT_TOL):
    return m.shape[1] + n.shape[1] == m.shape[0] and meets_trivially(m, n, tol)


def singular_message(a, tol=DEFAULT_TOL):
    """The per-matrix singularity check of solve: its message, or None."""
    s = np.linalg.svd(copy(a), compute_uv=False)
    smin = float(s[-1])
    if smin > tol.rank_rtol * float(s[0]) * max(a.shape):
        return None
    cond = float(s[0]) / smin if smin > 0.0 else np.inf
    return f"system matrix singular to tolerance (cond ~ {cond:.3e})"


def evaluate(f, lam):
    """G(lam) = tplus (I - lam s tplus)^-1, solved as in the per-point code."""
    a = np.eye(f.pencil.shape[0], dtype=np.complex128) - lam * (f.pencil.s @ f.g.tplus)
    assert singular_message(a.T) is None
    return np.linalg.solve(copy(a.T), copy(f.g.tplus.T)).T


# --- cases ---------------------------------------------------------------------


def pencil_for(m, n, switched, seed=0):
    rng = np.random.default_rng([seed, m, n, int(switched), 7])
    return framed_pencil(rng, m, n, min(m, n) - 1, switched=switched)


PENCILS = [
    pytest.param(lambda: pencil_for(4, 4, False), id="square-constant"),
    pytest.param(lambda: pencil_for(5, 5, True), id="square-switched"),
    pytest.param(lambda: pencil_for(3, 5, False), id="wide-constant"),
    pytest.param(lambda: pencil_for(6, 3, True), id="tall-switched"),
    pytest.param(lambda: Pencil(np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3))), id="s-zero"),
]


def grid_for(p, points=25):
    return default_grid(build_family(p, mp_inverse(p.t)).radius / 2, points)


@pytest.fixture(params=BUDGETS, ids=["budget-1", "budget-small", "budget-default"])
def budget(request, monkeypatch):
    monkeypatch.setattr(linalg, "CHUNK_BYTES", request.param)
    return request.param


# --- stages --------------------------------------------------------------------


def axiom_references(family, points):
    """The exact inner and outer residuals of the explicit family, point by
    point, in its rank-r coordinates, each deviation formed as the axiom
    stage forms it."""
    c = rank_coordinates(family)
    inner, outer = [], []
    for lam in points:
        a = family.pencil.at(lam)
        _, m, inner_deviation, outer_deviation = rank_point(c, lam, a)
        inner.append(relative(inner_deviation, a))
        outer.append(relative(outer_deviation, m))
    return inner, outer


def assert_decided_against(report, references, limit):
    """Each value at most limit is at least its reference; each above it is at
    most its reference: a certified lower bound, or the reference itself."""
    values = report.inner_residuals + report.outer_residuals
    for value, reference in zip(values, references[0] + references[1]):
        assert reference <= value if value <= limit else value <= reference


@pytest.mark.parametrize("make", PENCILS)
def test_resolvent_axiom_residuals(make, budget):
    """Against the per-point reference, under a residual_tol no bound meets
    (EXACT) and at the default one: every value is decided on the right
    side of its reference, and each axiom's largest value is the reference
    maximum bit for bit wherever some bound exceeds residual_tol, as every
    nonzero bound does under EXACT. An axiom whose bounds all meet the
    default tolerance reports its largest bound, between the reference
    maximum and residual_tol."""
    p = make()
    family = build_family(p, mp_inverse(p.t))
    grid = grid_for(p)
    for tol in (EXACT, DEFAULT_TOL):
        report = check_resolvent_axioms(family, grid, tol)
        references = axiom_references(family, report.points)
        limit = tol.residual_tol
        assert_decided_against(report, references, limit)
        for values, reference in zip((report.inner_residuals, report.outer_residuals), references):
            if tol is EXACT or max(values) > limit:
                assert max(values) == max(reference)
            else:
                assert max(reference) <= max(values) <= limit
        every = references[0] + references[1]
        exact = any(every) if tol is EXACT else max(every) > limit
        assert report.axiom_method == ("exact" if exact else "bound")


def oracle_references(family, points):
    """The exact inner and outer residuals of the m x m oracle, point by point."""
    inner, outer = [], []
    for lam in points:
        g = evaluate(family, lam)
        a = family.pencil.at(lam)
        ga = g @ a
        inner.append(relative(a @ ga - a, a))
        outer.append(relative(ga @ g - g, g))
    return inner, outer


def frobenius(a):
    """||a||_F, taken on a scaled by its peak so that no square overflows."""
    peak = float(np.abs(a).max(initial=0.0))
    return peak * float(np.linalg.norm(a / peak)) if peak else 0.0


@st.composite
def explicit_families(draw):
    """Wide, tall and square pencils: framed with constant or switched
    support, of full rank and of rank 0, a generic full-rank one and
    t = diag(1, 1e-200), whose tplus = diag(1, 1e200) needs both singular
    values; each with the rank_rtol its inverse is built with."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["constant", "switched", "full rank", "rank 0", "graded"]))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rtol = draw(st.sampled_from([DEFAULT_TOL.rank_rtol, 0.05]))
    if kind == "graded":
        p, rtol = Pencil(np.diag([1.0, 1e-200]), complex_gaussian(rng, (2, 2))), 1e-300
    elif kind == "full rank":
        p = generic_full_pencil(rng, m, n)
    elif kind == "rank 0":
        p = Pencil(np.zeros((m, n)), complex_gaussian(rng, (m, n)))
    else:
        switched = kind == "switched"
        p = framed_pencil(rng, m, n, draw(st.integers(0, min(m, n) - switched)), switched)
    return p, rtol, draw(st.sampled_from([0.1, 0.5, 0.9]))


@settings(max_examples=150, deadline=None)
@given(explicit_families())
def test_rank_r_family_agrees_with_the_m_by_m_oracle(case):
    """The explicit family in rank-r coordinates against the m x m solve of
    the oracle evaluate above, to rounding: G(lam) within rho ||G||_F and
    A G(lam) A within rho || |A| |G| |A| ||_F, rho = 100 max(m, n) EPS over
    1 - |lam| ||s tplus||, the latter componentwise, so that a part of tplus
    the inner axiom needs, far below ||tplus||, cannot be dropped. The
    inverse may miss its axioms by a coarse rank_rtol (its check is loosened
    to 0.9), and the axiom verdicts are decided against the oracle's exact
    residuals, each within what the two families' difference and the
    rounding of forming either deviation can move it."""
    p, rtol, fraction = case
    family = build_family(p, mp_inverse(p.t, TolerancePolicy(rank_rtol=rtol, residual_tol=0.9)))
    grid = default_grid(min(family.radius * fraction, 1e6), 9)
    report = check_resolvent_axioms(family, grid)
    m, n = p.shape
    allowances = ([], [])
    for lam in report.points:
        g, expected, a = resolvent.evaluate(family, lam), evaluate(family, lam), p.at(lam)
        rho = 100 * max(m, n) * EPS / (1.0 - abs(lam) * family.st_norm)
        difference = g - expected
        assert frobenius(difference) <= rho * frobenius(expected)
        sandwich = frobenius(np.abs(a) @ np.abs(expected) @ np.abs(a))
        assert frobenius(a @ difference @ a) <= rho * sandwich
        scale, g_scale = max(norm2(a), NORM_FLOOR), max(norm2(expected), NORM_FLOOR)
        allowances[0].append((frobenius(a @ difference @ a) + 2 * rho * sandwich) / scale)
        moved = frobenius(difference) * (1 + 2 * norm2(a) * (norm2(g) + norm2(expected)))
        allowances[1].append(moved / g_scale + 2 * rho * norm2(a) * g_scale)
    references = oracle_references(family, report.points)
    limit = DEFAULT_TOL.residual_tol
    values = report.inner_residuals + report.outer_residuals
    for value, reference, allowance in zip(values, references[0] + references[1],
                                           allowances[0] + allowances[1]):
        if value <= limit:
            assert reference <= value + allowance
        else:
            assert value <= reference + allowance


@pytest.mark.parametrize("make", PENCILS)
def test_rank_profile(make, budget):
    p = make()
    grid = grid_for(p, 60)
    profile = finite_rank_criterion(p, grid).profile
    expected = [rank_marginal(p.at(lam)) for lam in grid.points]
    assert profile.ranks == tuple(r for r, _ in expected)
    assert profile.marginal == tuple(near for _, near in expected)


@pytest.mark.parametrize("make", PENCILS)
def test_mp_characterization(make, budget):
    """Under a residual_tol no bound meets, the axiom maximum is exact and
    equals the per-point reference bit for bit; at the default tolerance the
    largest bound decides, between the reference and residual_tol."""
    p = make()
    grid = grid_for(p)
    report = mp_resolvent_characterization(p, grid, EXACT)
    t_factor = full_factor(p.t)
    kernel_gaps, range_gaps, max_axiom = [], [], 0.0
    for lam in grid.points:
        a = p.at(lam)
        a_factor = full_factor(a)
        kernel, rng = gaps(a_factor, t_factor)
        kernel_gaps.append(kernel)
        range_gaps.append(rng)
        b = a_factor["pinv"]
        pp, q = a @ b, b @ a
        max_axiom = max(
            max_axiom,
            relative(pp @ a - a, a),
            relative(q @ b - b, b),
            relative(pp - pp.conj().T, pp),
            relative(q - q.conj().T, q),
        )
    assert report.kernel_gaps == tuple(kernel_gaps)
    assert report.range_gaps == tuple(range_gaps)
    assert report.max_axiom_residual == max_axiom
    assert report.axiom_method == ("exact" if max_axiom > 0.0 else "bound")
    bounded = mp_resolvent_characterization(p, grid)
    assert (bounded.kernel_gaps, bounded.range_gaps) == (report.kernel_gaps, report.range_gaps)
    assert bounded.axiom_method == "bound"
    assert max_axiom <= bounded.max_axiom_residual <= DEFAULT_TOL.residual_tol


def constant_family_pencil(n, seed):
    """t of rank n - 1 with s = 0: the family is constant, so every identity
    deviation is exactly zero and the axioms alone decide, at any residual_tol."""
    rng = np.random.default_rng([seed, n, 8])
    return Pencil(framed_pencil(rng, n, n, n - 1).t, np.zeros((n, n)))


@pytest.mark.parametrize("n,seed", [(8, 0), (20, 1), (32, 0)])
def test_no_axiom_verdict_of_analyze_rests_on_slack(n, seed):
    """A residual_tol strictly between the exact axiom residuals and the
    largest bound: every value meets it on the right side of its reference,
    the method reads "exact", the axioms pass, and an axiom whose largest
    bound exceeds the tolerance reports the reference maximum bit for bit."""
    p = constant_family_pencil(n, seed)
    family = build_family(p, mp_inverse(p.t))
    grid = grid_for(p)
    bounded = check_resolvent_axioms(family, grid)
    references = axiom_references(family, bounded.points)
    bounds = (bounded.inner_residuals, bounded.outer_residuals)
    assert bounded.axiom_method == "bound"
    top, top_bound = max(references[0] + references[1]), max(bounds[0] + bounds[1])
    tol = (top + top_bound) / 2
    assert top < tol < top_bound
    report = check_resolvent_axioms(family, grid, TolerancePolicy(residual_tol=tol))
    assert report.ok
    assert report.axiom_method == "exact"
    assert report.max_identity_residual == 0.0
    assert_decided_against(report, references, tol)
    decided = (report.inner_residuals, report.outer_residuals)
    for values, reference, bound in zip(decided, references, bounds):
        assert max(values) == (max(reference) if max(bound) > tol else max(bound))


@pytest.mark.parametrize("n,seed", [(8, 0), (20, 1), (32, 0)])
def test_no_axiom_verdict_of_mp_check_rests_on_slack(n, seed):
    """As for analyze: between the exact Moore-Penrose axiom maximum and its
    bound, the maximum is exact and the verdicts hold."""
    p = constant_family_pencil(n, seed)
    grid = grid_for(p)
    reference = mp_resolvent_characterization(p, grid, EXACT).max_axiom_residual
    bound = mp_resolvent_characterization(p, grid).max_axiom_residual
    tol = (reference + bound) / 2
    assert reference < tol < bound
    report = mp_resolvent_characterization(p, grid, TolerancePolicy(residual_tol=tol))
    assert report.identity_verdict and report.constancy_verdict
    assert (report.axiom_method, report.max_axiom_residual) == ("exact", reference)


def moving_pencil(rng, m, n, rank, moves):
    """t = X Y^H of the given rank and s = X Z^H, whose kernel moves with
    lam while its range stays R(X), or s = W Y^H, the other way round."""
    x, y = complex_gaussian(rng, (m, rank)), complex_gaussian(rng, (n, rank))
    if moves == "kernel":
        return Pencil(x @ y.conj().T, x @ complex_gaussian(rng, (n, rank)).conj().T)
    return Pencil(x @ y.conj().T, complex_gaussian(rng, (m, rank)) @ y.conj().T)


GAP_PENCILS = [
    pytest.param(lambda rng: framed_pencil(rng, 5, 5, 4), id="square-constant"),
    pytest.param(lambda rng: framed_pencil(rng, 6, 4, 2, switched=True), id="tall-switched"),
    pytest.param(lambda rng: framed_pencil(rng, 4, 4, 0), id="rank-zero-square"),
    pytest.param(lambda rng: framed_pencil(rng, 3, 5, 0, switched=True), id="rank-zero-wide"),
    pytest.param(lambda rng: generic_full_pencil(rng, 4, 4), id="full-rank-square"),
    pytest.param(lambda rng: generic_full_pencil(rng, 3, 6), id="full-rank-wide"),
    pytest.param(lambda rng: generic_full_pencil(rng, 6, 3), id="full-rank-tall"),
    pytest.param(lambda rng: moving_pencil(rng, 6, 4, 2, "kernel"), id="kernel-moves"),
    pytest.param(lambda rng: moving_pencil(rng, 4, 6, 2, "range"), id="range-moves"),
    # N(t - lam s) = span((1e-9, lam)) turns near orthogonal to N(t) = span(e1):
    # the product's computed norm at lam = -(1 + 1j) / (2 sqrt(2)) is 1 + EPS
    pytest.param(lambda rng: Pencil(np.array([[0, 1e-9], [0, 0]]), np.diag([1.0, 0.0])),
                 id="near-orthogonal-kernels"),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make", GAP_PENCILS)
def test_mp_gaps_against_their_projectors(make, seed):
    """The gaps read off the SVDs against their definition ||P_lam - P_0||_2,
    the norm of a projector difference formed point by point: within
    4 max(m, n) EPS where the ranks are equal, exactly 1 where they differ,
    exactly 0 at lam = 0, and never above 1. The formed difference rounds
    by up to about 2 max(m, n) EPS itself at these sizes: for square t of
    full rank it reads near 1e-15 where both products are empty and the
    gap is exactly 0."""
    p = make(np.random.default_rng([seed, 23]))
    grid = default_grid(0.5, 25)
    report = mp_resolvent_characterization(p, grid)
    t_factor = full_factor(p.t)
    slack = 4 * max(p.shape) * EPS
    for lam, kernel, rng in zip(grid.points, report.kernel_gaps, report.range_gaps):
        a_factor = full_factor(p.at(lam))
        assert max(kernel, rng) <= 1.0
        if lam == 0:
            assert kernel == rng == 0.0
        elif a_factor["rank"] != t_factor["rank"]:
            assert kernel == rng == 1.0
        else:
            for gap, space in ((kernel, "kernel"), (rng, "range")):
                a_space, t_space = (SubspaceBasis(len(f[space]), f[space])
                                    for f in (a_factor, t_factor))
                definition = norm2(projector(a_space) - projector(t_space))
                assert abs(gap - definition) <= slack, (lam, space)


@pytest.mark.parametrize("make", PENCILS)
def test_transversality_and_splittings(make, budget):
    p = make()
    g = mp_inverse(p.t)
    grid = grid_for(p)
    plus = full_factor(g.tplus)
    transversal, domain, codomain = [], [], []
    for lam in grid.points:
        a_factor = full_factor(p.at(lam))
        transversal.append(meets_trivially(a_factor["range"], plus["kernel"]))
        domain.append(splits(a_factor["kernel"], plus["range"]))
        codomain.append(splits(a_factor["range"], plus["kernel"]))
    family = build_family(p, g)
    certificate = existence_check(family, grid)
    assert [ok for _, ok in certificate.per_point] == transversal
    report = direct_sum_criteria(family, grid)
    assert [(d, c) for _, d, c in report.per_point] == list(zip(domain, codomain))


def kernel_route(a, e, f, tol=DEFAULT_TOL):
    """transversal, domain and codomain verdicts of one matrix by the rank kernel."""
    f_perp = factor(f.conj().T, tol).kernel.basis
    split = split_ranks(copy(a)[None], e, f_perp, tol)
    verdicts = split_verdicts(split, e.shape[1], f_perp.shape[1])
    return tuple(bool(v[0]) for v in verdicts), f_perp


def stacked_route(a, e, f, tol=DEFAULT_TOL):
    """The same verdicts by concatenated kernel and range bases."""
    a_factor = full_factor(a, tol)
    kernel, rng = a_factor["kernel"], a_factor["range"]
    verdicts = (meets_trivially(rng, f, tol), splits(kernel, e, tol), splits(rng, f, tol))
    return verdicts, (kernel, rng)


def basis(columns):
    return factor(columns).range.basis


def subspace_case(rng, kind):
    """A matrix a, a subspace E of its domain and F of its codomain, as bases.

    framed  a = t - lam s of a framed pencil inside half its disk, E and F
            the range and kernel of an MP or tilted generalized inverse
    tilted  a of rank r with singular values in [0.3, 2]; E and F tilted
            from the orthogonal complements of N(a) and R(a) toward them by
            factors from 1e-2 to 1e17, which puts the deciding singular
            values of both routes on either side of the cutoff
    random  the same a with random subspaces of random dimension
    """
    m, n = (int(x) for x in rng.integers(1, 7, 2))
    k = min(m, n)
    if kind == "framed":
        switched = k > 0 and bool(rng.uniform() < 0.5)
        p = framed_pencil(rng, m, n, int(rng.integers(0, k if switched else k + 1)), switched)
        g = mp_inverse(p.t) if rng.uniform() < 0.5 else random_complement_inverse(rng, p.t)
        lam = build_family(p, g).radius / 2 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        plus = full_factor(g.tplus)
        return p.at(lam), plus["range"], plus["kernel"]
    a = random_rank_matrix(rng, m, n, int(rng.integers(0, k + 1)))
    if kind == "random":
        e = basis(complex_gaussian(rng, (n, int(rng.integers(0, n + 1)))))
        f = basis(complex_gaussian(rng, (m, int(rng.integers(0, m + 1)))))
        return a, e, f
    a_factor, ah_factor = factor(a), factor(a.conj().T)
    kernel, rng_a = a_factor.kernel.basis, a_factor.range.basis
    row, left_null = ah_factor.range.basis, ah_factor.kernel.basis
    tilts = 10.0 ** rng.uniform(-2.0, 17.0, 2)
    e = basis(row + kernel @ (tilts[0] * complex_gaussian(rng, (kernel.shape[1], row.shape[1]))))
    f = basis(left_null + rng_a @ (tilts[1] * complex_gaussian(rng, (rng_a.shape[1], left_null.shape[1]))))
    return a, e, f


def near_cutoff(matrix, cutoff, band=100.0):
    """Whether a singular value of the matrix lies within a factor band of the cutoff."""
    if min(matrix.shape) == 0 or cutoff == 0.0:
        return False
    s = np.linalg.svd(copy(matrix), compute_uv=False)
    return bool(np.any((s >= cutoff / band) & (s <= cutoff * band)))


def own_cutoff(matrix, tol=DEFAULT_TOL):
    if min(matrix.shape) == 0:
        return 0.0
    return tol.rank_rtol * norm2(matrix) * max(matrix.shape)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["framed", "tilted", "random"]),
    st.sampled_from([DEFAULT_TOL, TolerancePolicy(rank_rtol=1e-10)]),
)
def test_rank_kernel_agrees_with_stacked_bases_off_the_cutoff(seed, kind, tol):
    """Both routes give the same verdicts unless a deciding singular value of
    either lies within 100x of its cutoff. The kernel ranks A, A E and
    F_perp^H A against the cutoff of A; the reference ranks the stacked
    bases [R(A) | F] and [N(A) | E] against their own. At the default
    rank_rtol the rounding noise of a numerically zero singular value
    already lies within 100x of the cutoff; at 1e-10 it lies far below, so
    rank-deficient matrices are compared too."""
    a, e, f = subspace_case(np.random.default_rng(seed), kind)
    kernel_verdicts, f_perp = kernel_route(a, e, f, tol)
    stacked_verdicts, (kernel, rng) = stacked_route(a, e, f, tol)
    cutoff = own_cutoff(a, tol)
    decisions = [(a, cutoff), (a @ e, cutoff), (f_perp.conj().T @ a, cutoff)]
    decisions += [(np.hstack(pair), own_cutoff(np.hstack(pair), tol))
                  for pair in ((rng, f), (kernel, e)) if pair[0].shape[1] and pair[1].shape[1]]
    if any(near_cutoff(matrix, c) for matrix, c in decisions):
        return
    assert kernel_verdicts == stacked_verdicts


@pytest.mark.parametrize("angle,in_band", [(1e-9, True), (1e-12, False)])
def test_graded_range_at_a_small_angle_is_where_the_routes_differ(angle, in_band):
    """R(A) = span(e1, e2) with sigma = (1, 1e-8), F = span((0, cos x, sin x)).

    The stacked bases see unit vectors at the angle x and call R(A) and F
    transversal; the kernel sees sigma(F_perp^H A) = (1, 1e-8 sin x), which
    is rounding noise next to ||A||, and does not: A is within 1e-8 x of a
    matrix whose range meets F. At x = 1e-9 the deciding value 1e-17 is
    within 100x of the cutoff; at 1e-12 it is below it by more, so the
    100x band of the hypothesis test holds only where the kept singular
    values of A are of one scale, as they are there.
    """
    a = np.array([[1, 0], [0, 1e-8], [0, 0]], dtype=complex)
    f = np.array([[0], [np.cos(angle)], [np.sin(angle)]], dtype=complex)
    e = np.zeros((2, 0), dtype=complex)
    (transversal, _, _), f_perp = kernel_route(a, e, f)
    (reference, _, _), (_, rng) = stacked_route(a, e, f)
    assert reference and not transversal
    stacked = np.hstack([rng, f])
    assert not near_cutoff(stacked, own_cutoff(stacked))
    ranks, _, left, _ = split_ranks(a[None], e, f_perp)
    assert (ranks[0], left[0]) == (2, 1)
    s = np.linalg.svd(f_perp.conj().T @ a, compute_uv=False)
    assert s[1] == pytest.approx(1e-8 * np.sin(angle), rel=1e-3)
    assert near_cutoff(f_perp.conj().T @ a, own_cutoff(a)) == in_band


def test_a_kernel_is_not_its_own_complement(budget):
    """e = N(t) and f = R(t) split nothing; in a unitary frame A e is rounding
    noise, which a cutoff taken from A e itself, not from A, counts as rank."""
    rng = np.random.default_rng(8)
    u, v = unitary(rng, 4), unitary(rng, 4)
    p = Pencil(u @ np.diag([1.0, 0.5, 0, 0]) @ v.conj().T, u @ np.diag([0.5, 0.3, 0, 0]) @ v.conj().T)
    t_factor = factor(p.t)
    c = ComplementPair(t_factor.kernel, t_factor.range)
    noise = np.linalg.svd(p.t @ c.e.basis, compute_uv=False)
    assert 0 < noise[-1] and noise[0] < 1e-14
    grid = grid_for(p)
    report = fixed_complements_check(p, c, grid)
    expected = []
    for lam in grid.points:
        a_factor = full_factor(p.at(lam))
        expected.append((splits(a_factor["kernel"], c.e.basis), splits(a_factor["range"], c.f.basis)))
    assert [(d, cd) for _, d, cd in report.per_point] == expected == [(False, False)] * len(grid.points)
    with pytest.raises(InvalidComplementError, match="domain split failed"):
        geninv_from_complements(p.t, c)


@pytest.mark.parametrize("make", PENCILS)
def test_spectrum_scan_ranks(make, budget):
    p = make()
    region = rectangular_region(-3.0, 3.0, -3.0, 3.0, 13)
    scan = generalized_spectrum_scan(p, region)
    assert scan.ranks.tolist() == [rank_marginal(p.at(lam))[0] for lam in region]


def test_invertibility_reuses_the_characterization(budget):
    t = np.diag([1.0, 2.0, 3.0]) + 0.1 * np.triu(np.ones((3, 3)), 1)
    grid = default_grid(0.5, 25)
    report = invertibility_corollary(t, grid)
    worst = 0.0
    for lam in grid.points:
        a = t - lam * np.eye(3)
        classical = np.linalg.solve(copy(a), np.eye(3, dtype=np.complex128))
        cond = norm2(a) * norm2(classical)
        worst = max(worst, norm2(full_factor(a)["pinv"] - classical) / cond)
    assert report.max_classical_residual == worst


def test_invertibility_on_an_eigenvalue_is_infinite(budget):
    # the ring of radius 1 passes through the eigenvalue 1: t - 1*I is singular there
    report = invertibility_corollary(np.diag([1.0, 2.0, 3.0]), default_grid(1.0, 9))
    assert report.t_invertible
    assert report.max_classical_residual == np.inf


def continuity_rows(p, members, points, tol=DEFAULT_TOL):
    """Per point: deviation, Banach product and w-invertibility, one matrix at a time.

    Raises ValueError naming the first member that fails the inner or outer axiom.
    """
    n = p.shape[1]
    for lam, b in zip(points, members):
        a = copy(p.at(lam))
        ba = b @ a
        inner, outer = relative(a @ ba - a, a), relative(ba @ b - b, b)
        if not (inner <= tol.residual_tol and outer <= tol.residual_tol):
            raise ValueError(f"family member at lam={lam} is not a generalized inverse of t - lam*s")
    eye = np.eye(n, dtype=np.complex128)
    b0 = members[points.index(0)]
    p0 = eye - b0 @ p.at(0)
    rows = []
    for lam, b in zip(points, members):
        p_lam = eye - b @ p.at(lam)
        w = eye + (p_lam - p0) @ p0
        rows.append((lam, norm2(b - b0), norm2(p_lam - p0) * norm2(p0), rank_marginal(w)[0] == n))
    return rows


CONTINUITY_FAMILIES = [
    pytest.param(lambda p, lam: pinv_matrix(p.at(lam)), id="pseudoinverses"),
    pytest.param(lambda p, lam: mp_inverse(p.t).tplus, id="constant"),
]


@pytest.mark.parametrize("member", CONTINUITY_FAMILIES)
@pytest.mark.parametrize("make", PENCILS)
def test_continuity_check(make, member, budget):
    p = make()
    grid = grid_for(p)
    members = [member(p, lam) for lam in grid.points]
    try:
        expected = continuity_rows(p, members, grid.points)
    except ValueError as failure:
        with pytest.raises(InvalidFamilyError) as raised:
            continuity_check(p, dict(zip(grid.points, members)), grid)
        assert str(raised.value) == str(failure)
        return
    report = continuity_check(p, dict(zip(grid.points, members)), grid)
    rows = [(r.lam, r.deviation, r.banach_product, r.w_invertible) for r in report.per_point]
    assert rows == expected
    assert report.max_deviation == max(deviation for _, deviation, _, _ in expected)


def test_continuity_names_the_first_bad_member_in_grid_order(budget):
    p = Pencil(np.diag([1.0, 2.0, 0.0]), np.diag([0.5, 0.5, 0.0]))
    grid = DiskGrid(0.5, [0.1, 0.2, 0, 0.3, 0.4])
    bad = {0.2, 0.4}
    family = {lam: np.zeros((3, 3)) if lam in bad else pinv_matrix(p.at(lam)) for lam in grid.points}
    with pytest.raises(InvalidFamilyError) as raised:
        continuity_check(p, family, grid)
    assert raised.value.lam == 0.2
    assert str(raised.value) == "family member at lam=(0.2+0j) is not a generalized inverse of t - lam*s"


# --- the per-point stage driver ---------------------------------------------------


def stage_spy(monkeypatch, p):
    """Wrap every stage the driver runs, wherever it is called from: per
    driver call, record each slice the stage receives and each stack's
    owner and data address, and check the stack against t - lam*s."""
    calls = []
    driver = linalg.chunked_stage

    def spying(t, s, lams, live, stage):
        seen = []
        calls.append((len(lams), t.shape, seen))

        def spied(part, a):
            assert np.array_equal(a, np.stack([p.at(lam) for lam in lams[part]]))
            seen.append((part, a.base, a.__array_interface__["data"][0]))
            return stage(part, a)

        return driver(t, s, lams, live, spied)

    for module in (linalg, resolvent, criteria):
        monkeypatch.setattr(module, "chunked_stage", spying)
    return calls


def shifted_pencil():
    t = np.diag([1.0, 2.0, 3.0]) + 0.1 * np.triu(np.ones((3, 3)), 1)
    return Pencil(t, np.eye(3))


def run_axioms(p, grid):
    check_resolvent_axioms(build_family(p, mp_inverse(p.t)), grid)


def run_invertibility(p, grid):
    invertibility_corollary(p.t, grid)


def run_continuity(p, grid):
    continuity_check(p, {lam: pinv_matrix(p.at(lam)) for lam in grid.points}, grid)


def run_scan(p, grid):
    generalized_spectrum_scan(p, grid.points)


def run_existence(p, grid):
    existence_check(build_family(p, mp_inverse(p.t)), grid)


def run_direct_sums(p, grid):
    direct_sum_criteria(build_family(p, mp_inverse(p.t)), grid)


# each stage with the live-matrix counts of its driver calls, in call order,
# and whether it runs the full-rank screen, which only solve_stack does
STAGE_RUNS = [
    pytest.param(lambda: pencil_for(3, 3, False), run_axioms, [5], True, id="resolvent-axioms"),
    pytest.param(lambda: pencil_for(3, 3, False), mp_resolvent_characterization, [7], False,
                 id="mp-characterization"),
    pytest.param(shifted_pencil, run_invertibility, [7, 4], True, id="invertibility"),
    # continuity_check ends with existence_check, a rank pass with one product
    pytest.param(lambda: pencil_for(3, 3, False), run_continuity, [6, 2], False, id="continuity"),
    # a rank pass without a product: one matrix per member, never screened
    pytest.param(shifted_pencil, lambda p, grid: finite_rank_criterion(p, grid).profile, [1],
                 False, id="rank-profile"),
    pytest.param(shifted_pencil, run_scan, [1], False, id="spectrum-scan"),
    pytest.param(lambda: pencil_for(3, 3, False), run_existence, [2], False, id="existence"),
    pytest.param(lambda: pencil_for(3, 3, False), run_direct_sums, [3], False, id="direct-sums"),
]


# BUDGETS cut a 3 x 3 pencil's 60 points into chunks of 1 to 5 points or all
# 60 at these live counts. The last cuts chunks of 18, 22, 26, 33 and 44
# points for 7, 6, 5, 4 and 3 matrices, all 60 at once for 2, and other
# lengths for every live count one off from those.
@pytest.mark.parametrize("chunk_bytes", BUDGETS + [132 * 16 * 3 ** 2])
@pytest.mark.parametrize("make,run,lives,screens", STAGE_RUNS)
def test_stages_receive_their_chunks_in_one_workspace(make, run, lives, screens, chunk_bytes,
                                                      monkeypatch):
    """Each stage is handed the slices linalg.chunks cuts for its own live
    count, and every stack of one pass is a view of the same workspace. The
    full-rank cover is switched off, so a pass without a product ranks
    every point, and never screens a chunk (the cover, and the rank pass
    after it, are checked in test_full_rank_cover.py)."""
    p = make()
    grid = grid_for(p, 60)
    monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(linalg, "full_rank_cover",
                        lambda t, s, lams, tol: np.zeros(len(lams), dtype=bool))
    calls = stage_spy(monkeypatch, p)
    screened = []
    certified = linalg._full_rank_certified

    def spying(stack, tol):
        screened.append(len(stack))
        return certified(stack, tol)

    monkeypatch.setattr(linalg, "_full_rank_certified", spying)
    run(p, grid)
    assert len(calls) == len(lives)
    for (count, shape, seen), live in zip(calls, lives):
        assert (count, shape) == (len(grid.points), p.shape)
        parts = linalg.chunks(count, live * 16 * max(shape) ** 2)
        assert [part for part, _, _ in seen] == list(parts)
        assert seen[0][1] is not None
        assert all(base is seen[0][1] for _, base, _ in seen)
        assert len({address for _, _, address in seen}) == 1
    assert bool(screened) == screens


# --- the stacked solve -----------------------------------------------------------


def singular_stack():
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    stack[2, :, 3] = stack[2, :, 0]
    stack[4] = 0.0
    return stack, rng.standard_normal((4, 3)) + 0j


def test_singular_point_raises_the_per_point_message():
    stack, b = singular_stack()
    messages = [singular_message(a) for a in stack]
    first = next(message for message in messages if message is not None)
    assert messages.index(first) == 2
    with pytest.raises(SingularSystemError) as raised:
        solve_stack(stack, b)
    assert str(raised.value) == first


def test_regular_stacks_solve_like_one_matrix_at_a_time():
    stack, b = singular_stack()
    regular = np.delete(stack, [2, 4], axis=0)
    x = solve_stack(regular, b)
    for k, a in enumerate(regular):
        assert np.array_equal(x[k], np.linalg.solve(copy(a), b))
    # k == n == r: a shared square right-hand side, not a stack of k vectors.
    square = np.random.default_rng(12).standard_normal((4, 4)) + 0j
    assert regular.shape == (4, 4, 4)
    x = solve_stack(regular, square)
    assert x.shape == (4, 4, 4)
    for k, a in enumerate(regular):
        assert np.array_equal(x[k], np.linalg.solve(copy(a), square))


def test_stacked_solve_passes_the_right_hand_side_as_a_stack(monkeypatch):
    # NumPy before 2.0 reads a b of one dimension less than a as a stack of
    # vectors; a b of a's rank means the same on every NumPy version.
    ranks = []
    plain = np.linalg.solve

    def solve(a, b):
        ranks.append((a.ndim, b.ndim))
        return plain(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    stack, b = singular_stack()
    regular = np.delete(stack, [2, 4], axis=0)
    solve_stack(regular, b)
    linalg.solve(regular[0], b)
    assert ranks == [(3, 3)] * 2
