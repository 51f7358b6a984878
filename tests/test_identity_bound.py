"""The resolvent-identity bound against the pairs it covers.

``check_resolvent_axioms`` and ``mp_resolvent_characterization`` decide the
identity G_i - G_j = (l_i - l_j) G_i S G_j on a bound built from per-point
residuals E_k = G_k (I - l_k C) - G_0 of the family they computed, anchored
at its member G_0 at lam = 0 (tplus for the explicit family). The bound must
be at least the residual of every ordered pair of usable points, each
deviation formed in extended precision from the same float64 G_k: for the
explicit family, accurate or with perturbed members, and for the pointwise
pseudoinverses, at extreme entry scales and close to the boundary of the
disk of convergence. Each report prints that bound whenever it was decided
on it. A family with one wrong member must fail. Where the bound exceeds
residual_tol (a grid reaching the boundary, a tiny tolerance) the stage
decides on exact pairs (``tests/test_identity_screen.py``): those through
lam = 0, then only those the bound leaves undecided.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genresolvent import (
    DEFAULT_TOL,
    DiskGrid,
    Pencil,
    TolerancePolicy,
    build_family,
    check_resolvent_axioms,
    default_grid,
    mp_inverse,
    op_norm2,
)
from genresolvent import criteria, identity, linalg, resolvent
from genresolvent.geninv import inverse_residuals
from genresolvent.linalg import NORM_BOUND_SLACK, NORM_FLOOR, norm_lower_bounds, op_norms2
from helpers import (
    complex_gaussian,
    framed_pencil,
    generic_full_pencil,
    ordered_pairs,
    rank_coordinates,
    rank_point,
    reference_identity_max,
    unitary,
)

# loose enough that the stage reports its bound wherever the bound is finite
LOOSE = TolerancePolicy(residual_tol=0.5)


def all_pairs_maximum(s, tplus, values, points) -> float:
    """max over every ordered pair of ||G_i - G_j - (l_i - l_j) G_i S G_j||_2 / ||T+||_2,
    each deviation formed in complex long double from the float64 family and
    rounded to complex128 only for its norm."""
    g = np.asarray(values).astype(np.clongdouble)
    k, n, m = g.shape
    if k < 2:
        return 0.0
    lams = np.asarray(points, dtype=np.complex128).astype(np.clongdouble)
    products = (g @ s.astype(np.clongdouble))[:, None] @ g[None, :]
    deviations = g[:, None] - g[None, :] - (lams[:, None] - lams[None, :])[:, :, None, None] * products
    norms = op_norms2(deviations.astype(np.complex128).reshape(k * k, n, m))
    return float(norms.max()) / max(op_norm2(tplus), NORM_FLOOR)


def margins_of(lams, st_norm) -> np.ndarray:
    """The identity bound's lower bounds on 1 - |l_k| ||s G_0||_2."""
    return 1.0 - np.abs(lams) * (st_norm * (1.0 + NORM_BOUND_SLACK))


def identity_bound(s, values, lams, st_norm=None) -> float:
    """The largest of the bounds the identity decision builds on the family
    values at lams, anchored at its member at lam = 0, inf where a point's
    margin is not positive; ||s G_0||_2 is taken here unless st_norm gives it.
    The bounds are relative to the scale the decision takes once, the lower
    bound on ||G_0||_2 floored at NORM_FLOOR, and are taken in one block of
    every row."""
    anchor = values[np.flatnonzero(lams == 0)[0]]
    st_plus = s @ anchor
    if st_norm is None:
        st_norm = op_norm2(st_plus)
    residuals = identity._solve_residual_bounds(s, anchor, st_plus, lams, values)
    scale = max(norm_lower_bounds(anchor[None])[0], NORM_FLOOR)
    bound_rows = identity._identity_bound(s, anchor, lams, margins_of(lams, st_norm), residuals, scale)
    return float(bound_rows(slice(None)).max(initial=0.0))


def recorded(perturb=None):
    """A patch of resolvent._solves that applies perturb(c, lams, n) to each
    chunk's r x r solutions N(lam) = (I_r - lam K)^-1, in place, and keeps
    every chunk it returned. The explicit family's identity is decided on
    M(lam) = 2^-e N(lam) Sigma_r with s' (resolvent.RankCoordinates), which
    :func:`family_values` rebuilds from them."""
    chunks = []
    solves = resolvent._solves

    def solving(c, lams, tol):
        n = np.array(solves(c, lams, tol))
        if perturb is not None:
            perturb(c, lams, n)
        chunks.append(n)
        return n

    return mock.patch.object(resolvent, "_solves", solving), chunks


def family_values(family, chunks):
    """The stack M = 2^-e N Sigma_r of the recorded chunks, as the stage forms it."""
    return np.concatenate(chunks) * family.coordinates.scale


@st.composite
def families(draw):
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["constant", "switched", "full"]))
    if kind == "full":
        p = generic_full_pencil(rng, m, n)
    else:
        switched = kind == "switched"
        p = framed_pencil(rng, m, n, draw(st.integers(0, min(m, n) - switched)), switched)
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150]))
    fraction = draw(st.sampled_from([0.1, 0.5, 0.9, 0.99]))
    points = draw(st.sampled_from([1, 2, 9, 25]))
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]))
    return Pencil(scale * p.t, scale * p.s), fraction, points, noise, seed


@settings(max_examples=60, deadline=None)
@given(families())
def test_bound_covers_every_ordered_pair(case):
    p, fraction, points, noise, seed = case
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(min(family.radius * fraction, 1e6), points)
    rng = np.random.default_rng(seed)
    c = family.coordinates

    def perturb(c, lams, n):
        # N(0) = I: noise relative to the anchor, as for G(0) = tplus
        n += noise * complex_gaussian(rng, n.shape)

    patch, chunks = recorded(perturb)
    with patch:
        report = check_resolvent_axioms(family, grid, LOOSE)
    values = family_values(family, chunks)
    lams = np.array(report.points, dtype=np.complex128)
    anchor = values[np.flatnonzero(lams == 0)[0]]
    if noise == 0.0:
        assert np.array_equal(anchor, np.diag(c.scale))
    bound = identity_bound(c.s_prime, values, lams, c.st_bound)
    assert bound >= all_pairs_maximum(c.s_prime, anchor, values, report.points)
    if report.identity_method == "bound":
        assert report.max_identity_residual == bound
        assert report.worst_pair is None
    if noise == 0.0 and fraction <= 0.5:
        assert report.identity_method == "bound"
        assert bound <= 1e-10


@settings(max_examples=60, deadline=None)
@given(families())
def test_bound_covers_every_ordered_pair_of_pseudoinverses(case):
    """mp-check's family (t - lam s)^+, anchored at t^+ = G_0: its residuals
    E_k are the deviations of the pairs (k, 0), and the bound built from
    them covers every pair."""
    p, fraction, points, _, _ = case
    radius = build_family(p, mp_inverse(p.t)).radius
    grid = default_grid(min(radius * fraction, 1e6), points)
    report, pinvs = criteria._mp_characterization(p, grid, LOOSE)
    lams = np.array(grid.points, dtype=np.complex128)
    bound = identity_bound(p.s, pinvs, lams)
    assert bound >= all_pairs_maximum(p.s, pinvs[grid.points.index(0)], pinvs, grid.points)
    if report.identity_method == "bound":
        assert report.max_identity_residual == bound


def test_bound_is_attained_by_aligned_residuals():
    """T = I and S with eigenvalues 1 and -1 (eigenvectors w+, w-) on C^2, on
    a grid of radius 1/2. G at l = -1/2 and at l = 1/2 is perturbed so that
    its solve residual is +eps and -eps times w- w+^H. Then every inequality
    behind the bound is an equality for that pair: ||D|| = 2 eps /
    (1 - 1/2)^2. Only the Schatten-4 bounds of ||T+||_2 and ||S||_2 (each
    2^(1/4), two equal singular values) widen it, to (2 + 2 sqrt(2)) / 4 of
    ||D||. Dropping any term of the bound or any factor 1 / (1 - |l| ||C||)
    takes it below ||D||."""
    frame = unitary(np.random.default_rng(7), 2)
    p = Pencil(np.eye(2), (frame * np.array([1.0, -1.0])) @ frame.conj().T)
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(0.5, 25)
    c = family.coordinates
    # the eigenvectors of K = X^H S X, T+ = I being X X^H
    plus, minus = c.x.conj().T @ frame[:, 0], c.x.conj().T @ frame[:, 1]
    eps = 1e-8

    def align(c, lams, n):
        for k, lam in enumerate(lams):
            # -1/2 is 0.5 * exp(i pi), off the real axis by a rounding
            if abs(abs(lam) - 0.5) < 1e-12 and abs(lam.imag) < 1e-12:
                a_inverse = np.linalg.inv(np.eye(2) - lam * c.k)
                n[k] -= np.sign(lam.real) * eps * np.outer(minus, plus.conj()) @ a_inverse

    patch, chunks = recorded(align)
    with patch:
        report = check_resolvent_axioms(family, grid, LOOSE)
    values = family_values(family, chunks)
    exact = all_pairs_maximum(c.s_prime, values[0], values, report.points)
    assert exact == pytest.approx(2 * eps / 0.25, rel=1e-6)
    assert report.identity_method == "bound"
    assert exact <= report.max_identity_residual <= 1.25 * exact


def test_constant_family_has_bound_zero():
    """S = 0: every G_k is T+ exactly, so every residual and the bound are 0."""
    p = Pencil(np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3)))
    report = check_resolvent_axioms(build_family(p, mp_inverse(p.t)), default_grid(1.0, 25))
    assert (report.identity_method, report.max_identity_residual) == ("bound", 0.0)


def seeded(switched=False):
    p = framed_pencil(np.random.default_rng(21), 6, 5, 3, switched=switched)
    family = build_family(p, mp_inverse(p.t))
    return p, family, default_grid(family.radius / 2, 25)


@pytest.mark.parametrize("switched", [False, True])
def test_accurate_family_is_decided_by_the_bound(switched):
    _, family, grid = seeded(switched)
    report = check_resolvent_axioms(family, grid)
    assert report.identity_method == "bound"
    assert 0.0 < report.max_identity_residual <= 1e-12
    assert report.worst_pair is None


def test_one_perturbed_member_fails():
    p, family, grid = seeded()
    target = grid.points[11]

    def perturb(c, lams, n):
        for k in np.flatnonzero(lams == target):
            n[k] += 1e-6 * complex_gaussian(np.random.default_rng(3), n[k].shape)

    patch, chunks = recorded(perturb)
    with patch:
        report = check_resolvent_axioms(family, grid)
    assert not report.ok
    assert report.identity_method == "pairs"
    assert report.max_identity_residual > 1e-8
    assert target in report.worst_pair
    # the pairs are checked on the family the bound was built from, not a second solve
    assert sum(map(len, chunks)) == len(report.points)


def test_tilted_member_fails_on_the_identity_alone():
    """One member replaced by another reflexive generalized inverse of
    t - lam s, G1 A G2 for inner inverses G1 = G + (I - G A) Y and
    G2 = G + Z (I - A G): both axioms still hold there, only the identity
    fails. Such a member leaves R(X) and N(Y^H), which every member
    X N Y^H of the axiom stage keeps, so the tilted family of
    G(lam) = X N(lam) Y^H is handed to the identity decision itself, with
    the family's ||s tplus||_2, as mp-check hands it a family of its own."""
    p, family, grid = seeded()
    target = grid.points[5]
    m, n = p.shape
    values = np.stack([resolvent.evaluate(family, lam) for lam in grid.points])
    k = grid.points.index(target)
    rng = np.random.default_rng(4)
    a, g = p.at(target), values[k]
    first = g + (np.eye(n) - g @ a) @ complex_gaussian(rng, (n, m))
    second = g + complex_gaussian(rng, (n, m)) @ (np.eye(m) - a @ g)
    values[k] = first @ a @ second
    inner, outer, _ = inverse_residuals(a[None], values[k : k + 1])
    assert max(inner[0], outer[0]) <= 1e-12
    assert check_resolvent_axioms(family, grid).ok
    lams = np.array(grid.points)
    value, method, worst = identity.decide_identity(p.s, values, lams, DEFAULT_TOL, family.st_norm)
    assert not value <= DEFAULT_TOL.residual_tol
    assert method == "pairs"
    assert value > 1e-3
    assert k in worst


@pytest.mark.parametrize("switched", [False, True])
@pytest.mark.parametrize("points", [25, 60])
def test_grid_at_the_disk_boundary_takes_the_exact_pairs(switched, points):
    """At |l| = (1 - 1e-9) / ||s tplus||, within the widening of ||s tplus||,
    the outer ring's margins are not positive, so no pair through it has a
    bound. The stage decides the pairs through lam = 0 and then exactly the
    pairs through a point without a margin: every other pair keeps the
    bound of the per-point pass, which runs once. The value covers every
    ordered pair."""
    p, family, _ = seeded(switched)
    grid = default_grid(family.radius * (1 - 1e-9), points)
    decided = []
    pairs_maximum = identity._pairs_maximum

    def recording(s, g, lams, pairs, scale, limit):
        decided.append([tuple(pair) for pair in pairs.tolist()])
        return pairs_maximum(s, g, lams, pairs, scale, limit)

    with mock.patch.object(
        identity, "_solve_residual_bounds", wraps=identity._solve_residual_bounds
    ) as residuals, mock.patch.object(identity, "_pairs_maximum", recording):
        report = check_resolvent_axioms(family, grid)
    assert residuals.call_count >= 1
    assert report.points == grid.points
    assert report.identity_method == "pairs"
    lams = np.array(grid.points)
    c = family.coordinates
    outside = np.flatnonzero(~(margins_of(lams, c.st_bound) > 0.0))
    assert len(outside) == (8 if points == 25 else 3)
    undecided = [(i, j) for i, j in ordered_pairs(points) if 0 not in (i, j)
                 and (i in outside or j in outside)]
    assert decided == [ordered_pairs(points, 0), undecided]
    reference = rank_coordinates(family)
    values = [rank_point(reference, lam, p.at(lam))[1] for lam in grid.points]
    best, _ = reference_identity_max(c.s_prime, values[0], values, grid.points, ordered_pairs(points))
    assert best <= report.max_identity_residual <= 1e-10
    assert report.worst_pair is None


def test_skipped_points_are_outside_the_bound():
    """Points outside the disk are skipped, not bounded: the bound covers the
    usable points and the verdict fails on the skipped ones."""
    _, family, _ = seeded()
    grid = DiskGrid(family.radius * 1.5, [0, family.radius * 0.25, family.radius * 1.5])
    report = check_resolvent_axioms(family, grid)
    assert report.skipped == (family.radius * 1.5 + 0j,)
    assert report.identity_method == "bound"
    assert not report.ok


def test_a_deciding_bound_keeps_memory_flat_in_grid_size():
    """The decision takes the bound's maximum block by block of rows, and
    forms the (k, k) array of every pair only where that maximum exceeds
    residual_tol. On 1500 points, every member diag(0.5, 0.25) and s = 0,
    every bound is 0 and decides, and the traced peak stays under four
    chunk budgets, where one float (k, k) array alone takes 18 MB."""
    lams = np.array(default_grid(0.5, 1500).points)
    values = np.repeat(np.diag([0.5, 0.25]).astype(np.complex128)[None], len(lams), axis=0)
    s = np.zeros((2, 2), dtype=np.complex128)
    tracemalloc.start()
    try:
        decided = identity.decide_identity(s, values, lams, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decided == (0.0, "bound", None)
    assert peak < 4 * linalg.CHUNK_BYTES
