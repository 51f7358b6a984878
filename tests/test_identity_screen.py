"""The screened resolvent-identity and axiom maxima against plain loops.

The screen must return exactly what checking every pair with its own
spectral norm returns: the same maximum (compared with ==) and the same
first maximizing pair, whether the family comes as one (k, n, m) stack or
as a list and the pairs as a (P, 2) array or as tuples, and for every chunk
budget. Both stages run the pairwise screen only where their per-point
identity bound exceeds residual_tol (``tests/test_identity_bound.py``), so
their tests here ask for a residual_tol no bound meets. Under that
tolerance the MP stage's axiom maximum runs on the same screen and must
equal the maximum of the four Moore-Penrose residuals taken point by
point; at the default tolerance its bound decides. Count
gates cap the SVD calls, and the matrices they factor, that the two
pairwise stages spend on a small seeded pencil and the MP stage spends at
n=50; later changes may only lower their bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from genresolvent import (
    Pencil,
    build_family,
    check_resolvent_axioms,
    default_grid,
    evaluate,
    mp_inverse,
    mp_resolvent_characterization,
    pinv_matrix,
    relative_residual,
)
from genresolvent import DEFAULT_TOL, linalg
from genresolvent.resolvent import max_identity_residual, pair_indices
from helpers import EXACT, framed_pencil, reference_identity_max

CASES = [
    (m, n, switched, points)
    for m, n in ((4, 4), (3, 5), (6, 3))
    for switched in (False, True)
    for points in (25, 60)
]


def reference_axiom_maxima(p, points):
    """The per-point loop the axiom screen replaces: four residuals, each with
    two norms, at every point. Returns the maximum of each axiom, in the order
    inner, outer, p-Hermitian, q-Hermitian."""
    best = [0.0] * 4
    for lam in points:
        a = p.at(lam)
        b = pinv_matrix(a)
        pp, q = a @ b, b @ a
        residuals = (
            relative_residual(pp @ a - a, a),
            relative_residual(q @ b - b, b),
            relative_residual(pp - pp.conj().T, pp),
            relative_residual(q - q.conj().T, q),
        )
        best = [max(old, new) for old, new in zip(best, residuals)]
    return best


def pencil_for(m, n, switched, seed=0):
    rng = np.random.default_rng([seed, m, n, int(switched)])
    return framed_pencil(rng, m, n, min(m, n) - 1, switched=switched)


@pytest.mark.parametrize("m,n,switched,points", CASES)
def test_axiom_stage_matches_reference(m, n, switched, points):
    """The exact pairwise path of the axiom stage, which decides the identity
    wherever its per-point bound exceeds residual_tol: here always."""
    p = pencil_for(m, n, switched)
    family = build_family(p, mp_inverse(p.t))
    report = check_resolvent_axioms(family, default_grid(family.radius / 2, points), EXACT)
    values = [evaluate(family, lam) for lam in report.points]
    best, worst = reference_identity_max(
        p.s, family.g.tplus, values, report.points, pair_indices(len(report.points))
    )
    assert report.identity_method == "pairs"
    assert report.max_identity_residual == best
    assert report.worst_pair == (report.points[worst[0]], report.points[worst[1]])


@pytest.mark.parametrize("m,n,switched,points", CASES)
def test_mp_stage_matches_reference(m, n, switched, points):
    """The exact pairwise path of the MP stage, which decides the identity
    wherever its per-point bound exceeds residual_tol: here always. The
    axiom maximum does not depend on the tolerance."""
    p = pencil_for(m, n, switched)
    grid = default_grid(build_family(p, mp_inverse(p.t)).radius / 2, points)
    report = mp_resolvent_characterization(p, grid, EXACT)
    pinvs = [pinv_matrix(p.at(lam)) for lam in grid.points]
    pairs = pair_indices(len(grid.points))
    expected = reference_identity_max(p.s, pinvs[0], pinvs, grid.points, pairs)
    assert report.identity_method == "pairs"
    assert report.max_identity_residual == expected[0]
    assert max_identity_residual(p.s, pinvs[0], pinvs, grid.points, pairs) == expected
    assert report.max_axiom_residual == max(reference_axiom_maxima(p, grid.points))


@pytest.mark.parametrize("switched", [False, True])
def test_chunking_does_not_change_the_result(monkeypatch, switched):
    """Budgets of one pair per chunk up to the default; chunks of 2 to 26
    pairs cut the runs of 25 pairs that share a first index at every offset,
    so G_i @ s is carried into the next chunk, or not, both ways. The axiom
    stage, on its exact pairwise path, chunks its grid by the same budget."""
    p = pencil_for(5, 4, switched, seed=1)
    family = build_family(p, mp_inverse(p.t))
    for points in (25, 60):
        grid = default_grid(family.radius / 2, points)
        values = np.stack([evaluate(family, lam) for lam in grid.points])
        pairs = pair_indices(len(grid.points))
        expected = reference_identity_max(p.s, family.g.tplus, values, grid.points, pairs)
        worst_pair = (grid.points[expected[1][0]], grid.points[expected[1][1]])
        per_pair = 6 * 16 * 4 * 5
        budgets = [1, values[0].nbytes] + [k * per_pair for k in (2, 3, 7, 24, 25, 26, 100)]
        for budget in budgets + [linalg.CHUNK_BYTES]:
            monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
            got = max_identity_residual(p.s, family.g.tplus, values, grid.points, pairs)
            assert got == expected, budget
            report = check_resolvent_axioms(family, grid, EXACT)
            assert (report.max_identity_residual, report.worst_pair) == (expected[0], worst_pair)


@pytest.mark.parametrize("switched", [False, True])
def test_stack_and_list_families_agree(switched):
    p = pencil_for(4, 6, switched, seed=3)
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(family.radius / 2, 25)
    stack = np.stack([evaluate(family, lam) for lam in grid.points])
    array_pairs = pair_indices(len(grid.points))
    assert isinstance(array_pairs, np.ndarray) and array_pairs.shape == (600, 2)
    tuple_pairs = [(int(i), int(j)) for i, j in array_pairs]
    expected = reference_identity_max(p.s, family.g.tplus, list(stack), grid.points, tuple_pairs)
    assert expected[1] is not None
    for values in (stack, list(stack)):
        for pairs in (array_pairs, tuple_pairs):
            for points in (grid.points, np.array(grid.points)):
                got = max_identity_residual(p.s, family.g.tplus, values, points, pairs)
                assert got == expected
                assert type(got[1][0]) is int and type(got[1][1]) is int


@pytest.mark.parametrize("switched", [False, True])
def test_subsampled_pairs_keep_the_first_maximizing_pair(switched):
    """At 60 points the pairs are a pseudorandom sample in no order of first
    index; of two exactly tied pairs the one first in pairs order is reported."""
    p = pencil_for(6, 5, switched, seed=4)
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(family.radius / 2, 60)
    values = np.stack([evaluate(family, lam) for lam in grid.points])
    pairs = pair_indices(len(grid.points))
    assert np.any(np.diff(pairs[:, 0]) < 0)
    expected = reference_identity_max(p.s, family.g.tplus, values, grid.points, pairs)
    assert max_identity_residual(p.s, family.g.tplus, values, grid.points, pairs) == expected
    # a copy of point j as index 60 ties the pair (i, 60) with (i, j) exactly
    i, j = expected[1]
    assert i != j
    values = np.concatenate([values, values[j][None]])
    points = grid.points + (grid.points[j],)
    first = pairs.tolist().index([i, j])
    for at, reported in ((first, (i, 60)), (first + 1, (i, j))):
        tied = np.insert(pairs, at, (i, 60), axis=0)
        got = max_identity_residual(p.s, family.g.tplus, values, points, tied)
        assert got == reference_identity_max(p.s, family.g.tplus, values, points, tied)
        assert got == (expected[0], reported)


@pytest.mark.parametrize("points", [1, 25, 60])
def test_pair_indices_drop_only_pairs_that_cannot_be_the_worst(points):
    """The pairs (i, i) and repeated draws are left out of every ordered pair
    (up to 40 points) or of the 1600 pseudorandom draws of default_rng(0)
    (beyond), the rest kept in order; over the full list the maximum and
    first maximizing pair are the same."""
    if points <= 40:
        drawn = [(i, j) for i in range(points) for j in range(points)]
    else:
        drawn = np.random.default_rng(0).integers(0, points, size=(1600, 2)).tolist()
    kept = list(dict.fromkeys((i, j) for i, j in drawn if i != j))
    pairs = pair_indices(points)
    assert pairs.shape == (len(kept), 2)
    assert [tuple(pair) for pair in pairs.tolist()] == kept
    p = pencil_for(4, 5, True, seed=5)
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(family.radius / 2, points)
    values = [evaluate(family, lam) for lam in grid.points]
    expected = reference_identity_max(p.s, family.g.tplus, values, grid.points, drawn)
    assert max_identity_residual(p.s, family.g.tplus, values, grid.points, pairs) == expected


def test_zero_s_has_no_worst_pair():
    p = Pencil(np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3)))
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(1.0, 25)
    report = check_resolvent_axioms(family, grid)
    assert report.max_identity_residual == 0.0
    assert report.worst_pair is None
    assert mp_resolvent_characterization(p, grid).max_identity_residual == 0.0


def test_tiny_deviations_are_not_screened_out():
    # entries near 1e-160 square below the double range in a plain Gram product
    p = pencil_for(4, 4, True, seed=2)
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(family.radius / 2, 9)
    values = [1e-160 * evaluate(family, lam) for lam in grid.points]
    pairs = pair_indices(len(grid.points))
    expected = reference_identity_max(p.s, family.g.tplus, values, grid.points, pairs)
    assert expected[0] > 0.0
    assert max_identity_residual(p.s, family.g.tplus, values, grid.points, pairs) == expected


@pytest.mark.parametrize("scale,axiom", [(1e-160, 0), (1e150, 1)])
def test_tiny_axiom_deviations_are_not_screened_out(scale, axiom):
    # scaled by 1e-160 the inner deviations p t - t, and scaled by 1e150 the
    # outer deviations q b - b, sit near 1e-176 and 1e-166: they square below
    # the double range in a plain Gram product. On this pencil the maximum
    # sits on that axiom at either scale.
    p = pencil_for(4, 4, False, seed=1)
    p = Pencil(scale * p.t, scale * p.s)
    grid = default_grid(build_family(p, mp_inverse(p.t)).radius / 2, 9)
    maxima = reference_axiom_maxima(p, grid.points)
    assert max(maxima) == maxima[axiom] > 0.0
    exact = mp_resolvent_characterization(p, grid, EXACT)
    assert (exact.max_axiom_residual, exact.axiom_method) == (maxima[axiom], "exact")
    # nor does the bound that decides at the default tolerance lose them
    bounded = mp_resolvent_characterization(p, grid)
    assert bounded.axiom_method == "bound"
    assert maxima[axiom] <= bounded.max_axiom_residual <= DEFAULT_TOL.residual_tol


@pytest.fixture
def svds(monkeypatch):
    """numpy.linalg.svd calls and the matrices they factor."""
    counts = {"calls": 0, "matrices": 0}
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        counts["calls"] += 1
        counts["matrices"] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return counts


@pytest.mark.parametrize("switched", [False, True])
def test_svd_count_gate(svds, switched):
    """SVDs per pairwise stage on the seeded n=6 pencil (1350 and 1550 per-pair).

    A call on a (k, m, n) stack factors k matrices. The per-point code
    factored 128 / 127 matrices in the axiom stage and 276 / 291 in the MP
    stage, which now screens its axiom residuals too (78 / 93).
    """
    p = framed_pencil(np.random.default_rng(6), 6, 6, 3, switched=switched)
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(family.radius / 2, 25)
    svds.update(calls=0, matrices=0)
    check_resolvent_axioms(family, grid)
    axioms = dict(svds)
    svds.update(calls=0, matrices=0)
    mp_resolvent_characterization(p, grid)
    assert axioms["calls"] <= 20
    assert axioms["matrices"] <= 128
    assert svds["calls"] <= 23
    assert svds["matrices"] <= 93


def test_mp_stage_count_gate_at_n50(svds):
    """The MP stage of an n=50 pencil factors 1 + 25 points, takes 50 gap
    norms and 1 scale norm, and factors the few screened candidates: 96
    matrices, against 276 with an exact norm of every axiom residual."""
    p = framed_pencil(np.random.default_rng(1), 50, 50, 25)
    grid = default_grid(build_family(p, mp_inverse(p.t)).radius / 2, 25)
    svds.update(calls=0, matrices=0)
    mp_resolvent_characterization(p, grid)
    assert svds["matrices"] <= 100
