"""The identity decision's exact pairs and the axiom maxima against plain loops.

Where the per-point identity bound exceeds residual_tol
(``tests/test_identity_bound.py``), the decision forms the deviations of
the pairs through lam = 0 and must return exactly what checking each of
them with its own spectral norm returns: the same maximum (compared with
==) and the same first maximizing pair in row-major order, for every chunk
budget. Where those pass, it must decide every other pair the bound leaves
undecided: a passing value at least every pair's residual, a failing one
the exact maximum over every ordered pair. The tests of the exact paths ask
for a residual_tol no bound meets. Under that tolerance the MP stage's
axiom maximum runs on the shared screen of :mod:`linalg` and must equal the
maximum of the four Moore-Penrose residuals taken point by point; at the
default tolerance its bound decides. Count gates cap the SVD calls, and the
matrices they factor, that the two stages spend on a small seeded pencil
and the MP stage spends at n=50; later changes may only lower their bounds.
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
from genresolvent.identity import decide_identity
from helpers import (
    EXACT,
    framed_pencil,
    ordered_pairs,
    rank_coordinates,
    rank_point,
    reference_identity_max,
)

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


def rank_family(family, points):
    """s' and the members M(lam) on which the axiom stage decides the
    identity of analyze's explicit family, point by point."""
    c = rank_coordinates(family)
    return c["s_prime"], [rank_point(c, lam, family.pencil.at(lam))[1] for lam in points]


def pencil_for(m, n, switched, seed=0):
    rng = np.random.default_rng([seed, m, n, int(switched)])
    return framed_pencil(rng, m, n, min(m, n) - 1, switched=switched)


@pytest.mark.parametrize("m,n,switched,points", CASES)
def test_axiom_stage_matches_reference(m, n, switched, points):
    """The exact path of the axiom stage, which decides the identity wherever
    its per-point bound exceeds residual_tol: here always, and the pairs
    through lam = 0 fail it."""
    p = pencil_for(m, n, switched)
    family = build_family(p, mp_inverse(p.t))
    report = check_resolvent_axioms(family, default_grid(family.radius / 2, points), EXACT)
    s_prime, values = rank_family(family, report.points)
    best, worst = reference_identity_max(
        s_prime, values[0], values, report.points, ordered_pairs(len(report.points), 0)
    )
    assert report.identity_method == "pairs"
    assert report.max_identity_residual == best
    assert report.worst_pair == (report.points[worst[0]], report.points[worst[1]])


@pytest.mark.parametrize("m,n,switched,points", CASES)
def test_mp_stage_matches_reference(m, n, switched, points):
    """The exact path of the MP stage, which decides the identity wherever its
    per-point bound exceeds residual_tol: here always. The axiom maximum
    does not depend on the tolerance."""
    p = pencil_for(m, n, switched)
    grid = default_grid(build_family(p, mp_inverse(p.t)).radius / 2, points)
    report = mp_resolvent_characterization(p, grid, EXACT)
    pinvs = [pinv_matrix(p.at(lam)) for lam in grid.points]
    expected = reference_identity_max(p.s, pinvs[0], pinvs, grid.points, ordered_pairs(points, 0))
    assert report.identity_method == "pairs"
    assert report.max_identity_residual == expected[0]
    lams = np.array(grid.points)
    assert decide_identity(p.s, np.stack(pinvs), lams, EXACT) == (*expected[:1], "pairs", expected[1])
    assert report.max_axiom_residual == max(reference_axiom_maxima(p, grid.points))


@pytest.mark.parametrize("m,n,switched,points", CASES)
def test_pairs_the_bound_leaves_undecided_are_decided(m, n, switched, points):
    """At (1 - 1e-9) of the disk's radius the outer ring's margins are not
    positive, so the bound leaves every pair through it undecided, while the
    explicit family meets the identity to rounding. Those pairs are decided
    all the same: the value is at least every ordered pair's residual, and
    the verdict is the one every pair gives."""
    p = pencil_for(m, n, switched)
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(family.radius * (1 - 1e-9), points)
    report = check_resolvent_axioms(family, grid)
    s_prime, values = rank_family(family, grid.points)
    best, _ = reference_identity_max(s_prime, values[0], values, grid.points, ordered_pairs(points))
    assert report.identity_method == "pairs"
    assert report.max_identity_residual >= best
    tol = DEFAULT_TOL.residual_tol
    assert (report.max_identity_residual <= tol) == (best <= tol)
    assert report.worst_pair is None


@pytest.mark.parametrize("points", [25, 60])
def test_a_pair_away_from_zero_fails_with_the_maximum_over_every_pair(points):
    """t = diag(1/3 + 1e-6, 2.5, -2.5i, 3), s = I on the grid of radius
    0.3333333, just inside lam = 1/3 + 1e-6: the pairs through lam = 0 meet
    the identity to rounding, but pairs of points near 1/3, where ||G|| is
    about 1e6, miss it against ||G_0||. Only the pairs the bound leaves
    undecided can show that, and their exact maximum is the maximum over
    every ordered pair, named by its first pair in row-major order."""
    p = Pencil(np.diag([1 / 3 + 1e-6, 2.5, -2.5j, 3.0]), np.eye(4))
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(0.3333333, points)
    report = check_resolvent_axioms(family, grid)
    s_prime, values = rank_family(family, grid.points)
    zero = reference_identity_max(s_prime, values[0], values, grid.points, ordered_pairs(points, 0))
    best, worst = reference_identity_max(
        s_prime, values[0], values, grid.points, ordered_pairs(points)
    )
    assert zero[0] <= DEFAULT_TOL.residual_tol < best
    assert report.identity_method == "pairs"
    assert report.max_identity_residual == best
    assert report.worst_pair == (grid.points[worst[0]], grid.points[worst[1]])


@pytest.mark.parametrize("switched", [False, True])
def test_chunking_does_not_change_the_result(monkeypatch, switched):
    """Budgets of one pair per chunk up to the default; chunks of 2 to 26
    pairs cut the 2 (k - 1) pairs through lam = 0, whose first index is 0
    for the first k - 1 of them and then runs through every other point, at
    every offset. The boundary grid decides its undecided pairs in chunks of
    the same budget. The axiom stage, on its exact path, chunks its grid by
    the same budget."""
    p = pencil_for(5, 4, switched, seed=1)
    family = build_family(p, mp_inverse(p.t))
    # the identity is decided on analyze's r x r family, r = 3 here
    per_pair = 6 * 16 * 3 * 3
    for points in (25, 60):
        grid = default_grid(family.radius / 2, points)
        boundary = default_grid(family.radius * (1 - 1e-9), points)
        lams = np.array(grid.points)
        s_prime, values = rank_family(family, grid.points)
        values = np.stack(values)
        assert values.shape[1:] == (3, 3)
        expected = reference_identity_max(s_prime, values[0], values, grid.points,
                                          ordered_pairs(points, 0))
        worst_pair = (grid.points[expected[1][0]], grid.points[expected[1][1]])
        at_boundary = check_resolvent_axioms(family, boundary)
        budgets = [1, values[0].nbytes] + [k * per_pair for k in (2, 3, 7, 24, 25, 26, 100)]
        for budget in budgets + [linalg.CHUNK_BYTES]:
            monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
            assert decide_identity(s_prime, values, lams, EXACT) == (expected[0], "pairs", expected[1])
            report = check_resolvent_axioms(family, grid, EXACT)
            assert (report.max_identity_residual, report.worst_pair) == (expected[0], worst_pair)
            assert check_resolvent_axioms(family, boundary) == at_boundary


@pytest.mark.parametrize("switched", [False, True])
def test_tied_pairs_report_the_first_in_row_major_order(switched):
    """A copy of the worst pair's member away from lam = 0 ties the pair
    through its copy with the worst pair exactly; of the two, the one first
    in row-major order of the indices is reported, whether the copy comes
    before or after the original."""
    p = pencil_for(6, 5, switched, seed=4)
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(family.radius / 2, 60)
    values = np.stack([evaluate(family, lam) for lam in grid.points])
    lams = np.array(grid.points)
    best, (i, j) = decide_identity(p.s, values, lams, EXACT)[::2]
    member = j if i == 0 else i
    assert member != 0
    for at in (1, len(lams)):
        tied_values = np.insert(values, at, values[member], axis=0)
        tied_lams = np.insert(lams, at, lams[member])
        original = member + (at <= member)
        copy_pair = (0, at) if i == 0 else (at, 0)
        original_pair = (0, original) if i == 0 else (original, 0)
        expected = min(copy_pair, original_pair)
        assert decide_identity(p.s, tied_values, tied_lams, EXACT) == (best, "pairs", expected)


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
    values = np.stack([1e-160 * evaluate(family, lam) for lam in grid.points])
    expected = reference_identity_max(p.s, values[0], values, grid.points, ordered_pairs(9, 0))
    assert expected[0] > 0.0
    decided = decide_identity(p.s, values, np.array(grid.points), DEFAULT_TOL)
    assert decided == (expected[0], "pairs", expected[1])


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
    """SVDs per grid stage on the seeded n=6 pencil (1350 and 1550 per-pair).

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
