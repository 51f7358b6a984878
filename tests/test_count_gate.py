"""SVD count gate for the per-point stages and whole commands.

A stage that needs bases of each grid point's kernel or range should cost
one full SVD (compute_uv true) per point, shared by every view it needs,
plus one per fixed operator; the points of a chunk share one batched call.
The subspace criteria need no per-point bases: they compare values-only
ranks, so their only full SVD is of one fixed operator. Calls and factored
matrices are counted apart, so batching cannot hide work: a call on a
(k, m, n) stack factors k matrices. The pencil is the seeded n=6 one of
``test_svd_count_gate``: rank 3, 25 grid points, constant and switched
support. Later changes may only lower these bounds. The spectrum scan
takes its ranks from ``linalg.grid_ranks``, the one rank pass: the
full-rank cover proves full rank box by box, single points included, one
Cholesky factorization per box, and the pass takes the SVD of the points
the cover leaves out, in chunks of one matrix per member, never screened.
The cover starts when one of its probes passes, the full-rank screen of
the first point alone, else of the last: on a pencil singular at every
lam those two are its only Cholesky factorizations, and the scan factors
every point; a first point that is an eigenvalue leaves the cover to the
last point's probe, and the scan factors that point alone.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from genresolvent import (
    Pencil,
    build_family,
    complements_of,
    continuity_check,
    default_grid,
    direct_sum_criteria,
    existence_check,
    fixed_complements_check,
    geninv_from_complements,
    invertibility_corollary,
    mp_inverse,
    mp_resolvent_characterization,
    perturbed_inverse,
    pinv_matrix,
    save_matrix,
)
from genresolvent import criteria, identity, linalg, resolvent
from genresolvent.cli import main
from genresolvent.criteria import generalized_spectrum_scan, rectangular_region
from genresolvent.linalg import chunks
from helpers import (
    EXACT,
    framed_pencil,
    normal_pencil,
    off_lattice,
    perturbation_instance,
    generic_full_pencil,
    random_complements,
    random_rank_matrix,
    rank_coordinates,
    rank_point,
)


@pytest.fixture
def svds(monkeypatch):
    """numpy.linalg.svd calls and the matrices they factor (the product of the
    leading dimensions): all of them, and those with compute_uv true."""
    counts = {"all": 0, "full": 0, "matrices": 0, "full_matrices": 0}
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        full = bool(kwargs.get("compute_uv", True))
        matrices = int(np.prod(np.shape(a)[:-2]))
        counts["all"] += 1
        counts["full"] += full
        counts["matrices"] += matrices
        counts["full_matrices"] += full * matrices
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return counts


@pytest.fixture
def choleskys(monkeypatch):
    """The number of matrices of each numpy.linalg.cholesky call."""
    counts = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a, *args, **kwargs):
        counts.append(int(np.prod(np.shape(a)[:-2])))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    return counts


def reset(counts):
    counts.update(all=0, full=0, matrices=0, full_matrices=0)


def pencil_files(directory, p) -> list[str]:
    """t and s of p saved as matrix files in directory: the CLI's two operands."""
    paths = [str(directory / "t.json"), str(directory / "s.json")]
    save_matrix(p.t, paths[0])
    save_matrix(p.s, paths[1])
    return paths


def seeded_case(switched):
    p = framed_pencil(np.random.default_rng(6), 6, 6, 3, switched=switched)
    g = mp_inverse(p.t)
    return p, g, default_grid(build_family(p, g).radius / 2, 25)


@pytest.mark.parametrize("switched", [False, True])
def test_per_point_stages_factor_each_point_once(svds, switched):
    p, g, grid = seeded_case(switched)
    complements = complements_of(g)
    family = build_family(p, g)
    stages = {
        "mp_resolvent_characterization": (lambda: mp_resolvent_characterization(p, grid), 2, 26),
        # one factor of tplus, or of the complement f, and no per-point bases
        "existence_check": (lambda: existence_check(family, grid), 1, 1),
        "direct_sum_criteria": (lambda: direct_sum_criteria(family, grid), 1, 1),
        "fixed_complements_check": (lambda: fixed_complements_check(p, complements, grid), 1, 1),
    }
    for name, (stage, calls, matrices) in stages.items():
        reset(svds)
        stage()
        assert svds["full"] <= calls, name
        assert svds["full_matrices"] <= matrices, name


@pytest.mark.parametrize("case", ["aligned", "switched", "full"])
def test_perturbed_inverse_factors_each_operator_once(svds, case):
    """Only tplus is factored with bases; tbar is ranked values-only, and the
    norms, residuals and three rank verdicts take 12 SVD calls in all."""
    t, tbar = perturbation_instance(np.random.default_rng(6), case)
    g = mp_inverse(t)
    reset(svds)
    perturbed_inverse(g, tbar)
    assert svds["full"] <= 1
    assert svds["full_matrices"] <= 1
    assert svds["all"] <= 12


def test_inverse_of_complements_takes_one_factor_and_one_solve_of_size_r(svds, monkeypatch):
    """Urquhart's formula e (f_perp^H t e)^-1 f_perp^H: the one full SVD is
    of f^H, for f_perp, and the one solve is r x r (the construction through
    the stack [R(t) | f] took 2 full SVDs and an m x m solve besides)."""
    rng = np.random.default_rng(6)
    t = random_rank_matrix(rng, 8, 6, 4)
    c = random_complements(rng, t)
    shapes = []
    solve = np.linalg.solve

    def counting_solve(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    reset(svds)
    geninv_from_complements(t, c)
    assert svds["full"] <= 1
    assert svds["full_matrices"] <= 1
    assert shapes == [(4, 4)]


def test_invertibility_corollary_factors_each_point_once(svds):
    """The pseudoinverses of the characterization are reused (51 full SVDs before)."""
    reset(svds)
    invertibility_corollary(np.diag([1.0, 2.0, 3.0]), default_grid(0.5, 25))
    assert svds["full"] <= 2
    assert svds["full_matrices"] <= 26


def test_continuity_check_runs_on_stacks(svds):
    """Member checks, norms and ranks per chunk (168 calls when taken point by point)."""
    p = Pencil(np.diag([1.0, 2.0, 0.0]), np.diag([0.5, 0.5, 0.0]))
    grid = default_grid(0.5, 25)
    family = {lam: pinv_matrix(p.at(lam)) for lam in grid.points}
    reset(svds)
    continuity_check(p, family, grid)
    assert svds["all"] <= 14
    assert svds["matrices"] <= 216


def test_perturb_command_computes_the_inverse_once(monkeypatch, tmp_path, capsys):
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return perturbed_inverse(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("genresolvent") and getattr(module, "perturbed_inverse", None) is perturbed_inverse:
            monkeypatch.setattr(module, "perturbed_inverse", counting)
    for case in ("aligned", "switched", "full"):
        t, tbar = perturbation_instance(np.random.default_rng(6), case)
        paths = [str(tmp_path / "t.json"), str(tmp_path / "tbar.json")]
        save_matrix(t, paths[0])
        save_matrix(tbar, paths[1])
        calls[0] = 0
        assert main(["perturb", *paths]) == 0
        assert calls[0] == 1, case
    capsys.readouterr()


@pytest.mark.parametrize(
    "command,bounds",
    [
        ("analyze", {"all": 7, "matrices": 55}),
        ("mp-check", {"full": 2, "full_matrices": 26, "all": 21, "matrices": 76}),
    ],
)
@pytest.mark.parametrize("switched", [False, True])
def test_commands(svds, command, bounds, switched, tmp_path, capsys):
    p, _, _ = seeded_case(switched)
    paths = pencil_files(tmp_path, p)
    reset(svds)
    assert main([command, *paths]) == (1 if switched else 0)
    capsys.readouterr()
    for kind, bound in bounds.items():
        assert svds[kind] <= bound, kind


def test_spectrum_off_the_lattice_takes_no_svd(svds, tmp_path, capsys):
    """Every point of the default 61 x 61 scan is certified full rank."""
    p = normal_pencil(np.random.default_rng(10), off_lattice(np.random.default_rng(11), 50))
    paths = pencil_files(tmp_path, p)
    reset(svds)
    assert main(["spectrum", *paths]) == 0
    assert capsys.readouterr().out.count(",50,0\n") == 61 * 61
    assert svds["all"] == 0


def test_spectrum_off_the_lattice_factors_at_most_a_sixth_of_its_points(svds, choleskys):
    """The cover proves full rank box by box, each box at the midpoint of
    its bounding box: 509 Cholesky factorizations of one matrix each,
    where the screen alone factored every one of the 3721 points, and still
    no SVD."""
    p = normal_pencil(np.random.default_rng(10), off_lattice(np.random.default_rng(11), 50))
    region = rectangular_region(-3.0, 3.0, -3.0, 3.0, 61)
    reset(svds)
    scan = generalized_spectrum_scan(p, region)
    assert scan.ranks.tolist() == [50] * len(region)
    assert svds["all"] == 0
    assert sum(choleskys) <= len(region) // 6


def test_spectrum_off_the_lattice_is_covered_at_every_point():
    """Boxes of one point are decided too, so the cover leaves no point of
    the off-lattice scan to the rank pass."""
    p = normal_pencil(np.random.default_rng(10), off_lattice(np.random.default_rng(11), 50))
    region = np.array(rectangular_region(-3.0, 3.0, -3.0, 3.0, 61))
    assert linalg.full_rank_cover(p.t, p.s, region, linalg.DEFAULT_TOL).all()


def test_spectrum_factors_only_the_chunk_with_an_eigenvalue(svds):
    """The rank pass chunks only the points the cover leaves out, and takes
    one SVD, of the one point that is an eigenvalue."""
    region = rectangular_region(-3.0, 3.0, -3.0, 3.0, 61)
    on = 1234
    eigenvalues = np.concatenate([[region[on]], off_lattice(np.random.default_rng(12), 49)])
    p = normal_pencil(np.random.default_rng(13), eigenvalues)
    reset(svds)
    scan = generalized_spectrum_scan(p, region)
    assert svds["all"] == 1
    assert svds["matrices"] == 1
    assert np.flatnonzero(scan.is_drop).tolist() == [on]


def test_spectrum_covers_a_pencil_whose_first_point_is_an_eigenvalue(svds, choleskys):
    """The first point's probe fails, the last point's passes, and the cover
    leaves the eigenvalue alone to the rank pass: one SVD of one matrix."""
    region = rectangular_region(-3.0, 3.0, -3.0, 3.0, 61)
    eigenvalues = np.concatenate([[region[0]], off_lattice(np.random.default_rng(12), 49)])
    p = normal_pencil(np.random.default_rng(13), eigenvalues)
    reset(svds)
    scan = generalized_spectrum_scan(p, region)
    assert choleskys[:2] == [1, 1]
    assert svds["all"] == 1
    assert svds["matrices"] == 1
    assert np.flatnonzero(scan.is_drop).tolist() == [0]


@pytest.mark.parametrize("switched", [False, True])
def test_spectrum_of_a_singular_pencil_screens_its_two_probes(svds, choleskys, switched):
    """Both probes fail, so the cover certifies nothing and every point takes
    the SVD, in chunks of one matrix per member."""
    p = framed_pencil(np.random.default_rng(14), 20, 20, 15, switched=switched)
    region = rectangular_region(-2.0, 2.0, -2.0, 2.0, 61)
    reset(svds)
    scan = generalized_spectrum_scan(p, region)
    assert choleskys == [1, 1]
    assert svds["all"] == len(list(chunks(len(region), 16 * max(p.shape) ** 2)))
    assert svds["matrices"] == len(region)
    assert np.count_nonzero(scan.is_drop) == switched


def test_spectrum_with_eigenvalues_on_both_probes_ranks_every_point(svds, choleskys):
    """A regular pencil with eigenvalues on the region's first and last
    points: both probes fail, the cover certifies nothing, and every point
    takes the SVD, with the ranks split_ranks gives each point."""
    region = rectangular_region(-3.0, 3.0, -3.0, 3.0, 61)
    eigenvalues = np.concatenate([[region[0], region[-1]],
                                  off_lattice(np.random.default_rng(12), 48)])
    p = normal_pencil(np.random.default_rng(13), eigenvalues)
    lams = np.array(region)
    reset(svds)
    scan = generalized_spectrum_scan(p, region)
    assert choleskys == [1, 1]
    assert svds["matrices"] == len(region)
    stack = p.t - lams[:, None, None] * p.s
    ranks = linalg.split_ranks(stack, linalg.empty_basis(50), linalg.empty_basis(50))[0]
    assert scan.ranks.tolist() == ranks.tolist()
    assert np.flatnonzero(scan.is_drop).tolist() == [0, len(region) - 1]


def test_analyze_takes_the_norm_of_s_tplus_once(monkeypatch, tmp_path, capsys):
    """build_family's ||s tplus||_2 also decides existence_check's radius warning."""
    p, g, _ = seeded_case(False)
    product = p.s @ g.tplus
    operands = []
    op_norm2 = resolvent.op_norm2

    def recording(a):
        operands.append(np.array(a))
        return op_norm2(a)

    monkeypatch.setattr(resolvent, "op_norm2", recording)
    paths = pencil_files(tmp_path, p)
    assert main(["analyze", *paths]) == 0
    capsys.readouterr()
    assert sum(np.array_equal(a, product) for a in operands) == 1


def test_mp_check_takes_the_norm_of_s_tplus_once(monkeypatch, tmp_path, capsys):
    """mp-check hands build_family's ||s tplus||_2 to the identity's bound,
    whose anchor, the pseudoinverse at lam = 0, is tplus bit for bit."""
    p, g, grid = seeded_case(False)
    product = p.s @ g.tplus
    assert np.array_equal(criteria._mp_characterization(p, grid, EXACT)[1][0], g.tplus)
    operands = []
    for module in (resolvent, identity):
        def recording(a, op_norm2=module.op_norm2):
            operands.append(np.array(a))
            return op_norm2(a)
        monkeypatch.setattr(module, "op_norm2", recording)
    paths = pencil_files(tmp_path, p)
    assert main(["mp-check", *paths]) == 0
    assert json.loads(capsys.readouterr().out)["identity_method"] == "bound"
    assert sum(np.array_equal(a, product) for a in operands) == 1


@pytest.mark.parametrize("n,seed", [(6, 6), (50, 1)])
def test_passing_commands_bound_no_per_point_stack_by_a_gram(monkeypatch, tmp_path, capsys,
                                                             n, seed):
    """Every per-point residual of a passing analyze and mp-check is bounded
    in O(mn) work: norm_upper_bounds, which forms a Gram matrix, bounds only
    the fixed s and G_0 of the identity's bound: analyze's s' and
    M(0) = 2^-e Sigma_r in rank-r coordinates, mp-check's s and t^+."""
    p = framed_pencil(np.random.default_rng(seed), n, n, n // 2)
    g = mp_inverse(p.t)
    c = rank_coordinates(build_family(p, g))
    fixed = {"analyze": (c["s_prime"], np.diag(c["scale"])), "mp-check": (p.s, g.tplus)}
    operands = []
    for module in (linalg, identity):
        def recording(stack, upper=module.norm_upper_bounds):
            operands.append(np.array(stack))
            return upper(stack)
        monkeypatch.setattr(module, "norm_upper_bounds", recording)
    paths = pencil_files(tmp_path, p)
    for command in ("analyze", "mp-check"):
        operands.clear()
        assert main([command, *paths]) == 0
        capsys.readouterr()
        assert operands
        assert all(len(a) == 1 and any(np.array_equal(a[0], b) for b in fixed[command])
                   for a in operands), command


def test_failing_analyze_takes_exact_norms_only_where_a_bound_reaches_the_maximum(
        monkeypatch, tmp_path, capsys):
    """On the switched n = 50 pencil the inner axiom fails at 24 of the 25
    points, each certified by a lower bound, and the printed maximum is
    exact: its exact norms, one point at a time, are those of the points
    whose upper bound reaches that maximum, 5 here, not all 24."""
    p = framed_pencil(np.random.default_rng(1), 50, 50, 25, switched=True)
    g = mp_inverse(p.t)
    family = build_family(p, g)
    lams = default_grid(family.radius / 2, 25).points
    scales = []
    for module in (resolvent, linalg):
        def recording(deviations, scale, measure=module.relative_residuals):
            scales.extend(np.array(scale))
            return measure(deviations, scale)
        monkeypatch.setattr(module, "relative_residuals", recording)
    paths = pencil_files(tmp_path, p)
    assert main(["analyze", *paths]) == 1
    axioms = json.loads(capsys.readouterr().out)["axioms"]
    exact = [k for scale in scales for k, lam in enumerate(lams) if np.array_equal(scale, p.at(lam))]
    assert len(exact) == len(scales)
    bounds, residuals = [], []
    c = rank_coordinates(family)
    for lam in lams:
        a = p.at(lam)
        deviation = rank_point(c, lam, a)[2]
        bounds.append(linalg.residual_bounds(deviation[None], a[None])[0])
        residuals.append(linalg.relative_residuals(deviation[None], a[None])[0])
    assert sum(r > 1e-10 for r in residuals) == 24
    assert axioms["max_inner_residual"] == max(residuals)
    assert sorted(exact) == [k for k, b in enumerate(bounds) if b >= max(residuals)]
    assert len(exact) == 5


@pytest.mark.parametrize("make,r", [
    pytest.param(lambda: framed_pencil(np.random.default_rng(1), 50, 50, 25), 25, id="rank-25"),
    pytest.param(lambda: framed_pencil(np.random.default_rng(1), 50, 50, 25, switched=True), 25,
                 id="rank-25-switched"),
    pytest.param(lambda: generic_full_pencil(np.random.default_rng(2), 20, 14), 14, id="full-rank"),
    pytest.param(lambda: Pencil(np.zeros((3, 4)), np.ones((3, 4))), 0, id="rank-0"),
])
def test_the_explicit_family_solves_r_by_r_and_factors_tplus_once(monkeypatch, tmp_path, capsys,
                                                                  make, r):
    """Every system the axiom stage solves is r x r, r = rank(tplus), and
    analyze takes one full SVD of tplus: the family carries it, and
    existence_check, direct_sum_criteria and the axiom stage all read it.
    mp-check, which needs only ||s tplus||_2, takes none."""
    p = make()
    tplus = mp_inverse(p.t).tplus
    solved, factored = [], []
    solve, svd = np.linalg.solve, np.linalg.svd

    def solving(a, b):
        solved.append(np.shape(a)[-2:])
        return solve(a, b)

    def factoring(a, *args, **kwargs):
        if kwargs.get("compute_uv", True) and np.shape(a)[-2:] == tplus.shape:
            factored.append(np.array_equal(np.reshape(a, tplus.shape), tplus))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", solving)
    monkeypatch.setattr(np.linalg, "svd", factoring)
    family = build_family(p, mp_inverse(p.t))
    grid = default_grid(family.radius / 2, 25)
    factored.clear()
    existence_check(family, grid)
    direct_sum_criteria(family, grid)
    resolvent.check_resolvent_axioms(family, grid)
    assert sum(factored) == 1
    assert len(family.coordinates.k) == r
    assert solved and set(solved) == {(r, r)} if r else not solved
    paths = pencil_files(tmp_path, p)
    for command, count in (("analyze", 1), ("mp-check", 0)):
        factored.clear()
        main([command, *paths])
        capsys.readouterr()
        assert sum(factored) == count, command


def test_mp_exact_stage_forms_one_axiom_per_candidate(monkeypatch):
    """The screen forms all four axioms per chunk; each exact candidate
    (point, axiom) forms only its own deviation and scale. Under a
    residual_tol no bound meets, the exact stage runs."""
    p, _, grid = seeded_case(True)
    asked = []
    candidates = [0]
    deviations, decided_maximum = criteria.mp_axiom_deviations, criteria.decided_maximum

    def recording(t, b, axioms=range(4)):
        asked.append(tuple(axioms))
        return deviations(t, b, axioms)

    def counting(bounds, limit, exact):
        def counted(position):
            candidates[0] += 1
            return exact(position)
        return decided_maximum(bounds, limit, counted)

    monkeypatch.setattr(criteria, "mp_axiom_deviations", recording)
    monkeypatch.setattr(criteria, "decided_maximum", counting)
    mp_resolvent_characterization(p, grid, EXACT)
    singles = [axioms for axioms in asked if axioms != tuple(range(4))]
    assert candidates[0] > 0
    assert len(singles) == candidates[0]
    assert all(len(axioms) == 1 for axioms in singles)


@pytest.fixture
def formed(monkeypatch):
    """Pairs whose identity deviation is formed: per call of
    identity._pairs_maximum, the pairs it bounds, and every call of
    identity._deviations, which forms the bounded stacks and, one pair at a
    time, each deviation formed again for an exact norm; and the calls of
    the per-point pass, identity._solve_residual_bounds."""
    counts = {"bounded": [], "formed": [], "passes": 0}
    pairs_maximum, deviations = identity._pairs_maximum, identity._deviations
    residuals = identity._solve_residual_bounds

    def bounding(s, g, lams, pairs, scale, limit):
        counts["bounded"].append(len(pairs))
        return pairs_maximum(s, g, lams, pairs, scale, limit)

    def forming(g, lams, g_s, firsts, seconds):
        counts["formed"].append(len(firsts))
        return deviations(g, lams, g_s, firsts, seconds)

    def passing(*args):
        counts["passes"] += 1
        return residuals(*args)

    monkeypatch.setattr(identity, "_pairs_maximum", bounding)
    monkeypatch.setattr(identity, "_deviations", forming)
    monkeypatch.setattr(identity, "_solve_residual_bounds", passing)
    return counts


@pytest.mark.parametrize(
    "switched,mp_bounds",
    [
        (False, {"all": 15, "full": 6, "matrices": 76, "full_matrices": 27}),
        (True, {"all": 24, "full": 6, "matrices": 45, "full_matrices": 27}),
    ],
)
def test_analyze_decides_the_identity_without_pairs(svds, formed, tmp_path, capsys,
                                                    switched, mp_bounds):
    """At n = 50 and default tolerances the per-point bound decides analyze's
    identity: no pair's deviation is formed. The axiom residuals take an SVD
    only where no bound decides them or a bound can reach the printed
    maximum: nowhere on constant support, where analyze takes 5 SVD calls
    on 53 matrices (25 on 157 with an exact norm of every residual), and at
    the 5 points of the switched pencil whose bound reaches its maximum,
    15 calls on 63 matrices (17 on 105 when every failing point was exact).
    mp-check decides on the same bound where the pseudoinverses are the
    resolvent, constant support, at 15 calls on 76 matrices (40 and 101
    with exact axiom maxima). On
    switched support its first chunk of per-point residuals already exceeds
    the tolerance, so it goes to the pairs through lam = 0 after that one
    chunk, takes no norm of s G_0, and fails there."""
    analyze_bounds = {"all": 15, "matrices": 63} if switched else {"all": 5, "matrices": 53}
    p = framed_pencil(np.random.default_rng(1), 50, 50, 25, switched=switched)
    paths = pencil_files(tmp_path, p)
    reset(svds)
    assert main(["analyze", *paths]) == (1 if switched else 0)
    axioms = json.loads(capsys.readouterr().out)["axioms"]
    assert axioms["identity_method"] == "bound"
    assert axioms["axiom_method"] == ("exact" if switched else "bound")
    assert formed["formed"] == []
    for kind, bound in analyze_bounds.items():
        assert svds[kind] <= bound, kind
    formed.update(bounded=[], formed=[], passes=0)
    reset(svds)
    assert main(["mp-check", *paths]) == (1 if switched else 0)
    report = json.loads(capsys.readouterr().out)
    assert report["axiom_method"] == "bound"
    if switched:
        k = len(report["grid"]["points"])
        assert report["identity_method"] == "pairs"
        assert formed["bounded"] == [2 * (k - 1)]
        assert formed["passes"] == 1
    else:
        assert report["identity_method"] == "bound"
        assert formed["formed"] == []
    for kind, bound in mp_bounds.items():
        assert svds[kind] <= bound, kind


def test_identity_forms_deviations_only_for_pairs_through_zero(formed, tmp_path, capsys):
    """On the switched n = 50 pencil the pseudoinverses away from lam = 0
    meet the identity among themselves to rounding, and only the pairs
    through lam = 0 deviate by order 1, so mp-check fails on them and forms
    no other pair's deviation: it bounds the 2 (k - 1) deviations of the
    pairs through lam = 0 in stacks, and forms one of them again for each
    exact norm, at most k - 1 of them (16 on this pencil), not all k (k - 1)
    pairs as a check of every pair would."""
    p = framed_pencil(np.random.default_rng(1), 50, 50, 25, switched=True)
    paths = pencil_files(tmp_path, p)
    assert main(["mp-check", *paths]) == 1
    report = json.loads(capsys.readouterr().out)
    k = len(report["grid"]["points"])
    assert report["identity_method"] == "pairs"
    assert formed["bounded"] == [2 * (k - 1)]
    # the stacks come first, then the single pairs of the exact norms
    calls, stacked = iter(formed["formed"]), 0
    while stacked < 2 * (k - 1):
        stacked += next(calls)
    singles = list(calls)
    assert stacked == 2 * (k - 1)
    assert 0 < len(singles) <= k - 1
    assert set(singles) == {1}


