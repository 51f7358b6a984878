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
ranks by the full-rank screen of :mod:`linalg` and factors only the chunks
it cannot certify; on a pencil singular at every lam it screens one point
and factors every chunk, each of the screened size.
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
    invertibility_corollary,
    mp_inverse,
    mp_resolvent_characterization,
    perturbed_inverse,
    pinv_matrix,
    save_matrix,
    splitting_checks,
)
from genresolvent import criteria, resolvent
from genresolvent.cli import main
from genresolvent.criteria import generalized_spectrum_scan, rectangular_region
from genresolvent.linalg import SCREEN_LIVE, chunks
from helpers import framed_pencil, normal_pencil, off_lattice, perturbation_instance


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


def test_splitting_checks_factor_each_operator_once(svds):
    """Only tplus is factored with bases; tbar is ranked values-only."""
    t, tbar = perturbation_instance(np.random.default_rng(6), "aligned")
    g = mp_inverse(t)
    reset(svds)
    splitting_checks(tbar, g)
    assert svds["full"] <= 1
    assert svds["full_matrices"] <= 1


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
        ("analyze", {"all": 13, "matrices": 157}),
        ("mp-check", {"full": 3, "full_matrices": 27, "all": 29, "matrices": 99}),
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


def test_spectrum_factors_only_the_chunk_with_an_eigenvalue(svds):
    region = rectangular_region(-3.0, 3.0, -3.0, 3.0, 61)
    on = 1234
    eigenvalues = np.concatenate([[region[on]], off_lattice(np.random.default_rng(12), 49)])
    p = normal_pencil(np.random.default_rng(13), eigenvalues)
    sizes = [part.stop - part.start
             for part in chunks(len(region), (1 + SCREEN_LIVE) * 16 * max(p.shape) ** 2)]
    holding = sizes[np.searchsorted(np.cumsum(sizes), on, side="right")]
    reset(svds)
    scan = generalized_spectrum_scan(p, region)
    assert svds["all"] == 1
    assert svds["matrices"] == holding
    assert [k for k, point in enumerate(scan) if point.is_drop] == [on]


def test_spectrum_screens_again_after_a_singular_first_point(svds):
    region = rectangular_region(-3.0, 3.0, -3.0, 3.0, 61)
    eigenvalues = np.concatenate([[region[0]], off_lattice(np.random.default_rng(12), 49)])
    p = normal_pencil(np.random.default_rng(13), eigenvalues)
    first = next(chunks(len(region), (1 + SCREEN_LIVE) * 16 * max(p.shape) ** 2)).stop
    reset(svds)
    scan = generalized_spectrum_scan(p, region)
    assert svds["all"] == 1
    assert svds["matrices"] == first
    assert [k for k, point in enumerate(scan) if point.is_drop] == [0]


@pytest.mark.parametrize("switched", [False, True])
def test_spectrum_of_a_singular_pencil_screens_one_point(svds, monkeypatch, switched):
    p = framed_pencil(np.random.default_rng(14), 20, 20, 15, switched=switched)
    region = rectangular_region(-2.0, 2.0, -2.0, 2.0, 61)
    choleskys = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a, *args, **kwargs):
        choleskys.append(int(np.prod(np.shape(a)[:-2])))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    reset(svds)
    scan = generalized_spectrum_scan(p, region)
    assert choleskys == [1]
    assert svds["all"] == len(list(chunks(len(region), (1 + SCREEN_LIVE) * 16 * max(p.shape) ** 2)))
    assert svds["matrices"] == len(region)
    assert sum(point.is_drop for point in scan) == switched


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


def test_mp_exact_stage_forms_one_axiom_per_candidate(monkeypatch):
    """The screen forms all four axioms per chunk; each exact candidate
    (point, axiom) forms only its own deviation and scale."""
    p, _, grid = seeded_case(True)
    asked = []
    candidates = [0]
    deviations, exact_maximum = criteria.mp_axiom_deviations, criteria.exact_maximum

    def recording(t, b, axioms=range(4)):
        asked.append(tuple(axioms))
        return deviations(t, b, axioms)

    def counting(bounds, exact):
        def counted(position):
            candidates[0] += 1
            return exact(position)
        return exact_maximum(bounds, counted)

    monkeypatch.setattr(criteria, "mp_axiom_deviations", recording)
    monkeypatch.setattr(criteria, "exact_maximum", counting)
    mp_resolvent_characterization(p, grid)
    singles = [axioms for axioms in asked if axioms != tuple(range(4))]
    assert candidates[0] > 0
    assert len(singles) == candidates[0]
    assert all(len(axioms) == 1 for axioms in singles)


@pytest.mark.parametrize(
    "switched,mp_bounds",
    [
        (False, {"all": 49, "full": 9, "matrices": 101, "full_matrices": 27}),
        (True, {"all": 47, "full": 9, "matrices": 99, "full_matrices": 27}),
    ],
)
def test_analyze_decides_the_identity_without_pairs(svds, monkeypatch, tmp_path, capsys,
                                                    switched, mp_bounds):
    """At n = 50 and default tolerances the per-point bound decides analyze's
    identity: no pair is drawn and no deviation screened, and analyze takes
    25 SVD calls on 157 matrices (27 / 29 calls and 159 / 161 matrices with
    the pairwise stage). mp-check decides on the same bound where the
    pseudoinverses are the resolvent, constant support, at 49 calls on 101
    matrices (50 and 102 with the pairwise stage). On switched support its
    first chunk of per-point residuals already exceeds the tolerance, so it
    goes to the pairs after that one chunk and takes no norm of s G_0."""
    p = framed_pencil(np.random.default_rng(1), 50, 50, 25, switched=switched)
    paths = pencil_files(tmp_path, p)
    calls = {"pair_indices": 0, "_screen_deviations": 0, "_solve_residual_bounds": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(resolvent, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(resolvent, name, counting)
    reset(svds)
    assert main(["analyze", *paths]) == (1 if switched else 0)
    assert json.loads(capsys.readouterr().out)["axioms"]["identity_method"] == "bound"
    assert (calls["pair_indices"], calls["_screen_deviations"]) == (0, 0)
    assert svds["all"] <= 25
    assert svds["matrices"] <= 157
    calls.update(dict.fromkeys(calls, 0))
    reset(svds)
    assert main(["mp-check", *paths]) == (1 if switched else 0)
    method = json.loads(capsys.readouterr().out)["identity_method"]
    if switched:
        assert method == "pairs"
        assert calls["pair_indices"] == 1 and calls["_screen_deviations"] >= 1
        assert calls["_solve_residual_bounds"] == 1
    else:
        assert method == "bound"
        assert (calls["pair_indices"], calls["_screen_deviations"]) == (0, 0)
    for kind, bound in mp_bounds.items():
        assert svds[kind] <= bound, kind
