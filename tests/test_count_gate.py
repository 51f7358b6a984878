"""SVD count gate for the per-point stages and whole commands.

A stage that needs bases of each grid point's kernel or range should cost
one full SVD (compute_uv true) per point, shared by every view it needs,
plus one per fixed operator; the points of a chunk share one batched call.
The subspace criteria need no per-point bases: they compare values-only
ranks, so their only full SVD is of one fixed operator. Calls and factored
matrices are counted apart, so batching cannot hide work: a call on a
(k, m, n) stack factors k matrices. The pencil is the seeded n=6 one of
``test_svd_count_gate``: rank 3, 25 grid points, constant and switched
support. Later changes may only lower these bounds.
"""

from __future__ import annotations

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
from genresolvent.cli import main
from helpers import framed_pencil, perturbation_instance


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


def seeded_case(switched):
    p = framed_pencil(np.random.default_rng(6), 6, 6, 3, switched=switched)
    g = mp_inverse(p.t)
    return p, g, default_grid(build_family(p, g).radius / 2, 25)


@pytest.mark.parametrize("switched", [False, True])
def test_per_point_stages_factor_each_point_once(svds, switched):
    p, g, grid = seeded_case(switched)
    complements = complements_of(g)
    stages = {
        "mp_resolvent_characterization": (lambda: mp_resolvent_characterization(p, grid), 2, 26),
        # one factor of tplus, or of the complement f, and no per-point bases
        "existence_check": (lambda: existence_check(p, g, grid), 1, 1),
        "direct_sum_criteria": (lambda: direct_sum_criteria(p, g, grid), 1, 1),
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
        ("analyze", {"all": 30, "matrices": 186}),
        ("mp-check", {"full": 3, "full_matrices": 27, "all": 29, "matrices": 99}),
    ],
)
@pytest.mark.parametrize("switched", [False, True])
def test_commands(svds, command, bounds, switched, tmp_path, capsys):
    p, _, _ = seeded_case(switched)
    paths = [str(tmp_path / "t.json"), str(tmp_path / "s.json")]
    save_matrix(p.t, paths[0])
    save_matrix(p.s, paths[1])
    reset(svds)
    assert main([command, *paths]) == (1 if switched else 0)
    capsys.readouterr()
    for kind, bound in bounds.items():
        assert svds[kind] <= bound, kind
