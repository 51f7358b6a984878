"""SVD count gate for the per-point stages and whole commands.

Each grid point should cost one full SVD (compute_uv true), shared by every
view the stage needs, plus one per fixed operator. The pencil is the seeded
n=6 one of ``test_svd_count_gate``: rank 3, 25 grid points, constant and
switched support. Later changes may only lower these bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from genresolvent import (
    build_family,
    complements_of,
    default_grid,
    direct_sum_criteria,
    fixed_complements_check,
    mp_inverse,
    mp_resolvent_characterization,
    save_matrix,
    splitting_checks,
)
from genresolvent.cli import main
from helpers import framed_pencil, perturbation_instance


@pytest.fixture
def svds(monkeypatch):
    """Counts of numpy.linalg.svd calls: all of them, and those with compute_uv true."""
    counts = {"all": 0, "full": 0}
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        counts["all"] += 1
        counts["full"] += bool(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return counts


def seeded_case(switched):
    p = framed_pencil(np.random.default_rng(6), 6, 6, 3, switched=switched)
    g = mp_inverse(p.t)
    return p, g, default_grid(build_family(p, g).radius / 2, 25)


@pytest.mark.parametrize("switched", [False, True])
def test_per_point_stages_factor_each_point_once(svds, switched):
    p, g, grid = seeded_case(switched)
    complements = complements_of(g)
    stages = {
        "mp_resolvent_characterization": (lambda: mp_resolvent_characterization(p, grid), 26),
        "direct_sum_criteria": (lambda: direct_sum_criteria(p, g, grid), 26),
        "fixed_complements_check": (lambda: fixed_complements_check(p, complements, grid), 25),
    }
    for name, (stage, bound) in stages.items():
        svds["full"] = 0
        stage()
        assert svds["full"] <= bound, name


def test_splitting_checks_factor_each_operator_once(svds):
    t, tbar = perturbation_instance(np.random.default_rng(6), "aligned")
    g = mp_inverse(t)
    svds["full"] = 0
    splitting_checks(tbar, g)
    assert svds["full"] <= 2


@pytest.mark.parametrize(
    "command,bounds", [("analyze", {"all": 211}), ("mp-check", {"full": 27, "all": 297})]
)
@pytest.mark.parametrize("switched", [False, True])
def test_commands(svds, command, bounds, switched, tmp_path, capsys):
    p, _, _ = seeded_case(switched)
    paths = [str(tmp_path / "t.json"), str(tmp_path / "s.json")]
    save_matrix(p.t, paths[0])
    save_matrix(p.s, paths[1])
    svds.update(all=0, full=0)
    assert main([command, *paths]) == (1 if switched else 0)
    capsys.readouterr()
    for kind, bound in bounds.items():
        assert svds[kind] <= bound, kind
