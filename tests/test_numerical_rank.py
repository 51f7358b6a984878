"""Verdicts that rest on numerical rank alone, pinned as they stand today.

Every verdict decides the numerical rank of t - lam s at rank_rtol, so at
each sampled point it certifies some matrix within the cutoff of t - lam s,
not always t - lam s itself. Nilpotent Jordan blocks with S = I show where
the two differ. Exactly, rank(J_n - lam I) = n for lam != 0 while
rank(J_n) = n - 1, so no generalized resolvent exists on any disk, yet the
smallest singular value of J_n - lam I, about |lam|^n, falls below the
cutoff on small enough grids and for large enough n. Each test below pins a
numerical-rank verdict that exact arithmetic contradicts, as it stands;
ROADMAP items 12 and 16 are to flip them, with an exact witness beside each
numerical verdict.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from genresolvent import save_matrix
from genresolvent.cli import main


def run_on(command, t, s, radius, tmp_path, capsys):
    """Exit code and report of one in-process command on the pencil (t, s)."""
    save_matrix(t, tmp_path / "t.json")
    save_matrix(s, tmp_path / "s.json")
    code = main([command, str(tmp_path / "t.json"), str(tmp_path / "s.json"),
                 "--grid-radius", str(radius)])
    return code, json.loads(capsys.readouterr().out)


def profile_of(report):
    """The distinct ranks of an analyze report and whether any is marginal."""
    profile = report["rank_profile"]
    return set(profile["ranks"]), any(profile["marginal"])


@pytest.mark.parametrize("radius", [0.2, 0.3])
def test_jordan_30_passes_analyze_on_small_grids(radius, tmp_path, capsys):
    """Pins a numerical-rank verdict that exact arithmetic contradicts, for
    ROADMAP items 12 and 16 to flip: on J_30 with S = I at radius 0.2 and
    0.3, every sigma_min(J_30 - lam I) is below the cutoff, so analyze reads
    rank 29 at every point, with no marginal flag, and reports existence and
    the axioms as holding, where exactly the rank is 30 off lam = 0."""
    code, report = run_on("analyze", np.eye(30, k=1), np.eye(30), radius, tmp_path, capsys)
    assert code == 0
    assert report["existence"]["verdict"] is True
    assert report["axioms"]["ok"] is True
    assert profile_of(report) == ({29}, False)


def test_jordan_30_fails_analyze_at_radius_half(tmp_path, capsys):
    """Pins a numerical-rank profile that exact arithmetic contradicts, for
    ROADMAP items 12 and 16 to flip: at radius 0.5 the outer ring's
    |lam|^30 clears the cutoff, so analyze exits 1 as exact arithmetic
    does, but the inner rings still read rank 29 where exactly it is 30."""
    code, report = run_on("analyze", np.eye(30, k=1), np.eye(30), 0.5, tmp_path, capsys)
    assert code == 1
    assert profile_of(report) == ({29, 30}, False)


def test_jordan_30_fails_mp_check_at_radius_0_3(tmp_path, capsys):
    """Pins mp-check beside a numerical-rank verdict that exact arithmetic
    contradicts, for ROADMAP items 12 and 16 to flip: at radius 0.3, where
    analyze passes on numerical rank 29, mp-check reads both its constancy
    and its identity verdict false and exits 1, so the two commands
    disagree on this pencil until analyze's verdict is flipped."""
    code, report = run_on("mp-check", np.eye(30, k=1), np.eye(30), 0.3, tmp_path, capsys)
    assert code == 1
    assert (report["constancy_verdict"], report["identity_verdict"]) == (False, False)


@pytest.mark.parametrize("n,code,ranks", [
    (8, 1, {7, 8}),
    (32, 1, {31, 32}),
    (128, 0, {127}),
])
def test_transposed_jordan_flips_as_n_grows(n, code, ranks, tmp_path, capsys):
    """Pins a numerical-rank verdict that exact arithmetic contradicts at
    n = 128, for ROADMAP items 12 and 16 to flip: the section J_n^T of the
    unilateral shift with S = I at radius 0.5 fails analyze at n = 8 and 32,
    with ranks n - 1 and n, as exact arithmetic does, but passes it at
    n = 128, where 0.5^128 is below the cutoff at every point, with rank
    127 throughout and no marginal flag."""
    got, report = run_on("analyze", np.eye(n, k=-1), np.eye(n), 0.5, tmp_path, capsys)
    assert got == code
    assert profile_of(report) == (ranks, False)
