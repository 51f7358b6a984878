"""Tests for rank/subspace constancy criteria and the spectrum scan."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genresolvent import (
    DiskGrid,
    Pencil,
    ShapeMismatchError,
    default_grid,
    existence_check,
    finite_rank_criterion,
    generalized_spectrum_scan,
    invertibility_corollary,
    build_family,
    mp_inverse,
    mp_resolvent_characterization,
    rank_profile,
    rectangular_region,
)
from helpers import framed_pencil

seeds = st.integers(0, 2**32 - 1)

CONST = Pencil(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]))
BROKEN = Pencil(np.diag([1.0, 0.0]), np.eye(2))
GRID = DiskGrid(0.5, [0, 0.1, 0.25, 0.1j, -0.2])


class TestRankProfile:
    def test_constant_rank_pencil(self):
        profile = rank_profile(CONST, GRID)
        assert profile.ranks == (1, 1, 1, 1, 1)
        assert profile.nullities == (1, 1, 1, 1, 1)
        assert profile.coranks == (1, 1, 1, 1, 1)

    def test_rank_jump(self):
        profile = rank_profile(BROKEN, GRID)
        assert profile.ranks[0] == 1
        assert all(r == 2 for r in profile.ranks[1:])

    def test_zero_s(self):
        p = Pencil(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        assert set(rank_profile(p, GRID).ranks) == {1}

    def test_anchor_at_zero_matches_t(self):
        for p in (CONST, BROKEN):
            profile = rank_profile(p, GRID)
            from genresolvent import numerical_rank

            assert profile.ranks[profile.points.index(0)] == numerical_rank(p.t)

    def test_marginal_flag(self):
        # second singular value sits between the cutoff and 10x the cutoff
        p = Pencil(np.diag([1.0, 3e-15]), np.zeros((2, 2)))
        profile = rank_profile(p, DiskGrid(1.0, [0]))
        assert profile.ranks == (2,)
        assert profile.marginal == (True,)


class TestFiniteRankCriterion:
    def test_constant_rank_pencil(self):
        assert finite_rank_criterion(CONST, GRID).verdict

    def test_rank_jump_fails(self):
        assert not finite_rank_criterion(BROKEN, GRID).verdict

    def test_zero_pencil(self):
        p = Pencil(np.zeros((2, 2)), np.zeros((2, 2)))
        report = finite_rank_criterion(p, GRID)
        assert report.verdict
        assert set(report.profile.ranks) == {0}


class TestFredholmCriteria:
    def test_constant_rank_pencil(self):
        report = finite_rank_criterion(CONST, GRID)
        assert (report.nullity_constant, report.corank_constant, report.verdict) == (
            True,
            True,
            True,
        )

    def test_rank_jump(self):
        report = finite_rank_criterion(BROKEN, GRID)
        assert (report.nullity_constant, report.corank_constant, report.verdict) == (
            False,
            False,
            False,
        )

    def test_invertible_t(self):
        t = np.array([[2.0, 1.0], [0.0, 3.0]])
        p = Pencil(t, np.array([[1.0, 0.5], [0.2, 1.0]]))
        fam = build_family(p, mp_inverse(t))
        report = finite_rank_criterion(p, default_grid(fam.radius / 2, 9))
        assert report.nullity_constant or report.corank_constant


class TestMPResolventCharacterization:
    def test_diagonal_positive_family(self):
        p = Pencil(np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 2.0, 0.0]))
        report = mp_resolvent_characterization(p, default_grid(0.25, 9))
        assert report.constancy_verdict and report.identity_verdict
        assert report.max_identity_residual <= 1e-12

    def test_shifted_projector_fails_both_ways(self):
        report = mp_resolvent_characterization(BROKEN, DiskGrid(0.3, [0, 0.01, 0.02, 0.1]))
        assert not report.constancy_verdict and not report.identity_verdict
        assert max(report.kernel_gaps) == pytest.approx(1.0)
        assert report.max_identity_residual > 1e-3

    def test_zero_s_trivially_constant(self):
        p = Pencil(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        report = mp_resolvent_characterization(p, GRID)
        assert report.constancy_verdict and report.identity_verdict
        assert max(report.kernel_gaps) == 0.0


class TestInvertibilityCorollary:
    def test_invertible_diagonal(self):
        report = invertibility_corollary(np.diag([2.0, 4.0]), default_grid(0.2, 9))
        assert (report.mp_resolvent_ok, report.t_invertible) == (True, True)
        assert report.max_classical_residual <= 1e-10

    def test_singular_diagonal(self):
        report = invertibility_corollary(np.diag([1.0, 0.0]), default_grid(0.25, 9))
        assert (report.mp_resolvent_ok, report.t_invertible) == (False, False)
        assert report.max_classical_residual is None

    def test_nilpotent(self):
        report = invertibility_corollary(np.array([[0.0, 1.0], [0.0, 0.0]]), default_grid(0.25, 9))
        assert (report.mp_resolvent_ok, report.t_invertible) == (False, False)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatchError):
            invertibility_corollary(np.zeros((2, 3)), GRID)


class TestSpectrumScan:
    def test_diagonal_eigenvalues(self):
        p = Pencil(np.diag([1.0, 2.0]), np.eye(2))
        scan = generalized_spectrum_scan(p, rectangular_region(-3, 3, -3, 3, 61))
        drops = {point.lam for point in scan if point.is_drop}
        assert drops == {1.0 + 0.0j, 2.0 + 0.0j}

    @pytest.mark.xfail(
        strict=True,
        reason="the scan marks only lattice points where the rank drops numerically, "
        "so eigenvalues off the lattice go unmarked (ROADMAP: make the spectrum scan "
        "correct off the lattice)",
    )
    def test_off_lattice_eigenvalues_are_marked(self):
        """The eigenvalues 1.03 and 2.17 lie between points of the default 61x61
        lattice (step 0.1): each must mark a drop point within one step, and
        no drop point may lie farther from both."""
        eigenvalues = (1.03, 2.17)
        p = Pencil(np.diag(eigenvalues), np.eye(2))
        scan = generalized_spectrum_scan(p, rectangular_region(-3, 3, -3, 3, 61))
        drops = [point.lam for point in scan if point.is_drop]
        assert all(any(abs(lam - e) <= 0.1 for lam in drops) for e in eigenvalues)
        assert all(min(abs(lam - e) for e in eigenvalues) <= 0.1 for lam in drops)

    def test_constant_rank_pencil_has_no_drops(self):
        scan = generalized_spectrum_scan(CONST, rectangular_region(-2, 2, -2, 2, 21))
        assert not any(point.is_drop for point in scan)

    def test_nilpotent_drops_only_at_origin(self):
        p = Pencil(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
        scan = generalized_spectrum_scan(p, rectangular_region(-1, 1, -1, 1, 21))
        drops = {point.lam for point in scan if point.is_drop}
        assert drops == {0.0 + 0.0j}

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            generalized_spectrum_scan(CONST, [])
        with pytest.raises(ValueError):
            rectangular_region(-1, 1, -1, 1, 0)

    def test_region_row_major_order(self):
        region = rectangular_region(0, 1, 0, 1, 2)
        assert region == (0j, 1 + 0j, 1j, 1 + 1j)


class TestCriterionWeb:
    @settings(max_examples=20, deadline=None)
    @given(seeds, st.booleans())
    def test_rank_criteria_match_transversality(self, seed, switched):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        rank = int(rng.integers(1, min(m, n) + (0 if switched else 1)))
        p = framed_pencil(rng, m, n, rank, switched=switched)
        family = build_family(p, mp_inverse(p.t))
        grid = default_grid(family.radius / 2, 9)
        rank = finite_rank_criterion(p, grid)
        verdicts = {
            rank.verdict,
            rank.nullity_constant or rank.corank_constant,
            existence_check(family, grid).verdict,
        }
        assert len(verdicts) == 1
        assert verdicts == {not switched}
