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
    rectangular_region,
    scan_csv,
)
from genresolvent.criteria import SpectrumScan
from helpers import assert_same_scan, framed_pencil

seeds = st.integers(0, 2**32 - 1)
# region bounds: signed zeros, subnormals, the extremes and any finite float
bounds = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -1.5e-310, 1e308, -1e308, 1.0, 2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)

CONST = Pencil(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]))
BROKEN = Pencil(np.diag([1.0, 0.0]), np.eye(2))
GRID = DiskGrid(0.5, [0, 0.1, 0.25, 0.1j, -0.2])


class TestRankProfile:
    def test_constant_rank_pencil(self):
        profile = finite_rank_criterion(CONST, GRID).profile
        assert profile.ranks == (1, 1, 1, 1, 1)
        assert profile.nullities == (1, 1, 1, 1, 1)
        assert profile.coranks == (1, 1, 1, 1, 1)

    def test_rank_jump(self):
        profile = finite_rank_criterion(BROKEN, GRID).profile
        assert profile.ranks[0] == 1
        assert all(r == 2 for r in profile.ranks[1:])

    def test_zero_s(self):
        p = Pencil(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        assert set(finite_rank_criterion(p, GRID).profile.ranks) == {1}

    def test_anchor_at_zero_matches_t(self):
        for p in (CONST, BROKEN):
            profile = finite_rank_criterion(p, GRID).profile
            from genresolvent import numerical_rank

            assert profile.ranks[profile.points.index(0)] == numerical_rank(p.t)

    def test_marginal_flag(self):
        # second singular value sits between the cutoff and 10x the cutoff
        p = Pencil(np.diag([1.0, 3e-15]), np.zeros((2, 2)))
        profile = finite_rank_criterion(p, DiskGrid(1.0, [0])).profile
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
        drops = set(scan.points[scan.is_drop].tolist())
        assert drops == {1.0 + 0.0j, 2.0 + 0.0j}

    def test_scan_of_a_pencil_whose_gram_overflows_keeps_its_ranks(self):
        """Scaled by 1e160, every Gram of the full-rank screen overflows; the
        screen declines it without a warning and the SVD ranks as before."""
        p = Pencil(np.diag([1.0, 2.0]), np.eye(2))
        region = rectangular_region(-3, 3, -3, 3, 7)
        scaled = generalized_spectrum_scan(Pencil(1e160 * p.t, 1e160 * p.s), region)
        assert_same_scan(scaled, generalized_spectrum_scan(p, region))
        assert set(scaled.points[scaled.is_drop].tolist()) == {1.0 + 0.0j, 2.0 + 0.0j}

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
        drops = scan.points[scan.is_drop].tolist()
        assert all(any(abs(lam - e) <= 0.1 for lam in drops) for e in eigenvalues)
        assert all(min(abs(lam - e) for e in eigenvalues) <= 0.1 for lam in drops)

    def test_constant_rank_pencil_has_no_drops(self):
        scan = generalized_spectrum_scan(CONST, rectangular_region(-2, 2, -2, 2, 21))
        assert not scan.is_drop.any()

    def test_nilpotent_drops_only_at_origin(self):
        p = Pencil(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
        scan = generalized_spectrum_scan(p, rectangular_region(-1, 1, -1, 1, 21))
        drops = set(scan.points[scan.is_drop].tolist())
        assert drops == {0.0 + 0.0j}

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            generalized_spectrum_scan(CONST, [])
        with pytest.raises(ValueError):
            rectangular_region(-1, 1, -1, 1, 0)

    def test_region_row_major_order(self):
        region = rectangular_region(0, 1, 0, 1, 2)
        assert region == (0j, 1 + 0j, 1j, 1 + 1j)

    def test_region_wider_than_the_largest_float_is_exact(self):
        """The width 2e308 overflows, so each axis is built from halved
        bounds: its points are exact and finite, and no warning is raised."""
        huge = np.finfo(np.float64).max
        assert rectangular_region(-1e308, 1e308, -huge, huge, 3) == tuple(
            complex(re, im) for im in (-huge, 0.0, huge) for re in (-1e308, 0.0, 1e308))
        assert rectangular_region(-1e308, 1e308, 0.0, 1.0, 5)[:5] == (-1e308, -5e307, 0j, 5e307, 1e308)
        assert rectangular_region(0.0, 1.0, 0.0, 1.0, 5) == tuple(
            complex(re, im) for im in np.linspace(0.0, 1.0, 5) for re in np.linspace(0.0, 1.0, 5))


@settings(max_examples=80, deadline=None)
@given(bounds, bounds, bounds, bounds, st.integers(1, 4))
def test_scan_csv_rows_parse_back_to_the_scan(re_min, re_max, im_min, im_max, steps):
    """Each CSV row holds its point's exact bits, the sign of a zero
    included, its rank and its drop flag, and reads as the per-row
    f-string a list of points once formatted."""
    p = Pencil(np.diag([1.0, 2.0]), np.eye(2))
    region = rectangular_region(re_min, re_max, im_min, im_max, steps)
    scan = generalized_spectrum_scan(p, region)
    assert np.array(region).tobytes() == scan.points.tobytes()
    header, *rows, last = scan_csv(scan).split("\n")
    assert (header, last) == ("re,im,rank,is_drop", "")
    ranks, drops = scan.ranks.tolist(), scan.is_drop.tolist()
    assert rows == [f"{lam.real!r},{lam.imag!r},{rank},{int(drop)}"
                    for lam, rank, drop in zip(region, ranks, drops)]
    fields = [row.split(",") for row in rows]
    parsed = np.array([[float(re), float(im)] for re, im, _, _ in fields])
    assert parsed.tobytes() == scan.points.view(np.float64).tobytes()
    assert [int(rank) for _, _, rank, _ in fields] == ranks
    assert [flag == "1" for _, _, _, flag in fields] == drops


def unordered_points() -> np.ndarray:
    """Points in no lattice order, whose coordinates repeat 5e-324, both
    zeros and 1e308, with -0.0 and 0.0 in each column."""
    points = np.empty(8, dtype=np.complex128)
    points.real = [5e-324, -0.0, 1e308, 0.0, 5e-324, 1e308, -0.0, 0.0]
    points.imag = [0.0, 1e308, -0.0, 5e-324, -0.0, 0.0, 5e-324, 1e308]
    return points


@pytest.mark.parametrize("points", [
    np.array(rectangular_region(-3.0, 3.0, -3.0, 3.0, 61)),
    np.array(rectangular_region(-1.0, -0.0, -1.0, -0.0, 2)),
    unordered_points(),
], ids=["default", "negative-zero", "unordered"])
def test_scan_csv_is_the_repr_of_every_point(points):
    """scan_csv formats each distinct coordinate once per column, told apart
    by its bits, and writes the text of the per-point repr formatting, kept
    here as the reference, a column holding -0.0 and 0.0 included."""
    ranks = np.arange(len(points)) % 3
    drops = ranks == 1
    scan = SpectrumScan(points, ranks, drops)
    reference = "".join(f"{lam.real!r},{lam.imag!r},{rank},{int(drop)}\n"
                        for lam, rank, drop in zip(points.tolist(), ranks.tolist(), drops.tolist()))
    assert scan_csv(scan) == "re,im,rank,is_drop\n" + reference


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
