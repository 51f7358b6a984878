"""Tests for the resolvent family, its axioms, and the existence checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genresolvent import (
    RADIUS_CAP,
    ComplementPair,
    DirectSumReport,
    DiskGrid,
    InvalidFamilyError,
    OutOfRadiusError,
    Pencil,
    ShapeMismatchError,
    build_family,
    check_resolvent_axioms,
    continuity_check,
    default_grid,
    direct_sum_criteria,
    evaluate,
    existence_check,
    factor,
    fixed_complements_check,
    full_subspace,
    mp_inverse,
    op_norm2,
    pinv_matrix,
    projector_family,
    relative_residual,
    zero_subspace,
)
from genresolvent.identity import _deviations
from helpers import (
    evaluate_neumann,
    framed_pencil,
    random_complement_inverse,
    span,
    subspace_gap,
)

seeds = st.integers(0, 2**32 - 1)


# constant family: s @ tplus = 0, G(lam) = tplus for every lam
CONST = Pencil(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]))
# diagonal family with radius 1/2
DIAG3 = Pencil(np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 2.0, 0.0]))
# shifted projector: rank jumps at every nonzero lam, no resolvent exists
BROKEN = Pencil(np.diag([1.0, 0.0]), np.eye(2))


def family_of(p: Pencil):
    return build_family(p, mp_inverse(p.t))


class TestGridTypes:
    def test_pencil_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Pencil(np.eye(2), np.eye(3))

    def test_grid_always_contains_zero(self):
        grid = DiskGrid(1.0, [0.5, 0.5j])
        assert 0 in grid.points
        assert grid.points[0] == 0

    def test_grid_rejects_points_beyond_radius(self):
        with pytest.raises(ValueError):
            DiskGrid(0.1, [0.5])

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0])
    def test_grids_name_a_radius_that_is_not_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="grid radius"):
            default_grid(radius)
        with pytest.raises(ValueError, match="grid radius"):
            DiskGrid(radius, [0])

    def test_default_grid_layout(self):
        grid = default_grid(0.6, points=25)
        assert len(grid.points) == 25
        moduli = sorted(abs(p) for p in grid.points)
        assert moduli[0] == 0.0
        assert moduli[-1] == pytest.approx(0.6)
        rings = {round(abs(p), 12) for p in grid.points}
        assert len(rings) == 4  # 0 plus three circles


class TestBuildFamily:
    def test_constant_family_radius_capped(self):
        fam = family_of(CONST)
        assert not np.any(fam.pencil.s @ fam.g.tplus)
        assert fam.radius == RADIUS_CAP

    def test_diagonal_radius(self):
        fam = family_of(DIAG3)
        assert fam.radius == pytest.approx(0.5)

    def test_classical_radius(self):
        t = np.array([[2.0, 1.0], [0.0, 3.0]])
        fam = build_family(Pencil(t, np.eye(2)), mp_inverse(t))
        assert fam.radius == pytest.approx(1.0 / op_norm2(np.linalg.inv(t)))

    def test_requires_matching_inverse(self):
        with pytest.raises(ShapeMismatchError):
            build_family(DIAG3, mp_inverse(np.diag([2.0, 1.0, 0.0])))


class TestEvaluate:
    def test_at_zero_returns_tplus(self):
        fam = family_of(DIAG3)
        assert op_norm2(evaluate(fam, 0) - fam.g.tplus) <= 1e-14

    def test_diagonal_closed_form(self):
        fam = family_of(DIAG3)
        assert np.allclose(np.diag(evaluate(fam, 0.1)), [1 / 0.9, 1.25, 0.0])

    def test_constant_family(self):
        fam = family_of(CONST)
        for lam in (0.0, 5.0, -3.0 + 2.0j):
            assert np.allclose(evaluate(fam, lam), fam.g.tplus)

    def test_out_of_radius(self):
        fam = family_of(DIAG3)
        with pytest.raises(OutOfRadiusError) as err:
            evaluate(fam, 0.6)
        assert err.value.growth == pytest.approx(1.2)


class TestNeumannOracle:
    def test_single_term_is_tplus(self):
        fam = family_of(DIAG3)
        assert np.allclose(evaluate_neumann(fam, 0.3, 1), fam.g.tplus)

    def test_matches_direct_solve(self):
        fam = family_of(DIAG3)
        direct = evaluate(fam, 0.1)
        series = evaluate_neumann(fam, 0.1, 60)
        assert op_norm2(direct - series) <= 1e-12

    def test_at_zero_any_terms(self):
        fam = family_of(DIAG3)
        assert np.allclose(evaluate_neumann(fam, 0, 7), fam.g.tplus)


def pair_residual(fam, lam, mu) -> float:
    """The identity residual of the one pair (lam, mu), relative to ||tplus||,
    its deviation formed by the identity decision's own kernel."""
    values = np.stack([evaluate(fam, lam), evaluate(fam, mu)])
    first, second = np.array([0]), np.array([1])
    deviation = _deviations(values, np.array([lam, mu], dtype=complex), values[:1] @ fam.pencil.s,
                            first, second)
    return relative_residual(deviation[0], fam.g.tplus)


class TestResolventIdentity:
    def test_equal_points_exact_zero(self):
        fam = family_of(DIAG3)
        assert pair_residual(fam, 0.1, 0.1) == 0.0

    def test_diagonal_family(self):
        fam = family_of(DIAG3)
        assert pair_residual(fam, 0.1, -0.1) <= 1e-12

    def test_constant_family_vanishes(self):
        fam = family_of(CONST)
        assert pair_residual(fam, 2.0, -7.0) <= 1e-15


class TestAxiomReport:
    def test_passing_family(self):
        fam = family_of(DIAG3)
        report = check_resolvent_axioms(fam, default_grid(fam.radius / 2))
        assert report.ok
        assert max(report.inner_residuals) <= 1e-10
        assert max(report.outer_residuals) <= 1e-10
        assert report.max_identity_residual <= 1e-10

    def test_broken_family_fails_inner_axiom(self):
        fam = family_of(BROKEN)
        report = check_resolvent_axioms(fam, DiskGrid(0.5, [0, 0.01]))
        idx = report.points.index(0.01)
        assert report.inner_residuals[idx] >= 1e-3
        assert report.inner_residuals[idx] == pytest.approx(0.01 / 0.99)
        assert not report.ok

    def test_out_of_radius_points_reported_not_fatal(self):
        fam = family_of(DIAG3)
        report = check_resolvent_axioms(fam, DiskGrid(1.0, [0, 0.1, 0.9]))
        assert report.skipped == (0.9,)
        assert not report.ok


class TestProjectorFamily:
    def test_at_zero(self):
        fam = family_of(DIAG3)
        pair = projector_family(fam, 0)
        assert np.allclose(pair.p_lambda, fam.g.t @ fam.g.tplus)
        assert np.allclose(pair.q_lambda, fam.g.tplus @ fam.g.t)

    def test_constant_family(self):
        fam = family_of(CONST)
        pair = projector_family(fam, 3.7)
        assert np.allclose(pair.p_lambda, np.diag([1.0, 0.0]))

    def test_diagonal(self):
        fam = family_of(DIAG3)
        pair = projector_family(fam, 0.1)
        assert np.allclose(pair.p_lambda, np.diag([1.0, 1.0, 0.0]))
        assert np.allclose(pair.q_lambda, np.diag([1.0, 1.0, 0.0]))

    def test_idempotency_even_without_existence(self):
        fam = family_of(BROKEN)
        pair = projector_family(fam, 0.01)
        assert pair.p_idempotency <= 1e-12
        assert pair.q_idempotency <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_ranges_and_kernels_when_existing(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        p = framed_pencil(rng, m, n, int(rng.integers(1, min(m, n) + 1)))
        fam = family_of(p)
        lam = 0.4 * fam.radius * np.exp(2j * np.pi * rng.uniform())
        pair = projector_family(fam, lam)
        a = p.at(lam)
        assert subspace_gap(factor(pair.p_lambda).range, factor(a).range) <= 1e-8
        assert subspace_gap(factor(pair.p_lambda).kernel, factor(fam.g.tplus).kernel) <= 1e-8
        assert subspace_gap(factor(pair.q_lambda).range, factor(fam.g.tplus).range) <= 1e-8
        assert subspace_gap(factor(pair.q_lambda).kernel, factor(a).kernel) <= 1e-8

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_kernel_and_range_rigidity(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        p = framed_pencil(rng, m, n, int(rng.integers(1, min(m, n) + 1)))
        fam = family_of(p)
        for lam in default_grid(fam.radius / 2, 9).points:
            g_lam = evaluate(fam, lam)
            assert subspace_gap(factor(g_lam).kernel, factor(fam.g.tplus).kernel) <= 1e-8
            assert subspace_gap(factor(g_lam).range, factor(fam.g.tplus).range) <= 1e-8


class TestExistence:
    def test_constant_rank_pencil(self):
        cert = existence_check(family_of(CONST), DiskGrid(2.0, [0, 1.0, 2.0j]))
        assert cert.verdict

    def test_shifted_projector_fails(self):
        cert = existence_check(family_of(BROKEN), DiskGrid(0.5, [0, 0.01]))
        assert not cert.verdict
        per = dict(cert.per_point)
        assert per[0] is True and per[0.01] is False

    def test_zero_s_always_exists(self):
        p = Pencil(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        cert = existence_check(family_of(p), default_grid(1.0, 9))
        assert cert.verdict

    def test_warns_beyond_family_radius(self):
        with pytest.warns(UserWarning):
            existence_check(family_of(BROKEN), DiskGrid(2.0, [0, 2.0]))
        # a grid reaching the family radius exactly: its outer ring is skipped
        grid = default_grid(0.5, 25)
        fam = family_of(DIAG3)
        assert fam.radius == grid.radius
        with pytest.warns(UserWarning):
            existence_check(fam, grid)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_passing_family_passes_for_second_inverse(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        p = framed_pencil(rng, m, n, int(rng.integers(1, min(m, n) + 1)))
        g1 = mp_inverse(p.t)
        g2 = random_complement_inverse(rng, p.t)
        f1, f2 = build_family(p, g1), build_family(p, g2)
        grid = default_grid(0.5 * min(f1.radius, f2.radius), 9)
        assert existence_check(f1, grid).verdict
        assert existence_check(f2, grid).verdict


class TestFixedComplements:
    def test_constant_rank_pencil(self):
        report = fixed_complements_check(
            CONST, ComplementPair(e=span([1, 0]), f=span([0, 1])), DiskGrid(2.0, [0, 1.0, 2.0])
        )
        assert report.verdict

    def test_shifted_projector_has_no_fixed_complements(self):
        grid = DiskGrid(0.5, [0, 0.2])
        for pair in (
            ComplementPair(e=span([1, 0]), f=span([0, 1])),
            ComplementPair(e=full_subspace(2), f=zero_subspace(2)),
        ):
            assert not fixed_complements_check(BROKEN, pair, grid).verdict

    def test_zero_s_with_mp_complements(self):
        from genresolvent import complements_of

        p = Pencil(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        pair = complements_of(mp_inverse(p.t))
        assert fixed_complements_check(p, pair, default_grid(1.0, 9)).verdict

    @pytest.mark.parametrize("p", [CONST, BROKEN], ids=["constant", "shifted-projector"])
    def test_complements_of_an_inverse_give_its_direct_sum_report(self, p):
        """The pair (R(tplus), N(tplus)) as fixed complements gives the report
        of the inverse's own splittings."""
        from genresolvent import complements_of

        grid = DiskGrid(0.5, [0, 0.2, 0.4j])
        family = family_of(p)
        report = fixed_complements_check(p, complements_of(family.g), grid)
        assert type(report) is DirectSumReport
        assert report == direct_sum_criteria(family, grid)


class TestDirectSumCriteria:
    def test_constant_rank_pencil(self):
        report = direct_sum_criteria(family_of(CONST), DiskGrid(2.0, [0, 1.0]))
        assert report.verdict and report.domain_verdict and report.codomain_verdict

    def test_shifted_projector(self):
        report = direct_sum_criteria(family_of(BROKEN), DiskGrid(0.5, [0, 0.2]))
        assert not report.verdict

    def test_zero_s(self):
        p = Pencil(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        assert direct_sum_criteria(family_of(p), default_grid(1.0, 9)).verdict

    def test_matches_existence_verdict(self):
        for p, grid in ((CONST, DiskGrid(2.0, [0, 1.0])), (BROKEN, DiskGrid(0.5, [0, 0.2]))):
            fam = family_of(p)
            assert direct_sum_criteria(fam, grid).verdict == existence_check(fam, grid).verdict


class TestContinuity:
    def test_explicit_family_is_continuous(self):
        fam = family_of(DIAG3)
        grid = default_grid(fam.radius / 2, 9)
        report = continuity_check(DIAG3, lambda lam: evaluate(fam, lam), grid)
        assert report.premises_ok
        assert report.existence_verdict
        assert report.conclusion_consistent

    def test_constant_pencil_has_identity_correction(self):
        p = Pencil(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        g = mp_inverse(p.t)
        report = continuity_check(p, lambda lam: g.tplus, default_grid(1.0, 9))
        assert report.max_deviation == 0.0
        assert all(r.banach_product == 0.0 and r.w_invertible for r in report.per_point)

    def test_pseudoinverse_family_discontinuous_at_rank_jump(self):
        grid = DiskGrid(0.3, [0, 0.1, 0.2])
        report = continuity_check(BROKEN, lambda lam: pinv_matrix(BROKEN.at(lam)), grid)
        assert not report.premises_ok
        assert report.max_deviation >= 4.0  # ||(t - lam I)^+|| ~ 1/|lam| blows up
        assert not report.existence_verdict
        assert report.conclusion_consistent

    def test_invalid_member_rejected(self):
        grid = DiskGrid(0.3, [0, 0.1])
        with pytest.raises(InvalidFamilyError) as err:
            continuity_check(DIAG3, lambda lam: np.zeros((3, 3)) if lam else DIAG3.t.T, grid)
        assert err.value.lam == 0.1

    def test_accepts_dict_family(self):
        fam = family_of(DIAG3)
        grid = DiskGrid(0.2, [0, 0.1])
        members = {lam: evaluate(fam, lam) for lam in grid.points}
        assert continuity_check(DIAG3, members, grid).conclusion_consistent


class TestProjectorLaws:
    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_semigroup_relations(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        p = framed_pencil(rng, m, n, int(rng.integers(1, min(m, n) + 1)))
        fam = family_of(p)
        grid = default_grid(fam.radius / 2, 9)
        pairs = [projector_family(fam, lam) for lam in grid.points]
        for a in pairs:
            for b in pairs:
                assert op_norm2(a.p_lambda @ b.p_lambda - a.p_lambda) <= 1e-10
                assert op_norm2(a.q_lambda @ b.q_lambda - b.q_lambda) <= 1e-10
