"""Tests for the perturbed-inverse formula and its equivalences.

perturbed_inverse returns b, its InverseVerdict and the verdicts of the
four equivalent stability conditions in one result; the tests check each
verdict on hand-made cases and their agreement on random ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genresolvent.perturbation as perturbation
from genresolvent import (
    GenResolventError,
    InverseVerdict,
    PerturbationTooLargeError,
    ShapeMismatchError,
    mp_inverse,
    op_norm2,
    equivalence_check,
    perturbed_inverse,
    smallness_of,
    solve,
    transversal,
    user_supplied,
)
from helpers import perturbation_instance, random_complement_inverse

seeds = st.integers(0, 2**32 - 1)

G_DIAG = mp_inverse(np.diag([1.0, 0.0]))


class TestTransversal:
    def test_unperturbed(self):
        assert transversal(np.diag([1.0, 0.0]), G_DIAG)

    def test_full_rank_meets_kernel(self):
        assert not transversal(np.diag([1.0, 0.1]), G_DIAG)

    def test_range_preserving_perturbation(self):
        assert transversal(np.diag([1.1, 0.0]), G_DIAG)


class TestPerturbedInverse:
    def test_zero_perturbation(self):
        result = perturbed_inverse(G_DIAG, np.diag([1.0, 0.0]))
        assert np.allclose(result.b, G_DIAG.tplus)
        assert result.classification is InverseVerdict.GENERALIZED
        assert result.smallness == 0.0

    def test_scaled_diagonal(self):
        result = perturbed_inverse(G_DIAG, np.diag([1.1, 0.0]))
        assert np.allclose(result.b, np.diag([1 / 1.1, 0.0]))
        assert result.classification is InverseVerdict.GENERALIZED

    def test_rank_increase_gives_outer_only(self):
        result = perturbed_inverse(G_DIAG, np.diag([1.0, 0.1]))
        assert np.allclose(result.b, np.diag([1.0, 0.0]))
        assert result.classification is InverseVerdict.OUTER_ONLY

    def test_too_large_rejected(self):
        with pytest.raises(PerturbationTooLargeError) as err:
            perturbed_inverse(G_DIAG, np.diag([5.0, 0.0]))
        assert err.value.smallness == pytest.approx(4.0)

    def test_disagreeing_factorizations_raise(self, monkeypatch):
        """The right factorization tplus (I + dt tplus)^-1 is checked against the
        left one; a solve that returns something else is a contract fault."""
        monkeypatch.setattr(perturbation, "solve_right", lambda a, b, tol: 2.0 * b)
        with pytest.raises(GenResolventError, match="left and right factorizations disagree"):
            perturbed_inverse(G_DIAG, np.diag([1.1, 0.0]))

    @pytest.mark.parametrize("verdict", [InverseVerdict.INNER_ONLY, InverseVerdict.NEITHER])
    def test_failing_outer_axiom_raises(self, monkeypatch, verdict):
        """Every admissible perturbation keeps the outer axiom; a verdict
        without it is a contract fault naming the outer residual."""
        monkeypatch.setattr(perturbation, "verify_gen_inverse",
                            lambda t, b, tol: (0.0, 0.5, verdict))
        with pytest.raises(GenResolventError,
                           match=r"unexpectedly fails the outer axiom \(residual 5\.000e-01\)"):
            perturbed_inverse(G_DIAG, np.diag([1.1, 0.0]))

    def test_classification_matches_transversality(self):
        for tbar in (np.diag([1.1, 0.0]), np.diag([1.0, 0.1]), np.array([[1, 0.05], [0, 0.0]])):
            result = perturbed_inverse(G_DIAG, tbar)
            expected = transversal(tbar, G_DIAG)
            assert (result.classification is InverseVerdict.GENERALIZED) == expected

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.sampled_from(["aligned", "switched", "full"]))
    def test_factorizations_agree(self, seed, case):
        rng = np.random.default_rng(seed)
        t, tbar = perturbation_instance(rng, case)
        g = mp_inverse(t)
        result = perturbed_inverse(g, tbar)
        dt = tbar - t
        n, m = g.tplus.shape[0], g.tplus.shape[1]
        left = solve(np.eye(n, dtype=complex) + g.tplus @ dt, g.tplus)
        assert op_norm2(result.b - left) <= 1e-10 * max(op_norm2(left), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.sampled_from(["aligned", "switched", "full"]))
    def test_outer_axiom_and_neumann_bound(self, seed, case):
        rng = np.random.default_rng(seed)
        t, tbar = perturbation_instance(rng, case)
        g = mp_inverse(t)
        result = perturbed_inverse(g, tbar)
        assert result.outer_residual <= 1e-10
        bound = (
            op_norm2(g.tplus) ** 2 * op_norm2(tbar - t) / (1.0 - result.smallness)
        )
        assert op_norm2(result.b - g.tplus) <= bound * (1 + 1e-8)


class TestStabilityVerdicts:
    def test_unperturbed_all_true(self):
        result = perturbed_inverse(G_DIAG, np.diag([1.0, 0.0]))
        assert result.as_tuple() == (True, True, True, True)

    def test_rank_increase_all_false(self):
        result = perturbed_inverse(G_DIAG, np.diag([1.0, 0.1]))
        assert result.as_tuple() == (False, False, False, False)
        assert result.agree

    def test_sheared_perturbation_all_true(self):
        result = perturbed_inverse(G_DIAG, np.array([[1.0, 0.05], [0.0, 0.0]]))
        assert result.as_tuple() == (True, True, True, True)

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.sampled_from(["aligned", "switched", "full"]))
    def test_four_way_agreement(self, seed, case):
        rng = np.random.default_rng(seed)
        t, tbar = perturbation_instance(rng, case)
        assert perturbed_inverse(mp_inverse(t), tbar).agree


class TestEquivalence:
    def test_unperturbed_agrees(self):
        g2 = user_supplied(np.diag([1.0, 0.0]), np.array([[1.0, 0.0], [1.0, 0.0]]))
        report = equivalence_check(np.diag([1.0, 0.0]), G_DIAG, g2, perturbation_bound=0.1)
        assert report.verdict1 and report.verdict2 and report.agree

    def test_full_rank_perturbation_both_false(self):
        g2 = user_supplied(np.diag([1.0, 0.0]), np.array([[1.0, 0.0], [1.0, 0.0]]))
        report = equivalence_check(np.diag([1.0, 1e-3]), G_DIAG, g2, perturbation_bound=0.01)
        assert (report.verdict1, report.verdict2, report.agree) == (False, False, True)

    def test_range_preserving_both_true(self):
        g2 = user_supplied(np.diag([1.0, 0.0]), np.array([[1.0, 0.0], [1.0, 0.0]]))
        report = equivalence_check(np.diag([1 + 1e-3, 0.0]), G_DIAG, g2, perturbation_bound=0.01)
        assert (report.verdict1, report.verdict2, report.agree) == (True, True, True)

    def test_mismatched_base_operator(self):
        other = mp_inverse(np.diag([2.0, 0.0]))
        with pytest.raises(ShapeMismatchError):
            equivalence_check(np.diag([1.0, 0.0]), G_DIAG, other, perturbation_bound=0.1)

    def test_bound_exceeded(self):
        g2 = user_supplied(np.diag([1.0, 0.0]), np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(PerturbationTooLargeError):
            equivalence_check(np.diag([1.5, 0.0]), G_DIAG, g2, perturbation_bound=0.1)

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.sampled_from(["aligned", "switched"]))
    def test_agreement_for_small_framed_perturbations(self, seed, case):
        rng = np.random.default_rng(seed)
        t, tbar = perturbation_instance(rng, case)
        g1 = mp_inverse(t)
        g2 = random_complement_inverse(rng, t)
        report = equivalence_check(tbar, g1, g2, perturbation_bound=np.inf)
        assert report.agree


class TestSmallness:
    def test_value(self):
        assert smallness_of(G_DIAG, np.diag([1.0, 0.5])) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            smallness_of(G_DIAG, np.zeros((3, 3)))
