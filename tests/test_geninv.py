"""Tests for generalized-inverse construction and verification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genresolvent import (
    ComplementPair,
    InvalidComplementError,
    InvalidInverseError,
    InverseKind,
    InverseVerdict,
    ShapeMismatchError,
    complements_of,
    factor,
    full_subspace,
    geninv_from_complements,
    mp_inverse,
    op_norm2,
    relative_residual,
    user_supplied,
    verify_gen_inverse,
    verify_mp_axioms,
    zero_subspace,
)
from genresolvent.geninv import mp_axiom_deviations
from helpers import (
    complex_gaussian,
    random_complement_inverse,
    random_complements,
    random_rank_matrix,
    span,
    subspace_gap,
)

seeds = st.integers(0, 2**32 - 1)

T_RANK1 = np.array([[1.0, 0.0], [0.0, 0.0]])
B_OBLIQUE = np.array([[1.0, 0.0], [1.0, 0.0]])


class TestMoorePenrose:
    def test_projector_is_self_inverse(self):
        g = mp_inverse(np.diag([1.0, 0.0]))
        assert np.allclose(g.tplus, np.diag([1.0, 0.0]))
        assert g.kind is InverseKind.MOORE_PENROSE

    def test_invertible_diagonal(self):
        g = mp_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(g.tplus, np.diag([0.5, 0.25]))

    def test_rank_one_hermitian(self):
        # rank-1 Hermitian a: pinv = a^H / ||a||_F^2 = a / 4
        g = mp_inverse(np.ones((2, 2)))
        assert np.allclose(g.tplus, np.full((2, 2), 0.25))

    def test_zero_matrix(self):
        g = mp_inverse(np.zeros((2, 3)))
        assert g.tplus.shape == (3, 2)
        assert not np.any(g.tplus)

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.integers(1, 7), st.integers(1, 7))
    def test_mp_axioms_hold(self, seed, m, n):
        rng = np.random.default_rng(seed)
        t = random_rank_matrix(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
        g = mp_inverse(t)
        report = verify_mp_axioms(t, g.tplus)
        assert report.ok


class TestFromComplements:
    def test_orthogonal_complements_recover_mp(self):
        g = geninv_from_complements(
            np.diag([1.0, 0.0]), ComplementPair(e=span([1, 0]), f=span([0, 1]))
        )
        assert np.allclose(g.tplus, np.diag([1.0, 0.0]))
        assert g.kind is InverseKind.FROM_COMPLEMENTS

    def test_tilted_domain_complement(self):
        # tplus e1 is the unique x in E with t x = e1, i.e. (1, 1); tplus e2 = 0
        g = geninv_from_complements(T_RANK1, ComplementPair(e=span([1, 1]), f=span([0, 1])))
        assert np.allclose(g.tplus, B_OBLIQUE)

    def test_invertible_recovers_inverse(self):
        t = np.array([[2.0, 1.0], [0.0, 3.0]])
        g = geninv_from_complements(t, ComplementPair(e=full_subspace(2), f=zero_subspace(2)))
        assert np.allclose(g.tplus, np.linalg.inv(t))

    def test_invalid_domain_complement_named(self):
        with pytest.raises(InvalidComplementError, match="domain"):
            geninv_from_complements(T_RANK1, ComplementPair(e=span([0, 1]), f=span([0, 1])))

    def test_invalid_codomain_complement_named(self):
        with pytest.raises(InvalidComplementError, match="codomain"):
            geninv_from_complements(T_RANK1, ComplementPair(e=span([1, 1]), f=span([1, 0])))


class TestVerification:
    def test_generalized_projector_pair(self):
        inner, outer, verdict = verify_gen_inverse(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert inner == 0.0 and outer == 0.0
        assert verdict is InverseVerdict.GENERALIZED

    def test_outer_only(self):
        # t b t = diag(1, 0) != t while b t b = b
        _, _, verdict = verify_gen_inverse(np.diag([1.0, 0.1]), np.diag([1.0, 0.0]))
        assert verdict is InverseVerdict.OUTER_ONLY

    def test_inner_only(self):
        # t b t = t while b t b = diag(1, 0) != b
        inner, outer, verdict = verify_gen_inverse(np.diag([1.0, 0.0]), np.eye(2))
        assert inner == 0.0 and outer > 0.5
        assert verdict is InverseVerdict.INNER_ONLY

    def test_twice_the_inverse_fails_both_axioms(self):
        # b = 2 t+ = diag(2, 1, 0): t b t - t = t and b t b - b = b, so both residuals are 1
        t = np.diag([1.0, 2.0, 0.0])
        inner, outer, verdict = verify_gen_inverse(t, np.diag([2.0, 1.0, 0.0]))
        assert inner == 1.0 and outer == 1.0
        assert verdict is InverseVerdict.NEITHER

    def test_zero_candidate_is_outer_only(self):
        _, _, verdict = verify_gen_inverse(np.diag([1.0, 0.5]), np.zeros((2, 2)))
        assert verdict is InverseVerdict.OUTER_ONLY

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            verify_gen_inverse(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_mp_axioms_all_zero(self):
        report = verify_mp_axioms(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert report.ok
        assert max(report.inner_residual, report.outer_residual) == 0.0

    def test_mp_axioms_reject_oblique(self):
        # b t = [[1,0],[1,0]] is idempotent but not Hermitian
        report = verify_mp_axioms(T_RANK1, B_OBLIQUE)
        assert not report.ok
        assert report.q_hermitian_residual > 0.1
        assert report.inner_residual <= 1e-15
        assert report.outer_residual <= 1e-15
        assert report.p_hermitian_residual <= 1e-15

    def test_mp_axioms_true_inverse(self):
        report = verify_mp_axioms(np.diag([2.0, 4.0]), np.diag([0.5, 0.25]))
        assert report.ok

    def test_non_uniqueness_witness(self):
        for b in (np.diag([1.0, 0.0]), B_OBLIQUE):
            _, _, verdict = verify_gen_inverse(T_RANK1, b)
            assert verdict is InverseVerdict.GENERALIZED

    def test_user_supplied_rejects_non_inverse(self):
        with pytest.raises(InvalidInverseError):
            user_supplied(np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [0.0, 1.0]]))


class TestComplementsRoundTrip:
    def test_complements_of_mp(self):
        pair = complements_of(mp_inverse(np.diag([1.0, 0.0])))
        assert subspace_gap(pair.e, span([1, 0])) <= 1e-12
        assert subspace_gap(pair.f, span([0, 1])) <= 1e-12

    def test_complements_of_oblique(self):
        pair = complements_of(user_supplied(T_RANK1, B_OBLIQUE))
        assert subspace_gap(pair.e, span([1, 1])) <= 1e-12
        assert subspace_gap(pair.f, span([0, 1])) <= 1e-12

    def test_complements_of_invertible(self):
        pair = complements_of(mp_inverse(np.array([[2.0, 1.0], [0.0, 3.0]])))
        assert pair.e.dim == 2
        assert pair.f.dim == 0

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(1, 6), st.integers(1, 6))
    def test_round_trip(self, seed, m, n):
        rng = np.random.default_rng(seed)
        t = random_rank_matrix(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
        for g in (mp_inverse(t), random_complement_inverse(rng, t)):
            rebuilt = geninv_from_complements(t, complements_of(g))
            assert relative_residual(rebuilt.tplus - g.tplus, g.tplus) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(1, 6), st.integers(1, 6), st.sampled_from([0.3, 3.0, 30.0]))
    def test_projector_identities(self, seed, m, n, tilt):
        """The inverse of complements tilted by up to 30 (built only if both
        axioms hold) has range e and kernel f; t tplus projects onto R(t)
        along f and tplus t onto e along N(t). Checked by action, not by
        ranks, which rounding of the products decides wrongly at tilt 30."""
        rng = np.random.default_rng(seed)
        t = random_rank_matrix(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
        c = random_complements(rng, t, tilt)
        tplus = geninv_from_complements(t, c).tplus
        e, f, t_factor = c.e.basis, c.f.basis, factor(t)
        assert op_norm2(tplus - e @ (e.conj().T @ tplus)) <= 1e-12 * op_norm2(tplus)
        assert op_norm2(tplus @ f) <= 1e-12 * op_norm2(tplus)
        p, q = t @ tplus, tplus @ t
        scale = op_norm2(t) * op_norm2(tplus)
        for image, want in ((p @ t_factor.range.basis, t_factor.range.basis), (p @ f, 0),
                            (q @ e, e), (q @ t_factor.kernel.basis, 0)):
            assert op_norm2(image - want) <= 1e-12 * scale


def test_one_axiom_has_the_bits_it_has_among_all_four():
    rng = np.random.default_rng(7)
    t, b = complex_gaussian(rng, (2, 4, 3)), complex_gaussian(rng, (2, 3, 4))
    every = list(mp_axiom_deviations(t, b))
    for axiom in range(4):
        (alone,) = mp_axiom_deviations(t, b, (axiom,))
        for got, want in zip(alone, every[axiom]):
            np.testing.assert_array_equal(got, want)
