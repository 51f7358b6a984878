"""Tests for the dense linear algebra substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genresolvent import (
    DEFAULT_TOL,
    FactorizationError,
    ShapeMismatchError,
    SingularSystemError,
    SubspaceBasis,
    TolerancePolicy,
    as_matrix,
    factor,
    full_subspace,
    numerical_rank,
    op_norm2,
    pinv_matrix,
    rank_and_marginal,
    solve,
    svd,
    zero_subspace,
)
from genresolvent import linalg
from genresolvent.linalg import (
    bounded_residuals,
    exact_maximum,
    frobenius_norms,
    norm_lower_bounds,
    norm_upper_bounds,
    op_norms2,
    relative_residuals,
    residual_bounds,
    residual_lower_bounds,
    split_ranks,
    split_verdicts,
)
from helpers import complex_gaussian, random_rank_matrix, span, subspace_gap, unitary

seeds = st.integers(0, 2**32 - 1)


E1 = span([1, 0])
E2 = span([0, 1])
DIAG_HALVES = np.array([[1, 1], [1, 1]], dtype=complex)


class TestValidation:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeMismatchError):
            as_matrix([1, 2, 3])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_result_is_read_only(self):
        a = as_matrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            a[0, 0] = 5

    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rank_rtol=0.0)

    @pytest.mark.parametrize("field", ["rank_rtol", "residual_tol", "gap_tol"])
    @pytest.mark.parametrize("value", [0.0, 1.0, 2.0, np.nan, np.inf])
    def test_tolerances_lie_in_the_open_unit_interval(self, field, value):
        # 1 or more decides nothing: gaps never exceed 1, the zero inverse
        # has inner residual 1, and rank_rtol 1 puts the cutoff at sigma_max
        with pytest.raises(ValueError, match=field):
            TolerancePolicy(**{field: value})


class TestSvd:
    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])

    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((2, 2)))
        assert np.allclose(s, [0.0, 0.0])

    def test_nilpotent(self):
        # singular values are the square roots of the eigenvalues of A^H A
        _, s, _ = svd([[0, 2], [0, 0]])
        assert np.allclose(s, [2.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatchError):
            svd(np.zeros((0, 2)))

    def test_non_convergence_raises_factorization_error(self, monkeypatch):
        """LAPACK's failure to converge is the package's FactorizationError,
        its message kept, not NumPy's LinAlgError."""
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(FactorizationError, match="svd did not converge: SVD did not converge"):
            svd(np.eye(2))

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.integers(1, 8), st.integers(1, 8))
    def test_reconstruction(self, seed, m, n):
        a = complex_gaussian(np.random.default_rng(seed), (m, n))
        u, s, vh = svd(a)
        d = np.zeros((m, n))
        d[: min(m, n), : min(m, n)] = np.diag(s)
        assert op_norm2(a - u @ d @ vh) <= DEFAULT_TOL.residual_tol * max(op_norm2(a), 1e-12)

    def test_reconstruction_large(self):
        a = complex_gaussian(np.random.default_rng(7), (50, 50))
        u, s, vh = svd(a)
        assert op_norm2(a - u @ np.diag(s) @ vh) <= DEFAULT_TOL.residual_tol * op_norm2(a)


class TestRank:
    def test_diagonal(self):
        assert numerical_rank(np.diag([1.0, 0.0])) == 1

    def test_below_cutoff_is_zero(self):
        assert numerical_rank(np.diag([1.0, 1e-18])) == 1

    def test_single_nonzero_row(self):
        assert numerical_rank([[1, -0.3], [0, 0]]) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 2))) == 0

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.integers(1, 7), st.integers(1, 7))
    def test_rank_nullity(self, seed, m, n):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(0, min(m, n) + 1))
        a = random_rank_matrix(rng, m, n, rank)
        assert numerical_rank(a) + factor(a).kernel.dim == n


class TestSubspaces:
    def test_kernel_range_diagonal(self):
        a = np.diag([1.0, 0.0])
        assert subspace_gap(factor(a).kernel, E2) <= 1e-12
        assert subspace_gap(factor(a).range, E1) <= 1e-12

    def test_invertible_has_trivial_kernel(self):
        a = complex_gaussian(np.random.default_rng(1), (4, 4))
        assert factor(a).kernel.dim == 0
        assert factor(a).range.dim == 4

    def test_rank_one_symmetric(self):
        ker, rng_b = factor(DIAG_HALVES).kernel, factor(DIAG_HALVES).range
        assert subspace_gap(ker, span([1, -1])) <= 1e-12
        assert subspace_gap(rng_b, span([1, 1])) <= 1e-12
        assert op_norm2(DIAG_HALVES @ ker.basis) <= 1e-12

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            SubspaceBasis(2, np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize(
        "ambient,basis,message",
        [
            (3, np.eye(2), "basis has 2 rows, ambient is 3"),
            (1, np.eye(2), "basis has 2 rows, ambient is 1"),
            (2, np.ones((2, 3)) / np.sqrt(2), "more basis columns than ambient dimension"),
        ],
        ids=["fewer-rows", "more-rows", "more-columns"],
    )
    def test_shape_enforced(self, ambient, basis, message):
        with pytest.raises(ShapeMismatchError, match=message):
            SubspaceBasis(ambient, basis)

    def test_public_constructor_still_validates_factor_columns(self):
        a_factor = factor(random_rank_matrix(np.random.default_rng(3), 5, 4, 2))
        assert SubspaceBasis(5, a_factor.range.basis).dim == 2
        with pytest.raises(ValueError, match="not orthonormal"):
            SubspaceBasis(5, 2.0 * a_factor.range.basis)
        with pytest.raises(ValueError, match="not orthonormal"):
            SubspaceBasis(4, a_factor.kernel.basis + 1e-3)

    @pytest.mark.parametrize("shape,rank", [((5, 4), 2), ((3, 6), 3), ((4, 4), 0), ((0, 3), 0)])
    def test_factor_bases_are_read_only_copies(self, shape, rank):
        m, n = shape
        a_factor = factor(random_rank_matrix(np.random.default_rng(4), m, n, rank))
        kernel, rng = a_factor.kernel, a_factor.range
        assert (kernel.ambient_dim, kernel.dim) == (n, n - rank)
        assert (rng.ambient_dim, rng.dim) == (m, rank)
        for basis, expected in ((kernel.basis, a_factor.vh[rank:].conj().T),
                                (rng.basis, a_factor.u[:, :rank])):
            assert basis.dtype == np.complex128
            assert basis.flags.c_contiguous
            assert not basis.flags.writeable
            assert not np.shares_memory(basis, a_factor.u)
            assert not np.shares_memory(basis, a_factor.vh)
            assert np.array_equal(basis, expected)
            if basis.size:
                with pytest.raises(ValueError):
                    basis[0, 0] = 1.0


# shape -> (ambient_dim, dim) of the kernel and of the range (= column span)
EMPTY_AND_ZERO = {
    (0, 3): ((3, 3), (0, 0)),
    (3, 0): ((0, 0), (3, 0)),
    (0, 0): ((0, 0), (0, 0)),
    (2, 3): ((3, 3), (2, 0)),
}


@pytest.mark.parametrize("shape", list(EMPTY_AND_ZERO))
def test_empty_and_zero_matrices(shape):
    """The kernel of 0x3 is all of C^3, the range of 3x0 is {0} in C^3, and so on."""
    a = np.zeros(shape)
    kernel, rng = EMPTY_AND_ZERO[shape]
    a_factor = factor(a)
    assert (a_factor.kernel.ambient_dim, a_factor.kernel.dim) == kernel
    assert (a_factor.range.ambient_dim, a_factor.range.dim) == rng
    b = pinv_matrix(a)
    assert b.shape == shape[::-1]
    assert not np.any(b)


class TestNorm:
    def test_identity(self):
        assert op_norm2(np.eye(3)) == 1.0

    @pytest.mark.parametrize("bound", [norm_upper_bounds, norm_lower_bounds, frobenius_norms])
    @pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 3), (2, 3, 0)])
    def test_empty_stacks_have_zero_bounds(self, bound, shape):
        """No matrices give no bounds, and matrices with no entries bound zero,
        without forming a peak-scaled copy."""
        got = bound(np.zeros(shape, dtype=np.complex128))
        assert got.shape == (shape[0],)
        assert not got.any()

    def test_diagonal(self):
        assert op_norm2(np.diag([1.0, 2.0])) == 2.0

    def test_nilpotent(self):
        assert op_norm2([[0, 3], [0, 0]]) == pytest.approx(3.0)

    @settings(max_examples=120, deadline=None)
    @given(
        seeds,
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(1, 6),
        st.sampled_from(["random", "rank-one", "rank-deficient", "with-zero", "zero"]),
        st.sampled_from([1.0, 1e-160, 1e150]),
    )
    def test_screen_bounds_enclose_the_spectral_norm(self, seed, k, m, n, kind, scale):
        """lower <= ||X||_2 <= upper against the computed SVD value, also where
        unscaled products would underflow (1e-160) or overflow (1e150), and each
        bound within its proven factor of the norm: sqrt(n) below, min(m, n)^(1/4)
        above, and min(m, n)^(1/128) for the full-rank cover's Schatten bound."""
        rng = np.random.default_rng(seed)
        rank = {"rank-one": 1, "rank-deficient": max(min(m, n) - 1, 1)}.get(kind, min(m, n))
        stack = complex_gaussian(rng, (k, m, rank)) @ complex_gaussian(rng, (k, rank, n))
        if kind == "with-zero":
            stack[rng.integers(k)] = 0.0
        elif kind == "zero":
            stack[:] = 0.0
        stack *= scale
        norms = op_norms2(stack)
        lower, upper = norm_lower_bounds(stack), norm_upper_bounds(stack)
        assert np.all(lower <= norms) and np.all(norms <= upper)
        assert np.all(lower >= norms / np.sqrt(n) * (1.0 - 1e-3))
        assert np.all(upper <= norms * min(m, n) ** 0.25 * (1.0 + 1e-3))
        schatten = norm_upper_bounds(stack, linalg.COVER_SQUARINGS)
        assert np.all(norms <= schatten)
        assert np.all(schatten <= norms * min(m, n) ** (1 / 128) * (1.0 + 1e-3))

    @pytest.mark.parametrize("bound", [norm_lower_bounds, norm_upper_bounds, frobenius_norms])
    def test_bounds_read_a_stack_whose_last_axis_is_not_contiguous(self, bound):
        """A transposed view, as solve_right_stack returns, is bounded as its
        C-contiguous copy is."""
        view = complex_gaussian(np.random.default_rng(5), (3, 5, 4)).swapaxes(1, 2)
        np.testing.assert_array_equal(bound(view), bound(np.ascontiguousarray(view)))

    @pytest.mark.parametrize("bound", [norm_lower_bounds, norm_upper_bounds, frobenius_norms])
    def test_bounds_of_a_matrix_with_a_subnormal_peak(self, bound):
        """The reciprocal of a subnormal peak can overflow, so such a matrix is
        divided by its peak: its bound is finite, no NaN or overflow arises,
        and it is the bound of the same matrix scaled exactly into the normal
        range. The other members keep their bounds bit for bit."""
        normal = complex_gaussian(np.random.default_rng(6), (4, 3))
        stack = np.stack([normal, normal * 1e-310, np.zeros((4, 3))])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            bounds = bound(stack)
        lifted = bound(stack[1:2] * 2.0**600)[0] / 2.0**600
        assert bounds[0] == bound(normal[None])[0]
        assert 0.0 < bounds[1] == pytest.approx(lifted, rel=1e-12)
        assert bounds[2] == 0.0

    @pytest.mark.parametrize("bound", [norm_upper_bounds, frobenius_norms])
    def test_a_real_stack_with_a_subnormal_peak_stays_real(self, bound):
        """A real stack is scaled into a real copy, with no complex value cast
        to real on the way (NumPy's ComplexWarning), and bounds as the same
        stack in complex form does."""
        stack = (1e-323 * np.eye(3))[None]
        assert bound(stack)[0] == bound(stack + 0j)[0] > 0.0

    def test_bounded_residuals_are_exact_only_where_neither_bound_decides(self):
        """Each member keeps its upper bound where that is at most the limit,
        takes its lower bound where that exceeds the limit, and otherwise its
        exact relative residual, bit for bit; the mask names the exact ones.
        The first limit sits strictly between member 3's exact residual and
        its upper bound, so that member is exact and passes; the second
        between member 4's lower bound and its exact residual, so that member
        is exact and fails."""
        rng = np.random.default_rng(7)
        scales = complex_gaussian(rng, (6, 5, 4))
        deviations = complex_gaussian(rng, (6, 5, 4)) * np.logspace(-12, -2, 6)[:, None, None]
        deviations[1] = 0.0
        bounds = residual_bounds(deviations, scales)
        lower = residual_lower_bounds(deviations, scales)
        exact = relative_residuals(deviations, scales)
        assert np.all(lower <= exact) and np.all(exact <= bounds)
        assert exact[3] < bounds[3] and lower[4] < exact[4]
        for limit, member in (((exact[3] + bounds[3]) / 2, 3), ((lower[4] + exact[4]) / 2, 4)):
            values, got, taken = bounded_residuals(deviations, scales, limit)
            np.testing.assert_array_equal(got, bounds)
            np.testing.assert_array_equal(taken, (bounds > limit) & ~(lower > limit))
            assert np.flatnonzero(taken).tolist() == [member]
            np.testing.assert_array_equal(
                values, np.where(bounds <= limit, bounds, np.where(lower > limit, lower, exact)))
            assert values[1] == 0.0 and not taken[1]

    @settings(max_examples=100, deadline=None)
    @given(seeds, st.integers(1, 4), st.integers(1, 6), st.integers(0, 4),
           st.sampled_from(["random", "rank-one", "tall", "wide", "subnormal"]))
    def test_residual_bounds_enclose_the_relative_residuals(self, seed, k, side, extra, kind):
        """residual_lower_bounds <= relative_residuals <= residual_bounds
        against the computed SVD values, on random, rank-one, tall and wide
        stacks, and where a subnormal peak takes _peak_scaled's division:
        one member's deviation and scale both subnormal, another's deviation
        alone."""
        rng = np.random.default_rng(seed)
        shapes = {"tall": (side + extra, side), "wide": (side, side + extra)}
        m, n = shapes.get(kind, (side, side + extra // 2))
        rank = 1 if kind == "rank-one" else min(m, n)
        deviations = complex_gaussian(rng, (k, m, rank)) @ complex_gaussian(rng, (k, rank, n))
        scales = complex_gaussian(rng, (k, m, n))
        if kind == "subnormal":
            deviations[0] *= 1e-310
            scales[0] *= 1e-310
            deviations[-1] *= 1e-310
        exact = relative_residuals(deviations, scales)
        assert np.all(residual_lower_bounds(deviations, scales) <= exact)
        assert np.all(exact <= residual_bounds(deviations, scales))

    @settings(max_examples=100, deadline=None)
    @given(seeds, st.integers(1, 4), st.integers(1, 7), st.integers(1, 7),
           st.sampled_from(["random", "rank-one", "subnormal"]))
    def test_lower_bounds_start_from_a_column_of_largest_norm(self, seed, k, m, n, kind):
        """On untied inputs norm_lower_bounds is, bit for bit, its power step
        from the column of largest norm that one strided sum over the rows
        and the (re, im) pairs at once picks, on the matrices scaled where
        needed: unscaled where ||X||_F^6 lies inside SCREEN_RANGE, and where
        a subnormal peak takes _peak_scaled's division."""
        rng = np.random.default_rng(seed)
        rank = 1 if kind == "rank-one" else min(m, n)
        stack = complex_gaussian(rng, (k, m, rank)) @ complex_gaussian(rng, (k, rank, n))
        if kind == "subnormal":
            stack[0] *= 1e-310
        peak, scaled, _ = linalg._scaled_where_needed(stack, 3)
        unscaled = np.broadcast_to(peak, (k,)) == 1.0
        assert unscaled[1:].all() and unscaled[0] == (kind != "subnormal")
        squares = np.square(scaled.view(np.float64)).reshape(k, m, n, 2).sum(axis=(1, 3))
        first = scaled[np.arange(k), :, squares.argmax(axis=1)]
        step = np.conjugate(first)[:, None, :] @ scaled
        image = scaled @ np.conjugate(step).swapaxes(1, 2)
        ratio = np.sqrt(linalg._squared_norms(image) / linalg._squared_norms(step))
        reference = peak * ratio * (1.0 - linalg.NORM_BOUND_SLACK)
        ordered = np.sort(squares, axis=1)
        untied = (n == 1) | (ordered[:, -1] - ordered[:, -2 % n] > 1e-12 * ordered[:, -1])
        assert untied.any()
        np.testing.assert_array_equal(norm_lower_bounds(stack)[untied], reference[untied])

    def test_exact_maximum_takes_a_nan_bound_as_unbounded(self):
        values = [1.0, 3.0, 2.0, 3.0]
        called = []

        def exact(position):
            called.append(position)
            return values[position]

        bounds = np.array([1.5, np.nan, 2.5, 3.5])
        assert exact_maximum(bounds, exact) == (3.0, 1)
        assert called == [1, 3]
        assert exact_maximum(np.zeros(3), exact) == (0.0, None)


class TestGap:
    def test_identical(self):
        assert subspace_gap(E1, E1) == 0.0

    def test_orthogonal_lines(self):
        assert subspace_gap(E1, E2) == pytest.approx(1.0)

    def test_forty_five_degrees(self):
        diag = span([1, 1])
        assert subspace_gap(E1, diag) == pytest.approx(np.sqrt(2) / 2)

    def test_zero_subspaces(self):
        assert subspace_gap(zero_subspace(2), zero_subspace(2)) == 0.0

    def test_dimension_mismatch_gives_one(self):
        assert subspace_gap(full_subspace(2), E1) == pytest.approx(1.0)

    def test_unequal_dimensions_give_exactly_one(self):
        """The projector difference of subspaces of unequal dimension has
        norm 1 in exact arithmetic; computed, it rounds to either side."""
        rng = np.random.default_rng(17)
        unequal = 0
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a, b = (factor(complex_gaussian(rng, (n, int(rng.integers(0, n + 1))))).range
                    for _ in range(2))
            if a.dim != b.dim:
                unequal += 1
                assert subspace_gap(a, b) == 1.0, (a.dim, b.dim)
        assert unequal > 200

    def test_orthogonal_subspaces_of_equal_dimension_give_at_most_one(self):
        """Their projector difference has norm 1 in exact arithmetic, and
        computed it often rounds above; a gap never exceeds 1."""
        rng = np.random.default_rng(18)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, n // 2 + 1))
            q = unitary(rng, n)
            gap = subspace_gap(SubspaceBasis(n, q[:, :d]), SubspaceBasis(n, q[:, d : 2 * d]))
            assert 1.0 - 1e-12 <= gap <= 1.0, (n, d)

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            subspace_gap(E1, span([0, 0, 1]))

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_symmetry_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        subs = [
            factor(random_rank_matrix(rng, n, n, int(rng.integers(0, n + 1)))).range
            for _ in range(3)
        ]
        a, b, c = subs
        assert subspace_gap(a, b) == pytest.approx(subspace_gap(b, a))
        assert subspace_gap(a, c) <= subspace_gap(a, b) + subspace_gap(b, c) + 1e-12


def orthogonal_complement(b: SubspaceBasis) -> np.ndarray:
    return factor(b.basis.conj().T).kernel.basis


def intersection_trivial(m: SubspaceBasis, n: SubspaceBasis) -> bool:
    """M meets N only at 0: R(A) transversal to N for A = M's basis, by the rank kernel."""
    ranks, _, left, _ = split_ranks(m.basis[None], np.zeros((m.dim, 0)), orthogonal_complement(n))
    return bool(left[0] == ranks[0])


def direct_sum_check(m: SubspaceBasis, n: SubspaceBasis) -> bool:
    """M + N is the whole space, direct, read both ways the rank kernel can:
    as the codomain split with R(A) = M and F = N, and as the domain split
    with N(A) = M and E = N. The two must agree."""
    zero, f_perp = np.zeros((m.dim, 0)), orthogonal_complement(n)
    _, _, codomain = split_verdicts(split_ranks(m.basis[None], zero, f_perp), 0, f_perp.shape[1])
    kernel_is_m = orthogonal_complement(m).conj().T
    none = np.zeros((kernel_is_m.shape[0], 0))
    _, domain, _ = split_verdicts(split_ranks(kernel_is_m[None], n.basis, none), n.dim, 0)
    assert domain[0] == codomain[0]
    return bool(codomain[0])


class TestIntersectionAndSums:
    """Hand-made subspace pairs decided by ``split_ranks``, the one rank kernel."""

    def test_orthogonal_lines_trivial(self):
        assert intersection_trivial(E1, E2)

    def test_same_line_not_trivial(self):
        assert not intersection_trivial(E1, E1)

    def test_independent_lines_trivial(self):
        assert intersection_trivial(E1, span([1, 1]))

    def test_zero_subspace_always_trivial(self):
        assert intersection_trivial(E1, zero_subspace(2))
        assert intersection_trivial(zero_subspace(2), E1)
        assert intersection_trivial(zero_subspace(2), zero_subspace(2))

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        a = factor(random_rank_matrix(rng, n, n, int(rng.integers(0, n + 1)))).range
        b = factor(random_rank_matrix(rng, n, n, int(rng.integers(0, n + 1)))).range
        assert intersection_trivial(a, b) == intersection_trivial(b, a)

    def test_direct_sum_standard_axes(self):
        assert direct_sum_check(E1, E2)

    def test_direct_sum_oblique(self):
        assert direct_sum_check(E1, span([1, 1]))

    def test_direct_sum_dimension_deficit(self):
        e1_3 = span([1, 0, 0])
        e2_3 = span([0, 1, 0])
        assert not direct_sum_check(e1_3, e2_3)

    def test_direct_sum_needs_a_trivial_intersection(self):
        assert not direct_sum_check(E1, E1)
        assert direct_sum_check(zero_subspace(2), full_subspace(2))
        assert direct_sum_check(full_subspace(2), zero_subspace(2))

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_tilted_complement_is_a_complement(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        a = factor(complex_gaussian(rng, (n, k))).range
        b = factor(
            factor(a.basis.conj().T).kernel.basis + a.basis @ (0.3 * complex_gaussian(rng, (k, n - k)))
        ).range
        assert direct_sum_check(a, b)
        assert direct_sum_check(b, a)
        assert not direct_sum_check(a, factor(b.basis[:, 1:]).range)

    def test_split_ranks_of_a_stack(self):
        # A = diag(1, 0, 2) and the zero matrix; right = e1 + e2, left = (e2, e3)
        stack = np.array([np.diag([1.0, 0.0, 2.0]), np.zeros((3, 3))], dtype=complex)
        right = np.array([[1.0], [1.0], [0.0]], dtype=complex)
        left = np.eye(3, dtype=complex)[:, 1:]
        ranks, right_ranks, left_ranks, _ = split_ranks(stack, right, left)
        assert ranks.tolist() == [2, 0]
        assert right_ranks.tolist() == [1, 0]
        assert left_ranks.tolist() == [1, 0]

    def test_split_ranks_flags_a_marginal_rank(self):
        # cutoff 2 eps for 2x2 matrices of norm 1: 1e-15 is kept, within 10x of it
        stack = np.array(
            [np.diag([1.0, 1e-15]), np.diag([1.0, 1e-3]), np.diag([1.0, 0.0]), np.zeros((2, 2))],
            dtype=complex,
        )
        none = np.zeros((2, 0), dtype=complex)
        ranks, right_ranks, left_ranks, marginal = split_ranks(stack, none, none)
        assert ranks.tolist() == [2, 2, 1, 0]
        assert marginal.tolist() == [True, False, False, False]
        assert right_ranks.tolist() == left_ranks.tolist() == [0, 0, 0, 0]
        assert [rank_and_marginal(a) for a in stack] == list(zip(ranks.tolist(), marginal.tolist()))


class TestSolve:
    def test_identity(self):
        b = complex_gaussian(np.random.default_rng(0), (3, 2))
        assert np.allclose(solve(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve(np.diag([2.0, 4.0]), np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]))

    def test_reciprocals(self):
        x = solve(np.diag([0.9, 0.8]), np.eye(2))
        assert np.allclose(np.diag(x), [1 / 0.9, 1.25])

    def test_singular_raises_with_condition(self):
        with pytest.raises(SingularSystemError) as err:
            solve(np.diag([1.0, 0.0]), np.eye(2))
        assert err.value.cond_estimate == np.inf or err.value.cond_estimate > 1e15

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatchError):
            solve(np.zeros((2, 3)), np.zeros((2, 2)))
