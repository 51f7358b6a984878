"""The full-rank screen of linalg against the SVD path it stands in for.

A stack the screen certifies is not factored, so every rank, marginal flag
and singularity verdict must be the one the values-only SVD would give. The
stacks here put the smallest singular value at exact rank deficiency, at
the rank cutoff, at 10x the cutoff (the marginal rule) and at the screen's
own threshold, at entry scales inside and outside the range it runs on.
The screen runs in the grid rank pass, ``chunked_stage`` run on the stage
of ``rank_stage``, and in ``solve_stack``; ``split_ranks`` itself always
takes the SVD. Without a product every chunk of the rank pass has the
screened length, screened or not.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genresolvent import SingularSystemError, TolerancePolicy
from genresolvent import linalg
from genresolvent.linalg import (
    EPS,
    SCREEN_LIVE,
    SCREEN_SLACK,
    _full_rank_certified,
    chunked_stage,
    empty_basis,
    rank_stage,
    solve_stack,
    split_ranks,
)
from helpers import complex_gaussian, rect_diag, unitary

ROOT = Path(__file__).resolve().parent.parent

RTOLS = (EPS, 1e-8, 1e-3, 0.05, 0.5)
# 1e-160 and 1e150 put ||A||_F^2 outside SCREEN_RANGE; 1e+-140 stay inside
SCALES = (1.0, 1e-160, 1e150, 1e-140, 1e140)
# sigma_min over the cutoff, for sigma_max = 1; "screen" is the screen's threshold
PLACES = (0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0, 10.0 * (1 - 1e-9), 10.0, 10.0 * (1 + 1e-9),
          100.0, "screen-", "screen", "screen+", 1e3, 1e12)


def member(rng, m, n, rtol, place):
    """An m x n matrix with sigma_max 1 and sigma_min set by place."""
    p = min(m, n)
    sigmas = np.ones(p)
    if p > 1:
        sigmas[1:-1] = rng.uniform(0.3, 1.0, p - 2)
        if place in ("screen-", "screen", "screen+"):
            # sigma_min = ratio * ||A||_F, solved for sigma_min
            ratio = 10.0 * rtol * max(m, n) * (1.0 + SCREEN_SLACK) + SCREEN_SLACK
            rest = float(np.sum(sigmas[:-1] ** 2))
            low = ratio * np.sqrt(rest / (1.0 - ratio**2)) if ratio < 1.0 else 1.0
            low *= {"screen-": 1.0 - 1e-6, "screen": 1.0, "screen+": 1.0 + 1e-6}[place]
        else:
            low = place * rtol * max(m, n)
        sigmas[-1] = min(low, 1.0)
    return unitary(rng, m) @ rect_diag(m, n, sigmas) @ unitary(rng, n).conj().T


@st.composite
def stacks(draw):
    m, n = draw(st.sampled_from([(1, 1), (2, 2), (5, 5), (7, 7), (6, 3), (7, 2), (3, 6), (2, 7)]))
    rtol = draw(st.sampled_from(RTOLS))
    scale = draw(st.sampled_from(SCALES))
    places = draw(st.lists(st.sampled_from(PLACES), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([member(rng, m, n, rtol, place) for place in places]) * scale
    return stack, TolerancePolicy(rank_rtol=rtol)


def svd_path():
    """The screen switched off: every stack takes the values-only SVD."""
    return mock.patch.object(linalg, "_full_rank_certified", lambda stack, tol, gram=None: False)


def no_products(m, n):
    """The right and left bases of a rank pass that forms no product."""
    return empty_basis(n), empty_basis(m)


def copying(stack, built=None, addresses=None):
    """A chunked_stage build callback that copies stack[part] into the
    workspace, recording each part and the address it was written to."""

    def build(part, out):
        if built is not None:
            built.append(part)
        if addresses is not None:
            addresses.append(out.__array_interface__["data"][0])
        assert out.flags.c_contiguous and out.shape == (part.stop - part.start,) + stack.shape[1:]
        out[...] = stack[part]
        return out

    return build


def solve_outcome(a, tol):
    b = np.eye(a.shape[1], dtype=np.complex128)
    try:
        return solve_stack(a, b, tol)
    except SingularSystemError as exc:
        return str(exc), exc.cond_estimate


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_screen_agrees_with_the_svd(case):
    stack, tol = case
    k, m, n = stack.shape
    stage = rank_stage((m, n), tol, *no_products(m, n))
    screened = chunked_stage(copying(stack), k, (m, n), *stage)
    solved = solve_outcome(stack, tol) if m == n else None
    with svd_path():
        stage = rank_stage((m, n), tol, *no_products(m, n))
        reference = chunked_stage(copying(stack), k, (m, n), *stage)
        solved_reference = solve_outcome(stack, tol) if m == n else None
    for got, want in zip(screened, reference):
        np.testing.assert_array_equal(got, want)
    if m == n:
        if isinstance(solved, np.ndarray):
            np.testing.assert_array_equal(solved, solved_reference)
        else:
            assert solved == solved_reference
    if _full_rank_certified(stack, tol):
        s = np.linalg.svd(stack, compute_uv=False)
        assert np.all(s[:, -1] > 10.0 * tol.rank_rtol * max(m, n) * s[:, 0])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(PLACES), min_size=1, max_size=12),
    st.sampled_from([(4, 4), (5, 3), (3, 5)]),
    st.sampled_from(RTOLS),
    st.integers(0, 2**32 - 1),
)
def test_chunked_ranks_agree_with_the_svd(places, shape, rtol, seed):
    """Chunks of 2 matrices, screened or not, so runs of full-rank and
    deficient members switch the screen on and off between chunks."""
    m, n = shape
    rng = np.random.default_rng(seed)
    stack = np.stack([member(rng, m, n, rtol, place) for place in places])
    tol = TolerancePolicy(rank_rtol=rtol)
    built = []
    with mock.patch.object(linalg, "CHUNK_BYTES", 2 * (1 + SCREEN_LIVE) * 16 * max(m, n) ** 2):
        ranks, _, _, marginal = chunked_stage(copying(stack, built), len(stack), shape,
                                              *rank_stage(shape, tol, *no_products(m, n)))
    with svd_path():
        reference = split_ranks(stack, empty_basis(n), empty_basis(m), tol)
    np.testing.assert_array_equal(ranks, reference[0])
    np.testing.assert_array_equal(marginal, reference[3])
    assert built == [slice(start, min(start + 2, len(stack))) for start in range(0, len(stack), 2)]


def test_chunked_ranks_build_every_chunk_into_one_workspace():
    """Screened chunks of 2, the one-matrix probe on the first, and an
    unscreened chunk (after a screened chunk of deficient members) are all
    built into the same memory, and every Gram into one array."""
    rng = np.random.default_rng(6)
    places = [1e12, 1e12, 0.0, 0.0] + [1e12] * 10
    stack = np.stack([member(rng, 4, 4, EPS, place) for place in places])
    built, addresses, screened, grams = [], [], [], []
    certified = linalg._full_rank_certified

    def spying(stack, tol, gram=None):
        grams.append(gram.__array_interface__["data"][0])
        screened.append((len(stack), certified(stack, tol, gram)))
        return screened[-1][1]

    with mock.patch.object(linalg, "CHUNK_BYTES", 2 * (1 + SCREEN_LIVE) * 16 * 4 ** 2), \
            mock.patch.object(linalg, "_full_rank_certified", spying):
        ranks, _, _, marginal = chunked_stage(
            copying(stack, built, addresses), len(stack), (4, 4),
            *rank_stage((4, 4), TolerancePolicy(), *no_products(4, 4)),
        )
    assert built == [slice(start, start + 2) for start in range(0, 14, 2)]
    assert len(set(addresses)) == 1
    # the probe, two screened chunks, the unscreened one, then four screened
    assert screened == [(1, True), (2, True), (2, False)] + [(2, True)] * 4
    assert len(set(grams)) == 1
    assert ranks.tolist() == [4, 4, 3, 3] + [4] * 10
    assert not marginal.any()


@pytest.mark.parametrize("sides", ["right", "left", "both"])
def test_chunked_ranks_with_products_never_screen(sides):
    """A pass with products cuts chunks for one matrix per member and one
    per product, as linalg.chunks cuts them, builds each into one
    workspace, never runs the screen and returns split_ranks of the whole
    stack, full-rank runs included."""
    m, n = 5, 4
    rng = np.random.default_rng(8)
    places = [1e12, 1e12, 0.0, 10.0, 1e12, 0.5, 1e12, 1e12, 1e12, 0.0, 1e12, 2.0, 1e12]
    stack = np.stack([member(rng, m, n, EPS, place) for place in places])
    right = unitary(rng, n)[:, :2] if sides != "left" else empty_basis(n)
    left = unitary(rng, m)[:, :3] if sides != "right" else empty_basis(m)
    products = (sides != "left") + (sides != "right")
    built, addresses = [], []
    with mock.patch.object(linalg, "CHUNK_BYTES", 6 * 16 * max(m, n) ** 2), \
            mock.patch.object(linalg, "_full_rank_certified",
                              wraps=linalg._full_rank_certified) as screen:
        split = chunked_stage(copying(stack, built, addresses), len(stack), (m, n),
                              *rank_stage((m, n), TolerancePolicy(), right, left))
        lengths = [part.stop - part.start
                   for part in linalg.chunks(len(stack), (1 + products) * 16 * max(m, n) ** 2)]
    assert screen.call_count == 0
    for got, want in zip(split, split_ranks(stack, right, left)):
        np.testing.assert_array_equal(got, want)
    assert [part.stop - part.start for part in built] == lengths
    assert len(lengths) > 2
    assert [part.start for part in built] == [0] + [part.stop for part in built[:-1]]
    assert len(set(addresses)) == 1


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page faults")
def test_a_fresh_process_scan_does_not_fault_through_its_chunks():
    """A one-shot 61 x 61 scan at n = 50 keeps its chunk memory: an allocator
    that trims freed chunks back to the system faults every chunk in again,
    about 60,000 minor faults where a kept workspace takes a few hundred."""
    script = (
        "import resource\n"
        "import numpy as np\n"
        "from helpers import normal_pencil, off_lattice\n"
        "from genresolvent.criteria import generalized_spectrum_scan, rectangular_region\n"
        "rng = np.random.default_rng(1)\n"
        "p = normal_pencil(rng, off_lattice(rng, 50))\n"
        "region = rectangular_region(-3.0, 3.0, -3.0, 3.0, 61)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "generalized_spectrum_scan(p, region)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")])
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 10_000


@pytest.mark.parametrize("scale", [1.0, 1e-140, 1e140])
@pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6)])
def test_screen_certifies_well_conditioned_stacks(scale, shape):
    rng = np.random.default_rng(3)
    stack = np.stack([member(rng, *shape, EPS, 1e12) for _ in range(3)]) * scale
    assert _full_rank_certified(stack, TolerancePolicy())


@pytest.mark.parametrize("scale", [1e-160, 1e150])
def test_screen_declines_near_under_and_overflow(scale):
    stack = np.eye(4, dtype=np.complex128)[None] * scale
    assert not _full_rank_certified(stack, TolerancePolicy())


def test_one_singular_member_sends_the_whole_stack_to_the_svd():
    rng = np.random.default_rng(4)
    stack = complex_gaussian(rng, (3, 5, 5))
    stack[1, :, 0] = 0.0
    assert _full_rank_certified(stack[[0, 2]], TolerancePolicy())
    assert not _full_rank_certified(stack, TolerancePolicy())
    ranks = split_ranks(stack, empty_basis(5), empty_basis(5))[0]
    assert ranks.tolist() == [5, 4, 5]


def test_cholesky_raises_for_the_whole_batch():
    """The screen's fallback rests on this: one member that is not positive
    definite makes the batched call raise, whatever the others are."""
    batch = np.stack([np.eye(3), np.diag([1.0, -1e-300, 1.0]), 2.0 * np.eye(3)]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(batch)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(batch[::-1])
