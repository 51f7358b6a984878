"""The full-rank cover of linalg against the rank pass it stands in front of.

A point the cover certifies is not ranked, so every rank and marginal flag
of a product-free grid pass must be the one the pass gives with the cover
switched off, at every point: the scans compare their points bit for bit
and their ranks and drop flags exactly, and the finite-rank profiles
compare rank and marginal flag for flag. The
pencils put eigenvalues on lattice points and just off them, keep a rank
deficiency at every lam, are rectangular, have s = 0, are scaled near
under- and overflow, or are the Jordan block J_30, whose rank drops far
below the cutoff's reach; the regions include a single point, a single
row, repeated points and points in no order.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genresolvent import DiskGrid, Pencil, TolerancePolicy, finite_rank_criterion, save_matrix
from genresolvent import linalg
from genresolvent.cli import main
from genresolvent.criteria import generalized_spectrum_scan, rectangular_region
from genresolvent.resolvent import grid_pass
from genresolvent.linalg import EPS, SCREEN_LIVE
from helpers import assert_same_scan, framed_pencil, normal_pencil, off_lattice, unitary

ROOT = Path(__file__).resolve().parent.parent
LATTICE = rectangular_region(-3.0, 3.0, -3.0, 3.0, 61)


def full_rank_cover(t, s, lams, tol=TolerancePolicy()):
    """linalg.full_rank_cover of a sequence of points."""
    return linalg.full_rank_cover(t, s, np.asarray(lams, dtype=np.complex128), tol)


def no_cover(t, s, lams, tol):
    """The cover switched off: every point is ranked by the pass, each chunk by the SVD."""
    return np.zeros(len(lams), dtype=bool)


def on_and_off_pencil(scale=1.0, shift=0.0):
    """Order 20: one eigenvalue on a lattice point, one 1e-3 off another,
    the rest off the lattice; with shift, the eigenvalues of the lattice
    moved by shift, each computed as the shifted lattice's points are."""
    eigenvalues = np.concatenate([[LATTICE[1234], LATTICE[2500] + 1e-3],
                                  off_lattice(np.random.default_rng(21), 18)])
    p = normal_pencil(np.random.default_rng(22), eigenvalues + shift)
    return Pencil(p.t * scale, p.s * scale)


def mixed_scale_pencil():
    """Order 20: eigenvalues on, near and off the lattice as above, and 8
    of modulus 1e3 far outside it, so that ||t - mu0 s||_F is about 100
    times the region's width times ||s||_F."""
    far = 1e3 * np.exp(2j * np.pi * np.random.default_rng(31).uniform(size=8))
    eigenvalues = np.concatenate([[LATTICE[1234], LATTICE[2500] + 1e-3],
                                  off_lattice(np.random.default_rng(21), 10), far])
    return normal_pencil(np.random.default_rng(22), eigenvalues)


def shifted_lattice(shift):
    return tuple((np.array(LATTICE) + shift).tolist())


def jordan(n, similar=False):
    t = np.eye(n, k=1, dtype=np.complex128)
    if similar:
        q = unitary(np.random.default_rng(23), n)
        t = q @ t @ q.conj().T
    return Pencil(t, np.eye(n))


def full_rank_t_zero_s():
    t = framed_pencil(np.random.default_rng(24), 9, 9, 9).t
    return Pencil(t, np.zeros((9, 9)))


def unordered():
    return tuple(np.random.default_rng(25).permutation(np.array(LATTICE)).tolist())


PENCILS = {
    "on-and-off-lattice": on_and_off_pencil,
    "scaled-1e150": lambda: on_and_off_pencil(1e150),
    "scaled-1e-150": lambda: on_and_off_pencil(1e-150),
    "shifted-1e4": lambda: on_and_off_pencil(shift=1e4),
    "shifted-1e6": lambda: on_and_off_pencil(shift=1e6),
    "mixed-scale": mixed_scale_pencil,
    "tiny-s": lambda: Pencil(on_and_off_pencil().t, 1e-155 * np.eye(20)),
    "framed-full": lambda: framed_pencil(np.random.default_rng(26), 12, 12, 12),
    "framed-deficient": lambda: framed_pencil(np.random.default_rng(27), 12, 12, 9),
    "framed-switched": lambda: framed_pencil(np.random.default_rng(28), 12, 12, 9, switched=True),
    "wide": lambda: framed_pencil(np.random.default_rng(29), 8, 12, 8),
    "tall": lambda: framed_pencil(np.random.default_rng(30), 12, 8, 8),
    "zero-s": full_rank_t_zero_s,
    "zero-s-singular-t": lambda: Pencil(np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3))),
    "jordan-30": lambda: jordan(30),
    "jordan-30-similar": lambda: jordan(30, similar=True),
}

REGIONS = {
    "lattice": lambda: LATTICE,
    "lattice-1e4": lambda: shifted_lattice(1e4),
    "lattice-1e6": lambda: shifted_lattice(1e6),
    "unit-square": lambda: rectangular_region(-1.0, 1.0, -1.0, 1.0, 41),
    "single-point": lambda: (LATTICE[1234],),
    "single-row": lambda: LATTICE[1830:1891],
    "repeated-points": lambda: LATTICE[1000:1400] + LATTICE[1300:1200:-1] + (LATTICE[1234],) * 5,
    "unordered": unordered,
}

# the pencils the cover certifies much of on every region, the shifted ones
# on their shifted lattice; those whose probe fails, so that the cover stays
# off, on one row; J_30 on [-1, 1]^2
CASES = [pytest.param(pencil, region, id=f"{pencil}-{region}")
         for pencil, regions in (
             ("on-and-off-lattice", REGIONS),
             ("framed-full", ("lattice", "repeated-points")),
             ("wide", ("lattice", "unordered")),
             ("tall", ("lattice", "single-point")),
             ("zero-s", ("lattice", "single-row")),
             ("shifted-1e4", ("lattice-1e4",)),
             ("shifted-1e6", ("lattice-1e6",)),
             ("mixed-scale", ("lattice", "unordered")),
             ("tiny-s", ("lattice", "single-row", "unordered")),
             ("scaled-1e150", ("single-row",)),
             ("scaled-1e-150", ("single-row",)),
             ("framed-deficient", ("single-row",)),
             ("framed-switched", ("single-row",)),
             ("zero-s-singular-t", ("single-row",)),
             ("jordan-30", ("unit-square",)),
             ("jordan-30-similar", ("unit-square",)),
         )
         for region in regions]


def both_ways(monkeypatch, run):
    """run() with the cover and with it switched off."""
    covered = run()
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "full_rank_cover", no_cover)
        plain = run()
    return covered, plain


@pytest.mark.parametrize("pencil,region", CASES)
def test_cover_gives_the_ranks_of_the_plain_pass(monkeypatch, pencil, region):
    p, points = PENCILS[pencil](), REGIONS[region]()
    grid = DiskGrid(max(abs(lam) for lam in points) + 1.0, points)
    for tol in (TolerancePolicy(), TolerancePolicy(rank_rtol=1e-3)):
        covered, plain = both_ways(monkeypatch, lambda: generalized_spectrum_scan(p, points, tol))
        assert_same_scan(covered, plain)
        covered, plain = both_ways(monkeypatch, lambda: finite_rank_criterion(p, grid, tol).profile)
        assert covered == plain


@pytest.mark.parametrize("pencil,least", [("on-and-off-lattice", 0.9), ("framed-full", 0.5),
                                          ("wide", 0.5), ("tall", 0.5), ("zero-s", 1.0),
                                          ("jordan-30-similar", 0.2), ("shifted-1e4", 0.9),
                                          ("shifted-1e6", 0.9), ("mixed-scale", 0.9)])
def test_cover_certifies_most_points_away_from_the_spectrum(pencil, least):
    """The comparisons above are not vacuous: the cover decides most points.
    On the shifted lattices it does so only by expanding each anchor's Gram
    about the region's centre: about 0, the rounding of the expansion is
    on the scale of |lam|^2 ||s||_F^2, far above the margin."""
    p = PENCILS[pencil]()
    region = REGIONS[{"jordan-30-similar": "unit-square", "shifted-1e4": "lattice-1e4",
                      "shifted-1e6": "lattice-1e6"}.get(pencil, "lattice")]()
    certified = full_rank_cover(p.t, p.s, region)
    # the first point is the probe's
    assert certified[0]
    assert certified.mean() >= least


@pytest.mark.parametrize("pencil", ["framed-deficient", "framed-switched", "zero-s-singular-t",
                                    "scaled-1e150", "scaled-1e-150"])
def test_cover_starts_only_after_its_probe_passes(pencil):
    """Rank deficient at every lam, or with ||A||_F^2 outside SCREEN_RANGE:
    both one-matrix probes fail, and the cover certifies nothing."""
    p = PENCILS[pencil]()
    assert not full_rank_cover(p.t, p.s, LATTICE).any()


@pytest.mark.parametrize("pencil,region", [("tiny-s", "lattice"),
                                           ("scaled-1e-150", "lattice-1e4")])
def test_cover_certifies_every_point_where_the_expansion_underflows(pencil, region):
    """||s||_F^2 is about 2e-309 on tiny-s and 2e-299 on the scaled pencil,
    nonzero but below SCREEN_RANGE, so the products of the centred
    expansion lose bits to gradual underflow; the underflow term of each
    box's shift covers them, and every point is certified."""
    p = PENCILS[pencil]()
    assert 0.0 < np.vdot(p.s, p.s).real < linalg.SCREEN_RANGE[0]
    assert full_rank_cover(p.t, p.s, REGIONS[region]()).all()


@pytest.mark.parametrize("k", [100, 146, 147, 155, 161, 162, 200])
def test_cover_certifies_every_point_however_small_s_is(k):
    """s = 10^-k I beside the order-20 on-and-off t: the pencil's
    eigenvalues move out by 10^k, so t - lam s has full rank on the whole
    lattice. From k = 147 the squares of s fall below SCREEN_RANGE, and
    from k = 162 they underflow to 0 though s is not the zero matrix;
    either way the cover certifies every point."""
    p = Pencil(on_and_off_pencil().t, 10.0 ** -k * np.eye(20))
    assert full_rank_cover(p.t, p.s, LATTICE).all()


def test_cover_certifies_every_point_beside_a_real_subnormal_s():
    """s = 1e-323 I as a real array: its norm bound scales it into a real
    copy, casting no complex value to real, and every point is certified."""
    assert full_rank_cover(on_and_off_pencil().t, 1e-323 * np.eye(20), LATTICE).all()


@st.composite
def near_spectra(draw):
    """A normal pencil (t, alpha I) whose eigenvalues sit on points of a
    small lattice and at 10^-e from them, and that lattice, in a random order."""
    steps = draw(st.integers(1, 9))
    extent = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    region = np.array(rectangular_region(-extent, extent, -extent / 2, extent, steps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 7))
    offsets = [draw(st.sampled_from([0.0, 1e-14, 1e-8, 1e-3, 0.3])) for _ in range(n)]
    picks = rng.integers(0, len(region), n)
    eigenvalues = region[picks] + np.array(offsets) * extent * np.exp(2j * np.pi * rng.uniform(size=n))
    alpha = draw(st.sampled_from([1.0, 0.01, 7.0]))
    p = normal_pencil(rng, eigenvalues * alpha)
    order = rng.permutation(len(region)) if draw(st.booleans()) else np.arange(len(region))
    rtol = draw(st.sampled_from([EPS, 1e-8, 1e-3, 0.5]))
    return Pencil(p.t, p.s * alpha), tuple(region[order].tolist()), TolerancePolicy(rank_rtol=rtol)


@settings(max_examples=150, deadline=None)
@given(near_spectra())
def test_cover_agrees_near_eigenvalues(case):
    p, region, tol = case
    covered = generalized_spectrum_scan(p, region, tol)
    original = linalg.full_rank_cover
    linalg.full_rank_cover = no_cover
    try:
        plain = generalized_spectrum_scan(p, region, tol)
    finally:
        linalg.full_rank_cover = original
    assert_same_scan(covered, plain)


@settings(max_examples=60, deadline=None)
@given(near_spectra(), st.sampled_from(["none", "right", "both"]), st.integers(0, 2**32 - 1))
def test_permuted_points_give_permuted_ranks_bit_for_bit(case, products, seed):
    """Each of the four arrays of grid_ranks, with and without products,
    comes back permuted: the cover's boxes depend on the order of the
    points only through its probes, of the first and the last point, and
    every rank and marginal flag is the SVD's wherever the cover stands
    in."""
    p, region, tol = case
    rng = np.random.default_rng(seed)
    (m, n), lams = p.shape, np.array(region)
    right, left = linalg.empty_basis(n), linalg.empty_basis(m)
    if products != "none":
        right = unitary(rng, n)[:, : rng.integers(1, n + 1)]
    if products == "both":
        left = unitary(rng, m)[:, : rng.integers(1, m + 1)]
    order = rng.permutation(len(lams))
    ranked = linalg.grid_ranks(p.t, p.s, lams, right, left, tol)
    permuted = linalg.grid_ranks(p.t, p.s, lams[order], right, left, tol)
    for whole, part in zip(ranked, permuted, strict=True):
        assert np.array_equal(whole[order], part)


def test_cover_builds_its_probe_and_centre_and_the_rank_pass_builds_into_one_workspace(monkeypatch):
    """The cover builds only its probe, the first point, and its centre, the
    midpoint of the region, and writes every anchor's Gram into one array;
    the rank pass then builds every chunk of the three points the cover
    leaves out, two to a chunk, and only those, in their order, into one
    workspace of its own, and factors none by Cholesky."""
    p = mixed_scale_pencil()
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 2 * 16 * 20 ** 2)
    certified = full_rank_cover(p.t, p.s, LATTICE)
    builds = {"cover": [], "pass": []}
    factored = {"cover": [], "pass": []}
    owners = ["pass"]
    build, cover = linalg.pencil_values, linalg.full_rank_cover
    cholesky = np.linalg.cholesky

    def covering(*args):
        owners.append("cover")
        try:
            return cover(*args)
        finally:
            owners.append("pass")

    def building(t, s, lams, out=None):
        address = None if out is None else out.__array_interface__["data"][0]
        builds[owners[-1]].append((lams.tolist(), address))
        return build(t, s, lams, out)

    def factoring(a, *args, **kwargs):
        factored[owners[-1]].append(a)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "full_rank_cover", covering)
    monkeypatch.setattr(linalg, "pencil_values", building)
    monkeypatch.setattr(np.linalg, "cholesky", factoring)
    scan = generalized_spectrum_scan(p, LATTICE)
    assert certified.mean() > 0.9
    assert [points for points, _ in builds["cover"]] == [[LATTICE[0]], [0j]]
    # the probe's Gram is its own; every anchor's is a view of one array
    anchors = factored["cover"][1:]
    assert len(anchors) > 100
    assert len({id(gram.base) for gram in anchors}) == 1
    # one chunk of boxes, sized for 1 + SCREEN_LIVE matrices each, not one Gram per point
    cover_chunk = linalg._chunk_length((1 + SCREEN_LIVE) * 16 * 20 ** 2)
    assert all(gram.base is not None and gram.base.shape[0] == cover_chunk for gram in anchors)
    built = [lam for points, _ in builds["pass"] for lam in points]
    assert built == np.array(LATTICE)[~certified].tolist()
    assert [len(points) for points, _ in builds["pass"]] == [2, 1]
    assert len({address for _, address in builds["pass"]}) == 1
    assert factored["pass"] == []
    assert np.count_nonzero(scan.is_drop) == 1


def test_cover_certifies_no_point_where_the_pencil_overflows():
    """t - lam s overflows at lam = -1e308 with s = 10 I: those points stay
    out of the cover, which raises no floating-point warning."""
    lams = np.array(rectangular_region(-1e308, 0.0, -3.0, 3.0, 3))
    # the first point overflows; the last, 3j, is certified by its own probe
    certified = full_rank_cover(np.diag([1.0, 2.0]) + 0j, 10.0 * np.eye(2), lams)
    assert certified.tolist() == [False] * 8 + [True]
    # from a finite first point the cover starts, and still leaves them out
    certified = full_rank_cover(np.diag([1.0, 2.0]) + 0j, 10.0 * np.eye(2), lams[::-1])
    assert certified[0]
    assert not certified[np.abs(lams[::-1].real) > 1e300].any()


@pytest.mark.parametrize("products", ["none", "right"])
def test_a_rank_pass_over_no_points_returns_empty_arrays(products):
    """No point: the cover certifies none, the rank pass returns the four
    empty arrays split_ranks gives an empty stack, and grid_pass an empty
    profile."""
    p = PENCILS["framed-full"]()
    lams = np.array([], dtype=np.complex128)
    right = linalg.empty_basis(12)
    if products == "right":
        right = unitary(np.random.default_rng(32), 12)[:, :3]
    assert full_rank_cover(p.t, p.s, lams).shape == (0,)
    split = linalg.grid_ranks(p.t, p.s, lams, right, linalg.empty_basis(12), TolerancePolicy())
    empty = linalg.split_ranks(np.zeros((0, 12, 12), dtype=np.complex128), right,
                               linalg.empty_basis(12))
    assert len(split) == 4
    for got, want in zip(split, empty, strict=True):
        assert got.shape == (0,) and got.dtype == want.dtype
    profile, *verdicts = grid_pass(p, [], TolerancePolicy(), e=right)
    assert profile.points == profile.ranks == profile.marginal == ()
    assert all(verdict.shape == (0,) for verdict in verdicts)


def test_scan_where_the_pencil_overflows_raises_naming_the_point():
    """10 * lam overflows at lam = -1e308 and -5e307: the first of them in
    the region's order is named."""
    p = Pencil(np.diag([1.0, 2.0]), 10.0 * np.eye(2))
    region = rectangular_region(-1e308, 0.0, -3.0, 3.0, 3)
    for points, first in ((region, "(-1e+308-3j)"), (region[::-1], "(-5e+307+3j)")):
        with pytest.raises(ValueError) as raised:
            generalized_spectrum_scan(p, points)
        assert str(raised.value) == f"t - lam*s is not finite at lam = {first}"


def test_spectrum_command_exits_2_where_the_pencil_overflows(tmp_path, capsys):
    save_matrix(np.diag([1.0, 2.0]), str(tmp_path / "t.json"))
    save_matrix(10.0 * np.eye(2), str(tmp_path / "s.json"))
    assert main(["spectrum", str(tmp_path / "t.json"), str(tmp_path / "s.json"),
                 "--re-min=-1e308", "--re-max=0", "--steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "genresolvent: t - lam*s is not finite at lam = (-1e+308-3j)\n"


def test_spectrum_over_a_region_wider_than_the_largest_float_runs_in_a_fresh_process():
    """The region's width overflows, not its points: the lattice is exact
    and finite, the pencil stays finite on it, and no warning is printed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "genresolvent", "spectrum", str(ROOT / "data" / "diag12.json"),
         str(ROOT / "data" / "eye2.json"), "--re-min=-1e308", "--re-max=1e308", "--steps", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    rows = [row.split(",") for row in done.stdout.splitlines()[1:]]
    assert [float(row[0]) for row in rows[:3]] == [-1e308, 0.0, 1e308]
    assert [row[2] for row in rows] == ["2"] * 9
