#!/usr/bin/env python3
"""Print a sha256 digest of every report the CLI writes for a fixed set of inputs.

Runs ``genresolvent.cli.main`` in-process on

* every ordered pair of same-shape matrices in ``data/``: ``analyze``,
  ``mp-check``, ``perturb`` and ``spectrum --steps 21``;
* seeded framed pencils (the test suite's ``helpers.framed_pencil``,
  constant and switched support): ``analyze`` and ``mp-check`` at ``--grid-points 25`` and at
  ``--grid-points 60``;
* each command with one non-default ``--rank-rtol``, ``--residual-tol`` or
  ``--gap-tol``, and each command with ``--out``;
* ``spectrum --steps 21`` on seeded normal pencils of order 20 in front of
  ``linalg.grid_ranks``, the one rank pass: one eigenvalue on a lattice
  point and one off it (the full-rank cover certifies every point but the
  one on the lattice), the same pencil at ``--rank-rtol 0.5`` (the cover certifies no
  point), a pencil rank-deficient everywhere, one with an eigenvalue on
  the region's first point, -3 - 3i (the cover's first one-matrix probe
  declines and its second, of the last point, passes), and one with
  eigenvalues on both -3 - 3i and 3 + 3i (both probes decline, so the
  cover certifies no point and every point takes the SVD);
* ``spectrum --steps 61`` on that normal pencil and on one with an
  eigenvalue on a point of the 61 x 61 lattice and one 1e-3 off another,
  where the full-rank cover certifies boxes of many points, and on one
  with an eigenvalue at 0 and the rest off the lattice: 0 is the midpoint
  of the region, so the anchor of the cover's first box is singular;
* ``spectrum --steps 61`` on a wide 8 x 12 and a tall 12 x 8 framed pencil
  of full rank, whose cover forms the Gram of the smaller side from the
  expansion with t0^H and s^H and with t0 and s, and on the near pencil
  shifted by 10^6, over the lattice shifted with it (``--re-min=999997``),
  where the cover's anchor Grams are expanded about the region's centre;
* ``spectrum --steps 61`` on the normal pencil with s = 1e-155 I, and on
  the normal pencil scaled by 1e-150 over the lattice shifted by 10^4
  (``--re-min=9997``): the squares of s lie below the normal range, so the
  cover's expansion loses bits to gradual underflow, which its underflow
  term covers;
* ``analyze`` on a framed 64 x 64 pencil, constant and switched support,
  on the default 25-point grid: its rank pass, which forms a product, is
  cut into chunks of 16 and 9 points;
* ``mp-check`` and ``analyze`` on a pencil whose t is the 3 x 3 zero
  matrix, of rank 0, so the subspace gaps take their rank-0 branch and
  ``analyze``'s explicit family has r = 0, and ``analyze`` on a generic
  20 x 20 pencil of full rank, r = min(m, n);
* ``analyze`` at ``--residual-tol 7e-15`` and ``8e-15`` and ``mp-check`` at
  ``--residual-tol 1e-14`` on the framed 64 x 64 constant t with s = 0,
  whose family is constant, so every identity deviation is zero: 8e-15 and
  1e-14 lie between the command's exact axiom residuals and their largest
  bound (8e-15 between 7.0e-15 and 1.8e-14, 1e-14 between 8.4e-15 and
  2.5e-14, with OpenBLAS), so the grid passes on exact values where a
  bound exceeds the tolerance; 7e-15 lies just below ``analyze``'s exact
  inner residual, which fails it;
* t = diag(1/3 + 1e-6, 2.5, -2.5i, 3) with s = I: ``analyze --grid-radius
  0.3333333`` at ``--grid-points 25`` and ``60``, where the identity's
  bound leaves pairs of points near 1/3 undecided, the pairs through
  lam = 0 pass and those undecided pairs decide, and ``mp-check
  --grid-radius 1``;
* ``mp-check --grid-radius 5e307`` on diag(1, 2) with s = 10 I, where
  t - lam s overflows on the grid's outer rings: the command exits 2
  naming the first such point, and ``mp-check --grid-radius 1e308`` on
  diag(1, 2) with s = I, where lam_i - lam_j in the identity's pairs
  would overflow.

Each digest covers the command's exit code, standard output, standard error,
the text of the warnings it raised and the file written with ``--out``. Inputs are written to a temporary
directory and named by relative paths, so reports do not depend on where
the script runs. One line per command, ``<sha256>  <command>``, then
``<sha256>  total`` over all of them: two builds that print the same lines
write byte-identical reports on these inputs.

    PYTHONPATH=src:tests python3 scripts/report_digests.py [--pencils N]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np

from genresolvent import load_matrix, save_matrix
from genresolvent.cli import main as cli_main
from helpers import framed_pencil, generic_full_pencil, off_lattice, unitary

DATA = Path(__file__).resolve().parent.parent / "data"
# (m, n); the larger ones cut the identity's pairs into several chunks
SHAPES = ((4, 4), (3, 5), (6, 3), (8, 8), (24, 20))
GRIDS = (["--grid-points", "25"], ["--grid-points", "60"])
# one valid invocation per command, for the tolerance-flag and --out runs
COMMANDS = {
    "analyze": ["analyze", "data/diag12.json", "data/eye2.json"],
    "mp-check": ["mp-check", "data/diag12.json", "data/eye2.json"],
    "spectrum": ["spectrum", "data/diag12.json", "data/eye2.json", "--steps", "21"],
    "perturb": ["perturb", "data/diag10.json", "data/tbar_generalized.json"],
}
TOLERANCES = (["--rank-rtol", "0.05"], ["--residual-tol", "1e-6"], ["--gap-tol", "1e-4"])


def run(argv: list[str]) -> str:
    """sha256 of one in-process CLI run: exit code, stdout, stderr and warnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli_main(argv)
    digest = hashlib.sha256(f"exit {code}\n".encode())
    for part in (out.getvalue(), err.getvalue(), *(str(w.message) for w in caught)):
        digest.update(part.encode("utf-8") + b"\0")
    if "--out" in argv:
        digest.update(Path(argv[argv.index("--out") + 1]).read_bytes() + b"\0")
    return digest.hexdigest()


def data_commands() -> list[list[str]]:
    names = sorted(path.name for path in DATA.glob("*.json"))
    shapes = {name: load_matrix(DATA / name).shape for name in names}
    commands = []
    for t, s in itertools.product(names, repeat=2):
        if shapes[t] != shapes[s]:
            continue
        pair = [f"data/{t}", f"data/{s}"]
        commands += [["analyze", *pair], ["mp-check", *pair], ["perturb", *pair],
                     ["spectrum", *pair, "--steps", "21"]]
    return commands


def framed_commands(pencils: int) -> list[list[str]]:
    commands = []
    for (m, n), switched, seed in itertools.product(SHAPES, (False, True), range(pencils)):
        p = framed_pencil(np.random.default_rng([seed, m, n, int(switched)]), m, n,
                   min(m, n) - 1, switched)
        stem = f"framed/{m}x{n}-{'switched' if switched else 'constant'}-{seed}"
        save_matrix(p.t, f"{stem}-t.json")
        save_matrix(p.s, f"{stem}-s.json")
        for command, grid in itertools.product(("analyze", "mp-check"), GRIDS):
            commands.append([command, f"{stem}-t.json", f"{stem}-s.json", *grid])
    return commands


def spectrum_commands() -> list[list[str]]:
    rng = np.random.default_rng(20)
    lattice = np.linspace(-3.0, 3.0, 21)
    # one eigenvalue on a lattice point, one 0.1 * sqrt(2) off every one,
    # and the other 18 outside the scanned square
    eigenvalues = np.concatenate([[complex(lattice[13], lattice[8]), 0.1 + 0.1j],
                                  5.0 + 0.5j * np.arange(18)])
    u = unitary(rng, 20)
    regular = (u * eigenvalues) @ u.conj().T
    # a common kernel: rank at most 19 at every lam
    support = np.ones(20)
    support[-1] = 0.0
    deficient_t, deficient_s = (u * (eigenvalues * support)) @ u.conj().T, (u * support) @ u.conj().T
    corner = (u * np.concatenate([[-3.0 - 3.0j], eigenvalues[1:]])) @ u.conj().T
    corners = (u * np.concatenate([[-3.0 - 3.0j, 3.0 + 3.0j], eigenvalues[2:]])) @ u.conj().T
    fine = np.linspace(-3.0, 3.0, 61)
    near = (u * np.concatenate([[complex(fine[40], fine[25]), complex(fine[20], fine[33]) + 1e-3],
                                eigenvalues[2:]])) @ u.conj().T
    zero = (u * np.concatenate([[0.0], off_lattice(np.random.default_rng(20), 19)])) @ u.conj().T
    save_matrix(regular, "spectrum/normal-t.json")
    save_matrix(corner, "spectrum/corner-t.json")
    save_matrix(corners, "spectrum/corners-t.json")
    save_matrix(near, "spectrum/near-t.json")
    save_matrix(zero, "spectrum/zero-t.json")
    save_matrix(np.eye(20), "spectrum/eye-s.json")
    save_matrix(deficient_t, "spectrum/deficient-t.json")
    save_matrix(deficient_s, "spectrum/deficient-s.json")
    save_matrix(near + 1e6 * np.eye(20), "spectrum/far-t.json")
    save_matrix(1e-155 * np.eye(20), "spectrum/tiny-s.json")
    save_matrix(1e-150 * regular, "spectrum/small-t.json")
    save_matrix(1e-150 * np.eye(20), "spectrum/small-s.json")
    for name, (m, n) in (("wide", (8, 12)), ("tall", (12, 8))):
        p = framed_pencil(np.random.default_rng([20, m, n]), m, n, 8)
        save_matrix(p.t, f"spectrum/{name}-t.json")
        save_matrix(p.s, f"spectrum/{name}-s.json")
    scan = ["--steps", "21"]
    return [
        ["spectrum", "spectrum/normal-t.json", "spectrum/eye-s.json", *scan],
        ["spectrum", "spectrum/normal-t.json", "spectrum/eye-s.json", *scan, "--rank-rtol", "0.5"],
        ["spectrum", "spectrum/deficient-t.json", "spectrum/deficient-s.json", *scan],
        ["spectrum", "spectrum/corner-t.json", "spectrum/eye-s.json", *scan],
        ["spectrum", "spectrum/corners-t.json", "spectrum/eye-s.json", *scan],
        ["spectrum", "spectrum/normal-t.json", "spectrum/eye-s.json", "--steps", "61"],
        ["spectrum", "spectrum/near-t.json", "spectrum/eye-s.json", "--steps", "61"],
        ["spectrum", "spectrum/zero-t.json", "spectrum/eye-s.json", "--steps", "61"],
        ["spectrum", "spectrum/wide-t.json", "spectrum/wide-s.json", "--steps", "61"],
        ["spectrum", "spectrum/tall-t.json", "spectrum/tall-s.json", "--steps", "61"],
        ["spectrum", "spectrum/far-t.json", "spectrum/eye-s.json", "--steps", "61",
         "--re-min=999997", "--re-max=1000003"],
        ["spectrum", "spectrum/normal-t.json", "spectrum/tiny-s.json", "--steps", "61"],
        ["spectrum", "spectrum/small-t.json", "spectrum/small-s.json", "--steps", "61",
         "--re-min=9997", "--re-max=10003"],
    ]


def chunked_commands() -> list[list[str]]:
    commands = []
    for switched in (False, True):
        p = framed_pencil(np.random.default_rng([0, 64, 64, int(switched)]), 64, 64, 63, switched)
        stem = f"framed/64x64-{'switched' if switched else 'constant'}"
        save_matrix(p.t, f"{stem}-t.json")
        save_matrix(p.s, f"{stem}-s.json")
        commands.append(["analyze", f"{stem}-t.json", f"{stem}-s.json"])
    return commands


def edge_rank_commands() -> list[list[str]]:
    save_matrix(np.zeros((3, 3)), "framed/zero-t.json")
    save_matrix(np.diag([1.0, 2.0, 0.0]), "framed/zero-s.json")
    p = generic_full_pencil(np.random.default_rng([0, 20, 20]), 20, 20)
    save_matrix(p.t, "framed/full-20-t.json")
    save_matrix(p.s, "framed/full-20-s.json")
    return [["mp-check", "framed/zero-t.json", "framed/zero-s.json"],
            ["analyze", "framed/zero-t.json", "framed/zero-s.json"],
            ["analyze", "framed/full-20-t.json", "framed/full-20-s.json"]]


def slack_commands() -> list[list[str]]:
    save_matrix(np.zeros((64, 64)), "framed/64x64-zero-s.json")
    pair = ["framed/64x64-constant-t.json", "framed/64x64-zero-s.json"]
    return [["analyze", *pair, "--residual-tol", "7e-15"],
            ["analyze", *pair, "--residual-tol", "8e-15"],
            ["mp-check", *pair, "--residual-tol", "1e-14"]]


def near_eigenvalue_commands() -> list[list[str]]:
    save_matrix(np.diag([1 / 3 + 1e-6, 2.5, -2.5j, 3.0]), "framed/near-eigenvalue-t.json")
    save_matrix(np.eye(4), "framed/eye4.json")
    pair = ["framed/near-eigenvalue-t.json", "framed/eye4.json"]
    return [["analyze", *pair, "--grid-radius", "0.3333333", *grid] for grid in GRIDS] + [
        ["mp-check", *pair, "--grid-radius", "1"]]


def overflow_commands() -> list[list[str]]:
    save_matrix(10.0 * np.eye(2), "framed/ten-eye2.json")
    return [["mp-check", "data/diag12.json", "framed/ten-eye2.json", "--grid-radius", "5e307"],
            ["mp-check", "data/diag12.json", "data/eye2.json", "--grid-radius", "1e308"]]


def flag_commands() -> list[list[str]]:
    commands = [[*argv, *flag] for argv in COMMANDS.values() for flag in TOLERANCES]
    return commands + [[*argv, "--out", f"out/{name}"] for name, argv in COMMANDS.items()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pencils", type=int, default=4,
                        help="framed pencils per shape and support (default 4)")
    args = parser.parse_args()
    total = hashlib.sha256()
    home = os.getcwd()
    work = tempfile.mkdtemp(prefix="report-digests-")
    try:
        shutil.copytree(DATA, Path(work) / "data")
        os.chdir(work)
        os.mkdir("framed")
        os.mkdir("out")
        os.mkdir("spectrum")
        for argv in (data_commands() + framed_commands(args.pencils) + flag_commands()
                     + spectrum_commands() + chunked_commands() + edge_rank_commands()
                     + slack_commands() + near_eigenvalue_commands() + overflow_commands()):
            line = f"{run(argv)}  {' '.join(argv)}"
            total.update(line.encode() + b"\n")
            print(line)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
