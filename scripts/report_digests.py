#!/usr/bin/env python3
"""Print a sha256 digest of every report the CLI writes for a fixed set of inputs.

Runs ``genresolvent.cli.main`` in-process on

* every ordered pair of same-shape matrices in ``data/``: ``analyze``,
  ``mp-check``, ``perturb`` and ``spectrum --steps 21``;
* seeded framed pencils (``instances.framed``, constant and switched
  support): ``analyze`` and ``mp-check`` at ``--grid-points 25`` and at
  ``--grid-points 60 --seed 3``;
* each command with one non-default ``--rank-rtol``, ``--residual-tol`` or
  ``--gap-tol``, and each command with ``--out``;
* ``spectrum --steps 21`` on seeded normal pencils of order 20 that reach
  both paths of the rank kernel's full-rank screen: one eigenvalue on a
  lattice point and one off it (the screen certifies every chunk but the
  one holding the first), the same pencil at ``--rank-rtol 0.5`` (the
  screen declines every chunk), a pencil rank-deficient everywhere, and
  one with an eigenvalue on the region's first point, -3 - 3i (the
  one-matrix probe declines, so a long unscreened chunk fills the rank
  pass's workspace before screened chunks reuse it);
* ``analyze`` on a framed 64 x 64 pencil, constant and switched support,
  on the default 25-point grid: its rank pass, which forms a product, is
  cut into chunks of 16 and 9 points.

Each digest covers the command's exit code, standard output, standard error,
the text of the warnings it raised and the file written with ``--out``. Inputs are written to a temporary
directory and named by relative paths, so reports do not depend on where
the script runs. One line per command, ``<sha256>  <command>``, then
``<sha256>  total`` over all of them: two builds that print the same lines
write byte-identical reports on these inputs.

    PYTHONPATH=src python3 scripts/report_digests.py [--pencils N]
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
from instances import framed, unitary

DATA = Path(__file__).resolve().parent.parent / "data"
# (m, n); the larger ones cut the pairwise stage into several chunks
SHAPES = ((4, 4), (3, 5), (6, 3), (8, 8), (24, 20))
GRIDS = (["--grid-points", "25"], ["--grid-points", "60", "--seed", "3"])
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
        p = framed(np.random.default_rng([seed, m, n, int(switched)]), m, n,
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
    save_matrix(regular, "spectrum/normal-t.json")
    save_matrix(corner, "spectrum/corner-t.json")
    save_matrix(np.eye(20), "spectrum/eye-s.json")
    save_matrix(deficient_t, "spectrum/deficient-t.json")
    save_matrix(deficient_s, "spectrum/deficient-s.json")
    scan = ["--steps", "21"]
    return [
        ["spectrum", "spectrum/normal-t.json", "spectrum/eye-s.json", *scan],
        ["spectrum", "spectrum/normal-t.json", "spectrum/eye-s.json", *scan, "--rank-rtol", "0.5"],
        ["spectrum", "spectrum/deficient-t.json", "spectrum/deficient-s.json", *scan],
        ["spectrum", "spectrum/corner-t.json", "spectrum/eye-s.json", *scan],
    ]


def chunked_commands() -> list[list[str]]:
    commands = []
    for switched in (False, True):
        p = framed(np.random.default_rng([0, 64, 64, int(switched)]), 64, 64, 63, switched)
        stem = f"framed/64x64-{'switched' if switched else 'constant'}"
        save_matrix(p.t, f"{stem}-t.json")
        save_matrix(p.s, f"{stem}-s.json")
        commands.append(["analyze", f"{stem}-t.json", f"{stem}-s.json"])
    return commands


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
                     + spectrum_commands() + chunked_commands()):
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
