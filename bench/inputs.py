"""Frozen, seeded inputs for the benchmark workloads.

The constructions repeat the structured-pencil and perturbation generators of
the test suite (shared singular frame T = U D V^H, S = U E V^H) but live here
so that edits to test helpers can never change what the benchmark measures.
Nothing here imports genresolvent: the program only ever sees the JSON
matrix files written by :func:`write_workload`.

Every command carries the outcome its input was built to produce, so the
worker can check each report without trusting the program under test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep-small", "analyze-dense", "spectrum-scan")

SWEEP_PENCILS = 12
SWEEP_CASES = ("aligned", "switched", "full")
DENSE_N = 100
DENSE_RANK = 50
SCAN_N = 50
# The CLI's default spectrum region: [-3, 3] x [-3, 3] sampled 61 x 61, so the
# lattice spacing is 0.1. Eigenvalues are drawn at least SCAN_OFF_LATTICE away
# from every lattice point, and rank = n is required at every lattice point
# farther than SCAN_MARGIN from an oracle eigenvalue.
SCAN_EXTENT = 3.0
SCAN_STEPS = 61
SCAN_OFF_LATTICE = 0.02
SCAN_MARGIN = 1e-3


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _phases(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def rect_diag(m: int, n: int, values: np.ndarray) -> np.ndarray:
    d = np.zeros((m, n), dtype=np.complex128)
    k = len(values)
    d[np.arange(k), np.arange(k)] = values
    return d


def framed_pencil(rng, m: int, n: int, rank: int, switched: bool = False):
    """(t, s) in a shared singular frame.

    Constant support (supp e inside supp d) keeps kernel and range fixed, so
    the resolvent exists; switched support puts one entry of e on a zero of d,
    so the rank jumps at every nonzero lam and every criterion fails.
    """
    k = min(m, n)
    if not 0 <= rank <= k or (switched and rank >= k):
        raise ValueError(f"rank {rank} impossible for shape {(m, n)}, switched={switched}")
    u = unitary(rng, m)
    v = unitary(rng, n)
    d = np.zeros(k, dtype=np.complex128)
    e = np.zeros(k, dtype=np.complex128)
    d[:rank] = rng.uniform(0.3, 2.0, rank) * _phases(rng, rank)
    e[:rank] = rng.uniform(0.2, 1.0, rank) * _phases(rng, rank)
    if switched:
        e[rank] = rng.uniform(0.5, 1.0) * _phases(rng, 1)[0]
    t = u @ rect_diag(m, n, d) @ v.conj().T
    s = u @ rect_diag(m, n, e) @ v.conj().T
    return t, s


def random_rank_matrix(rng, m: int, n: int, rank: int) -> np.ndarray:
    u = unitary(rng, m)
    v = unitary(rng, n)
    d = np.zeros(min(m, n), dtype=np.complex128)
    d[:rank] = rng.uniform(0.3, 2.0, rank) * _phases(rng, rank)
    return u @ rect_diag(m, n, d) @ v.conj().T


def perturbation_instance(rng, case: str):
    """(t, tbar) with smallness ||t+|| ||tbar - t|| < 0.9.

    'aligned' and 'full' keep transversality (classification generalized);
    'switched' switches on a new support entry (classification outer-only).
    """
    m = int(rng.integers(2, 7))
    n = int(rng.integers(2, 7))
    k = min(m, n)
    if case == "full":
        t = random_rank_matrix(rng, m, n, k)
        sigma_min = np.linalg.svd(t, compute_uv=False)[-1]
        delta = complex_gaussian(rng, (m, n))
        delta *= rng.uniform(0.1, 0.85) * sigma_min / np.linalg.svd(delta, compute_uv=False)[0]
        return t, t + delta
    rank = int(rng.integers(1, k))
    u = unitary(rng, m)
    v = unitary(rng, n)
    d = np.zeros(k, dtype=np.complex128)
    d[:rank] = rng.uniform(0.3, 2.0, rank) * _phases(rng, rank)
    t = u @ rect_diag(m, n, d) @ v.conj().T
    sigma_min = np.abs(d[:rank]).min()
    delta_vals = np.zeros(k, dtype=np.complex128)
    if case == "aligned":
        delta_vals[:rank] = (
            rng.uniform(0.05, 0.25, rank) * sigma_min * _phases(rng, rank) / np.sqrt(rank)
        )
    elif case == "switched":
        delta_vals[rank] = rng.uniform(0.1, 0.8) * sigma_min * _phases(rng, 1)[0]
    else:
        raise ValueError(f"unknown case {case!r}")
    return t, t + u @ rect_diag(m, n, delta_vals) @ v.conj().T


def off_lattice_eigenvalues(rng, count: int) -> np.ndarray:
    """Complex values inside the scan region, each SCAN_OFF_LATTICE from every lattice point."""
    spacing = 2 * SCAN_EXTENT / (SCAN_STEPS - 1)
    values: list[complex] = []
    while len(values) < count:
        z = complex(*rng.uniform(-SCAN_EXTENT + spacing, SCAN_EXTENT - spacing, 2))
        nearest = complex(round(z.real / spacing), round(z.imag / spacing)) * spacing
        if abs(z - nearest) >= SCAN_OFF_LATTICE:
            values.append(z)
    return np.array(values)


def spectrum_pencil(rng, n: int):
    """T = U diag(d) U^H with off-lattice eigenvalues d, and S = I."""
    d = off_lattice_eigenvalues(rng, n)
    u = unitary(rng, n)
    return (u * d) @ u.conj().T, np.eye(n, dtype=np.complex128)


@dataclass
class Command:
    """One CLI invocation and the outcome its inputs were built to produce."""

    argv: list[str]
    expect_exit: int
    expect_classification: str | None = None
    scan_rank: int | None = None
    scan_points: int | None = None
    scan_margin: float | None = None
    oracle_eigs: list[list[float]] = field(default_factory=list)


def matrix_text(a: np.ndarray) -> str:
    """The CLI's JSON matrix format; Python float repr round-trips exactly."""
    payload = {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": [[float(v) for v in row] for row in a.real],
        "im": [[float(v) for v in row] for row in a.imag],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


class _Writer:
    def __init__(self, directory: Path):
        self.directory = directory
        self.digests: dict[str, str] = {}

    def __call__(self, name: str, a: np.ndarray) -> str:
        data = matrix_text(a).encode("utf-8")
        path = self.directory / f"{name}.json"
        path.write_bytes(data)
        self.digests[path.name] = hashlib.sha256(data).hexdigest()
        return str(path)


def write_workload(name: str, seed: int, directory) -> tuple[list[Command], dict[str, str]]:
    """Write a workload's input files; return its command cycle and input digests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(name), seed])
    write = _Writer(directory)
    commands: list[Command] = []
    if name == "sweep-small":
        for i in range(SWEEP_PENCILS):
            switched = i % 2 == 1
            m, n = (int(x) for x in rng.integers(2, 9, size=2))
            k = min(m, n)
            rank = int(rng.integers(1, k)) if switched else int(rng.integers(1, k + 1))
            t, s = framed_pencil(rng, m, n, rank, switched)
            case = SWEEP_CASES[i % len(SWEEP_CASES)]
            base, tbar = perturbation_instance(rng, case)
            tp, sp = write(f"p{i:02d}_t", t), write(f"p{i:02d}_s", s)
            bp, bbar = write(f"p{i:02d}_base", base), write(f"p{i:02d}_tbar", tbar)
            verdict = 1 if switched else 0
            commands += [
                Command(["analyze", tp, sp], verdict),
                Command(["mp-check", tp, sp], verdict),
                Command(["perturb", bp, bbar], 0,
                        expect_classification="outer-only" if case == "switched" else "generalized"),
            ]
    elif name == "analyze-dense":
        for label, switched in (("const", False), ("switched", True)):
            t, s = framed_pencil(rng, DENSE_N, DENSE_N, DENSE_RANK, switched)
            tp, sp = write(f"{label}_t", t), write(f"{label}_s", s)
            verdict = 1 if switched else 0
            commands += [Command(["analyze", tp, sp], verdict),
                         Command(["mp-check", tp, sp], verdict)]
    else:
        t, s = spectrum_pencil(rng, SCAN_N)
        oracle = [[z.real, z.imag] for z in np.linalg.eigvals(np.linalg.solve(s, t)).tolist()]
        commands.append(Command(["spectrum", write("scan_t", t), write("scan_s", s)], 0,
                                scan_rank=SCAN_N, scan_points=SCAN_STEPS ** 2,
                                scan_margin=SCAN_MARGIN, oracle_eigs=oracle))
    return commands, write.digests
