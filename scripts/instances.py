"""Random instances shared by the sweep scripts.

Each function draws from the generator in a fixed order, so a sweep run with
the same seed reproduces the same instances and the same table.
"""

from __future__ import annotations

import numpy as np

from genresolvent import Pencil


def cgauss(rng, shape):
    """Standard complex Gaussian entries."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unitary(rng, n):
    """Haar-distributed unitary, phases fixed so it is a function of the draw."""
    q, r = np.linalg.qr(cgauss(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def framed(rng, m, n, rank, switched):
    """Pencil t = u d v^H, s = u e v^H in one singular frame.

    supp(e) inside supp(d) keeps kernel and range fixed (the resolvent
    exists); ``switched`` puts one entry of e on a zero of d, so the rank
    jumps at every nonzero lam.
    """
    k = min(m, n)
    d = np.zeros((m, n), dtype=complex)
    e = np.zeros((m, n), dtype=complex)
    idx = np.arange(rank)
    d[idx, idx] = rng.uniform(0.3, 2.0, rank) * np.exp(2j * np.pi * rng.uniform(size=rank))
    e[idx, idx] = rng.uniform(0.2, 1.0, rank) * np.exp(2j * np.pi * rng.uniform(size=rank))
    if switched and rank < k:
        e[rank, rank] = rng.uniform(0.5, 1.0) * np.exp(2j * np.pi * rng.uniform())
    u, v = unitary(rng, m), unitary(rng, n)
    return Pencil(u @ d @ v.conj().T, u @ e @ v.conj().T)
