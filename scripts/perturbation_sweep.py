#!/usr/bin/env python3
"""Empirics for the perturbed-inverse formula.

Draws random (t, tbar) pairs with contraction product below 0.9, then
records: the rate at which the four stability conditions agree, the worst
deviation between the two factorizations of the formula, and the worst
quotient of ||b - tplus|| against its geometric-series bound
||tplus||^2 ||dt|| / (1 - smallness).
"""

from __future__ import annotations

import argparse

import numpy as np

from genresolvent import mp_inverse, op_norm2, splitting_checks
from instances import cgauss, unitary


def draw_instance(rng, case: str):
    m = int(rng.integers(2, 7))
    n = int(rng.integers(2, 7))
    k = min(m, n)
    u, v = unitary(rng, m), unitary(rng, n)
    if case == "full":
        t = cgauss(rng, (m, n))
        sigma_min = np.linalg.svd(t, compute_uv=False)[-1]
        delta = cgauss(rng, (m, n))
        delta *= rng.uniform(0.1, 0.85) * sigma_min / np.linalg.svd(delta, compute_uv=False)[0]
        return t, t + delta
    rank = int(rng.integers(1, k))
    d = np.zeros((m, n), dtype=complex)
    idx = np.arange(rank)
    d[idx, idx] = rng.uniform(0.3, 2.0, rank) * np.exp(2j * np.pi * rng.uniform(size=rank))
    t = u @ d @ v.conj().T
    sigma_min = np.abs(d[idx, idx]).min()
    delta = np.zeros((m, n), dtype=complex)
    if case == "aligned":
        delta[idx, idx] = 0.2 * sigma_min * np.exp(2j * np.pi * rng.uniform(size=rank))
    else:
        delta[rank, rank] = rng.uniform(0.1, 0.8) * sigma_min
    return t, t + u @ delta @ v.conj().T


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    agree = 0
    generalized = 0
    worst_bound_quotient = 0.0
    for i in range(args.instances):
        case = ("aligned", "switched", "full")[i % 3]
        t, tbar = draw_instance(rng, case)
        g = mp_inverse(t)
        checks = splitting_checks(tbar, g)
        result = checks.result
        agree += checks.agree
        generalized += checks.b_is_generalized
        bound = op_norm2(g.tplus) ** 2 * op_norm2(tbar - t) / (1 - result.smallness)
        if bound > 0:
            worst_bound_quotient = max(
                worst_bound_quotient, op_norm2(result.b - g.tplus) / bound
            )

    print(f"instances:                 {args.instances}")
    print(f"four-way agreement:        {agree}/{args.instances}")
    print(f"generalized outcomes:      {generalized}")
    print(f"worst deviation / bound:   {worst_bound_quotient:.4f} (must be <= 1)")
    return 0 if agree == args.instances and worst_bound_quotient <= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
