#!/usr/bin/env python3
"""Empirics for the perturbed-inverse formula.

Draws random (t, tbar) pairs with contraction product below 0.9, then
prints: how many pairs have the four stability conditions agree, how many
perturbed inverses are generalized inverses of tbar, and the worst
quotient of ||b - tplus|| against its geometric-series bound
||tplus||^2 ||dt|| / (1 - smallness). It exits 1 unless every pair agrees
and the quotient is at most 1. The two factorizations of the formula are
cross-checked inside each ``perturbed_inverse`` call, which raises where
they disagree. The pairs come from the test suite's generators:

    PYTHONPATH=src:tests python3 scripts/perturbation_sweep.py [--instances N] [--seed N]
"""

from __future__ import annotations

import argparse

import numpy as np

from genresolvent import mp_inverse, op_norm2, perturbed_inverse
from helpers import perturbation_instance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.instances < 1:
        parser.error("--instances must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    rng = np.random.default_rng(args.seed)
    agree = 0
    generalized = 0
    worst_bound_quotient = 0.0
    for i in range(args.instances):
        case = ("aligned", "switched", "full")[i % 3]
        t, tbar = perturbation_instance(rng, case)
        g = mp_inverse(t)
        result = perturbed_inverse(g, tbar)
        agree += result.agree
        generalized += result.b_is_generalized
        bound = op_norm2(g.tplus) ** 2 * op_norm2(tbar - t) / (1 - result.smallness)
        if bound > 0:
            worst_bound_quotient = max(
                worst_bound_quotient, op_norm2(result.b - g.tplus) / bound
            )

    print(f"instances:                 {args.instances}")
    print(f"four-way agreement:        {agree}/{args.instances}")
    print(f"generalized outcomes:      {generalized}")
    # at full precision: a rounded 0.999997 would print as the gate value 1
    print(f"worst deviation / bound:   {worst_bound_quotient!r} "
          f"(margin {1.0 - worst_bound_quotient!r}, must be <= 1)")
    return 0 if agree == args.instances and worst_bound_quotient <= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
