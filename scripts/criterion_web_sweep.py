#!/usr/bin/env python3
"""Sweep random pencils and tabulate agreement of the existence criteria.

For each pencil the sweep evaluates four verdicts on a shared grid inside
both convergence disks: rank constancy (which is also nullity and corank
constancy), transversality for the pseudoinverse, transversality for a
second inverse built from randomly tilted complements, and the direct-sum
splittings. The theory says they coincide; the sweep reports the empirical
agreement table. Each pencil takes three grid passes: rank constancy is
read off the ranks of the pseudoinverse's transversality pass. The pencils
come from the test suite's generators:

    PYTHONPATH=src:tests python3 scripts/criterion_web_sweep.py [--pencils N]
"""

from __future__ import annotations

import argparse
from collections import Counter

import numpy as np

from genresolvent import (
    RankConstancyReport,
    build_family,
    default_grid,
    direct_sum_criteria,
    existence_check,
    mp_inverse,
)
from helpers import framed_pencil, random_complement_inverse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pencils", type=int, default=200)
    parser.add_argument("--max-dim", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.pencils < 1:
        parser.error("--pencils must be at least 1")
    if args.max_dim < 2:
        parser.error("--max-dim must be at least 2")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    rng = np.random.default_rng(args.seed)
    patterns: Counter[tuple[bool, ...]] = Counter()
    for _ in range(args.pencils):
        m = int(rng.integers(2, args.max_dim + 1))
        n = int(rng.integers(2, args.max_dim + 1))
        k = min(m, n)
        switched = bool(rng.uniform() < 0.5)
        rank = int(rng.integers(1, k if switched else k + 1))
        pencil = framed_pencil(rng, m, n, rank, switched)
        mp = build_family(pencil, mp_inverse(pencil.t))
        alt = build_family(pencil, random_complement_inverse(rng, pencil.t))
        grid = default_grid(0.5 * min(mp.radius, alt.radius), 25)
        transversal_mp = existence_check(mp, grid)
        patterns[(
            RankConstancyReport(transversal_mp.profile).verdict,
            transversal_mp.verdict,
            existence_check(alt, grid).verdict,
            direct_sum_criteria(mp, grid).verdict,
        )] += 1

    print(f"{args.pencils} pencils, verdict tuple "
          "(rank, transversal-mp, transversal-alt, direct-sum):")
    for pattern, count in sorted(patterns.items(), reverse=True):
        print(f"  {pattern}: {count}")
    mixed = sum(count for pattern, count in patterns.items() if len(set(pattern)) != 1)
    print(f"instances with internal disagreement: {mixed}")
    return 0 if mixed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
