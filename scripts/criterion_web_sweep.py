#!/usr/bin/env python3
"""Sweep random pencils and tabulate agreement of the existence criteria.

For each pencil the sweep evaluates four verdicts on a shared grid inside
both convergence disks: rank constancy (which is also nullity and corank
constancy), transversality for the pseudoinverse, transversality for a
second inverse built from tilted complements, and the direct-sum
splittings. The theory says they coincide; the sweep reports the empirical
agreement table. Each pencil takes three grid passes: rank constancy is
read off the ranks of the pseudoinverse's transversality pass.
"""

from __future__ import annotations

import argparse
from collections import Counter

import numpy as np

from genresolvent import (
    ComplementPair,
    RankConstancyReport,
    build_family,
    default_grid,
    direct_sum_criteria,
    existence_check,
    geninv_from_complements,
    kernel_basis,
    mp_inverse,
    range_basis,
    subspace_from_columns,
)
from instances import cgauss, framed


def tilted_inverse(rng, t):
    ker = kernel_basis(t)
    row = range_basis(t.conj().T)
    left = kernel_basis(t.conj().T)
    rng_b = range_basis(t)
    r = rng_b.dim
    e = subspace_from_columns(row.basis + ker.basis @ (0.3 * cgauss(rng, (ker.dim, r))))
    f = subspace_from_columns(left.basis + rng_b.basis @ (0.3 * cgauss(rng, (r, left.dim))))
    return geninv_from_complements(t, ComplementPair(e, f))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pencils", type=int, default=200)
    parser.add_argument("--max-dim", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    patterns: Counter[tuple[bool, ...]] = Counter()
    for _ in range(args.pencils):
        m = int(rng.integers(2, args.max_dim + 1))
        n = int(rng.integers(2, args.max_dim + 1))
        k = min(m, n)
        switched = bool(rng.uniform() < 0.5)
        rank = int(rng.integers(1, k if switched else k + 1))
        pencil = framed(rng, m, n, rank, switched)
        mp = build_family(pencil, mp_inverse(pencil.t))
        alt = build_family(pencil, tilted_inverse(rng, pencil.t))
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
