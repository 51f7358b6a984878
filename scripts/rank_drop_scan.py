#!/usr/bin/env python3
"""Scan the rank-drop locus of a pencil over a rectangle in the plane.

Reads the pencil from JSON matrix files (defaults to the shipped shifted
diagonal example whose drops sit at 1 and 2), prints the drop points, and
optionally writes the full scan as CSV for plotting.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from genresolvent import (
    Pencil,
    generalized_spectrum_scan,
    load_matrix,
    rectangular_region,
    scan_csv,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("t_path", nargs="?", default=str(DATA / "diag12.json"))
    parser.add_argument("s_path", nargs="?", default=str(DATA / "eye2.json"))
    parser.add_argument("--re-min", type=float, default=-3.0)
    parser.add_argument("--re-max", type=float, default=3.0)
    parser.add_argument("--im-min", type=float, default=-3.0)
    parser.add_argument("--im-max", type=float, default=3.0)
    parser.add_argument("--steps", type=int, default=61)
    parser.add_argument("--out", default=None, help="write the scan as CSV")
    args = parser.parse_args()

    pencil = Pencil(load_matrix(args.t_path), load_matrix(args.s_path))
    region = rectangular_region(args.re_min, args.re_max, args.im_min, args.im_max, args.steps)
    scan = generalized_spectrum_scan(pencil, region)

    generic = max(point.rank for point in scan)
    drops = [point for point in scan if point.is_drop]
    print(f"sampled points:  {len(scan)}")
    print(f"generic rank:    {generic}")
    print(f"drop points:     {len(drops)}")
    for point in drops:
        print(f"  lam = {point.lam.real:+.6g}{point.lam.imag:+.6g}j  rank {point.rank}")

    if args.out:
        Path(args.out).write_text(scan_csv(scan), encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
