"""Command surface: analyze, mp-check, spectrum, perturb, version.

Reports are UTF-8 JSON on standard output unless --out is given; diagnostics
go to standard error. Exit codes: 0 success/criterion holds, 1 criterion
fails (or the perturbation is too large for perturb), 2 usage or input
error, 3 internal contract violation (mp-check verdict disagreement).

Identical inputs and flags produce byte-identical reports: keys are sorted,
grids and pair subsampling are seeded, and timing is only included when
explicitly requested with --timing.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import __version__
from .criteria import (
    RankConstancyReport,
    generalized_spectrum_scan,
    mp_resolvent_characterization,
    rectangular_region,
)
from .errors import GenResolventError, PerturbationTooLargeError
from .geninv import mp_inverse
from .linalg import TolerancePolicy
from .matio import file_digest, load_matrix, matrix_payload, report_text, save_report
from .perturbation import splitting_checks
from .resolvent import (
    DiskGrid,
    Pencil,
    build_family,
    check_resolvent_axioms,
    default_grid,
    existence_check,
)


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rank-rtol", type=float, default=None,
                        help="relative singular-value cutoff factor")
    parser.add_argument("--residual-tol", type=float, default=None,
                        help="relative residual bound for matrix equations")
    parser.add_argument("--gap-tol", type=float, default=None,
                        help="projector-gap bound for subspace equality")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-radius", type=float, default=None,
                        help="sampling radius (default: half the family radius)")
    parser.add_argument("--grid-points", type=int, default=25,
                        help="number of sample points including 0 (default 25)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the deterministic pair subsample")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report (breaks byte determinism)")


def _tolerances(args) -> TolerancePolicy:
    base = TolerancePolicy()
    return TolerancePolicy(
        rank_rtol=args.rank_rtol if args.rank_rtol is not None else base.rank_rtol,
        residual_tol=args.residual_tol if args.residual_tol is not None else base.residual_tol,
        gap_tol=args.gap_tol if args.gap_tol is not None else base.gap_tol,
    )


def _tolerance_payload(tol: TolerancePolicy) -> dict:
    return {"rank_rtol": tol.rank_rtol, "residual_tol": tol.residual_tol,
            "gap_tol": tol.gap_tol}


def _grid_payload(grid: DiskGrid) -> dict:
    return {"radius": grid.radius, "points": list(grid.points)}


def _emit(report: dict, args) -> None:
    if args.out:
        save_report(report, args.out)
    else:
        sys.stdout.write(report_text(report))


def cmd_analyze(args) -> int:
    t = load_matrix(args.t_path)
    s = load_matrix(args.s_path)
    tol = _tolerances(args)
    started = time.perf_counter()
    pencil = Pencil(t, s)
    g = mp_inverse(t, tol)
    family = build_family(pencil, g)
    radius = args.grid_radius if args.grid_radius is not None else family.radius / 2
    grid = default_grid(radius, args.grid_points)
    certificate = existence_check(pencil, g, grid, tol)
    axioms = check_resolvent_axioms(family, grid, tol, seed=args.seed)
    finite_rank = RankConstancyReport(certificate.profile)
    exists = certificate.verdict and axioms.ok
    report = {
        "command": "analyze",
        "inputs": {
            "t": {"path": args.t_path, "sha256": file_digest(args.t_path)},
            "s": {"path": args.s_path, "sha256": file_digest(args.s_path)},
        },
        "tolerances": _tolerance_payload(tol),
        "grid": _grid_payload(grid),
        "family": {"radius": family.radius, "st_plus_norm": family.st_norm},
        "existence": {
            "verdict": certificate.verdict,
            "criterion": certificate.criterion,
            "per_point": [
                {"lambda": lam, "transversal": ok} for lam, ok in certificate.per_point
            ],
        },
        "axioms": {
            "ok": axioms.ok,
            "max_inner_residual": max(axioms.inner_residuals, default=0.0),
            "max_outer_residual": max(axioms.outer_residuals, default=0.0),
            "max_identity_residual": axioms.max_identity_residual,
            "skipped_points": list(axioms.skipped),
        },
        "criteria": {
            "finite_rank": {"verdict": finite_rank.verdict},
            "fredholm": {
                "nullity_constant": finite_rank.nullity_constant,
                "corank_constant": finite_rank.corank_constant,
                "verdict": finite_rank.nullity_constant or finite_rank.corank_constant,
            },
        },
        "rank_profile": {
            "ranks": list(finite_rank.profile.ranks),
            "nullities": list(finite_rank.profile.nullities),
            "coranks": list(finite_rank.profile.coranks),
            "marginal": list(finite_rank.profile.marginal),
        },
        "note": "verdicts certify the sampled grid points only",
        "exit_code": 0 if exists else 1,
    }
    if args.timing:
        report["timing_seconds"] = time.perf_counter() - started
    _emit(report, args)
    return report["exit_code"]


def cmd_mp_check(args) -> int:
    t = load_matrix(args.t_path)
    s = load_matrix(args.s_path)
    tol = _tolerances(args)
    started = time.perf_counter()
    pencil = Pencil(t, s)
    family = build_family(pencil, mp_inverse(t, tol))
    radius = args.grid_radius if args.grid_radius is not None else family.radius / 2
    grid = default_grid(radius, args.grid_points)
    mp = mp_resolvent_characterization(pencil, grid, tol, seed=args.seed)
    if mp.constancy_verdict != mp.identity_verdict:
        exit_code = 3
    elif mp.constancy_verdict:
        exit_code = 0
    else:
        exit_code = 1
    report = {
        "command": "mp-check",
        "inputs": {
            "t": {"path": args.t_path, "sha256": file_digest(args.t_path)},
            "s": {"path": args.s_path, "sha256": file_digest(args.s_path)},
        },
        "tolerances": _tolerance_payload(tol),
        "grid": _grid_payload(grid),
        "kernel_gaps": list(mp.kernel_gaps),
        "range_gaps": list(mp.range_gaps),
        "max_identity_residual": mp.max_identity_residual,
        "max_axiom_residual": mp.max_axiom_residual,
        "constancy_verdict": mp.constancy_verdict,
        "identity_verdict": mp.identity_verdict,
        "verdicts_agree": mp.constancy_verdict == mp.identity_verdict,
        "note": "verdicts certify the sampled grid points only",
        "exit_code": exit_code,
    }
    if args.timing:
        report["timing_seconds"] = time.perf_counter() - started
    _emit(report, args)
    if exit_code == 3:
        print("mp-check: constancy and identity verdicts disagree (contract violation)",
              file=sys.stderr)
    return exit_code


def cmd_spectrum(args) -> int:
    if args.steps < 1:
        print("spectrum: --steps must be at least 1", file=sys.stderr)
        return 2
    t = load_matrix(args.t_path)
    s = load_matrix(args.s_path)
    tol = _tolerances(args)
    pencil = Pencil(t, s)
    region = rectangular_region(args.re_min, args.re_max, args.im_min, args.im_max, args.steps)
    scan = generalized_spectrum_scan(pencil, region, tol)
    lines = ["re,im,rank,is_drop"]
    lines += [
        f"{point.lam.real!r},{point.lam.imag!r},{point.rank},{int(point.is_drop)}"
        for point in scan
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_perturb(args) -> int:
    t = load_matrix(args.t_path)
    tbar = load_matrix(args.tbar_path)
    tol = _tolerances(args)
    g = mp_inverse(t, tol)
    try:
        checks = splitting_checks(tbar, g, tol)
    except PerturbationTooLargeError as exc:
        print(f"perturb: {exc}", file=sys.stderr)
        return 1
    result = checks.result
    report = {
        "command": "perturb",
        "inputs": {
            "t": {"path": args.t_path, "sha256": file_digest(args.t_path)},
            "tbar": {"path": args.tbar_path, "sha256": file_digest(args.tbar_path)},
        },
        "tolerances": _tolerance_payload(tol),
        "b": matrix_payload(result.b),
        "classification": result.classification.value,
        "smallness": result.smallness,
        "inner_residual": result.inner_residual,
        "outer_residual": result.outer_residual,
        "splitting_checks": {
            "b_is_generalized": checks.b_is_generalized,
            "transversal": checks.transversal,
            "codomain_splits": checks.codomain_splits,
            "domain_splits": checks.domain_splits,
            "agree": checks.agree,
        },
        "exit_code": 0,
    }
    _emit(report, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genresolvent",
        description="Generalized inverses and generalized resolvents of matrix pencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="existence, resolvent axioms and rank criteria")
    pa.add_argument("t_path")
    pa.add_argument("s_path")
    _add_grid_flags(pa)
    _add_tolerance_flags(pa)
    _add_output_flags(pa)
    pa.set_defaults(func=cmd_analyze)

    pm = sub.add_parser("mp-check", help="is the pseudoinverse family itself the resolvent?")
    pm.add_argument("t_path")
    pm.add_argument("s_path")
    _add_grid_flags(pm)
    _add_tolerance_flags(pm)
    _add_output_flags(pm)
    pm.set_defaults(func=cmd_mp_check)

    ps = sub.add_parser("spectrum", help="rank-drop locus over a rectangle, as CSV")
    ps.add_argument("t_path")
    ps.add_argument("s_path")
    ps.add_argument("--re-min", type=float, default=-3.0)
    ps.add_argument("--re-max", type=float, default=3.0)
    ps.add_argument("--im-min", type=float, default=-3.0)
    ps.add_argument("--im-max", type=float, default=3.0)
    ps.add_argument("--steps", type=int, default=61, help="points per axis")
    _add_tolerance_flags(ps)
    ps.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    ps.set_defaults(func=cmd_spectrum)

    pp = sub.add_parser("perturb", help="stability of the inverse under a perturbed operator")
    pp.add_argument("t_path")
    pp.add_argument("tbar_path")
    _add_tolerance_flags(pp)
    _add_output_flags(pp)
    pp.set_defaults(func=cmd_perturb)

    pv = sub.add_parser("version", help="print the package version")
    pv.set_defaults(func=lambda args: print(f"genresolvent {__version__}") or 0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GenResolventError, ValueError) as exc:
        print(f"genresolvent: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
