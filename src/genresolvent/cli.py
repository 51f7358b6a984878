"""Command surface: analyze, mp-check, spectrum, perturb, version.

Reports are UTF-8 JSON on standard output unless --out is given; diagnostics
go to standard error. Exit codes: 0 success/criterion holds, 1 criterion
fails (or the perturbation is too large for perturb), 2 usage or input
error (an --out file that cannot be written included), 3 internal contract
violation (mp-check verdict disagreement).

Identical inputs and flags produce byte-identical reports: keys are sorted,
grids are fixed, and timing is only included when explicitly requested
with --timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

from . import __version__
from .criteria import (
    RankConstancyReport,
    generalized_spectrum_scan,
    mp_resolvent_characterization,
    rectangular_region,
)
from .errors import GenResolventError, PerturbationTooLargeError
from .geninv import mp_inverse
from .linalg import TolerancePolicy, factor
from .matio import file_digest, load_matrix, matrix_payload, report_text, scan_csv
from .perturbation import perturbed_inverse
from .resolvent import (
    DiskGrid,
    Pencil,
    build_family,
    check_resolvent_axioms,
    default_grid,
    existence_check,
)


# the tolerances each command reads; _tolerances rejects any other one when given
READS = {"analyze": ("rank_rtol", "residual_tol"), "perturb": ("rank_rtol", "residual_tol"),
         "mp-check": ("rank_rtol", "residual_tol", "gap_tol"), "spectrum": ("rank_rtol",)}


def _add_command(sub, name: str, help_text: str, func, operand: str = "s_path"):
    """A subparser for name that takes T's matrix file, one more operand and the
    tolerance flags; a flag not given reads None."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("t_path")
    parser.add_argument(operand)
    parser.add_argument("--rank-rtol", type=float,
                        help="relative singular-value cutoff factor")
    parser.add_argument("--residual-tol", type=float,
                        help="relative residual bound for matrix equations (not spectrum)")
    parser.add_argument("--gap-tol", type=float,
                        help="projector-gap bound for subspace equality (mp-check only)")
    parser.set_defaults(func=func)
    return parser


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-radius", type=float, default=None,
                        help="sampling radius (default: half the family radius)")
    parser.add_argument("--grid-points", type=int, default=25,
                        help="number of sample points including 0 (default 25)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report (breaks byte determinism)")


def _tolerances(args) -> TolerancePolicy:
    """The tolerances given on the command line, the others at DEFAULT_TOL's
    values. One the command does not read would decide nothing: when given,
    it is an input error (exit 2) naming the setting."""
    given = {name: value for name in ("rank_rtol", "residual_tol", "gap_tol")
             if (value := getattr(args, name)) is not None}
    unread = [name for name in given if name not in READS[args.command]]
    if unread:
        raise GenResolventError(f"{args.command}: {unread[0]} decides nothing here; "
                                f"it reads only {' and '.join(READS[args.command])}")
    return TolerancePolicy(**given)


def _grid_payload(grid: DiskGrid) -> dict:
    return {"radius": grid.radius, "points": list(grid.points)}


def _write(text: str, out) -> None:
    """Write a report or scan to the --out file, or to standard output without
    one; a file that cannot be written is an input error (exit 2)."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise GenResolventError(f"{out}: cannot write: {exc.strerror}") from exc


def _emit(args, inputs: dict, tol: TolerancePolicy, body: dict, exit_code: int,
          started: float) -> int:
    """Write a JSON report: the command's own body inside the envelope every
    report shares (command, hashed inputs, tolerances, exit code and, with
    --timing, the seconds since started). Returns the exit code."""
    elapsed = time.perf_counter() - started
    report = {
        "command": args.command,
        "inputs": {
            name: {"path": path, "sha256": file_digest(path)} for name, path in inputs.items()
        },
        "tolerances": dataclasses.asdict(tol),
        **body,
        "exit_code": exit_code,
    }
    if args.timing:
        report["timing_seconds"] = elapsed
    _write(report_text(report), args.out)
    return exit_code


def _pencil_setup(args):
    """What analyze and mp-check share: the tolerances, the clock's start after
    loading, the family of the pencil and of T's Moore-Penrose inverse, the
    grid, and the SVD of T that inverse was read off."""
    t = load_matrix(args.t_path)
    s = load_matrix(args.s_path)
    tol = _tolerances(args)
    started = time.perf_counter()
    t_factor = factor(t, tol)
    family = build_family(Pencil(t, s), mp_inverse(t, tol, t_factor))
    radius = args.grid_radius if args.grid_radius is not None else family.radius / 2
    return tol, started, family, default_grid(radius, args.grid_points), t_factor


def cmd_analyze(args) -> int:
    # T's SVD is dropped here: analyze reads no kernel or range of T
    tol, started, family, grid = _pencil_setup(args)[:4]
    certificate = existence_check(family, grid, tol)
    axioms = check_resolvent_axioms(family, grid, tol)
    finite_rank = RankConstancyReport(certificate.profile)
    body = {
        "grid": _grid_payload(grid),
        "family": {"radius": family.radius, "st_plus_norm": family.st_norm},
        "existence": {
            "verdict": certificate.verdict,
            "criterion": "transversality",
            "per_point": [
                {"lambda": lam, "transversal": ok} for lam, ok in certificate.per_point
            ],
        },
        "axioms": {
            "ok": axioms.ok,
            "max_inner_residual": max(axioms.inner_residuals, default=0.0),
            "max_outer_residual": max(axioms.outer_residuals, default=0.0),
            "axiom_method": axioms.axiom_method,
            "max_identity_residual": axioms.max_identity_residual,
            "identity_method": axioms.identity_method,
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
    }
    exit_code = 0 if certificate.verdict and axioms.ok else 1
    return _emit(args, {"t": args.t_path, "s": args.s_path}, tol, body, exit_code, started)


def cmd_mp_check(args) -> int:
    tol, started, family, grid, t_factor = _pencil_setup(args)
    mp = mp_resolvent_characterization(family.pencil, grid, tol, family.st_norm, t_factor)
    if mp.constancy_verdict != mp.identity_verdict:
        exit_code = 3
    elif mp.constancy_verdict:
        exit_code = 0
    else:
        exit_code = 1
    body = {
        "grid": _grid_payload(grid),
        "kernel_gaps": list(mp.kernel_gaps),
        "range_gaps": list(mp.range_gaps),
        "max_identity_residual": mp.max_identity_residual,
        "identity_method": mp.identity_method,
        "max_axiom_residual": mp.max_axiom_residual,
        "axiom_method": mp.axiom_method,
        "constancy_verdict": mp.constancy_verdict,
        "identity_verdict": mp.identity_verdict,
        "verdicts_agree": mp.constancy_verdict == mp.identity_verdict,
        "note": "verdicts certify the sampled grid points only",
    }
    _emit(args, {"t": args.t_path, "s": args.s_path}, tol, body, exit_code, started)
    if exit_code == 3:
        print("mp-check: constancy and identity verdicts disagree (contract violation)",
              file=sys.stderr)
    return exit_code


def cmd_spectrum(args) -> int:
    if args.steps < 1:
        print("spectrum: --steps must be at least 1", file=sys.stderr)
        return 2
    tol = _tolerances(args)
    t = load_matrix(args.t_path)
    s = load_matrix(args.s_path)
    pencil = Pencil(t, s)
    region = rectangular_region(args.re_min, args.re_max, args.im_min, args.im_max, args.steps)
    _write(scan_csv(generalized_spectrum_scan(pencil, region, tol)), args.out)
    return 0


def cmd_perturb(args) -> int:
    t = load_matrix(args.t_path)
    tbar = load_matrix(args.tbar_path)
    tol = _tolerances(args)
    started = time.perf_counter()
    g = mp_inverse(t, tol)
    try:
        result = perturbed_inverse(g, tbar, tol)
    except PerturbationTooLargeError as exc:
        print(f"perturb: {exc}", file=sys.stderr)
        return 1
    body = {
        "b": matrix_payload(result.b),
        "classification": result.classification.value,
        "smallness": result.smallness,
        "inner_residual": result.inner_residual,
        "outer_residual": result.outer_residual,
        "splitting_checks": {
            "b_is_generalized": result.b_is_generalized,
            "transversal": result.transversal,
            "codomain_splits": result.codomain_splits,
            "domain_splits": result.domain_splits,
            "agree": result.agree,
        },
    }
    return _emit(args, {"t": args.t_path, "tbar": args.tbar_path}, tol, body, 0, started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genresolvent",
        description="Generalized inverses and generalized resolvents of matrix pencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = _add_command(sub, "analyze", "existence, resolvent axioms and rank criteria",
                      cmd_analyze)
    _add_grid_flags(pa)
    _add_output_flags(pa)

    pm = _add_command(sub, "mp-check", "is the pseudoinverse family itself the resolvent?",
                      cmd_mp_check)
    _add_grid_flags(pm)
    _add_output_flags(pm)

    ps = _add_command(sub, "spectrum", "rank-drop locus over a rectangle, as CSV", cmd_spectrum)
    # argparse reads a separate value such as -1e1 or -inf as a flag: the
    # help names the --flag=value form, which reads any value
    for bound, default in (("re-min", -3.0), ("re-max", 3.0), ("im-min", -3.0), ("im-max", 3.0)):
        ps.add_argument(f"--{bound}", type=float, default=default,
                        help=f"finite region bound (default {default:g}); give a negative "
                             f"value as --{bound}=-1e1")
    ps.add_argument("--steps", type=int, default=61, help="points per axis")
    ps.add_argument("--out", default=None, help="write the CSV here instead of stdout")

    pp = _add_command(sub, "perturb", "stability of the inverse under a perturbed operator",
                      cmd_perturb, "tbar_path")
    _add_output_flags(pp)

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
    # a MemoryError is an input too large for this machine, such as a grid
    # whose identity bound fails and whose k x k pairs do not fit; NumPy's
    # names the allocation it could not make
    except (GenResolventError, ValueError, MemoryError) as exc:
        print(f"genresolvent: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
