"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every random suite is fixed-seed and desk-scale. Tolerances are pinned in
the assertions, not configurable.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from genresolvent import (
    DiskGrid,
    InverseVerdict,
    Pencil,
    build_family,
    check_resolvent_axioms,
    default_grid,
    direct_sum_criteria,
    evaluate,
    existence_check,
    finite_rank_criterion,
    invertibility_corollary,
    mp_inverse,
    mp_resolvent_characterization,
    op_norm2,
    perturbed_inverse,
    projector_family,
    verify_gen_inverse,
)
from helpers import (
    complex_gaussian,
    evaluate_neumann,
    framed_pencil,
    generic_full_pencil,
    perturbation_instance,
    random_complement_inverse,
    rect_diag,
    unitary,
)

DATA = Path(__file__).resolve().parent.parent / "data"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

BROKEN = Pencil(np.diag([1.0, 0.0]), np.eye(2))


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def suite1_pencils(count: int = 100):
    """Fixed-seed constant-support pencils, dims 2-12; existence guaranteed."""
    rng = np.random.default_rng(20240)
    for _ in range(count):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(2, 13))
        rank = int(rng.integers(1, min(m, n) + 1))
        yield framed_pencil(rng, m, n, rank)


def criterion_pencils(count: int = 500):
    """Fixed-seed mixed pencils, dims 2-6, covering passing and failing cases."""
    rng = np.random.default_rng(77001)
    for _ in range(count):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        k = min(m, n)
        case = rng.choice(["constant", "switched", "full", "zero_s"], p=[0.35, 0.35, 0.25, 0.05])
        if case == "constant":
            yield framed_pencil(rng, m, n, int(rng.integers(1, k + 1))), rng
        elif case == "switched":
            yield framed_pencil(rng, m, n, int(rng.integers(1, k)), switched=True), rng
        elif case == "full":
            yield generic_full_pencil(rng, m, n), rng
        else:
            t = framed_pencil(rng, m, n, int(rng.integers(1, k + 1))).t
            yield Pencil(t, np.zeros((m, n))), rng


def test_criterion_1_resolvent_axiom_suite():
    worst = 0.0
    ok = True
    for pencil in suite1_pencils():
        family = build_family(pencil, mp_inverse(pencil.t))
        report = check_resolvent_axioms(family, default_grid(family.radius / 2, 25))
        worst = max(
            worst,
            max(report.inner_residuals),
            max(report.outer_residuals),
            report.max_identity_residual,
        )
        ok = ok and report.ok and not report.skipped
    ok = ok and worst <= 1e-10
    announce(1, ok, f"100 pencils, worst residual {worst:.3e} <= 1e-10")
    assert ok


def test_criterion_2_counterexample_detection():
    grid = default_grid(0.25, 25)
    family = build_family(BROKEN, mp_inverse(BROKEN.t))
    mp_report = mp_resolvent_characterization(BROKEN, grid)
    rank_report = finite_rank_criterion(BROKEN, grid)
    rejects = {
        "existence": not existence_check(family, grid).verdict,
        "finite_rank": not rank_report.verdict,
        "fredholm": not (rank_report.nullity_constant or rank_report.corank_constant),
        "mp_resolvent": not mp_report.constancy_verdict and not mp_report.identity_verdict,
    }
    axiom_report = check_resolvent_axioms(family, DiskGrid(0.5, [0, 0.01]))
    residual = axiom_report.inner_residuals[axiom_report.points.index(0.01)]
    ok = all(rejects.values()) and residual >= 1e-3
    announce(2, ok, f"all four verdicts false, condition-1 residual {residual:.4f} >= 1e-3")
    assert ok


def test_criterion_3_criterion_web_equivalence():
    agreements = 0
    trues = 0
    total = 0
    for pencil, rng in criterion_pencils():
        mp = build_family(pencil, mp_inverse(pencil.t))
        alt = build_family(pencil, random_complement_inverse(rng, pencil.t))
        grid = default_grid(0.5 * min(mp.radius, alt.radius), 25)
        rank_report = finite_rank_criterion(pencil, grid)
        verdicts = (
            rank_report.verdict,
            rank_report.nullity_constant or rank_report.corank_constant,
            existence_check(mp, grid).verdict,
            existence_check(alt, grid).verdict,
            direct_sum_criteria(mp, grid).verdict,
        )
        total += 1
        agreements += len(set(verdicts)) == 1
        trues += all(verdicts)
    ok = agreements == total and 0 < trues < total
    announce(3, ok, f"{agreements}/{total} verdict agreement, {trues} positive instances")
    assert ok


def test_criterion_4_perturbation_equivalence():
    rng = np.random.default_rng(8842)
    agreements = 0
    matches = 0
    trues = 0
    total = 500
    for i in range(total):
        case = ("aligned", "switched", "full")[i % 3]
        t, tbar = perturbation_instance(rng, case)
        g = mp_inverse(t)
        result = perturbed_inverse(g, tbar)
        agreements += result.agree
        trues += result.b_is_generalized
        assert result.smallness < 0.9
        _, _, brute = verify_gen_inverse(tbar, result.b)
        matches += result.classification is brute
    ok = agreements == total and matches == total and 0 < trues < total
    announce(4, ok, f"{agreements}/{total} four-way agreement, {matches}/{total} classification match")
    assert ok


def _theorem_2_6_families(count: int, switched: bool):
    rng = np.random.default_rng(5150 + switched)
    for _ in range(count):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        top = min(m, n) + (0 if switched else 1)
        rank = int(rng.integers(1, top))
        yield framed_pencil(rng, m, n, rank, switched=switched)


def test_criterion_5_mp_characterization_both_directions():
    worst_positive = 0.0
    positives_ok = True
    for pencil in _theorem_2_6_families(40, switched=False):
        family = build_family(pencil, mp_inverse(pencil.t))
        report = mp_resolvent_characterization(pencil, default_grid(family.radius / 2, 25))
        positives_ok = positives_ok and report.constancy_verdict and report.identity_verdict
        worst_positive = max(worst_positive, report.max_identity_residual)
    negatives_ok = True
    for pencil in _theorem_2_6_families(40, switched=True):
        family = build_family(pencil, mp_inverse(pencil.t))
        report = mp_resolvent_characterization(pencil, default_grid(family.radius / 2, 25))
        negatives_ok = negatives_ok and not report.constancy_verdict
        negatives_ok = negatives_ok and not report.identity_verdict
        negatives_ok = negatives_ok and max(report.kernel_gaps) >= 0.9
    ok = positives_ok and worst_positive <= 1e-9 and negatives_ok
    announce(
        5,
        ok,
        f"positives: both verdicts true, worst identity residual {worst_positive:.3e} <= 1e-9; "
        "negatives: both false with kernel gap >= 0.9",
    )
    assert ok


def test_criterion_6_oracle_agreement():
    worst_series = 0.0
    worst_zero = 0.0
    for pencil, rng in criterion_pencils(150):
        g = mp_inverse(pencil.t)
        family = build_family(pencil, g)
        worst_zero = max(worst_zero, op_norm2(evaluate(family, 0) - g.tplus))
        if family.st_norm > 0:
            moduli = [0.1 / family.st_norm, 0.5 / family.st_norm]
        else:
            moduli = [1.0, 10.0]
        for modulus in moduli:
            lam = modulus * np.exp(2j * np.pi * rng.uniform())
            diff = op_norm2(evaluate(family, lam) - evaluate_neumann(family, lam, 60))
            worst_series = max(worst_series, diff)
    ok = worst_series <= 1e-12 and worst_zero <= 1e-12
    announce(
        6, ok, f"series vs solve {worst_series:.3e} <= 1e-12, G(0) vs tplus {worst_zero:.3e}"
    )
    assert ok


def test_criterion_7_projector_laws():
    worst = 0.0
    for pencil in suite1_pencils():
        family = build_family(pencil, mp_inverse(pencil.t))
        grid = default_grid(family.radius / 2, 25)
        pairs = [projector_family(family, lam) for lam in grid.points]
        for a in pairs:
            for b in pairs:
                worst = max(worst, op_norm2(a.p_lambda @ b.p_lambda - a.p_lambda))
                worst = max(worst, op_norm2(a.q_lambda @ b.q_lambda - b.q_lambda))
    ok = worst <= 1e-10
    announce(7, ok, f"100 families, worst projector-law deviation {worst:.3e} <= 1e-10")
    assert ok


def _random_invertible(rng: np.random.Generator) -> np.ndarray:
    """Invertible matrix whose grid-shifted condition numbers stay modest."""
    n = int(rng.integers(2, 7))
    eigs = rng.uniform(0.7, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    if rng.uniform() < 0.5:
        q = unitary(rng, n)
        return q @ np.diag(eigs) @ q.conj().T
    w = np.eye(n) + 0.3 * complex_gaussian(rng, (n, n))
    return w @ np.diag(eigs) @ np.linalg.inv(w)


def _random_singular(rng: np.random.Generator) -> np.ndarray:
    n = int(rng.integers(2, 7))
    rank = int(rng.integers(1, n))
    d = np.zeros(n, dtype=complex)
    d[:rank] = rng.uniform(0.5, 2.0, rank) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, rank))
    return unitary(rng, n) @ rect_diag(n, n, d) @ unitary(rng, n).conj().T


def test_criterion_8_invertibility_corollary():
    rng = np.random.default_rng(30317)
    worst = 0.0
    ok = True
    for _ in range(50):
        t = _random_invertible(rng)
        radius = 0.5 / op_norm2(np.linalg.inv(t))
        report = invertibility_corollary(t, default_grid(radius, 25))
        ok = ok and report.mp_resolvent_ok and report.t_invertible
        # max_classical_residual is already scaled by the condition number
        worst = max(worst, report.max_classical_residual)
    for _ in range(50):
        t = _random_singular(rng)
        radius = 0.5 / op_norm2(np.linalg.pinv(t))
        report = invertibility_corollary(t, default_grid(radius, 25))
        ok = ok and not report.mp_resolvent_ok and not report.t_invertible
    ok = ok and worst <= 1e-10
    announce(
        8, ok, f"50 invertible (true,true), 50 singular (false,false), "
        f"worst cond-scaled inverse deviation {worst:.3e} <= 1e-10"
    )
    assert ok


def _run_cli(args: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "genresolvent", *args],
        capture_output=True,
        cwd=Path(__file__).resolve().parent.parent,
    )
    return proc.returncode, proc.stdout


def test_criterion_9_cli_determinism_and_exit_codes():
    const = [str(DATA / "const_t.json"), str(DATA / "const_s.json")]
    broken = [str(DATA / "diag10.json"), str(DATA / "eye2.json")]
    deterministic = True
    for args in (["analyze", *const], ["analyze", *broken]):
        code1, out1 = _run_cli(args)
        code2, out2 = _run_cli(args)
        deterministic = deterministic and out1 == out2 and code1 == code2 and len(out1) > 0
    expected_codes = [
        (["analyze", *const], 0),
        (["analyze", *broken], 1),
        (["analyze", str(DATA / "diag10.json"), str(DATA / "diag110.json")], 2),
        (["mp-check", str(DATA / "diag110.json"), str(DATA / "diag120.json")], 0),
        (["mp-check", *broken], 1),
        (["mp-check", str(FIXTURES / "corrupted.json"), str(DATA / "eye2.json")], 2),
        (["spectrum", str(DATA / "diag12.json"), str(DATA / "eye2.json"), "--steps", "61"], 0),
        (["spectrum", str(DATA / "diag12.json"), str(DATA / "eye2.json"), "--steps", "0"], 2),
        (["perturb", str(DATA / "diag10.json"), str(DATA / "tbar_generalized.json")], 0),
        (["perturb", str(DATA / "diag10.json"), str(DATA / "tbar_outer.json")], 0),
        (["perturb", str(DATA / "diag10.json"), str(DATA / "tbar_large.json")], 1),
        (["perturb", str(DATA / "diag10.json"), str(FIXTURES / "corrupted.json")], 2),
    ]
    codes_ok = True
    for args, expected in expected_codes:
        code, _ = _run_cli(args)
        codes_ok = codes_ok and code == expected
    # the analyze report's JSON must parse and echo its own exit code
    code, out = _run_cli(["analyze", *const])
    parsed = json.loads(out)
    ok = deterministic and codes_ok and parsed["exit_code"] == code == 0
    announce(9, ok, "byte-identical reports across reruns, exit codes match the table")
    assert ok
