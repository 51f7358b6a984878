"""Self-test of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q bench/test_bench.py

Runs the launcher for one second per workload, twice traced and once
untraced, from the repository root. Checks the generated inputs' sha256 for
the default seed, the full metric-name set, and that the traced
``linalg.*.calls`` counts repeat exactly across two runs: factorization
counts are deterministic, so they are the regression gate later changes
are held to. Also checks which host-speed probes calibrate each command.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-small", "analyze-dense", "spectrum-scan")
DEFAULT_SEED = 1


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, repeat: int = 0) -> tuple[dict, dict]:
    """(info line, result line) of one one-second launcher run; repeat keys a fresh run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@functools.lru_cache(maxsize=None)
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_input_digests_for_default_seed(workload):
    recorded = json.loads((BENCH / "input_digests.json").read_text(encoding="utf-8"))
    info, _ = run(workload, 0)
    assert info["seed"] == DEFAULT_SEED
    assert info["input_sha256"] == recorded[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_full_metric_set(workload, trace, section):
    _, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_spec():
    assert tuple(w["name"] for w in spec()["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_linalg_counts_repeat(workload):
    first = run(workload, 1)[1]["metrics"]
    second = run(workload, 1, repeat=1)[1]["metrics"]
    counts = [k for k in first if k.startswith("linalg.") and k.endswith(".calls")]
    assert len(counts) == 5
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_calibration_uses_the_probes_around_each_command():
    sys.path.insert(0, str(BENCH))
    from hostspeed import REFERENCE_S, calibrated

    r = REFERENCE_S
    # command 0 ran between probes 0 and 1, command 1 between probes 1 and 2
    assert calibrated([1.0, 1.0], [0, 1, 2], [r, 3 * r, 2 * r]) == pytest.approx([0.5, 0.4])
    assert calibrated([0.3], [0, 3], [2 * r] * 4) == pytest.approx([0.15])
