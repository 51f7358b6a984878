"""Smoke test of the experiment scripts at small sizes.

Each script runs in its own interpreter, as from the command line, and must
exit 0 with every criterion agreeing; the report digests must repeat.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,expected",
    [
        ("criterion_web_sweep.py", ["--pencils", "20"], "instances with internal disagreement: 0"),
        ("perturbation_sweep.py", ["--instances", "30"], "four-way agreement:        30/30"),
        ("rank_drop_scan.py", ["--steps", "25"], "drop points:     2"),
    ],
)
def test_script_runs(script, args, expected):
    done = run_script(script, args)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


def test_report_digests_repeat():
    """Two runs print the same digest per command and the same total."""
    runs = [run_script("report_digests.py", ["--pencils", "1"]) for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    assert lines[-1].endswith("  total")
    assert any(line.endswith("--grid-points 60 --seed 3") for line in lines)
    assert len({line.split()[0] for line in lines}) > len(lines) // 2


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
