"""Smoke test of the experiment scripts at small sizes.

Each script runs in its own interpreter, as from the command line, and must
exit 0 with every criterion agreeing.
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
