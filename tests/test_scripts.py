"""Smoke test of the experiment scripts at small sizes.

Each script runs in its own interpreter, as from the command line, and must
exit 0 with every criterion agreeing; the report digests must repeat, and
the rank-drop script's CSV must equal the CLI's.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from genresolvent.cli import main

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


def test_rank_drop_scan_csv_equals_cli_spectrum(tmp_path):
    """The script's --out CSV is the same bytes as genresolvent spectrum --out."""
    pencil = [str(ROOT / "data" / "diag12.json"), str(ROOT / "data" / "eye2.json")]
    script_csv, cli_csv = tmp_path / "script.csv", tmp_path / "cli.csv"
    done = run_script("rank_drop_scan.py", [*pencil, "--steps", "9", "--out", str(script_csv)])
    assert done.returncode == 0, done.stderr
    assert main(["spectrum", *pencil, "--steps", "9", "--out", str(cli_csv)]) == 0
    assert script_csv.read_bytes() == cli_csv.read_bytes()
    assert script_csv.read_text().startswith("re,im,rank,is_drop\n")


def test_code_lines_count_only_lines_with_code(tmp_path):
    """Blank, comment and docstring lines do not count; a code line with a
    trailing comment, both lines of a string value and each line of a
    bracketed expression that holds code do."""
    source = tmp_path / "sample.py"
    source.write_text(
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "import math  # a trailing comment\n"
        "\n"
        "\n"
        "def area(r):\n"
        '    """One line."""\n'
        '    text = """not a\n'
        'docstring"""\n'
        "    return (math.pi\n"
        "            # inside the bracket\n"
        "            * r ** 2)\n"
    )
    done = run_script("code_lines.py", [str(source)])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"6  {source}", "6  total"]


def run_script(script, args):
    """Run a script in its own interpreter, where a RuntimeWarning is an error
    as it is in this suite's own process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
