"""Smoke test of the experiment scripts at small sizes.

Each script runs in its own interpreter, as from the command line, with
``src`` and ``tests`` on PYTHONPATH, and must exit 0 with every criterion
agreeing; the report digests must repeat, and a sweep given arguments under
which it would check nothing or crash exits 2 with one error line.
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
    ],
)
def test_script_runs(script, args, expected):
    done = run_script(script, args)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


def test_perturbation_sweep_prints_its_gate_value_unrounded():
    """The printed quotient reads back as the float the gate compared, its
    margin 1 - q is printed beside it, and it is at most 1 whenever the
    sweep exits 0."""
    done = run_script("perturbation_sweep.py", ["--instances", "30"])
    (line,) = [line for line in done.stdout.splitlines() if line.startswith("worst deviation / bound:")]
    printed = line.split(":", 1)[1].split()[0]
    quotient = float(printed)
    assert repr(quotient) == printed
    assert f"(margin {1.0 - quotient!r}, must be <= 1)" in line
    assert done.returncode != 0 or quotient <= 1.0


def test_report_digests_repeat():
    """Two runs print the same digest per command and the same total."""
    runs = [run_script("report_digests.py", ["--pencils", "1"]) for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    assert lines[-1].endswith("  total")
    assert any(line.endswith("--grid-points 60") for line in lines)
    assert len({line.split()[0] for line in lines}) > len(lines) // 2


@pytest.mark.parametrize(
    "script,args,named",
    [
        ("criterion_web_sweep.py", ["--pencils", "0"], "--pencils"),
        ("criterion_web_sweep.py", ["--seed", "-1"], "--seed"),
        ("criterion_web_sweep.py", ["--max-dim", "1"], "--max-dim"),
        ("perturbation_sweep.py", ["--instances", "0"], "--instances"),
        ("perturbation_sweep.py", ["--seed", "-1"], "--seed"),
    ],
)
def test_sweep_rejects_arguments_that_check_nothing_or_crash(script, args, named):
    """No pencils or instances would pass the gate unchecked, and a negative
    seed or a dimension bound under 2 would end in a traceback: each exits 2
    with one error line naming the flag, after the usage."""
    done = run_script(script, args)
    assert (done.returncode, done.stdout) == (2, "")
    error = done.stderr.splitlines()[-1]
    assert error.startswith(f"{script}: error: {named} ")
    assert "Traceback" not in done.stderr


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
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
