"""The README's library quick start runs and gives what its comments say."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The python block under "## Library quick start", run statement by
    statement: the names it binds, and the value of each expression
    statement keyed by its source line, trailing comment included."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", text, re.M | re.S)
    assert block, "README has no python block under '## Library quick start'"
    source = block.group(1)
    lines = source.splitlines()
    namespace: dict = {}
    values = {}
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            values[lines[statement.lineno - 1]] = eval(code, namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    return namespace, values


def test_quick_start_gives_what_its_comments_claim():
    namespace, values = quick_start()
    assert namespace["family"].radius == 0.5
    claimed_true = {line.split("#")[0].strip(): value for line, value in values.items()
                    if line.rstrip().endswith("# True")}
    assert claimed_true == {
        "gr.existence_check(family, grid).verdict": True,
        "gr.check_resolvent_axioms(family, grid).ok": True,
    }
    evaluated = next(value for line, value in values.items() if "gr.evaluate(" in line)
    np.testing.assert_allclose(evaluated, np.diag([1 / 0.9, 1 / 0.8, 0.0]), atol=1e-15)
