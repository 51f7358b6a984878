#!/usr/bin/env python3
"""Count the code lines of Python sources: lines that hold a token of code.

A line counts when some token other than a comment, an indent or a line
break touches it, so blank lines, comment lines and the continuation lines
of a bracket that hold only comments do not. Docstrings (a string literal
that opens a module, class or function body, found through the AST) do not
count either, over all the lines they span. Prints one line per file,
``<count>  <path>``, then ``<total>  total``.

    python3 scripts/code_lines.py [PATH ...]    (default: src)

A directory counts every ``*.py`` file below it.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of every scope in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in Python source text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def sources(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=["src"])
    total = 0
    for path in sources(parser.parse_args().paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count}  {path}")
    print(f"{total}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
