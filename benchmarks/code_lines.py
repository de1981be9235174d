#!/usr/bin/env python3
"""Count code lines: ``python benchmarks/code_lines.py PATH...``.

The ruler the simplicity PRs quote (PR 13's rule): a line counts when it
holds part of a token that is not a comment, and is not part of a
docstring — so blank lines, comments and docstrings are free, and
reflowing an expression over more lines is not.  Each ``PATH`` is a file
or a directory walked for ``*.py``; one count is printed per ``PATH``.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from typing import Iterator, Set

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """Code lines of one module's source text."""
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _python_files(path: str) -> Iterator[str]:
    if os.path.isfile(path):
        yield path
        return
    for root, _, names in os.walk(path):
        for name in names:
            if name.endswith(".py"):
                yield os.path.join(root, name)


def count_path(path: str) -> int:
    total = 0
    for filename in _python_files(path):
        with open(filename, encoding="utf-8") as handle:
            total += count_source(handle.read())
    return total


def main(argv) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    for path in argv:
        print(f"{count_path(path):>7}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
