#!/usr/bin/env python3
"""Count the code lines of Python files.

    python tools/count_code_lines.py PATH...

A PATH is a ``.py`` file or a directory, searched recursively for them.
A code line holds at least one token that is not a comment and is not
part of a docstring (the string that opens a module, class or function
body); blank lines do not count. A line is counted once however many
tokens it holds, and every line of a multi-line token (a bracketed call,
a string that is not a docstring) counts. One line per file is printed,
``<code lines>  <path>``, then ``<total>  total``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The number of code lines of one Python source."""
    not_code = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in not_code:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _files(paths):
    for path in paths:
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="+", type=Path)
    args = ap.parse_args(argv)
    total = 0
    for path in _files(args.paths):
        n = count(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
