"""Count the code lines of every ``src/cqdeph`` module of one or two checkouts.

    python3 tools/code_lines.py <checkout> [<checkout>]

A code line is a line that holds part of a Python token other than a
comment, after the docstrings of the module, its classes and its functions
are taken out; blank lines, comment lines and docstring lines do not count.
Prints one row per module and the total, with one column per checkout, so
two checkouts read side by side (a module missing from one shows ``-``).
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno,
                                              first.end_lineno + 1))
    return len(lines)


def _counts(checkout: str) -> dict[str, int]:
    counts = {}
    for path in sorted(glob.glob(os.path.join(checkout, "src", "cqdeph",
                                              "*.py"))):
        with open(path, encoding="utf-8") as f:
            counts[os.path.basename(path)] = code_lines(f.read())
    return counts


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 tools/code_lines.py <checkout> [<checkout>]",
              file=sys.stderr)
        return 2
    columns = [_counts(checkout) for checkout in argv]
    modules = sorted(set().union(*columns))
    width = max(len(name) for name in modules + ["module", "total"])
    heads = [os.path.basename(os.path.normpath(c)) or c for c in argv]
    cell = max(8, *(len(h) for h in heads))
    print(f"{'module':<{width}}" + "".join(f" {h:>{cell}}" for h in heads))
    for name in modules + ["total"]:
        row = [str(sum(col.values())) if name == "total"
               else str(col.get(name, "-")) for col in columns]
        print(f"{name:<{width}}" + "".join(f" {v:>{cell}}" for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
