"""Code lines and file lines of each module of src/falg, and their totals.

    python3 scripts/code_lines.py

A code line holds a token other than a comment, a newline or an indent, and
is not part of a docstring; a token that spans lines (a long string) makes
each of its lines a code line.  The second count is the file's line count,
as ``wc -l`` reads it.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "falg"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """(code lines, newline count) of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines), text.count("\n")


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    total = [0, 0]
    print(f"{'module':<14}{'code':>7}{'wc -l':>8}")
    for path in sorted(SRC.glob("*.py")):
        code, wc = counts(path.read_text())
        total[0] += code
        total[1] += wc
        print(f"{path.stem:<14}{code:>7}{wc:>8}")
    print(f"{'total':<14}{total[0]:>7}{total[1]:>8}")


if __name__ == "__main__":
    main()
