"""Code-line counts of the besovlab package, one rule for every comparison.

    python tools/sloc.py [DIR]

Prints, for each module of DIR (default: ``src/besovlab`` of this checkout)
and in total, the number of lines that hold a token other than a comment or
a docstring. A docstring is the string expression that opens a module, class
or function body. Blank lines and lines holding only comments or docstring
text do not count; every line a multi-line statement or string spans does.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree):
    """(start, end) positions of every docstring expression of ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def count_lines(text: str) -> int:
    """Number of lines of ``text`` holding a token other than a comment or a
    docstring."""
    spans = _docstring_spans(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT:
            continue
        if any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?",
                        default=os.path.join(ROOT, "src", "besovlab"))
    args = parser.parse_args(argv)
    total = 0
    for name in sorted(os.listdir(args.dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(args.dir, name)) as fh:
            n = count_lines(fh.read())
        total += n
        print(f"{name:<16}{n:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
