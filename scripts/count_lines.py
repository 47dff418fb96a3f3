#!/usr/bin/env python3
"""Count the lines of Python modules as code, docstring, comment and blank.

    python scripts/count_lines.py [PATH ...]

Each PATH is a module or a directory of modules (not searched recursively);
the default is the package, ``src/arn``. One row is printed per module,
then a ``total`` row. Every line falls in exactly one column:

- docstring: the lines of a module's, class's or function's docstring
  (``ast``), the blank lines inside it included;
- code: any other line that holds a token other than a comment
  (``tokenize``), such as the lines of a multi-line string or bracket;
- comment: a line whose only token is a comment;
- blank: every other line.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("code", "docstring", "comment", "blank")
ROOT = Path(__file__).resolve().parent.parent
# tokens that mark no line as code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> dict:
    """The counts of ``COLUMNS`` for one module's source."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for number in range(1, len(io.StringIO(source).readlines()) + 1):
        column = ("docstring" if number in docstring else "code" if number in code
                  else "comment" if number in comment else "blank")
        counts[column] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "arn"])
    args = parser.parse_args(argv)
    modules = [m for p in args.paths for m in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    rows = [(m.name, count(m.read_text(encoding="utf-8"))) for m in modules]
    rows.append(("total", {c: sum(r[c] for _, r in rows) for c in COLUMNS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}", *(f"{c:>9}" for c in (*COLUMNS, "total")))
    for name, r in rows:
        print(f"{name:<{width}}", *(f"{r[c]:>9}" for c in COLUMNS), f"{sum(r.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
