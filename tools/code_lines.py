"""Count code lines: the lines of Python source that hold a token other
than a comment, with docstrings and blank lines left out.

A line counts once however many tokens it holds, and a token that spans
lines (a call split over two lines, a multi-line string that is not a
docstring) counts every line it touches.  A docstring is the string
statement that opens a module, class or function body.

Usage: ``python tools/code_lines.py PATH...``; each PATH is a ``.py`` file
or a directory searched for ``*.py``.  Prints the count of each module and
then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    lines = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for tok in tokenize.generate_tokens(readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    files = []
    for arg in argv or ["."]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
