"""Code lines of the package, per module and in total.

A code line is a line that holds a token other than a comment or a line
break (a string that spans lines holds each of them), and that is not part
of a docstring: the first statement of a module, class or function body
when it is a string, as ``ast`` finds it.  Blank lines, comments and
docstrings do not count.  Run this file from the repository root:

    python tests/code_lines.py [directory]

The directory defaults to ``src/digitop``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(directory: str = "src/digitop") -> None:
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:24} {count:5}")
    print(f"{'total':24} {total:5}")


if __name__ == "__main__":
    main(*sys.argv[1:])
