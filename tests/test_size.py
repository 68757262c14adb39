"""The size of src/ in code lines: lines that are not docstrings, comments
or blank.

code_lines(path) reads one module with tokenize and ast.  Nothing here
bounds the count; the test only pins the counter on a small snippet.
Run this file to print the count per module and in total:

    python tests/test_size.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "currentalg"

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers of the docstrings of the module, its classes and its
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(text):
    """The code lines of the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def code_lines(path):
    """The code lines of the module at path."""
    return count_code_lines(Path(path).read_text())


def test_the_counter_skips_docstrings_comments_and_blank_lines():
    snippet = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts

# a comment alone does not


def f(x):
    """Docstring."""
    text = """a string that is
    not a docstring"""
    return (x +
            1)


class C:
    "one-line docstring"
    y = 1
'''
    # import, def, the two lines of text, the two of return, class, y
    assert count_code_lines(snippet) == 8


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path)
        total += n
        print("%6d  %s" % (n, path.name))
    print("%6d  total" % total)
