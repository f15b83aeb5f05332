"""Tests for the code-line counter in tools/."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "code_lines.py")
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_skips_blank_comment_and_docstring_lines():
    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return (x +
                1)
'''
    # import, class, def, the two lines of text, the two of return.
    assert code_lines.code_lines(source) == 7


def test_counts_the_package(capsys):
    assert code_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-2].endswith(" total") and counts[-2] == sum(counts[:-2]) > 0
    assert any(line.endswith(" length.py") for line in lines)


def test_counts_the_oracles_apart_from_the_total(capsys):
    code_lines.main()
    last = capsys.readouterr().out.splitlines()[-1]
    count, name = last.split()
    assert name == "tests/oracles.py"
    oracles = os.path.join(os.path.dirname(__file__), "oracles.py")
    with open(oracles, encoding="utf-8") as f:
        assert int(count) == code_lines.code_lines(f.read()) > 0
