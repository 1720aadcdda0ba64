"""The package supports Python 3.10 (pyproject's requires-python): every
Python file of the repository must parse with 3.10's grammar.

ast.parse with feature_version=(3, 10) rejects syntax added later, such as
``except*`` groups; it cannot see calls into library functions that only
newer versions provide.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "tools", "perfbench")


def test_every_python_file_parses_as_python_3_10():
    files = sorted(p for d in DIRS for p in (ROOT / d).rglob("*.py"))
    assert Path(__file__).resolve() in files
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, "\n".join(failures)


def test_the_guard_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
