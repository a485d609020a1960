"""Every Python file of the project parses with the Python 3.10 grammar, the oldest version it supports.

The test only reads the files, ``bench/`` included; ``ast.parse`` with
``feature_version`` refuses syntax newer than 3.10, such as ``except*``
or a type parameter list, on whatever Python runs the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for part in ("src", "tests", "bench") for path in (ROOT / part).rglob("*.py"))


def test_the_tree_has_files_to_parse():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == {"src", "tests", "bench"}


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
