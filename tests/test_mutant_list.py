"""``tests/mutants.json`` follows the code: every entry can be applied, and every test it names exists.

``tests/mutants.py`` applies each mutant and runs its tests, which is slow.
These checks read the files only: each ``snippet`` occurs exactly once in its
``file``, and each named test's file defines the test function, so a stale
entry shows here rather than only when the mutants are run.
"""

import ast
import json
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))


@cache
def defined_functions(path: Path) -> frozenset[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return frozenset(node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_each_snippet_occurs_once_and_each_named_test_exists(mutant):
    assert (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["snippet"]) == 1
    assert mutant["snippet"] != mutant["replacement"] and mutant["tests"]
    for node_id in mutant["tests"]:
        file, *_, function = node_id.split("::")
        assert (ROOT / file).is_file(), node_id
        assert function.partition("[")[0] in defined_functions(ROOT / file), node_id
