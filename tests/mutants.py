"""Mutation check: every listed mutant of the source must make its named tests fail.

    python tests/mutants.py [MUTANTS_JSON]

MUTANTS_JSON (default ``tests/mutants.json``) is a list of entries with the
keys ``name``, ``file`` (a path from the repository root), ``snippet`` (text
that must occur exactly once in that file), ``replacement``, ``tests`` (pytest
node ids) and, optionally, ``expect``: ``"killed"`` (the default) or
``"survived"`` for a control mutant that changes nothing.

The runner first runs every named test once on an unmutated copy; they must
all pass.  Then, for each mutant, it copies ``src/`` and ``tests/`` to a new
temporary directory, replaces the snippet in the copy, and runs the mutant's
tests there with ``PYTHONPATH`` at the copied ``src``.  A mutant is killed
when pytest reports failed tests (exit 1) and survives when they pass (exit
0); any other pytest exit, or a snippet that does not occur exactly once, is
an error, so the list has to follow refactors.  Prints one line per mutant
and exits 0 only when every mutant ends as its ``expect`` says.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def run_tests(tests: list[str], mutant: dict | None = None) -> int:
    """pytest's exit code for ``tests`` on a fresh copy of the checkout, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="copulacheck-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=IGNORE)
        if mutant is not None:
            target = copy / mutant["file"]
            text = target.read_text(encoding="utf-8")
            found = text.count(mutant["snippet"])
            if found != 1:
                raise SystemExit(f"{mutant['name']}: snippet occurs {found} times in {mutant['file']}")
            target.write_text(text.replace(mutant["snippet"], mutant["replacement"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        return subprocess.run(argv, cwd=copy, env=env, capture_output=True).returncode


def main(path: Path) -> int:
    mutants = json.loads(path.read_text(encoding="utf-8"))
    baseline = run_tests(sorted({t for m in mutants for t in m["tests"]}))
    if baseline != 0:
        print(f"error: the named tests do not pass unmutated (pytest exit {baseline})")
        return 1
    wrong = 0
    for mutant in mutants:
        code = run_tests(mutant["tests"], mutant)
        if code not in (0, 1):
            print(f"error     {mutant['name']} (pytest exit {code})")
            wrong += 1
            continue
        outcome = "survived" if code == 0 else "killed"
        wrong += outcome != mutant.get("expect", "killed")
        print(f"{outcome:9} {mutant['name']}")
    print(f"{len(mutants) - wrong} of {len(mutants)} mutants as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "tests" / "mutants.json"))
