"""Replay every golden case through a command and compare the exit code and stdout bytes.

    python tests/golden/replay.py copulacheck
    PYTHONPATH=src python tests/golden/replay.py python -m copulacheck.cli

The arguments are the command prefix; each case's argv from ``cases.json`` is
appended to it and run in a child process from ``inputs/``.  Relative entries
of ``PYTHONPATH`` are made absolute first, since the children run from there.
Prints one line per mismatch and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent


def main(prefix: list[str]) -> int:
    if not prefix:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep) if p
        )
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    failed = 0
    for case in cases:
        run = subprocess.run(
            [*prefix, *case["argv"]], cwd=GOLDEN / "inputs", env=env, capture_output=True
        )
        expected = (GOLDEN / "out" / f"{case['name']}.txt").read_bytes()
        if run.returncode != case["exit"] or run.stdout != expected:
            failed += 1
            print(
                f"MISMATCH {case['name']}: exit {run.returncode} (recorded {case['exit']}), "
                f"stdout {'equal' if run.stdout == expected else 'differs'}"
            )
    print(f"{len(cases) - failed} of {len(cases)} golden cases replayed byte-identically")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
