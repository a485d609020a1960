"""Peak memory of ``verify sklar`` on a large empirical df: witnesses past the cap are never built.

    python tests/check_witness_memory.py copulacheck
    PYTHONPATH=src python tests/check_witness_memory.py python -m copulacheck.cli

The arguments are the command prefix.  The script writes an empirical df of
800 seeded rows in two dimensions, each coordinate k/1000, to a temporary
directory, and runs ``verify sklar --grid 20`` on it in one child process.
That check finds about 268,000 violations and prints 20.  The child's peak
resident set size (``ru_maxrss`` of the waited-for children) must stay at or
below LIMIT_MIB; a check that built a witness per violation would need about
150 MiB.  Prints the measurement and exits 1 over the limit, else 0.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROWS = 800
LIMIT_MIB = 60


def payload(rows: int, seed: int = 0) -> dict:
    rng = random.Random(seed)
    return {
        "family": "empirical",
        "dim": 2,
        "rows": [[f"{rng.randint(0, 1000)}/1000" for _ in range(2)] for _ in range(rows)],
    }


def main(prefix: list[str]) -> int:
    if not prefix:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep) if p
        )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emp800.json"
        path.write_text(json.dumps(payload(ROWS)), encoding="utf-8")
        run = subprocess.run(
            [*prefix, "verify", "sklar", str(path), "--grid", "20"], env=env, capture_output=True
        )
    # Linux reports ru_maxrss in KiB
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if run.returncode != 1:
        print(f"verify sklar exited {run.returncode}, expected 1: {run.stderr.decode()[-500:]}")
        return 1
    report = json.loads(run.stdout)
    print(f"verify sklar on {ROWS} rows: {len(report['violations'])} witnesses shown, "
          f"peak RSS {peak_mib:.1f} MiB (limit {LIMIT_MIB} MiB)")
    return 1 if peak_mib > LIMIT_MIB else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
