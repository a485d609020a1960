"""Record the exit code, report ``check`` and ``points`` of every job.

    python3 bench/record_expected.py

Runs each job of every workload once per seed in RECORD_SEEDS against the
checkout's ``src``, requires all seeds to agree, and writes
``bench/expected.json``.  Lemma jobs record only exit code and check: their
grids depend on the seed, so their ``points`` come from the generator.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import worker  # noqa: E402
import workloads  # noqa: E402
from copulacheck import cli  # noqa: E402

RECORD_SEEDS = range(5)


def observe(job: dict) -> dict:
    _, rc, out, err = worker._run_job(cli, job["argv"])
    if not isinstance(rc, int):
        raise SystemExit(f"{job['id']} did not finish ({rc!r}):\n{err}")
    report = json.loads(out)
    seen = {"rc": rc, "check": report["check"]}
    if "points" not in job:
        seen["points"] = report["points"]
    return seen


def main() -> None:
    expected: dict = {}
    for workload in workloads.WHY:
        table: dict = {}
        for seed in RECORD_SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                for job in workloads.build(workload, seed, Path(tmp)):
                    seen = observe(job)
                    if job["key"] in table and table[job["key"]] != seen:
                        raise SystemExit(f"{job['id']} differs across seeds: {table[job['key']]} vs {seen}")
                    table[job["key"]] = seen
        expected[workload] = table
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
