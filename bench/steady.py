"""Steadiness check and baseline: run every workload over several seeds.

    python3 bench/steady.py [--out PATH]

Runs ``bench/run.py --trace 0`` once per seed 0..SEEDS-1 and workload, for
the ``run_seconds`` of ``BENCHMARK.json`` each, one run at a time, and prints
for every end-to-end metric of every workload its median, first and third
quartile (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the bound ``BENCHMARK.json`` gives it.  With
``--out`` the table is also written as JSON together with the Python version,
git commit and CPU count of the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = 10


def _git_sha() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds) for seed in range(SEEDS)]
        table[workload] = {}
        print(f"## {workload}  ({SEEDS} seeds x {seconds} s)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            table[workload][name] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values,
            }
            print(f"{name:14s} {unit:9s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}  bound {bound:.0%}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"failed_share   ratio     {failed}/{attempted}")
        table[workload]["failed_share"] = {"failed": failed, "attempted": attempted}
    if args.out:
        meta = {
            "python": platform.python_version(),
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "seeds": SEEDS,
            "seconds": seconds,
        }
        args.out.write_text(json.dumps({"machine": meta, "workloads": table}, indent=2) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    main()
