"""copulacheck benchmark: seeded ``copulacheck verify`` workloads, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload is generated from the seed into a temporary directory inside the
checkout; the program receives only paths and argv.  Each run starts fresh
child processes one at a time: SETUP_REPEATS that import copulacheck and load
every payload once, half before and half after the timed loop (``setup_s`` is
their median), and one that drives ``copulacheck.cli.main(argv)`` in-process
as a closed loop - one client, one thread, jobs back to back - for at least S
seconds of whole passes over the workload's jobs.

Every job is gated: its exit code, report ``check`` and ``points`` must equal
``expected.json``, every repetition must print byte-identical stdout, and the
oracle re-checks each emitted sklar/copula/margin witness.  The last stdout
line is the JSON result; any failed gate makes the exit code 1.

With ``--trace 0`` the result holds the end-to-end metrics.  Times are
scaled to a fixed core speed: on a shared machine (measured on a 2-vCPU VM)
the same code runs up to twice as slow while other tenants load the core, in
phases that come and go within a second and last up to minutes, which moved
raw medians by 20-50% between runs of the same code.  So the worker runs a fixed pure-Python
Fraction loop (``worker.calibrate``) next to every timed piece of work, and
each wall time ``t`` is reported as ``t * CALIB_REF_S / c``, with ``c`` the
loop's duration around that work: the seconds the work takes on a core that
runs the loop in CALIB_REF_S (about that VM's unloaded speed).  A change to
copulacheck moves these times as it moves wall time; the host's load cancels.
``job_s.p50`` is the median over the workload's jobs of each job's median
scaled time: a median pooled over all executions would, with an even number
of jobs, fall in the gap between two jobs' samples and be set by their
extremes.  ``job_s.tail`` is the nearest-rank p90 of all scaled execution
times (a run holds at least MIN_SAMPLES executions, so at least ten lie
beyond p90), ``points_per_s`` the points the reports declare over the summed
scaled job time, ``setup_s`` the median scaled setup time.

With ``--trace 1`` untraced and traced passes alternate and the result holds
the per-layer metrics of one traced pass (self times in unscaled seconds),
plus the tracing overhead: scaled traced pass time over scaled untraced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 10
# seconds worker.calibrate takes on the reference core; sets the scale of times
CALIB_REF_S = 0.0015
TAIL_PERCENTILE = 90
# p90 has at least ten samples beyond it once a run holds 100 job samples
MIN_SAMPLES = 100


def _child_env() -> dict:
    env = dict(os.environ)
    # absolute, so the child imports this checkout's package whatever its cwd
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(args: list[str]) -> str:
    """Run one worker process to completion and return its stdout.

    No timeout: a run worker stops by itself after its seconds and minimum
    passes, however long those take on the host."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=_child_env(),
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def _setup_times(jobs_path: Path, count: int) -> list[float]:
    """Scaled setup times of ``count`` fresh processes."""
    times = []
    for _ in range(count):
        setup = json.loads(_child(["setup", str(jobs_path)]))
        times.append(setup["setup_s"] * CALIB_REF_S / setup["calib_s"])
    return times


def _scaled(samples: list[float], calib: list[float]) -> list[float]:
    return [t * CALIB_REF_S / c for t, c in zip(samples, calib)]


def _points_total(points) -> int:
    return sum(points.values()) if isinstance(points, dict) else points


def gate(job: dict, rec: dict, expected: dict) -> list[str]:
    """Correctness failures of one job's recorded executions."""
    want = expected[job["key"]]
    errors = [f"exit code {rc!r}, expected {want['rc']}" for rc in set(rec["rcs"]) if rc != want["rc"]]
    if rec["stdout_mismatches"]:
        errors.append(f"{rec['stdout_mismatches']} repetitions printed different stdout")
    try:
        report = json.loads(rec["stdout"])
    except json.JSONDecodeError:
        return errors + [f"stdout is not a JSON report; stderr: {rec['stderr'][-500:]}"]
    want_points = job.get("points", want.get("points"))
    if report.get("check") != want["check"]:
        errors.append(f"check {report.get('check')!r}, expected {want['check']!r}")
    if report.get("points") != want_points:
        errors.append(f"points {report.get('points')!r}, expected {want_points!r}")
    if "df" in job:
        errors += oracle.witness_errors(report, job["df"])
    return errors


def tail(samples: list[float]) -> float:
    """Nearest-rank TAIL_PERCENTILE of the samples."""
    ordered = sorted(samples)
    return ordered[math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1]


def end_to_end(records, reports, setups, result) -> dict:
    per_job = [_scaled(rec["samples"], rec["calib"]) for rec in records]
    times = [t for samples in per_job for t in samples]
    points = sum(
        _points_total(report["points"]) * len(rec["samples"])
        for rec, report in zip(records, reports)
    )
    return {
        "job_s.p50": (statistics.median(statistics.median(s) for s in per_job), "s"),
        "job_s.tail": (tail(times), "s"),
        "points_per_s": (points / sum(times), "points/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def per_layer(records, reports, result) -> dict:
    """Per-layer counts and self seconds of one traced pass of the workload."""
    n = result["traced_passes"]
    metrics = {}
    for name, row in sorted(result["layers"].items()):
        metrics[f"{name}.calls"] = (row["calls"] / n, "count")
        metrics[f"{name}.self_s"] = (row["self_s"] / n, "s")
    violations = result["sklar_violations"] / n
    witnesses = sum(len(r["violations"]) for r in reports if r["check"] in oracle.CHECK_REPORTS)
    metrics["sklar.violations"] = (violations, "count")
    metrics["serialize.witnesses"] = (witnesses, "count")
    # ratio over its base, sklar.violations; 0 when nothing was found
    metrics["serialize.witness_ratio"] = (witnesses / violations if violations else 0.0, "ratio")
    metrics["serialize.report_to_json.bytes"] = (result["report_bytes"] / n, "bytes")
    traced = sum(sum(_scaled(rec["traced_samples"], rec["traced_calib"])) for rec in records) / n
    untraced = sum(sum(_scaled(rec["samples"], rec["calib"])) for rec in records)
    metrics["trace.overhead_ratio"] = (traced / (untraced / (result["passes"] - n)), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "copulacheck" / "__init__.py").is_file():
        print(f"error: no copulacheck package under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))[args.workload]

    # inside the checkout, because the benchmark writes nothing outside it;
    # the root .gitignore lists these directories in case a run is killed
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        jobs = workloads.build(args.workload, args.seed, work)
        jobs_path = work / "jobs.json"
        jobs_path.write_text(
            json.dumps([{k: job[k] for k in ("id", "argv", "payload")} for job in jobs]),
            encoding="utf-8",
        )
        setups = [] if args.trace else _setup_times(jobs_path, SETUP_REPEATS // 2)
        # a traced run needs one untraced and one traced pass; a timed run
        # needs MIN_SAMPLES job samples and every job repeated once
        min_passes = 2 if args.trace else max(2, math.ceil(MIN_SAMPLES / len(jobs)))
        result_path = work / "result.json"
        _child(["run", str(jobs_path), str(result_path), str(args.seconds), str(min_passes),
                str(args.trace)])
        result = json.loads(result_path.read_text(encoding="utf-8"))
        setups += [] if args.trace else _setup_times(jobs_path, SETUP_REPEATS - SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["jobs"]
    attempted = sum(len(rec["rcs"]) for rec in records)
    failed = 0
    for job, rec in zip(jobs, records):
        errors = gate(job, rec, expected)
        for err in errors:
            print(f"FAIL {job['id']}: {err}", file=sys.stderr)
        if errors:
            failed += len(rec["rcs"])

    metrics = {}
    if not failed:  # every stdout is then a well-formed report
        reports = [json.loads(rec["stdout"]) for rec in records]
        metrics = (per_layer(records, reports, result) if args.trace
                   else end_to_end(records, reports, setups, result))
    wall = [t for rec in records for t in rec["samples"]]
    speed = statistics.median(c for rec in records for c in rec["calib"]) / CALIB_REF_S
    print(f"# {args.workload} seed={args.seed} passes={result['passes']} job samples={len(wall)} "
          f"tail=p{TAIL_PERCENTILE}; unscaled wall p50 {statistics.median(wall):.6g} s at "
          f"{speed:.3g}x the reference loop time")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'failed_share':40s} {failed / attempted:14.6g} ratio (of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
