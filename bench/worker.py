"""Benchmark child process: imports copulacheck fresh and runs one workload.

    python3 bench/worker.py setup JOBS.json
        import copulacheck and load every payload of the workload once;
        print {"setup_s": ..., "calib_s": ...}.
    python3 bench/worker.py run JOBS.json RESULT.json SECONDS MIN_PASSES TRACE
        run the jobs as a closed loop (one client, one thread, jobs back to
        back, whole passes in job order) until SECONDS have passed and at
        least MIN_PASSES passes are done; write samples, outputs and peak RSS
        to RESULT.json.  With TRACE=1, untraced and traced passes alternate
        and the result also holds per-layer span totals of the traced passes.

Every timed piece of work is paired with the calibration loop: run mode runs
it before each job and once after the last, and records for each execution
the mean of the loops just before and just after it; setup mode runs it after
the timed setup.  The parent uses these to scale times to a fixed core speed.

The parent puts the checkout's ``src`` on PYTHONPATH as an absolute path; the
worker refuses a copulacheck imported from anywhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_package():
    import copulacheck

    origin = os.path.realpath(copulacheck.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"copulacheck imported from {origin}, not from {SRC}")
    return copulacheck


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop: the core's current speed."""
    from fractions import Fraction  # imported here so setup mode times its import

    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i % 97 + 1)
        acc < Fraction(i, 7)
    return time.perf_counter() - start


def setup(jobs_path: str) -> None:
    with open(jobs_path, encoding="utf-8") as fh:
        payloads = sorted({job["payload"] for job in json.load(fh)})
    start = time.perf_counter()
    _import_package()
    from copulacheck import serialize

    for path in payloads:
        with open(path, encoding="utf-8") as fh:
            serialize.load_payload(fh.read())
    elapsed = time.perf_counter() - start
    calib = sorted(calibrate() for _ in range(3))[1]
    print(json.dumps({"setup_s": elapsed, "calib_s": calib}))


def _run_job(cli, argv: list[str]) -> tuple[float, object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv
            rc = exc.code
        except Exception:  # a crash is recorded as a failed job, never a verdict
            rc = "raised"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


def run(jobs_path: str, result_path: str, seconds: float, min_passes: int, trace: bool):
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    package = _import_package()
    from copulacheck import cli

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer(package)

    records = [
        {"id": job["id"], "samples": [], "calib": [], "traced_samples": [], "traced_calib": [],
         "rcs": [], "stdout": None, "stderr": None, "stdout_mismatches": 0}
        for job in jobs
    ]
    passes = traced_passes = 0
    pending = None  # (calibration list, calibration before) of the last execution
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start < seconds:
        traced_pass = tracer is not None and passes % 2 == 1
        if traced_pass:
            tracer.install()
        try:
            for job, rec in zip(jobs, records):
                calib = calibrate()
                if pending:
                    pending[0].append((pending[1] + calib) / 2)
                elapsed, rc, out, err = _run_job(cli, job["argv"])
                rec["traced_samples" if traced_pass else "samples"].append(elapsed)
                pending = (rec["traced_calib" if traced_pass else "calib"], calib)
                rec["rcs"].append(rc)
                if rec["stdout"] is None:
                    rec["stdout"], rec["stderr"] = out, err
                elif out != rec["stdout"]:
                    rec["stdout_mismatches"] += 1
        finally:
            if traced_pass:
                tracer.uninstall()
        passes += 1
        traced_passes += traced_pass
    pending[0].append((pending[1] + calibrate()) / 2)

    result = {
        "passes": passes,
        "traced_passes": traced_passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["sklar_violations"] = tracer.violations
        result["report_bytes"] = tracer.report_bytes
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        setup(argv[1])
    elif argv[0] == "run":
        run(argv[1], argv[2], float(argv[3]), int(argv[4]), argv[5] == "1")
    else:
        raise SystemExit(f"unknown worker mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
