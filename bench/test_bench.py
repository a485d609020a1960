"""Self-test of the benchmark on small seeds.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from copulacheck import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def _record(job: dict) -> dict:
    """One execution of a job, in the shape the worker reports it."""
    _, rc, out, err = worker._run_job(cli, job["argv"])
    return {"rcs": [rc], "stdout": out, "stderr": err, "stdout_mismatches": 0}


def test_same_seed_same_inputs(tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    for workload in workloads.WHY:
        a = workloads.build(workload, 3, tmp_path / "a")
        b = workloads.build(workload, 3, tmp_path / "b")
        c = workloads.build(workload, 4, tmp_path / "c")
        read = lambda jobs: [Path(j["payload"]).read_bytes() for j in jobs]  # noqa: E731
        assert read(a) == read(b)
        assert read(a) != read(c)
        assert [j["id"] for j in a] == [j["id"] for j in c]


def test_benchmark_json_lists_every_workload_with_its_reason():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_gate_holds_on_a_fresh_seed(tmp_path, workload):
    jobs = workloads.build(workload, 101, tmp_path)
    if workload == "lemma-corpus":
        jobs = jobs[:20]
    for job in jobs:
        assert run.gate(job, _record(job), EXPECTED[workload]) == [], job["id"]


def test_gate_catches_each_kind_of_failure(tmp_path):
    jobs = workloads.build("counting-sweep", 0, tmp_path)
    job = next(j for j in jobs if j["id"] == "empirical-d2-distinct/sklar")
    rec = _record(job)
    table = EXPECTED["counting-sweep"]
    assert run.gate(job, rec, table) == []

    report = json.loads(rec["stdout"])
    witness = report["violations"][0]
    witness["expected"] = witness["got"]
    bad_witness = dict(rec, stdout=json.dumps(report))
    assert any("oracle" in e or "not a violation" in e for e in run.gate(job, bad_witness, table))

    report = json.loads(rec["stdout"])
    report["points"] += 1
    assert any("points" in e for e in run.gate(job, dict(rec, stdout=json.dumps(report)), table))
    assert run.gate(job, dict(rec, rcs=[1, 0]), table)
    assert run.gate(job, dict(rec, rcs=["raised"]), table)
    assert run.gate(job, dict(rec, stdout_mismatches=1), table)
    assert run.gate(job, dict(rec, stdout="Traceback"), table)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170, check=False,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_the_contract(trace, section):
    proc = _bench(ROOT, "--workload", "lemma-corpus", "--seed", "1", "--seconds", "0",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "counting-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
