"""Byte-identical replay of the recorded CLI outputs in ``tests/golden/``.

Each case runs ``copulacheck.cli.main`` in process from ``golden/inputs`` and
must print exactly the recorded stdout and return the recorded exit code.
``golden/record.py`` wrote the fixtures; this test only reads them.
"""

import json
from pathlib import Path

import pytest

from copulacheck import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN / "inputs")
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:  # argparse refuses the arguments
        code = exc.code
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / "out" / f"{case['name']}.txt").read_bytes()
    assert code == case["exit"]
