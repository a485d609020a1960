"""A seeded fuzz run of the command line over mutated golden inputs.

Each round takes a golden case, mutates its one input file and calls
``cli.main`` in process on the mutant.  A mutation is structural (drop a key
or a list item of the JSON payload, replace a node with a value from a small
pool, drop or duplicate a CSV cell or row) or textual (a byte that is not
UTF-8, a digit run grown past int's digit limit).  Whatever the input, the
command must end with a verdict or a refusal, exit 0, 1 or 2, never with an
internal error (exit 3).
"""

import json
import random
import re
from pathlib import Path

import pytest

from copulacheck import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
ROUNDS = 300
SEED = 0
# values a structural mutation puts in place of a JSON node
POOL = [None, True, 0, 1, -1, 2.5, "", "x", "1/0", "-inf", "+inf", [], {}, [[]], {"x": "0"}]


def _nodes(obj, parent=None, key=None):
    """(parent, key) of every node below ``obj``, in document order."""
    if parent is not None:
        yield parent, key
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, child in children:
        yield from _nodes(child, obj, k)


def _structural(rng: random.Random, data: bytes, csv: bool) -> bytes:
    if csv:
        rows = [row.split(",") for row in data.decode("utf-8-sig").splitlines()]
        row = rng.choice(rows)
        if rng.random() < 0.5:
            rows.insert(rng.randrange(len(rows) + 1), list(row))
        elif len(row) > 1:
            del row[rng.randrange(len(row))]
        else:
            rows.remove(row)
        return "\n".join(",".join(row) for row in rows).encode()
    payload = json.loads(data)
    parent, key = rng.choice(list(_nodes(payload)))
    if rng.random() < 0.5:
        del parent[key]
    else:
        parent[key] = rng.choice(POOL)
    return json.dumps(payload).encode()


def _textual(rng: random.Random, data: bytes) -> bytes:
    if rng.random() < 0.5:
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.choice([b"\xff", b"\x80", b"\xc3(", b"\xff\xfe"]) + data[at:]
    run = rng.choice(list(re.finditer(rb"\d+", data)))
    return data[: run.start()] + b"1" + b"0" * 4999 + data[run.end() :]


def _mutants(seed: int):
    """(argv, input file name, mutated input bytes) of each round, the same for the same seed."""
    rng = random.Random(seed)
    for n in range(ROUNDS):
        case = rng.choice(CASES)
        name = next(arg for arg in case["argv"] if (GOLDEN / "inputs" / arg).is_file())
        data = (GOLDEN / "inputs" / name).read_bytes()
        mutated = _structural(rng, data, name.endswith(".csv")) if n % 2 else _textual(rng, data)
        mutant = f"mutant{Path(name).suffix}"
        yield [mutant if arg == name else arg for arg in case["argv"]], mutant, mutated


def test_mutated_golden_inputs_never_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    internal = []
    for argv, mutant, mutated in _mutants(SEED):
        (tmp_path / mutant).write_bytes(mutated)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
        err = capsys.readouterr().err
        if code not in (0, 1, 2):
            internal.append((argv, mutated[:80], err))
    assert internal == []
