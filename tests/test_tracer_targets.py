"""Every span target of the benchmark tracer resolves on the package as it stands.

``bench/spans.py`` wraps each target by reading it from its owner's
``__dict__``: the module for a plain name, the class for ``Class.method``.
A method that moves to a base class, or a function no longer imported by
name into a module, would break the traced benchmark run; this test finds
that without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("copulacheck_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("name", list(TARGETS))
def test_tracer_target_resolves(name):
    for module_name, path in TARGETS[name]:
        owner = importlib.import_module(f"copulacheck.{module_name}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{path}"
        assert callable(owner.__dict__[attr]), f"{module_name}.{path}"
