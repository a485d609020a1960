"""Span tracing of copulacheck's public functions, installed from outside.

``Tracer.install`` replaces each traced function on its module or class with a
wrapper that records a span (name, start, end, parent span) in in-memory
arrays; ``uninstall`` puts the originals back, so timed passes run the
unmodified program.  Functions imported by name into another module
(``cli`` takes ``check_df_axioms``, ``parse_scalar`` and the ``verify_*``
functions by name, ``sklar`` takes ``vertex_sum``, ``serialize`` takes
``parse_scalar``) are replaced in every module that holds them.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array

# span name -> (module, attribute path) pairs to wrap under that name
TARGETS = {
    "cli.main": [("cli", "main")],
    "serialize.load_payload": [("serialize", "load_payload")],
    "serialize.report_to_json": [("serialize", "report_to_json")],
    "scalars.parse_scalar": [
        ("scalars", "parse_scalar"),
        ("serialize", "parse_scalar"),
        ("cli", "parse_scalar"),
    ],
    "families.eval.counting": [("families", "EmpiricalDf.eval"), ("families", "GridDf.eval")],
    "families.eval.composed": [("families", "_MarginComposedDf.eval")],
    "families.margin_fn": [
        ("families", "EmpiricalDf.margin_fn"),
        ("families", "GridDf.margin_fn"),
        ("families", "_MarginComposedDf.margin_fn"),
    ],
    "families.axis_breakpoints": [
        ("families", "EmpiricalDf.axis_breakpoints"),
        ("families", "GridDf.axis_breakpoints"),
        ("families", "_MarginComposedDf.axis_breakpoints"),
    ],
    "families.axis_right_limit": [
        ("families", "EmpiricalDf.axis_right_limit"),
        ("families", "GridDf.axis_right_limit"),
        ("families", "_MarginComposedDf.axis_right_limit"),
    ],
    "monotone.eval": [("monotone", "MonotoneFn.eval")],
    "monotone.gen_inverse": [("monotone", "MonotoneFn.gen_inverse")],
    "monotone.gen_inverse_right": [("monotone", "MonotoneFn.gen_inverse_right")],
    "monotone.gen_inverse_left_limit": [("monotone", "MonotoneFn.gen_inverse_left_limit")],
    "monotone.critical_levels": [("monotone", "MonotoneFn.critical_levels")],
    "monotone.lemma_report": [("monotone", "lemma_report"), ("cli", "lemma_report")],
    "mvdf.vertex_sum": [("mvdf", "vertex_sum"), ("sklar", "vertex_sum")],
    "mvdf.check_df_axioms": [("mvdf", "check_df_axioms"), ("cli", "check_df_axioms")],
    "sklar.copula_eval": [("sklar", "Copula.eval")],
    "sklar.verify": [
        ("sklar", "verify_sklar_identity"),
        ("sklar", "verify_uniform_margins"),
        ("sklar", "verify_copula_axioms"),
        ("cli", "verify_sklar_identity"),
        ("cli", "verify_uniform_margins"),
        ("cli", "verify_copula_axioms"),
    ],
}


class Tracer:
    """Records spans while installed; one thread, spans nest by call order."""

    def __init__(self, package) -> None:
        self._package = package
        self.names = list(TARGETS)
        self._saved: list[tuple[object, str, object]] = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.violations = 0  # violations held by reports the sklar verifiers returned
        self.report_bytes = 0  # characters report_to_json emitted
        self._stack: list[int] = []

    def _wrap(self, name_id: int, fn):
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter
        count_violations = self.names[name_id] == "sklar.verify"
        count_bytes = self.names[name_id] == "serialize.report_to_json"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count_violations:
                self.violations += len(result.violations)
            elif count_bytes:
                self.report_bytes += len(result)
            return result

        return traced

    def install(self) -> None:
        for name_id, name in enumerate(self.names):
            for module_name, path in TARGETS[name]:
                owner = getattr(self._package, module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name_id, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name over every recorded span."""
        child = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, name_id in enumerate(self.name_ids):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += self.ends[i] - self.starts[i] - child[i]
        return out
