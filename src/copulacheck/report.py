"""One report model for every verification: a named check made of sections.

Each section is one property: the number of points it was checked at and one
witness per point where it failed.  A witness is a dict from JSON field name
to exact value, so the checks decide what a witness records and this module
decides how it is written.  A report passes iff no section has a witness.

:meth:`Report.to_json_dict` writes the two layouts the byte-identical output
contract fixes.  A one-section report is flat and carries the largest witness
``deviation``; a report with several sections has a ``points`` object, the
optional per-section pass keys, and one witness list per section.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .scalars import fmt


@dataclass(frozen=True)
class Section:
    """One property of a check: points checked and the failing witnesses."""

    name: str  # key under "points"
    witness_key: str  # name of the emitted witness list
    points: int
    witnesses: tuple[dict, ...]
    pass_key: Optional[str] = None  # emitted as a per-section verdict when set


@dataclass(frozen=True)
class Report:
    """Outcome of one check; passes iff no section has a witness."""

    check: str
    sections: tuple[Section, ...]

    @property
    def passed(self) -> bool:
        return not any(s.witnesses for s in self.sections)

    @property
    def violations(self) -> tuple[dict, ...]:
        """Every witness, section by section, in the order the check found them."""
        return tuple(w for s in self.sections for w in s.witnesses)

    def to_json_dict(self, max_witnesses: int = 20) -> dict:
        """JSON-ready dict with at most ``max_witnesses`` per list (no cap below 0)."""

        def capped(section: Section) -> bool:
            return 0 <= max_witnesses < len(section.witnesses)

        def shown(section: Section) -> list:
            kept = section.witnesses[:max_witnesses] if capped(section) else section.witnesses
            return [{key: _json_value(v) for key, v in w.items()} for w in kept]

        truncated = any(capped(s) for s in self.sections)
        if len(self.sections) == 1:
            (section,) = self.sections
            deviation = max((w["deviation"] for w in section.witnesses), default=Fraction(0))
            return {
                "check": self.check,
                "points": section.points,
                "pass": self.passed,
                "max_deviation": fmt(deviation),
                section.witness_key: shown(section),
                "truncated": truncated,
            }
        out = {"check": self.check, "pass": self.passed}
        out.update((s.pass_key, not s.witnesses) for s in self.sections if s.pass_key)
        out["points"] = {s.name: s.points for s in self.sections}
        out.update((s.witness_key, shown(s)) for s in self.sections)
        out["truncated"] = truncated
        return out


def _json_value(value):
    """Exact scalars as rational strings, tuples as lists; ints and strs unchanged."""
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, (int, str)):
        return value
    return fmt(value)
