"""One report model for every verification: a named check made of sections.

Each section is one property: the number of points it was checked at, the
number of violations found, the largest deviation among them, and the
witnesses it kept.  A witness is a dict from JSON field name to exact value,
so the checks decide what a witness records and ``serialize`` decides how it
is written.  A report passes iff no section counts a violation.

Every verifier sends its violations through one :class:`Witnesses` sink per
section.  The sink counts each violation, tracks the largest deviation as an
integer pair compared by cross-multiplication, and calls the witness builder
only while it holds fewer than its cap, so a check builds at most K witness
dicts (and their ``Fraction`` values) per section however many violations it
finds.  The sink's cap is the only witness cap: the verifiers keep every
witness by default, the command line passes ``--max-witnesses`` as the cap
before the check runs, and ``serialize.report_to_json`` writes exactly the
witnesses each section kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .scalars import Ratio


@dataclass(frozen=True)
class Section:
    """One property of a check: points checked, violations found, and the kept witnesses."""

    name: str  # key under "points"
    witness_key: str  # name of the emitted witness list
    points: int
    count: int  # violations found
    max_deviation: Fraction  # the largest among them; 0 where violations carry none
    witnesses: tuple[dict, ...]  # of the first violations in check order, up to the sink's cap
    pass_key: Optional[str] = None  # emitted as a per-section verdict when set


# the deviation a violation without one (a df or lemma section) reports
NO_DEVIATION: Ratio = (0, 1)


class Witnesses:
    """The sink of one section's violations: count, largest deviation, first ``cap`` witnesses."""

    __slots__ = ("cap", "count", "kept", "_num", "_den")

    def __init__(self, cap: int = -1) -> None:
        self.cap = cap  # below 0: keep every witness
        self.count = 0
        self.kept: list[dict] = []
        self._num, self._den = 0, 1  # the largest deviation so far

    def add(self, deviation: Ratio, build: Callable[..., dict], *args) -> None:
        """Count a violation of ``deviation`` (a pair); keep ``build(*args)`` while below the cap."""
        self.count += 1
        num, den = deviation
        if num * self._den > self._num * den:
            self._num, self._den = num, den
        if self.cap < 0 or len(self.kept) < self.cap:
            self.kept.append(build(*args))

    def section(self, name: str, witness_key: str, points: int, pass_key: Optional[str] = None) -> Section:
        """The section of these violations, with ``points`` checked."""
        deviation = Fraction(self._num, self._den)
        return Section(name, witness_key, points, self.count, deviation, tuple(self.kept), pass_key)


@dataclass(frozen=True)
class Report:
    """Outcome of one check; passes iff no section counts a violation."""

    check: str
    sections: tuple[Section, ...]

    @property
    def passed(self) -> bool:
        return not any(s.count for s in self.sections)

    @property
    def violations(self) -> tuple[dict, ...]:
        """Every kept witness, section by section, in the order the check found them."""
        return tuple(w for s in self.sections for w in s.witnesses)
