"""JSON payloads, report emission, and CSV ingestion.

All scalars travel as strings: exact decimals ("0.3") and rational strings
("3/10") are accepted on input; emission always canonicalizes to rational
strings so that loading and re-emitting a payload is byte-stable.  The two
infinities are "-inf" and "+inf".

Payload loading is deliberately lenient about semantics: it validates shape
and parses values exactly, but does not re-run the semantic checks of the
public constructors (mass totals, dimension restrictions).  That keeps broken
instances loadable as verification subjects; ``check_df_axioms`` is the judge
of whether a payload actually is a distribution function.
"""

from __future__ import annotations

import csv
import io
import json

from .errors import ValidationError
from .families import (
    ComonotoneDf,
    CountermonotoneDf,
    EmpiricalDf,
    GridDf,
    GridMass,
    ProductDf,
)
from .monotone import Knot, MonotoneFn
from .mvdf import MultivariateDf
from .scalars import fmt, parse_scalar


# -- monotone functions --------------------------------------------------------


def monotone_to_payload(fn: MonotoneFn) -> dict:
    return {
        "knots": [
            {"x": fmt(k.x), "left": fmt(k.left), "value": fmt(k.value)} for k in fn.knots
        ]
    }


def monotone_from_payload(obj) -> MonotoneFn:
    if not isinstance(obj, dict) or "knots" not in obj:
        raise ValidationError('monotone function payload needs a "knots" list')
    knots = obj["knots"]
    if not isinstance(knots, list):
        raise ValidationError('"knots" must be a list')
    built = []
    for i, entry in enumerate(knots):
        if not isinstance(entry, dict):
            raise ValidationError(f"knot index {i}: expected an object")
        try:
            built.append(
                Knot(
                    x=parse_scalar(str(entry["x"])),
                    left=parse_scalar(str(entry["left"])),
                    value=parse_scalar(str(entry["value"])),
                )
            )
        except KeyError as exc:
            raise ValidationError(f"knot index {i}: missing field {exc.args[0]!r}") from exc
    return MonotoneFn(tuple(built))


# -- distribution functions ------------------------------------------------------


def df_to_payload(df: MultivariateDf) -> dict:
    return df.to_payload()


def _parse_margins(obj, family: str) -> tuple[MonotoneFn, ...]:
    margins = obj.get("margins")
    if not isinstance(margins, list) or not margins:
        raise ValidationError(f'{family} payload needs a non-empty "margins" list')
    return tuple(monotone_from_payload(m) for m in margins)


def df_from_payload(obj) -> MultivariateDf:
    if not isinstance(obj, dict):
        raise ValidationError("df payload must be an object")
    family = obj.get("family")
    if family == "empirical":
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ValidationError('empirical payload needs a non-empty "rows" list')
        parsed = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise ValidationError(f"row {i + 1}: expected a list")
            parsed.append(tuple(parse_scalar(str(v)) for v in row))
        return EmpiricalDf(tuple(parsed))
    if family == "product":
        return ProductDf(_parse_margins(obj, family))
    if family == "comonotone":
        return ComonotoneDf(_parse_margins(obj, family))
    if family == "countermonotone":
        return CountermonotoneDf(_parse_margins(obj, family))
    if family == "grid":
        masses = obj.get("masses")
        if not isinstance(masses, list) or not masses:
            raise ValidationError('grid payload needs a non-empty "masses" list')
        built = []
        for i, entry in enumerate(masses):
            if not isinstance(entry, dict) or "point" not in entry or "mass" not in entry:
                raise ValidationError(f'mass {i + 1}: expected {{"point", "mass"}}')
            built.append(
                GridMass(
                    point=tuple(parse_scalar(str(c)) for c in entry["point"]),
                    mass=parse_scalar(str(entry["mass"])),
                )
            )
        return GridDf(tuple(built))
    raise ValidationError(f"unknown df family {family!r}")


def load_payload(text: str):
    """Parse JSON text into a MonotoneFn or MultivariateDf by its shape."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("invalid JSON: nested too deeply") from exc
    # wrong JSON types surface as Type/Key errors deep in the builders; at this
    # boundary they all mean the same thing: the payload is malformed
    try:
        if isinstance(obj, dict) and "knots" in obj:
            return monotone_from_payload(obj)
        return df_from_payload(obj)
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValidationError(f"malformed payload: {exc}") from exc


def dumps_payload(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# -- CSV ingestion ---------------------------------------------------------------


def rows_from_csv(text: str, has_header: bool = False) -> tuple[tuple, ...]:
    """Parse CSV text into exact rows; errors report 1-based row and column."""
    reader = csv.reader(io.StringIO(text))
    rows = []
    width = None
    for lineno, record in enumerate(reader, start=1):
        if not record or (len(record) == 1 and record[0].strip() == ""):
            continue
        if has_header and lineno == 1:
            continue
        if width is None:
            width = len(record)
        if len(record) != width:
            raise ValidationError(f"row {lineno}: expected {width} columns, got {len(record)}")
        parsed = []
        for col, cell in enumerate(record, start=1):
            try:
                parsed.append(parse_scalar(cell))
            except ValidationError as exc:
                raise ValidationError(f"row {lineno}, column {col}: {exc}") from exc
        rows.append(tuple(parsed))
    if not rows:
        raise ValidationError("no data rows in CSV input")
    return tuple(rows)


# -- report JSON -------------------------------------------------------------------


def report_to_json(report, max_witnesses: int = 20) -> str:
    """Deterministic pretty JSON of a report, ending in a newline."""
    return json.dumps(report.to_json_dict(max_witnesses), indent=2) + "\n"
