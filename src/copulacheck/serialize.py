"""JSON payloads, report emission, and CSV ingestion.

This module owns the payload format: it writes and reads every payload, and
:func:`dumps_payload` writes every JSON document the CLI prints, in one
fixed layout.  :func:`report_to_json` writes every report, in the two layouts
the output contract fixes, from exactly the witnesses each section kept; the
only witness cap is the sink's (``report.Witnesses``), set before the check
runs.

All scalars travel as strings: exact decimals ("0.3") and rational strings
("3/10") are accepted on input; emission always canonicalizes to rational
strings so that loading and re-emitting a payload is byte-stable.  The two
infinities are "-inf" and "+inf".

Payload loading is deliberately lenient about semantics: it validates shape,
parses values exactly and checks the declared ``dim``, but does not re-run the
semantic checks of the public constructors (mass totals, dimension
restrictions).  That keeps broken instances loadable as verification
subjects; ``check_df_axioms`` is the judge of whether a payload actually is a
distribution function.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii

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
from .report import Report, Section
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


# the margin-composed families share one payload shape, told apart by the tag
_COMPOSED = {cls.family: cls for cls in (ProductDf, ComonotoneDf, CountermonotoneDf)}


def df_to_payload(df: MultivariateDf) -> dict:
    """JSON-ready payload of a df of one of the five families."""
    if isinstance(df, EmpiricalDf):
        body = {"rows": [[fmt(v) for v in row] for row in df.rows]}
    elif isinstance(df, GridDf):
        masses = [{"point": [fmt(c) for c in gm.point], "mass": fmt(gm.mass)} for gm in df.masses]
        body = {"masses": masses}
    elif isinstance(df, tuple(_COMPOSED.values())):
        body = {"margins": [monotone_to_payload(m) for m in df.margins]}
    else:
        raise ValidationError(f"no payload format for {type(df).__name__}: not a df family")
    return {"family": df.family, "dim": df.dim, **body}


def _entries(obj: dict, key: str, family: str) -> list:
    entries = obj.get(key)
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f'{family} payload needs a non-empty "{key}" list')
    return entries


def df_from_payload(obj) -> MultivariateDf:
    if not isinstance(obj, dict):
        raise ValidationError("df payload must be an object")
    family = obj.get("family")
    if family == "empirical":
        parsed = []
        for i, row in enumerate(_entries(obj, "rows", family)):
            if not isinstance(row, list):
                raise ValidationError(f"row {i + 1}: expected a list")
            parsed.append(tuple(parse_scalar(str(v)) for v in row))
        df = EmpiricalDf(tuple(parsed))
    elif family == "grid":
        built = []
        for i, entry in enumerate(_entries(obj, "masses", family)):
            if not isinstance(entry, dict) or "point" not in entry or "mass" not in entry:
                raise ValidationError(f'mass {i + 1}: expected {{"point", "mass"}}')
            if not isinstance(entry["point"], list):
                raise ValidationError(f"mass {i + 1}: expected a list as its point")
            built.append(
                GridMass(
                    point=tuple(parse_scalar(str(c)) for c in entry["point"]),
                    mass=parse_scalar(str(entry["mass"])),
                )
            )
        df = GridDf(tuple(built))
    elif isinstance(family, str) and family in _COMPOSED:
        margins = _entries(obj, "margins", family)
        df = _COMPOSED[family](tuple(monotone_from_payload(m) for m in margins))
    else:
        raise ValidationError(f"unknown df family {family!r}")
    # checked on the built df, so the dimension is the one its data give
    dim = obj.get("dim")
    if type(dim) is not int or dim != df.dim:
        raise ValidationError(
            f'{family} payload needs "dim": {df.dim}, the dimension of its data; got {dim!r}'
        )
    return df


def load_payload(text: str):
    """Parse JSON text into a MonotoneFn or MultivariateDf by its shape."""
    try:
        obj = json.loads(text, parse_float=str, parse_constant=str)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
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
    """The one text layout of emitted JSON: two-space indent and a final newline.

    A direct writer of what ``json.dumps(payload, indent=2) + "\\n"`` writes,
    for the types a payload holds: dicts with string keys, lists and tuples,
    strings (escaped to ASCII by ``json``'s own encoder), bools, ints and
    None.  Any other type, a float included, raises TypeError.
    """
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, indent: str, out: list[str]) -> None:
    """Append the JSON text of ``value`` to ``out``; ``indent`` starts the lines it is nested in."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, (dict, list, tuple)):
        is_dict = isinstance(value, dict)
        if not value:
            out.append("{}" if is_dict else "[]")
            return
        inner, sep = indent + "  ", "{" if is_dict else "["
        for item in value.items() if is_dict else value:
            out.append(sep + inner)
            if is_dict:
                out.append(encode_basestring_ascii(item[0]) + ": ")
                item = item[1]
            _write(item, inner, out)
            sep = ","
        out.append(indent + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# -- CSV ingestion ---------------------------------------------------------------


def rows_from_csv(text: str, has_header: bool = False) -> tuple[tuple, ...]:
    """Exact rows of CSV text, past blank records and any header; errors give 1-based row and column."""
    reader = csv.reader(io.StringIO(text))
    rows = []
    width = None
    for lineno, record in enumerate(reader, start=1):
        if not record or (len(record) == 1 and record[0].strip() == ""):
            continue
        if has_header:
            has_header = False
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


def report_to_json(report: Report) -> str:
    """Deterministic pretty JSON of a report, ending in a newline.

    A one-section report is flat and carries the largest deviation; a report
    with several sections has a ``points`` object, the optional per-section
    pass keys, and one witness list per section.  ``truncated`` is true when
    a section counted more violations than it kept.
    """
    if len(report.sections) == 1:
        (section,) = report.sections
        out = {
            "check": report.check,
            "points": section.points,
            "pass": report.passed,
            "max_deviation": fmt(section.max_deviation),
            section.witness_key: _witness_list(section),
        }
    else:
        out = {"check": report.check, "pass": report.passed}
        out.update((s.pass_key, not s.count) for s in report.sections if s.pass_key)
        out["points"] = {s.name: s.points for s in report.sections}
        out.update((s.witness_key, _witness_list(s)) for s in report.sections)
    out["truncated"] = any(s.count > len(s.witnesses) for s in report.sections)
    return dumps_payload(out)


def _witness_list(section: Section) -> list:
    return [{key: _json_value(v) for key, v in w.items()} for w in section.witnesses]


def _json_value(value):
    """Exact scalars as rational strings, tuples as lists; ints and strs unchanged."""
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, (int, str)):
        return value
    return fmt(value)
