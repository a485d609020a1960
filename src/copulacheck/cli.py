"""Command-line interface.

Exit codes: 0 when the requested check passes (or the command is not a check),
1 when a verification ran to completion and found violations (the report is
still emitted), 2 on malformed input, unusable arguments, or domain errors,
3 on an internal error (any other exception).

Scalar arguments accept exact decimals ("0.3") and rational strings ("3/10");
points are comma-separated coordinates and may use "-inf" / "+inf" where a
limit is meant; a value that starts with "-" other than a plain number ("-1/2",
"-inf,0") needs "--" before it.  Reports are emitted as deterministic JSON:
same inputs and same seed give byte-identical output.  Each ``verify`` kind has
a sub-parser that declares only the options its check reads, so any other
option exits 2, with the kind's usage as for every command.  ``--max-witnesses``
is the one witness cap: the check keeps that many witnesses per list, and
``serialize.report_to_json`` writes what it kept.  Every grid a command checks
or dumps comes from ``sklar.GridSpec``; ``--grid M`` only sets its resolution.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

from . import serialize
from .errors import CopulaCheckError, ValidationError
from .families import EmpiricalDf
from .monotone import MonotoneFn, lemma_report
from .mvdf import Cuboid, MultivariateDf, check_df_axioms, margin, volume
from .report import Report
from .scalars import fmt, parse_ext, parse_scalar
from .sklar import (
    GridSpec,
    extract_copula,
    verify_copula_axioms,
    verify_sklar_identity,
    verify_uniform_margins,
)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _load(path: str, cls: type = object):
    """The payload at ``path``, which must be a ``cls``."""
    obj = serialize.load_payload(_read_text(path))
    if not isinstance(obj, cls):
        kind = "monotone function" if cls is MonotoneFn else "df"
        raise ValidationError(f"{path}: expected a {kind} payload")
    return obj


def _parse_point(text: str) -> tuple:
    return tuple(parse_ext(part) for part in text.split(","))


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_quantile(args) -> int:
    fn = _load(args.fn_path, MonotoneFn)
    u = parse_scalar(args.u)
    value = fn.gen_inverse_right(u) if args.right_limit else fn.gen_inverse(u)
    _emit(fmt(value) + "\n", args.output)
    return 0


def cmd_eval(args) -> int:
    obj = _load(args.path)
    point = _parse_point(args.point)
    if isinstance(obj, MonotoneFn):
        if len(point) != 1:
            raise ValidationError("a monotone function takes exactly one coordinate")
        value = obj.eval(point[0])
    else:
        value = obj.eval(point)
    _emit(fmt(value) + "\n", args.output)
    return 0


def cmd_volume(args) -> int:
    df = _load(args.df_path, MultivariateDf)
    box = Cuboid(_parse_point(args.a), _parse_point(args.b))
    _emit(fmt(volume(df, box)) + "\n", args.output)
    return 0


def cmd_margin(args) -> int:
    df = _load(args.df_path, MultivariateDf)
    payload = serialize.monotone_to_payload(margin(df, args.index))
    _emit(serialize.dumps_payload(payload), args.output)
    return 0


def cmd_extract(args) -> int:
    df = _load(args.df_path, MultivariateDf)
    copula = extract_copula(df)
    grid = GridSpec(args.grid)
    axes = [grid.levels(m) for m in copula.margins]
    labels = [[fmt(Fraction(*s)) for s in levels] for levels in axes]
    codes = [copula.pair_codes(i, levels) for i, levels in enumerate(axes)]
    values = [
        {"s": list(combo), "value": fmt(Fraction(*value))}
        for combo, value in zip(iter_product(*labels), copula.code_grid(codes))
    ]
    payload = {"dim": copula.dim, "grid_m": args.grid, "values": values}
    _emit(serialize.dumps_payload(payload), args.output)
    return 0


def _verify_lemma(args) -> Report:
    fn = _load(args.path, MonotoneFn)
    return lemma_report(fn, *GridSpec(args.grid).lemma_grids(fn), max_witnesses=args.max_witnesses)


def _verify_df(args) -> Report:
    return check_df_axioms(_load(args.path, MultivariateDf), args.cuboids, args.seed, args.max_witnesses)


def _verify_sklar(args) -> Report:
    return verify_sklar_identity(_load(args.path, MultivariateDf), GridSpec(args.grid), args.max_witnesses)


def _verify_margins(args) -> Report:
    copula = extract_copula(_load(args.path, MultivariateDf))
    return verify_uniform_margins(copula, GridSpec(args.grid), args.max_witnesses)


def _verify_copula(args) -> Report:
    copula = extract_copula(_load(args.path, MultivariateDf))
    return verify_copula_axioms(copula, args.cuboids, args.seed, GridSpec(args.grid), args.max_witnesses)


def cmd_verify(args) -> int:
    report = args.check(args)
    _emit(serialize.report_to_json(report), args.output)
    return 0 if report.passed else 1


def cmd_ingest(args) -> int:
    rows = serialize.rows_from_csv(_read_text(args.csv_path), has_header=args.has_header)
    payload = serialize.df_to_payload(EmpiricalDf(rows))
    _emit(serialize.dumps_payload(payload), args.output)
    return 0


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it refuses an argument the command does not take with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copulacheck",
        description="Exact rational checks for distribution functions, quantile "
        "transforms, and extracted copulas.",
    )
    # the command parsers, and the verify kinds' under them, take their class from here
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def add_output(p):
        p.add_argument("-o", "--output", metavar="PATH", help="write output to PATH instead of stdout")

    p = sub.add_parser("quantile", help="generalized inverse of a monotone function")
    p.add_argument("fn_path")
    p.add_argument("u", help="level, e.g. 0.3 or 3/10 (put -- before a negative level: -- -1/2)")
    p.add_argument(
        "--right-limit",
        action="store_true",
        help="use inf{x : G(x) > u} instead of inf{x : G(x) >= u}",
    )
    add_output(p)
    p.set_defaults(func=cmd_quantile)

    p = sub.add_parser("eval", help="evaluate a monotone function or df at a point")
    p.add_argument("path")
    p.add_argument(
        "point", help="comma-separated coordinates; -inf/+inf allowed (put -- before a point starting with -)"
    )
    add_output(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("volume", help="volume of the half-open box ]a, b]")
    p.add_argument("df_path")
    p.add_argument("a", help="lower corner, comma-separated (put -- before a corner starting with -)")
    p.add_argument("b", help="upper corner, comma-separated")
    add_output(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("margin", help="emit the margin along one axis as JSON")
    p.add_argument("df_path")
    p.add_argument("index", type=int, help="1-based axis index")
    add_output(p)
    p.set_defaults(func=cmd_margin)

    p = sub.add_parser("extract", help="dump extracted copula values on a grid")
    p.add_argument("df_path")
    p.add_argument("--grid", type=int, default=20, metavar="M", help="points k/M per axis (default 20)")
    add_output(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="run a verification suite; exit 1 on violations")
    kinds = p.add_subparsers(dest="kind", required=True)
    # (flag, default, metavar, help): each kind declares only the options its check reads
    grid = "--grid", 20, "M", "grid resolution per axis"
    seed = "--seed", 0, "S", "seed for random boxes"
    cuboids = "--cuboids", 200, "N", "number of random boxes"
    cap = "--max-witnesses", 20, "K", "witnesses the check keeps and emits per list; below 0: all"
    for kind, check, options in (
        ("lemma", _verify_lemma, (grid,)),
        ("df", _verify_df, (seed, cuboids)),
        ("sklar", _verify_sklar, (grid,)),
        ("margins", _verify_margins, (grid,)),
        ("copula", _verify_copula, (grid, seed, cuboids)),
    ):
        k = kinds.add_parser(kind)
        k.add_argument("path", help="monotone-function JSON" if kind == "lemma" else "df JSON")
        for flag, default, var, text in (*options, cap):
            k.add_argument(flag, type=int, default=default, metavar=var, help=f"{text} (default {default})")
        add_output(k)
        k.set_defaults(func=cmd_verify, check=check)

    p = sub.add_parser("ingest", help="convert a CSV dataset to an empirical df JSON")
    p.add_argument("csv_path")
    p.add_argument("--has-header", action="store_true", help="skip the first non-blank CSV record")
    add_output(p)
    p.set_defaults(func=cmd_ingest)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # built on the first call and reused: parse_args keeps no state between calls
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CopulaCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
