"""Validated constructors for the concrete distribution-function families.

Five families cover the verification surface: the empirical cdf of a finite
dataset, the independence product of one-dimensional cdfs, the componentwise
minimum (perfect positive dependence, a cdf in every dimension), the
two-dimensional lower dependence bound max(F1 + F2 - 1, 0), and an arbitrary
finite discrete cdf given by point masses.

The public constructors validate semantics (cdf margins, masses summing to 1,
dimension restrictions); the classes themselves only enforce structure, so
deliberately broken instances can be built for negative testing - e.g. the
lower-bound formula extended beyond two dimensions, which fails the
non-negative-volume axiom and must be caught by ``check_df_axioms``.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ValidationError
from .monotone import Knot, MonotoneFn, two_probe_limit
from .mvdf import MultivariateDf, Point
from .scalars import as_scalar, fmt, is_finite


def _sorted_gap_delta(values: Sequence[Fraction]) -> Fraction:
    """Half the smallest positive gap between sorted values (1 if fewer than two)."""
    gaps = [b - a for a, b in zip(values, values[1:]) if b > a]
    return min(gaps) / 2 if gaps else Fraction(1)


def _cumulative_step(pairs: list[tuple[Fraction, Fraction]], total: Fraction) -> MonotoneFn:
    """Step cdf from sorted (coordinate, mass) pairs, normalized by ``total``."""
    knots = []
    acc = Fraction(0)
    for x, mass in pairs:
        knots.append(Knot(x, acc / total, (acc + mass) / total))
        acc += mass
    return MonotoneFn(tuple(knots))


def _require_cdf_margins(margins: Sequence[MonotoneFn], what: str) -> tuple[MonotoneFn, ...]:
    margins = tuple(margins)
    for j, m in enumerate(margins):
        if not isinstance(m, MonotoneFn):
            raise ValidationError(f"{what}: margin {j + 1} is not a MonotoneFn")
        if not m.is_cdf():
            raise ValidationError(
                f"{what}: margin {j + 1} has range [{m.inf_value}, {m.sup_value}], "
                "a cdf needs [0, 1]"
            )
    return margins


# -- empirical ---------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalDf(MultivariateDf):
    """F(t) = (number of data rows <= t componentwise) / n."""

    rows: tuple[tuple[Fraction, ...], ...]
    family = "empirical"

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValidationError("empirical df needs at least one row")
        width = len(self.rows[0])
        coerced = []
        for i, row in enumerate(self.rows):
            row = tuple(as_scalar(v) for v in row)
            if len(row) != width:
                raise ValidationError(f"row {i + 1}: expected {width} columns, got {len(row)}")
            if width == 0:
                raise ValidationError(f"row {i + 1}: empty row")
            coerced.append(row)
        object.__setattr__(self, "rows", tuple(coerced))

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def eval(self, t: Point) -> Fraction:
        hits = sum(1 for row in self.rows if all(r <= c for r, c in zip(row, t)))
        return Fraction(hits, len(self.rows))

    def margin_fn(self, axis: int) -> MonotoneFn:
        counts: dict[Fraction, int] = {}
        for row in self.rows:
            counts[row[axis]] = counts.get(row[axis], 0) + 1
        pairs = [(x, Fraction(k)) for x, k in sorted(counts.items())]
        return _cumulative_step(pairs, Fraction(len(self.rows)))

    def axis_breakpoints(self, axis: int) -> tuple[Fraction, ...]:
        return tuple(sorted({row[axis] for row in self.rows}))

    def axis_right_limit(self, t: Point, axis: int) -> tuple[Fraction, Fraction]:
        delta = _sorted_gap_delta(self.axis_breakpoints(axis))
        shifted = tuple(c + delta if j == axis else c for j, c in enumerate(t))
        return self.eval(shifted), delta

    def to_payload(self) -> dict:
        return {
            "family": self.family,
            "dim": self.dim,
            "rows": [[fmt(v) for v in row] for row in self.rows],
        }


def empirical_from_rows(rows: Iterable) -> EmpiricalDf:
    """Empirical cdf of a finite dataset; rows must be rectangular and non-empty."""
    return EmpiricalDf(tuple(tuple(r) for r in rows))


# -- margin-composed families ------------------------------------------------


@dataclass(frozen=True)
class _MarginComposedDf(MultivariateDf):
    """Base for families whose value combines the margin values at t."""

    margins: tuple[MonotoneFn, ...]

    def __post_init__(self) -> None:
        if not self.margins:
            raise ValidationError(f"{self.family} df needs at least one margin")
        object.__setattr__(self, "margins", tuple(self.margins))

    @property
    def dim(self) -> int:
        return len(self.margins)

    @abstractmethod
    def _combine(self, values: list[Fraction]) -> Fraction: ...

    def eval(self, t: Point) -> Fraction:
        return self._combine([m.eval(c) for m, c in zip(self.margins, t)])

    def margin_fn(self, axis: int) -> MonotoneFn:
        return self.margins[axis]

    def axis_breakpoints(self, axis: int) -> tuple[Fraction, ...]:
        return self.margins[axis].knot_xs()

    def axis_right_limit(self, t: Point, axis: int) -> tuple[Fraction, Fraction]:
        if not is_finite(t[axis]):
            raise ValidationError("right limit probes need a finite coordinate")
        # both probes land strictly inside the knot-free window (x, next knot), on
        # which the margin is a single affine piece, so the extrapolation is exact
        x = t[axis]
        beyond = [k for k in self.margins[axis].knot_xs() if k > x]
        delta = (min(beyond) - x) / 2 if beyond else Fraction(1)
        limit = two_probe_limit(self.margins[axis].eval, x, delta)
        values = [
            limit if j == axis else m.eval(c)
            for j, (m, c) in enumerate(zip(self.margins, t))
        ]
        return self._combine(values), delta

    def to_payload(self) -> dict:
        from .serialize import monotone_to_payload

        return {
            "family": self.family,
            "dim": self.dim,
            "margins": [monotone_to_payload(m) for m in self.margins],
        }


@dataclass(frozen=True)
class ProductDf(_MarginComposedDf):
    """Independence: F(t) is the product of the margin values."""

    family = "product"

    def _combine(self, values: list[Fraction]) -> Fraction:
        out = Fraction(1)
        for v in values:
            out *= v
        return out


@dataclass(frozen=True)
class ComonotoneDf(_MarginComposedDf):
    """Perfect positive dependence: F(t) is the minimum of the margin values."""

    family = "comonotone"

    def _combine(self, values: list[Fraction]) -> Fraction:
        return min(values)


@dataclass(frozen=True)
class CountermonotoneDf(_MarginComposedDf):
    """Lower dependence bound: F(t) = max(sum of margin values - (d-1), 0).

    Only a genuine distribution function for d = 2; the public constructor
    enforces that.  Instances with more margins can still be built directly
    (or loaded leniently from payloads) as negative test subjects - they
    assign negative volume to some boxes, which the axiom checker reports.
    """

    family = "countermonotone"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.margins) < 2:
            raise ValidationError("countermonotone df needs at least two margins")

    def _combine(self, values: list[Fraction]) -> Fraction:
        return max(sum(values) - (len(values) - 1), Fraction(0))


def product_df(margins: Sequence[MonotoneFn]) -> ProductDf:
    """Independence df of the given one-dimensional cdf margins."""
    return ProductDf(_require_cdf_margins(margins, "product"))


def comonotone_df(margins: Sequence[MonotoneFn]) -> ComonotoneDf:
    """Upper dependence bound df of the given cdf margins; valid in any dimension."""
    return ComonotoneDf(_require_cdf_margins(margins, "comonotone"))


def countermonotone_df(m1: MonotoneFn, m2: MonotoneFn) -> CountermonotoneDf:
    """Lower dependence bound df; only defined for exactly two cdf margins."""
    return CountermonotoneDf(_require_cdf_margins((m1, m2), "countermonotone"))


# -- finite grid ---------------------------------------------------------------


@dataclass(frozen=True)
class GridMass:
    """One support point with its probability mass."""

    point: tuple[Fraction, ...]
    mass: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", tuple(as_scalar(c) for c in self.point))
        object.__setattr__(self, "mass", as_scalar(self.mass))


@dataclass(frozen=True)
class GridDf(MultivariateDf):
    """F(t) = total mass of support points <= t componentwise."""

    masses: tuple[GridMass, ...]
    family = "grid"

    def __post_init__(self) -> None:
        masses = tuple(
            m if isinstance(m, GridMass) else GridMass(point=tuple(m[0]), mass=m[1])
            for m in self.masses
        )
        if not masses:
            raise ValidationError("grid df needs at least one mass")
        width = len(masses[0].point)
        seen = set()
        for i, gm in enumerate(masses):
            if len(gm.point) != width:
                raise ValidationError(
                    f"mass {i + 1}: point has {len(gm.point)} coordinates, expected {width}"
                )
            if gm.point in seen:
                raise ValidationError(f"mass {i + 1}: duplicate support point {gm.point}")
            seen.add(gm.point)
        object.__setattr__(self, "masses", masses)

    @property
    def dim(self) -> int:
        return len(self.masses[0].point)

    def eval(self, t: Point) -> Fraction:
        total = Fraction(0)
        for gm in self.masses:
            if all(p <= c for p, c in zip(gm.point, t)):
                total += gm.mass
        return total

    def margin_fn(self, axis: int) -> MonotoneFn:
        sums: dict[Fraction, Fraction] = {}
        for gm in self.masses:
            key = gm.point[axis]
            sums[key] = sums.get(key, Fraction(0)) + gm.mass
        total = sum(sums.values())
        return _cumulative_step(sorted(sums.items()), total)

    def axis_breakpoints(self, axis: int) -> tuple[Fraction, ...]:
        return tuple(sorted({gm.point[axis] for gm in self.masses}))

    def axis_right_limit(self, t: Point, axis: int) -> tuple[Fraction, Fraction]:
        delta = _sorted_gap_delta(self.axis_breakpoints(axis))
        shifted = tuple(c + delta if j == axis else c for j, c in enumerate(t))
        return self.eval(shifted), delta

    def to_payload(self) -> dict:
        return {
            "family": self.family,
            "dim": self.dim,
            "masses": [
                {"point": [fmt(c) for c in gm.point], "mass": fmt(gm.mass)}
                for gm in self.masses
            ],
        }


def grid_df(masses: Iterable) -> GridDf:
    """Finite discrete cdf; masses must be non-negative and sum to exactly 1."""
    built = GridDf(tuple(masses))
    total = Fraction(0)
    for i, gm in enumerate(built.masses):
        if gm.mass < 0:
            raise ValidationError(f"mass {i + 1}: negative mass {gm.mass}")
        total += gm.mass
    if total != 1:
        raise ValidationError(f"masses sum to {total}, expected 1")
    return built
