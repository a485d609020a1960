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

The two counting families (empirical and grid) evaluate in rank space: F(t)
depends only on where each coordinate of t falls among that axis's sorted
breakpoints, so a query finds those ranks and then scans integer rank rows,
or, once the rows scanned reach the size of the d-dimensional cumulative
table, builds that table and answers by one lookup.  The index is
built on first use, and each value is the integer pair (weight, denominator).

For the hooks of ``mvdf.AxisSeparable``, a counting family's ``axis_codes``
are ranks and its ``code_ratio`` the pair (weight below them, denominator); a
margin-composed family's codes are its margin values as the (numerator,
denominator) pairs the margins' knot walk returns, unreduced, with no
``Fraction`` in between, and its ``code_ratio`` combines them by integer arithmetic
(product, cross-multiplied minimum, lower bound over a common denominator).
Every family evaluates one point with the shared ``AxisSeparable.eval``, a
one-point sweep through the same two hooks; there is no other evaluation path.
Right limits share the offset rule ``mvdf.right_deltas``: ``axis_right_codes``
codes a counting axis at x + delta, and reads a margin-composed axis as
2 G(x + delta/2) - G(x + delta) off one ``eval_pairs`` call.
The classes know nothing of the JSON payload format: ``serialize`` writes and
reads the payloads of all five families.
"""

from __future__ import annotations

from abc import abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import le, mul
from typing import Iterable, Optional, Sequence

from .errors import ValidationError
from .monotone import MonotoneFn, step_cdf
from .mvdf import AxisSeparable, MultivariateDf, Ratio, ratio_lower_bound, ratio_min
from .scalars import ExtScalar, as_ext, as_scalar


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


# -- counting families: rank-space evaluation --------------------------------


class _RankIndex:
    """A counting df in rank space: F(t) = (weight of the rows <= t) / denominator.

    The df is constant between breakpoints, so F(t) depends only on the ranks
    r_i = bisect_right(axis_i, t_i), with -inf at rank 0 and +inf at rank k_i;
    a row is <= t exactly when each of its coordinate ranks is <= r_i
    (dominance counting).  Queries scan the integer rank rows until the rows
    scanned reach the cells of the cumulative table; only then is that
    d-dimensional prefix-sum table built, and each later query is one lookup.
    So a job with few evaluations never pays for the table, and a sweep pays
    for it at most once over.
    """

    def __init__(
        self, points: Sequence[tuple[Fraction, ...]], weights: Sequence[int], denominator: int
    ):
        dim = len(points[0])
        self.axes = tuple(tuple(sorted({p[i] for p in points})) for i in range(dim))
        merged: dict[tuple[int, ...], int] = {}
        for p, w in zip(points, weights):
            ranks = tuple(map(bisect_right, self.axes, p))
            merged[ranks] = merged.get(ranks, 0) + w
        self._rows = tuple(merged.items())
        self._total = sum(weights)
        self._denominator = denominator
        self._sizes = [len(bps) + 1 for bps in self.axes]
        self._strides = [1] * dim
        for i in range(dim - 2, -1, -1):
            self._strides[i] = self._strides[i + 1] * self._sizes[i + 1]
        self._cells = self._strides[0] * self._sizes[0]
        self._scanned = 0
        self._table: list[int] | None = None

    def ratio(self, ranks: Sequence[int]) -> Ratio:
        return self._weight_below(ranks), self._denominator

    def _weight_below(self, ranks: Sequence[int]) -> int:
        if self._table is None:
            self._scanned += len(self._rows)
            if self._scanned < self._cells:
                return sum(w for row, w in self._rows if all(map(le, row, ranks)))
            self._table = self._cumulative_table()
        return self._table[sum(map(mul, ranks, self._strides))]

    def _cumulative_table(self) -> list[int]:
        table = [0] * self._cells
        for row, w in self._rows:
            table[sum(map(mul, row, self._strides))] += w
        # prefix sums along each axis in turn; a cell adds its predecessor on that axis
        for stride, size in zip(self._strides, self._sizes):
            block = stride * size
            for start in range(0, self._cells, block):
                for i in range(start + stride, start + block):
                    table[i] += table[i - stride]
        return table

    def margin(self, axis: int) -> MonotoneFn:
        sums = [0] * self._sizes[axis]
        for row, w in self._rows:
            sums[row[axis]] += w
        return step_cdf(zip(self.axes[axis], sums[1:]), self._total)


@dataclass(frozen=True)
class _CountingDf(MultivariateDf):
    """Shared evaluation of the counting families through a lazily built rank index.

    The index is built on first use, so loading a payload does no work for it,
    and it takes no part in ``==``, ``hash``, ``repr`` or the payload.
    Concurrent first uses may each build an equal index; either one answers
    identically.
    """

    _index: Optional[_RankIndex] = field(default=None, init=False, repr=False, compare=False)

    @abstractmethod
    def _weighted_points(self) -> tuple[Sequence[tuple[Fraction, ...]], Sequence[int], int]:
        """Support points, their integer weights, and the common denominator."""

    def _rank_index(self) -> _RankIndex:
        if self._index is None:
            object.__setattr__(self, "_index", _RankIndex(*self._weighted_points()))
        return self._index

    def axis_codes(self, axis: int, values: Sequence[ExtScalar]) -> list[int]:
        bps = self._rank_index().axes[axis]
        return [bisect_right(bps, as_ext(c)) for c in values]

    def code_ratio(self, codes: Sequence[int]) -> Ratio:
        return self._rank_index().ratio(codes)

    def margin_fn(self, axis: int) -> MonotoneFn:
        return self._rank_index().margin(axis)

    def axis_breakpoints(self, axis: int) -> tuple[Fraction, ...]:
        return self._rank_index().axes[axis]

    def axis_right_codes(self, axis: int, xs: Sequence[ExtScalar], deltas: Sequence[Fraction]) -> list[int]:
        return self.axis_codes(axis, [x + d for x, d in zip(xs, deltas)])


@dataclass(frozen=True)
class EmpiricalDf(_CountingDf):
    """F(t) = (number of data rows <= t componentwise) / n."""

    rows: tuple[tuple[Fraction, ...], ...]
    family = "empirical"

    # bench/spans.py traces these by name in each counting class's own __dict__
    eval = AxisSeparable.eval
    margin_fn = _CountingDf.margin_fn
    axis_breakpoints = _CountingDf.axis_breakpoints
    axis_right_limit = MultivariateDf.axis_right_limit

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

    def _weighted_points(self) -> tuple[Sequence[tuple[Fraction, ...]], Sequence[int], int]:
        return self.rows, [1] * len(self.rows), len(self.rows)


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
    def code_ratio(self, codes: Sequence[Ratio]) -> Ratio:
        """The family's combining operation on the margin values, one pair per axis."""

    # bench/spans.py traces these by name in the class's own __dict__
    eval = AxisSeparable.eval
    axis_right_limit = MultivariateDf.axis_right_limit

    def axis_codes(self, axis: int, values: Sequence[ExtScalar]) -> list[Ratio]:
        return self.margins[axis].eval_pairs(values)

    def margin_fn(self, axis: int) -> MonotoneFn:
        return self.margins[axis]

    def axis_breakpoints(self, axis: int) -> tuple[Fraction, ...]:
        return self.margins[axis].knot_xs()

    def axis_right_codes(self, axis: int, xs: Sequence[ExtScalar], deltas: Sequence[Fraction]) -> list[Ratio]:
        # both probes lie in the knot-free window ]x, x + 2 delta[, on which the margin is
        # one affine piece, so 2 G(x + delta/2) - G(x + delta) is the limit exactly
        probes = [p for x, d in zip(xs, deltas) for p in (x + d, x + d / 2)]
        pairs = self.margins[axis].eval_pairs(probes)
        return [(2 * nn * fd - fn * nd, nd * fd) for (fn, fd), (nn, nd) in zip(pairs[::2], pairs[1::2])]


@dataclass(frozen=True)
class ProductDf(_MarginComposedDf):
    """Independence: F(t) is the product of the margin values."""

    family = "product"

    def code_ratio(self, codes: Sequence[Ratio]) -> Ratio:
        num, den = 1, 1
        for n, d in codes:
            num *= n
            den *= d
        return num, den


@dataclass(frozen=True)
class ComonotoneDf(_MarginComposedDf):
    """Perfect positive dependence: F(t) is the minimum of the margin values."""

    family = "comonotone"

    def code_ratio(self, codes: Sequence[Ratio]) -> Ratio:
        return ratio_min(codes)


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

    def code_ratio(self, codes: Sequence[Ratio]) -> Ratio:
        return ratio_lower_bound(codes)


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
class GridDf(_CountingDf):
    """F(t) = total mass of support points <= t componentwise."""

    masses: tuple[GridMass, ...]
    family = "grid"

    # bench/spans.py traces these by name in each counting class's own __dict__
    eval = AxisSeparable.eval
    margin_fn = _CountingDf.margin_fn
    axis_breakpoints = _CountingDf.axis_breakpoints
    axis_right_limit = MultivariateDf.axis_right_limit

    def __post_init__(self) -> None:
        masses = tuple(
            m if isinstance(m, GridMass) else GridMass(point=tuple(m[0]), mass=m[1])
            for m in self.masses
        )
        if not masses:
            raise ValidationError("grid df needs at least one mass")
        width = len(masses[0].point)
        if width == 0:
            raise ValidationError("mass 1: empty point")
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

    def _weighted_points(self) -> tuple[Sequence[tuple[Fraction, ...]], Sequence[int], int]:
        denominator = lcm(*(gm.mass.denominator for gm in self.masses))
        weights = [gm.mass.numerator * (denominator // gm.mass.denominator) for gm in self.masses]
        return [gm.point for gm in self.masses], weights, denominator


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
