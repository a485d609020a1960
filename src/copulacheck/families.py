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
breakpoints.  The index is built on first use from the rows as integer
pairs: each axis's distinct pairs are sorted once, and each row coordinate
is ranked by a dict from its pair to its rank.  A query ranks t by the
cursor that ranks G's abscissae in ``monotone``, then scans integer rank
rows or, once the rows scanned reach the size of the d-dimensional cumulative
table, builds that table and answers by one lookup.  A whole grid is one
query: ``code_grid`` charges its points x rows at once, and past the cells
reads the table lazily by strides.  Each value is the integer pair
(weight, denominator).

For the hooks of ``mvdf.AxisSeparable``, a counting family's ``pair_codes``
are ranks and its ``code_grid`` the rank index's whole-grid read; a
margin-composed family's ``pair_codes`` are its margin values as the
unreduced pairs of the margin's ``eval_pairs``, and its ``code_grid``
combines them by integer arithmetic as one fold over the axes
(``mvdf.product_grid``, ``mvdf.min_grid``, ``mvdf.lower_bound_grid``): the
first d - 1 axes joined pairwise into a list, the last streamed lazily
against it, and the lower bound clipped at 0 once, at the end.
``code_grid`` is each family's only value computation: one point is its
1 x .. x 1 grid and a box its 2 x .. x 2 grid (``mvdf``).
No family defines ``axis_codes``: every value reaches ``pair_codes`` as a
pair, and one point goes through the same hooks as a grid.

Every instance of the five classes is right-continuous by construction, the
lenient ones included, which certifies the ``right_continuity`` section of
``mvdf.check_df_axioms``.  A counting F is a finite weighted sum of
indicators of closed orthants {t : t >= row}, each right-continuous in every
coordinate, whatever the signs and total of the weights.  A margin-composed
F is a product, minimum or clipped sum max(sum - (d-1), 0) of margins that
are right-continuous by their knots (``monotone``), and each of the three is
continuous in the margin values, whatever their range.  The five classes
join ``mvdf``'s registry by ``mvdf.df_family``, and every check refuses any
other class, subclasses of these included (``mvdf.require_family``).
Each class also says, by ``certainly_d_increasing``, whether its structure
alone makes every box volume non-negative, so that the axiom checks need
draw no box: always for the empirical, product and comonotone dfs, for the
countermonotone df only when d = 2, and for a grid df when no mass is
negative.
The classes know nothing of the JSON payload format: ``serialize`` writes and
reads the payloads of all five families.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import product as iter_product, repeat
from math import lcm, prod
from operator import le, mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ValidationError
from .monotone import MonotoneFn, _ranks, step_cdf
from .mvdf import (
    AxisSeparable,
    MultivariateDf,
    Ratio,
    df_family,
    lower_bound_grid,
    min_grid,
    product_grid,
)
from .scalars import as_scalar


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
    r_i, the number of axis-i breakpoints (integer pairs in ``keys``) at or
    below t_i, counted by monotone's cursor; each row coordinate is ranked once
    by its pair.  A row is <= t exactly when each of its coordinate ranks is
    <= r_i (dominance counting).  Queries scan the integer rank rows until the
    rows scanned reach the cells of the cumulative table; only then is that
    d-dimensional prefix-sum table built, and each later query is one lookup.
    So a job with few evaluations never pays for the table, and a sweep pays
    for it at most once over.  A query is a grid (``grid``; a point is a
    1 x .. x 1 grid): it charges points x rows once, so it either scans
    throughout or reads the table throughout.
    """

    def __init__(self, points: Sequence[tuple[Fraction, ...]], weights: Sequence[int], denominator: int):
        axes, self.keys, rank_columns = [], [], []
        for column in zip(*points):
            pairs = [c.as_integer_ratio() for c in column]
            values = dict(zip(pairs, column))  # each reduced pair once, with its Fraction
            order = sorted(values, key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1]))
            axes.append(tuple(map(values.__getitem__, order)))
            self.keys.append(tuple(zip(*order)))
            rank_columns.append(map({pair: r for r, pair in enumerate(order, 1)}.__getitem__, pairs))
        self.axes = tuple(axes)
        merged: dict[tuple[int, ...], int] = {}
        for ranks, w in zip(zip(*rank_columns), weights):
            merged[ranks] = merged.get(ranks, 0) + w
        self._rows = tuple(merged.items())
        self._total = sum(weights)
        self._denominator = denominator
        self._sizes = [len(bps) + 1 for bps in self.axes]
        self._strides = [1] * len(axes)
        for i in range(len(axes) - 2, -1, -1):
            self._strides[i] = self._strides[i + 1] * self._sizes[i + 1]
        self._cells = self._strides[0] * self._sizes[0]
        self._scanned = 0
        self._table: list[int] | None = None

    def _scan(self, ranks: Sequence[int]) -> int:
        return sum(w for row, w in self._rows if all(map(le, row, ranks)))

    def grid(self, rank_axes: Sequence[Sequence[int]]) -> Iterator[Ratio]:
        """The pairs on the product of per-axis rank lists, in ``itertools.product`` order.

        The call charges its whole scan, points x rows, to the budget at once:
        under the cell count it scans the rows per point; otherwise it reads
        the table, whose flat index is the sum of each axis's rank times that
        axis's stride, so each axis's ranks are scaled once and the pairs are
        read lazily.
        """
        if self._table is None:
            self._scanned += prod(map(len, rank_axes)) * len(self._rows)
            if self._scanned < self._cells:
                return zip(map(self._scan, iter_product(*rank_axes)), repeat(self._denominator))
            self._table = self._cumulative_table()
        scaled = [[r * stride for r in ranks] for ranks, stride in zip(rank_axes, self._strides)]
        return zip(map(self._table.__getitem__, map(sum, iter_product(*scaled))), repeat(self._denominator))

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
        """The step cdf of ``axis``: the weight at or below each breakpoint over the total weight.

        The total, not the denominator: a lenient grid payload whose masses
        sum to t != 1 gets margins divided by t, while F(+inf, .., +inf) = t.
        """
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

    def pair_codes(self, axis: int, pairs: Iterable[Ratio]) -> list[int]:
        return _ranks(*self._rank_index().keys[axis], pairs, 1)

    def code_grid(self, code_axes: Sequence[Sequence[int]]) -> Iterator[Ratio]:
        return self._rank_index().grid(code_axes)

    def margin_fn(self, axis: int) -> MonotoneFn:
        return self._rank_index().margin(axis)

    def axis_breakpoints(self, axis: int) -> tuple[Fraction, ...]:
        return self._rank_index().axes[axis]


@df_family
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

    def certainly_d_increasing(self) -> bool:
        """True: a box's volume counts the rows in it, each of weight 1."""
        return True

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

    # bench/spans.py traces these by name in the class's own __dict__
    eval = AxisSeparable.eval
    axis_right_limit = MultivariateDf.axis_right_limit

    def pair_codes(self, axis: int, pairs: Iterable[Ratio]) -> list[Ratio]:
        return self.margins[axis].eval_pairs(pairs)

    def margin_fn(self, axis: int) -> MonotoneFn:
        return self.margins[axis]

    def axis_breakpoints(self, axis: int) -> tuple[Fraction, ...]:
        return self.margins[axis].knot_xs()


@df_family
@dataclass(frozen=True)
class ProductDf(_MarginComposedDf):
    """Independence: F(t) is the product of the margin values."""

    family = "product"

    def certainly_d_increasing(self) -> bool:
        """True: a box's volume is the product of the margin increments G_i(b_i) - G_i(a_i)."""
        return True

    def code_grid(self, code_axes: Sequence[Sequence[Ratio]]) -> Iterator[Ratio]:
        return product_grid(code_axes)


@df_family
@dataclass(frozen=True)
class ComonotoneDf(_MarginComposedDf):
    """Perfect positive dependence: F(t) is the minimum of the margin values."""

    family = "comonotone"

    def certainly_d_increasing(self) -> bool:
        """True: a box's volume is the length of the intersection of the intervals ]G_i(a_i), G_i(b_i)]."""
        return True

    def code_grid(self, code_axes: Sequence[Sequence[Ratio]]) -> Iterator[Ratio]:
        return min_grid(code_axes)


@df_family
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

    def certainly_d_increasing(self) -> bool:
        """Only for d = 2: a convex function of u + v is 2-increasing, and W is max(u + v - 1, 0)."""
        return self.dim == 2

    def code_grid(self, code_axes: Sequence[Sequence[Ratio]]) -> Iterator[Ratio]:
        return lower_bound_grid(code_axes)


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


@df_family
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
        # each point keyed once by its reduced pairs: a repeat leaves the set one short
        seen = set()
        for i, gm in enumerate(masses):
            if len(gm.point) != width:
                raise ValidationError(
                    f"mass {i + 1}: point has {len(gm.point)} coordinates, expected {width}"
                )
            seen.add(tuple(c.as_integer_ratio() for c in gm.point))
            if len(seen) == i:
                raise ValidationError(f"mass {i + 1}: duplicate support point {gm.point}")
        object.__setattr__(self, "masses", masses)

    @property
    def dim(self) -> int:
        return len(self.masses[0].point)

    def certainly_d_increasing(self) -> bool:
        """Exactly when every mass is >= 0: the support points are distinct, so each is the volume of a cell."""
        return all(gm.mass >= 0 for gm in self.masses)

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
