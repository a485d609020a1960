"""Multivariate distribution functions on the extended reals.

The volume of a half-open box ]a, b] under F is the signed sum over the 2^d
vertices of the box: each vertex takes coordinate ``a_i`` or ``b_i`` and the
sign is ``(-1)`` to the number of ``a`` coordinates chosen.  A function is a
distribution function when it is right-continuous and every such volume is
non-negative; it is a cdf when additionally any coordinate at -inf forces the
value 0 and all coordinates at +inf give 1.

Every family is separable by axis (:class:`AxisSeparable`): ``axis_codes``
codes one axis's coordinates (margin values as integer pairs, or ranks among
the axis breakpoints) and ``code_ratio`` combines one code per axis into the
value as an integer pair ``(numerator, denominator)``, with a positive
denominator and not necessarily reduced (a :data:`Ratio`).  ``ratio_grid``
codes each axis point of a product grid once and yields those pairs, and a
box's vertices are the 2 x .. x 2 grid of its corners.  The seeded boxes are
drawn as integer indices k of corners k/1000 (:class:`IndexBox`), and
:func:`index_box_grid` codes each distinct corner index of a batch once.

The sweeps compare pairs by integer cross-multiplication, so a ``Fraction``
is built only where a value leaves the sweep: ``code_value`` and
``eval_grid`` (one per point, for callers that want the values), one per box
in :func:`vertex_sum`, and one per witness in the verifiers.  There is no
second evaluation path: ``eval`` at one point is the sweep of a grid with one
point per axis, and the independent oracles live in the tests.

Right limits take one offset rule, :func:`right_deltas`, and one hook,
``axis_right_codes``, which codes a whole axis's right limits at once.

:func:`check_df_axioms` probes all of this exactly on seeded random boxes and
on distinct structural breakpoints of the family (each axis coded once at x
and once at the right limit), and returns a report; failures are counted in
``report.Witnesses`` sinks, which keep exact witnesses for the first K,
never exceptions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product as iter_product
from math import gcd, prod
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from .errors import DomainError, ValidationError
from .monotone import MonotoneFn
from .report import NO_DEVIATION, Report, Witnesses
from .rng import SplitMix64
from .scalars import NEG_INF, POS_INF, ExtScalar, Ratio, as_ext, is_finite

Point = tuple[ExtScalar, ...]
# the per-axis coordinates of a product grid
Axes = Sequence[Sequence[ExtScalar]]
RatioGridFn = Callable[[Axes], Iterable[Ratio]]
# random box corners lie on the lattice k/LATTICE, 0 <= k <= LATTICE
LATTICE = 1000
# right-continuity is probed at most at this many breakpoint-grid points
PROBE_POINTS = 200


def as_point(coords: Iterable) -> Point:
    point = tuple(as_ext(c) for c in coords)
    if not point:
        raise ValidationError("a point needs at least one coordinate")
    return point


@dataclass(frozen=True)
class Cuboid:
    """Half-open box ]a, b]; requires a <= b componentwise."""

    a: Point
    b: Point

    def __post_init__(self) -> None:
        a, b = as_point(self.a), as_point(self.b)
        if len(a) != len(b):
            raise ValidationError(f"corner dimensions differ: {len(a)} vs {len(b)}")
        for i, (lo, hi) in enumerate(zip(a, b)):
            if not lo <= hi:
                raise DomainError(f"axis {i + 1}: lower corner {lo} exceeds {hi}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return len(self.a)


class IndexBox:
    """The box ]a / LATTICE, b / LATTICE] given by the integer lattice indices of its corners."""

    __slots__ = ("a", "b")

    def __init__(self, a: tuple[int, ...], b: tuple[int, ...]) -> None:
        self.a = a
        self.b = b

    @property
    def dim(self) -> int:
        return len(self.a)

    def cuboid(self) -> Cuboid:
        """The same box with its corners as exact levels k / LATTICE."""
        return Cuboid(
            tuple(Fraction(k, LATTICE) for k in self.a),
            tuple(Fraction(k, LATTICE) for k in self.b),
        )


@cache
def _even_vertices(dim: int) -> tuple[bool, ...]:
    """Per vertex of a d-box in ``itertools.product`` order: True where its sign is +1."""
    return tuple(sum(eps) % 2 == 0 for eps in iter_product((0, 1), repeat=dim))


def vertex_sum(ratio_grid: RatioGridFn, box: Cuboid | IndexBox) -> Fraction:
    """Signed inclusion-exclusion sum over the vertices of ``box``, as one grid call.

    ``ratio_grid`` evaluates a product grid as integer pairs in
    ``itertools.product`` order, like :meth:`AxisSeparable.ratio_grid` (or
    :func:`index_box_grid` for an :class:`IndexBox`).  The box is the grid
    ``((b_i, a_i))_i``, so the vertex at index ``eps`` takes ``a_i`` where
    ``eps_i`` is 1 and has the sign ``(-1)`` to the number of ``a``
    coordinates.  The pairs are added over the lcm of their denominators (a
    plain integer add while the denominators agree), and the sum becomes one
    ``Fraction``.
    """
    num, den = 0, 1
    terms = ratio_grid(tuple(zip(box.b, box.a)))
    for positive, (n, d) in zip(_even_vertices(box.dim), terms):
        if d != den:
            scale = d // gcd(den, d)
            num *= scale
            den *= scale
            n *= den // d
        num += n if positive else -n
    return Fraction(num, den)


def ratio_min(ratios: Iterable[Ratio]) -> Ratio:
    """The least of the pairs, by cross-multiplication: M(s) = min s_i, the upper bound."""
    it = iter(ratios)
    best_n, best_d = next(it)
    for n, d in it:
        if n * best_d < best_n * d:
            best_n, best_d = n, d
    return best_n, best_d


def right_deltas(breakpoints: Sequence[Fraction], xs: Sequence[ExtScalar]) -> list[Fraction]:
    """The right-limit offset of each x: half the gap to the next breakpoint, else 1 (also at +-inf)."""
    nexts, last = [bisect_right(breakpoints, x) for x in xs], len(breakpoints)
    return [(breakpoints[i] - x) / 2 if i < last and is_finite(x) else Fraction(1) for x, i in zip(xs, nexts)]


def ratio_lower_bound(ratios: Sequence[Ratio]) -> Ratio:
    """W(s) = max(sum s_i - (d-1), 0), the sum taken over the product of the denominators."""
    num, den = 0, 1
    for n, d in ratios:
        num = num * d + n * den
        den *= d
    num -= (len(ratios) - 1) * den
    return (num, den) if num > 0 else (0, 1)


class AxisSeparable(ABC):
    """A function of d coordinates whose value combines one code per axis."""

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def axis_codes(self, axis: int, values: Sequence[ExtScalar]) -> list:
        """Codes of ``values`` along a 0-based axis; raises on a value outside its domain."""

    @abstractmethod
    def code_ratio(self, codes: Sequence) -> Ratio:
        """Exact value at the point whose coordinates have ``codes``, one per axis, as a pair."""

    def code_value(self, codes: Sequence) -> Fraction:
        """Exact value at the point whose coordinates have ``codes``, one per axis."""
        return Fraction(*self.code_ratio(codes))

    def _point_codes(self, t: Sequence) -> list:
        if len(t) != self.dim:
            raise DomainError(f"point has {len(t)} coordinates, expected {self.dim}")
        return [self.axis_codes(i, (c,))[0] for i, c in enumerate(t)]

    def eval(self, t: Sequence) -> Fraction:
        """Exact value at the point ``t``: the sweep of a grid with one point per axis."""
        return self.code_value(self._point_codes(tuple(t)))

    def _code_product(self, axes: Axes) -> Iterator[tuple]:
        if len(axes) != self.dim:
            raise DomainError(f"grid has {len(axes)} axes, expected {self.dim}")
        return iter_product(*[self.axis_codes(i, values) for i, values in enumerate(axes)])

    def ratio_grid(self, axes: Axes) -> Iterator[Ratio]:
        """Exact values on the product grid of ``axes`` as pairs, in ``itertools.product`` order.

        Each axis is coded once, when this is called; the pairs are yielded lazily.
        """
        return map(self.code_ratio, self._code_product(axes))

    def eval_grid(self, axes: Axes) -> Iterator[Fraction]:
        """Exact values on the product grid of ``axes``, in ``itertools.product`` order.

        Equal to ``eval`` at each grid point.  Each axis is coded once, when
        this is called; the values are yielded lazily.
        """
        return map(self.code_value, self._code_product(axes))


class MultivariateDf(AxisSeparable):
    """Shared contract of the concrete distribution-function families.

    The contract is the three axis hooks, the margins and the breakpoints; the
    payload format is not part of it (``serialize`` owns it).  ``axis_codes``
    and ``code_ratio`` must implement the extended-real semantics (any -inf
    coordinate gives 0 for cdf families, +inf coordinates drop the
    constraint), and the margins are produced analytically from the family's
    own structure, never by numeric extraction from the evaluator.
    """

    family: ClassVar[str]

    @abstractmethod
    def margin_fn(self, axis: int) -> MonotoneFn:
        """Margin along a 0-based axis."""

    @abstractmethod
    def axis_breakpoints(self, axis: int) -> tuple[Fraction, ...]:
        """Sorted distinct coordinates where structure changes along a 0-based axis."""

    @abstractmethod
    def axis_right_codes(self, axis: int, xs: Sequence[ExtScalar], deltas: Sequence[Fraction]) -> list:
        """Codes of the right limits at ``xs`` along a 0-based axis, from :func:`right_deltas`.

        No breakpoint lies in ]x, x + 2 delta[, so the limit is read there.
        """

    def axis_right_limit(self, t: Sequence, axis: int) -> tuple[Fraction, Fraction]:
        """Exact limit of eval from the right along ``axis`` at ``t``: (limit, probe delta)."""
        point = tuple(t)
        codes, x = self._point_codes(point), (as_ext(point[axis]),)
        deltas = right_deltas(self.axis_breakpoints(axis), x)
        codes[axis] = self.axis_right_codes(axis, x, deltas)[0]
        return self.code_value(codes), deltas[0]

    def support_box(self) -> tuple[Point, Point]:
        """Smallest axis-aligned box containing all structural breakpoints.

        Degenerate axes (a single breakpoint) are widened by 1 on each side so
        grids built on the box are never single points.
        """
        los, his = [], []
        for i in range(self.dim):
            bps = self.axis_breakpoints(i)
            lo, hi = bps[0], bps[-1]
            if lo == hi:
                lo, hi = lo - 1, hi + 1
            los.append(lo)
            his.append(hi)
        return tuple(los), tuple(his)


def volume(df: MultivariateDf, box: Cuboid) -> Fraction:
    """Exact volume assigned by ``df`` to the half-open box ]a, b]."""
    if box.dim != df.dim:
        raise DomainError(f"box dimension {box.dim} does not match df dimension {df.dim}")
    return vertex_sum(df.ratio_grid, box)


def margin(df: MultivariateDf, i: int) -> MonotoneFn:
    """Margin along 1-based axis ``i``."""
    if not 1 <= i <= df.dim:
        raise DomainError(f"margin index {i} out of range 1..{df.dim}")
    return df.margin_fn(i - 1)


def random_index_boxes(seed: int, dim: int, count: int) -> list[IndexBox]:
    """Seed-deterministic boxes in [0,1]^d, as lattice indices of their corners.

    Per box, axes are drawn in order and each axis takes two draws from
    :class:`SplitMix64`, sorted into the lower and upper corner.
    """
    rng = SplitMix64(seed)
    boxes = []
    for _ in range(count):
        a, b = [], []
        for _axis in range(dim):
            u = rng.below(LATTICE + 1)
            v = rng.below(LATTICE + 1)
            a.append(min(u, v))
            b.append(max(u, v))
        boxes.append(IndexBox(tuple(a), tuple(b)))
    return boxes


def index_box_grid(fn: AxisSeparable, boxes: Sequence[IndexBox]) -> RatioGridFn:
    """A pair grid evaluator on lattice indices, for ``vertex_sum`` over ``boxes``.

    Each axis codes the distinct corner indices of all the boxes with one
    ``axis_codes`` call; the evaluator looks codes up by integer index.
    """
    tables = []
    for axis in range(fn.dim):
        ks = sorted({k for box in boxes for k in (box.a[axis], box.b[axis])})
        codes = fn.axis_codes(axis, [Fraction(k, LATTICE) for k in ks])
        tables.append(dict(zip(ks, codes)))
    code_ratio = fn.code_ratio

    def grid_fn(index_axes: Sequence[Sequence[int]]) -> Iterator[Ratio]:
        code_axes = [[table[k] for k in ks] for table, ks in zip(tables, index_axes)]
        return map(code_ratio, iter_product(*code_axes))

    return grid_fn


# -- axiom checking ------------------------------------------------------------


def _probe_indices(sizes: Sequence[int], seed: int, cap: int) -> list[tuple[int, ...]]:
    """Per-axis breakpoint indices of the right-continuity probes: all, or ``cap`` distinct ones.

    The sample is Floyd's: flat indices in ``itertools.product`` order are
    drawn without replacement from a stream seeded with ``seed + 1`` (so it is
    independent of the cuboid stream), sorted, and decoded per axis.
    """
    total = prod(sizes)
    if total <= cap:
        return list(iter_product(*map(range, sizes)))
    rng = SplitMix64(seed + 1)
    chosen: set[int] = set()
    for top in range(total - cap, total):
        k = rng.below(top + 1)
        chosen.add(top if k in chosen else k)
    probes = []
    for flat in sorted(chosen):
        index = []
        for size in reversed(sizes):
            flat, k = divmod(flat, size)
            index.append(k)
        probes.append(tuple(reversed(index)))
    return probes


def _box_violation(box: IndexBox, vol: Fraction) -> dict:
    box = box.cuboid()
    return {"a": box.a, "b": box.b, "volume": vol}


def _limit_violation(point: Point, value: Fraction, expected: Fraction) -> dict:
    return {"point": point, "value": value, "expected": expected}


def _continuity_violation(axes: Axes, index: tuple, axis: int, delta: Fraction, at: Ratio, right: Ratio):
    point = tuple(bps[k] for bps, k in zip(axes, index))
    return dict(point=point, axis=axis, delta=delta, value_at=Fraction(*at), value_right=Fraction(*right))


def check_df_axioms(df: MultivariateDf, n_cuboids: int, seed: int, max_witnesses: int = -1) -> Report:
    """Probe non-negative volumes, the two limit conditions, and right-continuity.

    Volumes are checked on ``n_cuboids`` seeded random boxes in [0,1]^d.  The
    limit conditions expect 0 whenever one coordinate is -inf and 1 at the
    all-+inf point.  Right-continuity is probed along every axis at breakpoint
    grid points (at most ``PROBE_POINTS``, distinct), comparing the value with
    the one-sided limit by cross-multiplying their pairs.  The probes are
    breakpoints only, so they take no k/m grid from ``sklar.GridSpec``, the
    one grid builder.  Each section keeps the witnesses of its first
    ``max_witnesses`` violations (all when below 0) and counts the rest.
    """
    if n_cuboids < 1:
        raise ValidationError(f"n_cuboids must be >= 1, got {n_cuboids}")

    volumes = Witnesses(max_witnesses)
    boxes = random_index_boxes(seed, df.dim, n_cuboids)
    grid_fn = index_box_grid(df, boxes)
    for box in boxes:
        vol = vertex_sum(grid_fn, box)
        if vol.numerator < 0:
            volumes.add(NO_DEVIATION, _box_violation, box, vol)

    lo, hi = df.support_box()
    mid = tuple((l + h) / 2 for l, h in zip(lo, hi))
    limit_points = []
    for i in range(df.dim):
        for others in ((POS_INF,) * df.dim, mid):
            limit_points.append(((*others[:i], NEG_INF, *others[i + 1 :]), Fraction(0)))
    limit_points.append(((POS_INF,) * df.dim, Fraction(1)))
    limits = Witnesses(max_witnesses)
    for point, expected in limit_points:
        value = df.eval(point)
        if value != expected:
            limits.add(NO_DEVIATION, _limit_violation, point, value, expected)

    axes = [df.axis_breakpoints(i) for i in range(df.dim)]
    deltas = [right_deltas(bps, bps) for bps in axes]
    at_codes = [df.axis_codes(i, bps) for i, bps in enumerate(axes)]
    right_codes = [df.axis_right_codes(i, bps, ds) for i, (bps, ds) in enumerate(zip(axes, deltas))]
    probes = _probe_indices([len(bps) for bps in axes], seed, PROBE_POINTS)
    continuity = Witnesses(max_witnesses)
    for index in probes:
        codes = [c[k] for c, k in zip(at_codes, index)]
        at = num, den = df.code_ratio(codes)
        for i, k in enumerate(index):
            right = df.code_ratio([*codes[:i], right_codes[i][k], *codes[i + 1 :]])
            if num * right[1] != right[0] * den:
                continuity.add(
                    NO_DEVIATION, _continuity_violation, axes, index, i + 1, deltas[i][k], at, right
                )

    return Report(
        "df_axioms",
        (
            volumes.section("volumes", "volume_violations", n_cuboids),
            limits.section("limits", "limit_violations", len(limit_points)),
            continuity.section("right_continuity", "right_continuity_violations", len(probes) * df.dim),
        ),
    )
