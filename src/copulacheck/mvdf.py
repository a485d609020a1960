"""Multivariate distribution functions on the extended reals.

The volume of a half-open box ]a, b] under F is the signed sum over the 2^d
vertices of the box: each vertex takes coordinate ``a_i`` or ``b_i`` and the
sign is ``(-1)`` to the number of ``a`` coordinates chosen.  A function is a
distribution function when it is right-continuous and every such volume is
non-negative; it is a cdf when additionally any coordinate at -inf forces the
value 0 and all coordinates at +inf give 1.

Every family is separable by axis (:class:`AxisSeparable`): ``pair_codes``
codes one axis's coordinates given as integer pairs (into margin values as
pairs, or ranks among the axis breakpoints), ``axis_codes`` codes values
through it, and ``code_ratio`` combines one code per axis into the
value as an integer pair ``(numerator, denominator)``, with a positive
denominator and not necessarily reduced (a :data:`Ratio`).  ``code_grid``
reads the pairs of the product of per-axis code lists, by default with
``code_ratio`` at each point; a family may read the whole grid at once, as
the margin-composed ones do with the folds :func:`product_grid`,
:func:`min_grid` and :func:`lower_bound_grid`, which also give the bounds M
and W of a level grid.  ``ratio_grid`` codes each axis point of a product
grid once and reads the grid through ``code_grid``, ``eval_grid`` is its
``Fraction``s, and a box's vertices are the 2 x .. x 2 grid of its corners
(:func:`vertex_sum`).  The seeded boxes are drawn as columns of integer
indices k of corners k/1000 (:func:`unit_box_columns`), and
:func:`box_volumes` codes each distinct corner of a batch once, as the pair
(k, 1000), then reads each vertex for all boxes at once with ``code_ratio``
down the columns and adds each box's vertices into one unreduced pair.

The sweeps compare pairs by integer cross-multiplication, so a ``Fraction``
is built only where a value leaves the sweep: ``code_value`` and
``eval_grid`` (one per point, for callers that want the values), one per
:func:`vertex_sum` call, and one per kept witness in the verifiers, which
sweep the integer-pair axes of ``sklar.GridSpec`` and decode a witness's
grid point only when they keep it.  There is no second evaluation path:
grids go through ``code_grid`` and single points (``eval`` and the box
vertices) through ``code_ratio``, over the codes of the same
``pair_codes``, and the independent oracles live in the tests.

:func:`check_df_axioms` probes non-negative volumes exactly on seeded random
boxes and the limit conditions at fixed points, and returns a report;
failures are counted in ``report.Witnesses`` sinks, which keep exact
witnesses for the first K, never exceptions.  Its right-continuity section
is certified, not probed: the five family classes, which join the registry
by :func:`df_family`, are right-continuous by construction (see
``families``), and any other class is refused.  For the same reason
``axis_right_limit`` is the value itself on the five classes.

The boxes are drawn only for a df that
:meth:`MultivariateDf.certainly_d_increasing` does not certify: a family
that its structure alone makes d-increasing says so (``families`` lists
them, each override with its reason).  The default is False, and
:func:`family_certifies_d_increase` asks only the five family classes, so
the lenient grid df with a negative mass, the countermonotone df with
d >= 3 and any other class, subclasses of the families included, are
swept.  A certified section is the one the sweep would give:
no witness, and ``points`` still ``n_cuboids``.  The copula check in
``sklar`` asks the same of its source.  Both checks refuse ``n_cuboids < 1``
by :func:`require_box_count` before any work.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product as iter_product, starmap
from math import prod
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from .errors import DomainError, ValidationError
from .monotone import MonotoneFn
from .report import NO_DEVIATION, Report, Witnesses
from .rng import SplitMix64
from .scalars import NEG_INF, POS_INF, POS_PAIR, ExtScalar, Ratio, as_ext, as_pairs

Point = tuple[ExtScalar, ...]
# the per-axis coordinates of a product grid
Axes = Sequence[Sequence[ExtScalar]]
RatioGridFn = Callable[[Axes], Iterable[Ratio]]
# the lattice indices k of a box corner k / LATTICE
Indices = tuple[int, ...]
# random box corners lie on the lattice k/LATTICE, 0 <= k <= LATTICE
LATTICE = 1000
# the right_continuity section counts d axes at each of at most this many breakpoint-grid points
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


@cache
def _even_vertices(dim: int) -> tuple[bool, ...]:
    """Per vertex of a d-box in ``itertools.product`` order: True where its sign is +1."""
    return tuple(sum(eps) % 2 == 0 for eps in iter_product((0, 1), repeat=dim))


def vertex_sum(ratio_grid: RatioGridFn, box: Cuboid) -> Fraction:
    """Signed inclusion-exclusion sum over the vertices of ``box``, as one grid call.

    ``ratio_grid`` evaluates a product grid as integer pairs in
    ``itertools.product`` order, like :meth:`AxisSeparable.ratio_grid`.  The
    box is the grid ``((b_i, a_i))_i``, so the vertex at index ``eps`` takes
    ``a_i`` where ``eps_i`` is 1 and has the sign ``(-1)`` to the number of
    ``a`` coordinates.  :func:`_signed_sums` adds the pairs, and the sum
    becomes one ``Fraction``.
    """
    vertices = [(pair,) for pair in ratio_grid(tuple(zip(box.b, box.a)))]
    return Fraction(*next(_signed_sums(box.dim, vertices)))


def _signed_sums(dim: int, vertices: Sequence[Iterable[Ratio]]) -> Iterator[Ratio]:
    """Per box, the signed sum of its vertex pairs, from one column of pairs per vertex, lazily.

    The vertices come in ``itertools.product`` order, the first with the sign
    +1.  Each sum is one unreduced pair, cross-multiplied vertex by vertex.
    """
    sums = iter(vertices[0])
    for positive, column in zip(_even_vertices(dim)[1:], vertices[1:]):
        sums = map(_sum_join if positive else _difference_join, sums, column)
    return sums


def ratio_min(ratios: Iterable[Ratio]) -> Ratio:
    """The least of the pairs, by cross-multiplication: M(s) = min s_i, the upper bound."""
    it = iter(ratios)
    best_n, best_d = next(it)
    for n, d in it:
        if n * best_d < best_n * d:
            best_n, best_d = n, d
    return best_n, best_d


def ratio_lower_bound(ratios: Sequence[Ratio]) -> Ratio:
    """W(s) = max(sum s_i - (d-1), 0), the sum taken over the product of the denominators."""
    num, den = 0, 1
    for n, d in ratios:
        num = num * d + n * den
        den *= d
    num -= (len(ratios) - 1) * den
    return (num, den) if num > 0 else (0, 1)


def _fold_grid(
    join: Callable[[Ratio, Ratio], Ratio], identity: Ratio, code_axes: Sequence[Sequence[Ratio]], last=None
) -> Iterator[Ratio]:
    """One pair per axis, joined at each point of the product of the axes, in ``itertools.product`` order.

    The first d - 1 axes are folded pairwise into one list, from ``identity``;
    the last axis is read lazily against that list and joined by ``last``
    (``join`` by default).
    """
    acc = [identity]
    for axis in code_axes[:-1]:
        acc = list(starmap(join, iter_product(acc, axis)))
    return starmap(last or join, iter_product(acc, code_axes[-1]))


def _product_join(p: Ratio, q: Ratio) -> Ratio:
    return p[0] * q[0], p[1] * q[1]


def _min_join(p: Ratio, q: Ratio) -> Ratio:
    return q if q[0] * p[1] < p[0] * q[1] else p


def _sum_join(p: Ratio, q: Ratio) -> Ratio:
    return p[0] * q[1] + q[0] * p[1], p[1] * q[1]


def _difference_join(p: Ratio, q: Ratio) -> Ratio:
    return p[0] * q[1] - q[0] * p[1], p[1] * q[1]


def product_grid(code_axes: Sequence[Sequence[Ratio]]) -> Iterator[Ratio]:
    """The product of the pairs at each grid point, by one fold."""
    return _fold_grid(_product_join, (1, 1), code_axes)


def min_grid(code_axes: Sequence[Sequence[Ratio]]) -> Iterator[Ratio]:
    """:func:`ratio_min` at each grid point, by one fold: M on a level grid."""
    return _fold_grid(_min_join, POS_PAIR, code_axes)


def lower_bound_grid(code_axes: Sequence[Sequence[Ratio]]) -> Iterator[Ratio]:
    """:func:`ratio_lower_bound` at each grid point, by one fold of sums: W on a level grid.

    The sum is clipped at 0 once, at the last axis.
    """
    excess = len(code_axes) - 1

    def clipped(p: Ratio, q: Ratio) -> Ratio:
        den = p[1] * q[1]
        num = p[0] * q[1] + q[0] * p[1] - excess * den
        return (num, den) if num > 0 else (0, 1)

    return _fold_grid(_sum_join, (0, 1), code_axes, clipped)


class AxisSeparable(ABC):
    """A function of d coordinates whose value combines one code per axis."""

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def pair_codes(self, axis: int, pairs: Iterable[Ratio]) -> list:
        """Codes along a 0-based axis of coordinates given as pairs in the format of ``scalars.as_pairs``."""

    def axis_codes(self, axis: int, values: Sequence[ExtScalar]) -> list:
        """Codes of ``values`` along a 0-based axis, through ``pair_codes``; raises outside its domain."""
        return self.pair_codes(axis, as_pairs(values))

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
        """Exact value at the point ``t``: its codes, as a sweep codes them, through ``code_ratio``."""
        return self.code_value(self._point_codes(tuple(t)))

    def code_grid(self, code_axes: Sequence[Sequence]) -> Iterator[Ratio]:
        """Exact values as pairs on the product of per-axis code lists, in ``itertools.product`` order.

        ``code_ratio`` at each combination by default; a family may read the
        whole grid at once, as long as the pairs are yielded lazily.
        """
        return map(self.code_ratio, iter_product(*code_axes))

    def ratio_grid(self, axes: Axes) -> Iterator[Ratio]:
        """Exact values on the product grid of ``axes`` as pairs, in ``itertools.product`` order.

        Each axis is coded once, when this is called; the pairs are yielded lazily.
        """
        if len(axes) != self.dim:
            raise DomainError(f"grid has {len(axes)} axes, expected {self.dim}")
        return self.code_grid([self.axis_codes(i, values) for i, values in enumerate(axes)])

    def eval_grid(self, axes: Axes) -> Iterator[Fraction]:
        """Exact values on the product grid of ``axes``, in ``itertools.product`` order.

        The ``Fraction``s of ``ratio_grid``, so equal to ``eval`` at each grid
        point.  Each axis is coded once, when this is called; the values are
        yielded lazily.
        """
        return starmap(Fraction, self.ratio_grid(axes))


# the classes of the five families, each right-continuous by construction (:func:`df_family`)
_FAMILIES: set[type] = set()


def df_family(cls: type) -> type:
    """Class decorator: ``cls`` is one of the five df families, whose right-continuity is certified."""
    _FAMILIES.add(cls)
    return cls


def _require_family(df: MultivariateDf) -> None:
    """Refuse, with ``ValidationError``, a df whose class is not exactly one of the five families."""
    if type(df) not in _FAMILIES:
        raise ValidationError(f"{type(df).__name__} is not one of the five df families")


def family_certifies_d_increase(df: MultivariateDf) -> bool:
    """``df.certainly_d_increasing()`` when its class is exactly one of the five families, else False.

    A subclass may read its values another way, so it keeps the box sweep as any other class does.
    """
    return type(df) in _FAMILIES and df.certainly_d_increasing()


class MultivariateDf(AxisSeparable):
    """Shared contract of the concrete distribution-function families.

    The contract is the axis hooks, the margins and the breakpoints; the
    payload format is not part of it (``serialize`` owns it).  ``pair_codes``
    and ``code_ratio`` must implement the extended-real semantics (any -inf
    coordinate gives 0 for cdf families, +inf coordinates drop the
    constraint), and the margins are produced analytically from the family's
    own structure, never by numeric extraction from the evaluator.
    """

    family: ClassVar[str]

    def certainly_d_increasing(self) -> bool:
        """Whether the family alone proves every box volume non-negative, so no box need be drawn.

        False here, so a class that does not override it keeps the seeded box sweep.
        """
        return False

    @abstractmethod
    def margin_fn(self, axis: int) -> MonotoneFn:
        """Margin along a 0-based axis."""

    @abstractmethod
    def axis_breakpoints(self, axis: int) -> tuple[Fraction, ...]:
        """Sorted distinct coordinates where structure changes along a 0-based axis."""

    def axis_right_limit(self, t: Sequence, axis: int) -> Fraction:
        """Exact limit of eval from the right along a 0-based ``axis`` at ``t``.

        It is ``eval(t)``: the five families are right-continuous by
        construction, and any other class is refused with ``ValidationError``.
        """
        _require_family(self)
        if not 0 <= axis < self.dim:
            raise DomainError(f"axis {axis} out of range 0..{self.dim - 1}")
        return self.eval(t)

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


def lattice_point(ks: Sequence[int]) -> Point:
    """Lattice indices as the point of levels k / LATTICE."""
    return tuple(Fraction(k, LATTICE) for k in ks)


def require_box_count(count: int) -> None:
    """Refuse, with ``ValidationError``, fewer than one box; both axiom checks call it before any work."""
    if count < 1:
        raise ValidationError(f"n_cuboids must be >= 1, got {count}")


def unit_box_columns(seed: int, dim: int, count: int) -> tuple[list[list[int]], list[list[int]]]:
    """Seed-deterministic boxes in [0,1]^d as columns of lattice indices: (lower, upper), one list per axis.

    Box j is ]lower[.][j] / LATTICE, upper[.][j] / LATTICE].  Per box, axes
    are drawn in order and each axis takes two draws from :class:`SplitMix64`,
    sorted into the lower and upper corner.
    """
    draws, step = SplitMix64(seed).below_many(LATTICE + 1, 2 * dim * count), 2 * dim
    pairs = [(draws[2 * i :: step], draws[2 * i + 1 :: step]) for i in range(dim)]
    return [list(map(min, u, v)) for u, v in pairs], [list(map(max, u, v)) for u, v in pairs]


def box_volumes(
    fn: AxisSeparable, lower: Sequence[Sequence[int]], upper: Sequence[Sequence[int]]
) -> Iterator[Ratio]:
    """The volume under ``fn`` of each box in the lattice columns ``lower`` and ``upper``, as unreduced pairs.

    Each axis codes the distinct corner indices of the batch once, as the
    pairs (k, LATTICE), with one ``pair_codes`` call.  Each of the 2^d
    vertices is then read for every box at once, by ``code_ratio`` down the
    columns of its corners' codes, and :func:`_signed_sums` adds each box's
    vertices; the volumes are yielded lazily.
    """
    columns = []
    for axis, (los, his) in enumerate(zip(lower, upper)):
        ks = sorted(set(los).union(his))
        code = dict(zip(ks, fn.pair_codes(axis, [(k, LATTICE) for k in ks]))).__getitem__
        columns.append((list(map(code, his)), list(map(code, los))))
    # vertex eps reads b_i where eps_i is 0 and a_i where it is 1, as vertex_sum's grid ((b_i, a_i))_i
    return _signed_sums(fn.dim, [map(fn.code_ratio, zip(*cols)) for cols in iter_product(*columns)])


def negative_boxes(fn: AxisSeparable, seed: int, count: int) -> Iterator[tuple[Indices, Indices, Ratio]]:
    """(lower, upper, volume) of each seeded box of negative volume under ``fn``, in draw order.

    The corners are lattice indices and the volume is an unreduced pair.
    """
    lower, upper = unit_box_columns(seed, fn.dim, count)
    for j, vol in enumerate(box_volumes(fn, lower, upper)):
        if vol[0] < 0:
            yield tuple(col[j] for col in lower), tuple(col[j] for col in upper), vol


# -- axiom checking ------------------------------------------------------------

def _box_violation(a: Indices, b: Indices, vol: Ratio) -> dict:
    return {"a": lattice_point(a), "b": lattice_point(b), "volume": Fraction(*vol)}


def _limit_violation(point: Point, value: Fraction, expected: Fraction) -> dict:
    return {"point": point, "value": value, "expected": expected}


def check_df_axioms(df: MultivariateDf, n_cuboids: int, seed: int, max_witnesses: int = -1) -> Report:
    """Probe non-negative volumes and the two limit conditions; right-continuity is certified.

    Refuses a df whose class is not exactly one of the five families
    (:func:`df_family`) with ``ValidationError``, before any work, and then
    ``n_cuboids < 1``.  Volumes are checked on ``n_cuboids`` random boxes in
    [0,1]^d drawn from ``seed``, unless the df is certified d-increasing, when
    the section is the one the boxes would give: no witness, ``n_cuboids``
    points.
    The limit conditions expect 0 whenever one coordinate is -inf and 1 at
    the all-+inf point.  The ``right_continuity`` section never holds a
    witness (``families`` gives the argument); its ``points`` are d times
    the breakpoint-grid points, at most ``PROBE_POINTS`` of them.  Each
    section keeps the witnesses of its first ``max_witnesses`` violations
    (all when below 0) and counts the rest.
    """
    _require_family(df)
    require_box_count(n_cuboids)
    volumes = Witnesses(max_witnesses)
    if not family_certifies_d_increase(df):
        for a, b, vol in negative_boxes(df, seed, n_cuboids):
            volumes.add(NO_DEVIATION, _box_violation, a, b, vol)

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

    probes = min(prod(len(df.axis_breakpoints(i)) for i in range(df.dim)), PROBE_POINTS)
    return Report(
        "df_axioms",
        (
            volumes.section("volumes", "volume_violations", n_cuboids),
            limits.section("limits", "limit_violations", len(limit_points)),
            Witnesses().section("right_continuity", "right_continuity_violations", probes * df.dim),
        ),
    )
