"""Copula extraction from a cdf and the exact verification suite.

Given a cdf F with margins F_1 .. F_d, the candidate copula is

    C(s) = F( F_1^{-1}(s_1 + 0), ..., F_d^{-1}(s_d + 0) )

where each coordinate is transformed by the right-limit quantile
``inf { x : F_i(x) > s }``.  At ``s_i = 1`` the set is empty, the quantile is
+inf, and the evaluation semantics of F turn the coordinate into "no
constraint", so C(1, ..., 1) = 1.

Three verifiers compare this construction against what a copula must satisfy:
the factorization F(x) = C(F_1(x_1), ..., F_d(x_d)) on a grid, uniformity of
the one-dimensional sections C(1,..,s,..,1) = s, and the copula axioms
(non-negative box volumes, groundedness on the faces s_i = 0, and the
dependence envelope max(sum s_i - (d-1), 0) <= C(s) <= min s_i).  All
comparisons are exact; failures become report entries with rational witnesses,
because for discontinuous margins the construction genuinely breaks and
exhibiting the exact break points is the purpose of this module.

:class:`GridSpec` builds every verification grid and always merges the
structural breakpoints of the inputs, so a violation at a jump cannot hide
between grid points.  Only :class:`Copula` applies the quantile transform: its
``axis_codes`` checks and transforms each level, then codes it with the
source's ``axis_codes``; its ``code_ratio`` is the source's.  So every sweep
transforms each axis point once, and the random boxes (``mvdf.IndexBox``)
transform each distinct corner level of the whole batch once.

The verifiers sweep ``ratio_grid``, whose values are integer pairs
(``mvdf.Ratio``), and decide every comparison by cross-multiplying them.
Each violation goes to a ``report.Witnesses`` sink with its deviation as a
pair, and a ``Fraction`` is built only for a witness the sink keeps (and one
per box, by ``vertex_sum``).  ``max_witnesses`` caps the kept witnesses; the
default, below 0, keeps all.
``Copula.eval`` at one point is the same sweep on a grid of one point per
axis, so the copula, like every df, has a single evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product as iter_product
from math import prod
from typing import Callable, Optional, Sequence

from .errors import DomainError, ValidationError
from .monotone import MonotoneFn
from .mvdf import (
    AxisSeparable,
    MultivariateDf,
    Point,
    Ratio,
    index_box_grid,
    random_index_boxes,
    ratio_lower_bound,
    ratio_min,
    vertex_sum,
)
from .report import Report, Witnesses
from .scalars import as_scalar


@dataclass(frozen=True)
class GridSpec:
    """The one builder of verification axes: k/m points on a range, merged with its breakpoints."""

    m: int = 20

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise ValidationError(f"grid resolution must be an integer >= 1, got {self.m!r}")

    def axis_points(self, lo: Fraction, hi: Fraction, extra: Sequence[Fraction] = ()) -> tuple[Fraction, ...]:
        """k/m points on [lo, hi] merged with the given structural breakpoints, sorted and distinct."""
        if lo > hi:
            raise ValidationError(f"grid range [{lo}, {hi}] is empty")
        # with lo = a/b and hi = c/d, point k is (a d m + k (c b - a d)) / (b d m), exactly hi at k = m
        a, b, c, d, m = lo.numerator, lo.denominator, hi.numerator, hi.denominator, self.m
        start, span, den = a * d * m, c * b - a * d, b * d * m
        points = sorted([*(Fraction(start + k * span, den) for k in range(m + 1)), *extra])
        return tuple(p for p, _ in groupby(points))

    def levels(self, fn: MonotoneFn) -> tuple[Fraction, ...]:
        """Levels on [inf G, sup G] merged with the critical levels of G.

        A jump of a margin forces the copula away from its axioms exactly at
        these levels, so no verification grid may step over them.
        """
        return self.axis_points(fn.inf_value, fn.sup_value, fn.critical_levels())

    def lemma_grids(self, fn: MonotoneFn) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """The level grid of G and its point grid, one unit past the knots on each side."""
        xs = fn.knot_xs()
        return self.levels(fn), self.axis_points(xs[0] - 1, xs[-1] + 1, xs)

    def df_axes(
        self, df: MultivariateDf, box: Optional[tuple[Point, Point]] = None
    ) -> list[tuple[Fraction, ...]]:
        """Per-axis points on ``box`` (default: the support box of ``df``) merged with its breakpoints."""
        lo, hi = box if box is not None else df.support_box()
        if len(lo) != df.dim or len(hi) != df.dim:
            raise DomainError("bounding box dimension does not match the df")
        return [
            self.axis_points(as_scalar(lo[i]), as_scalar(hi[i]), df.axis_breakpoints(i))
            for i in range(df.dim)
        ]


@dataclass(frozen=True)
class Copula(AxisSeparable):
    """Candidate copula of a cdf: right-limit quantile transform then evaluation.

    Margins are cached at extraction time; evaluation is lazy and no grid is
    ever materialized here.
    """

    source: MultivariateDf
    margins: tuple[MonotoneFn, ...]

    @property
    def dim(self) -> int:
        return len(self.margins)

    # bench/spans.py traces this by name in the class's own __dict__
    eval = AxisSeparable.eval

    def axis_codes(self, axis: int, levels: Sequence) -> list:
        """The source's codes of the quantile-transformed levels along ``axis``.

        The margins are cdfs, so the quantile's range check is the [0, 1] check.
        """
        return self.source.axis_codes(axis, self.margins[axis].gen_inverse_right_many(levels))

    @property
    def code_ratio(self) -> Callable[[Sequence], Ratio]:
        """The source's ``code_ratio``: the codes already are the source's."""
        return self.source.code_ratio


def extract_copula(df: MultivariateDf) -> Copula:
    """Build the candidate copula of ``df``; rejects sources that are not cdfs."""
    margins = []
    for i in range(df.dim):
        m = df.margin_fn(i)
        if not m.is_cdf():
            raise ValidationError(
                f"margin {i + 1} has range [{m.inf_value}, {m.sup_value}]; "
                "copula extraction needs a cdf"
            )
        margins.append(m)
    return Copula(source=df, margins=tuple(margins))


# -- verifiers ------------------------------------------------------------------


def _witness(point: tuple, expected: Fraction, got: Fraction, kind: str) -> dict:
    """One exact mismatch; ``point`` is the grid point (or the (a, b) corner pair)."""
    deviation = abs(got - expected)
    return {"point": point, "expected": expected, "got": got, "deviation": deviation, "kind": kind}


def _pair_witness(point: tuple, expected: Ratio, got: Ratio, kind: str) -> dict:
    return _witness(point, Fraction(*expected), Fraction(*got), kind)


def _box_witness(box, volume: Fraction) -> dict:
    box = box.cuboid()
    return _witness((box.a, box.b), Fraction(0), volume, "d_increasing")


def _flat_report(check: str, points: int, sink: Witnesses) -> Report:
    """One-section report, which emits the flat layout with ``max_deviation``."""
    return Report(check, (sink.section(check, "violations", points),))


def verify_sklar_identity(
    df: MultivariateDf,
    grid: GridSpec = GridSpec(),
    box: Optional[tuple[Point, Point]] = None,
    max_witnesses: int = -1,
) -> Report:
    """Compare F(x) against C(F_1(x_1), ..., F_d(x_d)) on a merged grid.

    The grid spans ``box`` (default: the support box of F) merged with every
    structural breakpoint.  F sweeps the grid and C sweeps its margin levels,
    side by side.
    """
    copula = extract_copula(df)
    axes = grid.df_axes(df, box)
    levels = [m.eval_many(axis_pts) for m, axis_pts in zip(copula.margins, axes)]

    sink = Witnesses(max_witnesses)
    sweep = zip(iter_product(*axes), df.ratio_grid(axes), copula.ratio_grid(levels))
    for x, (en, ed), (gn, gd) in sweep:
        diff = gn * ed - en * gd
        if diff:
            sink.add((abs(diff), gd * ed), _pair_witness, x, (en, ed), (gn, gd), "identity")
    return _flat_report("sklar_identity", prod(map(len, axes)), sink)


def verify_uniform_margins(copula: Copula, grid: GridSpec = GridSpec(), max_witnesses: int = -1) -> Report:
    """Check every one-dimensional section C(1, .., s, .., 1) == s exactly.

    The s-grid merges the critical levels of each margin, which is where a
    jump in the margin forces the section away from the diagonal.
    """
    sink = Witnesses(max_witnesses)
    points = 0
    for i, levels in enumerate(grid.levels(m) for m in copula.margins):
        section = [levels if j == i else (Fraction(1),) for j in range(copula.dim)]
        kind = f"margin_{i + 1}"
        for point, (gn, gd) in zip(iter_product(*section), copula.ratio_grid(section)):
            s = point[i]
            points += 1
            sn, sd = s.numerator, s.denominator
            diff = gn * sd - sn * gd
            if diff:
                sink.add((abs(diff), gd * sd), _pair_witness, point, (sn, sd), (gn, gd), kind)
    return _flat_report("uniform_margins", points, sink)


def verify_copula_axioms(
    copula: Copula,
    n_cuboids: int = 200,
    seed: int = 0,
    grid: GridSpec = GridSpec(),
    max_witnesses: int = -1,
) -> Report:
    """Check d-increase on random boxes, groundedness, and the dependence envelope.

    Random boxes live in [0,1]^d and come from the seeded deterministic
    generator; grid points merge the margin critical levels.  Grounded means
    C(s) = 0 whenever some coordinate is 0; the envelope is
    max(sum s_i - (d-1), 0) <= C(s) <= min s_i.
    """
    if n_cuboids < 1:
        raise ValidationError(f"n_cuboids must be >= 1, got {n_cuboids}")
    sink = Witnesses(max_witnesses)

    boxes = random_index_boxes(seed, copula.dim, n_cuboids)
    grid_fn = index_box_grid(copula, boxes)
    for box in boxes:
        vol = vertex_sum(grid_fn, box)
        if vol.numerator < 0:
            sink.add((-vol.numerator, vol.denominator), _box_witness, box, vol)

    axis_levels = [grid.levels(m) for m in copula.margins]
    axis_ratios = [[(s.numerator, s.denominator) for s in levels] for levels in axis_levels]
    sweep = zip(
        iter_product(*axis_levels), iter_product(*axis_ratios), copula.ratio_grid(axis_levels)
    )
    for combo, ratios, value in sweep:
        vn, vd = value
        if vn and any(n == 0 for n, _ in ratios):
            sink.add((abs(vn), vd), _pair_witness, combo, (0, 1), value, "grounded")
        ln, ld = lower = ratio_lower_bound(ratios)
        below = ln * vd - vn * ld
        if below > 0:
            sink.add((below, ld * vd), _pair_witness, combo, lower, value, "fh_lower")
        un, ud = upper = ratio_min(ratios)
        above = vn * ud - un * vd
        if above > 0:
            sink.add((above, ud * vd), _pair_witness, combo, upper, value, "fh_upper")
    points = n_cuboids + prod(map(len, axis_levels))
    return _flat_report("copula_axioms", points, sink)
