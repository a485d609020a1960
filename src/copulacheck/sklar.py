"""Copula extraction from a cdf and the exact verification suite.

Given a cdf F with margins F_1 .. F_d, the candidate copula is

    C(s) = F( F_1^{-1}(s_1 + 0), ..., F_d^{-1}(s_d + 0) )

where each coordinate is transformed by the right-limit quantile
``inf { x : F_i(x) > s }``.  At ``s_i = 1`` the set is empty, the quantile is
+inf, and the evaluation semantics of F turn the coordinate into "no
constraint", so C(1, ..., 1) = 1.

Three verifiers compare this construction against what a copula must satisfy:
the factorization F(x) = C(F_1(x_1), ..., F_d(x_d)) on the grid of F's support
box, uniformity of the one-dimensional sections C(1,..,s,..,1) = s, and the
copula axioms (non-negative volumes on the seeded boxes of
``mvdf.negative_boxes``, groundedness on the faces s_i = 0, and the
dependence envelope max(sum s_i - (d-1), 0) <= C(s) <= min s_i).  A
:class:`Copula` admits only a source of the five families
(``mvdf.require_family``), so every verifier sees one of them.  The boxes
are drawn only when the source does not certify d-increase: C reads F at
the non-decreasing quantiles, so V_C(]s, t]) = V_F(]Q(s), Q(t)]) and a box
of C can be negative only where one of F can.  All
comparisons are exact; failures become report entries with rational witnesses,
because for discontinuous margins the construction genuinely breaks and
exhibiting the exact break points is the purpose of this module.

The factorization is decided axis by axis.  C(F_1(x_1), ..., F_d(x_d)) is F
read at the quantiles Q_i(F_i(x_i)), and F and C share one ``code_grid``,
whose value at a point depends only on the values of its d codes.  So a point
where every axis keeps its code under that round trip (equal ranks, or pairs
equal by cross-multiplication) satisfies the identity exactly and is not
read.  A continuous margin keeps every code, since F_i(Q_i(u)) = u
(Embrechts & Hofert, "A note on generalized inverses", 2013), so dfs of
continuous margins read no point; a margin value changes only on a flat piece
that ends in a jump.  The rest is read as d product blocks, one ``code_grid``
call per side each, and compared in flat order; ``points`` still counts
every grid point.

The grounded and envelope checks skip points too, by the codes the sweep
reads anyway.  A margin-composed source's code of a level s is its margin's
value G_i(Q_i(s)), which moves off s exactly in a jump gap [G_i(x-), G_i(x)).
Where every code is its level, C(s) is Pi(s), M(s) or W(s): grounded and
between W and M (Nelsen, 2006, 2.5), so no check can fail and the point is
not read.  A counting source's codes are ranks, which never equal a level, so
each of its points is read.  Both sweeps read through ``_changed_points``: the
blocks of ``_changed_runs``, one grid call per stream and block, in flat order.

:class:`GridSpec` builds every verification grid and always merges the
structural breakpoints of the inputs, so a violation at a jump cannot hide
between grid points.  It makes the k/m points of a range from integers, in
order, and places each breakpoint among them by integer division, so grid
points are never compared.  The breakpoints arrive as sorted, distinct
pairs (a margin's ``critical_level_pairs`` and ``knot_x_pairs``, a df's
breakpoints), so one pass merges them and no ``Fraction`` is compared.  Its
one emitter, ``axis_pairs``, gives an axis as integer pairs (``mvdf.Ratio``)
and builds no ``Fraction``; ``levels``, ``df_axes`` and ``lemma_grids`` give
their axes in that format, and ``lemma_grids`` hands them to
``monotone.lemma_report``.  Only
:class:`Copula` applies the quantile transform: its ``pair_codes``
range-checks and transforms level pairs and hands the quantiles, as pairs,
to the source's ``pair_codes``; its ``code_grid`` is the source's.  Every
sweep transforms each axis point once, the random boxes
(``mvdf.box_volumes``) each distinct corner pair (k, 1000) of the batch
once, and the Sklar identity the margin values F_i(x_i) as the pairs the
margins return.

The verifiers feed the axis pairs to ``pair_codes``, sweep ``code_grid``,
whose values are pairs too, and decide every comparison by
cross-multiplying them.
The envelope reads W and M on the level grid through the folds
``mvdf.lower_bound_grid`` and ``mvdf.min_grid``, side by side with C.  Each
violation goes to a ``report.Witnesses`` sink with its deviation as a pair,
and a ``Fraction`` is built only for a witness the sink keeps: a negative
box's corners and volume, or a grid point decoded from its flat index.
``max_witnesses`` caps the kept witnesses; the default, below 0, keeps all.
``Copula.eval`` at one point codes its levels as a sweep does and reads them
as a 1 x .. x 1 grid of the source's ``code_grid``, so the copula, like
every df, has a single evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ValidationError
from .monotone import MonotoneFn
from .mvdf import (
    AxisSeparable,
    MultivariateDf,
    Ratio,
    lattice_point,
    lower_bound_grid,
    min_grid,
    negative_boxes,
    require_box_count,
    require_family,
    vertex_sum,  # bench/spans.py traces it by name in this module too
)
from .report import Report, Witnesses
from .scalars import as_scalar, pair_value


@dataclass(frozen=True)
class GridSpec:
    """The one builder of verification axes: k/m points on a range, merged with its breakpoints."""

    m: int = 20

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise ValidationError(f"grid resolution must be an integer >= 1, got {self.m!r}")

    def axis_pairs(self, lo: Fraction, hi: Fraction, extra: Sequence[Ratio] = ()) -> tuple[Ratio, ...]:
        """k/m points on [lo, hi] merged with the structural breakpoints, sorted and distinct, as pairs.

        ``extra`` holds the breakpoints as sorted, distinct pairs (b > 0),
        as ``MonotoneFn.knot_x_pairs`` and ``critical_level_pairs`` give them.
        Grid point k is the unreduced pair (start + k span, den), built from
        integers, so grid points are never compared and no ``Fraction`` is
        built.  A breakpoint p/q is placed by one integer division: dropped
        when it equals a grid point, else put, as given, just before the next
        one, before lo or past hi; the breakpoints are sorted, so one pass
        merges them.  ``lo == hi`` is one grid point.
        """
        # with lo = a/b and hi = c/d, point k is (a d m + k (c b - a d)) / (b d m)
        a, b, c, d, m = lo.numerator, lo.denominator, hi.numerator, hi.denominator, self.m
        start, span, den = a * d * m, c * b - a * d, b * d * m
        if span < 0:
            raise ValidationError(f"grid range [{lo}, {hi}] is empty")
        if not span:  # lo == hi: one grid point, and the placement below only reads signs
            m, span = 0, 1
        # gap: the grid point the breakpoint goes just before; gap m + 1 lies past hi
        pairs, done = [], 0
        for p, q in extra:
            k, r = divmod(p * den - start * q, span * q)
            if not r and 0 <= k <= m:
                continue  # p/q is grid point k
            gap = min(max(k + 1 if r else k, 0), m + 1)
            pairs += [(start + k * span, den) for k in range(done, gap)]
            pairs.append((p, q))
            done = gap
        pairs += [(start + k * span, den) for k in range(done, m + 1)]
        return tuple(pairs)

    def levels(self, fn: MonotoneFn) -> tuple[Ratio, ...]:
        """Levels on [inf G, sup G] merged with the critical levels of G, as pairs.

        A jump of a margin forces the copula away from its axioms exactly at
        these levels, so no verification grid may step over them.
        """
        return self.axis_pairs(fn.inf_value, fn.sup_value, fn.critical_level_pairs())

    def lemma_grids(self, fn: MonotoneFn) -> tuple[tuple[Ratio, ...], tuple[Ratio, ...]]:
        """The level grid of G and its point grid, one unit past the knots on each side, as pairs."""
        xs = fn.knot_xs()
        return self.levels(fn), self.axis_pairs(xs[0] - 1, xs[-1] + 1, fn.knot_x_pairs())

    def df_axes(self, df: MultivariateDf) -> list[tuple[Ratio, ...]]:
        """Per-axis points on the support box of ``df`` merged with its breakpoints, as pairs."""
        lo, hi = df.support_box()
        return [
            self.axis_pairs(lo[i], hi[i], [p.as_integer_ratio() for p in df.axis_breakpoints(i)])
            for i in range(df.dim)
        ]


@dataclass(frozen=True)
class Copula(AxisSeparable):
    """Candidate copula of a cdf: right-limit quantile transform then evaluation.

    Margins are cached at extraction time; evaluation is lazy and no grid is
    ever materialized here.  A source outside the five families is refused.
    """

    source: MultivariateDf
    margins: tuple[MonotoneFn, ...]

    def __post_init__(self) -> None:
        require_family(self.source)

    @property
    def dim(self) -> int:
        return len(self.margins)

    # bench/spans.py traces this by name in the class's own __dict__
    eval = AxisSeparable.eval

    def pair_codes(self, axis: int, pairs: Iterable[Ratio]) -> list:
        """The source's codes of the right-limit quantiles of the level pairs, range-checked in [0, 1]."""
        return self.source.pair_codes(axis, self.margins[axis].gen_inverse_right_pairs(pairs))

    def axis_codes(self, axis: int, levels: Sequence) -> list:
        """Each level coerced to an exact rational as the range check reaches it, then ``pair_codes``."""
        return self.pair_codes(axis, (as_scalar(u).as_integer_ratio() for u in levels))

    @property
    def code_grid(self) -> Callable[[Sequence[Sequence]], Iterator[Ratio]]:
        """The source's ``code_grid``: a whole grid of the source's codes, read as the source reads it."""
        return self.source.code_grid


def extract_copula(df: MultivariateDf) -> Copula:
    """Build the candidate copula of ``df``; refuses a df outside the five families first, then non-cdf sources."""
    require_family(df)
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


def _box_witness(a: tuple[int, ...], b: tuple[int, ...], volume: Ratio) -> dict:
    return _witness((lattice_point(a), lattice_point(b)), Fraction(0), Fraction(*volume), "d_increasing")


def _grid_witness(axes: Sequence[Sequence[Ratio]], flat: int, expected: Ratio, got: Ratio, kind: str) -> dict:
    """The witness at index ``flat`` of the product of the pair ``axes``, its point decoded only when kept."""
    point = []
    for axis in reversed(axes):
        flat, k = divmod(flat, len(axis))
        point.append(pair_value(axis[k]))
    return _witness(tuple(reversed(point)), Fraction(*expected), Fraction(*got), kind)


def _flat_report(check: str, points: int, sink: Witnesses) -> Report:
    """One-section report, which emits the flat layout with ``max_deviation``."""
    return Report(check, (sink.section(check, "violations", points),))


def _changed(f_code, c_code) -> bool:
    """Whether two codes of an axis point differ: ranks by ``!=``, pairs by value; a rank is never a pair."""
    return f_code != c_code and (type(f_code) is not tuple or f_code[0] * c_code[1] != c_code[0] * f_code[1])


def _changed_runs(changed: Sequence[Sequence[bool]]) -> Iterator[tuple[int, range]]:
    """The grid points where some axis changes its code, in flat order, as (block, run of flat indices).

    Block j holds the points whose axes before j keep their code and whose
    axis j changes it; each run covers a run of changed indices of axis j
    under one kept prefix, with every index of the axes after j.
    """
    strides = [prod(map(len, changed[j + 1 :])) for j in range(len(changed))]
    runs = [[(differs, sum(1 for _ in group)) for differs, group in groupby(mask)] for mask in changed]
    # deeper[j]: some axis after j changes, so a kept index of axis j has changed points under it
    deeper = [any(map(any, changed[j + 1 :])) for j in range(len(changed))]

    def walk(j: int, base: int) -> Iterator[tuple[int, range]]:
        lo, stride = 0, strides[j]
        for differs, n in runs[j]:
            if differs:
                yield j, range(base + lo * stride, base + (lo + n) * stride)
            elif deeper[j]:
                for k in range(lo, lo + n):
                    yield from walk(j + 1, base + k * stride)
            lo += n

    return walk(0, 0)


def _changed_points(changed: Sequence[Sequence[bool]], streams: Sequence[tuple[Callable, Sequence]]) -> Iterator[tuple]:
    """(flat index, value of each stream) at each grid point where some axis changes, in flat order.

    A stream is a grid reader, as ``code_grid``, with its per-axis lists; each
    block of :func:`_changed_runs` reads every stream once, on the block's indices.
    """
    blocks = []
    for j, mask in enumerate(changed):
        if not any(mask):
            blocks.append(None)
            continue
        # the indices each axis takes in block j: kept before j, changed at j, all after j
        picks = [[k for k, differs in enumerate(changed[i]) if differs == (i == j)] for i in range(j + 1)]
        picks += [range(len(later)) for later in changed[j + 1 :]]
        blocks.append([read([[axis[k] for k in ks] for axis, ks in zip(axes, picks)]) for read, axes in streams])
    return chain.from_iterable(zip(flats, *blocks[j]) for j, flats in _changed_runs(changed))


def verify_sklar_identity(df: MultivariateDf, grid: GridSpec = GridSpec(), max_witnesses: int = -1) -> Report:
    """Compare F(x) against C(F_1(x_1), ..., F_d(x_d)) on a merged grid.

    The grid spans the support box of F merged with every structural
    breakpoint.  A point where every axis keeps its code under the round trip
    Q_i(F_i(x_i)) satisfies the identity exactly (module docstring) and is
    not read; the rest is read block by block (:func:`_changed_runs`), one
    ``code_grid`` call per side and block, in flat order.  ``points`` counts
    every grid point.
    """
    copula = extract_copula(df)
    axes = grid.df_axes(df)
    f_codes = [df.pair_codes(i, pts) for i, pts in enumerate(axes)]
    c_codes = [copula.pair_codes(i, m.eval_pairs(pts)) for i, (m, pts) in enumerate(zip(copula.margins, axes))]
    changed = [list(map(_changed, fs, cs)) for fs, cs in zip(f_codes, c_codes)]

    sink = Witnesses(max_witnesses)
    for flat, expected, got in _changed_points(changed, ((df.code_grid, f_codes), (copula.code_grid, c_codes))):
        (en, ed), (gn, gd) = expected, got
        diff = gn * ed - en * gd
        if diff:
            sink.add((abs(diff), gd * ed), _grid_witness, axes, flat, expected, got, "identity")
    return _flat_report("sklar_identity", prod(map(len, axes)), sink)


def verify_uniform_margins(copula: Copula, grid: GridSpec = GridSpec(), max_witnesses: int = -1) -> Report:
    """Check every one-dimensional section C(1, .., s, .., 1) == s exactly.

    The s-grid merges the critical levels of each margin, which is where a
    jump in the margin forces the section away from the diagonal.
    """
    sink = Witnesses(max_witnesses)
    points = 0
    for i, levels in enumerate(grid.levels(m) for m in copula.margins):
        section = [levels if j == i else ((1, 1),) for j in range(copula.dim)]
        kind = f"margin_{i + 1}"
        points += len(levels)
        codes = [copula.pair_codes(j, axis) for j, axis in enumerate(section)]
        # the other axes hold one point each, so flat index k is levels[k]
        for k, got in enumerate(copula.code_grid(codes)):
            (sn, sd), (gn, gd) = levels[k], got
            diff = gn * sd - sn * gd
            if diff:
                sink.add((abs(diff), gd * sd), _grid_witness, section, k, levels[k], got, kind)
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
    generator; they are drawn only when ``copula.source`` is not certified
    d-increasing, and ``points`` counts ``n_cuboids`` either way.  Grid
    points merge the margin critical levels.  Grounded means
    C(s) = 0 whenever some coordinate is 0; the envelope is
    max(sum s_i - (d-1), 0) <= C(s) <= min s_i.  Each level is coded once by
    ``copula.pair_codes``, and only the level points where some code differs
    from its level are read (module docstring), since no other point can
    fail.  ``points`` counts every level point.
    """
    require_box_count(n_cuboids)
    sink = Witnesses(max_witnesses)
    if not copula.source.certainly_d_increasing():
        for a, b, (vn, vd) in negative_boxes(copula, seed, n_cuboids):
            sink.add((-vn, vd), _box_witness, a, b, (vn, vd))

    axis_levels = [grid.levels(m) for m in copula.margins]
    codes = [copula.pair_codes(i, levels) for i, levels in enumerate(axis_levels)]
    # where every code is its level, C(s) is Pi, M or W of the levels: grounded and within W and M
    changed = [list(map(_changed, cs, levels)) for cs, levels in zip(codes, axis_levels)]
    streams = ((copula.code_grid, codes), (lower_bound_grid, axis_levels), (min_grid, axis_levels))
    for flat, value, lower, upper in _changed_points(changed, streams):
        (vn, vd), (ln, ld), (un, ud) = value, lower, upper
        # levels lie in [0, 1], so M(s) = min s_i is 0 exactly where some s_i is 0
        if vn and not un:
            sink.add((abs(vn), vd), _grid_witness, axis_levels, flat, (0, 1), value, "grounded")
        below = ln * vd - vn * ld
        if below > 0:
            sink.add((below, ld * vd), _grid_witness, axis_levels, flat, lower, value, "fh_lower")
        above = vn * ud - un * vd
        if above > 0:
            sink.add((above, ud * vd), _grid_witness, axis_levels, flat, upper, value, "fh_upper")
    points = n_cuboids + prod(map(len, axis_levels))
    return _flat_report("copula_axioms", points, sink)
