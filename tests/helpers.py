"""Shared test plumbing: independent oracles and seeded random generators.

The library has one evaluation path: a single-point ``eval`` or inverse is
a one-point call into the sweep kernels.  So every oracle here avoids the
library's evaluation code altogether.  ``walk_eval`` interpolates G on the
piece that holds x, found by a bisect over the knots, in ``Fraction``
arithmetic, and the knot-walk oracle finds each inverse by walking the knots
in order.  The scan oracle walks a literal grid of evaluation points, the
right-increase test reads the knot structure directly, and the box-count and
counting-df oracles walk the rows one by one with ``Fraction`` comparisons.
``oracle_eval`` evaluates any df or copula at one point from these alone: the
row scan for a counting df, the family's formula in ``Fraction`` arithmetic
over ``walk_eval`` for a margin-composed df, and the knot-walk quantile
transform for a copula.  The grid, box and verifier oracles call it one point
at a time, the seeded box oracle draws its corners as ``Fraction`` levels
directly, the grid-axis oracles build each axis with a set of
``lo + k/m * (hi - lo)`` points, and the lemma report oracle uses only the
walks.
``oracle_rank_index`` builds a counting df's rank index as the library did
before it ranked integer pairs: sorted sets of ``Fraction``s and a
``bisect_right`` per row coordinate.  ``LeftContinuous`` codes its pairs by
``bisect_left`` over the ``Fraction`` breakpoints.
``check_df_axioms`` certifies right-continuity on the five families and
probes nothing, and ``axis_right_limit`` returns the value itself.  The
right-limit oracles read each limit at an offset delta, half the gap to the
next breakpoint (``oracle_right_delta``): a counting df at x + delta, a
margin as 2 G(x + delta/2) - G(x + delta) by ``walk_eval``, which is exact
because G is affine on the knot-free ]x, x + 2 delta[.
``oracle_right_continuity`` is the keep-all probe sweep that
``check_df_axioms`` ran before, and ``pointwise_right_continuity`` the same
probe loop one point at a time, by ``oracle_right_limit``.
The box-by-box oracles (``oracle_negative_boxes`` and the two reports built
on it) take the seeded boxes of ``oracle_unit_cuboids`` as lattice indices
and read each box with one ``code_grid`` call and one vertex sum over the lcm of
the denominators, as the library did before it read the boxes as columns.
``run_cli`` runs the command line in a child process that imports the
package from this checkout's ``src``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, prod
from pathlib import Path

from hypothesis import strategies as st

from copulacheck import (
    NEG_INF,
    POS_INF,
    ComonotoneDf,
    Copula,
    CountermonotoneDf,
    Cuboid,
    DomainError,
    EmpiricalDf,
    GridDf,
    Knot,
    MonotoneFn,
    ProductDf,
    Report,
    Section,
    SplitMix64,
    ValidationError,
    extract_copula,
    vertex_sum,
)
from copulacheck.mvdf import (
    LATTICE,
    box_volumes,
    unit_box_columns,
)
from copulacheck.scalars import as_ext, as_scalar
from copulacheck.sklar import _witness

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python -m copulacheck.cli *args`` in ``cwd`` and capture its output.

    The child's ``PYTHONPATH`` starts with the absolute ``src`` directory, so
    it finds the checkout's package from any working directory and ahead of
    any installed copy; entries the caller already had follow it.
    """
    env = os.environ.copy()
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), inherited]))
    return subprocess.run(
        [sys.executable, "-m", "copulacheck.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def is_finite(x) -> bool:
    """Whether an extended real is a rational, not one of the two infinities."""
    return isinstance(x, Fraction)


def grid(lo, hi, m) -> list[Fraction]:
    """m+1 equally spaced rationals from lo to hi inclusive."""
    lo, hi = Fraction(lo), Fraction(hi)
    return [lo + Fraction(k, m) * (hi - lo) for k in range(m + 1)]


def merged(points, extra) -> list[Fraction]:
    return sorted(set(points) | set(extra))


# -- brute-force scan oracle for the generalized inverses ----------------------


def scan_points(fn: MonotoneFn, lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    pts = {lo + k * step for k in range(int((hi - lo) / step) + 1)}
    pts.update(x for x in fn.knot_xs() if lo <= x <= hi)
    return sorted(pts)


def scan_inf(fn: MonotoneFn, u: Fraction, strict: bool, lo, hi, step):
    """First scan point whose value clears u, and its predecessor on the scan set."""
    prev = None
    for x in scan_points(fn, Fraction(lo), Fraction(hi), Fraction(step)):
        v = walk_eval(fn, x)
        if (v > u) if strict else (v >= u):
            return x, prev
        prev = x
    return None, prev


def assert_matches_scan(fn: MonotoneFn, u: Fraction, result, strict: bool, step=Fraction(1, 50)):
    """The closed-form infimum must land in the exact bracket the scan pins down.

    No scan point below the true infimum can satisfy the predicate and every
    scan point above it must, so the scan's first hit and its predecessor
    bracket the true value; with rational arithmetic both comparisons are
    exact.
    """
    lo = fn.knot_xs()[0] - 1
    hi = fn.knot_xs()[-1] + 1
    hit, prev = scan_inf(fn, u, strict, lo, hi, step)
    if result == POS_INF:
        assert hit is None, f"scan found {hit} but closed form says the set is empty"
    elif result == NEG_INF:
        assert hit == lo, f"closed form says all of R but scan starts hitting at {hit}"
    else:
        assert hit is not None, f"closed form {result} but scan found nothing"
        assert result <= hit, f"closed form {result} above scan hit {hit}"
        assert prev is None or prev <= result, f"scan point {prev} below closed form {result}"


# -- knot-walk oracle for the generalized inverses --------------------------------


def walk_inverse(fn: MonotoneFn, u: Fraction, strict: bool):
    """inf {x : G(x) >= u} (or > u when ``strict``), walking the knots in order."""
    if not strict and u == fn.inf_value:
        return NEG_INF
    for i, k in enumerate(fn.knots):
        if (k.value > u) if strict else (k.value >= u):
            if i == 0:
                return k.x
            prev = fn.knots[i - 1]
            if (k.left > u) if strict else (k.left >= u):
                return prev.x + (u - prev.value) * (k.x - prev.x) / (k.left - prev.value)
            return k.x
    assert strict, "the last knot attains the supremum"
    return POS_INF


def walk_critical_levels(fn: MonotoneFn) -> tuple[Fraction, ...]:
    return tuple(sorted({k.left for k in fn.knots} | {k.value for k in fn.knots}))


def walk_left_limit(fn: MonotoneFn, u: Fraction) -> Fraction:
    """Limit of gen_inverse from below at u, extrapolated from two walks below u.

    With delta half the way down to the next level below u, the inverse is
    affine on [u - delta, u), so 2 G^-1(u - delta/2) - G^-1(u - delta) is the limit.
    """
    delta = (u - max(lv for lv in walk_critical_levels(fn) if lv < u)) / 2
    return 2 * walk_inverse(fn, u - delta / 2, False) - walk_inverse(fn, u - delta, False)


def walk_eval(fn: MonotoneFn, x) -> Fraction:
    """G(x), interpolating on the piece that holds x; the infinities map to inf G and sup G."""
    x = as_ext(x)
    if not is_finite(x):
        return fn.inf_value if x == NEG_INF else fn.sup_value
    i = bisect_right(fn.knot_xs(), x) - 1
    if i < 0:
        return fn.inf_value
    k = fn.knots[i]
    if i == len(fn.knots) - 1 or x == k.x:
        return k.value
    nxt = fn.knots[i + 1]
    return k.value + (nxt.left - k.value) * (x - k.x) / (nxt.x - k.x)


def walk_right_limit(fn: MonotoneFn, x, delta: Fraction) -> Fraction:
    """Limit of G from the right at x, read as 2 G(x + delta/2) - G(x + delta); no knot lies in ]x, x + 2 delta[."""
    return 2 * walk_eval(fn, x + delta / 2) - walk_eval(fn, x + delta)


def walk_eval_left(fn: MonotoneFn, x: Fraction) -> Fraction:
    """Limit of G from below at x: the left limit at a knot, and G(x) elsewhere, where G is continuous."""
    at_knot = [k.left for k in fn.knots if k.x == x]
    return at_knot[0] if at_knot else walk_eval(fn, x)


def walk_level(fn: MonotoneFn, u) -> Fraction:
    """u as an exact level of G; DomainError outside [inf G, sup G]."""
    u = as_scalar(u)
    if not fn.inf_value <= u <= fn.sup_value:
        raise DomainError(f"level {u} outside the range [{fn.inf_value}, {fn.sup_value}]")
    return u


# -- structural right-increase oracle ------------------------------------------


def is_right_increase(fn: MonotoneFn, x: Fraction) -> bool:
    """True iff the function exceeds its value at x immediately to the right.

    Read off the knot list: right of the last knot and left of the first the
    function is constant; in between, the piece containing x rises iff its
    closing left-limit exceeds its opening value.
    """
    ks = fn.knots
    if x >= ks[-1].x or x < ks[0].x:
        return False
    i = bisect_right([k.x for k in ks], x) - 1
    return ks[i].value < ks[i + 1].left


# -- verdict oracles read off the knot list ------------------------------------------


def knot_jumps(fn: MonotoneFn) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(x, G(x-), G(x)) at each knot where G jumps; between knots G is affine and the tails are constant."""
    return [(k.x, k.left, k.value) for k in fn.knots if k.left != k.value]


def knot_jump_gaps(fn: MonotoneFn) -> list[tuple[Fraction, Fraction]]:
    """The jump gaps [G(x-), G(x)) of G, as (left, value), one per knot whose left limit is not its value.

    A level s in a gap moves under the round trip G(Q(s)), Q(s) = inf {x : G(x) > s}: Q(s) is the
    knot, where G is the gap's top.  Every other level of a cdf is kept.
    """
    gaps = []
    for k in fn.knots:
        if k.left != k.value:
            gaps.append((k.left, k.value))
    return gaps


def knot_bottom_value(fn: MonotoneFn) -> Fraction:
    """G(Q(0)) with Q(0) = inf {x : G(x) > 0}, for a cdf G, which is 0 left of its first knot.

    G leaves 0 either on the affine piece into a knot, so Q(0) is the knot
    before it, where G is still 0, or by a jump at a knot, so Q(0) is that
    knot and the bottom value its value.
    """
    for k in fn.knots:
        if k.left > 0:
            return Fraction(0)
        if k.value > 0:
            return k.value
    return Fraction(0)


# -- knot validation oracle -------------------------------------------------------


def oracle_knots(entries) -> tuple[Knot, ...]:
    """The knots a ``MonotoneFn`` of ``entries`` holds, or the ``ValidationError`` it raises.

    The constructor's loop as it was before it encoded the knots as integer
    pairs: every entry is coerced first, each ``Knot`` rebuilt, and the three
    order rules are then checked knot by knot with ``Fraction`` compares.
    """
    knots = []
    for i, entry in enumerate(entries):
        if isinstance(entry, Knot):
            knots.append(Knot(as_scalar(entry.x), as_scalar(entry.left), as_scalar(entry.value)))
            continue
        try:
            x, left, value = entry
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"knot index {i}: expected (x, left, value)") from exc
        knots.append(Knot(as_scalar(x), as_scalar(left), as_scalar(value)))
    if not knots:
        raise ValidationError("a monotone function needs at least one knot")
    for i, k in enumerate(knots):
        if k.left > k.value:
            raise ValidationError(f"knot index {i}: left limit {k.left} exceeds value {k.value}")
        if i > 0:
            prev = knots[i - 1]
            if k.x <= prev.x:
                raise ValidationError(f"knot index {i}: abscissa {k.x} not greater than {prev.x}")
            if prev.value > k.left:
                raise ValidationError(
                    f"knot index {i}: left limit {k.left} below previous value {prev.value}"
                )
    return tuple(knots)


# -- random generators ------------------------------------------------------------


@st.composite
def monotone_fns(draw, cdf=False):
    """Hypothesis strategy: 1-4 knots on small rationals, levels from a six-value pool."""
    n = draw(st.integers(min_value=1, max_value=4))
    xs = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=12),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    pool = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    levels = sorted(draw(st.lists(st.sampled_from(pool), min_size=2 * n, max_size=2 * n)))
    if cdf:
        levels[0], levels[-1] = Fraction(0), Fraction(1)
    return MonotoneFn(
        tuple(Knot(x, levels[2 * i], levels[2 * i + 1]) for i, x in enumerate(sorted(xs)))
    )


# a small pool, so that equal abscissae and equal or crossing levels are drawn often
KNOT_FIELDS = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 4)]),
)


@st.composite
def knot_entries(draw):
    """Hypothesis strategy: 0-5 knot entries, ``Knot``s or triples, near-valid or broken by one edit.

    The abscissae are sorted with repeats allowed and the levels sorted, so
    an unedited list is often valid; one edit may then put any pool value,
    a float or a wrong-shaped entry in one place.
    """
    n = draw(st.integers(0, 5))
    xs = sorted(draw(st.lists(KNOT_FIELDS, min_size=n, max_size=n)))
    levels = sorted(draw(st.lists(KNOT_FIELDS, min_size=2 * n, max_size=2 * n)))
    fields = [[xs[i], levels[2 * i], levels[2 * i + 1]] for i in range(n)]
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 2))
        fields[i][j] = draw(st.one_of(KNOT_FIELDS, st.sampled_from([0.5, 1.0, float("inf")])))
    entries = [Knot(*f) if draw(st.booleans()) else tuple(f) for f in fields]
    if n and draw(st.integers(0, 9)) == 5:
        entries[draw(st.integers(0, n - 1))] = tuple(fields[0][:2])
    return entries


@st.composite
def composed_dfs(draw):
    """Product, comonotone or countermonotone dfs on 1-3 cdf margins (countermonotone on 2-3)."""
    cls = draw(st.sampled_from([ProductDf, ComonotoneDf, CountermonotoneDf]))
    dim = draw(st.integers(2 if cls is CountermonotoneDf else 1, 3))
    return cls(tuple(draw(monotone_fns(cdf=True)) for _ in range(dim)))


COORD = st.integers(-3, 3).map(lambda k: Fraction(k, 2))
# lenient grid masses: negative ones, and totals other than 1
MASS = st.integers(-4, 4).map(lambda k: Fraction(k, 4))


@st.composite
def five_family_dfs(draw):
    """An empirical, grid, product, comonotone or countermonotone df on 1-3 axes, or a lenient one.

    The lenient subjects load from payloads but need not be cdfs: grid dfs
    with masses of either sign and any total, composed dfs built directly on
    margins of any range, and the countermonotone df on three margins.
    """
    kind = draw(st.sampled_from(["empirical", "grid", "composed", "lenient-grid", "lenient-composed"]))
    if kind == "composed":
        return draw(composed_dfs())
    if kind == "lenient-composed":
        cls = draw(st.sampled_from([ProductDf, ComonotoneDf, CountermonotoneDf]))
        dim = 3 if cls is CountermonotoneDf else draw(st.integers(1, 3))
        cdf = cls is CountermonotoneDf and draw(st.booleans())
        return cls(tuple(draw(monotone_fns(cdf=cdf)) for _ in range(dim)))
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=6, unique=True))
    if kind == "empirical":
        return EmpiricalDf(tuple(points))
    if kind == "grid":
        return GridDf(tuple((p, Fraction(1, len(points))) for p in points))
    masses = draw(st.lists(MASS, min_size=len(points), max_size=len(points)))
    return GridDf(tuple(zip(points, masses)))


def random_fraction(rng: SplitMix64, max_den: int = 100, span: int = 200) -> Fraction:
    q = 1 + rng.below(max_den)
    p = rng.below(2 * span + 1) - span
    return Fraction(p, q)


def random_monotone(rng: SplitMix64, max_knots: int = 6) -> MonotoneFn:
    """Random mixture of jumps, flats, and strictly rising pieces.

    Levels are drawn from a small per-function pool so exact ties (and with
    them flats, continuity points, and degenerate constants) occur often;
    sorting 2n pooled draws and pairing them off yields a valid knot list by
    construction.  All knot data are rationals with denominator <= 100.
    """
    n = 1 + rng.below(max_knots)
    xs: set[Fraction] = set()
    while len(xs) < n:
        xs.add(random_fraction(rng))
    pool = [random_fraction(rng, span=100) for _ in range(4)] + [Fraction(0), Fraction(1)]
    levels = sorted(pool[rng.below(len(pool))] for _ in range(2 * n))
    return MonotoneFn(
        tuple(
            Knot(x, levels[2 * i], levels[2 * i + 1]) for i, x in enumerate(sorted(xs))
        )
    )


def random_rows(rng: SplitMix64, n: int, dim: int, den: int = 20) -> list[tuple[Fraction, ...]]:
    """Random dataset with coordinates k/den inside [0, 1]."""
    return [
        tuple(Fraction(rng.below(den + 1), den) for _ in range(dim)) for _ in range(n)
    ]


def count_in_box(rows, a, b) -> int:
    """Rows falling in the half-open box ]a, b], counted directly."""
    return sum(
        1 for r in rows if all(ai < ri <= bi for ri, ai, bi in zip(r, a, b))
    )


# -- row-scan oracle for the counting families -----------------------------------


def _weighted_rows(df) -> list[tuple[tuple, Fraction]]:
    if isinstance(df, EmpiricalDf):
        return [(row, Fraction(1, len(df.rows))) for row in df.rows]
    return [(gm.point, gm.mass) for gm in df.masses]


def scan_eval(df, t) -> Fraction:
    """F(t) of an empirical or grid df: the weight of every row <= t, summed one by one."""
    total = Fraction(0)
    for row, weight in _weighted_rows(df):
        if all(r <= c for r, c in zip(row, t)):
            total += weight
    return total


def scan_eval_below(df, t) -> Fraction:
    """The left-continuous twin of ``scan_eval``: the weight of every row < t, one by one."""
    total = Fraction(0)
    for row, weight in _weighted_rows(df):
        if all(r < c for r, c in zip(row, t)):
            total += weight
    return total


class LeftContinuous:
    """Mixin: a counting df ranked with bisect_left, so F(t) weighs the rows < t (left-continuous)."""

    def pair_codes(self, axis, pairs):
        # (+-1, 0) is +-inf
        return [bisect_left(self.axis_breakpoints(axis), Fraction(a, b) if b else a * POS_INF) for a, b in pairs]


class LeftContinuousEmpirical(LeftContinuous, EmpiricalDf):
    pass


class LeftContinuousGrid(LeftContinuous, GridDf):
    pass


def oracle_rank_index(points, weights) -> tuple:
    """A rank index's (axes, keys, rows), built on ``Fraction``s: sorted sets, and bisect_right row by row."""
    axes = tuple(tuple(sorted({p[i] for p in points})) for i in range(len(points[0])))
    keys = [tuple(zip(*(b.as_integer_ratio() for b in bps))) for bps in axes]
    merged: dict[tuple[int, ...], int] = {}
    for p, w in zip(points, weights):
        ranks = tuple(map(bisect_right, axes, p))
        merged[ranks] = merged.get(ranks, 0) + w
    return axes, keys, tuple(merged.items())


def scan_axis_breakpoints(df, axis: int) -> tuple[Fraction, ...]:
    return tuple(sorted({row[axis] for row, _ in _weighted_rows(df)}))


def oracle_right_delta(breakpoints, x) -> Fraction:
    """Half the distance from x to the nearest breakpoint above it; 1 if none is, or x is infinite."""
    above = [b for b in breakpoints if b > x]
    return (min(above) - x) / 2 if above and is_finite(x) else Fraction(1)


def scan_axis_right_limit(df, t, axis: int, scan=None) -> tuple[Fraction, Fraction]:
    """F with coordinate ``axis`` moved right by ``oracle_right_delta``, and that delta.

    ``scan`` evaluates the moved point; it defaults to the row scan ``scan_eval``.
    """
    delta = oracle_right_delta(scan_axis_breakpoints(df, axis), t[axis])
    shifted = tuple(c + delta if j == axis else c for j, c in enumerate(t))
    return (scan or scan_eval)(df, shifted), delta


def oracle_right_limit(df, t, axis: int) -> tuple[Fraction, Fraction]:
    """The limit of F from the right along ``axis`` at ``t``, and its offset delta, from the oracles alone.

    A counting df is ``scan_axis_right_limit``; a margin-composed df is its
    family's formula over ``walk_eval``, with ``walk_right_limit`` on ``axis``.
    """
    if not isinstance(df, tuple(ORACLE_COMBINE)):
        return scan_axis_right_limit(df, t, axis)
    delta = oracle_right_delta(df.margins[axis].knot_xs(), t[axis])
    values = [walk_eval(m, c) for m, c in zip(df.margins, t)]
    values[axis] = walk_right_limit(df.margins[axis], t[axis], delta)
    return ORACLE_COMBINE[type(df)](values), delta


# -- point-wise oracle for the right-continuity probes ---------------------------------

# right-continuity is probed at most at this many breakpoint-grid points
PROBE_POINTS = 200


def oracle_probe_points(df) -> list[tuple]:
    """Breakpoint-grid points where right-continuity is probed, picked by stride with no seed.

    Of the ``total`` points of the cartesian product of the per-axis
    breakpoints, with ``count = min(total, PROBE_POINTS)``, the n-th point in
    ``product`` order is a probe when n is ``j * total // count`` for some j:
    every point when there are at most ``PROBE_POINTS``.  The grid is walked
    point by point, never decoded from an index.
    """
    axes = [df.axis_breakpoints(i) for i in range(df.dim)]
    total = prod(map(len, axes))
    count = min(total, PROBE_POINTS)
    taken = {j * total // count for j in range(count)}
    return [point for n, point in enumerate(product(*axes)) if n in taken]


def pointwise_right_continuity(df, value=None, right_limit=None) -> list[dict]:
    """The right-continuity witnesses of the probe sweep, one probe point at a time.

    ``value(point)`` defaults to the df's own ``eval``, and
    ``right_limit(point, axis) -> (limit, delta)`` to ``oracle_right_limit``.
    """
    value = value or df.eval
    right_limit = right_limit or partial(oracle_right_limit, df)
    witnesses = []
    for point in oracle_probe_points(df):
        value_at = value(point)
        for i in range(df.dim):
            limit, delta = right_limit(point, i)
            if value_at != limit:
                witnesses.append(
                    dict(point=point, axis=i + 1, delta=delta, value_at=value_at, value_right=limit)
                )
    return witnesses


def _probe_indices(sizes) -> list[tuple[int, ...]]:
    """Per-axis breakpoint indices of the probes: flat index ``j * total // count``, decoded per axis."""
    total = prod(sizes)
    count = min(total, PROBE_POINTS)
    probes = []
    for j in range(count):
        flat, index = j * total // count, []
        for size in reversed(sizes):
            flat, k = divmod(flat, size)
            index.append(k)
        probes.append(tuple(reversed(index)))
    return probes


def _oracle_right_codes(df, axis: int, xs, deltas) -> list:
    """Codes of the right limits at ``xs``: a margin's ``walk_right_limit`` as a pair, else the df's codes at x + delta."""
    if isinstance(df, tuple(ORACLE_COMBINE)):
        return [walk_right_limit(df.margins[axis], x, d).as_integer_ratio() for x, d in zip(xs, deltas)]
    return df.axis_codes(axis, [x + d for x, d in zip(xs, deltas)])


def oracle_right_continuity(df) -> Section:
    """The keep-all right-continuity section as the probe sweep computes it, for the certified section.

    Each axis's breakpoints are coded once at x and once at the right limit
    (``_oracle_right_codes`` at ``oracle_right_delta``), and each probe of
    ``_probe_indices`` is decided on every axis by cross-multiplying the two
    ``code_ratio`` pairs.  It takes any df, so it sees the violations of the
    left-continuous test subjects that ``check_df_axioms`` refuses.
    """
    axes = [df.axis_breakpoints(i) for i in range(df.dim)]
    deltas = [[oracle_right_delta(bps, x) for x in bps] for bps in axes]
    at_codes = [df.axis_codes(i, bps) for i, bps in enumerate(axes)]
    right_codes = [_oracle_right_codes(df, i, bps, ds) for i, (bps, ds) in enumerate(zip(axes, deltas))]
    probes = _probe_indices([len(bps) for bps in axes])
    witnesses = []
    for index in probes:
        codes = [c[k] for c, k in zip(at_codes, index)]
        num, den = df.code_ratio(codes)
        for i, k in enumerate(index):
            right = df.code_ratio([*codes[:i], right_codes[i][k], *codes[i + 1 :]])
            if num * right[1] != right[0] * den:
                point = tuple(bps[j] for bps, j in zip(axes, index))
                witnesses.append(
                    dict(
                        point=point,
                        axis=i + 1,
                        delta=deltas[i][k],
                        value_at=Fraction(num, den),
                        value_right=Fraction(*right),
                    )
                )
    return oracle_section("right_continuity", "right_continuity_violations", len(probes) * df.dim, witnesses)


# -- point-wise oracles for grid evaluation --------------------------------------


def naive_vertex_sum(fn, box) -> Fraction:
    """Signed sum of the point evaluator ``fn`` over the 2^d vertices of ``box``, one by one."""
    total = Fraction(0)
    for eps in product((0, 1), repeat=box.dim):
        vertex = tuple(box.a[i] if e else box.b[i] for i, e in enumerate(eps))
        term = fn(vertex)
        total += -term if sum(eps) % 2 else term
    return total


def level_pool(margin: MonotoneFn, m: int = 8) -> list[Fraction]:
    """Copula levels for one axis: k/m, the margin's critical levels in [0, 1], and midpoints."""
    levels = {Fraction(k, m) for k in range(m + 1)}
    levels.update(lv for lv in margin.critical_levels() if 0 <= lv <= 1)
    levels = sorted(levels)
    return merged(levels, [(a + b) / 2 for a, b in zip(levels, levels[1:])])


def random_axes(rng, pools, max_len: int = 4) -> list[list]:
    """One coordinate list per pool, drawn with repeats and in no particular order."""
    return [[rng.choice(pool) for _ in range(rng.randint(1, max_len))] for pool in pools]


def random_boxes(rng, pools, count: int) -> list[Cuboid]:
    """``count`` boxes with corners drawn from the pools, then ``count`` degenerate ones.

    A degenerate box has a_i == b_i on at least one axis, so its volume is 0
    under any function.
    """
    boxes = []
    for k in range(2 * count):
        flat = set(rng.sample(range(len(pools)), rng.randint(1, len(pools)))) if k >= count else ()
        a, b = [], []
        for i, pool in enumerate(pools):
            lo, hi = sorted((rng.choice(pool), rng.choice(pool)))
            a.append(lo)
            b.append(lo if i in flat else hi)
        boxes.append(Cuboid(tuple(a), tuple(b)))
    return boxes


def check_grid_against_points(obj, rng, pools, rounds: int = 3) -> None:
    """``eval_grid`` and ``eval`` against ``oracle_eval`` on random grids, and boxes through ``vertex_sum``.

    Grid values and single-point values must equal the oracle in ``product``
    order and be ``Fraction``s, so a path that yields an int or a float fails
    here.
    """
    for _ in range(rounds):
        axes = random_axes(rng, pools)
        want = [oracle_eval(obj, p) for p in product(*axes)]
        for got in (list(obj.eval_grid(axes)), [obj.eval(p) for p in product(*axes)]):
            assert got == want, axes
            assert all(type(v) is Fraction for v in got), axes
        ratios = list(obj.ratio_grid(axes))
        assert all(d > 0 for _, d in ratios) and [Fraction(*r) for r in ratios] == want, axes
    for box in random_boxes(rng, pools, rounds):
        vol = vertex_sum(obj.ratio_grid, box)
        assert type(vol) is Fraction and vol == naive_vertex_sum(partial(oracle_eval, obj), box), box
        if any(lo == hi for lo, hi in zip(box.a, box.b)):
            assert vol == 0, box


# -- oracles for the seeded lattice boxes ------------------------------------------


def oracle_unit_cuboids(seed: int, dim: int, count: int) -> list[Cuboid]:
    """Seeded boxes in [0,1]^d drawn as ``Fraction`` corners k/1000, with no index step.

    The same SplitMix64 draws as the library: per box, axes in order, two
    draws per axis sorted into the lower and upper corner.
    """
    rng = SplitMix64(seed)
    boxes = []
    for _ in range(count):
        a, b = [], []
        for _axis in range(dim):
            u = Fraction(rng.below(1001), 1000)
            v = Fraction(rng.below(1001), 1000)
            a.append(min(u, v))
            b.append(max(u, v))
        boxes.append(Cuboid(tuple(a), tuple(b)))
    return boxes


def check_index_boxes(obj, seed: int, count: int = 20) -> None:
    """Volumes of a batch of index boxes against ``naive_vertex_sum`` of ``oracle_eval`` on the oracle's boxes.

    The batch also holds boxes with every corner at one of the indices 0,
    499, 500, 999 and 1000, where an index off by one or a lattice with the
    wrong denominator moves a level across the common breakpoints 1/2 and 1.
    """
    lower, upper = unit_box_columns(seed, obj.dim, count)
    boxes = oracle_unit_cuboids(seed, obj.dim, count)
    for lo, hi in ((0, 499), (499, 500), (500, 999), (999, 1000), (0, 1000)):
        for los, his in zip(lower, upper):
            los.append(lo)
            his.append(hi)
        boxes.append(Cuboid((Fraction(lo, 1000),) * obj.dim, (Fraction(hi, 1000),) * obj.dim))
    vols = list(box_volumes(obj, lower, upper))
    assert len(vols) == len(boxes)
    for (num, den), box in zip(vols, boxes):
        assert den > 0 and Fraction(num, den) == naive_vertex_sum(partial(oracle_eval, obj), box), box


# -- the seeded boxes one box at a time: a grid call and a vertex_sum per box ------------


class OracleIndexBox:
    """The box ]a / 1000, b / 1000] by the lattice indices of its corners."""

    def __init__(self, a: tuple[int, ...], b: tuple[int, ...]) -> None:
        self.a, self.b, self.dim = a, b, len(a)


def oracle_index_box_grid(fn, boxes):
    """A pair grid evaluator on lattice indices: each corner coded once, one ``code_grid`` per call."""
    tables = []
    for axis in range(fn.dim):
        ks = sorted({k for box in boxes for k in (box.a[axis], box.b[axis])})
        tables.append(dict(zip(ks, fn.pair_codes(axis, [(k, LATTICE) for k in ks]))))

    def grid_fn(index_axes):
        return fn.code_grid([[table[k] for k in ks] for table, ks in zip(tables, index_axes)])

    return grid_fn


def oracle_lcm_vertex_sum(grid_fn, box) -> Fraction:
    """``vertex_sum`` as it added a box's vertex pairs before the columns: over the lcm of their denominators."""
    num, den = 0, 1
    signs = [sum(eps) % 2 == 0 for eps in product((0, 1), repeat=box.dim)]
    for positive, (n, d) in zip(signs, grid_fn(tuple(zip(box.b, box.a)))):
        if d != den:
            scale = d // gcd(den, d)
            num *= scale
            den *= scale
            n *= den // d
        num += n if positive else -n
    return Fraction(num, den)


def oracle_negative_boxes(fn, seed: int, count: int) -> list[tuple[Cuboid, Fraction]]:
    """The seeded boxes of negative volume with their volumes, one grid call and one vertex sum per box."""
    cuboids = oracle_unit_cuboids(seed, fn.dim, count)
    indices = [[tuple(int(c * LATTICE) for c in corner) for corner in (box.a, box.b)] for box in cuboids]
    boxes = [OracleIndexBox(a, b) for a, b in indices]
    grid_fn = oracle_index_box_grid(fn, boxes)
    return [(c, vol) for c, box in zip(cuboids, boxes) if (vol := oracle_lcm_vertex_sum(grid_fn, box)) < 0]


def oracle_df_volumes(df, n_cuboids: int, seed: int) -> Section:
    """The keep-all volumes section of ``check_df_axioms`` from the box-by-box loop."""
    boxes = oracle_negative_boxes(df, seed, n_cuboids)
    witnesses = [{"a": c.a, "b": c.b, "volume": vol} for c, vol in boxes]
    return oracle_section("volumes", "volume_violations", n_cuboids, witnesses)


def oracle_copula_axioms_loop(copula, n_cuboids: int, seed: int, m: int) -> Report:
    """The keep-all copula axioms report from the box-by-box loop and W and M read point by point."""
    boxes = oracle_negative_boxes(copula, seed, n_cuboids)
    violations = [_witness((c.a, c.b), Fraction(0), vol, "d_increasing") for c, vol in boxes]
    axis_levels = oracle_level_axes(copula, m)
    for combo in product(*axis_levels):
        ratios = [s.as_integer_ratio() for s in combo]
        got = copula.code_value([copula.axis_codes(i, (s,))[0] for i, s in enumerate(combo)])
        lower, upper = Fraction(*ratio_lower_bound(ratios)), Fraction(*ratio_min(ratios))
        if got and 0 in combo:
            violations.append(_witness(combo, Fraction(0), got, "grounded"))
        if got < lower:
            violations.append(_witness(combo, lower, got, "fh_lower"))
        if got > upper:
            violations.append(_witness(combo, upper, got, "fh_upper"))
    return _flat_report("copula_axioms", n_cuboids + prod(map(len, axis_levels)), violations)


# -- grid-axis oracles ----------------------------------------------------------------


def oracle_axis_points(m: int, lo, hi, extra=()) -> tuple[Fraction, ...]:
    """k/m points on [lo, hi] as ``lo + k/m * (hi - lo)``, merged with ``extra`` through a set."""
    if lo > hi:
        raise ValidationError(f"grid range [{lo}, {hi}] is empty")
    points = {lo + Fraction(k, m) * (hi - lo) for k in range(m + 1)}
    points.update(extra)
    return tuple(sorted(points))


def oracle_level_axes(copula, m: int) -> list[tuple[Fraction, ...]]:
    """Per-margin levels on [0, 1]: k/m points merged with the margin's critical levels in [0, 1]."""
    axes = []
    for margin in copula.margins:
        levels = [lv for lv in margin.critical_levels() if 0 <= lv <= 1]
        axes.append(oracle_axis_points(m, Fraction(0), Fraction(1), levels))
    return axes


def oracle_df_axes(df, m: int) -> list[tuple[Fraction, ...]]:
    """Per-axis points on the support box merged with the axis breakpoints."""
    lo, hi = df.support_box()
    return [
        oracle_axis_points(m, as_scalar(lo[i]), as_scalar(hi[i]), df.axis_breakpoints(i))
        for i in range(df.dim)
    ]


def oracle_lemma_grids(fn: MonotoneFn, m: int):
    """Level and point grids of the lemma report, merged with the levels and knots of G."""
    xs = fn.knot_xs()
    us = oracle_axis_points(m, fn.inf_value, fn.sup_value, fn.critical_levels())
    return us, oracle_axis_points(m, xs[0] - 1, xs[-1] + 1, xs)


def oracle_sklar_identity(df, m: int) -> Report:
    """F on the merged grid against F on its quantile transform, each margin walked by hand."""
    margins = extract_copula(df).margins
    axes = oracle_df_axes(df, m)
    transformed = [
        [walk_inverse(margin, walk_eval(margin, x), True) for x in axis_pts]
        for margin, axis_pts in zip(margins, axes)
    ]
    violations = []
    points = 0
    for x, y in zip(product(*axes), product(*transformed)):
        expected, got = oracle_eval(df, x), oracle_eval(df, y)
        points += 1
        if got != expected:
            violations.append(_witness(x, expected, got, "identity"))
    return _flat_report("sklar_identity", points, violations)


def oracle_section(name: str, witness_key: str, points: int, witnesses: list, pass_key=None) -> Section:
    """A section that keeps every witness: one violation per witness, the largest ``deviation``."""
    deviation = max((w["deviation"] for w in witnesses if "deviation" in w), default=Fraction(0))
    return Section(name, witness_key, points, len(witnesses), deviation, tuple(witnesses), pass_key)


def _flat_report(check: str, points: int, violations: list) -> Report:
    return Report(check, (oracle_section(check, "violations", points, violations),))


def oracle_capped(report: Report, k: int) -> Report:
    """The keep-all ``report`` with each section's witnesses cut to the first ``k`` (all below 0)."""
    if k < 0:
        return report
    return Report(report.check, tuple(replace(s, witnesses=s.witnesses[:k]) for s in report.sections))


# -- point-wise lemma report oracle ---------------------------------------------------


def oracle_lemma_report(fn: MonotoneFn, us, xs) -> Report:
    """The lemma report computed one point at a time from the knot walks, with no library kernel."""
    us = [walk_level(fn, u) for u in us]
    xs = [as_scalar(x) for x in xs]

    inverses = [walk_inverse(fn, u, False) for u in us]
    violations_a = []
    for u, inv in zip(us, inverses):
        value = walk_eval(fn, inv)
        if value < u:
            violations_a.append({"point": u, "lhs": value, "rhs": u})

    violations_b = []
    ff_witnesses = []
    for x in xs:
        level = walk_eval(fn, x)
        inv = walk_inverse(fn, level, False)
        if inv > x:
            violations_b.append({"point": x, "lhs": inv, "rhs": x})
        lhs = walk_inverse(fn, level, True)
        if not lhs >= x:
            raise AssertionError(f"one-sided bound violated at x={x}: lhs={lhs}")
        if lhs != x:
            ff_witnesses.append({"x": x, "lhs": lhs})

    # section a already holds the inverse at each level
    levels = [(u, at) for u, at in zip(us, inverses) if u != fn.inf_value]
    violations_lc = []
    for u, at in levels:
        limit = walk_left_limit(fn, u)
        if limit != at:
            violations_lc.append({"point": u, "lhs": limit, "rhs": at})

    return Report(
        "lemma",
        (
            oracle_section("a", "violations_a", len(us), violations_a, "pass_a"),
            oracle_section("b", "violations_b", len(xs), violations_b, "pass_b"),
            oracle_section(
                "left_continuity", "violations_leftcont", len(levels), violations_lc, "pass_leftcont"
            ),
            oracle_section("ff", "ff_witnesses", len(xs), ff_witnesses),
        ),
    )


# -- Fraction and pair oracles for the combining hooks ------------------------------


def oracle_product(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def oracle_lower_bound(values) -> Fraction:
    return max(sum(values) - (len(values) - 1), Fraction(0))


def ratio_min(ratios) -> tuple[int, int]:
    """The first least of the pairs, by cross-multiplication: M(s) = min s_i, point by point."""
    it = iter(ratios)
    best_n, best_d = next(it)
    for n, d in it:
        if n * best_d < best_n * d:
            best_n, best_d = n, d
    return best_n, best_d


def ratio_lower_bound(ratios) -> tuple[int, int]:
    """W(s) = max(sum s_i - (d-1), 0) as a pair, summed over the product of the denominators and clipped once."""
    num, den = 0, 1
    for n, d in ratios:
        num = num * d + n * den
        den *= d
    num -= (len(ratios) - 1) * den
    return (num, den) if num > 0 else (0, 1)


# the value each margin-composed family combines its margin values into
ORACLE_COMBINE = {ProductDf: oracle_product, ComonotoneDf: min, CountermonotoneDf: oracle_lower_bound}


def oracle_counting_value(df, ranks) -> Fraction:
    """Fraction(weight of the rows whose coordinate ranks are all <= ``ranks``, denominator)."""
    points, weights, denominator = df._weighted_points()
    axes = [sorted({p[i] for p in points}) for i in range(df.dim)]
    weight = sum(
        w
        for p, w in zip(points, weights)
        if all(bisect_right(bps, c) <= r for bps, c, r in zip(axes, p, ranks))
    )
    return Fraction(weight, denominator)


def oracle_eval(obj, t) -> Fraction:
    """F(t) of a df, or C(t) of a copula, from the oracles alone, one point at a time.

    A counting df is the row scan, a margin-composed df its family's formula
    over ``walk_eval``, and a copula its source's oracle at the knot-walk
    right-limit quantiles of ``t``.
    """
    if isinstance(obj, Copula):
        quantiles = [walk_inverse(m, walk_level(m, s), True) for m, s in zip(obj.margins, t)]
        return oracle_eval(obj.source, quantiles)
    if isinstance(obj, (EmpiricalDf, GridDf)):
        return scan_eval(obj, t)
    return ORACLE_COMBINE[type(obj)]([walk_eval(m, c) for m, c in zip(obj.margins, t)])


# -- point-wise oracles for the copula verifiers ---------------------------------------


def oracle_copula_axioms(copula, n_cuboids: int, seed: int, m: int) -> Report:
    """The copula axioms report from ``oracle_eval`` one point at a time and ``Fraction`` arithmetic."""
    d = copula.dim
    violations = []
    for box in oracle_unit_cuboids(seed, d, n_cuboids):
        vol = naive_vertex_sum(partial(oracle_eval, copula), box)
        if vol < 0:
            violations.append(_witness((box.a, box.b), Fraction(0), vol, "d_increasing"))
    points = n_cuboids
    for combo in product(*oracle_level_axes(copula, m)):
        points += 1
        value = oracle_eval(copula, combo)
        if any(s == 0 for s in combo) and value != 0:
            violations.append(_witness(combo, Fraction(0), value, "grounded"))
        lower = max(sum(combo) - (d - 1), Fraction(0))
        upper = min(combo)
        if value < lower:
            violations.append(_witness(combo, lower, value, "fh_lower"))
        if value > upper:
            violations.append(_witness(combo, upper, value, "fh_upper"))
    return _flat_report("copula_axioms", points, violations)


def oracle_uniform_margins(copula, m: int) -> Report:
    """Every section C(1, .., s, .., 1) against s, from ``oracle_eval`` one point at a time."""
    violations = []
    points = 0
    for i, levels in enumerate(oracle_level_axes(copula, m)):
        for s in levels:
            point = tuple(s if j == i else Fraction(1) for j in range(copula.dim))
            got = oracle_eval(copula, point)
            points += 1
            if got != s:
                violations.append(_witness(point, s, got, f"margin_{i + 1}"))
    return _flat_report("uniform_margins", points, violations)
