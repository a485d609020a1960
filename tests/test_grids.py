"""``GridSpec`` against the grid oracles in ``helpers``.

The oracles build each axis as a set of ``lo + k/m * (hi - lo)`` points and
sort it, and transform the sklar identity's grid by hand, one margin inverse
per axis point.  ``GridSpec`` builds each point from integers and places each
breakpoint among them by integer division, and the identity reads the copula
on the margin levels of the grid.  Its axes (``axis_pairs``, ``levels``,
``df_axes``, ``lemma_grids``) are integer pairs, equal to the oracle's points
by value; ``grid_pairs`` pins the pair each point is given as.  ``axis_pairs``
takes its breakpoints as sorted, distinct pairs (``sorted_pairs``), and the
set oracle the raw, unsorted and repeated ones.  The reports
must equal the oracle's.  Both sweeps skip points: the identity's reads are
held to the points where some margin's round trip changes a code, and the
copula sweep's, on a margin-composed df, to the level points where some level
lies in a jump gap of its margin, scanned off the knot list
(``helpers.knot_jump_gaps``); a counting df's ranks never equal a level, so
its sweep reads every level point.
"""

from collections import Counter
from contextlib import ExitStack
from fractions import Fraction
from itertools import product
from math import ceil, floor, prod
from pathlib import Path
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from copulacheck.serialize import dumps_payload, load_payload, monotone_to_payload, report_to_json

from copulacheck import (
    EmpiricalDf,
    GridDf,
    GridSpec,
    ProductDf,
    ValidationError,
    comonotone_df,
    countermonotone_df,
    empirical_from_rows,
    extract_copula,
    grid_df,
    make_monotone,
    product_df,
    sklar,
    uniform_cdf,
    verify_copula_axioms,
    verify_sklar_identity,
    verify_uniform_margins,
)
from helpers import (
    composed_dfs,
    knot_jump_gaps,
    monotone_fns,
    oracle_axis_points,
    oracle_df_axes,
    oracle_lemma_grids,
    oracle_level_axes,
    oracle_capped,
    oracle_copula_axioms_loop,
    oracle_sklar_identity,
    walk_eval,
    walk_inverse,
)

F = Fraction
# a cdf with a jump, a flat piece and a rising piece
MARGIN = make_monotone([(0, 0, F(1, 4)), (F(1, 2), F(1, 2), F(1, 2)), (1, 1, 1)])

ends = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=12)
)
# unsorted, possibly repeated, and reaching outside any [lo, hi] drawn from ``ends``
extras = st.lists(
    st.one_of(st.integers(-8, 8), st.fractions(min_value=-8, max_value=8, max_denominator=12)),
    max_size=12,
)


def values(pairs) -> tuple[Fraction, ...]:
    """Integer pairs with positive denominators, as their values."""
    assert all(type(n) is int and type(d) is int and d > 0 for n, d in pairs)
    return tuple(F(n, d) for n, d in pairs)


def grid_point_pairs(m, lo, hi) -> dict:
    """Each grid point's value and its unreduced pair (a d m + k (c b - a d), b d m), for lo = a/b, hi = c/d."""
    (a, b), (c, d) = F(lo).as_integer_ratio(), F(hi).as_integer_ratio()
    return {lo + F(k, m) * (hi - lo): (a * d * m + k * (c * b - a * d), b * d * m) for k in range(m + 1)}


def sorted_pairs(extra) -> tuple:
    """Breakpoints as ``axis_pairs`` takes them: sorted, distinct, each as its reduced pair."""
    return tuple(p.as_integer_ratio() for p in sorted(set(map(F, extra))))


def grid_pairs(m, lo, hi, extra=()) -> tuple:
    """The set oracle's axis as pairs: a grid point as its unreduced pair, any other point reduced."""
    grid = grid_point_pairs(m, lo, hi)
    return tuple(grid.get(p) or F(p).as_integer_ratio() for p in oracle_axis_points(m, lo, hi, extra))


@given(st.integers(1, 50), ends, ends, st.booleans(), extras)
@settings(max_examples=300, deadline=None)
def test_axis_points_match_the_set_oracle(m, lo, hi, degenerate, extra):
    lo, hi = (lo, lo) if degenerate else sorted((lo, hi))
    extra = extra + extra[: len(extra) // 2]
    got = GridSpec(m).axis_pairs(lo, hi, sorted_pairs(extra))
    want = oracle_axis_points(m, lo, hi, extra)
    assert values(got) == want
    assert got == grid_pairs(m, lo, hi, extra)


def test_axis_points_keep_both_ends_exactly():
    got = GridSpec(3).axis_pairs(F(-1, 2), F(2, 3), sorted_pairs([F(2, 3), 0, F(-1, 2)]))
    assert values(got) == (F(-1, 2), F(-1, 9), 0, F(5, 18), F(2, 3))
    assert got == ((-9, 18), (-2, 18), (0, 1), (5, 18), (12, 18))


def test_axis_points_reject_an_empty_range():
    with pytest.raises(ValidationError, match="empty"):
        GridSpec(4).axis_pairs(F(1), F(1, 2))


# -- integer placement of the breakpoints ---------------------------------------


def assert_placed(m, lo, hi, extra):
    """``axis_pairs`` on the sorted distinct pairs of ``extra`` equals the set oracle on the raw
    ``extra`` by value, and every breakpoint tied with a grid point yields to the grid's own
    unreduced pair while every other one is its reduced pair."""
    got = GridSpec(m).axis_pairs(lo, hi, sorted_pairs(extra))
    want = oracle_axis_points(m, lo, hi, extra)
    assert values(got) == want
    assert got == grid_pairs(m, lo, hi, extra)
    grid = grid_point_pairs(m, lo, hi)
    for p in extra:
        if p in grid:
            assert grid[p] in got, p
        else:  # equal breakpoints give one pair
            assert sum(x == F(p).as_integer_ratio() for x in got) == 1, p
    return got


def test_breakpoints_on_a_grid_point_in_another_form_yield_to_the_grid():
    extra = [F(2, 4), 0, 1, F(0), F(4, 4), F(1, 3)]
    got = assert_placed(2, F(0), F(1), extra)
    assert values(got) == (0, F(1, 3), F(1, 2), 1)
    assert got == ((0, 2), (1, 3), (1, 2), (2, 2))
    assert got[1] == extra[-1].as_integer_ratio()
    # an int range puts int breakpoints on every grid point
    got = assert_placed(4, 0, 2, [0, 1, 2, F(1, 2), F(3, 2), 3, -1])
    assert values(got) == (-1, 0, F(1, 2), 1, F(3, 2), 2, 3)
    assert got == ((-1, 1), (0, 4), (2, 4), (4, 4), (6, 4), (8, 4), (3, 1))


@pytest.mark.parametrize("m", [1, 3, 7])
@pytest.mark.parametrize("q", [1, 2, 7, 11, 21, 10**6 + 3])
def test_breakpoints_one_unit_of_their_denominator_around_the_ends(m, q):
    lo, hi = F(-1, 3), F(5, 7)
    extra = [
        F(floor(end * q) + j, q) for end in (lo, hi) for j in (-1, 0, 1, 2)
    ] + [ceil(hi), floor(lo)]
    assert_placed(m, lo, hi, extra)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_a_one_point_range_places_breakpoints_on_both_sides(m):
    lo = F(2, 3)
    extra = [lo + F(1, 10**9), 5, F(4, 6), 0, lo - F(1, 10**9), -5, 1, lo]
    got = assert_placed(m, lo, lo, extra)
    assert values(got) == (-5, 0, lo - F(1, 10**9), lo, lo + F(1, 10**9), 1, 5)
    assert got[3] == (6 * m, 9 * m) != extra[2].as_integer_ratio() == extra[-1].as_integer_ratio()


@given(
    st.integers(1, 12),
    st.fractions(min_value=-9, max_value=-1, max_denominator=9),
    st.fractions(min_value=0, max_value=8, max_denominator=9),
    st.lists(st.fractions(min_value=-12, max_value=1, max_denominator=18), max_size=10),
)
@settings(max_examples=200, deadline=None)
def test_breakpoints_on_negative_ranges(m, lo, width, extra):
    assert_placed(m, lo, min(lo + width, F(-1, 5)), extra + extra[:2])


def test_a_fine_grid_places_breakpoints_with_huge_denominators():
    m, rng = 1000, Random(19)
    lo, hi = F(-3, 7), F(11, 5)
    extra = []
    for _ in range(60):
        k, q = rng.randrange(-2, m + 3), 10**30 + rng.randrange(1000)
        point = lo + F(k, m) * (hi - lo)
        near = floor(point * q)
        extra += [F(near + j, q) for j in (-1, 0, 1)] + [point]
    got = assert_placed(m, lo, hi, extra)
    assert len(got) > m + 1


def spy(calls: list, name: str):
    """Patch ``Fraction.<name>`` to record each of its calls in ``calls``."""
    method = getattr(F, name)
    return patch.object(F, name, lambda *args: calls.append(name) or method(*args))


def test_the_grid_points_are_never_compared():
    calls = []
    lo, hi = F(-1, 3), F(7, 5)
    one_per_gap = [F(-1), F(0), F(3, 2), F(1, 5) + F(1, 10**12)]
    extra = sorted_pairs(one_per_gap)
    with spy(calls, "__lt__"), spy(calls, "__eq__"):
        # nor is a Fraction built: the module's name would fail on a call
        with patch.object(sklar, "Fraction", None):
            bare = GridSpec(50).axis_pairs(lo, hi)
            placed = GridSpec(50).axis_pairs(lo, hi, extra)
    assert calls == []
    assert values(bare) == oracle_axis_points(50, lo, hi)
    assert values(placed) == oracle_axis_points(50, lo, hi, one_per_gap)
    assert [bare, placed] == [grid_pairs(50, lo, hi), grid_pairs(50, lo, hi, one_per_gap)]


def test_a_monotone_payload_loads_and_grids_without_comparing_or_hashing_a_fraction():
    """Its knots are validated, deduplicated into critical levels and placed as integer pairs."""
    # repeated levels, a jump, a flat piece and knots off the grid
    fn = make_monotone([(F(-2, 3), 0, 0), (0, 0, F(1, 4)), (F(1, 7), F(1, 3), F(1, 2)), (1, F(1, 2), 1)])
    text = dumps_payload(monotone_to_payload(fn))
    calls = []
    with ExitStack() as stack:
        for name in ("__lt__", "__le__", "__gt__", "__eq__", "__hash__"):
            stack.enter_context(spy(calls, name))
        loaded = load_payload(text)
        levels = GridSpec(6).levels(loaded)
        us, xs = GridSpec(6).lemma_grids(loaded)
    assert calls == []
    assert loaded == fn and levels == us
    assert values(levels) == oracle_axis_points(6, F(0), F(1), fn.critical_levels())
    assert (values(us), values(xs)) == oracle_lemma_grids(fn, 6)


@given(composed_dfs(), st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_levels_match_the_copula_level_axis(df, m):
    copula = extract_copula(df)
    grid = GridSpec(m)
    assert [values(grid.levels(margin)) for margin in copula.margins] == oracle_level_axes(copula, m)


@given(monotone_fns(), st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_lemma_grids_match_the_oracle(fn, m):
    grid = GridSpec(m)
    us, xs = grid.lemma_grids(fn)
    assert (values(us), values(xs)) == oracle_lemma_grids(fn, m)


FAMILIES = ("product", "comonotone", "countermonotone", "empirical", "grid")
coords = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def family_dfs(draw, family):
    """A small df of one family: cdf margins for the composed ones, 1-8 rows for the counting ones."""
    dim = draw(st.integers(2 if family == "countermonotone" else 1, 3))
    if family == "product":
        return product_df([draw(monotone_fns(cdf=True)) for _ in range(dim)])
    if family == "comonotone":
        return comonotone_df([draw(monotone_fns(cdf=True)) for _ in range(dim)])
    if family == "countermonotone":
        return countermonotone_df(draw(monotone_fns(cdf=True)), draw(monotone_fns(cdf=True)))
    rows = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=8, unique=True))
    if family == "empirical":
        return empirical_from_rows(rows)
    weights = draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    return grid_df([(row, F(w, sum(weights))) for row, w in zip(rows, weights)])


@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sklar_identity_matches_the_hand_transform(family, data):
    """Every family, under every witness cap: the composed margins mix flats, jumps and rising
    pieces, so on d = 2 and 3 the points whose codes change form ragged regions."""
    df = data.draw(family_dfs(family))
    m = data.draw(st.integers(1, 6))
    k = data.draw(st.sampled_from([-1, 0, 1, 3]))
    assert [values(axis) for axis in GridSpec(m).df_axes(df)] == oracle_df_axes(df, m)
    report = verify_sklar_identity(df, GridSpec(m), max_witnesses=k)
    assert report == oracle_capped(oracle_sklar_identity(df, m), k)


@pytest.mark.parametrize("family", FAMILIES)
def test_sklar_identity_with_a_box_matches_the_hand_transform(family):
    """One fixed df per family, on its support box: the one box the identity is checked on."""
    df = {
        "product": lambda: product_df([MARGIN, MARGIN]),
        "comonotone": lambda: comonotone_df([MARGIN, MARGIN]),
        "countermonotone": lambda: countermonotone_df(MARGIN, MARGIN),
        "empirical": lambda: empirical_from_rows([(0, 1), (1, 0), (F(1, 2), F(1, 2)), (1, 1)]),
        "grid": lambda: grid_df([((0, 0), F(1, 4)), ((1, F(1, 2)), F(3, 4))]),
    }[family]()
    report = verify_sklar_identity(df, GridSpec(5))
    assert report == oracle_sklar_identity(df, 5)
    assert report.sections[0].points == prod(len(axis) for axis in oracle_df_axes(df, 5))


# -- a grid point becomes a Fraction only in a kept witness ----------------------

STEP = make_monotone([(0, 0, F(1, 3)), (1, F(1, 3), F(3, 4)), (2, F(3, 4), 1)])
COUNTED_DFS = {
    "product": lambda: product_df([MARGIN, make_monotone([(0, 0, 0), (2, 1, 1)])]),
    "comonotone-d3": lambda: comonotone_df([MARGIN, STEP, make_monotone([(-1, 0, 0), (1, 1, 1)])]),
    "empirical": lambda: empirical_from_rows(
        [(0, 0), (1, 1), (1, 0), (F(1, 2), 1), (1, 1), (0, F(1, 2))]
    ),
    "product-steps": lambda: product_df([STEP, STEP]),
}
VERIFIERS = {
    "sklar": lambda df, grid: verify_sklar_identity(df, grid, max_witnesses=0),
    "margins": lambda df, grid: verify_uniform_margins(extract_copula(df), grid, max_witnesses=0),
    "copula": lambda df, grid: verify_copula_axioms(extract_copula(df), 20, 0, grid, max_witnesses=0),
}


def fractions_built(run) -> int:
    """How many ``Fraction``s ``run()`` builds, arithmetic results included."""
    count = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    with patch.object(F, "__new__", counting_new):
        run()
    return count


@pytest.mark.parametrize("verifier", VERIFIERS)
@pytest.mark.parametrize("family", COUNTED_DFS)
def test_the_grid_size_adds_no_fraction(family, verifier):
    """With no witness kept, a sweep on 41 points per axis builds as many ``Fraction``s as on 6.

    Each run gets a fresh df, so lazily built indexes and tables count alike.
    """
    check = VERIFIERS[verifier]
    counts = []
    for m in (5, 40):
        df = COUNTED_DFS[family]()
        counts.append(fractions_built(lambda: check(df, GridSpec(m))))
    assert counts[0] == counts[1], counts


# -- the identity reads only the points whose codes change -----------------------


def oracle_code(df, axis: int, x):
    """The value of the code of x on ``axis``: its rank among the breakpoints, or the margin's value."""
    if isinstance(df, (EmpiricalDf, GridDf)):
        return sum(bp <= x for bp in df.axis_breakpoints(axis))
    return walk_eval(df.margins[axis], x)


def oracle_reads(df, m: int) -> Counter:
    """The code values of F and of C at each grid point where some margin's round trip
    Q_i(F_i(x_i)) changes the code of x_i, from the knot walks."""
    margins = extract_copula(df).margins
    pairs = [
        [(oracle_code(df, i, x), oracle_code(df, i, walk_inverse(g, walk_eval(g, x), True))) for x in axis]
        for i, (g, axis) in enumerate(zip(margins, oracle_df_axes(df, m)))
    ]
    reads = Counter()
    for point in product(*pairs):
        f, c = zip(*point)
        if f != c:
            reads.update([f, c])
    return reads


def code_grid_reads(df, run):
    """``run()``, and the code values of each point the ``code_grid`` of ``df``'s class yielded during it, in order."""
    reads = []
    original = type(df).code_grid

    def spy(self, code_axes):
        for codes, value in zip(product(*code_axes), original(self, code_axes)):
            reads.append(tuple(F(*c) if type(c) is tuple else c for c in codes))
            yield value

    with patch.object(type(df), "code_grid", spy):
        return run(), reads


def sweep_reads(df, m: int):
    """The identity's report on ``GridSpec(m)``, and the code values of each point ``code_grid`` yielded to it."""
    report, reads = code_grid_reads(df, lambda: verify_sklar_identity(df, GridSpec(m)))
    return report, Counter(reads)


CONTINUOUS = make_monotone([(-1, 0, 0), (0, F(1, 2), F(1, 2)), (3, 1, 1)])
CONTINUOUS_DFS = {
    "product": lambda: product_df([uniform_cdf(), CONTINUOUS]),
    "comonotone-d3": lambda: comonotone_df([uniform_cdf(), CONTINUOUS, uniform_cdf(-2, 5)]),
    "countermonotone": lambda: countermonotone_df(CONTINUOUS, uniform_cdf()),
}


@pytest.mark.parametrize("family", CONTINUOUS_DFS)
def test_continuous_margins_read_no_point(family):
    """A continuous margin's round trip keeps every code, so no point is read, yet every one is counted."""
    df = CONTINUOUS_DFS[family]()
    report, reads = sweep_reads(df, 7)
    assert reads == oracle_reads(df, 7) == Counter()
    assert report.sections[0].points == prod(len(axis) for axis in oracle_df_axes(df, 7))
    assert report == oracle_sklar_identity(df, 7) and report.passed


# flat at 1/3 up to a jump to 1/2: the round trip's code has the same numerator
ONE_THIRD_TO_HALF = make_monotone([(0, 0, F(1, 3)), (1, F(1, 3), F(1, 2)), (2, 1, 1)])


@pytest.mark.parametrize("margin", [STEP, ONE_THIRD_TO_HALF], ids=["step", "numerators"])
def test_a_step_margin_reads_the_slabs_of_its_changed_indices(margin):
    """Beside a uniform margin, which keeps every code, exactly the slabs of axis 2's changed indices are read."""
    df = ProductDf((uniform_cdf(), margin))
    axes = oracle_df_axes(df, 6)
    level = [walk_eval(margin, x) for x in axes[1]]
    changed = [u for u in level if walk_eval(margin, walk_inverse(margin, u, True)) != u]
    assert 0 < len(changed) < len(axes[1])
    report, reads = sweep_reads(df, 6)
    assert reads == oracle_reads(df, 6)
    assert sum(reads.values()) == 2 * len(axes[0]) * len(changed)
    assert report == oracle_sklar_identity(df, 6) and not report.passed


def test_a_counting_sweep_reads_all_but_the_kept_corner():
    """Each counting margin moves every point but its last breakpoint up a rank, so one point is kept."""
    df = empirical_from_rows([(0, 1), (1, 0), (F(1, 2), F(1, 2)), (1, 1), (F(1, 3), 2)])
    report, reads = sweep_reads(df, 4)
    assert reads == oracle_reads(df, 4)
    assert sum(reads.values()) == 2 * (report.sections[0].points - 1)
    assert report == oracle_sklar_identity(df, 4)


# -- the copula sweep reads only the level points that can fail ------------------------------------


def oracle_level_reads(copula, m: int, changed) -> Counter:
    """The source's code values at each level point where ``changed(G_i, s_i)`` holds on some axis,
    each level coded at its knot-walk quantile Q_i(s_i)."""
    source = copula.source
    axes = [
        [(oracle_code(source, i, walk_inverse(g, s, True)), changed(g, s)) for s in levels]
        for i, (g, levels) in enumerate(zip(copula.margins, oracle_level_axes(copula, m)))
    ]
    reads = Counter()
    for point in product(*axes):
        codes, moved = zip(*point)
        if any(moved):
            reads[codes] += 1
    return reads


def round_trip_moves(g, s) -> bool:
    """Whether the level s of G moves under G(Q(s)), Q(s) = inf {x : G(x) > s}, from the knot walks."""
    return walk_eval(g, walk_inverse(g, s, True)) != s


def copula_sweep_reads(copula, m: int):
    """The copula axioms report on ``GridSpec(m)`` with one box, and the code values the sweep read."""
    report, reads = code_grid_reads(copula.source, lambda: verify_copula_axioms(copula, 1, 0, GridSpec(m)))
    return report, Counter(reads)


@pytest.mark.parametrize("family", CONTINUOUS_DFS)
def test_continuous_margins_read_no_level_point(family):
    """No level lies in a jump gap, so the sweep reads no point, yet every one is counted."""
    copula = extract_copula(CONTINUOUS_DFS[family]())
    report, reads = copula_sweep_reads(copula, 7)
    assert reads == oracle_level_reads(copula, 7, round_trip_moves) == Counter()
    assert report.sections[0].points == 1 + prod(len(axis) for axis in oracle_level_axes(copula, 7))
    assert report == oracle_copula_axioms_loop(copula, 1, 0, 7) and report.passed


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("margin", [STEP, ONE_THIRD_TO_HALF], ids=["step", "numerators"])
def test_a_step_margin_reads_the_level_slabs_of_its_changed_levels(margin, axis):
    """Beside a uniform margin, exactly the slabs of the step margin's levels in a jump gap are read."""
    margins = [uniform_cdf(), uniform_cdf()]
    margins[axis] = margin
    copula = extract_copula(ProductDf(tuple(margins)))
    levels = oracle_level_axes(copula, 6)
    changed = [s for s in levels[axis] if round_trip_moves(margin, s)]
    assert 0 < len(changed) < len(levels[axis])
    report, reads = copula_sweep_reads(copula, 6)
    assert reads == oracle_level_reads(copula, 6, round_trip_moves)
    assert sum(reads.values()) == len(levels[1 - axis]) * len(changed)
    assert report == oracle_copula_axioms_loop(copula, 1, 0, 6) and not report.passed


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def golden_df(name: str):
    return load_payload((GOLDEN_INPUTS / name).read_text(encoding="utf-8"))


def test_an_uncertified_source_of_continuous_margins_reads_no_level_point():
    """The countermonotone df on three uniform margins draws its boxes, but every code is its level.

    The seeded boxes read the same ``code_grid``, so none is drawn while the
    reads are counted; the report, boxes included, is the point-by-point loop's.
    """
    copula = extract_copula(golden_df("counter3.json"))
    assert not copula.source.certainly_d_increasing()
    with patch.object(sklar, "negative_boxes", lambda *args: iter(())):
        _, reads = copula_sweep_reads(copula, 20)
    assert reads == oracle_level_reads(copula, 20, round_trip_moves) == Counter()
    report = verify_copula_axioms(copula, 200, 0, GridSpec(20))
    assert report_to_json(report) == report_to_json(oracle_copula_axioms_loop(copula, 200, 0, 20))


RANK_CODED_SOURCES = {
    # uncertified: a grid df with a negative mass
    "signed": lambda: golden_df("signed.json"),
    # certified, and F(+inf) = 1/4 while its margin is divided by 1/4
    "quarter-mass": lambda: GridDf((((F(0),), F(1, 4)),)),
}


@pytest.mark.parametrize("name", RANK_CODED_SOURCES)
def test_a_source_whose_codes_are_ranks_reads_every_level_point(name):
    """A counting source's codes are ranks, which never equal a level, so it is read at every level point.

    The seeded boxes read the same ``code_grid``, so none is drawn here.
    """
    copula = extract_copula(RANK_CODED_SOURCES[name]())
    with patch.object(sklar, "negative_boxes", lambda *args: iter(())):
        _, reads = copula_sweep_reads(copula, 3)
    assert reads == oracle_level_reads(copula, 3, lambda g, s: True)
    assert sum(reads.values()) == prod(len(axis) for axis in oracle_level_axes(copula, 3))


COUNTING_SOURCES = {
    "empirical": lambda: empirical_from_rows([(0, 1), (1, 0), (F(1, 2), F(1, 2))]),
    "grid": lambda: grid_df([((0, 0), F(1, 2)), ((1, F(1, 3)), F(1, 4)), ((2, 1), F(1, 4))]),
}


@pytest.mark.parametrize("name", COUNTING_SOURCES)
def test_a_counting_df_reads_every_level_point_in_flat_order(name):
    """Its codes are ranks, so no level point is skipped, (1, .., 1) included, and nothing else is read."""
    copula = extract_copula(COUNTING_SOURCES[name]())
    report, reads = code_grid_reads(copula.source, lambda: verify_copula_axioms(copula, 1, 0, GridSpec(3)))
    codes = [
        [oracle_code(copula.source, i, walk_inverse(g, s, True)) for s in levels]
        for i, (g, levels) in enumerate(zip(copula.margins, oracle_level_axes(copula, 3)))
    ]
    assert reads == list(product(*codes))
    assert report == oracle_copula_axioms_loop(copula, 1, 0, 3)


@settings(max_examples=100, deadline=None)
@given(st.lists(monotone_fns(cdf=True), min_size=1, max_size=3), st.integers(1, 5))
def test_a_level_is_read_iff_it_lies_in_a_jump_gap_of_its_margin(margins, m):
    """The changed levels, scanned off the knot list: s is changed iff left <= s < value at some jump."""

    def in_a_gap(g, s) -> bool:
        return any(left <= s < value for left, value in knot_jump_gaps(g))

    copula = extract_copula(ProductDf(tuple(margins)))
    for g, levels in zip(margins, oracle_level_axes(copula, m)):
        assert [in_a_gap(g, s) for s in levels] == [round_trip_moves(g, s) for s in levels]
    _, reads = copula_sweep_reads(copula, m)
    assert reads == oracle_level_reads(copula, m, in_a_gap)
