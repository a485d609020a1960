"""Integer-pair combining hooks and the copula verifiers that compare pairs.

Every family's ``code_ratio`` returns its value as ``(numerator,
denominator)`` with a positive denominator, and the verifiers decide each
comparison by cross-multiplying such pairs.  These tests hold the hooks to
the families' formulas in ``Fraction`` arithmetic (``helpers.ORACLE_COMBINE``),
and the verifiers' reports, witness order included, to oracles that evaluate
``Copula.eval`` one point at a time, on inputs that pass and inputs that fail.
"""

import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from copulacheck import (
    NEG_INF,
    POS_INF,
    ComonotoneDf,
    CountermonotoneDf,
    Cuboid,
    GridSpec,
    ProductDf,
    empirical_from_rows,
    extract_copula,
    fmt,
    make_monotone,
    uniform_cdf,
    verify_copula_axioms,
    verify_sklar_identity,
    verify_uniform_margins,
    vertex_sum,
)
from copulacheck.mvdf import lower_bound_grid, min_grid, product_grid, ratio_lower_bound, ratio_min
from copulacheck.serialize import load_payload
from helpers import (
    ORACLE_COMBINE,
    check_index_boxes,
    composed_dfs,
    oracle_copula_axioms,
    oracle_lower_bound,
    oracle_product,
    oracle_sklar_identity,
    oracle_uniform_margins,
)

F = Fraction


@st.composite
def code_pairs(draw, dim):
    """``dim`` pairs, all on one denominator or each on its own, with values in [-2, 3].

    Numerators are drawn freely, so pairs come unreduced, zero, negative and
    above 1, as margin values of leniently loaded payloads can be.
    """
    common = draw(st.integers(1, 12)) if draw(st.booleans()) else None
    pairs = []
    for _ in range(dim):
        d = common or draw(st.integers(1, 12))
        pairs.append((draw(st.integers(-2 * d, 3 * d)), d))
    return pairs


@st.composite
def family_codes(draw):
    cls = draw(st.sampled_from([ProductDf, ComonotoneDf, CountermonotoneDf]))
    dim = draw(st.integers(2 if cls is CountermonotoneDf else 1, 4))
    return cls((uniform_cdf(),) * dim), draw(code_pairs(dim))


@settings(max_examples=300, deadline=None)
@given(family_codes())
@example((ProductDf((uniform_cdf(),) * 3), [(1, 2), (2, 3), (-3, 4)]))
@example((ComonotoneDf((uniform_cdf(),) * 3), [(2, 4), (1, 3), (1, 2)]))
@example((CountermonotoneDf((uniform_cdf(),) * 2), [(2, 3), (3, 4)]))
@example((CountermonotoneDf((uniform_cdf(),) * 3), [(5, 6), (5, 6), (7, 6)]))
def test_combining_hooks_match_fraction_formulas(case):
    df, pairs = case
    pair = df.code_ratio(pairs)
    want = ORACLE_COMBINE[type(df)]([F(n, d) for n, d in pairs])
    assert pair[1] > 0 and F(*pair) == want
    assert type(df.code_value(pairs)) is F and df.code_value(pairs) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(code_pairs))
def test_ratio_bounds_match_fraction_formulas(pairs):
    values = [F(n, d) for n, d in pairs]
    for pair, want in (
        (ratio_min(pairs), min(values)),
        (ratio_lower_bound(pairs), oracle_lower_bound(values)),
    ):
        assert pair[1] > 0 and F(*pair) == want


@st.composite
def composed_grids(draw):
    """A composed df on 1-3 cdf margins, and 1-4 coordinates per axis: -inf, +inf, 0, 1, knots or others."""
    df = draw(composed_dfs())
    axes = []
    for i in range(df.dim):
        pool = st.sampled_from([NEG_INF, POS_INF, F(0), F(1), *df.axis_breakpoints(i)])
        axes.append(draw(st.lists(pool | st.fractions(-5, 5, max_denominator=12), min_size=1, max_size=4)))
    return df, axes


@settings(max_examples=300, deadline=None)
@given(composed_grids())
def test_composed_code_grid_equals_code_ratio_at_every_point(case):
    df, axes = case
    codes = [df.axis_codes(i, xs) for i, xs in enumerate(axes)]
    got = list(df.code_grid(codes))
    assert all(d > 0 for _, d in got)
    assert [F(*p) for p in got] == [F(*df.code_ratio(c)) for c in itertools.product(*codes)]


# per-axis lists of pairs, unreduced, with 0 and 1 among them, values in [-2, 3]
axis_pair = st.sampled_from([(0, 1), (1, 1), (0, 7), (4, 4)]) | code_pairs(1).map(lambda pairs: pairs[0])
pair_axes = st.lists(st.lists(axis_pair, min_size=1, max_size=4), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(pair_axes)
def test_bound_grids_equal_the_pointwise_bounds(axes):
    """W by the fold of sums, clipped once, and M by the fold of minima, at every point of the grid."""
    points = list(itertools.product(*axes))
    lower = list(lower_bound_grid(axes))
    assert all(d > 0 for _, d in lower)
    assert [F(*p) for p in lower] == [F(*ratio_lower_bound(p)) for p in points]
    assert list(min_grid(axes)) == [ratio_min(p) for p in points]  # the first least pair, as written
    assert [F(*p) for p in product_grid(axes)] == [oracle_product([F(*q) for q in p]) for p in points]


def test_a_grid_of_a_million_points_yields_its_first_pair_without_building_the_grid():
    axis = [(k, 1000) for k in range(1000)]
    margins = (uniform_cdf(), uniform_cdf())
    grids = [cls(margins).code_grid for cls in (ProductDf, ComonotoneDf, CountermonotoneDf)]
    tracemalloc.start()
    try:
        firsts = [next(grid([axis, axis])) for grid in (*grids, lower_bound_grid, min_grid)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert firsts == [(0, 10**6), (0, 1000), (0, 1), (0, 1), (0, 1000)]
    assert peak < 2**20  # a built grid holds 10**6 pairs, some 100 MiB


def test_vertex_sum_adds_pairs_over_their_lcm():
    """Pairs on changing denominators, and on repeated ones, cross-multiplied into one pair."""
    box = Cuboid((0, 0), (1, 1))
    terms = [(1, 2), (1, 3), (1, 4), (5, 6)]  # signs +, -, -, +
    assert vertex_sum(lambda axes: iter(terms), box) == F(1, 2) - F(1, 3) - F(1, 4) + F(5, 6)
    terms = [(3, 6), (0, 1), (2, 6), (1, 3)]
    assert vertex_sum(lambda axes: iter(terms), box) == F(1, 2) - F(1, 3) + F(1, 3)


# -- the copula verifiers against point-wise oracles ---------------------------------


def _grid_payload(points, masses):
    """A grid df loaded leniently, so masses may be negative."""
    payload = {
        "family": "grid",
        "dim": len(points[0]),
        "masses": [{"point": [fmt(F(c)) for c in p], "mass": fmt(m)} for p, m in zip(points, masses)],
    }
    return load_payload(json.dumps(payload))


U = uniform_cdf()
FLAT = make_monotone([(0, 0, 0), (F(1, 2), F(1, 2), F(1, 2)), (F(3, 2), F(1, 2), F(1, 2)), (2, 1, 1)])
BERN = make_monotone([(0, 0, F(1, 2)), (1, F(1, 2), 1)])
JUMPY = make_monotone([(0, 0, F(1, 3)), (1, F(2, 3), F(2, 3)), (2, 1, 1)])
SQUARE = [(i, j) for i in range(3) for j in range(3)]

# each input with the witness kinds its copula shows over seeds 0-2, so every
# comparison below meets failures as well as passes
CASES = {
    # W is not a copula in three dimensions: some boxes have negative volume
    "countermonotone-3-uniform": (CountermonotoneDf((U, U, U)), {"d_increasing"}),
    # total 1 and monotone margins, yet one cell of the level grid has volume -1/1000
    "grid-negative-cell": (
        _grid_payload(SQUARE, [F(-1, 1000) if p == (1, 1) else F(1001, 8000) for p in SQUARE]),
        {"d_increasing", "grounded", "fh_upper"},
    ),
    # F(0, 0) = -1/10, so C takes negative values, below the lower bound 0
    "grid-negative-value": (
        _grid_payload([(0, 0), (0, 1), (1, 0), (1, 1)], [F(-1, 10), F(3, 10), F(3, 10), F(1, 2)]),
        {"grounded", "fh_lower", "fh_upper"},
    ),
    "product-flat-jump": (ProductDf((FLAT, BERN)), {"grounded", "fh_upper"}),
    "comonotone-flat-jump-uniform": (ComonotoneDf((FLAT, JUMPY, U)), {"grounded", "fh_upper"}),
    "countermonotone-jump-flat": (CountermonotoneDf((JUMPY, FLAT)), {"grounded", "fh_upper"}),
    "empirical-tied": (
        empirical_from_rows([(0, 0), (0, 1), (1, 1), (1, 1), (2, 0), (2, 2), (F(1, 2), 1)]),
        {"grounded", "fh_upper"},
    ),
}


def _assert_verifiers_match(df, seed, m, n_cuboids):
    copula = extract_copula(df)
    grid = GridSpec(m)
    got = verify_copula_axioms(copula, n_cuboids=n_cuboids, seed=seed, grid=grid)
    assert got == oracle_copula_axioms(copula, n_cuboids, seed, m)
    assert verify_uniform_margins(copula, grid=grid) == oracle_uniform_margins(copula, m)
    assert verify_sklar_identity(df, grid=grid) == oracle_sklar_identity(df, m)
    check_index_boxes(df, seed)
    check_index_boxes(copula, seed)
    return got


@pytest.mark.parametrize("name", list(CASES))
def test_verifiers_match_pointwise_oracles(name):
    df, want = CASES[name]
    kinds = set()
    for seed in range(3):
        report = _assert_verifiers_match(df, seed, m=6, n_cuboids=120)
        kinds.update(w["kind"] for w in report.violations)
    assert kinds == want


@settings(max_examples=30, deadline=None)
@given(composed_dfs(), st.integers(0, 2**16))
def test_verifiers_match_pointwise_oracles_on_random_dfs(df, seed):
    _assert_verifiers_match(df, seed, m=4, n_cuboids=20)
