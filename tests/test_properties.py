"""Invariant checks on randomly generated monotone functions.

Two generators feed these: a hypothesis strategy (shrinking-friendly, small,
in ``helpers``) and the seeded splitmix corpus used by the acceptance suite.  Both build knot
lists that are valid by construction, mixing jumps, flats, and strictly
rising pieces.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from copulacheck import (
    NEG_INF,
    POS_INF,
    MonotoneFn,
    SplitMix64,
    extract_copula,
)
from helpers import (
    assert_matches_scan,
    check_grid_against_points,
    check_index_boxes,
    composed_dfs,
    grid,
    level_pool,
    is_right_increase,
    merged,
    monotone_fns,
    random_monotone,
    walk_critical_levels,
    walk_eval_left,
    walk_inverse,
    walk_left_limit,
    walk_left_probes,
)

F = Fraction


def level_grid(fn, m=8):
    c, d = fn.inf_value, fn.sup_value
    return merged((c + F(k, m) * (d - c) for k in range(m + 1)), fn.critical_levels())


def point_grid(fn, m=8):
    lo, hi = fn.knot_xs()[0] - 1, fn.knot_xs()[-1] + 1
    return merged(grid(lo, hi, m), fn.knot_xs())


@given(monotone_fns())
@settings(max_examples=60, deadline=None)
def test_inverse_composition_bounds(fn):
    for u in level_grid(fn):
        # G(G^{-1}(u)) >= u, with equality forced at the infimum where the
        # inverse is -inf
        value = fn.eval(fn.gen_inverse(u))
        assert value >= u
        if fn.gen_inverse(u) == NEG_INF:
            assert u == fn.inf_value
    for x in point_grid(fn):
        assert fn.gen_inverse(fn.eval(x)) <= x


@given(monotone_fns())
@settings(max_examples=60, deadline=None)
def test_inverse_monotone_and_ordered(fn):
    us = level_grid(fn)
    values = [fn.gen_inverse(u) for u in us]
    assert all(a <= b for a, b in zip(values, values[1:]))
    for u in us:
        assert fn.gen_inverse_right(u) >= fn.gen_inverse(u)


@given(monotone_fns())
@settings(max_examples=60, deadline=None)
def test_inverse_left_continuity(fn):
    for u in level_grid(fn):
        if u == fn.inf_value:
            continue
        assert fn.gen_inverse_left_limit(u) == fn.gen_inverse(u)


@given(monotone_fns())
@settings(max_examples=60, deadline=None)
def test_round_trip_dominates_and_characterized(fn):
    for x in point_grid(fn):
        lhs = fn.gen_inverse_right(fn.eval(x))
        assert lhs >= x
        assert (lhs == x) == is_right_increase(fn, x)


@given(monotone_fns())
@settings(max_examples=25, deadline=None)
def test_closed_form_matches_scan(fn):
    for u in level_grid(fn, m=4):
        assert_matches_scan(fn, u, fn.gen_inverse(u), strict=False, step=F(1, 24))
        assert_matches_scan(fn, u, fn.gen_inverse_right(u), strict=True, step=F(1, 24))


def _same(got, want):
    assert type(got) is type(want) and got == want, (got, want)


def _between(values):
    """The values, the midpoints of neighbours, and one step beyond each end."""
    values = sorted(set(values))
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return merged(values + mids, [values[0] - 1, values[-1] + 1])


def _left_limit_probes(fn, u):
    """The levels at which gen_inverse_left_limit(u) evaluates the inverse."""
    spy, probes = MonotoneFn(fn.knots), []
    object.__setattr__(
        spy, "gen_inverse_many", lambda vs: probes.extend(vs) or fn.gen_inverse_many(vs)
    )
    spy.gen_inverse_left_limit(u)
    return tuple(probes)


@given(monotone_fns())
@settings(max_examples=150, deadline=None)
def test_inverses_equal_the_knot_walk(fn):
    # exact equality, not a bracket: an off-by-one in the level bisect shows here
    _same(fn.critical_levels(), walk_critical_levels(fn))
    c, d = fn.inf_value, fn.sup_value
    knot_levels = [lv for k in fn.knots for lv in (k.left, k.value)]
    for u in merged(level_grid(fn), [u for u in _between(knot_levels) if c <= u <= d]):
        _same(fn.gen_inverse(u), walk_inverse(fn, u, strict=False))
        _same(fn.gen_inverse_right(u), walk_inverse(fn, u, strict=True))
        if u != c:
            _same(fn.gen_inverse_left_limit(u), walk_left_limit(fn, u))
            # the inverse is left-continuous, so only the probes show a window that is off
            assert _left_limit_probes(fn, u) == walk_left_probes(fn, u)
    for x in _between(fn.knot_xs()):
        _same(fn.eval_left(x), walk_eval_left(fn, x))


def test_seeded_corpus_spot_checks():
    rng = SplitMix64(2024)
    for _ in range(40):
        fn = random_monotone(rng)
        for u in level_grid(fn, m=6):
            assert fn.eval(fn.gen_inverse(u)) >= u
            assert fn.gen_inverse_right(u) >= fn.gen_inverse(u)
        for x in point_grid(fn, m=6):
            assert fn.gen_inverse(fn.eval(x)) <= x
            lhs = fn.gen_inverse_right(fn.eval(x))
            assert lhs >= x
            assert (lhs == x) == is_right_increase(fn, x)


@given(composed_dfs(), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_eval_grid_matches_point_eval(df, seed):
    """Grids, boxes and index boxes equal eval point by point, for the df and its copula."""
    rng = random.Random(seed)
    pools = [[NEG_INF, POS_INF, *_between(m.knot_xs())] for m in df.margins]
    check_grid_against_points(df, rng, pools)
    check_index_boxes(df, seed)
    copula = extract_copula(df)
    check_grid_against_points(copula, rng, [level_pool(m) for m in df.margins])
    check_index_boxes(copula, seed)
