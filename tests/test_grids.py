"""``GridSpec`` against the grid oracles in ``helpers``.

The oracles build each axis as a set of ``lo + k/m * (hi - lo)`` points and
sort it, and transform the sklar identity's grid by hand, one margin inverse
per axis point.  ``GridSpec`` builds each point from integers with one sorted
pass, and the identity reads the copula on the margin levels of the grid; both
must give the same tuples and the same reports.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from copulacheck import (
    DomainError,
    GridSpec,
    ValidationError,
    comonotone_df,
    countermonotone_df,
    empirical_from_rows,
    extract_copula,
    grid_df,
    make_monotone,
    product_df,
    verify_sklar_identity,
)
from helpers import (
    composed_dfs,
    monotone_fns,
    oracle_axis_points,
    oracle_df_axes,
    oracle_lemma_grids,
    oracle_level_axes,
    oracle_sklar_identity,
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


@given(st.integers(1, 50), ends, ends, st.booleans(), extras)
@settings(max_examples=300, deadline=None)
def test_axis_points_match_the_set_oracle(m, lo, hi, degenerate, extra):
    lo, hi = (lo, lo) if degenerate else sorted((lo, hi))
    extra = extra + extra[: len(extra) // 2]
    got = GridSpec(m).axis_points(lo, hi, extra)
    want = oracle_axis_points(m, lo, hi, extra)
    assert got == want
    assert [type(p) for p in got] == [type(p) for p in want]


def test_axis_points_keep_both_ends_exactly():
    got = GridSpec(3).axis_points(F(-1, 2), F(2, 3), [F(2, 3), 0, F(-1, 2)])
    assert got == (F(-1, 2), F(-1, 9), 0, F(5, 18), F(2, 3))


def test_axis_points_reject_an_empty_range():
    with pytest.raises(ValidationError, match="empty"):
        GridSpec(4).axis_points(F(1), F(1, 2))


@given(composed_dfs(), st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_levels_match_the_copula_level_axis(df, m):
    copula = extract_copula(df)
    grid = GridSpec(m)
    assert [grid.levels(margin) for margin in copula.margins] == oracle_level_axes(copula, m)


@given(monotone_fns(), st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_lemma_grids_match_the_oracle(fn, m):
    grid = GridSpec(m)
    assert grid.lemma_grids(fn) == oracle_lemma_grids(fn, m)


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


@st.composite
def boxes(draw, dim):
    """None (the support box) or a box on ``coords``, one sorted pair per axis."""
    if draw(st.booleans()):
        return None
    pairs = [sorted(draw(st.tuples(coords, coords))) for _ in range(dim)]
    return tuple(lo for lo, _ in pairs), tuple(hi for _, hi in pairs)


@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sklar_identity_matches_the_hand_transform(family, data):
    df = data.draw(family_dfs(family))
    m = data.draw(st.integers(1, 6))
    box = data.draw(boxes(df.dim))
    assert GridSpec(m).df_axes(df, box) == oracle_df_axes(df, m, box)
    assert verify_sklar_identity(df, GridSpec(m), box) == oracle_sklar_identity(df, m, box)


@pytest.mark.parametrize("family", FAMILIES)
def test_sklar_identity_with_a_box_matches_the_hand_transform(family):
    """One fixed df per family, on its support box and on a box cutting through it."""
    df = {
        "product": lambda: product_df([MARGIN, MARGIN]),
        "comonotone": lambda: comonotone_df([MARGIN, MARGIN]),
        "countermonotone": lambda: countermonotone_df(MARGIN, MARGIN),
        "empirical": lambda: empirical_from_rows([(0, 1), (1, 0), (F(1, 2), F(1, 2)), (1, 1)]),
        "grid": lambda: grid_df([((0, 0), F(1, 4)), ((1, F(1, 2)), F(3, 4))]),
    }[family]()
    for box in (None, ((F(1, 4), -1), (F(3, 4), F(1, 2)))):
        report = verify_sklar_identity(df, GridSpec(5), box)
        assert report == oracle_sklar_identity(df, 5, box)
        assert report.sections[0].points == prod(len(axis) for axis in oracle_df_axes(df, 5, box))


def test_df_axes_check_the_box_dimension():
    df = product_df([MARGIN, MARGIN])
    with pytest.raises(DomainError, match="dimension"):
        GridSpec().df_axes(df, ((0,), (1,)))
