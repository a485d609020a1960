"""Integer pairs from the rows to the codes, against the ``Fraction`` paths they replaced.

Every df and copula codes an axis through one pair hook, ``pair_codes``;
``axis_codes`` is that hook on the values' pairs.  These tests compare the
hook with the ``Fraction`` paths as oracles: ``bisect_right`` over the
breakpoints for a counting df, ``walk_eval`` and ``eval_many`` for a
margin-composed df, and, for a copula, the source's ``axis_codes`` at the
``gen_inverse_right_many`` quantiles.  The rank index is compared with the
``Fraction`` build in ``helpers.oracle_rank_index``.  Spies require that the
sweeps, the box batches and the index build take no ``Fraction`` path.
"""

import bisect
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from copulacheck import (
    NEG_INF,
    POS_INF,
    DomainError,
    MonotoneFn,
    ValidationError,
    check_df_axioms,
    comonotone_df,
    empirical_from_rows,
    extract_copula,
    grid_df,
    make_monotone,
    product_df,
    verify_copula_axioms,
    verify_sklar_identity,
    verify_uniform_margins,
)
from copulacheck import families
from copulacheck.families import _RankIndex
from copulacheck.mvdf import negative_boxes
from helpers import (
    composed_dfs,
    level_pool,
    oracle_rank_index,
    scan_axis_breakpoints,
    walk_eval,
)

F = Fraction

COORD = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def counting_dfs(draw):
    """An empirical df, or a grid df whose masses sum to 1, on 1-3 axes with frequent ties."""
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=7))
    if draw(st.booleans()):
        return empirical_from_rows(points)
    points = list(dict.fromkeys(points))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(points), max_size=len(points)))
    return grid_df([(p, F(w, sum(weights))) for p, w in zip(points, weights)])


def _unreduced(pair, k):
    """The pair a/b as (k a, k b); an infinity stays (+-1, 0)."""
    return pair if not pair[1] else (k * pair[0], k * pair[1])


def _pair(value):
    return {NEG_INF: (-1, 0), POS_INF: (1, 0)}.get(value) or value.as_integer_ratio()


def _values(df, axis):
    """Breakpoints, the points between and beyond them, and both infinities."""
    bps = df.axis_breakpoints(axis)
    between = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    return [NEG_INF, bps[0] - 1, *bps, *between, bps[-1] + F(1, 3), POS_INF]


def _check_df_pairs(df, k):
    for axis in range(df.dim):
        values = _values(df, axis)
        for pairs in ([_pair(v) for v in values], [_unreduced(_pair(v), k) for v in values]):
            got = df.pair_codes(axis, pairs)
            if isinstance(df, (families.EmpiricalDf, families.GridDf)):
                want = [bisect_right(scan_axis_breakpoints(df, axis), v) for v in values]
                assert got == want == df.axis_codes(axis, values), (axis, pairs)
            else:
                margin = df.margins[axis]
                want = [walk_eval(margin, v) for v in values]
                assert [F(*c) for c in got] == want == margin.eval_many(values), (axis, pairs)


def _check_copula_pairs(copula, k):
    for axis, margin in enumerate(copula.margins):
        levels = [F(0), F(1), *level_pool(margin, 5)]
        # today's path: the Fraction quantiles, coded by the source's value entry
        want = copula.source.axis_codes(axis, margin.gen_inverse_right_many(levels))
        pairs = [lv.as_integer_ratio() for lv in levels]
        assert copula.pair_codes(axis, pairs) == want, axis
        assert copula.pair_codes(axis, [_unreduced(p, k) for p in pairs]) == want, axis
        assert copula.axis_codes(axis, levels) == want, axis
        assert margin.gen_inverse_right_pairs([(1, 1)]) == [(1, 0)]


@settings(max_examples=80, deadline=None)
@given(st.one_of(counting_dfs(), composed_dfs()), st.integers(2, 6))
@example(empirical_from_rows([(F(1),), (F(1),), (F(-1),)]), 3)
def test_pair_codes_equal_the_fraction_paths_on_every_family_and_its_copula(df, k):
    """Reduced and unreduced pairs, +-inf, levels 0 and 1, flat tops and jumps of the margins."""
    _check_df_pairs(df, k)
    _check_copula_pairs(extract_copula(df), k)


def test_pair_codes_on_flat_tops_and_jumps():
    # a margin with a jump at 0, a flat piece on [1/2, 3/2] and an atom at 2
    jumpy = make_monotone([(0, 0, F(1, 4)), (F(1, 2), F(1, 2), F(1, 2)), (F(3, 2), F(1, 2), F(3, 4)), (2, 1, 1)])
    for df in (product_df([jumpy, jumpy]), comonotone_df([jumpy]), empirical_from_rows([(F(0), F(2))] * 3)):
        _check_df_pairs(df, 7)
        _check_copula_pairs(extract_copula(df), 7)
    # the flat top at 1/2 ends at 3/2, levels up to 1/4 go to the jump at 0, and 7/8 = 14/16
    # crosses the last piece at 7/4, reduced; level 1 is +inf
    levels = [(1, 2), (2, 4), (1, 8), (0, 1), (14, 16), (1, 1)]
    assert jumpy.gen_inverse_right_pairs(levels) == [(3, 2), (3, 2), (0, 1), (0, 1), (7, 4), (1, 0)]


@pytest.mark.parametrize(
    "levels",
    [[F(3, 2)], [F(-1, 2)], [POS_INF], [NEG_INF], [0.5], [F(1, 2), 2, 0.5], [F(1, 2), 0.5, 2], ["1/2"]],
)
def test_copula_axis_codes_raise_as_the_fraction_quantile_did(levels):
    df = empirical_from_rows([(F(0), F(1)), (F(1), F(0))])
    copula = extract_copula(df)
    with pytest.raises(Exception) as want:
        copula.source.axis_codes(0, copula.margins[0].gen_inverse_right_many(levels))
    with pytest.raises(want.type) as got:
        copula.axis_codes(0, levels)
    assert want.type in (DomainError, ValidationError)
    assert str(got.value) == str(want.value)


def test_copula_pair_codes_refuse_levels_outside_the_unit_interval():
    copula = extract_copula(empirical_from_rows([(F(0),), (F(1),)]))
    for pair, text in (((3, 2), "3/2"), ((-2, 4), "-1/2"), ((1, 0), "inf"), ((-1, 0), "-inf")):
        with pytest.raises(DomainError, match=rf"^level {text} outside the range \[0, 1\]$"):
            copula.pair_codes(0, [(1, 2), pair])


HUGE = 10**40

INDEX_CASES = {
    "ties and duplicate rows": [(F(1), F(2)), (F(1), F(2)), (F(1), F(0)), (F(0), F(2))],
    "negative coordinates": [(F(-3, 2), F(-7)), (F(-1, 3), F(0)), (F(-3, 2), F(5, 2))],
    "huge denominators": [(F(1, HUGE + 1),), (F(1, HUGE + 3),), (F(1, HUGE + 1),), (F(-1, HUGE),)],
    "near ties a float cannot tell apart": [(F(HUGE + 1, HUGE), F(1)), (F(HUGE + 2, HUGE + 1), F(1))],
    "d = 1": [(F(2),), (F(1),), (F(2),)],
    "d = 3": [(F(1), F(0), F(1, 2)), (F(0), F(1), F(1, 2)), (F(1), F(1), F(-1, 2)), (F(1), F(0), F(1, 2))],
}


def _check_index(points, weights):
    index = _RankIndex(points, weights, sum(weights))
    axes, keys, rows = oracle_rank_index(points, weights)
    assert index.axes == axes and index.keys == keys and index._rows == rows
    assert all(type(b) is Fraction for bps in index.axes for b in bps)


@pytest.mark.parametrize("name", INDEX_CASES)
def test_rank_index_equals_the_fraction_build(name):
    points = INDEX_CASES[name]
    _check_index(points, [1] * len(points))
    _check_index(points, [k + 2 for k in range(len(points))])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.lists(
            st.tuples(
                st.tuples(*[st.fractions(max_denominator=10**30) | COORD] * dim), st.integers(-3, 5)
            ),
            min_size=1,
            max_size=9,
        )
    )
)
def test_rank_index_equals_the_fraction_build_on_random_rows(rows):
    _check_index([p for p, _ in rows], [w for _, w in rows])


def _forbid(monkeypatch, owner, name, raising=True):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(owner, name, refuse, raising=raising)


def test_rank_index_build_compares_no_fraction_and_never_bisects(monkeypatch):
    points = INDEX_CASES["ties and duplicate rows"] + [(F(-1, 2), F(7, 3))]
    want = oracle_rank_index(points, [1] * len(points))
    _forbid(monkeypatch, bisect, "bisect_right")
    _forbid(monkeypatch, families, "bisect_right", raising=False)
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__"):
        _forbid(monkeypatch, Fraction, name)
    index = _RankIndex(points, [1] * len(points), len(points))
    monkeypatch.undo()
    assert (index.axes, index.keys, index._rows) == want


def test_sweeps_and_box_batches_take_no_fraction_quantile_or_eval(monkeypatch):
    """A copula sweep, a copula box batch and a df box batch call neither Fraction kernel."""
    uniform = make_monotone([(0, 0, 0), (1, 1, 1)])
    dfs = [
        empirical_from_rows([(F(k, 5), F(3 * k % 5, 5)) for k in range(5)]),
        grid_df([((F(0), F(1)), F(1, 2)), ((F(1), F(0)), F(1, 2))]),
        product_df([uniform, make_monotone([(0, 0, F(1, 2)), (1, F(1, 2), 1)])]),
    ]
    _forbid(monkeypatch, MonotoneFn, "gen_inverse_right_many")
    _forbid(monkeypatch, MonotoneFn, "eval_many")
    for df in dfs:
        copula = extract_copula(df)
        reports = [
            verify_sklar_identity(df),
            verify_uniform_margins(copula),
            verify_copula_axioms(copula, n_cuboids=20),
            check_df_axioms(df, n_cuboids=20, seed=0),
        ]
        assert all(section.points for report in reports for section in report.sections)
        # the sources are certified, so the checks skip their boxes: draw the batches here
        assert list(negative_boxes(copula, 0, 20)) == list(negative_boxes(df, 0, 20)) == []
        assert list(copula.eval_grid([[F(0), F(1, 3), F(1)]] * 2))[-1] == 1
        assert copula.eval((F(1), F(1))) == 1
