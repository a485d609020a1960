from fractions import Fraction

import pytest

from copulacheck import (
    GridDf,
    GridMass,
    ValidationError,
    check_df_axioms,
    comonotone_df,
    countermonotone_df,
    empirical_from_rows,
    grid_df,
    make_monotone,
    product_df,
    uniform_cdf,
)
from helpers import grid

F = Fraction


def test_empirical_examples(g_bern):
    df = empirical_from_rows([(0, 0), (1, 1)])
    assert df.eval((F(1, 2), F(1, 2))) == F(1, 2)
    single = empirical_from_rows([(0,)])
    assert single.margin_fn(0) == make_monotone([(0, 0, 1)])
    dup = empirical_from_rows([(0, 0), (0, 0)])
    assert dup.eval((0, 0)) == 1


def test_empirical_rejects_bad_rows():
    with pytest.raises(ValidationError):
        empirical_from_rows([])
    with pytest.raises(ValidationError, match="row 2"):
        empirical_from_rows([(0, 0), (1,)])


def test_product_examples(g_id, g_bern):
    assert product_df([g_id, g_id]).eval((F(1, 2), F(1, 2))) == F(1, 4)
    assert product_df([g_bern, g_bern]).eval((F(1, 2), F(1, 2))) == F(1, 4)
    unary = product_df([g_id])
    for x in grid(0, 1, 8):
        assert unary.eval((x,)) == x  # g_id is the identity on [0, 1]


def test_product_rejects_non_cdf_margin():
    half = make_monotone([(0, 0, 0), (1, F(1, 2), F(1, 2))])
    with pytest.raises(ValidationError, match="margin 2"):
        product_df([uniform_cdf(), half])


def test_comonotone_examples(g_id, g_bern):
    como = comonotone_df([g_id, g_id])
    assert como.eval((F(3, 10), F(7, 10))) == F(3, 10)
    assert comonotone_df([g_bern, g_bern]).eval((F(1, 2), F(1, 2))) == F(1, 2)


def test_countermonotone_examples(g_id):
    ctr = countermonotone_df(g_id, g_id)
    assert ctr.eval((F(7, 10), F(7, 10))) == F(2, 5)
    assert ctr.eval((F(3, 10), F(3, 10))) == 0


def test_countermonotone_only_two_margins(g_id):
    with pytest.raises(TypeError):
        countermonotone_df(g_id, g_id, g_id)  # type: ignore[call-arg]
    with pytest.raises(ValidationError):
        from copulacheck import CountermonotoneDf

        CountermonotoneDf((g_id,))


def test_grid_examples(g_bern):
    gd = grid_df([((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
    emp = empirical_from_rows([(0, 0), (1, 1)])
    for x in grid(-1, 2, 12):
        for y in grid(-1, 2, 12):
            assert gd.eval((x, y)) == emp.eval((x, y))
    anti = grid_df([((0, 1), F(1, 2)), ((1, 0), F(1, 2))])
    assert anti.eval((F(1, 2), F(1, 2))) == 0
    point = grid_df([((0, 0), F(1))])
    assert point.eval((0, 0)) == 1


def test_grid_rejects_bad_masses():
    with pytest.raises(ValidationError, match="negative"):
        grid_df([((0,), F(3, 2)), ((1,), F(-1, 2))])
    with pytest.raises(ValidationError, match="sum"):
        grid_df([((0,), F(1, 4)), ((1,), F(1, 4))])
    with pytest.raises(ValidationError, match="duplicate"):
        grid_df([((0, 0), F(1, 2)), ((0, 0), F(1, 2))])
    # a point with no coordinate would make a df of dimension 0
    with pytest.raises(ValidationError, match="mass 1: empty point"):
        grid_df([((), 1)])
    with pytest.raises(ValidationError, match="mass 1: empty point"):
        GridDf((((), F(1)),))


def test_grid_duplicate_check_names_the_first_repeat_by_value():
    """Points that share coordinates are distinct; a repeat in another form is the first duplicate."""
    masses = [((0, 0), F(1, 4)), ((0, 1), F(1, 4)), ((F(1, 2), 1), F(1, 4)), ((1, 0), F(1, 4))]
    assert len(GridDf(tuple(masses)).masses) == 4
    with pytest.raises(ValidationError) as info:
        GridDf(tuple(masses + [((F(2, 4), F(3, 3)), 0), ((0, 0), 0)]))
    assert str(info.value) == f"mass 5: duplicate support point {(F(1, 2), F(1))}"


def test_gridmass_invariants():
    gm = GridMass(point=(F(1, 2),), mass=F(1, 3))
    assert gm.mass == F(1, 3) and gm.point == (F(1, 2),)


def test_every_family_passes_axioms(g_id, g_bern, g_flat):
    families = [
        empirical_from_rows([(0, 0), (1, 1), (F(1, 2), F(1, 4))]),
        product_df([g_id, g_flat]),
        comonotone_df([g_bern, g_id, g_flat]),
        countermonotone_df(g_id, g_flat),
        grid_df([((0, 0), F(1, 3)), ((1, 0), F(1, 3)), ((1, 1), F(1, 3))]),
    ]
    for seed in (1, 7):
        for df in families:
            assert check_df_axioms(df, n_cuboids=60, seed=seed).passed


def test_margins_are_stored_exactly(g_id, g_bern, g_flat):
    assert product_df([g_id, g_bern]).margin_fn(1) == g_bern
    assert comonotone_df([g_flat, g_id]).margin_fn(0) == g_flat
    assert countermonotone_df(g_id, g_flat).margin_fn(1) == g_flat
