from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from copulacheck import (
    CountermonotoneDf,
    Cuboid,
    DomainError,
    GridDf,
    NEG_INF,
    POS_INF,
    ProductDf,
    SplitMix64,
    ValidationError,
    check_df_axioms,
    comonotone_df,
    countermonotone_df,
    empirical_from_rows,
    extract_copula,
    grid_df,
    make_monotone,
    margin,
    product_df,
    uniform_cdf,
    verify_copula_axioms,
    volume,
)
from copulacheck import mvdf, sklar
from copulacheck.mvdf import random_index_boxes
from helpers import (
    LeftContinuousEmpirical,
    check_index_boxes,
    composed_dfs,
    count_in_box,
    oracle_eval,
    oracle_unit_cuboids,
    pointwise_right_continuity,
    random_rows,
)

F = Fraction


@pytest.fixture
def f_unif2():
    u = uniform_cdf()
    return product_df([u, u])


@pytest.fixture
def emp2():
    return empirical_from_rows([(0, 0), (1, 1)])


# -- points and cuboids ------------------------------------------------------------


def test_cuboid_validation():
    Cuboid((0, 0), (1, 1))
    with pytest.raises(DomainError, match="axis 2"):
        Cuboid((0, 1), (1, 0))
    with pytest.raises(ValidationError):
        Cuboid((0, 0), (1,))
    with pytest.raises(ValidationError):
        Cuboid((), ())


def test_cuboid_allows_infinite_corners(emp2):
    box = Cuboid((NEG_INF, NEG_INF), (POS_INF, POS_INF))
    assert volume(emp2, box) == 1


# -- evaluation ----------------------------------------------------------------------


def test_df_eval_examples(f_unif2, emp2):
    assert f_unif2.eval((F(1, 2), F(1, 2))) == F(1, 4)
    assert f_unif2.eval((POS_INF, F(1, 3))) == F(1, 3)
    assert emp2.eval((F(1, 2), F(1, 2))) == F(1, 2)


def test_df_eval_extended_semantics(f_unif2, emp2):
    for df in (f_unif2, emp2):
        assert df.eval((NEG_INF, F(1, 2))) == 0
        assert df.eval((F(1, 2), NEG_INF)) == 0
        assert df.eval((POS_INF, POS_INF)) == 1


def test_df_eval_dimension_mismatch(f_unif2):
    with pytest.raises(DomainError):
        f_unif2.eval((F(1, 2),))


def _two_dim_subjects():
    u = uniform_cdf()
    cases = {
        "empirical": empirical_from_rows([(0, 0), (1, 1)]),
        "grid": grid_df([((0, 0), F(1, 2)), ((1, 1), F(1, 2))]),
        "product": product_df([u, u]),
        "comonotone": comonotone_df([u, u]),
        "countermonotone": countermonotone_df(u, u),
    }
    cases["copula"] = extract_copula(cases["product"])
    return cases


@pytest.mark.parametrize("name", list(_two_dim_subjects()))
def test_eval_refuses_a_point_with_the_wrong_number_of_coordinates(name):
    obj = _two_dim_subjects()[name]
    for point in [(), (F(1, 2),), (F(1, 2),) * 3, (F(1, 2),) * 4]:
        with pytest.raises(DomainError, match=f"point has {len(point)} coordinates, expected 2"):
            obj.eval(point)
    assert obj.eval((F(1, 2), F(1, 2))) == oracle_eval(obj, (F(1, 2), F(1, 2)))


# -- volume ---------------------------------------------------------------------------


def test_volume_product_square(f_unif2):
    box = Cuboid((F(1, 5), F(1, 5)), (F(3, 5), F(3, 5)))
    # four-vertex expansion: 9/25 - 3/25 - 3/25 + 1/25
    assert volume(f_unif2, box) == F(4, 25)


def test_volume_comonotone_square():
    u = uniform_cdf()
    box = Cuboid((F(1, 5), F(1, 5)), (F(3, 5), F(3, 5)))
    # 3/5 - 1/5 - 1/5 + 1/5
    assert volume(comonotone_df([u, u]), box) == F(2, 5)


def test_volume_countermonotone_square():
    u = uniform_cdf()
    box = Cuboid((F(1, 5), F(1, 5)), (F(3, 5), F(3, 5)))
    # hand expansion: F(3/5,3/5)=1/5 and the other three vertices clamp to 0
    assert volume(countermonotone_df(u, u), box) == F(1, 5)


def test_volume_comonotone_cube():
    u = uniform_cdf()
    box = Cuboid((F(1, 5),) * 3, (F(3, 5),) * 3)
    # eight-vertex expansion of min: 3/5 - 3*(1/5) + 3*(1/5) - 1/5
    assert volume(comonotone_df([u, u, u]), box) == F(2, 5)


def test_volume_d1_is_difference():
    u = uniform_cdf()
    for df in (product_df([u]), empirical_from_rows([(F(1, 4),), (F(3, 4),)])):
        for a, b in [(F(1, 10), F(9, 10)), (F(1, 2), F(1, 2)), (F(0), F(1))]:
            assert volume(df, Cuboid((a,), (b,))) == df.eval((b,)) - df.eval((a,))


def test_volume_dimension_mismatch(f_unif2):
    with pytest.raises(DomainError):
        volume(f_unif2, Cuboid((0,), (1,)))


def test_empirical_volume_equals_box_count():
    rng = SplitMix64(5)
    rows = random_rows(rng, n=25, dim=3)
    df = empirical_from_rows(rows)
    for box in [b.cuboid() for b in random_index_boxes(seed=13, dim=3, count=50)]:
        assert volume(df, box) == F(count_in_box(rows, box.a, box.b), len(rows))


def test_bisection_additivity():
    rng = SplitMix64(9)
    rows = random_rows(rng, n=20, dim=2)
    dfs = [empirical_from_rows(rows), comonotone_df([uniform_cdf(), uniform_cdf()])]
    for df in dfs:
        for box in [b.cuboid() for b in random_index_boxes(seed=3, dim=2, count=25)]:
            for axis in range(2):
                mid = (box.a[axis] + box.b[axis]) / 2
                lower = Cuboid(
                    box.a, tuple(mid if j == axis else c for j, c in enumerate(box.b))
                )
                upper = Cuboid(
                    tuple(mid if j == axis else c for j, c in enumerate(box.a)), box.b
                )
                assert volume(df, box) == volume(df, lower) + volume(df, upper)


# -- margins -------------------------------------------------------------------------


def test_margin_examples(f_unif2, emp2, g_id, g_bern):
    assert margin(f_unif2, 1) == g_id
    assert margin(emp2, 1) == g_bern
    gd = grid_df([((0, 0), F(1, 4)), ((0, 1), F(1, 4)), ((1, 0), F(1, 4)), ((1, 1), F(1, 4))])
    assert margin(gd, 2) == g_bern


def test_margin_index_contract(f_unif2):
    with pytest.raises(DomainError):
        margin(f_unif2, 0)
    with pytest.raises(DomainError):
        margin(f_unif2, 3)


def test_margin_agrees_with_unconstrained_eval(emp2, f_unif2):
    u = uniform_cdf()
    dfs = [emp2, f_unif2, comonotone_df([u, u]), countermonotone_df(u, u)]
    for df in dfs:
        for i in range(df.dim):
            m = df.margin_fn(i)
            for s in [F(-1), F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(2)]:
                point = tuple(s if j == i else POS_INF for j in range(df.dim))
                assert m.eval(s) == df.eval(point) == oracle_eval(df, point)


# -- axiom checker --------------------------------------------------------------------


def test_axioms_pass_for_valid_families(f_unif2, emp2):
    for df in (f_unif2, emp2):
        report = check_df_axioms(df, n_cuboids=100, seed=7)
        assert report.passed
        continuity = report.sections[2]
        assert continuity.name == "right_continuity" and continuity.points > 0


def test_axioms_catch_corrupted_lower_bound_extension():
    """The two-margin lower-bound formula stretched to d=3 loses 2-increase."""
    u = uniform_cdf()
    bad = CountermonotoneDf((u, u, u))
    witness = Cuboid((F(1, 2),) * 3, (F(1),) * 3)
    # brute-force eight-vertex sum: 1 - 3*(1/2) + 3*0 - 0
    assert volume(bad, witness) == F(-1, 2)
    report = check_df_axioms(bad, n_cuboids=100, seed=7)
    assert not report.passed
    negatives = report.sections[0].witnesses
    assert negatives and all(w["volume"] < 0 for w in negatives)


def test_axioms_catch_broken_right_continuity():
    """A left-continuous step function is not a valid margin convention."""

    broken = LeftContinuousEmpirical(((F(0),), (F(1),)))
    report = check_df_axioms(broken, n_cuboids=10, seed=1)
    assert not report.passed
    assert report.sections[2].witnesses == (
        dict(point=(F(0),), axis=1, delta=F(1, 2), value_at=F(0), value_right=F(1, 2)),
        dict(point=(F(1),), axis=1, delta=F(1), value_at=F(1, 2), value_right=F(1)),
    )


def test_axioms_catch_limits_that_are_not_0_and_1():
    """Masses summing to 1/2 miss 1 at (+inf, +inf); a margin from 1/4 misses 0 at -inf."""
    half = GridDf((((0, 0), F(1, 4)), ((1, 1), F(1, 4))))
    lifted = ProductDf((make_monotone([(0, F(1, 4), F(1, 4)), (1, 1, 1)]), uniform_cdf()))
    for df, witnesses in (
        (half, [((POS_INF, POS_INF), F(1, 2), F(1))]),
        (lifted, [((NEG_INF, POS_INF), F(1, 4), F(0)), ((NEG_INF, F(1, 2)), F(1, 8), F(0))]),
    ):
        volumes, limits, continuity = check_df_axioms(df, n_cuboids=60, seed=0).sections
        assert volumes.count == continuity.count == 0
        assert limits.points == 5
        assert limits.witnesses == tuple(
            {"point": point, "value": value, "expected": expected} for point, value, expected in witnesses
        )


COORD = st.integers(-3, 3).map(lambda k: F(k, 2))


@st.composite
def five_family_dfs(draw):
    """An empirical, grid, product, comonotone or countermonotone df on 1-3 axes."""
    kind = draw(st.sampled_from(["empirical", "grid", "composed"]))
    if kind == "composed":
        return draw(composed_dfs())
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=6, unique=True))
    if kind == "empirical":
        return empirical_from_rows(points)
    return GridDf(tuple((p, F(1, len(points))) for p in points))


@settings(max_examples=100, deadline=None)
@given(five_family_dfs(), st.data())
def test_right_limit_is_the_value_everywhere_on_every_family(df, data):
    """Every family is right-continuous: at breakpoints, between, beyond, and at +-inf."""
    pools = []
    for i in range(df.dim):
        bps = df.axis_breakpoints(i)
        between = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
        pools.append([NEG_INF, POS_INF, bps[0] - 1, bps[-1] + F(1, 3), *bps, *between])
    for _ in range(10):
        t = tuple(data.draw(st.sampled_from(pool)) for pool in pools)
        for i in range(df.dim):
            limit, delta = df.axis_right_limit(t, i)
            assert limit == df.eval(t) == oracle_eval(df, t), (t, i)
            assert delta > 0


@pytest.mark.parametrize("build", [product_df, comonotone_df])
def test_right_continuity_sweep_matches_the_pointwise_probes_on_composed_dfs(build):
    # the axes have different knots, so a probe that read another axis's right codes would show
    steps = make_monotone([(0, 0, F(1, 4)), (F(1, 2), F(1, 2), F(1, 2)), (2, F(3, 4), 1)])
    df = build([uniform_cdf(), steps])
    section = check_df_axioms(df, n_cuboids=3, seed=0).sections[2]
    assert list(section.witnesses) == pointwise_right_continuity(df) == []
    assert section.points == 2 * 2 * 3


def test_axioms_reject_bad_count(f_unif2):
    with pytest.raises(ValidationError):
        check_df_axioms(f_unif2, n_cuboids=0, seed=1)


def test_random_cuboids_deterministic_and_sorted():
    a = [box.cuboid() for box in random_index_boxes(seed=42, dim=2, count=10)]
    b = [box.cuboid() for box in random_index_boxes(seed=42, dim=2, count=10)]
    assert a == b
    assert all(box.a[i] <= box.b[i] for box in a for i in range(2))
    assert all(1000 % c.denominator == 0 for box in a for c in box.a + box.b)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_seeded_boxes_match_the_fraction_draw(dim):
    for seed in range(21):
        want = oracle_unit_cuboids(seed, dim, 30)
        index_boxes = random_index_boxes(seed, dim, 30)
        assert all(0 <= k <= 1000 for box in index_boxes for k in box.a + box.b)
        assert [box.cuboid() for box in index_boxes] == want


def test_index_boxes_on_uniform_margins():
    """Every lattice level moves a uniform margin, so each index maps to its own code."""
    u = uniform_cdf()
    dfs = [
        product_df([u, u]),
        product_df([u, u, u]),
        comonotone_df([u, u, u]),
        countermonotone_df(u, u),
        CountermonotoneDf((u, u, u)),
    ]
    for seed in range(3):
        for df in dfs:
            check_index_boxes(df, seed)
            check_index_boxes(extract_copula(df), seed)


def test_box_loops_call_vertex_sum_once_per_box(monkeypatch):
    calls = []
    original = mvdf.vertex_sum

    def counted(grid_fn, box):
        calls.append(box)
        return original(grid_fn, box)

    monkeypatch.setattr(sklar, "vertex_sum", counted)
    u = uniform_cdf()
    verify_copula_axioms(extract_copula(product_df([u, u])), n_cuboids=7, seed=1)
    assert len(calls) == 7
    monkeypatch.setattr(mvdf, "vertex_sum", counted)
    calls.clear()
    check_df_axioms(comonotone_df([u, u, u]), n_cuboids=9, seed=1)
    assert len(calls) == 9


def test_monotone_coordinatewise(f_unif2, emp2):
    pts = [F(k, 4) for k in range(5)]
    for df in (f_unif2, emp2):
        for x in pts:
            for y1, y2 in zip(pts, pts[1:]):
                assert df.eval((x, y1)) <= df.eval((x, y2))
                assert df.eval((y1, x)) <= df.eval((y2, x))
