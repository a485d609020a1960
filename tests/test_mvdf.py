import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from copulacheck import (
    CountermonotoneDf,
    Cuboid,
    DomainError,
    GridDf,
    GridMass,
    GridSpec,
    NEG_INF,
    POS_INF,
    ProductDf,
    Report,
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
from copulacheck import mvdf
from copulacheck.mvdf import unit_box_columns
from helpers import (
    LeftContinuousEmpirical,
    LeftContinuousGrid,
    check_index_boxes,
    count_in_box,
    five_family_dfs,
    oracle_capped,
    oracle_copula_axioms_loop,
    oracle_df_volumes,
    oracle_eval,
    oracle_right_continuity,
    oracle_right_limit,
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
    for box in oracle_unit_cuboids(seed=13, dim=3, count=50):
        assert volume(df, box) == F(count_in_box(rows, box.a, box.b), len(rows))


def test_bisection_additivity():
    rng = SplitMix64(9)
    rows = random_rows(rng, n=20, dim=2)
    dfs = [empirical_from_rows(rows), comonotone_df([uniform_cdf(), uniform_cdf()])]
    for df in dfs:
        for box in oracle_unit_cuboids(seed=3, dim=2, count=25):
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
    """A left-continuous step function is not a valid margin convention.

    The verifier refuses the df, which is none of the five families; the
    probe sweep oracle shows what it would have found.
    """

    broken = LeftContinuousEmpirical(((F(0),), (F(1),)))
    with pytest.raises(ValidationError, match="LeftContinuousEmpirical is not one of the five df families"):
        check_df_axioms(broken, n_cuboids=10, seed=1)
    assert oracle_right_continuity(broken).witnesses == (
        dict(point=(F(0),), axis=1, delta=F(1, 2), value_at=F(0), value_right=F(1, 2)),
        dict(point=(F(1),), axis=1, delta=F(1), value_at=F(1, 2), value_right=F(1)),
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: LeftContinuousEmpirical(((F(0), F(1)), (F(1), F(0)))),
        lambda: LeftContinuousGrid((((F(0),), F(1, 2)), ((F(1),), F(1, 2)))),
        lambda: type("SubProduct", (ProductDf,), {})((uniform_cdf(),)),
    ],
    ids=["left-continuous-empirical", "left-continuous-grid", "product-subclass"],
)
def test_axioms_refuse_a_df_outside_the_five_families_before_any_work(build, monkeypatch):
    # refused before a box is drawn or the df is read
    df = build()
    for name in ("pair_codes", "axis_breakpoints", "code_ratio", "code_grid"):
        monkeypatch.setattr(type(df), name, lambda *args: pytest.fail("the df was read"))
    with pytest.raises(ValidationError, match="is not one of the five df families"):
        check_df_axioms(df, n_cuboids=10, seed=0)


def test_right_limit_refuses_a_df_outside_the_five_families_and_an_axis_out_of_range():
    # the left-continuous df is 0 at 0 with the right limit 1/2, so eval(t) would be wrong
    with pytest.raises(ValidationError, match="LeftContinuousEmpirical is not one of the five df families"):
        LeftContinuousEmpirical(((F(0),), (F(1),))).axis_right_limit((F(0),), 0)
    df = empirical_from_rows([(0, 0), (1, 1)])
    for axis in (-1, 2):
        with pytest.raises(DomainError, match=rf"axis {axis} out of range 0\.\.1"):
            df.axis_right_limit((F(0), F(0)), axis)


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
            limit = df.axis_right_limit(t, i)
            assert limit == df.eval(t) == oracle_eval(df, t) == oracle_right_limit(df, t, i)[0], (t, i)


@settings(max_examples=100, deadline=None)
@given(five_family_dfs(), st.integers(0, 2**32))
# a 6 x 6 x 6 breakpoint grid: more points than PROBE_POINTS
@example(empirical_from_rows([(k, -k, 2 * k) for k in range(6)]), 0)
def test_the_right_continuity_certificate_holds_on_every_family(df, seed):
    """The probe sweep oracles find no violation on any family, lenient or not, and the section is theirs."""
    section = check_df_axioms(df, n_cuboids=3, seed=seed).sections[2]
    assert section == oracle_right_continuity(df)
    assert section.count == 0 and pointwise_right_continuity(df) == []


@pytest.mark.parametrize("build", [product_df, comonotone_df])
def test_right_continuity_sweep_matches_the_pointwise_probes_on_composed_dfs(build):
    # the axes have different knots, so a probe that read another axis's right codes would show
    steps = make_monotone([(0, 0, F(1, 4)), (F(1, 2), F(1, 2), F(1, 2)), (2, F(3, 4), 1)])
    df = build([uniform_cdf(), steps])
    section = check_df_axioms(df, n_cuboids=3, seed=0).sections[2]
    assert section == oracle_right_continuity(df)
    assert list(section.witnesses) == pointwise_right_continuity(df) == []
    assert section.points == 2 * 2 * 3


def test_axioms_reject_bad_count(f_unif2):
    with pytest.raises(ValidationError):
        check_df_axioms(f_unif2, n_cuboids=0, seed=1)


def test_random_cuboids_deterministic_and_sorted():
    a = unit_box_columns(seed=42, dim=2, count=10)
    assert a == unit_box_columns(seed=42, dim=2, count=10)
    lower, upper = a
    assert all(len(col) == 10 for col in lower + upper)
    assert all(lo <= hi for los, his in zip(lower, upper) for lo, hi in zip(los, his))
    assert all(0 <= k <= 1000 for col in lower + upper for k in col)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_seeded_boxes_match_the_fraction_draw(dim):
    for seed in range(21):
        lower, upper = unit_box_columns(seed, dim, 30)
        corners = zip(zip(*lower), zip(*upper))
        got = [Cuboid(tuple(F(k, 1000) for k in a), tuple(F(k, 1000) for k in b)) for a, b in corners]
        assert got == oracle_unit_cuboids(seed, dim, 30)


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


def test_box_sweep_codes_each_axis_once_and_reads_each_vertex_once():
    """One ``pair_codes`` call per axis and one ``code_grid`` call per box; no point read."""
    u = uniform_cdf()
    for df, n in ((comonotone_df([u, u, u]), 9), (product_df([u, u]), 7)):
        calls = {"pair_codes": 0, "code_ratio": 0, "code_grid": 0}
        for name in calls:

            def counted(*args, name=name, original=getattr(df, name)):
                calls[name] += 1
                return original(*args)

            object.__setattr__(df, name, counted)
        assert len(list(mvdf.box_volumes(df, *unit_box_columns(1, df.dim, n)))) == n
        assert calls == {"pair_codes": df.dim, "code_ratio": 0, "code_grid": n}


def test_below_many_draws_the_splitmix64_stream():
    """Against the algorithm as published (Steele, Lea & Flood), one 64-bit output at a time."""
    mask = (1 << 64) - 1

    def outputs(seed, count):
        state, out = seed & mask, []
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    for seed in (0, 1, 13, 2**64 - 1, -5):
        rng, want = SplitMix64(seed), outputs(seed, 43)
        assert rng.below_many(1001, 40) == [z % 1001 for z in want[:40]]
        assert [rng.below(7) for _ in range(3)] == [z % 7 for z in want[40:]]  # the state moved on


def _box_subjects() -> dict:
    """The five families, and two lenient dfs with negative boxes inside [0, 1]^d."""
    u = uniform_cdf()
    steps = make_monotone([(0, 0, F(1, 4)), (F(1, 2), F(1, 2), F(1, 2)), (1, F(3, 4), 1)])
    quarters = (F(1, 4), F(1, 2), F(3, 4))
    centre = (F(1, 2), F(1, 2))
    points = itertools.product(quarters, repeat=2)
    negative_mass = [GridMass(p, F(-1, 10) if p == centre else F(11, 80)) for p in points]
    return {
        "empirical": empirical_from_rows(random_rows(SplitMix64(11), n=12, dim=2)),
        "grid": grid_df([((F(1, 3), F(2, 3)), F(1, 2)), ((F(2, 3), F(1, 5)), F(1, 4)), ((1, 1), F(1, 4))]),
        "product": product_df([u, steps]),
        "comonotone": comonotone_df([steps, u, u]),
        "countermonotone": countermonotone_df(steps, u),
        "countermonotone d=3": CountermonotoneDf((u, u, u)),
        "grid with a negative mass": GridDf(tuple(negative_mass)),
    }


BOX_SUBJECTS = _box_subjects()
LENIENT = ("countermonotone d=3", "grid with a negative mass")


@pytest.mark.parametrize("max_witnesses", [-1, 0, 1, 3])
@pytest.mark.parametrize("name", list(BOX_SUBJECTS))
def test_box_volumes_match_the_box_by_box_loop(name, max_witnesses):
    """Same count, largest deviation and kept witnesses as one grid call and one ``vertex_sum`` per box."""
    df = BOX_SUBJECTS[name]
    copula = extract_copula(df)
    for seed in (0, 7):
        want = oracle_df_volumes(df, 200, seed)
        got = check_df_axioms(df, 200, seed, max_witnesses).sections[0]
        assert got == oracle_capped(Report("df_axioms", (want,)), max_witnesses).sections[0]
        assert want.count > 0 or name not in LENIENT
        want = oracle_copula_axioms_loop(copula, 200, seed, 4)
        got = verify_copula_axioms(copula, 200, seed, GridSpec(4), max_witnesses)
        assert got == oracle_capped(want, max_witnesses)
        assert any(w["kind"] == "d_increasing" for w in want.violations) or name not in LENIENT


def test_monotone_coordinatewise(f_unif2, emp2):
    pts = [F(k, 4) for k in range(5)]
    for df in (f_unif2, emp2):
        for x in pts:
            for y1, y2 in zip(pts, pts[1:]):
                assert df.eval((x, y1)) <= df.eval((x, y2))
                assert df.eval((y1, x)) <= df.eval((y2, x))
