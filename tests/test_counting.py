"""Rank-space evaluation of the counting families against the row-scan oracle.

Empirical and grid dfs answer queries from a lazily built rank index: an
integer scan of the rank rows first, then a cumulative table once the rows
scanned reach the table's cell count.  These tests check both paths against
the ``Fraction`` row scan in ``helpers``, that the index never shows in the
value semantics or the payload of a df, and that a job with few evaluations
never builds the table.
"""

import json
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from copulacheck import (
    NEG_INF,
    POS_INF,
    EmpiricalDf,
    GridDf,
    GridSpec,
    MonotoneFn,
    ValidationError,
    check_df_axioms,
    empirical_from_rows,
    extract_copula,
    fmt,
    verify_sklar_identity,
    verify_uniform_margins,
)
from copulacheck import cli
from copulacheck.mvdf import _probe_indices
from copulacheck.serialize import df_to_payload, dumps_payload, load_payload
from helpers import (
    PROBE_POINTS,
    LeftContinuousEmpirical,
    LeftContinuousGrid,
    check_grid_against_points,
    check_index_boxes,
    level_pool,
    oracle_counting_value,
    pointwise_right_continuity,
    scan_axis_breakpoints,
    scan_axis_right_limit,
    scan_eval,
    scan_eval_below,
)

F = Fraction

# a small pool of coordinates, so rows tie often
COORD = st.integers(-3, 3).map(lambda k: F(k, 2))


@st.composite
def empirical_dfs(draw):
    dim = draw(st.integers(1, 3))
    return empirical_from_rows(draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=8)))


def _grid_payload_df(points, masses):
    """A grid df loaded leniently: masses may be zero, negative, or not sum to 1."""
    payload = {
        "family": "grid",
        "dim": len(points[0]),
        "masses": [{"point": [fmt(c) for c in p], "mass": fmt(m)} for p, m in zip(points, masses)],
    }
    return load_payload(json.dumps(payload))


@st.composite
def lenient_grid_dfs(draw):
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=8, unique=True))
    masses = draw(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=6),
            min_size=len(points),
            max_size=len(points),
        )
    )
    return _grid_payload_df(points, masses)


def _query_pool(df, axis):
    """Breakpoints, the points between and beyond them, and both infinities."""
    bps = scan_axis_breakpoints(df, axis)
    between = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    return [NEG_INF, POS_INF, bps[0] - 1, bps[-1] + F(1, 3), *bps, *between]


def _check_against_scan(df, seed):
    rng = random.Random(seed)
    pools = [_query_pool(df, i) for i in range(df.dim)]
    for i in range(df.dim):
        assert df.axis_breakpoints(i) == scan_axis_breakpoints(df, i)

    queries = 0
    while queries == 0 or df._index._table is None:
        t = tuple(rng.choice(pool) for pool in pools)
        value = df.eval(t)
        assert type(value) is Fraction and value == scan_eval(df, t), t
        if queries == 0:
            assert df._index._table is None, "the first query must scan"
        axis = rng.randrange(df.dim)
        assert df.axis_right_limit(t, axis) == scan_axis_right_limit(df, t, axis), (t, axis)
        queries += 1
        # each query scans at least one row, so the table is built within its cell count
        assert queries <= df._index._cells + 1
    for _ in range(20):
        t = tuple(rng.choice(pool) for pool in pools)
        assert df.eval(t) == scan_eval(df, t), t

    top = scan_eval(df, (POS_INF,) * df.dim)
    if top == 0:
        return
    for i in range(df.dim):
        def level(x):
            return scan_eval(df, tuple(x if j == i else POS_INF for j in range(df.dim))) / top

        bps = scan_axis_breakpoints(df, i)
        steps = [F(0)] + [level(x) for x in bps]
        if any(b < a for a, b in zip(steps, steps[1:])):
            # negative masses can make a margin decrease, which no MonotoneFn holds
            with pytest.raises(ValidationError):
                df.margin_fn(i)
            continue
        fn = df.margin_fn(i)
        assert fn.knot_xs() == bps
        assert all(fn.eval(x) == level(x) for x in pools[i][2:])


@settings(max_examples=80, deadline=None)
@given(empirical_dfs(), st.integers(0, 2**32))
def test_empirical_rank_eval_matches_row_scan(df, seed):
    _check_against_scan(df, seed)


@settings(max_examples=80, deadline=None)
@given(lenient_grid_dfs(), st.integers(0, 2**32))
@example(
    _grid_payload_df(
        [(F(0), F(1)), (F(1), F(0)), (F(1), F(1)), (F(2), F(2))],
        [F(0), F(-1, 3), F(2, 3), F(2, 3)],
    ),
    0,
)
@example(_grid_payload_df([(F(0),), (F(1),)], [F(1, 2), F(-1, 2)]), 1)
def test_lenient_grid_rank_eval_matches_mass_scan(df, seed):
    _check_against_scan(df, seed)


@settings(max_examples=60, deadline=None)
@given(st.one_of(empirical_dfs(), lenient_grid_dfs()))
@example(_grid_payload_df([(F(0),), (F(1),)], [F(1, 2), F(-1, 2)]))
def test_code_ratio_is_the_weight_below_the_ranks(df):
    """(weight, denominator) on every rank tuple, on the row scan and then on the table."""
    df = replace(df)
    ranks = list(product(*[range(len(df.axis_breakpoints(i)) + 1) for i in range(df.dim)]))
    # each query scans at least one row, so the table is built within one pass over the cells
    for _ in range(2):
        for r in ranks:
            num, den = df.code_ratio(r)
            assert den > 0 and F(num, den) == oracle_counting_value(df, r), r
    assert df._index._table is not None


@settings(max_examples=80, deadline=None)
@given(st.one_of(empirical_dfs(), lenient_grid_dfs()), st.integers(0, 2**32))
@example(
    _grid_payload_df(
        [(F(0), F(1)), (F(1), F(0)), (F(1), F(1)), (F(2), F(2))],
        [F(0), F(-1, 3), F(2, 3), F(2, 3)],
    ),
    0,
)
@example(_grid_payload_df([(F(0),), (F(1),)], [F(1, 2), F(-1, 2)]), 1)
def test_eval_grid_matches_point_eval(df, seed):
    """Grids, boxes and index boxes equal eval point by point, on both index paths."""
    df = replace(df)  # a fresh rank index, whatever earlier examples did to this object
    rng = random.Random(seed)
    pools = [_query_pool(df, i) for i in range(df.dim)]
    # a fresh index answers by scanning its rows: the table has more cells than rows
    check_index_boxes(df, seed, count=1)
    assert df._index._cells > len(df._index._rows)
    check_grid_against_points(df, rng, pools, rounds=1)
    # each evaluation scans at least one row, so the table comes within its cell count
    while df._index._table is None:
        check_grid_against_points(df, rng, pools, rounds=1)
    check_grid_against_points(df, rng, pools)
    check_index_boxes(df, seed)

    try:
        copula = extract_copula(df)
    except ValidationError:
        return  # a lenient payload whose margins are not cdfs has no copula
    check_grid_against_points(copula, rng, [level_pool(m) for m in copula.margins])
    check_index_boxes(copula, seed)


def test_rank_index_is_invisible(tmp_path):
    """Evaluating a df changes none of ==, hash, repr, the payload, or CLI output."""
    (tmp_path / "data.csv").write_text("0,1/2\n1/4,1\n1/4,1\n3/4,0\n", encoding="utf-8")
    emp_path = tmp_path / "emp.json"
    assert cli.main(["ingest", str(tmp_path / "data.csv"), "-o", str(emp_path)]) == 0
    grid_path = tmp_path / "grid.json"
    grid = _grid_payload_df([(F(0), F(1)), (F(1), F(0)), (F(2), F(2))], [F(1, 4), F(1, 4), F(1, 2)])
    grid_path.write_text(dumps_payload(df_to_payload(grid)), encoding="utf-8")
    for path in (emp_path, grid_path):
        text = path.read_text(encoding="utf-8")
        df, fresh = load_payload(text), load_payload(text)
        before = (repr(df), hash(df), df_to_payload(df))
        verify_sklar_identity(df, GridSpec(4))
        assert df._index._table is not None and fresh._index is None
        assert (repr(df), hash(df), df_to_payload(df)) == before
        assert df == fresh and fresh == df and hash(df) == hash(fresh)
        assert dumps_payload(df_to_payload(df)) == text

        outs = []
        for k in range(2):
            out = tmp_path / f"extract{k}.json"
            assert cli.main(["extract", str(path), "--grid", "4", "-o", str(out)]) == 0
            outs.append(out.read_text(encoding="utf-8"))
        assert outs[0] == outs[1]
        copula = extract_copula(df)
        for entry in json.loads(outs[0])["values"]:
            assert fmt(copula.eval([F(c) for c in entry["s"]])) == entry["value"]


def test_margins_job_on_a_large_3d_dataset_builds_no_table():
    """101^3 table cells dwarf the few hundred evaluations of a margins check."""
    # 37 and 61 are units mod 100, so every axis has 100 distinct values
    rows = [(F(i), F(37 * i % 100), F(61 * i % 100)) for i in range(100)]
    df = empirical_from_rows(rows)
    report = verify_uniform_margins(extract_copula(df), GridSpec(10))
    assert report.sections[0].points == 3 * 101
    assert df._index._cells == 101**3
    assert df._index._table is None


def test_threads_racing_through_the_switch_agree_with_the_scan():
    """Concurrent queries on one fresh df, across the scan-to-table switch."""
    rows = [(F(i % 7), F(i * 3 % 11)) for i in range(40)]
    shared, reference = empirical_from_rows(rows), empirical_from_rows(rows)
    rng = random.Random(3)
    pools = [_query_pool(reference, i) for i in range(2)]
    queries = [tuple(rng.choice(pool) for pool in pools) for _ in range(400)]
    expected = [scan_eval(reference, t) for t in queries]
    results = {}

    def work(k):
        order = list(range(len(queries)))
        random.Random(k).shuffle(order)
        results[k] = all(shared.eval(queries[j]) == expected[j] for j in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == {k: True for k in range(8)}
    assert shared._index._table is not None


def test_right_continuity_evaluates_each_probe_point_once():
    # the probes are a sweep: each axis's breakpoints are coded once at x and once at
    # the right limit, and no probe point goes through eval or axis_right_limit
    calls = []

    class CountedEmpirical(EmpiricalDf):
        def eval(self, t):
            calls.append(("eval", tuple(t)))
            return super().eval(t)

        def axis_right_limit(self, t, axis):
            calls.append(("axis_right_limit", tuple(t)))
            return super().axis_right_limit(t, axis)

        def axis_codes(self, axis, values):
            calls.append(("axis_codes", axis, tuple(values)))
            return super().axis_codes(axis, values)

        def axis_right_codes(self, axis, xs, deltas):
            calls.append(("axis_right_codes", axis, tuple(xs)))
            return super().axis_right_codes(axis, xs, deltas)

    # breakpoints outside [0, 1], so no random box vertex is a probe point
    df = CountedEmpirical(((F(2), F(3)), (F(3), F(5)), (F(5), F(2))))
    report = check_df_axioms(df, n_cuboids=5, seed=0)
    assert report.passed
    bps = (F(2), F(3), F(5))
    probes = set(product(bps, bps))
    assert report.sections[2].points == 2 * len(probes)
    at_breakpoints = [c for c in calls if c[0] == "axis_codes" and set(c[2]) & set(bps)]
    assert at_breakpoints == [("axis_codes", 0, bps), ("axis_codes", 1, bps)]
    assert [c for c in calls if c[0] == "axis_right_codes"] == [
        ("axis_right_codes", 0, bps),
        ("axis_right_codes", 1, bps),
    ]
    assert not [c for c in calls if c[0] == "axis_right_limit"]
    assert not [c for c in calls if c[0] == "eval" and c[1] in probes]


def test_right_limit_off_the_breakpoints_probes_before_the_next_one():
    # F(9/10+) = F(9/10) = 1/3; a shift by half the smallest data gap (1/2) crossed 1
    df = empirical_from_rows([(0,), (1,), (3,)])
    assert df.axis_right_limit((F(9, 10),), 0) == (F(1, 3), F(1, 20))
    assert scan_axis_right_limit(df, (F(9, 10),), 0) == (F(1, 3), F(1, 20))
    assert df.axis_right_limit((F(1),), 0) == (F(2, 3), F(1))
    assert df.axis_right_limit((F(3),), 0) == (F(1), F(1))


@pytest.mark.parametrize(
    "rows, sampled",
    [
        pytest.param(4, False, id="full-grid"),
        pytest.param(16, True, id="sampled"),
    ],
)
@pytest.mark.parametrize("cls", [LeftContinuousEmpirical, LeftContinuousGrid])
@pytest.mark.parametrize("seed", [0, 5])
def test_right_continuity_sweep_matches_the_pointwise_oracle(rows, sampled, cls, seed):
    # one breakpoint per row on axis 1 and fewer on axis 2, so the axes differ in size
    ys = [F(3 * (k % (rows - 1 - rows // 8)) + 1, 7) for k in range(rows)]
    random.Random(seed).shuffle(ys)
    pts = [(F(k, rows), y) for k, y in enumerate(ys)]
    if cls is LeftContinuousGrid:
        df = cls(tuple((p, F(1, rows)) for p in pts))
    else:
        df = cls(tuple(pts))
    sizes = [len(df.axis_breakpoints(i)) for i in range(2)]
    assert (sizes[0] * sizes[1] > PROBE_POINTS) is sampled

    def right_limit(t, axis):
        return scan_axis_right_limit(df, t, axis, scan=scan_eval_below)

    expected = pointwise_right_continuity(df, seed, partial(scan_eval_below, df), right_limit)
    section = check_df_axioms(df, n_cuboids=3, seed=seed).sections[2]
    assert expected and list(section.witnesses) == expected
    assert section.points == 2 * min(sizes[0] * sizes[1], PROBE_POINTS)


@pytest.mark.parametrize("sizes", [(201,), (16, 13), (15, 14), (800, 800), (7, 6, 5)])
@pytest.mark.parametrize("seed", [0, 5])
def test_sampled_probes_are_distinct_and_in_grid_order(sizes, seed):
    probes = _probe_indices(sizes, seed, PROBE_POINTS)
    assert len(probes) == len(set(probes)) == PROBE_POINTS
    assert probes == sorted(probes)
    assert all(0 <= k < size for index in probes for k, size in zip(index, sizes))


def test_a_failing_sampled_probe_yields_one_witness_per_axis():
    # 16 rows give a 16 x 13 breakpoint grid, so the probes are sampled
    ys = [F(3 * (k % 13) + 1, 7) for k in range(16)]
    df = LeftContinuousEmpirical(tuple((F(k, 16), y) for k, y in enumerate(ys)))
    section = check_df_axioms(df, n_cuboids=3, seed=0).sections[2]
    keys = [(w["point"], w["axis"]) for w in section.witnesses]
    assert keys and len(keys) == len(set(keys)) == section.count
    assert section.points == 2 * PROBE_POINTS


COUNTING_TRACED = ("eval", "margin_fn", "axis_breakpoints", "axis_right_limit")
MONOTONE_TRACED = (
    "eval",
    "gen_inverse",
    "gen_inverse_right",
    "gen_inverse_left_limit",
    "critical_levels",
)


@pytest.mark.parametrize(
    "cls, names",
    [
        pytest.param(EmpiricalDf, COUNTING_TRACED, id="EmpiricalDf"),
        pytest.param(GridDf, COUNTING_TRACED, id="GridDf"),
        pytest.param(MonotoneFn, MONOTONE_TRACED, id="MonotoneFn"),
    ],
)
def test_counting_classes_own_the_traced_methods(cls, names):
    # bench/spans.py wraps these by name, reading them from each class's own __dict__
    for name in names:
        assert name in cls.__dict__, name
