"""Rank-space evaluation of the counting families against the row-scan oracle.

Empirical and grid dfs answer queries from a lazily built rank index: an
integer scan of the rank rows first, then a cumulative table once the rows
scanned reach the table's cell count.  A whole grid (``code_grid``) charges
its points x rows to that budget at once and, past it, reads the table by
strides.  These tests check every path, point-wise and whole-grid, against
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
from math import prod

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
from copulacheck.families import _RankIndex
from copulacheck.mvdf import MultivariateDf
from copulacheck.serialize import df_to_payload, dumps_payload, load_payload
from helpers import (
    PROBE_POINTS,
    LeftContinuousEmpirical,
    LeftContinuousGrid,
    check_grid_against_points,
    check_index_boxes,
    level_pool,
    oracle_counting_value,
    oracle_eval,
    oracle_probe_points,
    oracle_right_continuity,
    oracle_sklar_identity,
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
        assert df.axis_right_limit(t, axis) == scan_axis_right_limit(df, t, axis)[0], (t, axis)
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


def _random_rank_axes(df, rng, max_len=3):
    """Per-axis rank lists, possibly empty, from the ranks of the query pool (-inf and +inf too)."""
    return [
        df.axis_codes(i, rng.sample(pool, rng.randint(0, min(max_len, len(pool)))))
        for i, pool in enumerate(_query_pool(df, i) for i in range(df.dim))
    ]


def _check_code_grid(df, rank_axes):
    """``code_grid`` pairs against ``code_ratio`` and the oracle at each point, in product order."""
    got = list(df.code_grid(rank_axes))
    points = list(product(*rank_axes))
    assert [F(*pair) for pair in got] == [oracle_counting_value(df, r) for r in points], rank_axes
    return got, points


@settings(max_examples=80, deadline=None)
@given(st.one_of(empirical_dfs(), lenient_grid_dfs()), st.integers(0, 2**32))
@example(empirical_from_rows([(F(1),), (F(1),), (F(-1),)]), 0)
@example(
    _grid_payload_df(
        [(F(0), F(1)), (F(1), F(0)), (F(1), F(1)), (F(2), F(2))],
        [F(0), F(-1, 3), F(2, 3), F(2, 3)],
    ),
    1,
)
def test_code_grid_matches_code_ratio_on_every_index_path(df, seed):
    """The scan path, the call that builds the table, and table reads all equal the point values."""
    df = replace(df)
    rng = random.Random(seed)
    inf_ranks = [df.axis_codes(i, [NEG_INF, POS_INF]) for i in range(df.dim)]
    assert all(ranks == [0, len(df.axis_breakpoints(i))] for i, ranks in enumerate(inf_ranks))
    index = df._rank_index()
    rows, cells = len(index._rows), index._cells

    # scan path: the call's points x rows stay under the cells, and no table is built
    rank_axes = _random_rank_axes(df, rng)
    if prod(map(len, rank_axes)) * rows >= cells:
        rank_axes = [[rng.choice(ranks)] for ranks in inf_ranks]
    got, points = _check_code_grid(df, rank_axes)
    assert index._table is None and index._scanned == len(points) * rows
    assert list(df.code_grid([*rank_axes[:-1], []])) == []
    assert index._scanned == len(points) * rows

    # one call whose charge reaches the cells builds the table, and reads every rank from it
    all_ranks = [list(range(len(df.axis_breakpoints(i)) + 1)) for i in range(df.dim)]
    for ranks in all_ranks:
        rng.shuffle(ranks)
    _check_code_grid(df, all_ranks)
    assert index._table is not None
    assert got == [df.code_ratio(r) for r in points]

    # table path: later calls read the table, -inf and +inf ranks included
    for _ in range(3):
        rank_axes = _random_rank_axes(df, rng)
        got, points = _check_code_grid(df, [[*ranks, *inf] for ranks, inf in zip(rank_axes, inf_ranks)])
        assert got == [df.code_ratio(r) for r in points]
    assert list(df.code_grid([[] for _ in range(df.dim)])) == []
    check_index_boxes(df, seed)

    try:
        copula = extract_copula(df)
    except ValidationError:
        return  # a lenient payload whose margins are not cdfs has no copula
    assert copula.code_grid == df.code_grid
    axes = [rng.sample(pool, min(3, len(pool))) for pool in (level_pool(m) for m in copula.margins)]
    codes = [copula.axis_codes(i, levels) for i, levels in enumerate(axes)]
    assert list(copula.ratio_grid(axes)) == [copula.code_ratio(c) for c in product(*codes)]
    assert list(copula.eval_grid(axes)) == [oracle_eval(copula, t) for t in product(*axes)]
    check_index_boxes(copula, seed)


def test_a_sweep_that_reaches_the_cells_reads_the_table_not_the_rows(monkeypatch):
    """Grid calls charge the scan budget once: a large sweep never scans, a small call never tabulates."""
    calls = []

    def spy(name):
        original = getattr(_RankIndex, name)

        def wrapped(self, ranks):
            calls.append((name, tuple(ranks)))
            return original(self, ranks)

        monkeypatch.setattr(_RankIndex, name, wrapped)

    spy("_weight_below")
    spy("_scan")
    rows = [(F(k), F(3 * k % 7)) for k in range(7)]  # 8 x 8 = 64 cells, 7 rows
    df = empirical_from_rows(rows)
    report = verify_sklar_identity(df, GridSpec(4))
    assert report.sections[0].points * len(df._index._rows) >= df._index._cells == 64
    assert calls == [] and df._index._table is not None
    assert report == oracle_sklar_identity(df, 4)

    # 2 points x 7 rows = 14 scanned of 64 cells: a scan, charged once, and no table
    small = empirical_from_rows(rows)
    assert list(small.eval_grid([(F(1), F(5, 2)), (F(4),)])) == [F(2, 7), F(2, 7)]
    assert small._index._table is None and small._index._scanned == 14
    assert [name for name, _ in calls] == ["_scan", "_scan"]


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


def test_the_certified_section_codes_no_breakpoint_and_no_right_limit(monkeypatch):
    # the right_continuity section is certified: check_df_axioms codes only the box corners
    # and the limit points, never a breakpoint and never a right limit
    calls = []
    pair_codes, right_limit = EmpiricalDf.pair_codes, EmpiricalDf.axis_right_limit

    def counted_pair_codes(self, axis, pairs):
        pairs = list(pairs)
        calls.append(("pair_codes", axis, tuple(pairs)))
        return pair_codes(self, axis, pairs)

    def counted_right_limit(self, t, axis):
        calls.append(("axis_right_limit", axis, tuple(t)))
        return right_limit(self, t, axis)

    monkeypatch.setattr(EmpiricalDf, "pair_codes", counted_pair_codes)
    monkeypatch.setattr(EmpiricalDf, "axis_right_limit", counted_right_limit)
    # breakpoints outside [0, 1], so no random box vertex is a breakpoint
    df = EmpiricalDf(((F(2), F(3)), (F(3), F(5)), (F(5), F(2))))
    report = check_df_axioms(df, n_cuboids=5, seed=0)
    assert report.passed and report.sections[2].points == 2 * 3 * 3
    bp_pairs = {b.as_integer_ratio() for b in (F(2), F(3), F(5))}
    assert calls and not [c for c in calls if c[0] == "axis_right_limit" or set(c[2]) & bp_pairs]


def test_right_limit_off_the_breakpoints_probes_before_the_next_one():
    # F(9/10+) = F(9/10) = 1/3; the oracle's shift by half the smallest data gap (1/2) would cross 1
    df = empirical_from_rows([(0,), (1,), (3,)])
    assert df.axis_right_limit((F(9, 10),), 0) == F(1, 3)
    assert scan_axis_right_limit(df, (F(9, 10),), 0) == (F(1, 3), F(1, 20))
    assert df.axis_right_limit((F(1),), 0) == F(2, 3)
    assert df.axis_right_limit((F(3),), 0) == F(1)


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
    # the sweep oracle sees every violation the pointwise one sees, on subjects that
    # check_df_axioms refuses; one breakpoint per row on axis 1 and fewer on axis 2
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

    expected = pointwise_right_continuity(df, partial(scan_eval_below, df), right_limit)
    section = oracle_right_continuity(df)
    assert expected and list(section.witnesses) == expected
    assert section.points == 2 * min(sizes[0] * sizes[1], PROBE_POINTS)


class EveryProbeFails(MultivariateDf):
    """Breakpoints 0, 1, .., size - 1 per axis, coded 0, and every other coordinate coded 1.

    The sweep oracle reads each right limit at a coordinate off the
    breakpoints, so every right limit differs from the value: each probe
    leaves one witness per axis, and the witnesses list the probes.
    """

    family = "every-probe-fails"

    def __init__(self, sizes):
        self.sizes = sizes

    @property
    def dim(self):
        return len(self.sizes)

    def axis_breakpoints(self, axis):
        return tuple(map(F, range(self.sizes[axis])))

    def pair_codes(self, axis, pairs):
        return [int(not (b == 1 and 0 <= a < self.sizes[axis])) for a, b in pairs]

    def code_ratio(self, codes):
        return sum(codes), 1

    def margin_fn(self, axis):
        raise NotImplementedError


@pytest.mark.parametrize("sizes", [(201,), (16, 13), (15, 14), (800, 800), (7, 6, 5)])
@pytest.mark.parametrize("seed", [0, 5])
def test_sampled_probes_are_distinct_and_in_grid_order(sizes, seed):
    # the sweep oracle's probes are the stride oracle's; check_df_axioms refuses the df at every seed
    df = EveryProbeFails(sizes)
    witnesses = oracle_right_continuity(df).witnesses
    assert [w["axis"] for w in witnesses] == list(range(1, df.dim + 1)) * PROBE_POINTS
    probes = [w["point"] for w in witnesses[:: df.dim]]
    assert len(probes) == len(set(probes)) == PROBE_POINTS
    assert probes == sorted(probes) == oracle_probe_points(df)
    with pytest.raises(ValidationError):
        check_df_axioms(df, n_cuboids=1, seed=seed)


def test_right_continuity_section_is_the_same_at_every_seed():
    # a sampled 16 x 13 breakpoint grid: the certified section reads no seed, holds no
    # witness, and counts the probes the sweep oracle makes, where none fails
    ys = [F(3 * (k % 13) + 1, 7) for k in range(16)]
    df = EmpiricalDf(tuple((F(k, 16), y) for k, y in enumerate(ys)))
    sections = [check_df_axioms(df, n_cuboids=3, seed=seed).sections[2] for seed in range(5)]
    assert sections[0] == oracle_right_continuity(df)
    assert sections[0].count == 0 and sections[0].points == 2 * PROBE_POINTS
    assert all(section == sections[0] for section in sections)


def test_a_failing_sampled_probe_yields_one_witness_per_axis():
    # 16 rows give a 16 x 13 breakpoint grid, so the sweep oracle samples its probes
    ys = [F(3 * (k % 13) + 1, 7) for k in range(16)]
    df = LeftContinuousEmpirical(tuple((F(k, 16), y) for k, y in enumerate(ys)))
    section = oracle_right_continuity(df)
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
