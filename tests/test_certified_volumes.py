"""The family certificate of d-increase, and the seeded box sweep it skips.

``MultivariateDf.certainly_d_increasing`` is True where the family alone
proves every box volume non-negative: empirical, product, comonotone,
countermonotone with d = 2, and a grid df with no negative mass.  There
``check_df_axioms`` and ``verify_copula_axioms`` skip the seeded boxes, whose
sweep could only find nothing.  These tests hold the predicate to that:
wherever it is True the sweep and its box-by-box oracle find no negative box,
on the df and on its copula; a grid df is certified exactly when its cells,
read by the oracles, have no negative volume; and every report, on every
golden input, is the same with the predicate patched to False.  Only the
five family classes get into a check, so a subclass is refused before any
work.  The copula sweep, which skips the level points whose codes equal
their levels, where no check can fail, equals the point-by-point loop on
every family, lenient dfs included.  The cross-command tests state
verdicts that the margins decide on a valid df, read off the knot lists by
the scans in ``helpers`` (``knot_jumps``, ``knot_bottom_value``).
"""

import json
from contextlib import ExitStack
from fractions import Fraction as F
from functools import partial
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from copulacheck import (
    NEG_INF,
    ComonotoneDf,
    CountermonotoneDf,
    Cuboid,
    EmpiricalDf,
    GridDf,
    GridSpec,
    MultivariateDf,
    ProductDf,
    ValidationError,
    check_df_axioms,
    comonotone_df,
    countermonotone_df,
    empirical_from_rows,
    extract_copula,
    grid_df,
    make_monotone,
    product_df,
    uniform_cdf,
    verify_copula_axioms,
    verify_sklar_identity,
    verify_uniform_margins,
)
from copulacheck import cli, mvdf, sklar
from copulacheck.mvdf import lower_bound_grid
from helpers import (
    LeftContinuousEmpirical,
    five_family_dfs,
    knot_bottom_value,
    knot_jumps,
    monotone_fns,
    naive_vertex_sum,
    oracle_capped,
    oracle_copula_axioms_loop,
    oracle_df_volumes,
    oracle_eval,
    oracle_negative_boxes,
    run_cli,
)

FAMILY_CLASSES = (EmpiricalDf, GridDf, ProductDf, ComonotoneDf, CountermonotoneDf)
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
AXIOM_CASES = [c for c in CASES if c["argv"][:2] in (["verify", "df"], ["verify", "copula"])]
DF_INPUTS = sorted(
    p.name
    for p in (GOLDEN / "inputs").glob("*.json")
    if json.loads(p.read_text(encoding="utf-8")).get("family") in {cls.family for cls in FAMILY_CLASSES}
)


def sweeping_every_family() -> ExitStack:
    """The predicate patched to False on the five families, so every source takes the seeded box sweep."""
    stack = ExitStack()
    for cls in FAMILY_CLASSES:
        stack.enter_context(mock.patch.object(cls, "certainly_d_increasing", lambda self: False))
    return stack


def copula_or_none(df):
    """The extracted copula of ``df``, or None when a margin is not a cdf (or not even monotone)."""
    try:
        return extract_copula(df)
    except ValidationError:
        return None


def d_increasing_count(report) -> int:
    return sum(w["kind"] == "d_increasing" for w in report.sections[0].witnesses)


class LowerBoundProduct(ProductDf):
    """A subclass of a certified family that reads W instead, which is not 3-increasing."""

    def code_grid(self, code_axes):
        return lower_bound_grid(code_axes)


# -- the predicate ------------------------------------------------------------------------


def test_the_default_certifies_nothing():
    """The base method, which a class that does not override the predicate runs, is False on every family."""
    u = uniform_cdf()
    for df in (product_df([u, u]), empirical_from_rows([(0, 1)]), grid_df([((0,), 1)])):
        assert df.certainly_d_increasing() is True
        assert MultivariateDf.certainly_d_increasing(df) is False


def test_each_family_is_certified_as_its_volumes_allow():
    u = uniform_cdf()
    assert product_df([u, u, u]).certainly_d_increasing()
    assert comonotone_df([u, u, u]).certainly_d_increasing()
    assert countermonotone_df(u, u).certainly_d_increasing()
    assert not CountermonotoneDf((u, u, u)).certainly_d_increasing()
    assert empirical_from_rows([(0, 0), (0, 0)]).certainly_d_increasing()
    assert GridDf((((0,), F(1, 2)), ((1,), F(0)), ((2,), F(1, 2)))).certainly_d_increasing()
    assert not GridDf((((0,), F(3, 2)), ((1,), F(-1, 2)))).certainly_d_increasing()


@settings(max_examples=150, deadline=None)
@given(five_family_dfs(), st.integers(0, 2**32), st.integers(1, 40))
@example(GridDf((((F(0),), F(1, 4)),)), 0, 1)  # certified, but F(+inf) = 1/4 while its margin reaches 1
def test_a_certified_df_and_its_copula_have_no_negative_seeded_box(df, seed, n_cuboids):
    """Where the predicate holds, the sweep and the box-by-box oracle find nothing, and the skipped report is theirs."""
    if isinstance(df, GridDf):
        assert df.certainly_d_increasing() == all(gm.mass >= 0 for gm in df.masses)
    if not df.certainly_d_increasing():
        return
    assert list(mvdf.negative_boxes(df, seed, n_cuboids)) == [] == oracle_negative_boxes(df, seed, n_cuboids)
    assert check_df_axioms(df, n_cuboids, seed).sections[0] == oracle_df_volumes(df, n_cuboids, seed)
    copula = copula_or_none(df)
    if copula is None:
        return
    assert list(mvdf.negative_boxes(copula, seed, n_cuboids)) == [] == oracle_negative_boxes(copula, seed, n_cuboids)
    report = verify_copula_axioms(copula, n_cuboids, seed, GridSpec(2))
    assert report == oracle_copula_axioms_loop(copula, n_cuboids, seed, 2)


@settings(max_examples=150, deadline=None)
@given(five_family_dfs(), st.integers(1, 4), st.sampled_from([-1, 3]), st.integers(0, 2**32), st.integers(1, 20))
@example(GridDf((((F(0),), F(1, 4)),)), 2, -1, 0, 1)
def test_the_copula_sweep_matches_the_point_by_point_loop(df, m, max_witnesses, seed, n_cuboids):
    """Lenient dfs included: the skipped level points, read one at a time, hold no witness the sweep lacks."""
    copula = copula_or_none(df)
    if copula is None:
        return
    report = verify_copula_axioms(copula, n_cuboids, seed, GridSpec(m), max_witnesses)
    assert report == oracle_capped(oracle_copula_axioms_loop(copula, n_cuboids, seed, m), max_witnesses)


@settings(max_examples=100, deadline=None)
@given(five_family_dfs().filter(lambda df: isinstance(df, GridDf)))
def test_a_grid_df_is_certified_exactly_when_no_cell_has_negative_volume(df):
    """The cells of the breakpoint grid, from -inf, each hold one support point: their volumes are the masses."""
    edges = [(NEG_INF, *df.axis_breakpoints(i)) for i in range(df.dim)]
    cells = [list(zip(axis, axis[1:])) for axis in edges]
    volumes = [
        naive_vertex_sum(partial(oracle_eval, df), Cuboid(tuple(a for a, _ in cell), tuple(b for _, b in cell)))
        for cell in product(*cells)
    ]
    assert sorted(v for v in volumes if v) == sorted(gm.mass for gm in df.masses if gm.mass)
    assert df.certainly_d_increasing() == (min(volumes) >= 0)


# -- the skip --------------------------------------------------------------------------------


def _spy(monkeypatch, module):
    calls = []
    original = module.negative_boxes

    def spy(fn, seed, count):
        calls.append(type(fn).__name__)
        return original(fn, seed, count)

    monkeypatch.setattr(module, "negative_boxes", spy)
    return calls


def test_only_an_uncertified_source_draws_its_boxes(monkeypatch):
    u = uniform_cdf()
    signed = GridDf((((0, 0), F(-1, 4)), ((0, 1), F(1, 2)), ((1, 0), F(1, 2)), ((1, 1), F(1, 4))))
    certified = [product_df([u, u]), comonotone_df([u, u, u]), countermonotone_df(u, u), empirical_from_rows([(0, 1)])]
    df_calls, copula_calls = _spy(monkeypatch, mvdf), _spy(monkeypatch, sklar)
    for df in certified:
        assert check_df_axioms(df, 50, 0).passed
        verify_copula_axioms(extract_copula(df), 50, 0)
    assert df_calls == copula_calls == []

    for df in (CountermonotoneDf((u, u, u)), signed):
        check_df_axioms(df, 50, 0)
        verify_copula_axioms(extract_copula(df), 50, 0)
    with pytest.raises(ValidationError, match="LowerBoundProduct is not one of the five df families"):
        extract_copula(LowerBoundProduct((u, u, u)))
    assert df_calls == ["CountermonotoneDf", "GridDf"]
    assert copula_calls == ["Copula"] * 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: LowerBoundProduct((uniform_cdf(),) * 3),
        lambda: LeftContinuousEmpirical(((F(0), F(1)), (F(1), F(0)))),
    ],
    ids=["lower-bound-product", "left-continuous-empirical"],
)
def test_a_copula_of_a_df_outside_the_five_families_is_refused_before_any_margin(build, monkeypatch):
    """A subclass inherits the certificate but may read its values another way, so no copula check takes it."""
    df = build()
    margins = tuple(df.margin_fn(i) for i in range(df.dim))
    monkeypatch.setattr(type(df), "margin_fn", lambda *args: pytest.fail("a margin was read"))
    refused = f"{type(df).__name__} is not one of the five df families"
    for build_copula in (extract_copula, lambda df: sklar.Copula(df, margins), verify_sklar_identity):
        with pytest.raises(ValidationError, match=refused):
            build_copula(df)


@pytest.mark.parametrize("case", AXIOM_CASES, ids=[c["name"] for c in AXIOM_CASES])
def test_the_sweep_gives_the_recorded_bytes_of_every_axiom_case(case, capsys, monkeypatch):
    """With every source swept, each golden ``verify df`` and ``verify copula`` case prints its recorded bytes."""
    monkeypatch.chdir(GOLDEN / "inputs")
    with sweeping_every_family():
        try:
            code = cli.main(case["argv"])
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "out" / f"{case['name']}.txt").read_bytes()
    assert code == case["exit"]


@pytest.mark.parametrize("name", DF_INPUTS)
@pytest.mark.parametrize("kind", ["df", "copula"])
@pytest.mark.parametrize("options", [[], ["--seed", "3", "--cuboids", "300", "--max-witnesses", "-1"]])
def test_the_skip_changes_no_report_on_any_golden_input(name, kind, options, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN / "inputs")
    argv = ["verify", kind, name, *options]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    with sweeping_every_family():
        assert cli.main(argv) == code
    assert capsys.readouterr() == (out, err)


# -- refusal of a box count below 1 -------------------------------------------------


@pytest.mark.parametrize("source", ["emp.json", "unif2.json", "counter3.json", "signed.json"])
@pytest.mark.parametrize("kind", ["df", "copula"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_a_box_count_below_1_exits_2_on_every_source(source, kind, count, tmp_path):
    """Certified (emp, unif2) and swept (counter3, signed) sources refuse the count alike."""
    uniform = {"knots": [{"x": "0", "left": "0", "value": "0"}, {"x": "1", "left": "1", "value": "1"}]}
    (tmp_path / "unif2.json").write_text(json.dumps({"family": "product", "dim": 2, "margins": [uniform] * 2}))
    path = tmp_path / source if source == "unif2.json" else GOLDEN / "inputs" / source
    r = run_cli("verify", kind, str(path), "--cuboids", count)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: n_cuboids must be >= 1, got {count}\n")


@pytest.mark.parametrize("count", [0, -1])
def test_the_box_count_is_refused_before_any_work(count, monkeypatch):
    u = uniform_cdf()
    dfs = [product_df([u, u]), CountermonotoneDf((u, u, u))]
    copulas = [extract_copula(df) for df in dfs]
    for module in (mvdf, sklar):
        monkeypatch.setattr(module, "negative_boxes", lambda *args: pytest.fail("a box was drawn"))
    for cls in (ProductDf, CountermonotoneDf):
        monkeypatch.setattr(cls, "pair_codes", lambda *args: pytest.fail("the df was read"))
    for df, copula in zip(dfs, copulas):
        with pytest.raises(ValidationError, match=f"n_cuboids must be >= 1, got {count}"):
            check_df_axioms(df, count, 0)
        with pytest.raises(ValidationError, match=f"n_cuboids must be >= 1, got {count}"):
            verify_copula_axioms(copula, count, 0)


# -- verdicts the margins decide on a valid df ----------------------------------------


@st.composite
def valid_dfs(draw):
    """A df of one of the five families through its public constructor, on 1-3 axes (countermonotone on 2)."""
    family = draw(st.sampled_from(["product", "comonotone", "countermonotone", "empirical", "grid"]))
    if family == "countermonotone":
        return countermonotone_df(draw(monotone_fns(cdf=True)), draw(monotone_fns(cdf=True)))
    dim = draw(st.integers(1, 3))
    if family in ("product", "comonotone"):
        margins = [draw(monotone_fns(cdf=True)) for _ in range(dim)]
        return (product_df if family == "product" else comonotone_df)(margins)
    coords = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    rows = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=6, unique=True))
    if family == "empirical":
        return empirical_from_rows(rows)
    weights = draw(st.lists(st.integers(0, 4), min_size=len(rows), max_size=len(rows)))
    weights[draw(st.integers(0, len(rows) - 1))] += 1
    return grid_df([(row, F(w, sum(weights))) for row, w in zip(rows, weights)])


@settings(max_examples=150, deadline=None)
@given(valid_dfs(), st.integers(1, 4), st.integers(0, 2**32), st.integers(1, 30))
@example(product_df([uniform_cdf(), uniform_cdf()]), 4, 0, 5)  # no jump: every verdict passes
@example(comonotone_df([make_monotone([(0, 0, 0), (1, F(1, 2), 1)]), uniform_cdf()]), 4, 0, 5)  # a jump above 0
@example(empirical_from_rows([(0, 1), (1, 0)]), 4, 0, 5)  # jumps from 0: grounded fails too
def test_the_margins_decide_the_copula_verdicts_on_a_valid_df(df, m, seed, n_cuboids):
    """Read off the margins' knots: margins and fh_upper fail iff some margin jumps, grounded iff some G_i(Q_i(0)) > 0.

    fh_lower never fails, and the swept boxes find no d-increase failure.
    """
    assert df.certainly_d_increasing()
    copula = extract_copula(df)
    report = verify_copula_axioms(copula, n_cuboids, seed, GridSpec(m))
    kinds = {w["kind"] for w in report.sections[0].witnesses}
    jumps = any(knot_jumps(g) for g in copula.margins)
    assert (not verify_uniform_margins(copula, GridSpec(m)).passed) == jumps == ("fh_upper" in kinds)
    assert ("grounded" in kinds) == any(knot_bottom_value(g) > 0 for g in copula.margins)
    assert "fh_lower" not in kinds
    with sweeping_every_family():
        swept = verify_copula_axioms(copula, n_cuboids, seed, GridSpec(m))
    assert d_increasing_count(swept) == 0 and swept == report
