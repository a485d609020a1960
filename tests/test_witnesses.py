"""The witness sink: a capped check reports what the keep-all check reports cut to that cap.

Every verifier takes ``max_witnesses`` and sends its violations through one
``report.Witnesses`` sink per section, which counts them, tracks the largest
deviation and builds only the first K witnesses.  That is the only cap:
``report_to_json`` writes exactly the witnesses a section kept.  The
differential tests hold the report built under each cap K to the keep-all
report with each list cut to its first K (``oracle_capped``), byte for byte;
the spy tests count the witnesses actually built.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from copulacheck import (
    CountermonotoneDf,
    GridSpec,
    Witnesses,
    check_df_axioms,
    empirical_from_rows,
    extract_copula,
    lemma_report,
    make_monotone,
    uniform_cdf,
    verify_copula_axioms,
    verify_sklar_identity,
    verify_uniform_margins,
)
from copulacheck import Report, cli, sklar
from copulacheck.scalars import NEG_INF, NEG_PAIR
from copulacheck.serialize import report_to_json
from helpers import composed_dfs, oracle_capped

F = Fraction
CAPS = (0, 1, 3, 20, -1)
M = 4
EMP = empirical_from_rows([(0, 0), (1, 1), (1, 0), (F(1, 2), 1), (1, 1), (0, F(1, 2))])
EMP_COPULA = extract_copula(EMP)
FLAT = make_monotone([(0, 0, 0), (F(1, 2), F(1, 2), F(1, 2)), (F(3, 2), F(1, 2), F(1, 2)), (2, 1, 1)])


@st.composite
def empirical_dfs(draw):
    """Empirical dfs on 1-3 axes whose rows tie often, so their copulas break often."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-2, 2).map(lambda k: F(k, 2))
    return empirical_from_rows(draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6)))


def _verifiers(df, seed):
    """Each verifier as a function of the cap, on ``df``, its copula and its first margin."""
    copula = extract_copula(df)
    fn = copula.margins[0]
    grid = GridSpec(M)
    return {
        "sklar": lambda k: verify_sklar_identity(df, grid=grid, max_witnesses=k),
        "margins": lambda k: verify_uniform_margins(copula, grid=grid, max_witnesses=k),
        "copula": lambda k: verify_copula_axioms(copula, 20, seed, grid, max_witnesses=k),
        "df": lambda k: check_df_axioms(df, 20, seed, max_witnesses=k),
        "lemma": lambda k: lemma_report(fn, *grid.lemma_grids(fn), max_witnesses=k),
    }


def _assert_caps_agree(df, seed):
    for name, verify in _verifiers(df, seed).items():
        full = verify(-1)
        assert [s.count for s in full.sections] == [len(s.witnesses) for s in full.sections]
        for k in CAPS:
            capped = verify(k)
            assert report_to_json(capped) == report_to_json(oracle_capped(full, k)), (name, k)
            assert capped.passed == full.passed
            assert [s.count for s in capped.sections] == [s.count for s in full.sections]
            assert [s.max_deviation for s in capped.sections] == [s.max_deviation for s in full.sections]
            truncated = any(0 <= k < s.count for s in full.sections)
            assert json.loads(report_to_json(capped))["truncated"] is truncated


@settings(max_examples=40, deadline=None)
@given(empirical_dfs() | composed_dfs(), st.integers(0, 2**16))
@example(EMP, 0)
@example(CountermonotoneDf((uniform_cdf(),) * 3), 7)
def test_capped_reports_equal_the_keep_all_report_emitted_with_the_cap(df, seed):
    _assert_caps_agree(df, seed)


@pytest.fixture
def built(monkeypatch):
    """Spy on the witnesses the sinks build: the number built, per sink."""
    counts = {}
    add = Witnesses.add

    def spy(self, deviation, build, *args):
        def counted(*a):
            counts[id(self)] = counts.get(id(self), 0) + 1
            return build(*a)

        add(self, deviation, counted, *args)

    monkeypatch.setattr(Witnesses, "add", spy)
    return counts


# each check on an input where it finds more violations than the largest cap below
SPIED = {
    "sklar": lambda k: verify_sklar_identity(EMP, grid=GridSpec(6), max_witnesses=k),
    "margins": lambda k: verify_uniform_margins(EMP_COPULA, grid=GridSpec(6), max_witnesses=k),
    "copula": lambda k: verify_copula_axioms(EMP_COPULA, 40, 5, GridSpec(6), max_witnesses=k),
    "df": lambda k: check_df_axioms(CountermonotoneDf((uniform_cdf(),) * 3), 200, 0, max_witnesses=k),
    "lemma": lambda k: lemma_report(FLAT, *GridSpec(32).lemma_grids(FLAT), max_witnesses=k),
}


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("name", list(SPIED))
def test_a_capped_check_builds_at_most_k_witnesses_per_section(name, k, built, monkeypatch):
    witness = sklar._witness
    made = []
    monkeypatch.setattr(sklar, "_witness", lambda *a: made.append(a) or witness(*a))

    report = SPIED[name](k)
    assert max(s.count for s in report.sections) > k  # the cap is met
    assert all(n <= k for n in built.values())
    assert sum(built.values()) == sum(min(s.count, k) for s in report.sections)
    assert len(made) == (0 if name in ("df", "lemma") else min(report.sections[0].count, k))


@pytest.mark.parametrize(
    "argv",
    [
        ["sklar", "emp.json", "--grid", "6"],
        ["margins", "emp.json"],
        ["copula", "signed.json", "--grid", "3", "--cuboids", "20"],
        ["df", "counter3.json"],
        ["lemma", "flat.json", "--grid", "32"],
    ],
    ids=lambda argv: argv[0],
)
def test_the_command_line_passes_the_cap_to_the_check(argv, built, monkeypatch, capsys):
    monkeypatch.chdir(Path(__file__).resolve().parent / "golden" / "inputs")
    assert cli.main(["verify", *argv, "--max-witnesses", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["truncated"]
    assert built and all(n <= 2 for n in built.values())


def test_a_report_emits_exactly_the_witnesses_its_check_kept():
    report = verify_sklar_identity(EMP, grid=GridSpec(6), max_witnesses=3)
    assert report.sections[0].count == 48 and len(report.violations) == 3
    out = json.loads(report_to_json(report))
    assert out["truncated"] and len(out["violations"]) == 3
    every = json.loads(report_to_json(verify_sklar_identity(EMP, grid=GridSpec(6))))
    assert len(every["violations"]) == 48 and not every["truncated"]
    assert out["violations"] == every["violations"][:3]


def test_the_sink_counts_every_violation_and_keeps_the_largest_deviation_exactly():
    sink = Witnesses(2)
    # unreduced pairs: 2/4 ties 1/2, so the first of them stays; 3/5 beats both
    for pair in [(1, 3), (2, 4), (1, 2), (3, 5), (1, 7)]:
        sink.add(pair, lambda p: {"point": p}, pair)
    section = sink.section("s", "violations", 9)
    assert (section.count, section.max_deviation) == (5, F(3, 5))
    assert section.witnesses == ({"point": (1, 3)}, {"point": (2, 4)})
    assert Witnesses().section("s", "violations", 9).max_deviation == 0


def test_verdicts_read_the_count_when_no_witness_is_kept():
    sink = Witnesses(0)
    sink.add((1, 2), dict)
    sections = (sink.section("a", "violations_a", 4, "pass_a"), Witnesses(0).section("b", "violations_b", 4))
    out = json.loads(report_to_json(Report("lemma", sections)))
    assert out["pass"] is False and out["pass_a"] is False
    assert out["violations_a"] == [] and out["truncated"]


def test_a_kept_witness_decodes_an_axis_point_at_minus_inf():
    """A grid witness decodes its point by ``scalars.pair_value``, so an axis pair (-1, 0) is -inf."""
    axes = [(NEG_PAIR, (1, 2)), ((0, 1), (3, 4))]
    sink = Witnesses()
    # flat index 1: the first point of axis 1 and the second of axis 2
    sink.add((1, 4), sklar._grid_witness, axes, 1, (1, 4), (1, 2), "identity")
    section = sink.section("sklar_identity", "violations", 4)
    assert section.witnesses == (
        {"point": (NEG_INF, F(3, 4)), "expected": F(1, 4), "got": F(1, 2), "deviation": F(1, 4), "kind": "identity"},
    )
    out = json.loads(report_to_json(Report("sklar_identity", (section,))))
    assert out["violations"][0]["point"] == ["-inf", "3/4"]
