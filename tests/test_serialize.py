import json
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from copulacheck import (
    CountermonotoneDf,
    EmpiricalDf,
    GridDf,
    MultivariateDf,
    ValidationError,
    check_df_axioms,
    comonotone_df,
    countermonotone_df,
    empirical_from_rows,
    grid_df,
    lemma_report,
    product_df,
    uniform_cdf,
    verify_sklar_identity,
)
from copulacheck.serialize import (
    df_from_payload,
    df_to_payload,
    dumps_payload,
    load_payload,
    monotone_from_payload,
    monotone_to_payload,
    report_to_json,
    rows_from_csv,
)
from copulacheck.scalars import as_pairs
from helpers import grid

F = Fraction


def test_monotone_payload_round_trip(g_bern, g_flat):
    for fn in (g_bern, g_flat):
        assert monotone_from_payload(monotone_to_payload(fn)) == fn


def test_monotone_payload_accepts_decimals_exactly():
    fn = monotone_from_payload(
        {"knots": [{"x": "0", "left": "0", "value": "0.5"}, {"x": "1", "left": "1/2", "value": "1"}]}
    )
    assert fn.knots[0].value == F(1, 2)


def test_unquoted_json_decimals_load_as_written():
    # a JSON number reaches the scalar grammar as its text, not through a binary float
    x = F(30000000000000001, 10**17)
    fn = load_payload('{"knots": [{"x": 0.30000000000000001, "left": 0, "value": 1}]}')
    assert fn.knots[0].x == x
    assert fn == load_payload('{"knots": [{"x": "0.30000000000000001", "left": "0", "value": "1"}]}')
    assert rows_from_csv("0.30000000000000001,1\n") == ((x, F(1)),)
    df = load_payload('{"family": "empirical", "dim": 2, "rows": [[1e400, 0], [0, 2.5E-1]]}')
    assert df.rows == ((F(10**400), F(0)), (F(0), F(1, 4)))


def test_monotone_payload_errors():
    with pytest.raises(ValidationError):
        monotone_from_payload({"knots": [{"x": "0", "left": "0"}]})
    with pytest.raises(ValidationError):
        monotone_from_payload({})
    with pytest.raises(ValidationError):
        monotone_from_payload({"knots": [{"x": "0", "left": "oops", "value": "1"}]})


def test_df_payload_round_trip_all_families(g_bern, g_flat):
    u = uniform_cdf()
    dfs = [
        empirical_from_rows([(0, 0), (1, 1)]),
        product_df([u, g_bern]),
        comonotone_df([g_flat, u]),
        countermonotone_df(u, u),
        grid_df([((0, 0), F(1, 2)), ((1, 1), F(1, 2))]),
        # instances that only a payload builds, not the public constructors
        CountermonotoneDf((u, u, u)),
        GridDf((((0, 0), F(1, 2)), ((1, 0), F(-1, 4)), ((1, 1), F(3, 4)))),  # negative mass
        GridDf((((0,), F(1, 3)), ((2,), F(1, 5)))),  # total not 1
        EmpiricalDf(((F(1, 2), F(0)), (F(1, 2), F(0)), (F(1), F(-3, 7)))),  # duplicate rows
    ]
    for df in dfs:
        payload = df_to_payload(df)
        loaded = df_from_payload(payload)
        assert loaded == df and type(loaded) is type(df)
        # emission is canonical: one more trip is byte-stable
        assert dumps_payload(df_to_payload(loaded)) == dumps_payload(payload)


def test_df_to_payload_refuses_a_df_outside_the_families():
    class BareDf(MultivariateDf):
        dim = 1

        def pair_codes(self, axis, pairs):
            return list(pairs)

        def code_ratio(self, codes):
            return 0, 1

        def margin_fn(self, axis):
            return uniform_cdf()

        def axis_breakpoints(self, axis):
            return (F(0),)

    with pytest.raises(ValidationError, match="no payload format for BareDf"):
        df_to_payload(BareDf())


EMP_ROWS = [["0", "1"], ["1", "0"]]
GRID_1D = [{"point": ["0"], "mass": "1"}]


@pytest.mark.parametrize(
    "payload",
    [
        {"family": "empirical", "dim": 5, "rows": EMP_ROWS},
        {"family": "empirical", "rows": EMP_ROWS},
        {"family": "empirical", "dim": None, "rows": EMP_ROWS},
        {"family": "empirical", "dim": "2", "rows": EMP_ROWS},
        {"family": "empirical", "dim": 2.0, "rows": EMP_ROWS},
        {"family": "grid", "dim": "x", "masses": GRID_1D},
        {"family": "grid", "dim": True, "masses": GRID_1D},
        {"family": "grid", "dim": 2, "masses": GRID_1D},
        {"family": "product", "dim": 3, "margins": [{"knots": [{"x": 0, "left": 0, "value": 1}]}]},
    ],
    ids=["too-large", "missing", "null", "string", "float", "not-a-number", "true", "too-small",
         "composed"],
)
def test_df_payload_dim_must_match_its_data(payload):
    with pytest.raises(ValidationError, match='needs "dim": [123], the dimension of its data'):
        load_payload(json.dumps(payload))


def test_df_payload_dim_is_checked_after_family_and_shape():
    with pytest.raises(ValidationError, match="unknown df family 'cauchy'"):
        load_payload('{"family": "cauchy", "dim": "x"}')
    with pytest.raises(ValidationError, match='grid payload needs a non-empty "masses" list'):
        load_payload('{"family": "grid", "dim": "x", "masses": []}')
    with pytest.raises(ValidationError, match="row 2: expected 2 columns, got 1"):
        load_payload('{"family": "empirical", "dim": 5, "rows": [["0", "1"], ["1"]]}')


@pytest.mark.parametrize("point", ["12", {"3": 0}, 5, None], ids=["string", "object", "number", "null"])
def test_a_grid_mass_whose_point_is_not_a_list_is_refused(point):
    # a string or an object would otherwise load as the point of its characters or keys
    masses = [{"point": ["0", "0"], "mass": "1/2"}, {"point": point, "mass": "1/2"}]
    with pytest.raises(ValidationError, match="^mass 2: expected a list as its point$"):
        df_from_payload({"family": "grid", "dim": 2, "masses": masses})


def test_lenient_load_of_broken_countermonotone():
    u_payload = monotone_to_payload(uniform_cdf())
    payload = {"family": "countermonotone", "dim": 3, "margins": [u_payload] * 3}
    df = df_from_payload(payload)
    assert isinstance(df, CountermonotoneDf) and df.dim == 3
    assert not check_df_axioms(df, n_cuboids=100, seed=7).passed


def test_load_payload_dispatch(g_bern):
    fn = load_payload(json.dumps(monotone_to_payload(g_bern)))
    assert fn == g_bern
    df = load_payload(json.dumps(df_to_payload(empirical_from_rows([(0,)]))))
    assert df.dim == 1
    with pytest.raises(ValidationError):
        load_payload("{not json")
    with pytest.raises(ValidationError):
        load_payload('{"family": "cauchy"}')


def test_csv_ingest():
    rows = rows_from_csv("0,0\n1,1\n")
    assert rows == ((F(0), F(0)), (F(1), F(1)))
    rows = rows_from_csv("x,y\n0.25,0.5\n", has_header=True)
    assert rows == ((F(1, 4), F(1, 2)),)


def test_csv_header_is_the_first_non_blank_record():
    # blank records are skipped before the header as well as after it
    assert rows_from_csv("\nx,y\n0,0\n", has_header=True) == ((F(0), F(0)),)
    assert rows_from_csv("\n \nx,y\n\n1/2,1\n", has_header=True) == ((F(1, 2), F(1)),)
    assert rows_from_csv("\n0,0\n1,1\n") == ((F(0), F(0)), (F(1), F(1)))
    with pytest.raises(ValidationError, match="row 2, column 1"):
        rows_from_csv("\nx,y\n0,0\n")


def test_csv_ingest_errors():
    with pytest.raises(ValidationError, match="row 2: expected 2 columns"):
        rows_from_csv("0,0\n1\n")
    with pytest.raises(ValidationError, match="row 2, column 2"):
        rows_from_csv("0,0\n1,zebra\n")
    with pytest.raises(ValidationError):
        rows_from_csv("")


def test_check_report_json_shape_and_truncation():
    emp = empirical_from_rows([(0, 0), (1, 1)])
    obj = json.loads(report_to_json(verify_sklar_identity(emp, max_witnesses=5)))
    assert obj["check"] == "sklar_identity"
    assert obj["pass"] is False
    assert obj["max_deviation"] == "1/2"
    assert len(obj["violations"]) == 5
    assert obj["truncated"] is True
    first = obj["violations"][0]
    assert set(first) == {"point", "expected", "got", "deviation", "kind"}
    # the cap is the check's: K equal to the violation count cuts nothing, K below it does
    count = verify_sklar_identity(emp).sections[0].count
    at_count = json.loads(report_to_json(verify_sklar_identity(emp, max_witnesses=count)))
    below = json.loads(report_to_json(verify_sklar_identity(emp, max_witnesses=count - 1)))
    assert len(at_count["violations"]) == count and at_count["truncated"] is False
    assert len(below["violations"]) == count - 1 and below["truncated"] is True


def test_lemma_report_json_shape(g_flat):
    rep = lemma_report(g_flat, us=as_pairs(grid(0, 1, 8)), xs=as_pairs(grid(0, 2, 8)))
    obj = json.loads(report_to_json(rep))
    assert obj["pass_a"] and obj["pass_b"] and obj["pass_leftcont"]
    assert obj["pass"] is False
    assert {"x", "lhs"} == set(obj["ff_witnesses"][0])
    assert obj["points"]["a"] == rep.sections[0].points == 9


def test_df_report_json_shape():
    u = uniform_cdf()
    rep = check_df_axioms(CountermonotoneDf((u, u, u)), n_cuboids=50, seed=7)
    obj = json.loads(report_to_json(rep))
    assert obj["check"] == "df_axioms"
    assert obj["pass"] is False
    assert obj["volume_violations"]
    assert {"a", "b", "volume"} == set(obj["volume_violations"][0])


# -- the JSON writer against json.dumps -------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and lone surrogates, often
json_strings = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ud800é😀'), st.characters(exclude_categories=())
    ),
    max_size=8,
)
# small ints and ints of up to 5,000 digits, past int's default limit for str
json_ints = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(lambda sign, digits: sign * (10**digits - 1), st.sampled_from([1, -1]), st.integers(1, 5000)),
)
payloads = st.recursive(
    st.one_of(json_strings, json_ints, st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(json_strings, inner, max_size=4),
    ),
    max_leaves=16,
)


def _emitted(emit, payload):
    """What ``emit`` writes, or the type of what it raises (int's digit limit raises ValueError)."""
    try:
        return emit(payload)
    except ValueError as exc:
        return type(exc)


@contextmanager
def _no_digit_limit():
    """int's str digit limit lifted for the block, where this Python has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@given(payloads)
@settings(max_examples=300, deadline=None)
@example({"pass": True, "truncated": False, "none": None, "n": [0, -1, 1], "empty": [{}, [], ()]})
def test_dumps_payload_writes_what_json_dumps_writes(payload):
    oracle = lambda p: json.dumps(p, indent=2) + "\n"  # noqa: E731
    assert _emitted(dumps_payload, payload) == _emitted(oracle, payload)
    with _no_digit_limit():
        assert dumps_payload(payload) == oracle(payload)


@pytest.mark.parametrize("bad", [0.5, {1}, {"a": [1, {"b": float("inf")}]}, [frozenset()]])
def test_dumps_payload_refuses_a_float_or_a_set(bad):
    with pytest.raises(TypeError):
        dumps_payload(bad)


def test_report_json_deterministic():
    emp = empirical_from_rows([(0, 0), (1, 1)])
    a = report_to_json(verify_sklar_identity(emp))
    b = report_to_json(verify_sklar_identity(emp))
    assert a == b and a.endswith("\n")
