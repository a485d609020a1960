"""End-to-end CLI checks: each runs ``python -m copulacheck.cli`` in a child
process that imports the package from this checkout's ``src``, except the
internal-error check, which patches a failure into ``cli`` and calls
``cli.main`` in process.

Every check of a verify exit code also reads the report on stdout, so a child
that crashes before ``cli.main`` runs (an import failure exits 1 with nothing on
stdout) never passes for a verdict.
"""

import json
from fractions import Fraction
import pytest

from copulacheck import (
    GridSpec,
    check_df_axioms,
    cli,
    extract_copula,
    lemma_report,
    verify_copula_axioms,
    verify_sklar_identity,
    verify_uniform_margins,
)
from copulacheck.cli import build_parser
from copulacheck.serialize import load_payload, report_to_json
from helpers import run_cli

F = Fraction

G_BERN_JSON = (
    '{"knots": [{"x": "0", "left": "0", "value": "0.5"},'
    ' {"x": "1", "left": "1/2", "value": "1"}]}\n'
)
G_ID_JSON = (
    '{"knots": [{"x": "0", "left": "0", "value": "0"},'
    ' {"x": "1", "left": "1", "value": "1"}]}\n'
)
G_FLAT_JSON = (
    '{"knots": [{"x": "0", "left": "0", "value": "0"},'
    ' {"x": "1/2", "left": "1/2", "value": "1/2"},'
    ' {"x": "3/2", "left": "1/2", "value": "1/2"},'
    ' {"x": "2", "left": "1", "value": "1"}]}\n'
)


# the options each verify kind reads, with a value other than its default
VERIFY_READS = {
    "lemma": ("--grid",),
    "df": ("--seed", "--cuboids"),
    "sklar": ("--grid",),
    "margins": ("--grid",),
    "copula": ("--grid", "--seed", "--cuboids"),
}
VERIFY_VALUES = {"--grid": 3, "--seed": 7, "--cuboids": 9}
VERIFY_DEFAULTS = {"--grid": 20, "--seed": 0, "--cuboids": 200}


def verdict(*args, cwd):
    """Exit code and the report's ``pass`` field of one ``verify`` run."""
    r = run_cli(*args, cwd=cwd)
    return r.returncode, json.loads(r.stdout)["pass"]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "g_bern.json").write_text(G_BERN_JSON)
    (tmp_path / "g_id.json").write_text(G_ID_JSON)
    (tmp_path / "g_flat.json").write_text(G_FLAT_JSON)
    (tmp_path / "rows.csv").write_text("0,0\n1,1\n")
    (tmp_path / "unif2.json").write_text(
        json.dumps({"family": "product", "dim": 2, "margins": [json.loads(G_ID_JSON)] * 2})
    )
    return tmp_path


def test_quantile(workdir):
    r = run_cli("quantile", "g_bern.json", "0.3", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "0\n")
    r = run_cli("quantile", "g_bern.json", "0.5", "--right-limit", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "1\n")
    r = run_cli("quantile", "g_id.json", "0.3", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "3/10\n")
    r = run_cli("quantile", "g_bern.json", "0", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "-inf\n")


def test_quantile_domain_error_exits_2(workdir):
    r = run_cli("quantile", "g_bern.json", "1.5", cwd=workdir)
    assert r.returncode == 2
    assert "error" in r.stderr


def test_eval(workdir):
    r = run_cli("eval", "g_bern.json", "0.5", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "1/2\n")
    r = run_cli("eval", "unif2.json", "0.5,0.5", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "1/4\n")
    r = run_cli("eval", "unif2.json", "+inf,1/3", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "1/3\n")


def test_volume(workdir):
    r = run_cli("volume", "unif2.json", "0.2,0.2", "0.6,0.6", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "4/25\n")
    r = run_cli("ingest", "rows.csv", "-o", "emp.json", cwd=workdir)
    assert r.returncode == 0
    r = run_cli("volume", "emp.json", "--", "-1,-1", "2,2", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "1\n")
    r = run_cli("volume", "unif2.json", "0.5,0.5", "0.5,0.5", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "0\n")


def test_volume_bad_corners_exit_2(workdir):
    r = run_cli("volume", "unif2.json", "0.6,0.6", "0.2,0.2", cwd=workdir)
    assert r.returncode == 2
    r = run_cli("volume", "unif2.json", "0.2", "0.6,0.6", cwd=workdir)
    assert r.returncode == 2


def test_margin_round_trips_through_eval(workdir):
    r = run_cli("ingest", "rows.csv", "-o", "emp.json", cwd=workdir)
    assert r.returncode == 0
    r = run_cli("margin", "emp.json", "1", "-o", "m1.json", cwd=workdir)
    assert r.returncode == 0
    canonical = {
        "knots": [
            {"x": "0", "left": "0", "value": "1/2"},
            {"x": "1", "left": "1/2", "value": "1"},
        ]
    }
    assert json.loads((workdir / "m1.json").read_text()) == canonical
    r = run_cli("margin", "emp.json", "3", cwd=workdir)
    assert r.returncode == 2


def test_extract_grid_values(workdir):
    r = run_cli("extract", "unif2.json", "--grid", "2", cwd=workdir)
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["dim"] == 2
    values = {tuple(v["s"]): v["value"] for v in payload["values"]}
    assert values[("1/2", "1/2")] == "1/4"
    assert values[("1", "1")] == "1"


def test_verify_exit_codes(workdir):
    r = run_cli("verify", "sklar", "unif2.json", cwd=workdir)
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["pass"] is True and report["max_deviation"] == "0"

    run_cli("ingest", "rows.csv", "-o", "emp.json", cwd=workdir)
    r = run_cli("verify", "sklar", "emp.json", "--max-witnesses", "500", cwd=workdir)
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert ["1/2", "1/2"] in [v["point"] for v in report["violations"]]

    r = run_cli("verify", "sklar", "missing.json", cwd=workdir)
    assert r.returncode == 2


def test_verify_lemma_flat_reports_ff_only(workdir):
    r = run_cli("verify", "lemma", "g_flat.json", cwd=workdir)
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["pass_a"] and report["pass_b"] and report["pass_leftcont"]
    assert report["ff_witnesses"]


def test_verify_lemma_bad_grid_exits_2(workdir):
    for m in ("0", "-1"):
        r = run_cli("verify", "lemma", "g_flat.json", "--grid", m, cwd=workdir)
        assert (r.returncode, r.stdout) == (2, ""), m
        assert r.stderr.startswith("error: grid resolution must be an integer >= 1"), r.stderr


def test_deeply_nested_payload_exits_2(workdir):
    (workdir / "deep.json").write_text("[" * 200_000)
    r = run_cli("verify", "sklar", "deep.json", cwd=workdir)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: invalid JSON"), r.stderr


@pytest.mark.parametrize("masses", [("0", "0"), ("1", "-1")], ids=["zeros", "one-minus-one"])
def test_grid_masses_summing_to_zero_exit_2(workdir, masses):
    points = (["0", "0"], ["1", "1"])
    (workdir / "zero.json").write_text(
        json.dumps(
            {
                "family": "grid",
                "dim": 2,
                "masses": [{"point": p, "mass": m} for p, m in zip(points, masses)],
            }
        )
    )
    for args in (
        ("verify", "sklar", "zero.json"),
        ("verify", "margins", "zero.json"),
        ("verify", "copula", "zero.json"),
        ("margin", "zero.json", "1"),
        ("extract", "zero.json"),
    ):
        r = run_cli(*args, cwd=workdir)
        assert (r.returncode, r.stdout) == (2, ""), args
        assert r.stderr.startswith("error: masses sum to 0"), (args, r.stderr)


def test_a_zero_dimensional_grid_payload_exits_2(workdir):
    payload = {"family": "grid", "dim": 0, "masses": [{"point": [], "mass": "1"}]}
    (workdir / "dim0.json").write_text(json.dumps(payload))
    kinds = ("lemma", "df", "sklar", "margins", "copula")
    for args in (*(("verify", kind, "dim0.json") for kind in kinds), ("extract", "dim0.json")):
        r = run_cli(*args, cwd=workdir)
        assert (r.returncode, r.stdout) == (2, ""), args
        assert r.stderr == "error: mass 1: empty point\n", (args, r.stderr)


def test_a_grid_mass_point_that_is_not_a_list_exits_2(workdir):
    for name, point in (("string", "12"), ("object", {"3": 0})):
        payload = {"family": "grid", "dim": 2, "masses": [{"point": point, "mass": "1"}]}
        (workdir / f"{name}.json").write_text(json.dumps(payload))
        for args in (("verify", "df", f"{name}.json"), ("extract", f"{name}.json")):
            r = run_cli(*args, cwd=workdir)
            assert (r.returncode, r.stdout) == (2, ""), args
            assert r.stderr == "error: mass 1: expected a list as its point\n", (args, r.stderr)


def test_values_starting_with_a_dash_follow_a_double_dash(workdir):
    # G rises linearly from -1 at x = -2 to 1 at x = 2
    knots = [{"x": "-2", "left": "-1", "value": "-1"}, {"x": "2", "left": "1", "value": "1"}]
    (workdir / "signed.json").write_text(json.dumps({"knots": knots}))
    (workdir / "neg.csv").write_text("-1,0\n1,1\n")
    assert run_cli("ingest", "neg.csv", "-o", "neg.json", cwd=workdir).returncode == 0
    for args, out in (
        (("eval", "signed.json", "--", "-1/2"), "-1/4\n"),
        (("eval", "neg.json", "--", "-inf,0"), "0\n"),
        (("eval", "neg.json", "--", "-1/2,0"), "1/2\n"),
        (("quantile", "signed.json", "--", "-1/2"), "-1\n"),
        (("quantile", "signed.json", "--right-limit", "--", "-1/2"), "-1\n"),
    ):
        r = run_cli(*args, cwd=workdir)
        assert (r.returncode, r.stdout) == (0, out), args
    # without the "--" the value reads as an unknown option
    r = run_cli("eval", "signed.json", "-1/2", cwd=workdir)
    assert (r.returncode, r.stdout) == (2, "") and "usage:" in r.stderr


def test_internal_error_exits_3(workdir, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "lemma_report", broken)
    assert cli.main(["verify", "lemma", str(workdir / "g_flat.json")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_verify_df_and_copula_and_margins(workdir):
    run_cli("ingest", "rows.csv", "-o", "emp.json", cwd=workdir)
    assert verdict("verify", "df", "emp.json", "--cuboids", "50", cwd=workdir) == (0, True)
    assert verdict("verify", "margins", "emp.json", cwd=workdir) == (1, False)
    assert verdict("verify", "copula", "emp.json", "--cuboids", "50", cwd=workdir) == (1, False)
    assert verdict("verify", "margins", "unif2.json", cwd=workdir) == (0, True)
    assert verdict("verify", "copula", "unif2.json", "--cuboids", "50", cwd=workdir) == (0, True)


def test_verify_df_flags_corrupted_payload(workdir):
    """A leniently loaded three-margin lower-bound payload fails the df axioms."""
    g_id = json.loads(G_ID_JSON)
    (workdir / "bad3.json").write_text(
        json.dumps({"family": "countermonotone", "dim": 3, "margins": [g_id] * 3})
    )
    r = run_cli("verify", "df", "bad3.json", "--cuboids", "100", "--seed", "7", cwd=workdir)
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["pass"] is False and report["volume_violations"]


def test_payload_with_a_wrong_dim_exits_2(workdir):
    (workdir / "dim5.json").write_text(
        json.dumps({"family": "empirical", "dim": 5, "rows": [["0", "1"], ["1", "0"]]})
    )
    r = run_cli("verify", "df", "dim5.json", cwd=workdir)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == 'error: empirical payload needs "dim": 2, the dimension of its data; got 5\n'


def test_ingest_round_trip_identity(workdir):
    r1 = run_cli("ingest", "rows.csv", cwd=workdir)
    assert r1.returncode == 0
    payload = json.loads(r1.stdout)
    assert payload == {"family": "empirical", "dim": 2, "rows": [["0", "0"], ["1", "1"]]}
    # decimal CSV parses exactly and re-emits canonically
    (workdir / "dec.csv").write_text("0.25,0.5\n")
    r2 = run_cli("ingest", "dec.csv", cwd=workdir)
    assert json.loads(r2.stdout)["rows"] == [["1/4", "1/2"]]


def test_ingest_header_flag(workdir):
    (workdir / "hdr.csv").write_text("x,y\n0,0\n1,1\n")
    with_header = run_cli("ingest", "hdr.csv", "--has-header", cwd=workdir)
    plain = run_cli("ingest", "rows.csv", cwd=workdir)
    assert with_header.returncode == 0
    assert with_header.stdout == plain.stdout


def test_ingest_ragged_exits_2(workdir):
    (workdir / "bad.csv").write_text("0,0\n1\n")
    r = run_cli("ingest", "bad.csv", cwd=workdir)
    assert r.returncode == 2
    assert "row 2: expected 2 columns" in r.stderr


def test_ingest_huge_exponent_exits_2(workdir):
    """A cell whose value needs more digits than ints may print is refused, not a crash."""
    (workdir / "huge.csv").write_text("1e5000,0\n1,1\n")
    r = run_cli("ingest", "huge.csv", cwd=workdir)
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "exponent too large" in r.stderr
    assert r.stdout == ""


# underscores, spaces around "/" and non-ASCII digits: what some Python's Fraction takes
OFF_GRAMMAR = ["1_000", "1 / 2", "\u0663", "\uff11"]


@pytest.mark.parametrize("text", OFF_GRAMMAR)
def test_scalars_off_the_grammar_exit_2_in_payloads_and_points(workdir, text):
    (workdir / "odd.json").write_text(G_ID_JSON.replace('"x": "1"', json.dumps({"x": text})[1:-1]))
    r = run_cli("eval", "odd.json", "0", cwd=workdir)
    assert (r.returncode, r.stdout) == (2, "")
    assert "cannot parse exact rational" in r.stderr
    for args in (("eval", "g_id.json", text), ("eval", "unif2.json", f"0,{text}"), ("quantile", "g_id.json", text)):
        r = run_cli(*args, cwd=workdir)
        assert (r.returncode, r.stdout) == (2, ""), args
        assert "cannot parse exact rational" in r.stderr, args


def test_an_unquoted_exponent_past_the_float_range_loads_exactly(workdir):
    (workdir / "wide.json").write_text(G_ID_JSON.replace('"x": "1"', '"x": 1e400'))
    r = run_cli("eval", "wide.json", "5e399", cwd=workdir)
    assert (r.returncode, r.stdout, r.stderr) == (0, "1/2\n", "")


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_a_json_constant_is_refused_as_written(workdir, constant):
    (workdir / "constant.json").write_text(G_ID_JSON.replace('"x": "1"', f'"x": {constant}'))
    r = run_cli("eval", "constant.json", "1/2", cwd=workdir)
    assert (r.returncode, r.stdout) == (2, "")
    assert f"cannot parse exact rational from '{constant}'" in r.stderr


def test_ingest_reads_a_csv_with_a_byte_order_mark(workdir):
    (workdir / "bom.csv").write_bytes(b"\xef\xbb\xbf0,0\n1,1\n")
    r = run_cli("ingest", "bom.csv", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, run_cli("ingest", "rows.csv", cwd=workdir).stdout)


def test_payload_with_a_byte_order_mark_loads(workdir):
    (workdir / "bom.json").write_bytes(b"\xef\xbb\xbf" + G_BERN_JSON.encode())
    r = run_cli("eval", "bom.json", "0.5", cwd=workdir)
    assert (r.returncode, r.stdout) == (0, "1/2\n")


def test_a_file_that_is_not_utf8_exits_2(workdir):
    # UTF-16 starts with the bytes ff fe, which open no UTF-8 character
    (workdir / "wide.json").write_bytes(G_BERN_JSON.encode("utf-16"))
    (workdir / "wide.csv").write_bytes("0,0\n1,1\n".encode("utf-16"))
    for args in (("eval", "wide.json", "1"), ("ingest", "wide.csv")):
        r = run_cli(*args, cwd=workdir)
        assert (r.returncode, r.stdout) == (2, ""), args
        assert r.stderr.startswith(f"error: cannot read {args[1]}: 'utf-8' codec can't decode"), r.stderr


def test_a_json_integer_past_the_digit_limit_exits_2(workdir):
    # json refuses it with a plain ValueError where int has a digit limit; without one the dim check refuses it
    text = (workdir / "unif2.json").read_text().replace('"dim": 2', '"dim": 1' + "0" * 4999)
    (workdir / "dim.json").write_text(text)
    r = run_cli("eval", "dim.json", "1", cwd=workdir)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: "), r.stderr


def test_reports_byte_identical_for_fixed_seed(workdir):
    run_cli("ingest", "rows.csv", "-o", "emp.json", cwd=workdir)
    args = ("verify", "copula", "emp.json", "--seed", "11", "--cuboids", "100")
    first = run_cli(*args, cwd=workdir)
    second = run_cli(*args, cwd=workdir)
    assert first.stdout and first.stdout == second.stdout
    assert json.loads(first.stdout)["pass"] is False
    assert first.returncode == second.returncode == 1


def test_main_builds_one_parser_and_keeps_no_state(workdir, monkeypatch, capsys):
    """One process runs a mixed sequence of ``main`` calls; each prints what a fresh child prints.

    The parser is built on the first call only, so a default or flag of an
    earlier call, or a usage error, must not carry over to a later one.
    """
    (workdir / "counter3.json").write_text(
        json.dumps({"family": "countermonotone", "dim": 3, "margins": [json.loads(G_ID_JSON)] * 3})
    )
    calls = [
        ("verify", "copula", "counter3.json", "--seed", "5", "--max-witnesses", "3"),
        ("verify", "copula", "counter3.json"),
        ("quantile", "g_bern.json", "0.5", "--right-limit"),
        ("verify", "copula", "counter3.json", "--cuboids"),
        ("quantile", "g_bern.json", "0.5"),
        ("verify", "copula", "counter3.json"),
    ]
    built = []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.chdir(workdir)
    for argv in calls:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        child = run_cli(*argv, cwd=workdir)
        assert (code, capsys.readouterr().out) == (child.returncode, child.stdout), argv
    assert built == [1]
    assert build_parser() is not build_parser()


def test_usage_error_exits_2():
    r = run_cli("verify", "nonsense-kind", "x.json")
    assert r.returncode == 2


def test_each_verify_kind_refuses_every_option_it_does_not_read(workdir):
    unread = [(k, o) for k, reads in VERIFY_READS.items() for o in VERIFY_VALUES if o not in reads]
    assert len(unread) == 7
    for kind, option in unread:
        path = "g_flat.json" if kind == "lemma" else "unif2.json"
        r = run_cli("verify", kind, path, option, str(VERIFY_VALUES[option]), cwd=workdir)
        assert (r.returncode, r.stdout) == (2, ""), (kind, option)
        assert f"unrecognized arguments: {option} " in r.stderr, (kind, option)


# per verify kind, one option it does not take; copula takes all three, so it gets quantile's flag
UNTAKEN = {"lemma": "--seed", "df": "--grid", "sklar": "--seed", "margins": "--cuboids", "copula": "--right-limit"}


@pytest.mark.parametrize("kind", sorted(VERIFY_READS))
def test_an_option_a_kind_does_not_take_is_refused_with_that_kinds_usage(kind, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    path = "g_flat.json" if kind == "lemma" else "unif2.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", kind, path, UNTAKEN[kind], "1"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith(f"usage: copulacheck verify {kind} [-h] ")
    assert err.endswith(f"\ncopulacheck verify {kind}: error: unrecognized arguments: {UNTAKEN[kind]} 1\n")


@pytest.mark.parametrize(
    "argv, prog",
    [
        (["quantile", "g_bern.json", "1/2", "--seed", "1"], "copulacheck quantile"),
        (["eval", "unif2.json", "0,0", "extra"], "copulacheck eval"),
        (["verify", "--bogus", "sklar", "unif2.json"], "copulacheck verify"),
    ],
)
def test_an_argument_a_command_does_not_take_is_refused_with_its_usage(argv, prog, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith(f"usage: {prog} [-h] ") and f"\n{prog}: error: unrecognized arguments: " in err


def test_each_verify_kind_passes_the_options_it_reads_to_its_check(workdir, monkeypatch, capsys):
    """Each kind's report is the library's at the given values, and each value shows in it."""
    g_id = json.loads(G_ID_JSON)
    counter3 = json.dumps({"family": "countermonotone", "dim": 3, "margins": [g_id] * 3})
    (workdir / "counter3.json").write_text(counter3)
    flat, df = load_payload(G_FLAT_JSON), load_payload(counter3)
    copula = extract_copula(df)
    checks = {
        "lemma": lambda o: lemma_report(flat, *GridSpec(o["--grid"]).lemma_grids(flat), max_witnesses=20),
        "df": lambda o: check_df_axioms(df, o["--cuboids"], o["--seed"], max_witnesses=20),
        "sklar": lambda o: verify_sklar_identity(df, GridSpec(o["--grid"]), max_witnesses=20),
        "margins": lambda o: verify_uniform_margins(copula, GridSpec(o["--grid"]), max_witnesses=20),
        "copula": lambda o: verify_copula_axioms(
            copula, o["--cuboids"], o["--seed"], GridSpec(o["--grid"]), max_witnesses=20
        ),
    }
    monkeypatch.chdir(workdir)
    for kind, reads in VERIFY_READS.items():
        given = {**VERIFY_DEFAULTS, **{option: VERIFY_VALUES[option] for option in reads}}
        want = report_to_json(checks[kind](given))
        for option in reads:
            assert report_to_json(checks[kind]({**given, option: VERIFY_DEFAULTS[option]})) != want
        argv = ["verify", kind, "g_flat.json" if kind == "lemma" else "counter3.json"]
        code = cli.main([*argv, *(arg for option in reads for arg in (option, str(given[option])))])
        assert (code, capsys.readouterr().out) == (1 if '"pass": false' in want else 0, want), kind


def test_a_value_past_the_digit_limit_exits_2(workdir):
    """A value with more digits than an int may print is refused, not a crash.

    Each margin of the product holds a level with a 2,501-digit denominator,
    which loads; the value at (1, 1) has a 5,001-digit one.
    """
    q = "1" + "0" * 2500
    knots = [{"x": "1", "left": "0", "value": f"1/{q}"}, {"x": "2", "left": "1", "value": "1"}]
    margin = {"knots": knots}
    (workdir / "digits.json").write_text(json.dumps({"family": "product", "dim": 2, "margins": [margin] * 2}))
    assert run_cli("eval", "digits.json", "2,1", cwd=workdir).stdout == f"1/{q}\n"
    r = run_cli("eval", "digits.json", "1,1", cwd=workdir)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: value too large to print: over 4300 digits\n"
