"""Verdicts that must not move under maps of the input that leave its copula alone.

A strictly increasing map of one axis changes a df's coordinates but not its
copula: the margin G_i becomes G_i o h_i^{-1}, whose values, critical levels
and quantile round trips are G_i's.  So ``verify copula`` and ``verify
margins``, which read the copula on its level grid, print the same bytes
after the rational affine map x -> a x + b (a > 0) on each axis.  The map
lives here, on the df's own data (knot abscissae, rows, mass points).

A counting df is a weighted set of rows, so the order of a payload's rows or
masses is not part of it: every ``verify`` kind prints the same bytes, and
exits with the same code, after a shuffle.

Each run goes through ``cli.main`` in process, so the expected output is the
untouched input's own report.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from copulacheck import EmpiricalDf, GridDf, Knot, MonotoneFn, ValidationError, cli
from copulacheck.serialize import df_to_payload, dumps_payload, load_payload
from helpers import five_family_dfs

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
DF_INPUTS = sorted(
    p.name for p in GOLDEN_INPUTS.glob("*.json") if "family" in json.loads(p.read_text(encoding="utf-8"))
)
COUNTING_INPUTS = [
    name
    for name in DF_INPUTS
    if json.loads((GOLDEN_INPUTS / name).read_text(encoding="utf-8"))["family"] in ("empirical", "grid")
]
VERIFY_KINDS = ("sklar", "copula", "margins", "df")
# x -> 3x + 1/7, 2x/5 - 4 and 7x/2 + 11 on axes 1, 2 and 3
GOLDEN_MAP = ((F(3), F(1, 7)), (F(2, 5), F(-4)), (F(7, 2), F(11)))

affine_maps = st.lists(
    st.tuples(
        st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    ),
    min_size=3,
    max_size=3,
)


def mapped(df, maps):
    """``df`` with x -> a x + b on each axis, for ``(a, b)`` in ``maps``, a > 0."""

    def point(coords):
        return tuple(a * x + b for x, (a, b) in zip(coords, maps))

    if isinstance(df, EmpiricalDf):
        return EmpiricalDf(tuple(map(point, df.rows)))
    if isinstance(df, GridDf):
        return GridDf(tuple((point(gm.point), gm.mass) for gm in df.masses))
    return type(df)(
        tuple(
            MonotoneFn(tuple(Knot(a * k.x + b, k.left, k.value) for k in g.knots))
            for g, (a, b) in zip(df.margins, maps)
        )
    )


def run_payload(text: str, *argv: str) -> tuple[int, str, str]:
    """``copulacheck *argv PATH`` on the payload ``text``, in process: exit code, stdout and stderr."""
    with tempfile.TemporaryDirectory(prefix="copulacheck-invariance-") as tmp:
        path = Path(tmp) / "df.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([*argv[:2], str(path), *argv[2:]])
    return code, out.getvalue(), err.getvalue()


def run_df(df, *argv: str) -> tuple[int, str, str]:
    return run_payload(dumps_payload(df_to_payload(df)), *argv)


@pytest.mark.parametrize("m", ["3", "20"])
@pytest.mark.parametrize("kind", ["copula", "margins"])
@pytest.mark.parametrize("name", DF_INPUTS)
def test_an_affine_map_of_each_axis_keeps_the_copula_reports_of_every_golden_df(name, kind, m):
    text = (GOLDEN_INPUTS / name).read_text(encoding="utf-8")
    argv = ("verify", kind, "--grid", m, "--max-witnesses", "-1")
    before = run_payload(text, *argv)
    try:
        df = load_payload(text)
    except ValidationError:  # the payload is refused, and there is no df to map
        assert before[0] == 2
        return
    assert run_df(mapped(df, GOLDEN_MAP), *argv) == before


@settings(max_examples=40, deadline=None)
@given(five_family_dfs(), affine_maps, st.sampled_from(["copula", "margins"]), st.sampled_from(["3", "20"]))
def test_an_affine_map_of_each_axis_keeps_the_copula_reports(df, maps, kind, m):
    """Lenient dfs included: a refusal (a margin that is not a cdf) is the same refusal after the map."""
    argv = ("verify", kind, "--grid", m, "--max-witnesses", "-1")
    assert run_df(mapped(df, maps), *argv) == run_df(df, *argv)


def shuffled(payload: dict, order) -> dict:
    """A counting payload with its rows or masses taken in the order of ``order``'s sort."""
    key = "rows" if payload["family"] == "empirical" else "masses"
    entries = payload[key]
    return {**payload, key: [entries[i] for i in sorted(range(len(entries)), key=order.__getitem__)]}


@pytest.mark.parametrize("kind", VERIFY_KINDS)
@pytest.mark.parametrize("name", COUNTING_INPUTS)
def test_shuffling_a_golden_counting_payload_changes_no_byte(name, kind):
    text = (GOLDEN_INPUTS / name).read_text(encoding="utf-8")
    payload = json.loads(text)
    reverse = list(range(len(payload.get("rows") or payload.get("masses")), 0, -1))
    argv = ("verify", kind, "--max-witnesses", "-1")
    assert run_payload(dumps_payload(shuffled(payload, reverse)), *argv) == run_payload(text, *argv)


@settings(max_examples=25, deadline=None)
@given(
    five_family_dfs().filter(lambda df: isinstance(df, (EmpiricalDf, GridDf))),
    st.sampled_from(VERIFY_KINDS),
    st.randoms(use_true_random=False),
)
def test_shuffling_a_counting_payload_changes_no_byte(df, kind, rng):
    payload = df_to_payload(df)
    order = list(range(len(payload.get("rows") or payload.get("masses"))))
    rng.shuffle(order)
    argv = ("verify", kind, "--max-witnesses", "-1")
    assert run_payload(dumps_payload(shuffled(payload, order)), *argv) == run_df(df, *argv)
