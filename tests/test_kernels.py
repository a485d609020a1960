"""The batch kernels of ``MonotoneFn`` against the knot-walk oracles in ``helpers``.

``eval_many``, ``gen_inverse_many`` and ``gen_inverse_right_many``, and the
single-point ``eval``, ``gen_inverse`` and ``gen_inverse_right`` that call
them, must equal ``walk_eval`` and ``walk_inverse`` element by element, in
value and in type, in any input order; a bad element anywhere must raise what
the first bad element calls for; ``lemma_report`` must equal its oracle; and
the kernel tables must stay out of loading, equality, hashing, ``repr`` and
payloads.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from copulacheck import (
    DomainError,
    GridSpec,
    MonotoneFn,
    SplitMix64,
    ValidationError,
    lemma_report,
    uniform_cdf,
)
from copulacheck.serialize import df_to_payload, dumps_payload, load_payload, monotone_to_payload
from helpers import (
    composed_dfs,
    monotone_fns,
    oracle_lemma_report,
    random_monotone,
    walk_eval,
    walk_inverse,
)

F = Fraction
NEG_INF, POS_INF = float("-inf"), float("inf")
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def _between(values):
    """The sorted distinct values, their midpoints, and one unit outside each end."""
    values = sorted(set(values))
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return sorted({values[0] - 1, *values, *mids, values[-1] + 1})


def _orders(points, rng):
    """The points sorted, reversed, shuffled, and shuffled with repeats."""
    shuffled = list(points)
    rng.shuffle(shuffled)
    repeated = points + rng.choices(points, k=len(points))
    rng.shuffle(repeated)
    return [list(points), list(reversed(points)), shuffled, repeated]


def _same_elementwise(got, want):
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


def _outcome(call):
    """The result of ``call()``, or the type of the exception it raised."""
    try:
        return call()
    except (ValidationError, DomainError) as exc:
        return type(exc)


def _check_kernels(fn: MonotoneFn, rng: random.Random) -> None:
    xs = _between(fn.knot_xs())
    c, d = fn.inf_value, fn.sup_value
    levels = [u for u in _between(fn.critical_levels()) if c <= u <= d]
    # ints take the same type check as Fractions
    for order in _orders([NEG_INF, POS_INF, int(xs[0]), *xs], rng):
        want = [walk_eval(fn, x) for x in order]
        _same_elementwise(fn.eval_many(order), want)
        _same_elementwise([fn.eval(x) for x in order], want)
    for order in _orders([*levels, *{int(u) for u in levels if u == int(u)}], rng):
        for strict, batch, point in (
            (False, fn.gen_inverse_many, fn.gen_inverse),
            (True, fn.gen_inverse_right_many, fn.gen_inverse_right),
        ):
            want = [walk_inverse(fn, u, strict) for u in order]
            _same_elementwise(batch(order), want)
            _same_elementwise([point(u) for u in order], want)


def _check_errors(fn: MonotoneFn, rng: random.Random) -> None:
    """A bad element anywhere raises what its first bad element calls for.

    A level that is not an exact rational is a ValidationError, one outside
    [inf G, sup G] a DomainError; a point that is neither an exact rational
    nor an infinity is a ValidationError.
    """
    xs = list(fn.knot_xs())
    levels = list(fn.critical_levels())
    below, above = fn.inf_value - 1, fn.sup_value + F(1, 3)
    for bad in ([0.5], [NEG_INF], [below], [above], [0.5, above], [above, 0.5]):
        want = ValidationError if isinstance(bad[0], float) else DomainError
        at = rng.randint(0, len(levels))
        us = levels[:at] + bad + levels[at:]
        for batch, point in (
            (fn.gen_inverse_many, fn.gen_inverse),
            (fn.gen_inverse_right_many, fn.gen_inverse_right),
        ):
            assert _outcome(lambda: batch(us)) is want
            assert _outcome(lambda: point(bad[0])) is want
    for bad in (0.5, float("nan"), "1"):
        at = rng.randint(0, len(xs))
        points = xs[:at] + [bad] + xs[at:]
        assert _outcome(lambda: fn.eval_many(points)) is ValidationError
        assert _outcome(lambda: fn.eval(bad)) is ValidationError


@given(monotone_fns(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_kernels_equal_point_wise_methods(fn, seed):
    rng = random.Random(seed)
    _check_kernels(fn, rng)
    _check_errors(fn, rng)


def test_kernels_on_seeded_corpus():
    rng = SplitMix64(2026)
    shuffle = random.Random(2026)
    for _ in range(60):
        fn = random_monotone(rng, max_knots=8)
        _check_kernels(fn, shuffle)
        _check_errors(fn, shuffle)


def test_kernels_on_empty_input(g_flat):
    assert g_flat.eval_many([]) == g_flat.gen_inverse_many([]) == []
    assert g_flat.gen_inverse_right_many(iter(())) == []


# -- lemma report against its point-wise oracle -----------------------------------


@given(monotone_fns(), st.integers(1, 12), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_lemma_report_matches_oracle(fn, m, seed):
    us, xs = GridSpec(m).lemma_grids(fn)
    assert lemma_report(fn, us, xs) == oracle_lemma_report(fn, us, xs)
    # any order, repeats, and ints among the levels
    rng = random.Random(seed)
    us, xs = list(us), list(xs)
    us += [int(u) for u in us if u == int(u)]
    rng.shuffle(us)
    rng.shuffle(xs)
    assert lemma_report(fn, us, xs + xs[:3]) == oracle_lemma_report(fn, us, xs + xs[:3])


def test_lemma_report_matches_oracle_on_seeded_corpus():
    rng = SplitMix64(7)
    for _ in range(40):
        fn = random_monotone(rng)
        us, xs = GridSpec(10).lemma_grids(fn)
        assert lemma_report(fn, us, xs) == oracle_lemma_report(fn, us, xs)


@pytest.mark.parametrize("name", ["flat.json", "bern.json"])
@pytest.mark.parametrize("m", [8, 20])
def test_lemma_report_matches_oracle_on_golden_inputs(name, m):
    fn = load_payload((GOLDEN_INPUTS / name).read_text(encoding="utf-8"))
    us, xs = GridSpec(m).lemma_grids(fn)
    assert lemma_report(fn, us, xs) == oracle_lemma_report(fn, us, xs)


def test_lemma_report_raises_as_oracle(g_bern):
    for us, xs in (
        ([F(1, 2), F(2), 0.5], [F(0)]),
        ([F(1, 2), 0.5, F(2)], [F(0)]),
        ([F(1, 2)], [F(0), POS_INF]),
        ([F(-1)], [0.5]),
    ):
        want = _outcome(lambda: oracle_lemma_report(g_bern, us, xs))
        assert want in (ValidationError, DomainError)
        assert _outcome(lambda: lemma_report(g_bern, us, xs)) is want


# -- laziness ------------------------------------------------------------------------


@given(composed_dfs())
@settings(max_examples=20, deadline=None)
def test_loading_builds_no_kernel_tables(df):
    loaded = load_payload(dumps_payload(df_to_payload(df)))
    assert all(m._sweep is None for m in loaded.margins)
    fn = load_payload(dumps_payload(monotone_to_payload(df.margins[0])))
    assert fn._sweep is None


@given(monotone_fns())
@settings(max_examples=30, deadline=None)
def test_kernel_tables_take_no_part_in_identity(fn):
    twin = MonotoneFn(fn.knots)
    before = (hash(fn), repr(fn), json.dumps(monotone_to_payload(fn)))
    fn.gen_inverse_right_many(fn.critical_levels())
    assert fn._sweep is not None and twin._sweep is None
    assert fn == twin and twin == fn
    assert (hash(fn), repr(fn), json.dumps(monotone_to_payload(fn))) == before
    assert hash(twin) == hash(fn) and repr(twin) == repr(fn)


@pytest.mark.parametrize(
    "method", ["eval", "gen_inverse", "gen_inverse_right", "gen_inverse_left_limit"]
)
def test_single_point_methods_go_through_the_kernels(method):
    fn = uniform_cdf()
    assert getattr(fn, method)(F(1, 2)) == F(1, 2)
    assert fn._sweep is not None
