import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from copulacheck import NEG_INF, POS_INF, ValidationError, fmt, parse_ext, parse_scalar, scalars
from copulacheck.scalars import NEG_PAIR, POS_PAIR, as_ext, as_pairs, as_scalar, is_finite, pair_value


def test_decimal_strings_parse_exactly():
    assert parse_scalar("0.3") == Fraction(3, 10)
    assert parse_scalar("-0.25") == Fraction(-1, 4)
    assert parse_scalar("3/10") == Fraction(3, 10)
    assert parse_scalar(" 7 ") == Fraction(7)


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_scalar("abc")
    with pytest.raises(ValidationError):
        parse_scalar("1/0")
    with pytest.raises(ValidationError):
        parse_ext("nan")


@pytest.mark.parametrize(
    "text", ["1_000", "1 / 2", "1/ 2", "\u0663", "\uff11", "1e5_0", "0x10", ".", "1/2e3", "+-1", "1.5/2"]
)
def test_parse_holds_to_the_ascii_grammar(text):
    with pytest.raises(ValidationError, match="cannot parse exact rational"):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["+3/4", "-1/2", "1.", ".5", "-.5E-3", "+2e+1", "007"])
def test_parse_accepts_every_form_of_the_grammar(text):
    assert parse_scalar(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1e4301", "1e5000", "-2.5E+4300", ".1e-4299", "1e-99999"])
def test_parse_refuses_exponents_past_the_digit_limit(text):
    with pytest.raises(ValidationError, match="exponent too large"):
        parse_scalar(text)


def test_exponent_check_runs_before_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction was called")

    monkeypatch.setattr(scalars, "Fraction", refuse)
    with pytest.raises(ValidationError, match="exponent too large"):
        parse_scalar("1e99999")


@pytest.mark.parametrize("text", ["1e4299", "1e-4299", "9.9e4297", "12/5", "0.5e3"])
def test_parse_accepts_exponents_within_the_limit_and_prints_them(text):
    value = parse_scalar(text)
    assert value == Fraction(text)
    assert Fraction(fmt(value)) == value


_DIGITS = st.text("0123456789", min_size=1, max_size=30)
_SIGNS = st.sampled_from(["", "+", "-"])


@st.composite
def grammar_texts(draw):
    """A string of the scalar grammar whose exponent, if any, lies far within the digit bound."""
    if draw(st.booleans()):
        body = f"{draw(_SIGNS)}{draw(_DIGITS)}/{draw(_DIGITS)}"
    else:
        whole, decimals = draw(_DIGITS), draw(_DIGITS)
        mantissa = draw(st.sampled_from([whole, f"{whole}.", f".{decimals}", f"{whole}.{decimals}"]))
        exponent = draw(st.sampled_from(["", "e", "E"]))
        if exponent:
            exponent += f"{draw(_SIGNS)}{draw(st.integers(0, 400)):0{draw(st.integers(1, 5))}d}"
        body = f"{draw(_SIGNS)}{mantissa}{exponent}"
    return draw(st.sampled_from(["", " "])) + body + draw(st.sampled_from(["", "\n"]))


@given(grammar_texts())
@settings(max_examples=300, deadline=None)
def test_parse_agrees_with_fraction_on_the_grammar(text):
    try:
        want = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ValidationError, match="cannot parse exact rational"):
            parse_scalar(text)
    else:
        got = parse_scalar(text)
        assert type(got) is Fraction and got == want


def test_parse_ext_infinities():
    assert parse_ext("-inf") == NEG_INF
    assert parse_ext("+inf") == POS_INF
    assert parse_ext("inf") == POS_INF
    assert parse_ext("0.5") == Fraction(1, 2)


def test_the_digit_limit_falls_back_to_4300_where_python_has_none(monkeypatch):
    # Python 3.10.0-3.10.6 have neither sys.get_int_max_str_digits nor the default in int_info
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.setattr(sys, "int_info", SimpleNamespace(bits_per_digit=30, sizeof_digit=4))
    assert parse_scalar("1e3") == 1000
    assert parse_scalar("1e4299") == 10**4299
    with pytest.raises(ValidationError, match="more than 4300 digits"):
        parse_scalar("1e4301")


def test_fmt_refuses_a_value_past_the_digit_limit():
    assert fmt(Fraction(1, 10**4299)) == "1/1" + "0" * 4299
    with pytest.raises(ValidationError, match="value too large to print: over 4300 digits"):
        fmt(Fraction(1, 10**4300))


def test_total_order_across_infinities():
    assert NEG_INF < Fraction(-(10**30)) < Fraction(10**30) < POS_INF
    assert sorted([POS_INF, Fraction(1, 2), NEG_INF]) == [NEG_INF, Fraction(1, 2), POS_INF]


def test_fmt_canonical():
    assert fmt(Fraction(4, 25)) == "4/25"
    assert fmt(Fraction(0)) == "0"
    assert fmt(Fraction(-7, 3)) == "-7/3"
    assert fmt(NEG_INF) == "-inf"
    assert fmt(POS_INF) == "+inf"


@given(st.one_of(st.sampled_from([NEG_INF, POS_INF]), st.fractions()))
def test_pair_format_round_trips_every_extended_scalar(x):
    [pair] = as_pairs([x])
    a, b = pair
    assert type(a) is int and type(b) is int
    assert b > 0 or pair == (NEG_PAIR if x < 0 else POS_PAIR)
    value = pair_value(pair)
    assert type(value) is type(x) and value == x


def test_pair_format_of_the_infinities():
    assert as_pairs([NEG_INF, Fraction(-3, 6), 2, POS_INF]) == [(-1, 0), (-1, 2), (2, 1), (1, 0)]
    assert (NEG_PAIR, POS_PAIR) == ((-1, 0), (1, 0))
    assert pair_value((-1, 0)) == NEG_INF and pair_value((1, 0)) == POS_INF
    assert pair_value((2, 4)) == Fraction(1, 2)
    with pytest.raises(ValidationError):
        as_pairs([0.5])


def test_coercions_reject_floats():
    with pytest.raises(ValidationError):
        as_scalar(0.5)
    with pytest.raises(ValidationError):
        as_ext(0.5)
    assert as_ext(POS_INF) == POS_INF
    assert as_scalar(3) == Fraction(3)
    assert is_finite(Fraction(1)) and not is_finite(POS_INF)
