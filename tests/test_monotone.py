from fractions import Fraction

import pytest

from hypothesis import given, settings

from copulacheck import (
    DomainError,
    Knot,
    MonotoneFn,
    NEG_INF,
    POS_INF,
    ValidationError,
    discrete_cdf,
    lemma_report,
    make_monotone,
    monotone,
    uniform_cdf,
)
from copulacheck.scalars import as_pairs
from helpers import assert_matches_scan, grid, is_right_increase, knot_entries, merged, oracle_knots

F = Fraction


# -- construction ---------------------------------------------------------------


def test_valid_constructions(g_id, g_bern):
    assert g_id.inf_value == 0 and g_id.sup_value == 1
    assert g_bern.inf_value == 0 and g_bern.sup_value == 1
    assert uniform_cdf() == g_id


def _outcome(build, entries):
    """The knots ``build`` gives, or the type and message of its ValidationError."""
    try:
        return build(entries)
    except ValidationError as exc:
        return type(exc), str(exc)


@given(knot_entries())
@settings(max_examples=400, deadline=None)
def test_pair_validation_matches_the_fraction_oracle(entries):
    """Equal abscissae, crossing levels, int, float and wrong-shaped fields, and the empty list:
    the integer-pair checks raise what the ``Fraction`` compares raise, or both accept."""
    got = _outcome(lambda e: MonotoneFn(tuple(e)).knots, entries)
    assert got == _outcome(oracle_knots, entries)
    if isinstance(got, tuple) and got and isinstance(got[0], Knot):
        fn = MonotoneFn(tuple(entries))
        assert fn.knot_x_pairs() == tuple(x.as_integer_ratio() for x in fn.knot_xs())
        assert fn.critical_level_pairs() == tuple(u.as_integer_ratio() for u in fn.critical_levels())
        for entry, kept in zip(entries, fn.knots):
            exact = isinstance(entry, Knot) and all(type(v) is F for v in (entry.x, entry.left, entry.value))
            assert (kept is entry) == exact


def test_rejects_left_above_value():
    with pytest.raises(ValidationError, match="index 1"):
        make_monotone([(0, 0, 0), (1, 2, 1)])


def test_rejects_unsorted_abscissas():
    with pytest.raises(ValidationError, match="index 1"):
        make_monotone([(1, 0, 0), (0, 1, 1)])


def test_rejects_decreasing_across_knots():
    with pytest.raises(ValidationError, match="index 1"):
        make_monotone([(0, 0, F(3, 4)), (1, F(1, 2), 1)])


def test_rejects_empty():
    with pytest.raises(ValidationError):
        make_monotone([])


def test_degenerate_constant_accepted():
    const = make_monotone([(0, F(1, 3), F(1, 3))])
    assert const.inf_value == const.sup_value == F(1, 3)
    assert const.eval(F(-5)) == const.eval(F(5)) == F(1, 3)
    assert const.gen_inverse(F(1, 3)) == NEG_INF
    assert const.gen_inverse_right(F(1, 3)) == POS_INF


# -- evaluation -------------------------------------------------------------------


def test_eval_examples(g_id, g_bern):
    assert g_id.eval(F(1, 2)) == F(1, 2)
    assert g_bern.eval(F(1, 2)) == F(1, 2)
    assert g_bern.eval(NEG_INF) == 0
    assert g_bern.eval(POS_INF) == 1
    assert g_bern.eval(F(-3)) == 0
    assert g_bern.eval(F(3)) == 1
    # at a jump, the value from the right
    assert g_bern.eval(0) == F(1, 2)
    assert g_bern.eval(1) == 1


def test_eval_left_examples(g_id, g_bern):
    assert g_bern.eval_left(1) == F(1, 2)
    assert g_id.eval_left(F(1, 2)) == F(1, 2)
    assert g_bern.eval_left(0) == 0


def test_eval_interpolates_exactly(g_flat):
    # rising piece [3/2, 2) has slope 1
    assert g_flat.eval(F(7, 4)) == F(3, 4)
    assert g_flat.eval(F(1)) == F(1, 2)
    assert g_flat.eval_left(F(7, 4)) == F(3, 4)


def test_right_continuity_at_jump(g_bern):
    # value at the jump is the right limit, the left limit stays below
    assert g_bern.eval(0) == F(1, 2)
    assert g_bern.eval_left(0) == 0


# -- generalized inverses ----------------------------------------------------------


def test_gen_inverse_examples(g_id, g_bern):
    assert g_id.gen_inverse(F(1, 3)) == F(1, 3)
    assert g_bern.gen_inverse(F(3, 10)) == 0
    assert g_bern.gen_inverse(F(1, 2)) == 0
    assert g_bern.gen_inverse(0) == NEG_INF


def test_gen_inverse_right_examples(g_id, g_bern):
    assert g_bern.gen_inverse_right(F(1, 2)) == 1
    assert g_id.gen_inverse_right(F(1, 3)) == F(1, 3)
    assert g_bern.gen_inverse_right(1) == POS_INF


def test_gen_inverse_against_scan_oracle(g_id, g_bern, g_flat):
    for fn in (g_id, g_bern, g_flat):
        for u in merged(grid(0, 1, 10), fn.critical_levels()):
            assert_matches_scan(fn, u, fn.gen_inverse(u), strict=False)
            assert_matches_scan(fn, u, fn.gen_inverse_right(u), strict=True)


def test_gen_inverse_domain_errors(g_bern):
    with pytest.raises(DomainError):
        g_bern.gen_inverse(F(3, 2))
    with pytest.raises(DomainError):
        g_bern.gen_inverse_right(F(-1, 10))


def test_inverse_left_limit_examples(g_bern, g_flat):
    assert g_bern.gen_inverse_left_limit(F(1, 2)) == 0 == g_bern.gen_inverse(F(1, 2))
    assert g_bern.gen_inverse_left_limit(1) == 1 == g_bern.gen_inverse(1)
    # at the flat's level the inverse jumps from the left endpoint side
    assert g_flat.gen_inverse_left_limit(F(1, 2)) == g_flat.gen_inverse(F(1, 2)) == F(1, 2)
    with pytest.raises(DomainError):
        g_bern.gen_inverse_left_limit(0)


# -- round-trip identity ---------------------------------------------------------


def ff_section(fn, xs):
    """The round-trip section of the lemma report on points ``xs``."""
    ff = lemma_report(fn, us=[], xs=as_pairs(xs)).sections[3]
    assert ff.name == "ff" and ff.points == len(xs)
    return ff


def test_ff_identity_case(g_id):
    assert ff_section(g_id, [F(1, 2)]).witnesses == ()
    assert g_id.gen_inverse_right(g_id.eval(F(1, 2))) == F(1, 2)


def test_ff_flat_counterexample(g_flat):
    """At 7/10 (inside the flat) the round trip lands on the flat's right end."""
    (w,) = ff_section(g_flat, [F(7, 10)]).witnesses
    assert w == {"x": F(7, 10), "lhs": F(3, 2)}
    # independent confirmation with the 1/1000-step scan
    assert_matches_scan(g_flat, g_flat.eval(F(7, 10)), w["lhs"], strict=True, step=F(1, 1000))


def test_ff_flat_right_endpoint_holds(g_flat):
    assert ff_section(g_flat, [F(3, 2)]).witnesses == ()
    assert_matches_scan(g_flat, g_flat.eval(F(3, 2)), F(3, 2), strict=True, step=F(1, 1000))


def test_ff_equality_iff_right_increase(g_id, g_bern, g_flat):
    for fn in (g_id, g_bern, g_flat):
        xs = merged(grid(-1, 3, 16), fn.knot_xs())
        witnesses = ff_section(fn, xs).witnesses
        assert [w["x"] for w in witnesses] == [x for x in xs if not is_right_increase(fn, x)]
        assert all(w["lhs"] > w["x"] for w in witnesses)


# -- lemma_report -----------------------------------------------------------------


def test_lemma_report_identity(g_id):
    rep = lemma_report(g_id, us=as_pairs(grid(0, 1, 10)), xs=as_pairs(grid(0, 1, 10)))
    a, b, leftcont, ff = rep.sections
    assert not (a.witnesses or b.witnesses or leftcont.witnesses)
    # the constant tail beyond x=1 breaks the round trip at x=1 itself
    assert [w["x"] for w in ff.witnesses] == [1]
    assert rep.passed is False


def test_lemma_report_interior_grid_identity(g_id):
    rep = lemma_report(g_id, us=as_pairs(grid(0, 1, 10)), xs=as_pairs(grid(0, F(9, 10), 9)))
    assert rep.passed


def test_lemma_report_bernoulli(g_bern):
    rep = lemma_report(
        g_bern, us=as_pairs([F(3, 10), F(1, 2), F(9, 10)]), xs=as_pairs([F(-1), F(0), F(1, 2), F(1)])
    )
    a, b, leftcont, ff = rep.sections
    assert not (a.witnesses or b.witnesses or leftcont.witnesses)
    by_x = {w["x"]: w for w in ff.witnesses}
    assert by_x[F(1, 2)]["lhs"] == 1
    # every grid point of a purely discrete cdf fails the round trip
    assert set(by_x) == {F(-1), F(0), F(1, 2), F(1)}


def test_lemma_report_flat_witnesses(g_flat):
    """Witnesses are exactly the non-right-increase grid points.

    On grid(0, 2, 8) those are the flat's left endpoint and interior
    (1/2, 3/4, 1, 5/4) plus the top-level point x=2, as the structural oracle
    confirms; the flat's right endpoint 3/2 satisfies the round trip.
    """
    xs = grid(0, 2, 8)
    a, b, leftcont, ff = lemma_report(g_flat, us=as_pairs(grid(0, 1, 8)), xs=as_pairs(xs)).sections
    assert not (a.witnesses or b.witnesses or leftcont.witnesses)
    expected = {x for x in xs if not is_right_increase(g_flat, x)}
    assert expected == {F(1, 2), F(3, 4), F(1), F(5, 4), F(2)}
    assert {w["x"] for w in ff.witnesses} == expected


def test_lemma_report_rejects_out_of_range_levels(g_bern):
    with pytest.raises(DomainError):
        lemma_report(g_bern, us=as_pairs([F(2)]), xs=as_pairs([F(0)]))


@pytest.mark.parametrize("bad", [(1, 0), (-1, 0), (0, 0), (3, -2)])
def test_lemma_report_rejects_a_point_pair_without_a_positive_denominator(g_bern, bad, monkeypatch):
    walks = []
    monkeypatch.setattr(monotone, "_walk", lambda *args: walks.append(args))
    with pytest.raises(ValidationError, match="positive denominator"):
        lemma_report(g_bern, us=[(1, 2)], xs=[(0, 1), bad, (1, 1)])
    assert walks == []  # refused before any walk


@pytest.mark.parametrize("bad", [(-1, -2), (0, -1), (1, -1), (-3, -2), (0, 0)])
def test_a_level_pair_without_a_positive_denominator_is_refused_not_read(g_bern, bad, monkeypatch):
    """(-1, -2) is no level 1/2 and (0, -1) no level 0; only (1, 0) and (-1, 0), the infinities, lack one."""
    walks = []
    monkeypatch.setattr(monotone, "_walk", lambda *args: walks.append(args))
    message = rf"^level pair \({bad[0]}, {bad[1]}\) needs a positive denominator$"
    with pytest.raises(ValidationError, match=message):
        lemma_report(g_bern, us=[(1, 2), bad], xs=[(0, 1)])
    with pytest.raises(ValidationError, match="positive denominator"):
        g_bern.gen_inverse_right_pairs([bad])
    assert walks == []
    for inf in ((1, 0), (-1, 0)):
        with pytest.raises(DomainError, match="outside the range"):
            g_bern.gen_inverse_right_pairs([inf])


# -- helpers ------------------------------------------------------------------------


def test_discrete_cdf_matches_bernoulli(g_bern):
    assert discrete_cdf({0: F(1, 2), 1: F(1, 2)}) == g_bern
    with pytest.raises(ValidationError):
        discrete_cdf({0: F(1, 2)})


def test_critical_levels(g_flat):
    assert g_flat.critical_levels() == (0, F(1, 2), 1)
