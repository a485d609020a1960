from fractions import Fraction

import pytest

from copulacheck import (
    DomainError,
    GridSpec,
    ValidationError,
    comonotone_df,
    countermonotone_df,
    empirical_from_rows,
    extract_copula,
    make_monotone,
    product_df,
    uniform_cdf,
    verify_copula_axioms,
    verify_sklar_identity,
    verify_uniform_margins,
)
from helpers import grid

F = Fraction


@pytest.fixture
def f_unif2():
    u = uniform_cdf()
    return product_df([u, u])


@pytest.fixture
def emp2():
    return empirical_from_rows([(0, 0), (1, 1)])


# -- extraction and evaluation ---------------------------------------------------


def test_extract_product_is_the_product_copula(f_unif2):
    c = extract_copula(f_unif2)
    for s in grid(0, 1, 10):
        for t in grid(0, 1, 10):
            assert c.eval((s, t)) == s * t


def test_extract_comonotone_is_min():
    u = uniform_cdf()
    c = extract_copula(comonotone_df([u, u]))
    for s in grid(0, 1, 10):
        for t in grid(0, 1, 10):
            assert c.eval((s, t)) == min(s, t)


def test_extract_countermonotone_is_lower_bound():
    u = uniform_cdf()
    c = extract_copula(countermonotone_df(u, u))
    for s in grid(0, 1, 10):
        for t in grid(0, 1, 10):
            assert c.eval((s, t)) == max(s + t - 1, F(0))


def test_extract_empirical_discrete_break(emp2):
    c = extract_copula(emp2)
    assert c.eval((F(1, 2), F(1, 2))) == 1


def test_copula_eval_examples(f_unif2):
    u = uniform_cdf()
    c = extract_copula(f_unif2)
    assert c.eval((1, 1)) == 1
    assert c.eval((F(3, 10), F(1, 2))) == F(3, 20)
    cm = extract_copula(comonotone_df([u, u]))
    assert cm.eval((F(3, 10), F(1, 2))) == F(3, 10)


def test_copula_eval_domain(f_unif2):
    c = extract_copula(f_unif2)
    with pytest.raises(DomainError):
        c.eval((F(3, 2), F(1, 2)))
    with pytest.raises(DomainError):
        c.eval((F(1, 2),))


def test_copula_eval_grid_domain(f_unif2):
    c = extract_copula(f_unif2)
    bad = ([[F(1, 2)], [F(0), F(3, 2)]], [[F(-1, 2)], [F(1)]], [[F(1, 2)]], [[F(1, 2)]] * 3)
    for axes in bad:
        with pytest.raises(DomainError):
            list(c.eval_grid(axes))
    for levels in ([F(1, 2), F(3, 2)], [F(-1, 2)]):
        with pytest.raises(DomainError):
            c.axis_codes(0, levels)


def test_extract_rejects_non_cdf():
    from copulacheck import ProductDf

    sub = make_monotone([(0, 0, 0), (1, F(1, 2), F(1, 2))])
    # the class itself is lenient, so the sub-probability df exists; extraction
    # is where cdf-ness is enforced
    with pytest.raises(ValidationError, match="margin 1"):
        extract_copula(ProductDf((sub,)))


# -- factorization ------------------------------------------------------------------


def test_sklar_identity_continuous_margins_exact(f_unif2, g_flat):
    u = uniform_cdf()
    cases = [
        f_unif2,
        product_df([u, g_flat]),
        product_df([g_flat, g_flat, u]),
        comonotone_df([u, u]),
        comonotone_df([g_flat, u, g_flat]),
        countermonotone_df(g_flat, g_flat),
    ]
    for df in cases:
        report = verify_sklar_identity(df, grid=GridSpec(10))
        assert report.passed, df.family


def test_sklar_identity_empirical_witness(emp2):
    report = verify_sklar_identity(
        emp2, grid=GridSpec(6), box=((F(-1), F(-1)), (F(2), F(2)))
    )
    assert not report.passed
    by_point = {v["point"]: v for v in report.violations}
    witness = by_point[(F(1, 2), F(1, 2))]
    assert witness["expected"] == F(1, 2)
    assert witness["got"] == 1
    assert witness["deviation"] == F(1, 2)


def test_sklar_one_sided_bound_for_discrete(emp2):
    """Composition can only move mass up: C(F_1(x_1), ..., F_d(x_d)) >= F(x)."""
    from copulacheck import empirical_from_rows as emp, grid_df

    subjects = [
        emp2,
        emp([(0, 0), (0, 1), (1, 0), (1, 1), (F(1, 2), F(1, 2))]),
        grid_df([((0, 1), F(1, 2)), ((1, 0), F(1, 2))]),
    ]
    for df in subjects:
        c = extract_copula(df)
        for x in grid(-1, 2, 12):
            for y in grid(-1, 2, 12):
                lhs = df.eval((x, y))
                rhs = c.eval((c.margins[0].eval(x), c.margins[1].eval(y)))
                assert rhs >= lhs


def test_sklar_grid_includes_breakpoints(emp2):
    # even a resolution whose grid misses 1/2 catches the jump: breakpoints are merged
    report = verify_sklar_identity(emp2, grid=GridSpec(3))
    assert not report.passed


# -- uniform margins ------------------------------------------------------------------


def test_uniform_margins_pass_for_continuous(f_unif2, g_flat):
    u = uniform_cdf()
    for df in (f_unif2, comonotone_df([u, u]), product_df([g_flat, u])):
        report = verify_uniform_margins(extract_copula(df))
        assert report.passed


def test_uniform_margins_bernoulli_deviation(emp2):
    report = verify_uniform_margins(extract_copula(emp2))
    assert not report.passed
    v = next(v for v in report.violations if v["kind"] == "margin_1" and v["point"][0] == F(3, 10))
    assert v["got"] == F(1, 2)
    assert v["deviation"] == F(1, 5)


def test_uniform_margins_deviation_formula(emp2):
    """At a jump across level s the section sits at F_i(F_i^{-1}(s+0))."""
    c = extract_copula(emp2)
    report = verify_uniform_margins(c)
    for v in report.violations:
        axis = int(v["kind"].split("_")[1]) - 1
        s = v["point"][axis]
        m = c.margins[axis]
        assert v["got"] == m.eval(m.gen_inverse_right(s))


# -- copula axioms ---------------------------------------------------------------------


def test_copula_axioms_pass_for_continuous(f_unif2):
    report = verify_copula_axioms(extract_copula(f_unif2), n_cuboids=200, seed=11)
    assert report.passed


def test_copula_axioms_comonotone_touches_upper_bound():
    u = uniform_cdf()
    c = extract_copula(comonotone_df([u, u]))
    report = verify_copula_axioms(c, n_cuboids=200, seed=11)
    assert report.passed
    for s in grid(0, 1, 6):
        for t in grid(0, 1, 6):
            assert c.eval((s, t)) == min(s, t)


def test_copula_axioms_empirical_fails_upper_envelope(emp2):
    report = verify_copula_axioms(extract_copula(emp2), n_cuboids=50, seed=11)
    assert not report.passed
    v = next(
        v
        for v in report.violations
        if v["kind"] == "fh_upper" and v["point"] == (F(1, 2), F(1, 2))
    )
    assert v["got"] == 1
    assert v["expected"] == F(1, 2)


def test_copula_axioms_empirical_fails_grounded(emp2):
    """An atom at the support's lower end leaves mass on the zero face."""
    report = verify_copula_axioms(extract_copula(emp2), n_cuboids=50, seed=11)
    grounded = [v for v in report.violations if v["kind"] == "grounded"]
    assert grounded
    assert all(0 in v["point"] for v in grounded)


def test_copula_eval_monotone_on_grid(f_unif2, emp2):
    for df in (f_unif2, emp2):
        c = extract_copula(df)
        pts = grid(0, 1, 6)
        for s in pts:
            vals = [c.eval((s, t)) for t in pts]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert c.eval((1, 1)) == 1
