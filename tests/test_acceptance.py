"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single line ``ACCEPTANCE <n>: PASS/FAIL - <summary>`` (run
pytest with ``-s`` to see the lines as they happen; they also appear in the
captured output).  All tolerances are zero: rational arithmetic makes every
verdict an equality or an order comparison.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

from copulacheck import (
    CountermonotoneDf,
    Cuboid,
    SplitMix64,
    check_df_axioms,
    comonotone_df,
    empirical_from_rows,
    extract_copula,
    lemma_report,
    make_monotone,
    product_df,
    uniform_cdf,
    verify_copula_axioms,
    verify_sklar_identity,
    verify_uniform_margins,
    volume,
)
from copulacheck.mvdf import random_index_boxes
from copulacheck.sklar import GridSpec
from helpers import (
    assert_matches_scan,
    count_in_box,
    grid,
    is_right_increase,
    merged,
    random_monotone,
    random_rows,
    run_cli,
    walk_eval,
    walk_inverse,
)

F = Fraction

G_FLAT_KNOTS = [
    (0, 0, 0),
    (F(1, 2), F(1, 2), F(1, 2)),
    (F(3, 2), F(1, 2), F(1, 2)),
    (2, 1, 1),
]


@contextmanager
def criterion(n: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {summary}")


def test_criterion_1_lemma_suite_on_random_corpus():
    """200+ random monotone functions, merged grids, zero property violations."""
    with criterion(1, "inverse property suite on 200 random monotone functions"):
        start = time.perf_counter()
        rng = SplitMix64(12345)
        n_funcs = 200
        for _ in range(n_funcs):
            fn = random_monotone(rng)
            while fn.inf_value == fn.sup_value:  # constants have a one-point level grid
                fn = random_monotone(rng)
            c, d = fn.inf_value, fn.sup_value
            us = merged((c + F(k, 50) * (d - c) for k in range(51)), fn.critical_levels())
            lo, hi = fn.knot_xs()[0] - 1, fn.knot_xs()[-1] + 1
            xs = merged(grid(lo, hi, 50), fn.knot_xs())
            assert len(us) >= 50
            assert len(xs) >= 50
            a, b, leftcont, ff = lemma_report(fn, us, xs).sections
            assert not a.witnesses, f"G(G^-1(u)) >= u violated: {fn}"
            assert not b.witnesses, f"G^-1(G(x)) <= x violated: {fn}"
            assert not leftcont.witnesses, f"inverse left-continuity violated: {fn}"
            assert ff.points == len(xs)
            failing = [w["x"] for w in ff.witnesses]
            assert failing == [x for x in xs if not is_right_increase(fn, x)], fn
            for w in ff.witnesses:
                assert w["lhs"] > w["x"]
                assert w["lhs"] == walk_inverse(fn, walk_eval(fn, w["x"]), True), (fn, w)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"corpus run took {elapsed:.2f}s, budget is 10s"


def test_criterion_2_ff_counterexample_on_flat():
    """The flat piece breaks the round-trip identity exactly where expected."""
    with criterion(2, "round-trip counterexample at the flat piece, scan-verified"):
        g_flat = make_monotone(G_FLAT_KNOTS)
        ff = lemma_report(g_flat, us=[], xs=[F(7, 10), F(3, 2)]).sections[3]
        # only the point inside the flat fails; the flat's right end holds
        assert ff.points == 2
        assert ff.witnesses == ({"x": F(7, 10), "lhs": F(3, 2)},)
        # independent brute-force oracle with step 1/1000
        for x in (F(7, 10), F(3, 2)):
            assert_matches_scan(
                g_flat, walk_eval(g_flat, x), F(3, 2), strict=True, step=F(1, 1000)
            )


def test_criterion_3_volume_operator():
    """Reduction, counting oracle, additivity, and the negative-volume witness."""
    with criterion(3, "volume operator: d=1 reduction, box counts, additivity, corruption"):
        rng = SplitMix64(777)
        # (a) one-dimensional volumes reduce to a difference, 100 random intervals
        u = uniform_cdf()
        d1_subjects = [
            product_df([make_monotone(G_FLAT_KNOTS)]),
            empirical_from_rows([(x,) for x in sorted({F(rng.below(21), 20) for _ in range(12)})]),
        ]
        for _ in range(100):
            a = F(rng.below(1001), 1000)
            b = a + F(rng.below(1001), 1000)
            box = Cuboid((a,), (b,))
            for df in d1_subjects:
                assert volume(df, box) == df.eval((b,)) - df.eval((a,))

        # (b) empirical volumes equal direct box counts on a 50-row d=3 dataset
        rows = random_rows(SplitMix64(321), n=50, dim=3)
        emp3 = empirical_from_rows(rows)
        boxes = [b.cuboid() for b in random_index_boxes(seed=99, dim=3, count=100)]
        for box in boxes:
            assert volume(emp3, box) == F(count_in_box(rows, box.a, box.b), 50)

        # (c) bisection additivity on 100 random splits
        split_rng = SplitMix64(555)
        for box in boxes:
            axis = split_rng.below(3)
            t = F(split_rng.below(1001), 1000)
            mid = box.a[axis] + t * (box.b[axis] - box.a[axis])
            lower = Cuboid(box.a, tuple(mid if j == axis else c for j, c in enumerate(box.b)))
            upper = Cuboid(tuple(mid if j == axis else c for j, c in enumerate(box.a)), box.b)
            assert volume(emp3, box) == volume(emp3, lower) + volume(emp3, upper)

        # (d) the d=3 extension of the two-margin lower bound loses 2-increase
        bad = CountermonotoneDf((u, u, u))
        assert volume(bad, Cuboid((F(1, 2),) * 3, (F(1),) * 3)) == F(-1, 2)
        report = check_df_axioms(bad, n_cuboids=100, seed=7)
        assert not report.passed
        assert any(w["volume"] < 0 for w in report.sections[0].witnesses)


def test_criterion_4_sklar_identity(tmp_path):
    """Exact factorization for continuous margins; exact witness for discrete."""
    with criterion(4, "factorization exact for continuous margins, witness for discrete"):
        u = uniform_cdf()
        flat = make_monotone(G_FLAT_KNOTS)
        for build in (product_df, comonotone_df):
            for margin_fn in (u, flat):
                for d in (2, 3):
                    df = build([margin_fn] * d)
                    report = verify_sklar_identity(df, grid=GridSpec(20))
                    assert report.passed, (build.__name__, d, report.violations[:1])

        # discrete counterexample through the CLI contract
        (tmp_path / "rows.csv").write_text("0,0\n1,1\n")
        assert run_cli("ingest", "rows.csv", "-o", "emp.json", cwd=tmp_path).returncode == 0
        r = run_cli("verify", "sklar", "emp.json", "--max-witnesses", "500", cwd=tmp_path)
        assert r.returncode == 1
        report = json.loads(r.stdout)
        witness = next(
            v for v in report["violations"] if v["point"] == ["1/2", "1/2"]
        )
        assert witness["expected"] == "1/2" and witness["got"] == "1"


def test_criterion_5_uniform_margins():
    """Sections are exactly the diagonal for continuous margins; 1/5 off at 3/10."""
    with criterion(5, "uniform margins exact; Bernoulli margin deviates by 1/5 at 3/10"):
        u = uniform_cdf()
        flat = make_monotone(G_FLAT_KNOTS)
        for df in (product_df([u, u]), comonotone_df([u, flat]), product_df([flat, flat, u])):
            report = verify_uniform_margins(extract_copula(df))
            assert report.passed

        emp = empirical_from_rows([(0, 0), (1, 1)])
        report = verify_uniform_margins(extract_copula(emp))
        assert not report.passed
        v = next(
            v
            for v in report.violations
            if v["kind"] == "margin_1" and v["point"][0] == F(3, 10)
        )
        assert v["got"] == F(1, 2) and v["deviation"] == F(1, 5)


def test_criterion_6_copula_axioms():
    """Grounded, d-increasing, and envelope checks; exact envelope breach at 1/2."""
    with criterion(6, "copula axioms pass for continuous margins, envelope breach for discrete"):
        u = uniform_cdf()
        flat = make_monotone(G_FLAT_KNOTS)
        for df in (product_df([u, u]), comonotone_df([u, u]), product_df([flat, u])):
            report = verify_copula_axioms(extract_copula(df), n_cuboids=200, seed=11)
            assert report.passed

        emp = empirical_from_rows([(0, 0), (1, 1)])
        report = verify_copula_axioms(extract_copula(emp), n_cuboids=200, seed=11)
        assert not report.passed
        v = next(
            v
            for v in report.violations
            if v["kind"] == "fh_upper" and v["point"] == (F(1, 2), F(1, 2))
        )
        assert v["got"] == 1 and v["expected"] == F(1, 2)


def test_criterion_7_cli_contract(tmp_path):
    """Byte-determinism, ingest round trip, and the 0/1/2 exit code contract."""
    with criterion(7, "CLI determinism, round trip, exit codes 0/1/2"):
        (tmp_path / "rows.csv").write_text("0.25,0\n1,0.5\n0.25,1\n")
        (tmp_path / "g_id.json").write_text(
            '{"knots": [{"x": "0", "left": "0", "value": "0"},'
            ' {"x": "1", "left": "1", "value": "1"}]}\n'
        )
        (tmp_path / "unif2.json").write_text(
            json.dumps(
                {
                    "family": "product",
                    "dim": 2,
                    "margins": [json.loads((tmp_path / "g_id.json").read_text())] * 2,
                }
            )
        )

        # determinism: same inputs and seed give byte-identical reports
        assert run_cli("ingest", "rows.csv", "-o", "emp.json", cwd=tmp_path).returncode == 0
        args = ("verify", "copula", "emp.json", "--seed", "17", "--cuboids", "150")
        first, second = run_cli(*args, cwd=tmp_path), run_cli(*args, cwd=tmp_path)
        assert first.stdout and first.stdout == second.stdout

        # round trip: ingest -> emit -> ingest is the identity on payloads
        emitted = json.loads((tmp_path / "emp.json").read_text())
        csv_again = "\n".join(",".join(cell for cell in row) for row in emitted["rows"]) + "\n"
        (tmp_path / "again.csv").write_text(csv_again)
        assert run_cli("ingest", "again.csv", "-o", "emp2.json", cwd=tmp_path).returncode == 0
        assert (tmp_path / "emp.json").read_bytes() == (tmp_path / "emp2.json").read_bytes()

        # exit codes: pass, violation, malformed input
        passed = run_cli("verify", "sklar", "unif2.json", cwd=tmp_path)
        assert passed.returncode == 0 and json.loads(passed.stdout)["pass"] is True
        violated = run_cli("verify", "sklar", "emp.json", cwd=tmp_path)
        assert violated.returncode == 1 and json.loads(violated.stdout)["pass"] is False
        (tmp_path / "bad.csv").write_text("0,0\n1\n")
        bad = run_cli("ingest", "bad.csv", cwd=tmp_path)
        assert bad.returncode == 2 and "row 2" in bad.stderr
