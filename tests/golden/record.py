"""Record the golden CLI outputs that ``tests/test_golden.py`` replays.

    python3 tests/golden/record.py

Writes every input payload, and the CSV that ``ingest`` reads, to ``inputs/``,
runs each case in CASES through ``copulacheck.cli.main`` from ``inputs/``, and
stores the case's stdout in ``out/<name>.txt`` and its argv and exit code in
``cases.json``.  Re-record only for an intended output change, and say in
CHANGES.md why the bytes moved; the replay test never writes here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent.parent / "src"))

from copulacheck import (  # noqa: E402
    CountermonotoneDf,
    GridDf,
    cli,
    comonotone_df,
    countermonotone_df,
    discrete_cdf,
    empirical_from_rows,
    grid_df,
    make_monotone,
    product_df,
    uniform_cdf,
)
from copulacheck.serialize import df_to_payload, dumps_payload, monotone_to_payload  # noqa: E402

F = Fraction

G_FLAT = make_monotone(
    [(0, 0, 0), (F(1, 2), F(1, 2), F(1, 2)), (F(3, 2), F(1, 2), F(1, 2)), (2, 1, 1)]
)
G_BERN = make_monotone([(0, 0, F(1, 2)), (1, F(1, 2), 1)])
G_MIXED = make_monotone([(0, 0, 0), (F(1, 2), F(1, 4), F(1, 2)), (1, 1, 1)])
G_CONST = make_monotone([(-1, F(1, 3), F(1, 3)), (2, F(1, 3), F(1, 3))])
G_JUMP = make_monotone([(F(1, 2), 0, 1)])
# negative abscissae and levels over primes near 10**6: the cross products
# run far past machine words, and no two denominators share a factor
G_PRIMES = make_monotone(
    [
        (F(-7, 999983), 0, F(1, 1000003)),
        (F(-2, 999979), F(5, 1000033), F(500000, 1000037)),
        (F(3, 1000039), F(500000, 1000037), F(999961, 1000081)),
        (F(11, 999953), 1, 1),
    ]
)
U = uniform_cdf()

INPUTS = {
    "flat.json": monotone_to_payload(G_FLAT),
    "bern.json": monotone_to_payload(G_BERN),
    "mixed.json": monotone_to_payload(G_MIXED),
    "const.json": monotone_to_payload(G_CONST),
    "jump.json": monotone_to_payload(G_JUMP),
    "primes.json": monotone_to_payload(G_PRIMES),
    "emp.json": df_to_payload(
        empirical_from_rows([(0, 0), (1, 1), (1, 0), (F(1, 2), 1), (1, 1), (0, F(1, 2))])
    ),
    "grid.json": df_to_payload(
        grid_df([((0, 0), F(1, 4)), ((1, 0), F(1, 8)), ((0, 1), F(1, 8)), ((1, 1), F(1, 2))])
    ),
    "product.json": df_to_payload(product_df([U, G_MIXED])),
    "comonotone.json": df_to_payload(
        comonotone_df([G_FLAT, discrete_cdf({0: F(1, 3), 1: F(2, 3)})])
    ),
    "counter2.json": df_to_payload(countermonotone_df(U, G_MIXED)),
    # the lower bound extended to three margins is not a df: negative volumes
    "counter3.json": df_to_payload(CountermonotoneDf((U, U, U))),
    # signed masses with cdf margins, a df only leniently: its copula report
    # interleaves d_increasing, grounded, fh_lower and fh_upper witnesses
    "signed.json": df_to_payload(
        GridDf(
            (
                ((0, 0), F(-1, 2)), ((0, 1), F(3, 4)), ((0, 2), F(1, 4)), ((1, 0), F(1, 2)),
                ((1, 1), F(-1, 2)), ((1, 2), F(1, 2)), ((2, 0), F(1, 2)), ((2, 2), F(-1, 2)),
            )
        )
    ),
    # a grid point with no coordinate: refused on load, before any check runs
    "grid-dim0.json": {"family": "grid", "dim": 0, "masses": [{"point": [], "mass": "1"}]},
    # ingest input: a header line, a decimal, rationals, an exponent, a negative
    # value and a duplicate row
    "data.csv": "x,y\n0.3,1/2\n-5/4,2\n2.5e-1,0\n0.3,1/2\n1,-1/3\n",
}
DF_AXES = {"emp": 2, "grid": 2, "product": 2, "comonotone": 2, "counter2": 2, "counter3": 3}

CASES = {
    "lemma-flat": ["verify", "lemma", "flat.json"],
    "lemma-bern": ["verify", "lemma", "bern.json"],
    "lemma-flat-k1": ["verify", "lemma", "flat.json", "--grid", "8", "--max-witnesses", "1"],
    # a jump inside a rising piece, a constant, a single jump, and large coprime
    # denominators with negative abscissae
    **{
        f"lemma-{stem}-g8": ["verify", "lemma", f"{stem}.json", "--grid", "8"]
        for stem in ("mixed", "const", "jump", "primes")
    },
    # more witnesses than the default keeps
    "lemma-primes-all": [
        "verify", "lemma", "primes.json", "--grid", "32", "--max-witnesses", "-1"
    ],
    **{
        f"df-{stem}": ["verify", "df", f"{stem}.json", "--cuboids", "60"]
        for stem in ("emp", "grid", "product", "comonotone", "counter2")
    },
    "df-counter3": ["verify", "df", "counter3.json", "--cuboids", "100", "--seed", "7"],
    **{
        f"{kind}-{stem}": ["verify", kind, f"{stem}.json", "--grid", "6"]
        for kind in ("sklar", "margins", "copula")
        for stem in ("emp", "grid", "product", "comonotone")
    },
    "sklar-emp-default": ["verify", "sklar", "emp.json"],
    "copula-emp-k3": [
        "verify", "copula", "emp.json", "--seed", "5", "--cuboids", "40", "--max-witnesses", "3"
    ],
    "sklar-emp-k0": ["verify", "sklar", "emp.json", "--max-witnesses", "0"],
    "df-counter3-all": [
        "verify", "df", "counter3.json", "--cuboids", "30", "--max-witnesses", "-1"
    ],
    "margins-emp-all": ["verify", "margins", "emp.json", "--max-witnesses", "-1"],
    # no witness kept: the verdicts and max_deviation come from the violation count
    "margins-emp-k0": ["verify", "margins", "emp.json", "--max-witnesses", "0"],
    "copula-signed-k0": [
        "verify", "copula", "signed.json", "--grid", "3", "--cuboids", "20", "--max-witnesses", "0"
    ],
    "df-counter3-k0": [
        "verify", "df", "counter3.json", "--cuboids", "100", "--seed", "7", "--max-witnesses", "0"
    ],
    "lemma-flat-k0": ["verify", "lemma", "flat.json", "--max-witnesses", "0"],
    # K equal to the exact violation count (not truncated) and one below it
    "sklar-emp-k48": ["verify", "sklar", "emp.json", "--grid", "6", "--max-witnesses", "48"],
    "sklar-emp-k47": ["verify", "sklar", "emp.json", "--grid", "6", "--max-witnesses", "47"],
    "copula-signed-k30": [
        "verify", "copula", "signed.json", "--grid", "3", "--cuboids", "20", "--max-witnesses", "30"
    ],
    "copula-signed-k29": [
        "verify", "copula", "signed.json", "--grid", "3", "--cuboids", "20", "--max-witnesses", "29"
    ],
    "extract-comonotone": ["extract", "comonotone.json", "--grid", "4"],
    # the single-point commands: levels at a jump, on a flat, inside a rising
    # piece, and at inf G and sup G, with and without the right limit
    **{
        f"quantile-{stem}-{label}{suffix}": ["quantile", f"{stem}.json", u, *flag]
        for stem, points in (
            ("bern", (("jump", "1/4"), ("flat", "1/2"), ("inf", "0"), ("sup", "1"))),
            ("flat", (("rise", "3/4"), ("flat", "1/2"), ("inf", "0"), ("sup", "1"))),
        )
        for label, u in points
        for suffix, flag in (("", ()), ("-right", ("--right-limit",)))
    },
    "quantile-bern-outside": ["quantile", "bern.json", "3/2"],
    **{
        f"eval-{stem}-{label}": ["eval", f"{stem}.json", "--", point]
        for stem, points in (
            ("bern", (("jump", "0"), ("flat", "1/2"), ("neg-inf", "-inf"), ("pos-inf", "+inf"))),
            ("flat", (("rise", "7/4"), ("flat", "1"), ("neg-inf", "-inf"), ("pos-inf", "+inf"))),
            *(
                (stem, (("finite", "1/2,1"), ("neg-inf", "-inf,1"), ("pos-inf", "1/2,+inf")))
                for stem in ("emp", "grid", "product", "comonotone", "counter2")
            ),
            ("counter3", (("finite", "3/4,1/2,9/10"), ("neg-inf", "1/2,-inf,1"),
                          ("pos-inf", "+inf,3/4,+inf"))),
        )
        for label, point in points
    },
    "eval-emp-all-inf": ["eval", "emp.json", "--", "+inf,+inf"],
    "eval-emp-wrong-dim": ["eval", "emp.json", "1/2"],
    # the payload emitters: ingest writes an empirical df, margin a monotone function
    "ingest-csv": ["ingest", "data.csv", "--has-header"],
    "ingest-csv-no-header": ["ingest", "data.csv"],
    **{
        f"margin-{stem}-{axis}": ["margin", f"{stem}.json", str(axis)]
        for stem, dim in DF_AXES.items()
        for axis in range(1, dim + 1)
    },
    "margin-emp-out-of-range": ["margin", "emp.json", "3"],
    **{
        f"volume-{stem}-{label}": ["volume", f"{stem}.json", "--", a, b]
        for stem in ("emp", "grid", "product")
        for label, a, b in (("finite", "0,0", "1,1"), ("inf", "-inf,1/4", "1/2,+inf"))
    },
    **{f"extract-{stem}": ["extract", f"{stem}.json", "--grid", "4"] for stem in ("emp", "grid")},
    # refusals: exit 2 and nothing on stdout
    **{
        f"{kind}-grid-dim0": ["verify", kind, "grid-dim0.json"]
        for kind in ("lemma", "df", "sklar", "margins", "copula")
    },
    "extract-grid-dim0": ["extract", "grid-dim0.json"],
}


def main() -> None:
    (GOLDEN / "inputs").mkdir(exist_ok=True)
    (GOLDEN / "out").mkdir(exist_ok=True)
    for name, payload in INPUTS.items():
        text = payload if isinstance(payload, str) else dumps_payload(payload)
        (GOLDEN / "inputs" / name).write_text(text, encoding="utf-8")
    os.chdir(GOLDEN / "inputs")
    manifest = []
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        (GOLDEN / "out" / f"{name}.txt").write_bytes(out.getvalue().encode("utf-8"))
        manifest.append({"name": name, "argv": argv, "exit": code})
    (GOLDEN / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
