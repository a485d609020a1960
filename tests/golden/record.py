"""Record the golden CLI outputs that ``tests/test_golden.py`` replays.

    python3 tests/golden/record.py

Writes every input payload to ``inputs/``, runs each case in CASES through
``copulacheck.cli.main`` from ``inputs/``, and stores the case's stdout in
``out/<name>.txt`` and its argv and exit code in ``cases.json``.  Re-record
only for an intended output change, and say in CHANGES.md why the bytes moved;
the replay test never writes here.
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
U = uniform_cdf()

INPUTS = {
    "flat.json": monotone_to_payload(G_FLAT),
    "bern.json": monotone_to_payload(G_BERN),
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
}

CASES = {
    "lemma-flat": ["verify", "lemma", "flat.json"],
    "lemma-bern": ["verify", "lemma", "bern.json"],
    "lemma-flat-k1": ["verify", "lemma", "flat.json", "--grid", "8", "--max-witnesses", "1"],
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
}


def main() -> None:
    (GOLDEN / "inputs").mkdir(exist_ok=True)
    (GOLDEN / "out").mkdir(exist_ok=True)
    for name, payload in INPUTS.items():
        (GOLDEN / "inputs" / name).write_text(dumps_payload(payload), encoding="utf-8")
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
