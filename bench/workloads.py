"""Seeded workload generators for the copulacheck benchmark.

Each generator writes payload files into a directory and returns the jobs to
run: an id, the ``expected.json`` key, the ``copulacheck`` argv, the payload
path, the df spec the oracle re-checks witnesses against and, for lemma jobs,
the expected ``points``.

The seed changes the data, never the shape of a job.  Coordinates and levels
are drawn so that they never coincide with the uniform ``k/m`` verification
grids the program merges in (interior coordinates avoid multiples of 1/20,
level denominators are primes), and each axis always spans [0, 1].  Grid
sizes, ``points`` and exit codes are therefore the same for every seed, which
is what lets ``expected.json`` pin them; run time varies little across seeds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "counting-sweep": "empirical and grid dfs: the O(n) Fraction row scan per evaluation "
    "dominates and discrete data yields thousands of violations to emit",
    "margin-sweep": "product, comonotone and countermonotone dfs on knotted margins: "
    "monotone eval and quantile scans, no row scan; the control for counting changes",
    "lemma-corpus": "200 small random monotone functions through verify lemma: every "
    "inverse variant and per-job fixed cost (argparse, read, parse, emit)",
}

VERIFY_KINDS = ("sklar", "copula", "margins", "df")

# Workload sizes.  They are kept small enough that one pass over a workload
# takes a few seconds, so a run repeats every job and the median and tail of
# job time rest on many samples.
EMP_DISTINCT_N = 30
EMP_TIED_N = 53  # prime: cumulative margin levels j/n never hit k/20
GRID_SIDE = 7
EMP3_N = 10
SMOOTH_KNOTS = 40
COMONO3_KNOTS = 8
MIXED_KNOTS = 24
D3_GRID = 10  # d=3 grids grow as (m + breakpoints)^3; m=10 keeps a job near 0.5 s
LEMMA_FUNCS = 200
LEMMA_GRID = 100

LEVEL_DEN = 1009  # prime denominator for margin levels
X_DEN = 1000  # abscissae are k/1000 with k not a multiple of 50 inside (0, 1)


def _interior_xs(rng: random.Random, count: int) -> list[Fraction]:
    """``count`` distinct k/1000 in (0, 1), none on the k/20 grid."""
    pool = [k for k in range(1, X_DEN) if k % 50]
    return sorted(Fraction(k, X_DEN) for k in rng.sample(pool, count))


def _axis_values(rng: random.Random, count: int) -> list[Fraction]:
    """Distinct coordinates spanning exactly [0, 1]: 0, 1 and interior draws."""
    return [Fraction(0)] + _interior_xs(rng, count - 2) + [Fraction(1)]


def _next_prime(n: int) -> int:
    def is_prime(k: int) -> bool:
        return k > 1 and all(k % p for p in range(2, int(k**0.5) + 1))

    while not is_prime(n):
        n += 1
    return n


# -- counting dfs ----------------------------------------------------------------


def empirical_distinct(rng: random.Random, n: int, dim: int) -> dict:
    cols = [_axis_values(rng, n) for _ in range(dim)]
    for col in cols[1:]:
        rng.shuffle(col)
    rows = [[str(col[i]) for col in cols] for i in range(n)]
    return {"family": "empirical", "dim": dim, "rows": rows}


def empirical_tied(rng: random.Random, n: int, den: int = 20) -> dict:
    """d=2 rows on k/den; every level occurs on each axis, so the grid is fixed."""
    cols = []
    for _ in range(2):
        col = list(range(den + 1)) + [rng.randrange(den + 1) for _ in range(n - den - 1)]
        rng.shuffle(col)
        cols.append(col)
    rows = [[str(Fraction(a, den)), str(Fraction(b, den))] for a, b in zip(*cols)]
    return {"family": "empirical", "dim": 2, "rows": rows}


def grid_masses(rng: random.Random, side: int) -> dict:
    """side x side lattice, unequal integer weights over a prime total."""
    xs, ys = _axis_values(rng, side), _axis_values(rng, side)
    weights = [1 + rng.randrange(50) for _ in range(side * side)]
    weights[-1] += _next_prime(sum(weights)) - sum(weights)
    total = sum(weights)
    masses = [
        {"point": [str(x), str(y)], "mass": str(Fraction(w, total))}
        for (x, y), w in zip(((x, y) for x in xs for y in ys), weights)
    ]
    return {"family": "grid", "dim": 2, "masses": masses}


# -- margin-composed dfs ---------------------------------------------------------


def _levels(rng: random.Random, count: int) -> list[Fraction]:
    return sorted(Fraction(k, LEVEL_DEN) for k in rng.sample(range(1, LEVEL_DEN), count))


def smooth_margin(rng: random.Random, knots: int) -> dict:
    """Continuous strictly increasing piecewise-linear cdf on [0, 1]."""
    xs = _axis_values(rng, knots)
    levels = [Fraction(0)] + _levels(rng, knots - 2) + [Fraction(1)]
    return {"knots": [{"x": str(x), "left": str(v), "value": str(v)} for x, v in zip(xs, levels)]}


# knot i gets pattern MIXED_PATTERN[i % 4]: how the piece into it ends and
# whether the knot jumps.  Fixing the pattern fixes which checks fail.
MIXED_PATTERN = (("rise", False), ("rise", True), ("flat", True), ("flat", False))


def mixed_margin(rng: random.Random, knots: int) -> dict:
    """cdf on [0, 1] mixing rising pieces, flat pieces and jumps."""
    xs = _axis_values(rng, knots)
    fresh = iter(_levels(rng, 2 * knots))
    out = []
    prev = Fraction(0)
    for i, x in enumerate(xs):
        piece, jump = MIXED_PATTERN[i % len(MIXED_PATTERN)]
        if i == 0:
            left = Fraction(0)
        else:
            left = prev if piece == "flat" else next(fresh)
        value = next(fresh) if jump else left
        if i == len(xs) - 1:
            value = Fraction(1)
        out.append({"x": str(x), "left": str(left), "value": str(value)})
        prev = value
    return {"knots": out}


def composed(family: str, margins: list[dict]) -> dict:
    return {"family": family, "dim": len(margins), "margins": margins}


# -- lemma corpus ------------------------------------------------------------------


def lemma_function(rng: random.Random, max_knots: int = 6) -> dict:
    """Random non-constant monotone function: at most ``max_knots`` knots,
    levels drawn with replacement from a six-level pool so flats, jumps and
    ties are common."""
    while True:
        n = 1 + rng.randrange(max_knots)
        xs = sorted(Fraction(k, 100) for k in rng.sample(range(-300, 301), n))
        pool = [Fraction(rng.randrange(101), 100) for _ in range(4)] + [Fraction(0), Fraction(1)]
        levels = sorted(rng.choice(pool) for _ in range(2 * n))
        if levels[0] != levels[-1]:
            break
    knots = [
        {"x": str(x), "left": str(levels[2 * i]), "value": str(levels[2 * i + 1])}
        for i, x in enumerate(xs)
    ]
    return {"knots": knots}


def lemma_points(fn: dict, m: int) -> dict:
    """Sizes of the ``verify lemma --grid m`` grids: the uniform m-grid on the
    range [c, d] merged with every knot level, and the uniform m-grid on
    [first knot - 1, last knot + 1] merged with every knot abscissa; the
    left-continuity check skips the level c."""
    knots = fn["knots"]
    xs = [Fraction(k["x"]) for k in knots]
    levels = {Fraction(k[f]) for k in knots for f in ("left", "value")}
    c, d = Fraction(knots[0]["left"]), Fraction(knots[-1]["value"])
    us = {c + Fraction(k, m) * (d - c) for k in range(m + 1)} | levels
    lo, hi = xs[0] - 1, xs[-1] + 1
    grid_x = {lo + Fraction(k, m) * (hi - lo) for k in range(m + 1)} | set(xs)
    return {"a": len(us), "b": len(grid_x), "left_continuity": len(us) - 1, "ff": len(grid_x)}


# -- workloads -----------------------------------------------------------------------


def _df_jobs(name: str, df: dict, path: Path, copula_args: tuple = ()) -> list[dict]:
    jobs = []
    for kind in VERIFY_KINDS:
        argv = ["verify", kind, str(path)]
        if df["dim"] == 3 and kind != "df":
            argv += ["--grid", str(D3_GRID)]
        if kind == "copula":
            argv += list(copula_args)
        job_id = f"{name}/{kind}"
        jobs.append({"id": job_id, "key": job_id, "argv": argv, "payload": str(path), "df": df})
    return jobs


def counting_sweep(rng: random.Random) -> dict:
    return {
        "empirical-d2-distinct": empirical_distinct(rng, EMP_DISTINCT_N, 2),
        "empirical-d2-tied": empirical_tied(rng, EMP_TIED_N),
        "grid-d2": grid_masses(rng, GRID_SIDE),
        "empirical-d3": empirical_distinct(rng, EMP3_N, 3),
    }


def margin_sweep(rng: random.Random) -> dict:
    return {
        "product-d2-smooth": composed(
            "product", [smooth_margin(rng, SMOOTH_KNOTS) for _ in range(2)]
        ),
        "countermonotone-d2-smooth": composed(
            "countermonotone", [smooth_margin(rng, SMOOTH_KNOTS) for _ in range(2)]
        ),
        "comonotone-d3": composed(
            "comonotone", [smooth_margin(rng, COMONO3_KNOTS) for _ in range(3)]
        ),
        "product-d2-mixed": composed(
            "product", [mixed_margin(rng, MIXED_KNOTS) for _ in range(2)]
        ),
    }


def build(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's payloads under ``out_dir`` and return its jobs."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    if workload == "lemma-corpus":
        for i in range(LEMMA_FUNCS):
            fn = lemma_function(rng)
            path = out_dir / f"lemma-{i:03d}.json"
            path.write_text(json.dumps(fn, indent=2) + "\n", encoding="utf-8")
            jobs.append(
                {
                    "id": f"lemma-{i:03d}/lemma",
                    "key": "lemma",
                    "argv": ["verify", "lemma", str(path), "--grid", str(LEMMA_GRID)],
                    "payload": str(path),
                    "points": lemma_points(fn, LEMMA_GRID),
                }
            )
        return jobs
    dfs = counting_sweep(rng) if workload == "counting-sweep" else margin_sweep(rng)
    copula_args = ("--cuboids", "1000") if workload == "margin-sweep" else ()
    for name, df in dfs.items():
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(df, indent=2) + "\n", encoding="utf-8")
        jobs.extend(_df_jobs(name, df, path, copula_args))
    return jobs
