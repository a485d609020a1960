"""Independent re-check of the witnesses copulacheck emits.

Nothing here imports copulacheck.  Counting dfs are evaluated by counting
rows (or summing masses) one by one; margin-composed dfs by evaluating each
margin straight from its knot list and combining with the family formula.
Every emitted sklar-identity witness must carry ``expected = F(point)``;
every copula-axiom witness must carry the bound its kind names; every
uniform-margin witness must carry ``expected = s``.  A witness must also be a
real mismatch in the direction its kind states, with ``deviation`` equal to
``|got - expected|``.
"""

from __future__ import annotations

from fractions import Fraction

INF = float("inf")

# reports whose witnesses the oracle re-checks (the CheckReport layout)
CHECK_REPORTS = ("sklar_identity", "uniform_margins", "copula_axioms")


def scalar(text: str):
    if text == "-inf":
        return -INF
    if text == "+inf":
        return INF
    return Fraction(text)


def margin_value(knots: list[dict], t) -> Fraction:
    """G(t) for a knot list: constant ``left`` below the first knot, affine
    from (x_k, value_k) to (x_{k+1}, left_{k+1}), constant ``value`` from the
    last knot on."""
    xs = [Fraction(k["x"]) for k in knots]
    if t < xs[0]:
        return Fraction(knots[0]["left"])
    k = max(i for i, x in enumerate(xs) if x <= t)
    value = Fraction(knots[k]["value"])
    if k == len(xs) - 1 or t == xs[k]:
        return value
    nxt_left = Fraction(knots[k + 1]["left"])
    return value + (nxt_left - value) * (t - xs[k]) / (xs[k + 1] - xs[k])


def df_value(df: dict, point) -> Fraction:
    family = df["family"]
    if family == "empirical":
        rows = [[Fraction(v) for v in row] for row in df["rows"]]
        hits = sum(1 for row in rows if all(r <= c for r, c in zip(row, point)))
        return Fraction(hits, len(rows))
    if family == "grid":
        return sum(
            (Fraction(m["mass"]) for m in df["masses"]
             if all(Fraction(p) <= c for p, c in zip(m["point"], point))),
            Fraction(0),
        )
    values = [margin_value(m["knots"], c) for m, c in zip(df["margins"], point)]
    if family == "product":
        out = Fraction(1)
        for v in values:
            out *= v
        return out
    if family == "comonotone":
        return min(values)
    if family == "countermonotone":
        return max(sum(values) - (len(values) - 1), Fraction(0))
    raise ValueError(f"no oracle for family {family!r}")


def _expected_for(check: str, kind: str, point, df: dict):
    if check == "sklar_identity":
        return df_value(df, point)
    if check == "uniform_margins":
        axis = int(kind.removeprefix("margin_")) - 1
        return point[axis]
    if check == "copula_axioms":
        if kind in ("d_increasing", "grounded"):
            return Fraction(0)
        if kind == "fh_lower":
            return max(sum(point) - (len(point) - 1), Fraction(0))
        if kind == "fh_upper":
            return min(point)
    raise ValueError(f"unknown witness {check}/{kind}")


# the relation between got and expected that makes a witness a violation
_DIRECTION = {
    "d_increasing": lambda got, exp: got < exp,
    "fh_lower": lambda got, exp: got < exp,
    "fh_upper": lambda got, exp: got > exp,
}


def witness_errors(report: dict, df: dict) -> list[str]:
    """Mismatches between the report's witnesses and the oracle; empty if none."""
    check = report["check"]
    if check not in CHECK_REPORTS:
        return []
    errors = []
    for w in report["violations"]:
        point = [[scalar(c) for c in corner] if isinstance(corner, list) else scalar(corner)
                 for corner in w["point"]]
        expected, got = Fraction(w["expected"]), Fraction(w["got"])
        want = _expected_for(check, w["kind"], point, df)
        holds = _DIRECTION.get(w["kind"], lambda g, e: g != e)
        if expected != want:
            errors.append(f"{check}/{w['kind']} at {w['point']}: expected {expected}, oracle {want}")
        elif not holds(got, expected) or Fraction(w["deviation"]) != abs(got - expected):
            errors.append(f"{check}/{w['kind']} at {w['point']}: not a violation as emitted")
    return errors
