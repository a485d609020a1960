"""Exact engine for one-dimensional non-decreasing right-continuous functions.

A :class:`MonotoneFn` is a finite list of knots ``(x, left, value)`` encoding a
piecewise-linear-with-jumps function G on the whole real line:

* G(x) = ``knots[0].left`` for x below the first knot (this constant is the
  infimum ``c``);
* on each ``[x_k, x_{k+1})`` G runs affinely from ``(x_k, value_k)`` to the
  open right endpoint ``(x_{k+1}, left_{k+1})``;
* G(x) = ``knots[-1].value`` at and beyond the last knot (the supremum ``d``).

Right-continuity is structural: every piece is closed on the left.  The module
offers exact evaluation, one-sided limits, and the two generalized inverses

    gen_inverse(u)       = inf { x : G(x) >= u }
    gen_inverse_right(u) = inf { x : G(x) > u }

Both inverses search one cached sequence, the knot levels interleaved as
``(left_0, value_0, left_1, ...)``, which valid knots make non-decreasing.  The
first position past u names the answer: a ``value_k`` is the jump at knot k,
a ``left_k`` the affine crossing on the piece ending at knot k, and the end of
the sequence +inf (Embrechts & Hofert, "A note on generalized inverses", 2013).

One path computes G and its inverses: the batch kernels ``eval_many``,
``gen_inverse_many`` and ``gen_inverse_right_many``.  One cursor walks the
knot abscissae, or the level sequence, from where the previous point left it,
comparing integer cross products of numerators and denominators, and an
interior result is one ``Fraction`` built from integer coefficients of its
piece.  Their tables are built on the first call.  The single-point ``eval``,
``gen_inverse`` and ``gen_inverse_right`` are one-point calls into the same
kernels; the independent oracles they are tested against live in the tests.

The module also has a report runner checking, point by point, the classical
inverse inequalities G(G^-1(u)) >= u and G^-1(G(x)) <= x, left-continuity of
the inverse, and the round-trip identity gen_inverse_right(G(x)) == x.  The
round-trip identity genuinely fails wherever G is not strictly increasing to
the right of x (flat pieces, constant tails); those points are reported as
witnesses, never raised as errors.

All arithmetic is rational, so every verdict is exact with tolerance zero.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError, ValidationError
from .report import Report, Section
from .scalars import NEG_INF, POS_INF, ExtScalar, as_ext, as_scalar, is_finite


@dataclass(frozen=True)
class Knot:
    """One breakpoint: ``left`` is the limit of G from below at ``x``, ``value`` is G(x)."""

    x: Fraction
    left: Fraction
    value: Fraction


# integer coefficients (alpha, beta, gamma) of an affine piece: it maps p/q to
# (alpha p + beta q) / (gamma q); None marks a piece no kernel evaluates
_Piece = Optional[tuple[int, int, int]]


def _piece(x0: Fraction, y0: Fraction, x1: Fraction, y1: Fraction) -> _Piece:
    """The affine map through (x0, y0) and (x1, y1), or None where it is flat or vertical."""
    if y0 == y1 or x0 == x1:
        return None
    slope = (y1 - y0) / (x1 - x0)
    intercept = y0 - slope * x0
    return (
        slope.numerator * intercept.denominator,
        intercept.numerator * slope.denominator,
        slope.denominator * intercept.denominator,
    )


class _SweepTables:
    """The batch kernels' tables: knot abscissae and levels as integer pairs, and the pieces.

    ``pieces[i]`` is G on [x_i, x_{i+1}); ``crossings[p]``, for even p, is
    the inverse on the levels between value_{p/2-1} and left_{p/2}.
    """

    __slots__ = ("xn", "xd", "values", "pieces", "ln", "ld", "crossings")

    def __init__(self, knots: Sequence[Knot], levels: Sequence[Fraction]) -> None:
        self.xn = [k.x.numerator for k in knots]
        self.xd = [k.x.denominator for k in knots]
        self.values = [k.value for k in knots]
        self.pieces = [_piece(k.x, k.value, nxt.x, nxt.left) for k, nxt in zip(knots, knots[1:])]
        self.ln = [lv.numerator for lv in levels]
        self.ld = [lv.denominator for lv in levels]
        self.crossings: list[_Piece] = [None] * len(levels)
        for k, (prev, nxt) in enumerate(zip(knots, knots[1:]), start=1):
            self.crossings[2 * k] = _piece(prev.value, prev.x, nxt.left, nxt.x)


def _coerce_knot(entry, index: int) -> Knot:
    if isinstance(entry, Knot):
        return Knot(as_scalar(entry.x), as_scalar(entry.left), as_scalar(entry.value))
    try:
        x, left, value = entry
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"knot index {index}: expected (x, left, value)") from exc
    return Knot(as_scalar(x), as_scalar(left), as_scalar(value))


@dataclass(frozen=True)
class MonotoneFn:
    """Non-decreasing right-continuous function with finitely many breakpoints."""

    knots: tuple[Knot, ...]
    _xs: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    _levels: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    # built on the first batch call, so loading a payload does no work for it;
    # threads that race to build it build equal tables
    _sweep: Optional[_SweepTables] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        knots = tuple(_coerce_knot(k, i) for i, k in enumerate(self.knots))
        if not knots:
            raise ValidationError("a monotone function needs at least one knot")
        for i, k in enumerate(knots):
            if k.left > k.value:
                raise ValidationError(
                    f"knot index {i}: left limit {k.left} exceeds value {k.value}"
                )
            if i > 0:
                prev = knots[i - 1]
                if k.x <= prev.x:
                    raise ValidationError(
                        f"knot index {i}: abscissa {k.x} not greater than {prev.x}"
                    )
                if prev.value > k.left:
                    raise ValidationError(
                        f"knot index {i}: left limit {k.left} below previous value {prev.value}"
                    )
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_xs", tuple(k.x for k in knots))
        object.__setattr__(self, "_levels", tuple(lv for k in knots for lv in (k.left, k.value)))

    # -- range and endpoints -------------------------------------------------

    @property
    def inf_value(self) -> Fraction:
        """c = inf G, attained as the constant level left of the first knot."""
        return self.knots[0].left

    @property
    def sup_value(self) -> Fraction:
        """d = sup G, attained at and beyond the last knot."""
        return self.knots[-1].value

    def lep(self) -> ExtScalar:
        """Lower end-point: inf of the set where G exceeds its infimum."""
        return self.gen_inverse_right(self.inf_value)

    def uep(self) -> ExtScalar:
        """Upper end-point: sup of the set where G stays below its supremum."""
        if self.inf_value == self.sup_value:
            return NEG_INF
        return self.gen_inverse(self.sup_value)

    def is_cdf(self) -> bool:
        return self.inf_value == 0 and self.sup_value == 1

    def knot_xs(self) -> tuple[Fraction, ...]:
        return self._xs

    def critical_levels(self) -> tuple[Fraction, ...]:
        """Sorted distinct levels at which the inverse can change its local form."""
        return tuple(dict.fromkeys(self._levels))

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: ExtScalar) -> Fraction:
        """Exact G(x); the infinities map to the infimum and supremum."""
        return self.eval_many((x,))[0]

    def _tables(self) -> _SweepTables:
        if self._sweep is None:
            object.__setattr__(self, "_sweep", _SweepTables(self.knots, self._levels))
        return self._sweep

    def eval_many(self, xs: Iterable[ExtScalar]) -> list[Fraction]:
        """Exact G at each of ``xs``, walking one cursor over the knot abscissae.

        The infinities map to the infimum and supremum.  The cursor moves
        from the previous point's knot, so any order is correct and a sorted
        sweep makes O(points + knots) integer comparisons.
        """
        t = self._tables()
        xn, xd, values, pieces = t.xn, t.xd, t.values, t.pieces
        last = len(xn) - 1
        inf, sup = self.inf_value, self.sup_value
        out = []
        i = -1  # the last knot at or below x, -1 below the first
        for x in xs:
            x = as_ext(x)
            if not is_finite(x):
                out.append(inf if x == NEG_INF else sup)
                continue
            a, b = x.numerator, x.denominator
            while i < last and xn[i + 1] * b <= a * xd[i + 1]:
                i += 1
            while i >= 0 and xn[i] * b > a * xd[i]:
                i -= 1
            if i < 0:
                out.append(inf)
            elif i == last or pieces[i] is None:
                out.append(values[i])
            else:
                alpha, beta, gamma = pieces[i]
                out.append(Fraction(alpha * a + beta * b, gamma * b))
        return out

    def eval_left(self, x) -> Fraction:
        """Exact limit of G from below at finite x."""
        x = as_scalar(x)
        i = bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self.knots[i].left
        # G is continuous away from the knots
        return self.eval(x)

    # -- generalized inverses ------------------------------------------------

    def gen_inverse(self, u) -> ExtScalar:
        """inf { x : G(x) >= u }; -inf at u = inf G, where the set is all of R."""
        return self.gen_inverse_many((u,))[0]

    def gen_inverse_right(self, u) -> ExtScalar:
        """inf { x : G(x) > u }; +inf at u = sup G, where the set is empty."""
        return self.gen_inverse_right_many((u,))[0]

    def _level_walk(self, us: Iterable, strict: bool) -> Iterator[tuple[Fraction, int]]:
        """Each level, checked to lie in [inf G, sup G], with its position in ``_levels``.

        The position counts the levels below u, or at or below u when
        ``strict``: ``bisect_left`` and ``bisect_right``, found by one cursor
        that moves from the previous level's position.
        """
        t = self._tables()
        ln, ld = t.ln, t.ld
        lo_n, lo_d, hi_n, hi_d = ln[0], ld[0], ln[-1], ld[-1]
        end = len(ln)
        p = 0
        for u in us:
            u = as_scalar(u)
            a, b = u.numerator, u.denominator
            if lo_n * b > a * lo_d or a * hi_d > hi_n * b:
                raise DomainError(
                    f"level {u} outside the range [{self.inf_value}, {self.sup_value}]"
                )
            if strict:
                while p < end and ln[p] * b <= a * ld[p]:
                    p += 1
                while p > 0 and ln[p - 1] * b > a * ld[p - 1]:
                    p -= 1
            else:
                while p < end and ln[p] * b < a * ld[p]:
                    p += 1
                while p > 0 and ln[p - 1] * b >= a * ld[p - 1]:
                    p -= 1
            yield u, p

    def _inverses(self, walk: Iterable[tuple[Fraction, int]]) -> list[ExtScalar]:
        """The inverse at each (u, p) of a level walk.

        p is the first position in ``_levels`` whose level clears u: a
        ``value_k`` names the jump at knot k, a ``left_k`` the affine crossing
        on the piece ending at knot k, and the end of the sequence +inf.
        """
        xs, crossings = self._xs, self._tables().crossings
        end = len(crossings)
        out: list[ExtScalar] = []
        for u, p in walk:
            if p == 0:  # only gen_inverse at u = inf G
                out.append(NEG_INF)
            elif p == end:
                out.append(POS_INF)
            elif p % 2:
                out.append(xs[p // 2])
            else:
                alpha, beta, gamma = crossings[p]
                a, b = u.numerator, u.denominator
                out.append(Fraction(alpha * a + beta * b, gamma * b))
        return out

    def gen_inverse_many(self, us: Iterable) -> list[ExtScalar]:
        """inf { x : G(x) >= u } for each of ``us``, walking one cursor over the knot levels."""
        return self._inverses(self._level_walk(us, strict=False))

    def gen_inverse_right_many(self, us: Iterable) -> list[ExtScalar]:
        """inf { x : G(x) > u } for each of ``us``, walking one cursor over the knot levels."""
        return self._inverses(self._level_walk(us, strict=True))

    def gen_inverse_left_limit(self, u) -> Fraction:
        """Exact limit of gen_inverse from below at u, for u in (inf G, sup G]."""
        ((u, p),) = self._level_walk((u,), strict=False)
        if p == 0:
            raise DomainError(f"left limit of the inverse undefined at the infimum {u}")
        return self._left_limits([(u, p)])[0]

    def _left_limits(self, walk: Sequence[tuple[Fraction, int]]) -> list[Fraction]:
        """The limit of gen_inverse from below at each (u, p > 0) of a non-strict level walk.

        On a level window free of knot levels the inverse is affine (inside a
        strictly rising piece) or constant (across a jump), so two probes just
        below u extrapolate the limit exactly, as 2 G^-1(u - delta/2) -
        G^-1(u - delta).  The window spans half the gap down to the highest
        level below u, at position p - 1, which exists because u > inf G.  The
        probes of every level go through one ``gen_inverse_many`` call.
        """
        probes = []
        for u, p in walk:
            delta = (u - self._levels[p - 1]) / 2
            probes += (u - delta, u - delta / 2)
        probed = self.gen_inverse_many(probes)
        assert all(map(is_finite, probed))
        return [2 * near - far for far, near in zip(probed[::2], probed[1::2])]


def make_monotone(knots: Iterable) -> MonotoneFn:
    """Validated constructor; accepts Knot instances or (x, left, value) triples."""
    return MonotoneFn(tuple(knots))


def uniform_cdf(lo=0, hi=1) -> MonotoneFn:
    """Continuous uniform cdf on [lo, hi]."""
    lo, hi = as_scalar(lo), as_scalar(hi)
    if lo >= hi:
        raise ValidationError(f"uniform_cdf needs lo < hi, got [{lo}, {hi}]")
    return MonotoneFn((Knot(lo, Fraction(0), Fraction(0)), Knot(hi, Fraction(1), Fraction(1))))


def discrete_cdf(weights: dict) -> MonotoneFn:
    """Step cdf of a finite discrete distribution {atom: mass}; masses must sum to 1."""
    if not weights:
        raise ValidationError("discrete_cdf needs at least one atom")
    items = sorted((as_scalar(x), as_scalar(w)) for x, w in weights.items())
    total = sum(w for _, w in items)
    if any(w < 0 for _, w in items):
        raise ValidationError("discrete_cdf: negative mass")
    if total != 1:
        raise ValidationError(f"discrete_cdf: masses sum to {total}, expected 1")
    return step_cdf(items, total)


def step_cdf(atoms: Iterable[tuple[Fraction, Fraction | int]], total: Fraction | int) -> MonotoneFn:
    """Step function of sorted (atom, mass) pairs, each mass divided by ``total``."""
    if total == 0:
        raise ValidationError("masses sum to 0, so they cannot be normalized to a cdf")
    knots = []
    acc = Fraction(0)
    for x, mass in atoms:
        knots.append(Knot(x, acc / total, (acc + mass) / total))
        acc += mass
    return MonotoneFn(tuple(knots))


# -- verification reports ----------------------------------------------------


def lemma_report(fn: MonotoneFn, us: Sequence, xs: Sequence) -> Report:
    """Run the full inverse-property suite on level grid ``us`` and point grid ``xs``.

    Raises DomainError if some u lies outside [inf G, sup G].  Left-continuity
    is only defined strictly above the infimum, so grid levels equal to inf G
    are skipped for that check.  Witnesses carry the checked point and both
    sides of the failed comparison.  The ``ff`` section checks the round trip
    gen_inverse_right(G(x)) == x; its one-sided bound lhs >= x holds for every
    valid MonotoneFn and is asserted, while equality failures are witnesses.
    """
    walk = list(fn._level_walk(us, strict=False))
    xs = [as_scalar(x) for x in xs]

    inverses = fn._inverses(walk)
    violations_a = []
    for (u, _), inv, value in zip(walk, inverses, fn.eval_many(inverses)):
        if value < u:
            violations_a.append({"point": u, "lhs": value, "rhs": u})

    levels = fn.eval_many(xs)
    violations_b = []
    ff_witnesses = []
    sweep = zip(xs, fn.gen_inverse_many(levels), fn.gen_inverse_right_many(levels))
    for x, inv, lhs in sweep:
        if inv > x:
            violations_b.append({"point": x, "lhs": inv, "rhs": x})
        if not lhs >= x:
            raise AssertionError(f"one-sided bound violated at x={x}: lhs={lhs}")
        if lhs != x:
            ff_witnesses.append({"x": x, "lhs": lhs})

    # section a already holds the inverse at each level; u = inf G (p = 0) has no left limit
    checked = [((u, p), at) for (u, p), at in zip(walk, inverses) if p]
    limits = fn._left_limits([w for w, _ in checked])
    violations_lc = [
        {"point": u, "lhs": limit, "rhs": at}
        for ((u, _), at), limit in zip(checked, limits)
        if limit != at
    ]

    return Report(
        "lemma",
        (
            Section("a", "violations_a", len(walk), tuple(violations_a), "pass_a"),
            Section("b", "violations_b", len(xs), tuple(violations_b), "pass_b"),
            Section(
                "left_continuity",
                "violations_leftcont",
                len(checked),
                tuple(violations_lc),
                "pass_leftcont",
            ),
            Section("ff", "ff_witnesses", len(xs), tuple(ff_witnesses)),
        ),
    )
