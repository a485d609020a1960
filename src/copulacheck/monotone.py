"""Exact engine for one-dimensional non-decreasing right-continuous functions.

A :class:`MonotoneFn` is a finite list of knots ``(x, left, value)`` encoding a
piecewise-linear-with-jumps function G on the whole real line:

* G(x) = ``knots[0].left`` for x below the first knot (this constant is the
  infimum ``c``);
* on each ``[x_k, x_{k+1})`` G runs affinely from ``(x_k, value_k)`` to the
  open right endpoint ``(x_{k+1}, left_{k+1})``;
* G(x) = ``knots[-1].value`` at and beyond the last knot (the supremum ``d``).

Right-continuity is structural: every piece is closed on the left.  The
constructor encodes a knot list once: it reads each knot's ``x``, ``left`` and
``value`` as reduced integer pairs and checks the three order rules on them
by cross-multiplication (abscissae strictly increasing, ``left <= value``,
the previous ``value <= left``).  The answer tables below, the critical-level
pairs and the abscissa pairs that ``sklar.GridSpec`` places on its axes all
read those pairs, so loading a function and building its grids compare and
hash no ``Fraction``.  The module offers exact evaluation, one-sided limits,
and the two generalized inverses

    gen_inverse(u)       = inf { x : G(x) >= u }
    gen_inverse_right(u) = inf { x : G(x) > u }

G, its left limit and both inverses are one walk on integer pairs in the
format of ``scalars`` (a/b as (a, b), b > 0; -inf as (-1, 0), +inf as (1, 0)),
over one of two answer tables built from the knot pairs on the first call.
Each table carries its own sorted keys: the walk counts the keys below a/b (s = 0)
or at or below it (s = 1) and answers at that rank by a constant or an affine
piece at a/b.  G(x) and G(x-) are s = 1 and s = 0 on the abscissa table;
``gen_inverse_right`` and ``gen_inverse`` are s = 1 and s = 0 on the level
table, whose keys are the knot levels ``(left_0, value_0, left_1, ...)``,
non-decreasing for valid knots.  The first level past u names the inverse: a
``value_k`` the jump at knot k, a ``left_k`` the affine crossing on the piece
ending at knot k, the end +inf (Embrechts & Hofert, "A note on generalized
inverses", 2013).  ``eval_many``, ``gen_inverse_many`` and
``gen_inverse_right_many`` decode the pairs by ``scalars.pair_value``,
``eval_pairs`` (on point pairs) and ``gen_inverse_right_pairs`` (on level
pairs) take and return them, and the single-point methods are one-point
walks; the tests hold them to independent oracles.

The module also has a report runner (:func:`lemma_report`) on a level grid
and a point grid.  It checks the round-trip identity
gen_inverse_right(G(x)) == x point by point, decided on the kernels' pairs.
The identity genuinely fails wherever G is not strictly increasing to the
right of x (flat pieces, constant tails); those points are reported as
witnesses, never raised as errors.  Its other three sections are certified,
not probed.  The classical inverse inequalities G(G^-1(u)) >= u and
G^-1(G(x)) <= x are theorems for every non-decreasing right-continuous G
(Embrechts & Hofert, 2013), and every valid MonotoneFn is one by its knots.
Left-continuity of the inverse above inf G holds because the level keys are
sorted, so each window between two keys reads one constant or affine piece.

All arithmetic is rational, so every verdict is exact with tolerance zero.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import DomainError, ValidationError
from .report import NO_DEVIATION, Report, Witnesses
from .scalars import NEG_PAIR, POS_PAIR, ExtScalar, Ratio, as_pairs, as_scalar, pair_value


@dataclass(frozen=True)
class Knot:
    """One breakpoint: ``left`` is the limit of G from below at ``x``, ``value`` is G(x)."""

    x: Fraction
    left: Fraction
    value: Fraction


# integer coefficients (alpha, beta, gamma) of an affine piece: it maps p/q to
# (alpha p + beta q) / (gamma q); None marks a piece no kernel evaluates
_Piece = Optional[tuple[int, int, int]]


def _piece(x0: Ratio, y0: Ratio, x1: Ratio, y1: Ratio) -> _Piece:
    """The affine map through (x0, y0) and (x1, y1), or None where it is flat or vertical."""
    (p0, q0), (r0, s0), (p1, q1), (r1, s1) = x0, y0, x1, y1
    rise, run = (r1 * s0 - r0 * s1) * q0 * q1, (p1 * q0 - p0 * q1) * s0 * s1
    if not rise or not run:
        return None
    # y0 + rise / run * (p/q - x0), over the common denominator s0 q0 run q
    alpha, beta, gamma = s0 * q0 * rise, r0 * q0 * run - s0 * p0 * rise, s0 * q0 * run
    g = gcd(alpha, beta, gamma)
    return alpha // g, beta // g, gamma // g


def _sign(r: Ratio, a: int, b: int) -> int:
    """The sign of r - a/b, for b > 0; (-1, 0) and (1, 0) read -1 and 1."""
    diff = r[0] * b - a * r[1]
    return (diff > 0) - (diff < 0)


def _ranks(ns: Sequence[int], ds: Sequence[int], pairs: Iterable[Ratio], s: int) -> list[int]:
    """How many sorted keys n/d lie below each a/b at s = 0, at or below it at s = 1.

    A bisect places the cursor for the first point, then it moves from the
    previous rank, so a sorted sweep costs O(points + keys).  It reads
    ``pairs`` one at a time.  On integers, key <= a/b is n b - a d < 1 and
    key < a/b is n b - a d < 0.
    """
    end, out, r = len(ns), [], None
    for a, b in pairs:
        if r is None:
            r = bisect_left(range(end), True, key=lambda k: ns[k] * b - a * ds[k] >= s)
        while r < end and ns[r] * b - a * ds[r] < s:
            r += 1
        while r and ns[r - 1] * b - a * ds[r - 1] >= s:
            r -= 1
        out.append(r)
    return out


def _walk(table: tuple, pairs: Iterable[Ratio], s: int) -> list:
    """Rank each a/b among the keys of ``table`` at s, and read the table at that rank.

    A table is (key numerators, key denominators, consts, pieces); at rank r it
    answers with the affine ``pieces[r]`` at a/b, or ``consts[r]`` where that is None.
    """
    ns, ds, consts, pieces = table
    pairs = list(pairs)
    out = []
    for (a, b), r in zip(pairs, _ranks(ns, ds, pairs, s)):
        if (piece := pieces[r]) is None:
            out.append(consts[r])
        else:
            alpha, beta, gamma = piece
            out.append((alpha * a + beta * b, gamma * b))
    return out


class _SweepTables:
    """The kernels' two answer tables, each with its keys.

    An answer table (key numerators, key denominators, consts, pieces) is read
    by :func:`_walk`.  ``g`` is G by rank among the knot abscissae: the
    infimum at 0, value_i or the piece on [x_i, x_{i+1}) at i + 1.
    ``inverse`` is the inverse by rank among the knot levels: -inf at 0, x_k at
    2k + 1, the crossing between value_{k-1} and left_k at 2k, +inf at the
    end, the infinities as their pairs.  Both are built from the pairs
    ``MonotoneFn`` encoded its knots as.
    """

    __slots__ = ("g", "inverse")

    def __init__(self, xs: Sequence[Ratio], pairs: Sequence[Ratio]) -> None:
        pieces = [None, *map(_piece, xs, pairs[1::2], xs[1:], pairs[2::2]), None]
        self.g = (*zip(*xs), pairs[:1] + pairs[1::2], pieces)
        crossings: list[_Piece] = [None] * (len(pairs) + 1)
        crossings[2:-1:2] = map(_piece, pairs[1::2], xs, pairs[2::2], xs[1:])
        self.inverse = (*zip(*pairs), [NEG_PAIR, *[x for x in xs for _ in (0, 1)][1:], POS_PAIR], crossings)


def _coerce_knot(entry, index: int) -> Knot:
    if isinstance(entry, Knot):
        if type(entry.x) is type(entry.left) is type(entry.value) is Fraction:
            return entry
        return Knot(as_scalar(entry.x), as_scalar(entry.left), as_scalar(entry.value))
    try:
        x, left, value = entry
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"knot index {index}: expected (x, left, value)") from exc
    return Knot(as_scalar(x), as_scalar(left), as_scalar(value))


@dataclass(frozen=True)
class MonotoneFn:
    """Non-decreasing right-continuous function with finitely many breakpoints.

    The constructor is the one place a knot list is encoded: it reads each
    knot's ``x``, ``left`` and ``value`` as integer pairs once, checks the
    three order rules on them by cross-multiplication, and keeps them for the
    answer tables and the grid axes (``knot_x_pairs``, ``critical_level_pairs``).
    A ``Knot`` whose fields are already ``Fraction``s is kept as it is.
    """

    knots: tuple[Knot, ...]
    _xs: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    # the knot abscissae and the knot levels (left_0, value_0, left_1, ...), as reduced pairs
    _x_pairs: tuple[Ratio, ...] = field(init=False, repr=False, compare=False)
    _levels: tuple[Ratio, ...] = field(init=False, repr=False, compare=False)
    # built on the first batch call, so loading a payload does no work for it;
    # threads that race to build it build equal tables
    _sweep: Optional[_SweepTables] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        knots = tuple(_coerce_knot(k, i) for i, k in enumerate(self.knots))
        if not knots:
            raise ValidationError("a monotone function needs at least one knot")
        xs = tuple(k.x.as_integer_ratio() for k in knots)
        levels = tuple(lv.as_integer_ratio() for k in knots for lv in (k.left, k.value))
        for i, k in enumerate(knots):
            (ln, ld), (vn, vd) = levels[2 * i], levels[2 * i + 1]
            if ln * vd > vn * ld:
                raise ValidationError(
                    f"knot index {i}: left limit {k.left} exceeds value {k.value}"
                )
            if i > 0:
                prev = knots[i - 1]
                (xn, xd), (pn, pd), (qn, qd) = xs[i], xs[i - 1], levels[2 * i - 1]
                if xn * pd <= pn * xd:
                    raise ValidationError(
                        f"knot index {i}: abscissa {k.x} not greater than {prev.x}"
                    )
                if qn * ld > ln * qd:
                    raise ValidationError(
                        f"knot index {i}: left limit {k.left} below previous value {prev.value}"
                    )
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_xs", tuple(k.x for k in knots))
        object.__setattr__(self, "_x_pairs", xs)
        object.__setattr__(self, "_levels", levels)

    # -- range ---------------------------------------------------------------

    @property
    def inf_value(self) -> Fraction:
        """c = inf G, attained as the constant level left of the first knot."""
        return self.knots[0].left

    @property
    def sup_value(self) -> Fraction:
        """d = sup G, attained at and beyond the last knot."""
        return self.knots[-1].value

    def is_cdf(self) -> bool:
        return self.inf_value == 0 and self.sup_value == 1

    def knot_xs(self) -> tuple[Fraction, ...]:
        return self._xs

    def knot_x_pairs(self) -> tuple[Ratio, ...]:
        """The knot abscissae as reduced pairs, sorted and distinct."""
        return self._x_pairs

    def critical_levels(self) -> tuple[Fraction, ...]:
        """Sorted distinct levels at which the inverse can change its local form."""
        return tuple(dict.fromkeys(lv for k in self.knots for lv in (k.left, k.value)))

    def critical_level_pairs(self) -> tuple[Ratio, ...]:
        """The critical levels as reduced pairs: the knot levels deduplicated as tuples."""
        return tuple(dict.fromkeys(self._levels))

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: ExtScalar) -> Fraction:
        """Exact G(x); the infinities map to the infimum and supremum."""
        return self.eval_many((x,))[0]

    def _tables(self) -> _SweepTables:
        if self._sweep is None:
            object.__setattr__(self, "_sweep", _SweepTables(self._x_pairs, self._levels))
        return self._sweep

    def eval_many(self, xs: Iterable[ExtScalar]) -> list[Fraction]:
        """Exact G at each of ``xs``; the infinities map to the infimum and supremum."""
        return list(map(pair_value, self.eval_pairs(as_pairs(xs))))

    def eval_pairs(self, pairs: Iterable[Ratio]) -> list[Ratio]:
        """Exact G at each point pair, as a pair; (-1, 0) and (1, 0) map to the infimum and supremum."""
        return _walk(self._tables().g, pairs, 1)

    def eval_left(self, x) -> Fraction:
        """Exact limit of G from below at finite x."""
        return pair_value(_walk(self._tables().g, [as_scalar(x).as_integer_ratio()], 0)[0])

    # -- generalized inverses ------------------------------------------------

    def gen_inverse(self, u) -> ExtScalar:
        """inf { x : G(x) >= u }; -inf at u = inf G, where the set is all of R."""
        return self.gen_inverse_many((u,))[0]

    def gen_inverse_right(self, u) -> ExtScalar:
        """inf { x : G(x) > u }; +inf at u = sup G, where the set is empty."""
        return self.gen_inverse_right_many((u,))[0]

    def _level_pairs(self, us: Iterable) -> list[Ratio]:
        """Each of ``us`` as a pair; the first outside [inf G, sup G] raises before the next is coerced."""
        return self._checked_levels(as_scalar(u).as_integer_ratio() for u in us)

    def _checked_levels(self, pairs: Iterable[Ratio]) -> list[Ratio]:
        """Level pairs in [inf G, sup G], each checked before the next is read; an infinity is outside.

        A pair with a negative denominator, or (0, 0), is no value and raises ``ValidationError``.
        """
        (lo_n, lo_d), (hi_n, hi_d) = self._levels[0], self._levels[-1]
        out = []
        for a, b in pairs:
            if b < 0 or a == b == 0:
                raise ValidationError(f"level pair ({a}, {b}) needs a positive denominator")
            if lo_n * b > a * lo_d or a * hi_d > hi_n * b:
                u = pair_value((a, b))
                raise DomainError(f"level {u} outside the range [{self.inf_value}, {self.sup_value}]")
            out.append((a, b))
        return out

    def gen_inverse_many(self, us: Iterable) -> list[ExtScalar]:
        """inf { x : G(x) >= u } for each of ``us``, walking one cursor over the knot levels."""
        return list(map(pair_value, _walk(self._tables().inverse, self._level_pairs(us), 0)))

    def gen_inverse_right_many(self, us: Iterable) -> list[ExtScalar]:
        """inf { x : G(x) > u } for each of ``us``, walking one cursor over the knot levels."""
        return list(map(pair_value, _walk(self._tables().inverse, self._level_pairs(us), 1)))

    def gen_inverse_right_pairs(self, pairs: Iterable[Ratio]) -> list[Ratio]:
        """inf { x : G(x) > a/b } for each level pair, as a reduced pair; +inf at sup G is (1, 0)."""
        qs = _walk(self._tables().inverse, self._checked_levels(pairs), 1)
        return [(n // (g := gcd(n, d)), d // g) for n, d in qs]

    def gen_inverse_left_limit(self, u) -> Fraction:
        """Exact limit of gen_inverse from below at u, for u in (inf G, sup G]: gen_inverse(u).

        Valid knots sort the level keys, so the levels in (key r - 1, key r]
        all read one constant or affine piece at rank r: the inverse is
        left-continuous wherever a key lies below u.  None does at u = inf G,
        which reads -inf and raises.
        """
        pairs = self._level_pairs((u,))
        limit = _walk(self._tables().inverse, pairs, 0)[0]
        if limit == NEG_PAIR:
            raise DomainError(f"left limit of the inverse undefined at the infimum {Fraction(*pairs[0])}")
        return pair_value(limit)


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
    """Step function of sorted (atom, mass) pairs, each mass divided by ``total``.

    The masses accumulate as given (integers stay integers), and each knot's
    value is one ``Fraction`` of the running sum, which is the next knot's left limit.
    """
    if total == 0:
        raise ValidationError("masses sum to 0, so they cannot be normalized to a cdf")
    knots = []
    acc, left = 0, Fraction(0)
    for x, mass in atoms:
        acc += mass
        value = Fraction(acc, total)
        knots.append(Knot(x, left, value))
        left = value
    return MonotoneFn(tuple(knots))


# -- verification reports ----------------------------------------------------


def _ff_witness(x: Ratio, lhs: Ratio) -> dict:
    return {"x": Fraction(*x), "lhs": pair_value(lhs)}


def lemma_report(fn: MonotoneFn, us: Iterable[Ratio], xs: Iterable[Ratio], max_witnesses: int = -1) -> Report:
    """Run the full inverse-property suite on level pairs ``us`` and point pairs ``xs``.

    Both grids are integer pairs in the format of ``scalars``, as
    ``GridSpec.lemma_grids`` gives them.  Raises DomainError if some u lies
    outside [inf G, sup G], and ValidationError if some point's denominator
    is not positive, before any walk.  Sections a (G(G^-1(u)) >= u, over the
    levels), b (G^-1(G(x)) <= x, over the points) and left_continuity (over
    the levels above inf G) are certified, as the module docstring says, and
    never hold a witness.  The ``ff`` section checks the round trip
    gen_inverse_right(G(x)) == x by integer cross-multiplication: its
    one-sided bound lhs >= x holds for every valid MonotoneFn and is
    asserted, while equality failures are witnesses, a ``Fraction`` built
    only for each of the first ``max_witnesses`` (all when below 0).
    """
    t = fn._tables()
    pairs = fn._checked_levels(us)
    points = list(xs)
    for a, b in points:
        if b <= 0:
            raise ValidationError(f"point pair ({a}, {b}) needs a positive denominator")

    # u = inf G, where G^-1(u) = -inf, has no left limit
    lo_n, lo_d = fn._levels[0]
    above = sum(a * lo_d > lo_n * b for a, b in pairs)

    ff_witnesses = Witnesses(max_witnesses)
    for (a, b), lhs in zip(points, _walk(t.inverse, _walk(t.g, points, 1), 1)):
        side = _sign(lhs, a, b)
        if side < 0:
            raise AssertionError(f"one-sided bound violated at x={Fraction(a, b)}: lhs={pair_value(lhs)}")
        if side:
            ff_witnesses.add(NO_DEVIATION, _ff_witness, (a, b), lhs)

    return Report(
        "lemma",
        (
            Witnesses().section("a", "violations_a", len(pairs), "pass_a"),
            Witnesses().section("b", "violations_b", len(points), "pass_b"),
            Witnesses().section("left_continuity", "violations_leftcont", above, "pass_leftcont"),
            ff_witnesses.section("ff", "ff_witnesses", len(points)),
        ),
    )
