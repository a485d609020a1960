"""Exact rational machinery for distribution functions and copula extraction.

The package verifies, with tolerance zero, the classical properties of
generalized inverses, the box-volume axioms of multivariate distribution
functions, and the copula obtained from a cdf by the right-limit quantile
transform; wherever a property genuinely fails (discrete margins, flat
pieces), the reports carry exact rational counterexample witnesses.

Dfs and copulas evaluate one point with ``eval`` and a product grid with
``eval_grid(axes)``, which yields values in ``itertools.product`` order.
``eval_grid`` is built on two public hooks that every df and copula has:
``axis_codes(axis, values)`` codes the coordinates of one axis, and
``code_ratio(codes)`` turns one code per axis into the exact value as an
integer pair ``(numerator, denominator)``, with a positive denominator and
not necessarily reduced.  ``code_value(codes)`` is that pair as a
``Fraction``; ``ratio_grid(axes)`` yields the pairs of a grid.
``vertex_sum(ratio_grid, box)`` takes a pair grid evaluator
(``df.ratio_grid``, ``copula.ratio_grid``, or the lattice-index evaluator
that ``mvdf.index_box_grid`` builds for a batch of seeded boxes), not a point
evaluator, sums over the box's corners as one 2 x ... x 2 grid, and returns
the exact ``Fraction``.  The verifiers compare pairs by integer
cross-multiplication, count every violation, and build ``Fraction``s only
for the witnesses they keep: the first ``max_witnesses`` per section, all
by default.

Each function has one evaluation path: ``eval`` is the same sweep on a grid
of one point per axis, and a monotone function's ``eval``, ``gen_inverse``
and ``gen_inverse_right`` are one-point calls into its batch kernels.  The
independent oracles they are tested against live in ``tests/helpers.py``.
"""

from .errors import CopulaCheckError, DomainError, ValidationError
from .families import (
    ComonotoneDf,
    CountermonotoneDf,
    EmpiricalDf,
    GridDf,
    GridMass,
    ProductDf,
    comonotone_df,
    countermonotone_df,
    empirical_from_rows,
    grid_df,
    product_df,
)
from .monotone import (
    Knot,
    MonotoneFn,
    discrete_cdf,
    lemma_report,
    make_monotone,
    uniform_cdf,
)
from .mvdf import (
    Cuboid,
    MultivariateDf,
    check_df_axioms,
    margin,
    vertex_sum,
    volume,
)
from .report import Report, Section, Witnesses
from .rng import SplitMix64
from .scalars import NEG_INF, POS_INF, ExtScalar, Scalar, fmt, parse_ext, parse_scalar
from .sklar import (
    Copula,
    GridSpec,
    extract_copula,
    verify_copula_axioms,
    verify_sklar_identity,
    verify_uniform_margins,
)

__version__ = "0.1.0"

__all__ = [
    "NEG_INF",
    "POS_INF",
    "ComonotoneDf",
    "Copula",
    "CopulaCheckError",
    "CountermonotoneDf",
    "Cuboid",
    "DomainError",
    "EmpiricalDf",
    "ExtScalar",
    "GridDf",
    "GridMass",
    "GridSpec",
    "Knot",
    "MonotoneFn",
    "MultivariateDf",
    "ProductDf",
    "Report",
    "Scalar",
    "Section",
    "Witnesses",
    "SplitMix64",
    "ValidationError",
    "check_df_axioms",
    "comonotone_df",
    "countermonotone_df",
    "discrete_cdf",
    "empirical_from_rows",
    "extract_copula",
    "fmt",
    "grid_df",
    "lemma_report",
    "make_monotone",
    "margin",
    "parse_ext",
    "parse_scalar",
    "product_df",
    "uniform_cdf",
    "verify_copula_axioms",
    "verify_sklar_identity",
    "verify_uniform_margins",
    "vertex_sum",
    "volume",
]
