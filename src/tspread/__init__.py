"""t-spread strongly stable monomial ideals.

Exact combinatorics of t-spread monomials (indices at pairwise distance at
least t): enumeration in squarefree-lex order, Borel closures, graded Betti
numbers of strongly stable ideals via the closed formula, extremal Betti
numbers (corners), the explicit construction of ideals with the maximal
number of corners, and a brute-force oracle that re-derives the maximal
corner counts by exhaustive enumeration.
"""

from .betti import (
    BettiTable,
    CornerSequence,
    corners_from_table,
    corners_via_characterization,
    graded_betti,
    proj_dim,
    regularity,
)
from .construction import (
    ConstructionReport,
    Decomposition,
    build_omegas,
    construct_extremal_ideal,
    decompose,
    j_max,
    max_corners,
    nu_max,
    omega_claim_check,
)
from .errors import (
    BudgetExceededError,
    ConstructionInapplicableError,
    IdealFormatError,
    InvalidMonomialError,
    InvariantViolationError,
    NotStronglyStableError,
    NotTSpreadError,
    TSpreadError,
)
from .ideals import (
    SpreadIdeal,
    borel_closure_degree,
    borel_ideal,
    is_strongly_stable,
)
from .monomials import (
    Context,
    Monomial,
    format_monomial,
    is_t_spread,
    parse_monomial,
    slex_sorted,
    spread_count,
    spread_monomials,
)
from .oracle import (
    CrossValidationReport,
    SearchBudget,
    TableCell,
    brute_force_max_corners,
    cross_validate,
    enumerate_strongly_stable_ideals,
    regenerate_table,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "BudgetExceededError",
    "ConstructionInapplicableError",
    "ConstructionReport",
    "Context",
    "CornerSequence",
    "CrossValidationReport",
    "Decomposition",
    "IdealFormatError",
    "InvalidMonomialError",
    "InvariantViolationError",
    "Monomial",
    "NotStronglyStableError",
    "NotTSpreadError",
    "SearchBudget",
    "SpreadIdeal",
    "TSpreadError",
    "TableCell",
    "borel_closure_degree",
    "borel_ideal",
    "brute_force_max_corners",
    "build_omegas",
    "construct_extremal_ideal",
    "corners_from_table",
    "corners_via_characterization",
    "cross_validate",
    "decompose",
    "enumerate_strongly_stable_ideals",
    "format_monomial",
    "graded_betti",
    "is_strongly_stable",
    "is_t_spread",
    "j_max",
    "max_corners",
    "nu_max",
    "omega_claim_check",
    "parse_monomial",
    "proj_dim",
    "regenerate_table",
    "regularity",
    "slex_sorted",
    "spread_count",
    "spread_monomials",
]
