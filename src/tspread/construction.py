"""Construction of t-spread strongly stable ideals with maximally many corners.

Everything here is driven by the decomposition n = d + k*t with 1 <= d <= t.
Writing l1 for the initial degree, the witness ideal is the Borel closure of
a short list of monomials, one per degree from l1 upward:

* the starter  x_1 x_{1+t} ... x_{1+(l1-2)t} x_n  (just x_1 x_n for l1 = 2);
* "forward" monomials, each obtained from its predecessor by advancing the
  penultimate variable and appending a new one t further along;
* possibly a "critic" monomial, where advancement is no longer possible and
  an internal block snaps to the arithmetic progression x_{d+it}, and after
  it "backward" monomials that shift that block back by t at each step.

The closed forms for how many monomials exist (and hence how many corners an
ideal of initial degree l1 in n variables can carry) are wrapped by
:func:`max_corners`; :func:`build_omegas` materializes the list and
:func:`construct_extremal_ideal` assembles and self-verifies the ideal.
:func:`omega_claim_check` re-derives the whole list by explicit search,
independently of the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import CornerSequence, corner_peak, corner_shift, corners_from_peaks
from .errors import ConstructionInapplicableError, InvariantViolationError
from .ideals import SpreadIdeal, _dominated, _trie_add, borel_ideal
from .monomials import Context, Monomial, is_t_spread, max_spread_degree


@dataclass(frozen=True)
class Decomposition:
    """The unique writing n = d + k*t with 1 <= d <= t."""

    d: int
    k: int


def decompose(n: int, t: int) -> Decomposition:
    """Decompose n with respect to t: n = d + k*t, 1 <= d <= t."""
    if t <= 0:
        raise ValueError(f"spread t must be positive, got {t}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = (n - 1) % t + 1
    return Decomposition(d, (n - d) // t)


def j_max(n: int, t: int, ell1: int = 2) -> int:
    """Index of the last forward monomial.

    floor(n / (1+t)) - 1 in initial degree two; in general the numerator is
    reduced by (l1 - 2)t.  Refuses t < 1 and n < 1 as :func:`decompose` does.
    """
    decompose(n, t)
    return (n - (ell1 - 2) * t) // (1 + t) - 1


def s_value(n: int, t: int, ell1: int = 2) -> int:
    """2t minus the gap between the last two variables of the final forward
    monomial; controls whether the critic monomial exists."""
    return 2 * t - n + j_max(n, t, ell1) * (1 + t) + 1 + (ell1 - 2) * t


def _general_bound(dec: Decomposition, t: int, ell1: int) -> int:
    """The paper's corner bound, k + floor((d-3)/t) in initial degree two
    and k + floor((d-2)/t) - (l1 - 2) above it; its one home, read by
    :func:`nu_max` and :func:`max_corners`."""
    d, k = dec.d, dec.k
    if ell1 == 2:
        return k + (d - 3) // t
    return k + (d - 2) // t - (ell1 - 2)


def nu_max(n: int, t: int, ell1: int = 2) -> int:
    """Number of backward monomials (may be negative: none, and no critic).

    The general bound of :func:`_general_bound` less the 2 + j_max other
    witnesses: the starter, the j_max forward monomials and the critic.
    """
    return _general_bound(decompose(n, t), t, ell1) - 2 - j_max(n, t, ell1)


def require_closed_forms(t: int, ell1: int) -> None:
    """Raise ConstructionInapplicableError, naming the failing value, unless
    t >= 2 and l1 >= 2: the closed forms' domain (t = 1 is the classical
    case that they generalize, and they are not claimed for it)."""
    if t < 2:
        raise ConstructionInapplicableError(f"the closed forms require t >= 2, got t={t}")
    if ell1 < 2:
        raise ConstructionInapplicableError(
            f"the closed forms require initial degree >= 2, got initial degree {ell1}")


def _no_ideal_reason(n: int, t: int, ell1: int) -> str | None:
    """Why no ideal of initial degree l1 qualifies, or None when one does."""
    if ell1 > max_spread_degree(n, t):  # n < 1 too: its top degree is at most 0
        return f"no {t}-spread monomial of degree {ell1} in {n} variables"
    bound = _general_bound(decompose(n, t), t, ell1)
    if ell1 >= 3 and bound < 1:  # l1 > k + floor((d-2)/t) + 1 = bound + l1 - 1
        return f"initial degree {ell1} exceeds k + floor((d-2)/t) + 1 = {bound + ell1 - 1}"
    return None


def max_corners(n: int, t: int, ell1: int) -> int | None:
    """Maximal number of corners of an ideal of initial degree l1, or None.

    (t, l1) must pass :func:`require_closed_forms`; None then only means
    that no qualifying ideal exists (a dash in the tables): no t-spread
    monomial of degree l1 at all, or (for l1 >= 3) no possible corner of
    positive homological index in degree l1, i.e. l1 > k + floor((d-2)/t) + 1.
    The one test for both is :func:`_no_ideal_reason`.

    Otherwise the value is the general bound of :func:`_general_bound`:
    k + floor((d-3)/t) for l1 = 2 and k + floor((d-2)/t) - (l1 - 2) for
    l1 >= 3, the k = 2 cells of l1 >= 3 included (corroborated by the
    brute-force oracle).  The one exception is l1 = 2 with k = 1, 2, whose
    values come from the small-k analysis (a single corner, except two when
    k = 2 and d >= 2).
    """
    require_closed_forms(t, ell1)
    if _no_ideal_reason(n, t, ell1):
        return None
    dec = decompose(n, t)
    if ell1 == 2 and dec.k < 3:
        return 1 if dec.k == 1 or dec.d == 1 else 2
    return _general_bound(dec, t, ell1)


@dataclass(frozen=True)
class ConstructionReport:
    """Everything the construction decided: parameters, monomials, corners."""

    ctx: Context
    ell1: int
    decomp: Decomposition
    j_max: int
    s: int
    nu_max: int
    omegas: tuple[Monomial, ...]
    predicted_corners: CornerSequence
    total: int
    regime: str  # "general" (k >= 3) or "small-k"
    critic_index: int | None  # position of the critic monomial, if any


def build_omegas(n: int, t: int, ell1: int) -> ConstructionReport:
    """Materialize the corner-witness monomials for (n, t, l1).

    Raises ConstructionInapplicableError, naming the failing condition, when
    (n, t, l1) lies outside the construction's hypotheses (see
    :func:`max_corners`).
    """
    expected = max_corners(n, t, ell1)
    if expected is None:
        raise ConstructionInapplicableError(
            f"no construction for n={n}, t={t}, ell1={ell1}: {_no_ideal_reason(n, t, ell1)}")
    dec = decompose(n, t)
    d, k = dec.d, dec.k

    ctx = Context(n, t)
    jm = j_max(n, t, ell1)
    s = s_value(n, t, ell1)
    nm = nu_max(n, t, ell1)

    omegas: list[Monomial] = [tuple(1 + i * t for i in range(ell1 - 1)) + (n,)]
    head = tuple(1 + i * t for i in range(ell1 - 2))
    for j in range(1, jm + 1):
        body = tuple(2 + i + (ell1 - 2 + i) * t for i in range(j))
        omegas.append(head + body + ((j + 1) + (ell1 - 2 + j) * t, n))

    critic_index = None
    if nm >= 0:
        critic_index = jm + 1
        last_forward = omegas[-1]
        keep_base = jm + ell1 - 4 - s
        for nu in range(nm + 1):
            keep = keep_base - nu * t
            lo = k - 4 - s - nu * (1 + t)
            block = tuple(d + i * t for i in range(lo, k + 1))
            omegas.append(last_forward[:keep] + block)

    for j, w in enumerate(omegas):
        if len(w) != ell1 + j or w[-1] != n or not is_t_spread(w, ctx):
            raise InvariantViolationError(
                f"malformed witness monomial #{j} for (n={n}, t={t}, "
                f"ell1={ell1}): {w}"
            )
    if len(omegas) != expected:
        raise InvariantViolationError(
            f"built {len(omegas)} monomials for (n={n}, t={t}, ell1={ell1}), "
            f"expected {expected}"
        )

    corners = tuple((n - corner_shift(t, ell), ell) for ell in range(ell1, ell1 + expected))
    return ConstructionReport(
        ctx=ctx, ell1=ell1, decomp=dec, j_max=jm, s=s, nu_max=nm, omegas=tuple(omegas),
        predicted_corners=CornerSequence(corners, (1,) * expected), total=expected,
        regime="general" if k >= 3 else "small-k", critic_index=critic_index)


def construct_extremal_ideal(n: int, t: int, ell1: int) -> tuple[SpreadIdeal, ConstructionReport]:
    """Build the witness ideal B_t(omegas) and verify its corners.

    The returned ideal attains :func:`max_corners` corners, at positions
    (n - t(l-1) - 1, l) for l = l1, ..., l1 + total - 1, each of value 1.
    The corner sequence is recomputed from the assembled generators and
    compared against the prediction; a mismatch raises
    InvariantViolationError (it indicates a bug, not bad input).  Stability
    of the result is by construction (it is a Borel closure), so the
    recomputation folds the corner peaks without a stability gate.
    """
    report = build_omegas(n, t, ell1)
    ideal = borel_ideal(report.omegas, report.ctx)
    got = corners_from_peaks(t, [(l, corner_peak(g)) for l, g in sorted(ideal.gens.items())])
    if got != report.predicted_corners:
        raise InvariantViolationError(
            f"corner verification failed for (n={n}, t={t}, ell1={ell1}): "
            f"predicted {report.predicted_corners}, recomputed {got}"
        )
    return ideal, report


def _max_excluded(n: int, t: int, deg: int, earlier: dict) -> Monomial | None:
    """slex-max of { u in M_{n,deg,t} : max(u) = n, u not a multiple of
    B_t(earlier) }, or None if the set is empty; ``earlier`` is a prefix
    trie (see :func:`tspread.ideals._trie_add`) of monomials of degree below
    ``deg``.

    Direct lexicographic search; knows nothing of the closed forms.
    """
    if deg < 1:
        return None
    # every u in M_{n,deg,t} has u_p <= n - t(deg - 1 - p): the bound _dominated needs
    top = tuple(n - t * (deg - 1 - p) for p in range(deg - 1))
    hit = _dominated(Context(n, t), deg - 1, [top], earlier, first=True)
    return hit[0] + (n,) if hit else None


def omega_claim_check(omegas, ctx: Context, ell1: int) -> bool:
    """Independently verify the defining property of the witness monomials.

    For each j >= 1, the set of degree-(l1+j) monomials with maximal index n
    that avoid every iterated shadow of the earlier closures must have
    omega_j as its slex-maximum (avoiding those shadows is equivalent to
    escaping prefix domination); and the set one degree beyond the last
    monomial must be empty.  One trie of the earlier monomials grows by
    omega_{j-1} before step j.  Returns a plain verdict, never raises.
    """
    n, t = ctx.n_vars, ctx.spread_t
    omegas = list(omegas)
    earlier: dict = {}
    for j, w in enumerate(omegas):
        if j and _max_excluded(n, t, ell1 + j, earlier) != w:
            return False
        _trie_add(earlier, [w])
    return _max_excluded(n, t, ell1 + len(omegas), earlier) is None
