"""Shared test oracles, test-only utilities and golden data.

The oracles are deliberately independent of the library's fast paths:
subset filters, breadth-first closures over the moves, componentwise-
domination closures, the basis-walk stability test, the literal scan for the
first unit decrement outside an ideal, the one-ideal-at-a-time max-corner
walk, and hand-transcribed golden values.  The utilities are
small functions only the tests need: index helpers, the slex successor with
a fixed last index, the iterated shadow, and the Borel-closed sets of one
degree listed by the library's down-set search.
"""

from functools import lru_cache
from itertools import combinations

from tspread import (
    BudgetExceededError,
    Context,
    InvalidMonomialError,
    InvariantViolationError,
    NotTSpreadError,
    SearchBudget,
    SpreadIdeal,
    borel_closure_degree,
    enumerate_strongly_stable_ideals,
    format_monomial,
    is_t_spread,
    shadow,
    slex_sorted,
    spread_count,
    spread_monomials,
)
from tspread import oracle

# Maximal corner counts for 2-spread ideals, rows = initial degree,
# columns n = 4..20; None is a dash (no qualifying ideal).
TABLE_T2 = {
    2: [1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8],
    3: [None, None, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8],
    4: [None, None, None, None, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7],
    5: [None] * 6 + [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6],
    6: [None] * 8 + [1, 1, 2, 2, 3, 3, 4, 4, 5],
    7: [None] * 10 + [1, 1, 2, 2, 3, 3, 4],
    8: [None] * 12 + [1, 1, 2, 2, 3],
    9: [None] * 14 + [1, 1, 2],
    10: [None] * 16 + [1],
}

# Same for 3-spread ideals, rows = initial degree, columns n = 4..20.
TABLE_T3 = {
    2: [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5],
    3: [None] * 4 + [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5],
    4: [None] * 7 + [1, 1, 1, 2, 2, 2, 3, 3, 3, 4],
    5: [None] * 10 + [1, 1, 1, 2, 2, 2, 3],
    6: [None] * 13 + [1, 1, 1, 2],
    7: [None] * 16 + [1],
}

TABLE_N_RANGE = (4, 20)

# Betti diagram of B_3(x1x14, x2x5x14, x2x6x9x14): rows by generator degree.
GOLDEN_BETTI_ROWS = {
    2: [11, 55, 165, 330, 462, 462, 330, 165, 55, 11, 1],
    3: [7, 28, 56, 70, 56, 28, 8, 1],
    4: [3, 9, 10, 5, 1],
}
GOLDEN_CORNERS = ((10, 2), (7, 3), (4, 4))
GOLDEN_CORNER_VALUES = (1, 1, 1)

# Witness monomials for 46 variables at spread 3: starter, ten forward
# monomials, the critic (index 11), two backward monomials.
OMEGAS_46_3 = [
    (1, 46),
    (2, 5, 46),
    (2, 6, 9, 46),
    (2, 6, 10, 13, 46),
    (2, 6, 10, 14, 17, 46),
    (2, 6, 10, 14, 18, 21, 46),
    (2, 6, 10, 14, 18, 22, 25, 46),
    (2, 6, 10, 14, 18, 22, 26, 29, 46),
    (2, 6, 10, 14, 18, 22, 26, 30, 33, 46),
    (2, 6, 10, 14, 18, 22, 26, 30, 34, 37, 46),
    (2, 6, 10, 14, 18, 22, 26, 30, 34, 38, 41, 46),
    (2, 6, 10, 14, 18, 22, 26, 31, 34, 37, 40, 43, 46),
    (2, 6, 10, 14, 19, 22, 25, 28, 31, 34, 37, 40, 43, 46),
    (2, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37, 40, 43, 46),
]


def brute_force_spread(n, d, t):
    """All t-spread degree-d monomials by filtering raw d-subsets of {1..n}."""
    return [u for u in combinations(range(1, n + 1), d)
            if all(b - a >= t for a, b in zip(u, u[1:]))]


def literal_shadow(monomials, ctx):
    """Shad_t(T) from its definition: every product x_i * w with w in T that
    is squarefree and t-spread, slex-descending."""
    t = ctx.spread_t
    out = set()
    for w in monomials:
        for i in range(1, ctx.n_vars + 1):
            grown = tuple(sorted(set(w) | {i}))
            if len(grown) > len(w) and all(b - a >= t for a, b in zip(grown, grown[1:])):
                out.add(grown)
    return sorted(out)


@lru_cache(maxsize=None)
def _spread_basis(n, d, t):
    return tuple(brute_force_spread(n, d, t))


def find_stability_violation(ideal):
    """Exhaustive strong-stability test over the monomial basis of the ideal.

    The definition-level oracle for the library's generator gate.  Walks
    every t-spread monomial of each degree from indeg to the maximal
    generator degree plus one, keeps those lying in the ideal, and tries
    every move x_i * (u / x_j), i < j, that stays t-spread.  Returns None if
    stable, else the first witness ``(u, j, i, result)``.  Desk scale only.
    """
    if ideal.is_zero:
        return None
    n, t = ideal.ctx.n_vars, ideal.ctx.spread_t
    gens = [frozenset(g) for g in ideal.all_generators()]

    def member(support):
        return any(g <= support for g in gens)

    for d in range(ideal.indeg(), max(ideal.gens) + 2):
        for u in _spread_basis(n, d, t):
            sup = set(u)
            if not member(sup):
                continue
            for j in u:
                for i in range(1, j):
                    if i in sup:
                        continue
                    moved = tuple(sorted(sup - {j} | {i}))
                    if (all(b - a >= t for a, b in zip(moved, moved[1:]))
                            and not member(set(moved))):
                        return u, j, i, moved
    return None


def first_outside_decrement(ideal):
    """The first t-spread unit decrement x_{a-1} * (u / x_a) of a minimal
    generator u that no generator divides, as ``(u, a, a - 1, result)``;
    None if every decrement lies in the ideal.

    A literal scan: generators in ``all_generators`` order, positions left
    to right, membership by divisibility against every generator.
    """
    gens = ideal.all_generators()
    supports = [set(g) for g in gens]
    for u in gens:
        for a in u:
            if a == 1 or a - 1 in u:
                continue
            moved = tuple(sorted(set(u) - {a} | {a - 1}))
            if is_t_spread(moved, ideal.ctx) and not any(
                    g <= set(moved) for g in supports):
                return u, a, a - 1, moved
    return None


def corner_stats(ideal):
    """Corner data read off the generators of one ideal: list of (k, l, value).

    The degree-l candidate sits at k = mm - t(l-1) - 1 with mm the largest
    last index among the degree-l generators; it survives iff no candidate
    of a higher degree reaches it, and its Betti value is the number of
    generators attaining mm.
    """
    t = ideal.ctx.spread_t
    corners = []
    best = -1
    for d in sorted(ideal.gens, reverse=True):
        lasts = [u[-1] for u in ideal.gens[d]]
        mm = max(lasts)
        k = mm - t * (d - 1) - 1
        if k > best:
            corners.append((k, d, lasts.count(mm)))
            best = k
    corners.reverse()
    return corners


def walk_max_corners(ctx, ell1):
    """Maximal corner counts by walking every ideal (reference oracle).

    Returns ``(ideals, unconstrained, value)``, with the meaning of
    :func:`tspread.brute_force_max_corners`: ``value`` is the maximum over
    the ideals whose first corner lies in degree l1, at k >= 1 when
    l1 >= 3.  Desk scale only.
    """
    value = unconstrained = None
    ideals = 0
    for ideal in enumerate_strongly_stable_ideals(ctx, ell1):
        ideals += 1
        corners = corner_stats(ideal)
        r = len(corners)
        if unconstrained is None or r > unconstrained:
            unconstrained = r
        k1, d1, _ = corners[0]
        if d1 == ell1 and (ell1 < 3 or k1 >= 1) and (value is None or r > value):
            value = r
    return ideals, unconstrained, value


def domination_closure(u, ctx):
    """Members of M_{n,deg,t} dominated componentwise by u (closure oracle)."""
    return [v for v in spread_monomials(ctx, len(u))
            if all(a <= b for a, b in zip(v, u))]


def bfs_closure(u, ctx):
    """Degree-deg(u) members of B_t(u), slex-descending, by breadth-first
    search over the moves x_i * (w / x_j), i < j, that stay t-spread: the
    closure taken literally from the definition of strong stability."""
    t = ctx.spread_t
    seen = {u}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            sup = set(w)
            for j in w:
                rest = sup - {j}
                for i in range(1, j):
                    if i in rest:
                        continue
                    moved = tuple(sorted(rest | {i}))
                    if (all(b - a >= t for a, b in zip(moved, moved[1:]))
                            and moved not in seen):
                        seen.add(moved)
                        nxt.append(moved)
        frontier = nxt
    return sorted(seen)


def bfs_borel_ideal(gens, ctx):
    """B_t(gens) from the union of the BFS closures, keeping the members
    that no other member divides (subset filter).  Desk scale only."""
    closure = {v for u in gens for v in bfs_closure(u, ctx)}
    by_degree = {}
    for v in sorted(closure):
        if not any(w != v and set(w) <= set(v) for w in closure):
            by_degree.setdefault(len(v), []).append(v)
    return SpreadIdeal(ctx, {d: tuple(vs) for d, vs in by_degree.items()})


def closure_equivalence_cases(max_n=12, max_t=3, max_d=4):
    """Compare the library's closures against the BFS and the domination
    oracles; returns (cases, mismatches)."""
    cases = mismatches = 0
    for t in range(1, max_t + 1):
        for n in range(2, max_n + 1):
            ctx = Context(n, t)
            for d in range(1, max_d + 1):
                for u in spread_monomials(ctx, d):
                    cases += 1
                    got = borel_closure_degree(u, ctx)
                    if not got == bfs_closure(u, ctx) == domination_closure(u, ctx):
                        mismatches += 1
    return cases, mismatches


def mult_binom(a, b):
    """Multiplicative big-integer binomial, independent of math.comb."""
    if b < 0 or b > a:
        return 0
    result = 1
    for i in range(1, b + 1):
        result = result * (a - b + i) // i
    return result


def table_cells(table, t):
    """Yield (n, t, ell1, value) over a golden table."""
    lo, hi = TABLE_N_RANGE
    for ell1, row in table.items():
        for n, value in zip(range(lo, hi + 1), row):
            yield n, t, ell1, value


def pairwise_minimalize(monomials):
    """Minimal generators by the literal pairwise subset filter: every
    distinct input that no other distinct input divides, by degree and
    slex-sorted, the layout of ``SpreadIdeal.gens``.  Desk scale only."""
    distinct = set(monomials)
    by_degree = {}
    for u in distinct:
        if not any(w != u and set(w) <= set(u) for w in distinct):
            by_degree.setdefault(len(u), []).append(u)
    return {d: tuple(slex_sorted(vs)) for d, vs in by_degree.items()}


def min_index(u):
    """min(u); 0 for the monomial 1."""
    return u[0] if u else 0


def support(u):
    """The set of variable indices dividing u."""
    return set(u)


def slex_successor_with_max_n(u, ctx):
    """Largest t-spread v of the same degree with max(v) = n and u > v in slex.

    Returns None when u is already the smallest such monomial (all gaps
    exactly t), in which case B_t(u) is the t-spread Veronese ideal of its
    degree.  Otherwise, with p the last position whose gap exceeds t, the
    successor keeps u up to position p-1, bumps position p by one, continues
    in steps of t, and ends at n.
    """
    n, t = ctx.n_vars, ctx.spread_t
    if not is_t_spread(u, ctx):
        raise NotTSpreadError(f"{format_monomial(u)} is not {t}-spread")
    if not u or u[-1] != n:
        raise InvalidMonomialError(f"max({format_monomial(u)}) != {n}")
    d = len(u)
    wide = [a for a in range(d - 1) if u[a + 1] - u[a] > t]
    if not wide:
        return None
    p = wide[-1]
    v = u[:p] + tuple(u[p] + 1 + m * t for m in range(d - 1 - p)) + (n,)
    if not is_t_spread(v, ctx):
        raise InvariantViolationError(f"successor of {u} is not t-spread: {v}")
    return v


def iterated_shadow(monomial_set, ctx, m):
    """m-fold shadow; m = 1 is shadow() itself."""
    if m < 1:
        raise ValueError(f"shadow iteration count must be >= 1, got {m}")
    current = list(monomial_set)
    for _ in range(m):
        current = shadow(current, ctx)
    return current


def enumerate_borel_closed(ctx, d, budget=None):
    """All subsets of M_{n,d,t} closed under the admissible moves, listed by
    the oracle's down-set search over one layer.

    Includes the empty set and the full set.  Each set is charged to one
    ``oracle._Meter``, so BudgetExceededError is raised past
    ``budget.max_states`` sets, or up front above ``oracle._MAX_N``
    variables or when the up-sets of the degree are too large for
    ``oracle._check_mask_bits``.
    """
    budget = budget or SearchBudget()
    if ctx.n_vars > oracle._MAX_N:
        raise BudgetExceededError(f"n={ctx.n_vars} exceeds {oracle._MAX_N}")
    oracle._check_mask_bits([spread_count(ctx.n_vars, d, ctx.spread_t)], budget)
    layer = oracle._Layer(ctx, d)
    meter = oracle._Meter(budget)
    out = []
    for gens, _, _, _ in oracle._down_sets(layer):
        meter.charge()
        out.append(layer.members(gens))
    return out
