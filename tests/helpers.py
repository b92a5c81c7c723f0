"""Shared test oracles, test-only utilities and golden data.

The oracles are deliberately independent of the library's fast paths:
subset filters, breadth-first closures over the moves, componentwise-
domination closures, the basis-walk stability test, the literal scan for the
first unit decrement outside an ideal, the one-ideal-at-a-time max-corner
walk, the max-corner dynamic program over every down-set, the max-corner
candidates scanned over every free monomial and their ⊆-minimal shadows,
the Betti numbers read off linear quotients, and hand-transcribed golden
values.  The utilities are small functions only the tests need: the
paper's definition of the slex order, index helpers, membership by
divisibility, the ideal file written by ``json.dumps``, the slex successor
with a fixed last index, the literal and iterated shadows, and the
Borel-closed sets of one degree listed by the library's down-set search.
"""

import json
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from operator import le

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
    slex_sorted,
    spread_count,
    spread_monomials,
)
from tspread import oracle
from tspread.monomials import max_spread_degree

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
    """Shad_t(T) from its definition: every product x_i * w with w in T and
    i not in w that is t-spread, slex-descending.  Each w is a strictly
    increasing index tuple, so x_i goes in where bisection puts it."""
    t = ctx.spread_t
    out = set()
    for w in monomials:
        for i in range(1, ctx.n_vars + 1):
            p = bisect_left(w, i)
            if p < len(w) and w[p] == i:
                continue  # x_i * w is not squarefree
            grown = w[:p] + (i,) + w[p:]
            if all(b - a >= t for a, b in zip(grown, grown[1:])):
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
    if not ideal.gens:
        return None
    n, t = ideal.ctx.n_vars, ideal.ctx.spread_t
    gens = [frozenset(g) for g in ideal.all_generators()]

    def member(support):
        return any(g <= support for g in gens)

    for d in range(min(ideal.gens), max(ideal.gens) + 2):
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


# free sets of at most this many elements take their down-sets from a shared
# family; memoising larger ones saves little time and costs memory
DP_FRONTIER = 12

# search nodes between two charges to the meter
DP_CHECK_EVERY = 4096


def frontier_down_sets(layer, required, frontier):
    """The include/exclude search of ``oracle._down_sets``, stopped at the
    nodes where at most ``frontier`` elements are undecided.

    Yields ``(shadow, mm, free)`` per node: the shadow of the down-set D
    decided so far, the largest last index among its new generators (-1 if
    none) and the undecided elements, whose down-sets extend D.
    """
    up, down_shadow, maxval = layer.up, layer.down_shadow, layer.maxval
    free = ((1 << layer.size) - 1) & ~required
    stack = [(free, oracle._union(down_shadow, required), -1)]
    while stack:
        free, shadow, mm = stack.pop()
        while free.bit_count() > frontier:
            low = free & -free
            p = low.bit_length() - 1
            stack.append((free ^ low, shadow | down_shadow[p], max(mm, maxval[p])))
            free &= ~up[p]
        yield shadow, mm, free


class CornerDP:
    """Max-corner dynamic program over every down-set (reference oracle).

    The same (layer, required shadow) states and Pareto fronts of (b, r) as
    ``oracle._PrincipalSearch``, but each state ranges over every down-set
    containing the required shadow, not one principal closure per degree,
    so it also counts the ideals exactly.  Unlike the principal search it
    needs no order between the last indices of a layer.

    ``solve(li, required)`` returns ``(ideals, front)``.  :meth:`groups`
    lists the down-sets of a state until at most ``DP_FRONTIER`` elements
    are free, merges equal nodes with multiplicities, and reads the
    down-sets below each from :meth:`family`, memoised per layer as in a
    zero-suppressed decision diagram (Minato, DAC 1993).  Nodes are charged
    to one ``oracle._Meter`` in batches of at most ``DP_CHECK_EVERY``, which
    ends at the cap exactly, and each family entry built is charged too.
    """

    def __init__(self, layers, budget):
        self.layers = layers
        self.meter = oracle._Meter(budget)
        self.memo = [{} for _ in layers]
        self.families = [{} for _ in layers]

    def groups(self, li, required):
        """Down-sets of layer ``li`` containing ``required``, counted per
        (shadow, mm)."""
        layer = self.layers[li]
        families = self.families[li] if li else {}  # layer 0 has one state
        meter = self.meter
        nodes = charged = mark = 0
        leaves = {}
        for shadow, mm, free in frontier_down_sets(layer, required, DP_FRONTIER):
            nodes += 1
            if nodes > mark:
                meter.charge(nodes - charged)
                charged = nodes
                mark = nodes + min(meter.budget.max_states - meter.used,
                                   DP_CHECK_EVERY)
            leaf = (free, shadow, mm)
            leaves[leaf] = leaves.get(leaf, 0) + 1
        meter.charge(nodes - charged)
        groups = {}
        for (free, shadow, mm), mult in leaves.items():
            for (extra, fm), count in self.family(families, layer, free).items():
                key = (shadow | extra, max(fm, mm))
                groups[key] = groups.get(key, 0) + mult * count
        return groups

    def family(self, memo, layer, free):
        """The down-sets of the free elements ``free``, counted per (shadow,
        largest last index); it depends on ``free`` alone."""
        family = memo.get(free)
        if family is not None:
            return family
        if not free:
            family = {(0, -1): 1}
        else:
            low = free & -free
            p = low.bit_length() - 1
            family = dict(self.family(memo, layer, free & ~layer.up[p]))
            extra, v = layer.down_shadow[p], layer.maxval[p]
            for (shadow, fm), count in self.family(memo, layer, free ^ low).items():
                entry = (shadow | extra, max(v, fm))
                family[entry] = family.get(entry, 0) + count
        memo[free] = family
        self.meter.charge(len(family))
        return family

    def solve(self, li, required):
        if li == len(self.layers):
            return 1, ((-1, 0),)
        memo = self.memo[li]
        if required not in memo:
            memo[required] = self._solve(li, required)
        return memo[required]

    def _solve(self, li, required):
        layer = self.layers[li]
        offset = layer.ctx.spread_t * (layer.d - 1) + 1
        ideals = 0
        front = {}
        for (shadow, mm), mult in self.groups(li, required).items():
            count, above = self.solve(li + 1, shadow)
            ideals += mult * count
            k = mm - offset if mm >= 0 else -1
            for b, r in above:
                if k > b:
                    b, r = k, r + 1
                if front.get(b, -1) < r:
                    front[b] = r
        pareto = []
        for b in sorted(front):
            if not pareto or front[b] > pareto[-1][1]:
                pareto.append((b, front[b]))
        return ideals, tuple(pareto)


def dp_max_corners(ctx, ell1, budget=None):
    """``(ideals, unconstrained, value)`` of :func:`walk_max_corners`, by
    :class:`CornerDP`; raises BudgetExceededError when a cap is hit."""
    budget = budget or SearchBudget()
    value = unconstrained = None
    ideals = 0
    if ell1 > max_spread_degree(ctx.n_vars, ctx.spread_t):
        return ideals, unconstrained, value
    search = CornerDP(oracle._layers(ctx, ell1, budget), budget)
    offset = ctx.spread_t * (ell1 - 1) + 1
    for (shadow, mm), mult in search.groups(0, 0).items():
        if mm < 0:
            continue  # no generator in degree l1
        count, above = search.solve(1, shadow)
        ideals += mult * count
        k = mm - offset
        top = max(r + (k > b) for b, r in above)
        if unconstrained is None or top > unconstrained:
            unconstrained = top
        if ell1 >= 3 and k < 1:
            continue
        for b, r in above:
            if k > b and (value is None or r + 1 > value):
                value = r + 1
    return ideals, unconstrained, value


def full_scan_candidates(layer, required):
    """The candidate shadows of ``oracle._PrincipalSearch.choices`` by
    scanning every free monomial (reference oracle): the shadow of the
    required down-set joined with that of each free monomial's down-set,
    grouped by the monomial's last index (-1 for the required down-set
    alone), as sets per last index in order of first appearance."""
    base = oracle._union(layer.down_shadow, required)
    groups = {-1: {base}}
    for p in range(layer.size):
        if not required >> p & 1:
            groups.setdefault(layer.maxval[p], set()).add(base | layer.down_shadow[p])
    return groups


def minimal_shadows(group):
    """The ⊆-minimal masks of ``group``, smallest first."""
    kept = []
    for shadow in sorted(group, key=int.bit_count):  # subsets first
        if all(k & ~shadow for k in kept):
            kept.append(shadow)
    return kept


def full_scan_choices(layer, required):
    """The ⊆-minimal shadows of each group of :func:`full_scan_candidates`:
    the candidates of one last index that no other one of them dominates
    by the lemma of ``oracle._PrincipalSearch``."""
    return {mm: minimal_shadows(group)
            for mm, group in full_scan_candidates(layer, required).items()}


def contains(ideal, u):
    """Membership of a monomial in an ideal: some minimal generator divides
    it, tested against every generator."""
    support = set(u)
    return any(set(g) <= support for g in ideal.all_generators())


def ideal_json(ideal):
    """The ideal file that ``SpreadIdeal.from_json`` reads,
    ``{"n": n, "t": t, "gens": [[i, ...], ...]}``, written by ``json.dumps``
    rather than by the library."""
    return json.dumps({"n": ideal.ctx.n_vars, "t": ideal.ctx.spread_t,
                       "gens": ideal.all_generators()})


def domination_closure(u, ctx):
    """Members of M_{n,deg,t} dominated componentwise by u (closure oracle),
    filtered from the subset enumeration, which is listed once per (n, d, t)."""
    return [v for v in _spread_basis(ctx.n_vars, len(u), ctx.spread_t)
            if all(map(le, v, u))]


def bfs_closure(u, ctx):
    """Degree-deg(u) members of B_t(u), slex-descending, by breadth-first
    search over the moves x_i * (w / x_j), i < j, that stay t-spread: the
    closure taken literally from the definition of strong stability.

    The moves only lower indices, so the closure does not depend on n: each
    (u, t) is searched once per test process, and every context shares it.
    """
    return list(_bfs_closure(u, ctx.spread_t))


@lru_cache(maxsize=None)
def _bfs_closure(u, t):
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
                    if (moved not in seen
                            and all(b - a >= t for a, b in zip(moved, moved[1:]))):
                        seen.add(moved)
                        nxt.append(moved)
        frontier = nxt
    return tuple(sorted(seen))


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


def linear_quotient_betti(ideal):
    """Graded Betti numbers from linear quotients, without the closed formula:
    ``{(k, l): beta_{k,k+l}}`` with
    beta_{k,k+l} = sum over u in G(I)_l of binom(|set(u)|, k).

    set(u_j) is read literally off the colon ideal (u_1, ..., u_{j-1}) : u_j,
    generators in ``all_generators`` order.  For squarefree monomials,
    (u_i) : u_j is generated by the product of the variables of u_i outside
    u_j, so the colon ideal is generated by those supports, held here as
    bitmasks.  set(u_j) is the set of its variable generators; a support
    that no variable generator divides means a minimal generator of degree
    two or more, and ValueError is raised.  Binomials are ``mult_binom``.
    """
    entries = {}
    earlier = []  # supports of the generators before u, as bitmasks
    for u in ideal.all_generators():
        mask = sum(1 << i for i in u)
        colon = [g & ~mask for g in earlier]
        variables = 0
        for c in colon:
            if c and not c & (c - 1):  # a single variable
                variables |= c
        if any(not c & variables for c in colon):
            raise ValueError(f"the colon ideal of the generators before "
                             f"{format_monomial(u)} is not generated by variables")
        size, l = variables.bit_count(), len(u)
        for k in range(size + 1):
            entries[(k, l)] = entries.get((k, l), 0) + mult_binom(size, k)
        earlier.append(mask)
    return entries


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


def slex_greater(u, v):
    """u > v in the squarefree lex order, as the paper defines it for u and
    v of one degree: at the first position where they differ, u has the
    smaller index."""
    for a, b in zip(u, v):
        if a != b:
            return a < b
    return False


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
    """m-fold shadow; m = 1 is literal_shadow() itself."""
    if m < 1:
        raise ValueError(f"shadow iteration count must be >= 1, got {m}")
    current = list(monomial_set)
    for _ in range(m):
        current = literal_shadow(current, ctx)
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
    for gens, _ in oracle._down_sets(layer):
        meter.charge()
        out.append(layer.members(gens))
    return out
