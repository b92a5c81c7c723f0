"""Brute-force ground truth at desk scale.

Every t-spread strongly stable ideal in n variables is a chain of
Borel-closed sets, one per degree: the degree-l slice of the ideal is closed
under the admissible index-lowering moves, and it contains the shadow of the
slice below.  Conversely any such chain of down-sets (for the move order)
with the shadow-containment property determines exactly one ideal, whose
minimal generators in degree l are the chosen down-set minus the shadow.

Each Borel-closed set is held as a bitmask over the slex-sorted monomial
list of its degree, and one depth-first pass, :func:`_down_sets`, lists them.
:func:`enumerate_strongly_stable_ideals` walks the chains one ideal at a
time.  :func:`brute_force_max_corners` needs only the corners, which depend
on the largest last index of the generators in each degree, so it searches
the principal closures B_t(u_l1, u_l1+1, ...) with at most one generator
per degree, memoised over (degree, required shadow) states; see
:class:`_PrincipalSearch` for why that reaches the maximum.  Both routes are
independent of every closed formula in :mod:`tspread.construction`, which is
the point: they are compared cell by cell in :func:`cross_validate`.  They
share only definitions, each written once: the corner offset
:func:`~tspread.betti.corner_shift`, the top degree
:func:`~tspread.monomials.max_spread_degree` and a cell's first-corner rule
:func:`_first_corner_counts`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb

from .betti import (BettiTable, betti_row, corner_peak, corner_shift, corners_from_peaks,
                    corners_from_table, graded_betti)
from .construction import (construct_extremal_ideal, max_corners, omega_claim_check,
                           require_closed_forms)
from .errors import (BudgetExceededError, ConstructionInapplicableError,
                     InvariantViolationError)
from .ideals import SpreadIdeal, borel_closure_degree, gate_degree
from .monomials import (Context, Monomial, max_spread_degree, spread_count,
                        spread_monomials)

# the most variables _layers takes.  _check_mask_bits bounds the masks;
# the rest of a layer of degree d costs O(d) words and steps per monomial,
# except the step table of _pred_steps: d(n + 1) entries however few
# monomials the layer has (at t = n - 1 the degree-2 layer holds one), so
# the mask count alone does not bound it.  The cap does: d <= n <= 32.
# Check (a) of cross_validate builds layers without this cap, but only of
# degree d <= 4, starting from the degree-1 layer, whose n monomials
# _check_mask_bits counts; its tables hold at most 4(n + 1) entries.
_MAX_N = 32


def _first_corner_counts(k1: int, l1: int, ell1: int) -> bool:
    """Whether a first corner (k1, l1) counts in the cell of initial degree
    l1: it lies in degree l1, at k1 >= 1 when l1 >= 3 (the corner-sequence
    convention); degree 2 admits (0, 2), matching the small-n analysis."""
    return l1 == ell1 and (ell1 < 3 or k1 >= 1)


@dataclass(frozen=True)
class SearchBudget:
    """Caps for each exhaustive search; exceeding either aborts it with a
    partial-result marker rather than a silent wrong answer.

    ``max_states`` caps the units a search charges to its :class:`_Meter`.
    The walk of :func:`enumerate_strongly_stable_ideals` charges one per
    ideal it yields.  The max-corner search charges, for each state it
    solves, one unit plus one per free monomial of the state's layer: each
    is a candidate closure, although the search visits only the
    Borel-minimal ones of each last index.  Check (a) of
    :func:`cross_validate` charges one per monomial of the layer for each
    closure compared.  Units, not bytes: a candidate holds a shadow mask as
    wide as the next layer.  Layers whose masks would need more than
    ``64 * max_states`` bits, one unit per 64-bit word, are refused before
    any is built; at the default budget that caps the masks at about 80 MB.
    ``timeout`` is in wall-clock seconds per search; with it set the clock
    is read at every charge, else never.
    """

    max_states: int = 10_000_000
    timeout: float | None = None  # None = no limit

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be positive")
        if self.timeout is not None and not self.timeout >= 0:  # also NaN
            raise ValueError("timeout must be a non-negative number of seconds")


class _Meter:
    """The work one search has spent, ``used`` units of ``max_states``.

    With a timeout set, it starts the clock when made and reads it at every
    charge; it is the one reader of the clock in the oracle.
    """

    def __init__(self, budget: SearchBudget):
        self.budget, self.used = budget, 0
        self.deadline = None if budget.timeout is None else time.monotonic() + budget.timeout

    def charge(self, work: int = 1) -> None:
        self.used += work
        if self.used > self.budget.max_states:
            raise BudgetExceededError(f"state budget {self.budget.max_states} exhausted")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError(f"timeout of {self.budget.timeout}s exhausted")


@dataclass
class TableCell:
    """One (n, t, l1) cell: the maximal corner count, or None for a dash.

    Corners of every Betti value count.  ``value`` is the maximum over the
    ideals whose corner sequence starts in degree l1, ``unconstrained`` the
    maximum over all ideals of initial degree l1.
    """

    n: int
    t: int
    ell1: int
    value: int | None
    provenance: str = ""
    partial: bool = False  # True: search aborted, value is a lower bound
    unconstrained: int | None = None


class _Layer:
    """M_{n,d,t} with bitmask machinery: per monomial u, its up-set in the
    move order (itself and every monomial reached by raising indices), the
    monomials with its last index, and its block of the next layer and the
    shadow there of its down-set, written ↓u (itself and every monomial
    reached by lowering indices)."""

    def __init__(self, ctx: Context, d: int):
        self.ctx = ctx
        self.d = d
        self.monomials = spread_monomials(ctx, d)  # ascending tuples = slex desc
        self.size = len(self.monomials)
        self.maxval = [u[-1] if u else 0 for u in self.monomials]
        # one mask per last index, shared by its monomials: no mask per
        # monomial beyond those that _check_mask_bits counts
        classes: dict[int, int] = {}
        for q, m in enumerate(self.maxval):
            classes[m] = classes.get(m, 0) | 1 << q
        self.same = [classes[m] for m in self.maxval]
        t = ctx.spread_t
        # an immediate predecessor decrements one index, keeping it above 0
        # and at least t above the index before it, and sits a fixed step
        # earlier in the list; it never has the larger last index
        steps, positions = _pred_steps(ctx, d), range(d)
        self.preds = [[q - steps[p][u[p]] for p in positions
                       if u[p] > 1 and (p == 0 or u[p] - u[p - 1] > t)]
                      for q, u in enumerate(self.monomials)]
        # so up-sets are complete when filled in from the end
        up = [1 << q for q in range(self.size)]
        for q in reversed(range(self.size)):
            for p in self.preds[q]:
                up[p] |= up[q]
        self.up = up
        self.down_shadow = [0] * self.size  # masks into the next layer, see link
        self.starts = [0] * (self.size + 1)  # its block bounds there, see link

    def link(self) -> None:
        """Fill in ``down_shadow`` and ``starts``.  A monomial w of the next
        layer lies in the shadow of ↓u iff w[:-1] <= u componentwise, so the
        shadow of ↓u is u's block, the w with w[:-1] = u, joined with the
        shadows of its immediate predecessors, which come first.  Both layers
        are in ascending tuple order, so the blocks are disjoint, contiguous
        and in this layer's order: the q-th is bits starts[q]..starts[q+1]-1."""
        down_shadow, starts = self.down_shadow, self.starts
        n, t = self.ctx.n_vars, self.ctx.spread_t
        for q, u in enumerate(self.monomials):
            # the last indices that extend u run from u[-1] + t (or 1) to n
            starts[q + 1] = starts[q] + max(0, n + 1 - (u[-1] + t if u else 1))
            mask = (1 << starts[q + 1]) - (1 << starts[q])
            for p in self.preds[q]:
                mask |= down_shadow[p]
            down_shadow[q] = mask

    def shadow(self, down_set: int) -> int:
        """The shadow in the next layer of ``down_set``, which must be a
        down-set; every required set is a shadow, and every shadow is a
        down-set.  It is the union of the members' blocks: bits
        starts[a]..starts[b]-1 for each maximal run a..b-1 of set bits."""
        starts, out = self.starts, 0
        while down_set:
            low = down_set & -down_set
            above = down_set + low  # the carry clears the run a..b-1, sets bit b
            end = above & -above
            out |= (1 << starts[end.bit_length() - 1]) - (1 << starts[low.bit_length() - 1])
            down_set &= above
        return out

    def members(self, mask: int) -> list[Monomial]:
        """Monomials of a bitmask, slex-descending."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.monomials[low.bit_length() - 1])
            mask ^= low
        return out


def _pred_steps(ctx: Context, d: int) -> list[list[int]]:
    """How far, ``steps[p][a]``, lowering index a at position p by one moves
    a monomial of degree d towards the front of its layer's list.

    Subtracting p(t - 1) at each position p maps M_{n,d,t} onto the
    d-subsets of {1, ..., N}, N = n - (d - 1)(t - 1), keeping lex order, and
    a subset's rank counts, for each position p and each c strictly between
    its entries at p - 1 and p, the C(N - c, d - p - 1) subsets that agree
    with it before p and hold c at p.  Lowering its entry b at p by one
    drops the term c = b - 1 at p and, for p < d - 1, adds c = b at p + 1,
    so the rank falls by C(N - b + 1, d - p - 1) - C(N - b, d - p - 2),
    whatever the other entries are.  Row p is indexed by a = b + p(t - 1);
    entries that no monomial holds at p stay 0.
    """
    n, t = ctx.n_vars, ctx.spread_t
    big = n - (d - 1) * (t - 1)
    steps = []
    for p in range(d):
        row = [0] * (n + 1)
        for b in range(1, big + 1):
            row[b + p * (t - 1)] = comb(big - b + 1, d - p - 1) - (
                comb(big - b, d - p - 2) if p < d - 1 else 0)
        steps.append(row)
    return steps


def _check_mask_bits(sizes: list[int], budget: SearchBudget) -> None:
    """Refuse layers of the given sizes, each above the next, whose masks
    would hold more than ``64 * budget.max_states`` bits, one unit per 64-bit
    word: a layer of a monomials above one of b holds a up-sets and a
    down-set shadows, a * (a + b) bits, so the masks grow with the square of
    the layer sizes.  Not counted: each layer's predecessor lists, at most d
    indices per monomial of degree d, its block bounds ``starts``, one int
    per monomial and one more, and its step table of :func:`_pred_steps`,
    d(n + 1) entries; the comment at ``_MAX_N`` says what bounds the table."""
    bits = sum(a * (a + b) for a, b in zip(sizes, sizes[1:] + [0]))
    if bits > 64 * budget.max_states:
        raise BudgetExceededError(
            f"the masks need {bits} bits, over 64 times the state budget "
            f"{budget.max_states}"
        )


def _layers(ctx: Context, ell1: int, budget: SearchBudget) -> list[_Layer]:
    """The layers of degree l1 up to the top degree, each linked to the next.

    Raises BudgetExceededError, before building anything, above ``_MAX_N``
    variables or when the masks are too large for :func:`_check_mask_bits`.
    """
    if ctx.n_vars > _MAX_N:
        raise BudgetExceededError(f"n={ctx.n_vars} exceeds the oracle's {_MAX_N} variables")
    top = max_spread_degree(ctx.n_vars, ctx.spread_t)
    _check_mask_bits([spread_count(ctx.n_vars, d, ctx.spread_t)
                      for d in range(ell1, top + 1)], budget)
    layers = [_Layer(ctx, d) for d in range(ell1, top + 1)]
    for layer in layers[:-1]:
        layer.link()
    return layers


def _down_sets(layer: _Layer, required: int = 0):
    """Every down-set D of the move order that contains ``required``.

    Yields ``(gens, shadow)``: the bitmask of D minus ``required`` (the new
    generators) and the shadow of D in the next layer.  ``required`` must
    itself be a down-set, which every shadow is, for :meth:`_Layer.shadow`.

    Elements are indexed slex-descending, a linear extension of the move
    order, and the search decides them lowest index first.  Excluding an
    element takes its whole up-set out of play, so the lowest undecided
    element always has all its predecessors in D and both branches are
    legal: the search tree has exactly one leaf per down-set, and the
    shadow is carried down it incrementally.  The exclude branch is taken
    first.
    """
    up, down_shadow = layer.up, layer.down_shadow
    free = ((1 << layer.size) - 1) & ~required
    stack = [(free, 0, layer.shadow(required))]
    pop, push = stack.pop, stack.append
    while stack:
        free, gens, shadow = pop()
        while free:
            low = free & -free
            p = low.bit_length() - 1
            push((free ^ low, gens | low, shadow | down_shadow[p]))
            free &= ~up[p]
        yield gens, shadow


def enumerate_strongly_stable_ideals(ctx: Context, ell1: int, budget: SearchBudget | None = None):
    """Every t-spread strongly stable ideal of initial degree exactly l1.

    Yields :class:`SpreadIdeal` values (minimal generators) in a fixed
    deterministic order; raises BudgetExceededError mid-stream when a cap is
    hit, so everything yielded before the error is valid but partial.  Each
    ideal owns its ``gens`` dict; the ideals below one chain link share
    that link's generator tuple.

    The walk takes a nonempty down-set at the first layer (so the initial
    degree is exactly l1) and at each later degree every down-set containing
    the shadow of the previous one.  Each ideal is charged to the budget
    before it is yielded, so the walk stops at exactly ``max_states`` ideals
    or at the timeout.  At l1 = 0 it yields the unit ideal alone; a negative
    l1 raises InvalidMonomialError, as :func:`brute_force_max_corners` does.
    """
    budget = budget or SearchBudget()
    if ell1 > max_spread_degree(ctx.n_vars, ctx.spread_t):
        return
    layers = _layers(ctx, ell1, budget)
    meter = _Meter(budget)
    last = len(layers) - 1

    def walk(li: int, required: int, chain: list):
        layer = layers[li]
        for gens, shadow in _down_sets(layer, required):
            if li == 0 and gens == 0:
                continue
            # a down-set's generators are listed once, when it joins the chain
            link = chain + [(layer.d, tuple(layer.members(gens)))] if gens else chain
            if li < last:
                yield from walk(li + 1, shadow, link)
            else:
                meter.charge()
                yield SpreadIdeal(ctx, dict(link))  # each ideal owns its gens

    yield from walk(0, 0, [])


def _link_data(ideals, t: int):
    """Each ideal of ``ideals`` with its slots, one per generator degree l in
    ascending order: ``(l, link, row, peak, start)``, the degree-l
    generator tuple, its :func:`~tspread.betti.betti_row` and
    :func:`~tspread.betti.corner_peak`, and where its generators' records
    begin in the undo log of the one trie.

    A slot stays while the next ideal holds the very same tuple in its
    place; the ideals below one chain link of
    :func:`enumerate_strongly_stable_ideals` share it and come one after
    another.  Of the first link that differs, the generators up to the
    first one that is not the very same object as in the old link stay
    gated: the walk appends one generator per ideal after such a prefix.
    Every generator gated after them is deleted from the trie, last first,
    by the one record per generator that
    :func:`~tspread.ideals.gate_degree` logs, and only the rest is gated.
    The kept generators were gated against the same trie, so the one trie
    holds exactly the generators before a generator when it is gated, and
    on an unstable ideal :func:`~tspread.ideals.gate_degree` raises
    NotStronglyStableError at the witness of
    :func:`~tspread.ideals.require_strongly_stable`.  Rows and peaks are
    read for each new link whole.  The slot list is reused: read it before
    taking the next ideal.
    """
    trie: dict = {}
    log: list = []  # the (node, key) record of each gated generator, in order
    slots: list[tuple] = []
    for ideal in ideals:
        links = sorted(ideal.gens.items())
        same, common = 0, min(len(slots), len(links))
        while same < common and slots[same][1] is links[same][1]:
            same += 1
        keep = 0  # the generators of link `same` that stay gated
        if same < common:
            old, new = slots[same][1], links[same][1]
            stop = min(len(old), len(new))
            while keep < stop and old[keep] is new[keep]:
                keep += 1
        cut = slots[same][4] + keep if same < len(slots) else len(log)
        for node, key in reversed(log[cut:]):
            del node[key]
        del log[cut:], slots[same:]
        for l, link in links[same:]:
            start = len(log) - keep
            gate_degree(trie, link[keep:], t, log)
            slots.append((l, link, betti_row(t, l, link), corner_peak(link), start))
            keep = 0
        yield ideal, slots


class _PrincipalSearch:
    """Memoised max-corner search over (layer, required shadow) states.

    Corners are read top-down: the new generators of degree l give the
    candidate k = mm - t(l-1) - 1, mm their largest last index, and it is a
    corner iff k exceeds b, the largest candidate of a higher degree (-1 if
    none).  The layers from l up therefore reach the layers below only
    through the pair (b, r), r their corner count.

    ``solve(li, required)`` covers every choice of the layers from ``li`` up
    with the down-set of layer ``li`` containing ``required``.  It returns
    the pairs (b, r) that are not dominated, sorted by b.  Dominance:
    (b, r) beats (b', r') when b <= b' and r >= r'.  A layer below with
    candidate k keeps it.  If k > b', both become (k, r + 1) and
    (k, r' + 1); if b < k <= b', they become (k, r + 1) and (b', r'), with
    k <= b'; if k <= b, both stay.  So the best r, with or without a corner
    in the initial degree (k > b), is read off the front.

    One generator per degree suffices.  A lowered index never raises the
    last one, so every monomial of ↓u has a last index of at most max(u).
    Take required shadows R ⊆ R' and a down-set D ⊇ R' whose new
    generators, D minus R', have the largest last index mm.  If D has
    none, the candidate D = R has none either and a shadow inside that of
    D.  Otherwise pick a new generator u with max(u) = mm: u is not in R,
    so the candidate D = R ∪ ↓u has new generators of largest last index
    mm too, and its shadow, shadow(R) ∪ shadow(↓u), lies inside that of D.
    Either way the candidate has the k of D, so by induction from the top
    layer, whose front is fixed, every pair reached above R' is dominated
    by one that the candidates reach above R.  With R = R', the candidates
    D = R and D = R ∪ ↓u for u not in R reach the whole front: the search
    ranges over the ideals B_t(u_l1, u_l1+1, ...) with at most one
    generator u_l per degree, the shape of the witnesses of the paper.

    So :meth:`choices` need not visit every free u.  If u' lies below u in
    the move order, then ↓u' ⊆ ↓u, and the shadow of R ∪ ↓u' lies inside
    that of R ∪ ↓u; if u' also has the last index of u, both candidates
    have the same k, and by the same lemma every pair that u reaches is
    dominated by one that u' reaches.  The scan therefore visits only the
    Borel-minimal free monomials of each last index, the search's one
    pruning.  Two of them may still have nested shadows; the larger is
    visited all the same, which the lemma makes harmless, and the memo
    solves each state once.  The budget is still charged as if the scan
    visited every free monomial: one unit per state plus one per free
    monomial of the state's layer.
    """

    def __init__(self, layers: list[_Layer], budget: SearchBudget):
        self.layers = layers
        self.meter = _Meter(budget)  # per state, one unit and one per free monomial
        self.memo: list[dict] = [{} for _ in layers]

    def choices(self, li: int, required: int) -> dict[int, list[int]]:
        """The shadows of the candidates of layer ``li`` above ``required``
        that the scan visits, smallest first, per corner candidate k of
        their new generators (-1 for the candidate without any; every other
        key is at least 0).

        The scan runs lowest index first, a linear extension of the move
        order, and after each visit clears the rest of the visited
        monomial's last-index class above it."""
        layer = self.layers[li]
        down_shadow, maxval, up, same = layer.down_shadow, layer.maxval, layer.up, layer.same
        offset = corner_shift(layer.ctx.spread_t, layer.d)
        base = layer.shadow(required)
        free = ((1 << layer.size) - 1) & ~required
        self.meter.charge(1 + free.bit_count())
        shadows: dict[int, set[int]] = {-1: {base}}
        while free:
            low = free & -free
            p = low.bit_length() - 1
            shadows.setdefault(maxval[p] - offset, set()).add(base | down_shadow[p])
            free &= ~(up[p] & same[p])  # p and the rest of its class above it
        return {k: sorted(group, key=int.bit_count) for k, group in shadows.items()}

    def solve(self, li: int, required: int):
        if li == len(self.layers):
            return ((-1, 0),)  # past the top layer: no candidate, no corner
        memo = self.memo[li]
        found = memo.get(required)
        if found is None:
            found = memo[required] = self._solve(li, required)
        return found

    def _solve(self, li: int, required: int):
        front: dict[int, int] = {}
        for k, shadows in self.choices(li, required).items():
            for shadow in shadows:
                for b, r in self.solve(li + 1, shadow):
                    if k > b:
                        b, r = k, r + 1
                    if front.get(b, -1) < r:
                        front[b] = r
        pareto = []
        for b in sorted(front):
            if not pareto or front[b] > pareto[-1][1]:
                pareto.append((b, front[b]))
        return tuple(pareto)


def brute_force_max_corners(ctx: Context, ell1: int,
                            budget: SearchBudget | None = None) -> TableCell:
    """Maximal corner count, corners of every Betti value counting as in the
    bound of the paper, over the ideals of initial degree l1 whose first
    corner counts by :func:`_first_corner_counts`; ``unconstrained`` drops
    that last condition.

    The search is :class:`_PrincipalSearch` over the degrees above l1; its
    candidates in degree l1 are combined with it here, where the
    corner-at-l1 rule applies.  A value of None means no qualifying ideal
    exists (a dash in the tables).  On budget exhaustion the cell is marked
    partial and its values are only lower bounds.
    """
    budget = budget or SearchBudget()
    t = ctx.spread_t
    best: int | None = None
    unconstrained: int | None = None
    partial = False
    try:
        if ell1 <= max_spread_degree(ctx.n_vars, t):
            search = _PrincipalSearch(_layers(ctx, ell1, budget), budget)
            for k, shadows in search.choices(0, 0).items():
                if k < 0:
                    continue  # no generator in degree l1
                for shadow in shadows:
                    above = search.solve(1, shadow)
                    top = max(r + (k > b) for b, r in above)
                    if unconstrained is None or top > unconstrained:
                        unconstrained = top
                    if not _first_corner_counts(k, ell1, ell1):
                        continue  # no corner of positive index in degree l1
                    for b, r in above:
                        if k > b and (best is None or r + 1 > best):
                            best = r + 1
    except BudgetExceededError:
        partial = True
    return TableCell(n=ctx.n_vars, t=t, ell1=ell1, value=best, provenance="brute-force",
                     partial=partial, unconstrained=unconstrained)


def regenerate_table(
    t: int,
    n_range: tuple[int, int],
    ell1_range: tuple[int, int],
    budget: SearchBudget | None = None,
    brute_force_upto: int = 0,
) -> list[TableCell]:
    """Cells for n and l1 in the given inclusive ranges, at spread t.

    Cells with n <= brute_force_upto are computed by exhaustive enumeration
    (within the budget), the rest by the closed formulas; the provenance
    field says which.  Exhaustive cells need l1 >= 2, where the tables
    start; formula cells need the domain of
    :func:`~tspread.construction.require_closed_forms` (t >= 2 and
    l1 >= 2).  Otherwise ConstructionInapplicableError is raised before any
    cell is computed, and so is InvalidMonomialError for n < 1 (or t < 1),
    whichever side computes the cells.
    """
    if brute_force_upto >= n_range[0] and ell1_range[0] < 2:
        raise ConstructionInapplicableError(
            "exhaustive cells require initial degree >= 2, got initial "
            f"degree {ell1_range[0]}")
    if brute_force_upto < n_range[1]:
        require_closed_forms(t, ell1_range[0])
    Context(n_range[0], t)  # a formula cell would print a dash for n < 1

    cells = []
    for ell1 in range(ell1_range[0], ell1_range[1] + 1):
        for n in range(n_range[0], n_range[1] + 1):
            if n <= brute_force_upto:
                cell = brute_force_max_corners(Context(n, t), ell1, budget)
            else:
                cell = TableCell(n=n, t=t, ell1=ell1,
                                 value=max_corners(n, t, ell1),
                                 provenance="formula")
            cells.append(cell)
    return cells


@dataclass
class CrossValidationReport:
    """Outcome of the oracle-versus-formula sweep; one record per check."""

    records: list[dict] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        """True iff some check stopped on its budget."""
        return any(r["partial"] for r in self.records)

    @property
    def disagreements(self) -> list[dict]:
        return [r for r in self.records if not r["ok"]]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def cross_validate(
    n_range: tuple[int, int],
    t_range: tuple[int, int],
    ell1_range: tuple[int, int],
    budget: SearchBudget | None = None,
) -> CrossValidationReport:
    """Cross-check every independent route against every closed form.

    (a) single-monomial Borel closures equal the down-sets of the move
        order that the oracle builds from unit decrements, for low degrees;
    (b) on every enumerated strongly stable ideal, corners read off the Betti
        table agree with the generator characterization.  The stability
        gate, the Betti row and the corner peak of each chain link are
        computed once, when the link joins the chain (:func:`_link_data`);
        per ideal, its rows make up the Betti table that
        :func:`~tspread.betti.corners_from_table` reads, and its peaks are
        folded by :func:`~tspread.betti.corners_from_peaks`;
    (c) per cell: brute-force maximum == closed-form maximum == number of
        constructed witness monomials (wherever each is defined), and the
        corners read off the Betti table of the constructed ideal equal the
        construction's prediction, (n - t(l-1) - 1, l) for l = l1, l1 + 1,
        ..., one per witness, each of value 1; a construction that fails its
        own verification, or whose witnesses fail
        :func:`~tspread.construction.omega_claim_check`, makes the record
        fail; when neither the search nor the walk of (b) stopped early, the
        brute-force maximum must also equal the largest corner count read
        off the Betti tables of (b), over the walked ideals whose first
        corner counts by :func:`_first_corner_counts`.

    Every Betti table here comes from the closed formula.  Reading them off
    linear quotients, as ``tests/helpers.py`` does on six cells, would not
    depend on it but takes a pass over every generator of every ideal:
    0.19 s on the 3,369 ideals of (9, 2, 2), against 0.050 s for the gate,
    rows and tables of (b) (best of five, 2-vCPU VM, Python 3.11.7).

    Each check runs under its own meter of ``budget``; exhaustion marks the
    affected record, and so the report, as partial.
    Ranges reaching outside the closed forms' domain (see
    :func:`~tspread.construction.require_closed_forms`) raise
    ConstructionInapplicableError before any record is built.
    """
    require_closed_forms(t_range[0], ell1_range[0])
    budget = budget or SearchBudget()
    report = CrossValidationReport()

    for t in range(t_range[0], t_range[1] + 1):
        for n in range(n_range[0], n_range[1] + 1):
            ctx = Context(n, t)
            # (a) closures against down-sets of the move order, degrees up to 4
            meter = _Meter(budget)
            bad = checked = 0
            partial = False
            try:
                for d in range(1, min(4, max_spread_degree(n, t)) + 1):
                    _check_mask_bits([spread_count(n, d, t)], budget)
                    layer = _Layer(ctx, d)
                    for q, u in enumerate(layer.monomials):
                        meter.charge(layer.size)  # the scan and closure are linear in it
                        below = [v for v, up in zip(layer.monomials, layer.up)
                                 if up >> q & 1]
                        checked += 1
                        if borel_closure_degree(u, ctx) != below:
                            bad += 1
            except BudgetExceededError:
                partial = True
            report.records.append({
                "check": "closure-domination", "n": n, "t": t,
                "cases": checked, "ok": bad == 0, "partial": partial,
                "detail": f"{bad} mismatches" if bad else "",
            })

            for ell1 in range(ell1_range[0], ell1_range[1] + 1):
                # (b) corner-method agreement on the enumerated ideals
                agree = True
                cases = 0
                walked = None  # the largest count of (c), read off the tables
                partial = False
                try:
                    stream = enumerate_strongly_stable_ideals(ctx, ell1, budget)
                    for _, slots in _link_data(stream, t):
                        cases += 1
                        via_table = corners_from_table(
                            BettiTable({l: row for l, _, row, _, _ in slots}))
                        via_gens = corners_from_peaks(
                            t, [(l, peak) for l, _, _, peak, _ in slots])
                        if via_table != via_gens:
                            agree = False
                        if _first_corner_counts(*via_table.corners[0], ell1):
                            walked = max(walked or 0, len(via_table.corners))
                except BudgetExceededError:
                    partial = True
                report.records.append({
                    "check": "corner-methods", "n": n, "t": t, "ell1": ell1,
                    "cases": cases, "ok": agree, "partial": partial,
                    "detail": "" if agree else "table vs characterization",
                })

                # (c) brute force vs formula vs construction
                cell = brute_force_max_corners(ctx, ell1, budget)
                formula = max_corners(n, t, ell1)
                built = None
                built_ok = True
                detail = "disagreement"
                try:
                    ideal, rep = construct_extremal_ideal(n, t, ell1)
                except ConstructionInapplicableError:
                    pass
                except InvariantViolationError as exc:
                    built_ok = False
                    detail = f"construction failed: {exc}"
                else:
                    built = rep.total
                    if not omega_claim_check(rep.omegas, ctx, ell1):
                        built_ok = False
                        detail = "witnesses fail omega_claim_check"
                    else:
                        # the corners of the built ideal, read off its Betti table
                        got = corners_from_table(graded_betti(ideal))
                        built_ok = got == rep.predicted_corners
                ok = built == formula and built_ok
                if not cell.partial:
                    ok = ok and cell.value == formula
                    if not partial:  # (b) walked every ideal the search covers
                        ok = ok and cell.value == walked
                elif cell.value is not None and formula is not None:
                    ok = ok and cell.value <= formula  # partial: lower bound
                report.records.append({
                    "check": "max-corners", "n": n, "t": t, "ell1": ell1,
                    "brute": cell.value, "formula": formula, "built": built,
                    "partial": cell.partial, "ok": ok,
                    "detail": "" if ok else detail,
                })
    return report
