"""t-spread strongly stable ideals: Borel closures, minimal generators.

A t-spread ideal is held by its minimal monomial generators, grouped by
degree and slex-sorted.  The Borel closure B_t(u_1, ..., u_r) is the smallest
t-spread strongly stable ideal containing the given monomials.  Its members of
degree deg(u) are the t-spread monomials that u dominates componentwise, so
every closure here is one prefix-domination search, :func:`_dominated`, which
derives minimal generators degree by degree.  The literal breadth-first search
over the moves x_i * (u / x_j) is an independent oracle in the test suite.

One membership structure, a prefix trie with one dict per index, serves
the closure, the minimalization and the stability gate.  The closure search
carries the trie nodes of the inputs of lower degree whose prefixes still
dominate the one it is fixing; the minimalization walks a candidate's own
indices down the trie of the generators kept so far, matching each node
from its smaller side, its children or the candidate's remaining indices.
Each trie node also keeps the largest key of a child where a monomial ends,
so the closure reads a carried node's marked children with one lookup.  The
gate makes one pass over the generators: it tests each unit decrement of a
generator by one walk along its own path in the trie of the generators
before it, then inserts the generator.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

from .errors import IdealFormatError, NotStronglyStableError, NotTSpreadError
from .monomials import (
    Context,
    Monomial,
    format_monomial,
    is_t_spread,
    slex_sorted,
)


def _require_t_spread(u: Monomial, ctx: Context) -> None:
    if not is_t_spread(u, ctx):
        raise NotTSpreadError(f"{format_monomial(u)} is not {ctx.spread_t}-spread")


@dataclass(frozen=True)
class SpreadIdeal:
    """A t-spread monomial ideal, stored as minimal generators by degree.

    ``gens`` maps each generator degree to a slex-descending tuple of
    monomials, which is ascending as index tuples; degrees without
    generators are absent.  The zero ideal has an empty map.  Instances
    should be built through :meth:`from_generators` or :func:`borel_ideal`,
    which establish the invariants (t-spread generators, no generator
    dividing another, each degree in that order).
    """

    ctx: Context
    gens: dict[int, tuple[Monomial, ...]]

    @classmethod
    def from_generators(cls, ctx: Context, monomials) -> "SpreadIdeal":
        """Build an ideal from arbitrary t-spread generators.

        Redundant generators (divisible by another) are dropped and the rest
        slex-sorted; no Borel closure is taken, so the result need not be
        strongly stable.
        """
        mons = list(monomials)
        for u in mons:
            _require_t_spread(u, ctx)
        return cls(ctx, _minimalize(mons))

    def all_generators(self) -> list[Monomial]:
        """Every minimal generator, ascending by degree then slex-descending."""
        return [u for d in sorted(self.gens) for u in self.gens[d]]

    def generators_json(self) -> str:
        """:meth:`all_generators` as a JSON array of index arrays, the text
        ``json.dumps`` writes with its default separators.

        It is written one prefix run at a time: a run is the generators of
        one degree that share all but their last index, their ``head``.  A
        degree ascends as tuples, so a run is a slice of it that ends where
        ``head + (n + 1,)`` would be inserted: one bisection per run, no
        test per generator.  The head's text is made once per run, and the
        text before each last index of the run is that one string.
        """
        text = [str(i) for i in range(self.ctx.n_vars + 1)]
        past_n = (self.ctx.n_vars + 1,)
        pieces = []  # alternately the text before a last index and that index
        for d in sorted(self.gens):
            gens = self.gens[d]
            start = 0
            while start < len(gens):
                head = gens[start][:-1]
                stop = bisect_left(gens, head + past_n, start)
                before = "], [" + "".join([text[i] + ", " for i in head])
                run = [before] * (2 * (stop - start))
                run[1::2] = [text[u[-1]] for u in gens[start:stop]] if d else [""]  # unit
                pieces += run
                start = stop
        if not pieces:
            return "[]"
        pieces[0] = pieces[0][3:]  # the first generator follows no other
        return "[" + "".join(pieces) + "]]"

    @classmethod
    def from_json(cls, text: str | bytes) -> "SpreadIdeal":
        """Parse ``{"n": n, "t": t, "gens": [[i, ...], ...]}`` with int entries;
        anything else raises IdealFormatError."""
        try:
            data = json.loads(text)
            n, t, gens = data["n"], data["t"], [tuple(g) for g in data["gens"]]
        except KeyError as exc:
            raise IdealFormatError(f"ideal JSON lacks the key {exc}") from None
        except (TypeError, ValueError, RecursionError) as exc:  # too deeply nested
            raise IdealFormatError(f"malformed ideal JSON: {exc}") from None
        if any(type(i) is not int for g in [(n, t), *gens] for i in g):
            raise IdealFormatError("ideal JSON needs integer n, t and indices")
        return cls.from_generators(Context(n, t), gens)


_END = 0  # trie key that names no variable: a monomial ends at this node
_LAST_END = -1  # nor this one: the largest key of a child holding _END


def _trie_add(trie: dict, monomials) -> None:
    """Insert monomials into a prefix trie, one dict per index.

    Besides the index keys, a node may hold two reserved keys that name no
    variable: ``_END`` when a monomial ends there, and ``_LAST_END``, the
    largest key of a child of the node that holds ``_END`` (absent when no
    child does), which lets :func:`_dominated` read a node's marked
    children with one lookup.
    """
    for u in monomials:
        node = parent = trie
        for a in u:
            parent, node = node, node.setdefault(a, {})
        node[_END] = True
        if u and parent.get(_LAST_END, 0) < u[-1]:
            parent[_LAST_END] = u[-1]


def _divisible(trie: dict, u: Monomial) -> bool:
    """True iff some monomial of ``trie`` divides u, a strictly increasing
    index tuple.

    A divisor is a subsequence of u, so a depth-first walk that follows at
    each node only the indices of u after the last one it used reaches the
    divisor's end mark; every index of u missing from a node is skipped, not
    a dead end.  Each node is matched from its smaller side: u's remaining
    indices looked up among its children, or its children (one to three on
    the construction's long shared heads) bisected into u's remaining
    indices.  The reserved keys name no index of u, so the bisection skips
    them.
    """
    last = len(u)
    stack = [(trie, 0)]
    while stack:
        node, start = stack.pop()
        if _END in node:
            return True
        if len(node) < last - start:
            for key, child in node.items():
                p = bisect_left(u, key, start)
                if p < last and u[p] == key:
                    stack.append((child, p + 1))
        else:
            for p in range(start, last):
                child = node.get(u[p])
                if child is not None:
                    stack.append((child, p + 1))
    return False


def _minimalize(monomials) -> dict[int, tuple[Monomial, ...]]:
    """Drop duplicates and anything divisible by another generator.

    Degrees are filtered in ascending order against a trie of the survivors
    of lower degrees; a degree's survivors join it only once the whole
    degree is filtered, so no monomial is tested against itself.
    """
    by_degree: dict[int, set[Monomial]] = {}
    for u in monomials:
        by_degree.setdefault(len(u), set()).add(u)
    trie: dict = {}
    out: dict[int, tuple[Monomial, ...]] = {}
    for d in sorted(by_degree):
        level = [u for u in by_degree[d] if not _divisible(trie, u)]
        if level:
            out[d] = tuple(slex_sorted(level))
            _trie_add(trie, level)
    return out


def _dominated(ctx: Context, deg: int, tops, earlier: dict, first: bool = False) -> list[Monomial]:
    """The t-spread degree-``deg`` monomials v that some u in ``tops`` (of
    degree ``deg``) dominates, v_p <= u_p at every p, and whose prefix
    v[:len(e)] escapes domination by each e in ``earlier`` (a prefix trie,
    as built by :func:`_trie_add`, of monomials of degree at most ``deg``);
    slex-descending, or with ``first`` only the slex-largest.

    Precondition: every top u has u_q <= n - t(deg - 1 - q) at each q, the
    bound on t-spread indices behind the count of M_{n,d,t}.  A t-spread
    top with indices at most n meets it: :func:`borel_ideal` and
    :func:`borel_closure_degree` check theirs, and
    :func:`~tspread.construction._max_excluded` builds its top with gaps of
    exactly t.  So a candidate never exceeds the bound, and the search
    takes its upper limits from the tops alone.

    Escaping is exactly "not a multiple of B_t(earlier)": a w <= e dividing
    v forces v[:len(e)] <= w <= e, and conversely that prefix is t-spread,
    lies in B_t(e) and divides v.  The search fixes v one position at a
    time, smallest index first, so the hits come slex-descending.

    Beside the tops that still dominate the prefix v[:p], it carries the
    trie nodes at depth p whose path dominates v[:p]: the root at p = 0,
    then, once v_p is fixed, the children with key >= v_p of the nodes
    carried at p.  By induction on p the carried nodes are exactly the
    paths e[:p] of the inputs e with v[:p] <= e[:p].  An input e of degree
    p + 1 dominates v[:p + 1] iff e[:p] is carried and v_p <= e_p, that is
    iff e's end mark hangs on a child with key >= v_p of a carried node.
    Each input is met this way at the position of its last index, so v
    escapes every input iff at no position does a carried node have a
    child with key >= v_p that carries the end mark.  The search applies
    this test to a whole position at once, with one lookup per kept child:
    a node's ``_LAST_END`` mark is the largest key of its marked children,
    so the candidates for the next position start above the mark of every
    child kept there, and the children kept at that position never carry
    an end mark.  The construction's inputs share long prefixes (head +
    body_j is a prefix of omega_{j+1}), so one to three nodes are carried
    where a list would hold every input.

    The search runs depth-first on an explicit stack with one frame per
    fixed position, ``(p, live, nodes, values)``, whose iterator ``values``
    yields the candidates for position p in ascending order, so the depth
    is not bounded by the interpreter's recursion limit.  A candidate that
    leaves the next position no candidate gets no frame.
    """
    t = ctx.spread_t
    found: list[Monomial] = []
    if _END in earlier:
        return found  # the unit monomial divides everything
    if not deg:
        return [()]
    u = [0] * deg
    last = deg - 1
    lo = earlier.get(_LAST_END, 0) + 1
    hi = max([w[0] for w in tops])
    stack = [(0, tops, [earlier], iter(range(lo, hi + 1)))]
    while stack:
        p, live, nodes, values = stack[-1]
        if p == last:
            stack.pop()
            head = tuple(u[:last])
            found.extend([head + (v,) for v in values])
            if first and found:
                return found[:1]
            continue
        q = p + 1
        for v in values:
            lo, nxt = v + t, []
            for node in nodes:
                for key, child in node.items():
                    if key >= v:
                        nxt.append(child)
                        mark = child.get(_LAST_END, 0)
                        if mark >= lo:
                            lo = mark + 1  # v_q <= mark: a multiple
            # a lone top needs no filtering (the construction has one per degree)
            above = live if len(live) == 1 else [w for w in live if v <= w[p]]
            hi = above[0][q] if len(above) == 1 else max([w[q] for w in above])
            if lo <= hi:  # else a dead end: push no frame for it
                u[p] = v
                stack.append((q, above, nxt, iter(range(lo, hi + 1))))
                break
        else:
            stack.pop()
    return found


def borel_closure_degree(u: Monomial, ctx: Context) -> list[Monomial]:
    """Degree-deg(u) members of B_t(u), slex-descending: the t-spread
    monomials that u dominates componentwise."""
    _require_t_spread(u, ctx)
    return _dominated(ctx, len(u), [u], {})


def borel_ideal(generators, ctx: Context) -> SpreadIdeal:
    """B_t(u_1, ..., u_r) by its minimal generators.

    In degree d these are the monomials dominated by some input of degree d
    that are not multiples of B_t(inputs of lower degree).
    ``borel_ideal([])`` is the zero ideal.
    """
    by_degree: dict[int, set[Monomial]] = {}
    for u in generators:
        _require_t_spread(u, ctx)
        by_degree.setdefault(len(u), set()).add(u)
    gens: dict[int, tuple[Monomial, ...]] = {}
    earlier: dict = {}
    for d in sorted(by_degree):
        found = _dominated(ctx, d, list(by_degree[d]), earlier)
        if found:
            gens[d] = tuple(found)
        _trie_add(earlier, by_degree[d])
    return SpreadIdeal(ctx, gens)


def generator_move_violation(ideal: SpreadIdeal):
    """Strong-stability test: t-spread unit decrements of minimal generators.

    Returns None if stable, else the first witness ``(u, j, i, result)`` in
    :meth:`SpreadIdeal.all_generators` order: ``i = j - 1`` and
    ``result = x_i * (u / x_j)`` is t-spread but outside the ideal.

    1. t-spread strong stability is closure under t-spread unit decrements
       x_{a-1} * (w / x_a): any move factors into them, taken lowest position
       first, and each step stays t-spread.
    2. Checking generators suffices.  Take w = g * m and a unit decrement at
       a.  If a divides m, g divides the result.  If a lies in g, then
       g' = g - a + (a-1) divides the result, so it is t-spread, and it is a
       unit decrement of g.
    3. Prefix lemma: for J strongly stable and w t-spread, w lies in J iff
       some prefix w[:k] is a minimal generator of J.  A generator g of
       degree m dividing w has w[:m] <= g componentwise, so w[:m] lies in
       B_t(g); the shortest prefix of w in J is then a generator.
    4. Scanning by ascending degree, the first decrement w with no generator
       prefix lies outside the ideal.  Else a generator dividing w that is no
       prefix of it has lower degree; the generators of lower degree passed,
       their decrements having generator prefixes of no higher degree, so by
       1-2 they generate a strongly stable J, and 3 gives w a prefix in J.
       The generators before u in this order suffice to find a prefix of w:
       a generator g that is a prefix of a decrement w of u has degree at
       most deg u.  If it is lower, g comes first by degree; if it is equal,
       g is w itself, which is slex-greater than u and so comes first in
       its degree.

    So one pass decides: each generator u is tested against the prefix trie
    of the generators before it, then inserted, one degree at a time by
    :func:`gate_degree`.
    """
    t = ideal.ctx.spread_t
    trie: dict = {}
    for d in sorted(ideal.gens):
        witness = gate_degree(trie, ideal.gens[d], t)
        if witness is not None:
            return witness
    return None


def gate_degree(trie: dict, gens, t: int, created: list | None = None):
    """One degree of :func:`generator_move_violation`: test each generator u
    of ``gens``, one degree's generators in slex-descending order, against
    ``trie``, the prefix trie of every generator before it, then insert it.

    Returns the first witness ``(u, j, i, result)``, or None.  Each
    decrement of u at position p is one walk along its own path from u's
    node at depth p, since a minimal generator has no generator as a proper
    prefix.  With ``created`` given, the first key this call sets for each
    generator is appended to it as ``(node, key)``: the child where the
    generator's path leaves the trie, or else its end mark.  Deleting them
    in reverse order restores the trie, also after a witness.
    """
    for u in gens:
        node = trie  # u's node at depth p, made as u is walked
        new = created is not None  # u's first key is still to be recorded
        last = len(u)
        prev = 1 - t  # u[p - 1]; at p = 0, what keeps a - 1 >= 1
        for p, a in enumerate(u):
            if a - prev > t:  # x_{a-1} * (u / x_a) is t-spread
                walk, q = node.get(a - 1), p + 1
                while walk and _END not in walk and q < last:
                    walk, q = walk.get(u[q]), q + 1
                if not walk or _END not in walk:
                    return u, a, a - 1, u[:p] + (a - 1,) + u[p + 1:]
            prev = a
            child = node.get(a)
            if child is None:
                child = node[a] = {}
                if new:
                    created.append((node, a))
                    new = False
            node = child
        node[_END] = True
        if new:
            created.append((node, _END))
    return None


def is_strongly_stable(ideal: SpreadIdeal) -> bool:
    """True iff the ideal is t-spread strongly stable: the one such test in
    ``__all__``, kept as API so that callers need not read a witness tuple."""
    return generator_move_violation(ideal) is None


def require_strongly_stable(ideal: SpreadIdeal) -> None:
    """Raise NotStronglyStableError (with a witness move) unless stable."""
    witness = generator_move_violation(ideal)
    if witness is not None:
        raise stability_error(witness)


def stability_error(witness) -> NotStronglyStableError:
    """The error for a witness ``(u, j, i, result)`` of the gate."""
    u, j, i, moved = witness
    return NotStronglyStableError(
        f"not strongly stable: x{i}*({format_monomial(u)}/x{j}) = "
        f"{format_monomial(moved)} lies outside the ideal",
        witness=witness,
    )
