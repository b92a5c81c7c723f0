"""Borel closures, shadows, strong stability, minimal generators."""

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspread import (
    Context,
    IdealFormatError,
    NotStronglyStableError,
    NotTSpreadError,
    SearchBudget,
    SpreadIdeal,
    borel_closure_degree,
    borel_ideal,
    construct_extremal_ideal,
    enumerate_strongly_stable_ideals,
    format_monomial,
    is_strongly_stable,
    is_t_spread,
    spread_monomials,
)
from tspread import oracle
from tspread.ideals import _END, _LAST_END, _trie_add, require_strongly_stable
from tspread.monomials import max_spread_degree


from helpers import (bfs_borel_ideal, bfs_closure, contains, domination_closure,
                     find_stability_violation, first_outside_decrement, gate_step,
                     gate_witness, ideal_json, iterated_shadow, literal_shadow,
                     pairwise_minimalize)


def spread_contexts(max_n=9, max_t=3):
    for t in range(1, max_t + 1):
        for n in range(2, max_n + 1):
            yield Context(n, t)


class TestBorelClosureDegree:
    def test_closure_of_x1x14(self):
        got = borel_closure_degree((1, 14), Context(14, 3))
        assert got == [(1, b) for b in range(4, 15)]
        assert len(got) == 11

    def test_slex_maximum_is_fixed(self):
        ctx = Context(11, 3)
        top = spread_monomials(ctx, 3)[0]
        assert borel_closure_degree(top, ctx) == [top]

    def test_derived_domination_equivalence_example(self):
        ctx = Context(9, 2)
        assert borel_closure_degree((2, 5, 9), ctx) == domination_closure((2, 5, 9), ctx)

    def test_equivalence_exhaustive_small(self):
        # library == BFS over moves == componentwise domination; the full
        # n <= 12 sweep runs in the acceptance suite
        for ctx in spread_contexts():
            for d in range(1, 5):
                for u in spread_monomials(ctx, d):
                    got = borel_closure_degree(u, ctx)
                    assert got == bfs_closure(u, ctx) == domination_closure(u, ctx)

    def test_slex_domination(self):
        ctx = Context(10, 2)
        for u in spread_monomials(ctx, 3):
            closure = borel_closure_degree(u, ctx)
            assert all(v <= u for v in closure)  # tuple-lex <= is slex >=

    def test_rejects_non_spread(self):
        with pytest.raises(NotTSpreadError):
            borel_closure_degree((1, 2), Context(5, 2))


class TestBorelIdeal:
    def test_fourteen_variable_generators(self):
        I = borel_ideal([(1, 14), (2, 5, 14), (2, 6, 9, 14)], Context(14, 3))
        assert I.gens[2] == tuple((1, b) for b in range(4, 15))
        assert I.gens[3] == tuple((2, 5, c) for c in range(8, 15))
        assert I.gens[4] == tuple((2, 6, 9, e) for e in range(12, 15))
        assert sorted(len(g) for g in I.gens.values()) == [3, 7, 11]

    def test_single_generator_single_degree(self):
        I = borel_ideal([(2, 5, 9)], Context(9, 2))
        assert list(I.gens) == [3]

    def test_derived_minimalization(self):
        # degree-3 closure members of x1x3x6 are all divisible by x1x3
        I = borel_ideal([(1, 4), (1, 3, 6)], Context(9, 2))
        assert I.gens == {2: ((1, 3), (1, 4))}

    def test_empty_input_is_zero_ideal(self):
        I = borel_ideal([], Context(9, 2))
        assert not I.gens
        assert not contains(I, (1, 3))

    def test_minimality_all_pairs(self):
        I = borel_ideal([(1, 9), (2, 4, 9), (3, 5, 7, 9)], Context(9, 2))
        gens = I.all_generators()
        for a in gens:
            for b in gens:
                if a != b:
                    assert not set(a) <= set(b)

    def test_idempotence(self):
        I = borel_ideal([(2, 4, 9), (1, 8)], Context(9, 2))
        again = borel_ideal(I.all_generators(), I.ctx)
        assert again == I

    def test_rejects_non_spread(self):
        with pytest.raises(NotTSpreadError):
            borel_ideal([(1, 9), (2, 3)], Context(9, 2))

    def test_unit_input_is_the_whole_ring(self):
        gens = [(2, 5), (), (1, 3, 6)]
        I = borel_ideal(gens, Context(9, 2))
        assert I.gens == {0: ((),)}
        assert SpreadIdeal.from_generators(Context(9, 2), gens) == I

    @pytest.mark.parametrize("n,t,gens", [
        # an input that is a prefix of a later one: one trie path ends twice
        (9, 3, [(1, 4), (1, 4, 7)]),
        (12, 2, [(2, 5), (2, 5, 8), (2, 5, 8, 12)]),
        # several inputs of one lower degree: the trie branches
        (12, 2, [(1, 12), (2, 6), (3, 5), (4, 7, 10), (2, 8, 10, 12)]),
        (12, 3, [(1, 5, 9), (1, 6, 10), (2, 5, 8), (3, 6, 9, 12)]),
        # a degree-one input ends at a child of the root
        (9, 2, [(2,), (4, 7), (3, 6, 9)]),
        # the unit monomial among the inputs
        (9, 2, [(1, 4, 7), ()]),
        (9, 2, [(), (2, 5)]),
        # two marked children under one parent, read by the degree-three search
        (12, 2, [(2, 6), (2, 9), (3, 7, 11)]),
    ])
    def test_matches_bfs_oracle_on_trie_shapes(self, n, t, gens):
        ctx = Context(n, t)
        assert borel_ideal(gens, ctx) == bfs_borel_ideal(gens, ctx)


def closure_shadow(u, ctx):
    """The shadow of the degree-deg(u) slice of B_t(u), read off the mask
    that the oracle's layer of that degree keeps for u."""
    layers = oracle._layers(ctx, len(u), SearchBudget())
    mask = layers[0].down_shadow[layers[0].monomials.index(u)]
    return layers[1].members(mask) if mask else []


class TestShadow:
    def test_remark_shadow_singleton(self):
        # n = 1 + 2t: the shadow of B_t(x1 x_n) is exactly {x1 x_{1+t} x_{1+2t}}
        for t in (2, 3, 4):
            ctx = Context(1 + 2 * t, t)
            assert closure_shadow((1, 1 + 2 * t), ctx) == [(1, 1 + t, 1 + 2 * t)]

    def test_remark_shadow_empty(self):
        # n = d + t: no room one degree up
        for t in (2, 3, 5):
            for d in range(1, t + 1):
                ctx = Context(d + t, t)
                assert closure_shadow((1, d + t), ctx) == []

    def test_shadow_of_full_set_is_full(self):
        for t in (1, 2, 3):
            for n in range(2, 13):
                ctx = Context(n, t)
                for d in range(1, 4):
                    everything = spread_monomials(ctx, d)
                    grown = spread_monomials(ctx, d + 1)
                    assert literal_shadow(everything, ctx) == grown

    def test_iterated_shadow_membership(self):
        # x2x6x9x14 has no degree-2 divisor dominated by x1x14
        ctx = Context(14, 3)
        sq = iterated_shadow(borel_closure_degree((1, 14), ctx), ctx, 2)
        assert (2, 6, 9, 14) not in sq
        assert (1, 5, 9, 14) in sq

    def test_iterated_shadow_reaches_veronese_bottom(self):
        # d = 1: Shad^{k-1} of B_t(x1 x_{1+kt}) contains x1 x_{1+t} ... x_{1+kt}
        for t in (2, 3):
            for k in (2, 3):
                n = 1 + k * t
                ctx = Context(n, t)
                result = iterated_shadow(borel_closure_degree((1, n), ctx), ctx, k - 1)
                assert tuple(1 + i * t for i in range(k + 1)) in result

    def test_shadow_of_borel_closed_is_borel_closed(self):
        ctx = Context(10, 2)
        for u in spread_monomials(ctx, 2):
            sh = literal_shadow(borel_closure_degree(u, ctx), ctx)
            if sh:
                level = SpreadIdeal(ctx, {3: tuple(sh)})
                assert is_strongly_stable(level)


class TestStrongStability:
    def test_borel_output_always_stable(self):
        ctx = Context(9, 2)
        I = borel_ideal([(2, 4, 9), (1, 8)], ctx)
        assert is_strongly_stable(I)

    def test_missing_move_detected(self):
        # (x2x5) alone misses x1x5
        I = SpreadIdeal.from_generators(Context(9, 2), [(2, 5)])
        assert not is_strongly_stable(I)
        u, j, i, moved = find_stability_violation(I)
        assert moved in ((1, 5), (1, 3), (2, 3), (1, 4), (2, 4), (1, 6), (2, 6))
        assert not contains(I, moved)

    def test_veronese_is_stable(self):
        ctx = Context(11, 3)
        I = SpreadIdeal.from_generators(ctx, spread_monomials(ctx, 3))
        assert is_strongly_stable(I)

    def test_zero_ideal_stable(self):
        assert is_strongly_stable(borel_ideal([], Context(5, 2)))

    def test_generator_criterion_agrees_with_basis_walk(self):
        ctx = Context(8, 2)
        mons = spread_monomials(ctx, 2) + spread_monomials(ctx, 3)
        for r in range(1, 3):
            for gens in combinations(mons, r):
                assert_gate_matches_basis_walk(SpreadIdeal.from_generators(ctx, gens))

    def test_gate_agrees_with_basis_walk_on_enumerated_ideals(self):
        # every enumerated ideal is stable; dropping one of its generators
        # leaves a minimal generating set that is often not (done up to
        # cut_n, which keeps the basis walks short)
        verdicts = {True: 0, False: 0}
        for t, max_n, cut_n in ((1, 6, 5), (2, 8, 7), (3, 10, 9)):
            for n in range(t + 1, max_n + 1):
                ctx = Context(n, t)
                for ell1 in range(1, max_spread_degree(n, t) + 1):
                    for ideal in enumerate_strongly_stable_ideals(ctx, ell1):
                        assert assert_gate_matches_basis_walk(ideal)
                        if n > cut_n:
                            continue
                        gens = ideal.all_generators()
                        for k in range(len(gens)):
                            cut = SpreadIdeal.from_generators(
                                ctx, gens[:k] + gens[k + 1:])
                            verdicts[assert_gate_matches_basis_walk(cut)] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_witness_is_first_unit_decrement(self):
        I = SpreadIdeal.from_generators(Context(9, 2), [(2, 5)])
        assert gate_witness(I) == ((2, 5), 2, 1, (1, 5))
        assert not is_strongly_stable(I)

    def test_error_names_the_witness_move(self):
        I = SpreadIdeal.from_generators(Context(9, 2), [(2, 4)])
        with pytest.raises(NotStronglyStableError) as err:
            require_strongly_stable(I)
        assert str(err.value) == ("not strongly stable: x1*(x2*x4/x2) = x1*x4 "
                                  "lies outside the ideal")
        assert err.value.witness == ((2, 4), 2, 1, (1, 4))
        assert not is_strongly_stable(I)

    def test_decrement_in_ideal_without_generator_prefix(self):
        # x1x3x4 = x4 * (x1x3x5 / x5) lies in I through x1x4, which is no
        # prefix of it; the first decrement outside I is x1x3 from x1x4, the
        # lower-degree generator, which an ascending-degree scan meets first
        I = SpreadIdeal.from_generators(Context(5, 1), [(1, 4), (1, 3, 5)])
        assert contains(I, (1, 3, 4))
        assert gate_witness(I) == ((1, 4), 4, 3, (1, 3))
        assert first_outside_decrement(I) == ((1, 4), 4, 3, (1, 3))
        assert not is_strongly_stable(I)

    def test_large_constructed_ideal_is_stable(self):
        # 14,998 generators over 148 degrees
        I, _ = construct_extremal_ideal(300, 2, 2)
        assert gate_witness(I) is None


def assert_gate_matches_basis_walk(ideal) -> bool:
    """The gate and the basis walk agree; a gate witness is a t-spread unit
    decrement of a minimal generator that lies outside the ideal.  Returns
    the verdict (True for stable)."""
    witness = gate_witness(ideal)
    assert witness == first_outside_decrement(ideal)
    assert is_strongly_stable(ideal) == (witness is None)
    assert (witness is None) == (find_stability_violation(ideal) is None)
    if witness is not None:
        u, j, i, moved = witness
        assert u in ideal.all_generators()
        assert j in u and i == j - 1 and i not in u
        assert moved == tuple(sorted(set(u) - {j} | {i}))
        assert is_t_spread(moved, ideal.ctx)
        assert not contains(ideal, moved)
    return witness is None


class TestContains:
    def test_generator_contained(self):
        I = borel_ideal([(2, 4, 9)], Context(9, 2))
        assert contains(I, (2, 4, 9))

    def test_unit_not_in_proper_ideal(self):
        I = borel_ideal([(1, 9)], Context(9, 2))
        assert not contains(I, ())

    def test_divisibility_scan(self):
        I = borel_ideal([(1, 9)], Context(9, 2))
        assert not contains(I, (2, 5, 7, 9))
        assert contains(I, (1, 5, 7, 9))


class TestJsonInterface:
    def test_round_trip(self):
        I = borel_ideal([(1, 14), (2, 5, 14)], Context(14, 3))
        again = SpreadIdeal.from_json(ideal_json(I))
        assert again == I

    def test_format(self):
        I = borel_ideal([(1, 4)], Context(4, 3))
        assert json.loads(I.generators_json()) == [[1, 4]]
        assert SpreadIdeal.from_json('{"n": 4, "t": 3, "gens": [[1, 4]]}') == I

    def test_input_any_order_output_minimal(self):
        text = json.dumps({"n": 9, "t": 2, "gens": [[1, 3, 6], [1, 4], [1, 3]]})
        I = SpreadIdeal.from_json(text)
        assert I.gens == {2: ((1, 3), (1, 4))}

    def test_rejects_non_spread_input(self):
        text = json.dumps({"n": 9, "t": 3, "gens": [[1, 3]]})
        with pytest.raises(NotTSpreadError):
            SpreadIdeal.from_json(text)

    @pytest.mark.parametrize("text", [
        '{"n": 9, "t": 2, "gens": [[1, 3.5]]}',
        '{"n": 9, "t": 2, "gens": [[false, 3]]}',
        '{"n": "9", "t": 2, "gens": [[1, 3]]}',
        '{"n": 9, "gens": [[1, 3]]}',
        '{"n": 9, "t": 2, "gens": [7]}',
        '[9, 2, [[1, 3]]]',
        '{n: 9}',
    ])
    def test_rejects_malformed_text(self, text):
        with pytest.raises(IdealFormatError):
            SpreadIdeal.from_json(text)

    def test_rejects_nesting_past_the_recursion_limit(self):
        # json.loads raises RecursionError here, not a ValueError
        with pytest.raises(IdealFormatError, match="malformed"):
            SpreadIdeal.from_json("[" * 200_000)

    @pytest.mark.parametrize("n,t,gens", [
        (20, 2, [(3, 13), (3, 15), (1, 4, 7)]),  # (1, 4, 7) sorts below (3, 21)
        (9, 2, [(2,), (4, 6), (4, 9), (1, 3, 5, 7)]),
        (130, 3, [(5, 9, 99), (5, 9, 100), (5, 9, 130), (5, 12, 100)]),
    ])
    def test_generators_json_at_run_boundaries(self, n, t, gens):
        I = SpreadIdeal.from_generators(Context(n, t), gens)
        assert I.generators_json() == json.dumps([list(u) for u in gens])

    def test_unit_ideal_json(self):
        I = borel_ideal([(), (1, 3)], Context(5, 2))
        assert I.generators_json() == "[[]]"
        assert SpreadIdeal.from_json(ideal_json(I)) == I

    def test_zero_ideal_json(self):
        I = borel_ideal([], Context(5, 2))
        assert I.generators_json() == "[]"
        assert SpreadIdeal.from_json(ideal_json(I)) == I


class TestMinimalize:
    def test_divisor_skips_indices_of_the_multiple(self):
        # the walk must pass over x3, which no generator starting x1 holds
        I = SpreadIdeal.from_generators(Context(9, 1), [(1, 3, 5), (1, 5)])
        assert I.gens == {2: ((1, 5),)}
        assert contains(I, (1, 3, 5)) and contains(I, (1, 2, 4, 5))
        assert not contains(I, (1, 3, 4))

    def test_constructed_ideal_round_trips(self):
        # 3,748 generators over five degrees
        I, _ = construct_extremal_ideal(150, 2, 2)
        assert sum(map(len, I.gens.values())) == 3748
        assert SpreadIdeal.from_json(ideal_json(I)) == I


@st.composite
def spread_monomial_lists(draw):
    t = draw(st.integers(1, 3))
    n = draw(st.integers(t + 1, 11))
    ctx = Context(n, t)
    pool = [u for d in range(1, (n - 1) // t + 2)
            for u in spread_monomials(ctx, d)]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return ctx, gens


@given(spread_monomial_lists())
@settings(max_examples=150, deadline=None)
def test_borel_ideal_properties(case):
    ctx, gens = case
    I = borel_ideal(gens, ctx)
    # closure is strongly stable, minimal, idempotent, and contains its inputs
    assert gate_witness(I) is None
    all_gens = I.all_generators()
    for a in all_gens:
        for b in all_gens:
            if a != b:
                assert not set(a) <= set(b)
    assert borel_ideal(all_gens, ctx) == I
    for u in gens:
        assert contains(I, u)
    for v in all_gens:
        assert any(v <= u for u in gens if len(u) == len(v))  # slex >= some input


@st.composite
def borel_inputs(draw):
    """Generator sets with several inputs of one degree, duplicates, inputs
    that are multiples of other inputs, and sometimes the unit monomial."""
    t = draw(st.integers(1, 3))
    n = draw(st.integers(t + 1, 10))
    ctx = Context(n, t)
    pool = [u for d in range(1, (n - 1) // t + 2)
            for u in spread_monomials(ctx, d)]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    d = len(gens[0])
    gens += draw(st.lists(st.sampled_from([u for u in pool if len(u) == d]),
                          max_size=2))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    base = set(draw(st.sampled_from(gens)))
    multiples = [v for v in pool if base < set(v)]
    if multiples:
        gens.append(draw(st.sampled_from(multiples)))
    if draw(st.integers(0, 9)) == 0:
        gens.append(())
    return ctx, draw(st.permutations(gens))


@given(borel_inputs())
@settings(max_examples=200, deadline=None)
def test_borel_ideal_matches_bfs_oracle(case):
    ctx, gens = case
    assert borel_ideal(gens, ctx) == bfs_borel_ideal(gens, ctx)


@st.composite
def trie_batches(draw):
    """Two to four lists of t-spread monomials of every degree, the unit
    monomial included, each list one :func:`_trie_add` call."""
    t = draw(st.integers(1, 3))
    n = draw(st.integers(t + 1, 11))
    ctx = Context(n, t)
    pool = [u for d in range(max_spread_degree(n, t) + 1)
            for u in spread_monomials(ctx, d)]
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=6),
                         min_size=2, max_size=4))


@given(trie_batches())
@settings(max_examples=100, deadline=None)
def test_trie_mark_is_the_largest_marked_child(batches):
    trie: dict = {}
    for batch in batches:
        _trie_add(trie, batch)
        stack = [trie]
        while stack:
            node = stack.pop()
            assert all(key >= 1 for key in node.keys() - {_END, _LAST_END})
            children = [(key, child) for key, child in node.items() if key >= 1]
            marked = [key for key, child in children if _END in child]
            assert node.get(_LAST_END) == (max(marked) if marked else None)
            stack.extend(child for _, child in children)


@given(spread_monomial_lists())
@settings(max_examples=300, deadline=None)
def test_gate_agrees_with_basis_walk_on_random_generators(case):
    ctx, gens = case
    assert_gate_matches_basis_walk(SpreadIdeal.from_generators(ctx, gens))


@st.composite
def redundant_generator_lists(draw):
    """t-spread lists over several degrees with duplicates, multiples of
    other inputs, and a shuffled order."""
    t = draw(st.integers(1, 3))
    n = draw(st.integers(t + 1, 12))
    ctx = Context(n, t)
    pool = [u for d in range(1, max_spread_degree(n, t) + 1)
            for u in spread_monomials(ctx, d)]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    multiples = [v for v in pool if any(set(u) < set(v) for u in gens)]
    if multiples:
        gens += draw(st.lists(st.sampled_from(multiples), max_size=10))
    gens += draw(st.lists(st.sampled_from(gens), max_size=4))
    return ctx, draw(st.permutations(gens))


@given(redundant_generator_lists())
@settings(max_examples=300, deadline=None)
def test_gate_witness_is_first_outside_decrement(case):
    ctx, gens = case
    I = SpreadIdeal.from_generators(ctx, gens)
    assert gate_witness(I) == first_outside_decrement(I)


def gate_links(trie, links, t, undo):
    """Gate ``(degree, generators)`` links in order on ``trie``, appending
    the keys each sets to ``undo``, one list per link; the first witness."""
    for _, gens in links:
        undo.append([])
        witness = gate_step(trie, gens, t, undo[-1])
        if witness is not None:
            return witness
    return None


def undo_links(undo, start):
    """Delete the keys of the links from ``start`` on, last set first."""
    for created in reversed(undo[start:]):
        for node, key in reversed(created):
            del node[key]
    del undo[start:]


@given(redundant_generator_lists(), redundant_generator_lists(), st.data())
@settings(max_examples=200, deadline=None)
def test_gate_step_by_degree_and_with_undo(case, other, data):
    # the step finds the literal scan's witness on a fresh trie, and on a
    # trie that held another ideal, or held the later links, before undoing
    ctx, gens = case
    I = SpreadIdeal.from_generators(ctx, gens)
    t, links, want = ctx.spread_t, sorted(I.gens.items()), first_outside_decrement(I)
    fresh: dict = {}
    for _, link in links:  # degree by degree, nothing recorded
        witness = gate_step(fresh, link, t)
        if witness is not None:
            break
    assert witness == want
    other_ctx, other_gens = other
    J = SpreadIdeal.from_generators(other_ctx, other_gens)
    trie: dict = {}
    undo: list = []
    gate_links(trie, sorted(J.gens.items()), other_ctx.spread_t, undo)
    undo_links(undo, 0)
    assert trie == {}
    assert gate_links(trie, links, t, undo) == want
    if want is not None:  # the last link raised: undo it alone
        before: dict = {}
        gate_links(before, links[:len(undo) - 1], t, [])
        undo_links(undo, len(undo) - 1)
        assert trie == before
        assert gate_links(trie, links[len(undo):], t, undo) == want
    cut = data.draw(st.integers(0, len(undo) - 1))
    undo_links(undo, cut)
    assert gate_links(trie, links[cut:], t, undo) == want
    undo_links(undo, 0)
    assert trie == {}


def test_undo_after_a_raise_in_the_middle_of_a_degree():
    # x2*x5 raises at its second index, after x1*x3, x1*x4 and x1*x5 went in
    # and after it set its own first key, which the undo log holds too
    trie: dict = {}
    created: list = []
    gens = ((1, 3), (1, 4), (1, 5), (2, 5))
    assert gate_step(trie, gens, 2, created) == ((2, 5), 5, 4, (2, 4))
    assert len(created) == 4 and created[-1][0] is trie and created[-1][1] == 2
    for node, key in reversed(created):
        del node[key]
    assert trie == {}


@given(redundant_generator_lists())
@settings(max_examples=200, deadline=None)
def test_from_generators_matches_pairwise_filter(case):
    ctx, gens = case
    I = SpreadIdeal.from_generators(ctx, gens)
    assert I.gens == pairwise_minimalize(gens)
    for u in gens:
        assert contains(I, u)


@pytest.mark.parametrize("n,t,ell1", [(14, 3, 2), (46, 3, 2), (46, 3, 3), (40, 2, 2)])
def test_from_generators_of_a_construction_matches_pairwise_filter(n, t, ell1):
    # long shared heads: most trie nodes have fewer children than the
    # candidate has indices left, so they are matched from their children
    ideal, _ = construct_extremal_ideal(n, t, ell1)
    gens = ideal.all_generators()
    multiples = [v for d in ideal.gens for v in literal_shadow(ideal.gens[d], ideal.ctx)[::7]]
    mixed = multiples + gens[::-1] + gens[::5]
    assert SpreadIdeal.from_generators(ideal.ctx, mixed).gens == ideal.gens
    assert pairwise_minimalize(mixed) == ideal.gens


@st.composite
def generator_runs(draw):
    """Up to four runs, each a head of up to three indices (at most 9, so
    closures stay small) and a set of last indices up to n <= 130, so runs
    have gaps, degrees change between runs and indices reach three digits;
    sometimes with the unit monomial, for the closure only."""
    t = draw(st.integers(1, 3))
    n = draw(st.integers(t + 1, 130))
    top = min(n - t, 9)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        head = []
        for _ in range(draw(st.integers(0, 3))):
            lo = head[-1] + t if head else 1
            if lo > top:
                break
            head.append(draw(st.integers(lo, top)))
        lasts = draw(st.sets(st.integers(head[-1] + t if head else 1, n),
                             min_size=1, max_size=6))
        gens += [(*head, b) for b in lasts]
    return Context(n, t), draw(st.permutations(gens)), draw(st.integers(0, 9)) == 0


@given(generator_runs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_generators_json_is_the_json_module_text(case, closed):
    ctx, gens, unit = case
    if closed:
        I = borel_ideal(gens + [()] * unit, ctx)
    else:
        I = SpreadIdeal.from_generators(ctx, gens)
    assert I.generators_json() == json.dumps([list(u) for u in I.all_generators()])
    assert SpreadIdeal.from_json(ideal_json(I)) == I


@given(generator_runs())
@settings(max_examples=200, deadline=None)
def test_from_generators_of_runs_matches_pairwise_filter(case):
    ctx, gens, _ = case
    assert SpreadIdeal.from_generators(ctx, gens).gens == pairwise_minimalize(gens)
