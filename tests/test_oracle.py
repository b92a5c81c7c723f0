"""Exhaustive enumeration: down-sets, ideal streams, brute-force corners."""

import dataclasses
import json
import re
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tspread import (
    BudgetExceededError,
    ConstructionInapplicableError,
    Context,
    InvalidMonomialError,
    InvariantViolationError,
    NotStronglyStableError,
    SearchBudget,
    borel_ideal,
    brute_force_max_corners,
    corners_from_table,
    cross_validate,
    enumerate_strongly_stable_ideals,
    graded_betti,
    is_strongly_stable,
    regenerate_table,
    spread_monomials,
)
from tspread import cli, ideals, oracle
from tspread.betti import BettiTable, corners_from_peaks, corners_via_characterization
from tspread.cli import main
from tspread.ideals import SpreadIdeal
from tspread.monomials import max_spread_degree

import helpers
from helpers import (DP_FRONTIER, CornerDP, dp_max_corners, enumerate_borel_closed,
                     ideal_json, literal_shadow, walk_max_corners)


def subset_filter_closed_sets(ctx, d):
    """2^|M| oracle: every subset closed under the admissible moves."""
    t = ctx.spread_t
    M = spread_monomials(ctx, d)

    def closed(subset):
        s = set(subset)
        for u in s:
            for j in u:
                rest = set(u) - {j}
                for i in range(1, j):
                    if i in rest:
                        continue
                    moved = tuple(sorted(rest | {i}))
                    if all(b - a >= t for a, b in zip(moved, moved[1:])):
                        if moved not in s:
                            return False
        return True

    return [set(sub) for r in range(len(M) + 1)
            for sub in combinations(M, r) if closed(sub)]


def _no_layer(*args):
    raise AssertionError("a layer was built")


class TestEnumerateBorelClosed:
    def test_singleton_poset(self):
        got = enumerate_borel_closed(Context(4, 3), 2)
        assert got == [[], [(1, 4)]]

    def test_m_6_2_2_against_subset_filter(self):
        ctx = Context(6, 2)
        got = enumerate_borel_closed(ctx, 2)
        assert len(got) == 16  # pinned regression value
        oracle = subset_filter_closed_sets(ctx, 2)
        assert sorted(map(sorted, (set(g) for g in got))) == sorted(
            map(sorted, oracle)
        )

    def test_exhaustiveness_certificate_small(self):
        # every (n, t, d) with |M| <= 12: agree with the 2^|M| filter
        for t in (1, 2, 3):
            for n in range(2, 8):
                ctx = Context(n, t)
                for d in (1, 2, 3):
                    if len(spread_monomials(ctx, d)) <= 12:
                        got = enumerate_borel_closed(ctx, d)
                        oracle = subset_filter_closed_sets(ctx, d)
                        assert sorted(map(sorted, (set(g) for g in got))) == sorted(
                            map(sorted, oracle)
                        )

    def test_each_set_is_stable_as_single_degree_ideal(self):
        ctx = Context(7, 2)
        for members in enumerate_borel_closed(ctx, 2):
            if members:
                level = SpreadIdeal(ctx, {2: tuple(members)})
                assert is_strongly_stable(level)

    def test_budget(self):
        # 128 sets, and masks of 784 bits, under 64 * 100
        assert len(enumerate_borel_closed(Context(9, 2), 2, SearchBudget(max_states=128))) == 128
        with pytest.raises(BudgetExceededError, match="state budget"):
            enumerate_borel_closed(Context(9, 2), 2, SearchBudget(max_states=127))

    def test_oversized_degree_refused_before_building(self, monkeypatch):
        monkeypatch.setattr(oracle, "_Layer", _no_layer)
        with pytest.raises(BudgetExceededError):
            enumerate_borel_closed(Context(32, 1), 16)
        # 184,756 monomials, under max_states, but about 3.4e10 mask bits
        with pytest.raises(BudgetExceededError, match="bits"):
            enumerate_borel_closed(Context(20, 1), 10)


class TestEnumerateIdeals:
    def test_4_3_single_ideal(self):
        ideals = list(enumerate_strongly_stable_ideals(Context(4, 3), 2))
        assert len(ideals) == 1
        assert ideals[0].gens == {2: ((1, 4),)}

    def test_all_emitted_are_stable_and_minimal(self):
        for ideal in enumerate_strongly_stable_ideals(Context(6, 2), 2):
            assert is_strongly_stable(ideal)
            assert borel_ideal(ideal.all_generators(), ideal.ctx) == ideal
            assert min(ideal.gens) == 2

    def test_initial_degree_is_exact(self):
        for ell1 in (2, 3):
            for ideal in enumerate_strongly_stable_ideals(Context(7, 2), ell1):
                assert min(ideal.gens) == ell1

    def test_count_is_deterministic_and_complete(self):
        ctx = Context(8, 2)
        first = [ideal_json(i) for i in enumerate_strongly_stable_ideals(ctx, 2)]
        second = [ideal_json(i) for i in enumerate_strongly_stable_ideals(ctx, 2)]
        assert first == second
        # distinct ideals only
        assert len(set(first)) == len(first)

    def test_each_ideal_owns_its_generators(self):
        # ideals below one chain link share its generator tuple; mutating
        # the gens of a yielded ideal must leave every later ideal unchanged
        ctx = Context(8, 2)
        expected = [ideal_json(i) for i in enumerate_strongly_stable_ideals(ctx, 2)]
        seen = []
        for ideal in enumerate_strongly_stable_ideals(ctx, 2):
            seen.append(ideal_json(ideal))
            for d in list(ideal.gens):
                ideal.gens[d] = ideal.gens[d][1:]
            ideal.gens[ctx.n_vars] = ((1,),)
        assert seen == expected

    def test_stream_covers_every_stable_ideal_small(self):
        # cross-check completeness against a straight subset search in a tiny
        # case: n=5, t=2 ideals of initial degree 2
        ctx = Context(5, 2)
        emitted = {tuple(i.all_generators())
                   for i in enumerate_strongly_stable_ideals(ctx, 2)}
        # build every candidate from closed sets per degree by brute force
        expected = set()
        for d2 in subset_filter_closed_sets(ctx, 2):
            if not d2:
                continue
            sh = set(literal_shadow(list(d2), ctx))
            for d3 in subset_filter_closed_sets(ctx, 3):
                if sh <= set(d3):
                    gens = {}
                    if d2:
                        gens[2] = tuple(sorted(d2))
                    extra = set(d3) - sh
                    if extra:
                        gens[3] = tuple(sorted(extra))
                    expected.add(tuple(u for dd in sorted(gens)
                                       for u in gens[dd]))
        assert emitted == expected

    def test_budget_interrupts_stream(self):
        # the layers' masks need 3,755 bits, under 64 * 500
        ctx = Context(9, 2)
        budget = SearchBudget(max_states=500)
        seen = []
        with pytest.raises(BudgetExceededError, match="state budget"):
            for ideal in enumerate_strongly_stable_ideals(ctx, 2, budget):
                seen.append(ideal)
        assert len(seen) == 500

    def test_timeout_interrupts_stream(self, monkeypatch):
        # a clock that ticks once per reading, read when the walk starts
        # and at every ideal: the third ideal is past the deadline
        ticks = iter(range(10**6))
        monkeypatch.setattr(oracle, "time",
                            SimpleNamespace(monotonic=lambda: next(ticks)))
        seen = []
        with pytest.raises(BudgetExceededError, match="timeout"):
            for ideal in enumerate_strongly_stable_ideals(Context(9, 2), 2,
                                                          SearchBudget(timeout=2.5)):
                seen.append(ideal)
        assert len(seen) == 2

    def test_more_variables_than_the_oracle_takes_are_refused(self, monkeypatch):
        monkeypatch.setattr(oracle, "_Layer", _no_layer)
        with pytest.raises(BudgetExceededError, match="33"):
            list(enumerate_strongly_stable_ideals(Context(33, 2), 17))
        # past the top t-spread degree there is nothing to walk
        assert list(enumerate_strongly_stable_ideals(Context(40, 2), 25)) == []

    @pytest.mark.parametrize("ell1", [-1, 0, 1])
    def test_walk_and_search_agree_at_low_initial_degree(self, ell1):
        # l1 = 0 walks the unit ideal alone; no degree is negative
        ctx = Context(5, 2)
        if ell1 < 0:
            with pytest.raises(InvalidMonomialError):
                list(enumerate_strongly_stable_ideals(ctx, ell1))
            with pytest.raises(InvalidMonomialError):
                brute_force_max_corners(ctx, ell1)
            return
        walked = [corners_from_table(graded_betti(i)).corners
                  for i in enumerate_strongly_stable_ideals(ctx, ell1)]
        if ell1 == 0:
            assert walked == [((0, 0),)]
        cell = brute_force_max_corners(ctx, ell1)
        assert not cell.partial
        assert cell.unconstrained == max(map(len, walked))
        assert cell.value == max(len(c) for c in walked if c[0][1] == ell1)


class TestBruteForceMaxCorners:
    @pytest.mark.parametrize("n,t,ell1,want", [
        (6, 2, 2, 2),
        (8, 3, 3, 1),
        (11, 3, 2, 2),
        (4, 3, 2, 1),
        (9, 2, 2, 3),
    ])
    def test_table_cells(self, n, t, ell1, want):
        cell = brute_force_max_corners(Context(n, t), ell1)
        assert cell.value == want
        assert not cell.partial

    def test_dash_cells(self):
        # no qualifying ideal: below the first printed column
        assert brute_force_max_corners(Context(5, 2), 3).value is None
        assert brute_force_max_corners(Context(7, 3), 3).value is None
        # but unconstrained ideals of that initial degree do exist there
        assert brute_force_max_corners(Context(5, 2), 3).unconstrained == 1

    def test_partial_flag_with_tiny_budget(self):
        cell = brute_force_max_corners(Context(9, 2), 2, SearchBudget(max_states=20))
        assert cell.partial
        assert cell.value is None or cell.value <= 3

    def test_unconstrained_recorded(self):
        cell = brute_force_max_corners(Context(8, 2), 2)
        assert cell.unconstrained == 2

    def test_reach_13_2_2(self):
        # the dynamic program over every down-set ran out of states here
        cell = brute_force_max_corners(Context(13, 2), 2)
        assert not cell.partial
        assert (cell.value, cell.unconstrained) == (5, 5)


def _completions(layers, li, required):
    """(b, r) for every choice of the layers from ``li`` up, walked one by
    one: b the largest corner candidate, r the corner count."""
    if li == len(layers):
        yield -1, 0
        return
    layer = layers[li]
    t = layer.ctx.spread_t
    for gens, shadow in oracle._down_sets(layer, required):
        lasts = [layer.maxval[p] for p in range(layer.size) if gens >> p & 1]
        for b, r in _completions(layers, li + 1, shadow):
            if lasts:
                k = max(lasts) - t * (layer.d - 1) - 1
                if k > b:
                    b, r = k, r + 1
            yield b, r


def _principal_work(n, t, ell1, budget=None):
    """Units the principal search charges for one cell, run as
    brute_force_max_corners runs it, up to the charge that exhausts
    ``budget`` if one does."""
    search = oracle._PrincipalSearch(oracle._layers(Context(n, t), ell1, SearchBudget()),
                                     budget or SearchBudget())
    try:
        for k, shadows in search.choices(0, 0).items():
            if k >= 0:
                for shadow in shadows:
                    search.solve(1, shadow)
    except BudgetExceededError:
        pass
    return search.meter.used


class TestLayers:
    def test_down_shadows_are_shadows_of_the_closures(self):
        # the link lemma by an independent route: the literal shadow of the
        # whole degree slice of B_t(u), in every degree, the top one included;
        # t = 1 stops at n = 10, as n = 12 alone takes 10 s this way
        checked = 0
        for t, n_hi in ((1, 10), (2, 12), (3, 12), (4, 12)):
            for n in range(1, n_hi + 1):
                ctx = Context(n, t)
                layers = oracle._layers(ctx, 0, SearchBudget())
                for li, layer in enumerate(layers):
                    above = layers[li + 1].monomials if li + 1 < len(layers) else []
                    index = {w: i for i, w in enumerate(above)}
                    for q, u in enumerate(layer.monomials):
                        below = ideals.borel_closure_degree(u, ctx)
                        want = sum(1 << index[w] for w in literal_shadow(below, ctx))
                        assert layer.down_shadow[q] == want, (n, t, u)
                        checked += 1
        assert checked == 3_677  # every t-spread monomial, 1 included

    @pytest.mark.parametrize("n,t,ell1,states", [
        (14, 2, 2, 679), (13, 3, 2, 31), (11, 1, 2, 13_109), (12, 2, 3, 35)])
    def test_shadows_by_runs_on_every_state(self, n, t, ell1, states):
        # the runs of each required set against the per-bit reference, on
        # every state the search solves, the top layer's (shadow 0) included
        layers = oracle._layers(Context(n, t), ell1, SearchBudget())
        search = oracle._PrincipalSearch(layers, SearchBudget())
        search.solve(0, 0)
        checked = 0
        for layer, memo in zip(layers, search.memo):
            for required in memo:
                got = layer.shadow(required)
                assert got == helpers.union(layer.down_shadow, required), (layer.d, required)
                assert got or layer is layers[-1] or not required
                checked += 1
        assert checked == states

    def test_shadows_by_runs_on_every_down_set(self):
        # every down-set of every layer from the unit up, the empty set and
        # the whole layer among them, as the walk requires them; the top
        # layer is not linked, so each of its shadows is 0
        checked = 0
        for n, t in ((7, 1), (9, 2), (10, 3)):
            layers = oracle._layers(Context(n, t), 0, SearchBudget())
            for layer, above in zip(layers, layers[1:] + [None]):
                for gens, shadow in oracle._down_sets(layer):
                    assert layer.shadow(gens) == shadow == helpers.union(
                        layer.down_shadow, gens), (n, t, layer.d, gens)
                    assert shadow or above is None or not gens
                    checked += 1
                assert layer.shadow(0) == 0
                assert layer.shadow((1 << layer.size) - 1) == (
                    (1 << above.size) - 1 if above else 0)
        assert checked == 1_587

    def test_predecessors_are_the_unit_decrements(self):
        # the step arithmetic against the literal route: lower each index of
        # each monomial by one and look the result up in the layer's list;
        # one degree past the top gives each (n, t) a layer with no monomials
        checked = empty = 0
        for t in range(1, 5):
            for n in range(1, 13):
                ctx = Context(n, t)
                for d in range(max_spread_degree(n, t) + 2):
                    layer = oracle._Layer(ctx, d)
                    index = {u: i for i, u in enumerate(layer.monomials)}
                    lowered = ([u[:p] + (u[p] - 1,) + u[p + 1:] for p in range(d)]
                               for u in layer.monomials)
                    want = [[index[v] for v in vs if v in index] for vs in lowered]
                    assert layer.preds == want, (n, t, d)
                    checked += layer.size
                    empty += not layer.size
        assert (checked, empty) == (9_821, 48)


class TestCornerSearch:
    """The principal search and the dynamic program over every down-set
    against the one-ideal-at-a-time walk and each other."""

    @pytest.mark.parametrize("n,t,ell1", [(6, 1, 2), (8, 2, 2), (9, 2, 3), (11, 3, 2)])
    def test_every_state_matches_its_completions(self, n, t, ell1):
        # the states themselves are checked, fronts and all
        budget = SearchBudget()
        layers = oracle._layers(Context(n, t), ell1, budget)
        principal, dp = oracle._PrincipalSearch(layers, budget), CornerDP(layers, budget)
        principal.solve(0, 0)
        dp.solve(0, 0)
        for memo, counted in ((principal.memo, False), (dp.memo, True)):
            states = 0
            for li, states_of_layer in enumerate(memo):
                for required, found in states_of_layer.items():
                    pairs = list(_completions(layers, li, required))
                    pareto = {(b, r) for b, r in pairs
                              if not any(b2 <= b and r2 >= r and (b2, r2) != (b, r)
                                         for b2, r2 in pairs)}
                    if counted:
                        ideals, found = found
                        assert ideals == len(pairs)
                    assert sorted(found) == sorted(pareto)
                    states += 1
            assert states > 5

    @pytest.mark.parametrize("n,t,ell1", [(12, 2, 3), (13, 2, 2), (10, 1, 2), (14, 3, 2)])
    def test_choices_match_the_full_scan(self, n, t, ell1):
        # the scan visits only the Borel-minimal free monomials of each last
        # index: each shadow it keeps is a candidate of the scan over every
        # free monomial, and it keeps every ⊆-minimal one of those
        layers = oracle._layers(Context(n, t), ell1, SearchBudget())
        search = oracle._PrincipalSearch(layers, SearchBudget())
        search.solve(0, 0)
        states = 0
        for li, memo in enumerate(search.memo):
            for required in memo:
                got = search.choices(li, required)
                candidates = helpers.full_scan_candidates(layers[li], required)
                want = helpers.full_scan_choices(layers[li], required)
                assert list(got) == list(candidates) == list(want)
                for k, shadows in got.items():
                    assert set(shadows) <= candidates[k], (li, required, k)
                    assert sorted(helpers.minimal_shadows(shadows)) == sorted(want[k]), (
                        li, required, k)
                states += 1
        assert states > 30

    @pytest.mark.parametrize("n,t,ell1", [(12, 2, 3), (13, 2, 2), (10, 1, 2), (14, 3, 2)])
    def test_minimal_shadows_alone_solve_the_same_states(self, n, t, ell1):
        # a search that visits only the ⊆-minimal shadows of every candidate
        # solves the same states to the same fronts, at the same charge:
        # the shadows the scan keeps beyond those add no state
        class FullScanSearch(oracle._PrincipalSearch):
            def choices(self, li, required):
                layer = self.layers[li]
                free = ((1 << layer.size) - 1) & ~required
                self.meter.charge(1 + free.bit_count())
                return helpers.full_scan_choices(layer, required)

        layers = oracle._layers(Context(n, t), ell1, SearchBudget())
        library = oracle._PrincipalSearch(layers, SearchBudget())
        reference = FullScanSearch(layers, SearchBudget())
        for search in (library, reference):
            for k, shadows in search.choices(0, 0).items():
                for shadow in shadows:
                    search.solve(1, shadow)
        for li, (got, want) in enumerate(zip(library.memo, reference.memo)):
            assert got == want, li  # the same states, each to the same front
        assert library.meter.used == reference.meter.used
        assert sum(map(len, library.memo)) > 30

    @pytest.mark.parametrize("n,t,ell1,max_states,used", [
        (12, 2, 3, None, 1_396),
        (13, 2, 2, None, 16_486),
        (10, 1, 2, None, 113_129),
        (14, 3, 2, None, 1_838),
        (13, 2, 2, 5_000, 5_025),
        (10, 1, 2, 20_000, 20_094),
    ])
    def test_units_are_one_per_free_monomial(self, n, t, ell1, max_states, used):
        # each state charges one unit plus one per free monomial of its
        # layer, visited or not: the counts of the scan over every one
        budget = SearchBudget(max_states=max_states) if max_states else None
        assert _principal_work(n, t, ell1, budget) == used

    @pytest.mark.parametrize("n,t,ell1,max_states,cell", [
        (10, 2, 2, 200, (1, 3)),
        (13, 2, 2, 5_000, (1, 4)),
        (10, 1, 2, 20_000, (None, None)),
        (12, 2, 3, 700, (None, None)),
    ])
    def test_partial_cells_under_a_small_budget(self, n, t, ell1, max_states, cell):
        found = brute_force_max_corners(Context(n, t), ell1, SearchBudget(max_states=max_states))
        assert found.partial
        assert (found.value, found.unconstrained) == cell

    def test_front_counts_a_corner_of_value_two_on_a_synthetic_pair(self):
        # Two made-up layers, each a two-element chain.  Degree 1: y < x,
        # both with last index 6, so candidate 5; only x's shadow holds w.
        # Degree 2: w < u, candidates 7 and 3; u needs w.  Two corners need
        # x in degree 1, whose corner then has value 2: the front reaches
        # (b, r) = (5, 2) only because such corners count.  The last index
        # falls from w to u, which no layer of monomials allows, so only the
        # dynamic program over every down-set takes these layers.
        def layer(d, maxval, down_shadow):
            return SimpleNamespace(ctx=SimpleNamespace(spread_t=1), d=d,
                                   size=2, up=[0b11, 0b10], maxval=maxval,
                                   down_shadow=down_shadow)

        layers = [layer(1, [6, 6], [0, 0b01]), layer(2, [9, 5], [0, 0])]
        assert CornerDP(layers, SearchBudget()).solve(0, 0) == (
            8, ((-1, 0), (5, 2)))

    @pytest.mark.parametrize("frontier", [0, DP_FRONTIER, 10**6])
    @pytest.mark.parametrize("n,t,ell1", [(8, 2, 2), (9, 2, 3), (11, 3, 2)])
    def test_groups_match_listed_down_sets(self, monkeypatch, n, t, ell1, frontier):
        # frontier 0 lists every down-set, and a frontier above the layer
        # size reads every state from one family
        monkeypatch.setattr(helpers, "DP_FRONTIER", frontier)
        budget = SearchBudget()
        layers = oracle._layers(Context(n, t), ell1, budget)
        search = CornerDP(layers, budget)
        search.solve(0, 0)
        states = 0
        for li, memo in enumerate(search.memo):
            layer = layers[li]
            for required in memo:
                want = {}
                for gens, shadow in oracle._down_sets(layer, required):
                    mm = max((layer.maxval[p] for p in range(layer.size)
                              if gens >> p & 1), default=-1)
                    want[shadow, mm] = want.get((shadow, mm), 0) + 1
                assert search.groups(li, required) == want, (li, required)
                states += 1
        assert states > 10

    def test_matches_walk_on_every_desk_cell(self):
        cells = 0
        for t, n_hi in ((1, 7), (2, 9), (3, 11)):
            for n in range(1, n_hi + 1):
                ctx = Context(n, t)
                for ell1 in range(1, max_spread_degree(n, t) + 1):
                    walked = walk_max_corners(ctx, ell1)
                    assert dp_max_corners(ctx, ell1) == walked, (n, t, ell1)
                    cell = brute_force_max_corners(ctx, ell1)
                    assert not cell.partial
                    assert (cell.unconstrained, cell.value) == walked[1:], (n, t, ell1)
                    cells += 1
        assert cells == 79  # every (n, t, l1) with a t-spread degree l1

    def test_matches_the_dp_wherever_the_dp_is_exact(self):
        # t = 1..5 up to n = 7, 11, 13, 14, 15: every cell with l1 >= 2
        cells = 0
        for t, n_hi in ((1, 7), (2, 11), (3, 13), (4, 14), (5, 15)):
            for n in range(t + 1, n_hi + 1):
                ctx = Context(n, t)
                for ell1 in range(2, max_spread_degree(n, t) + 1):
                    cell = brute_force_max_corners(ctx, ell1)
                    assert not cell.partial
                    _, unconstrained, value = dp_max_corners(ctx, ell1)
                    assert (cell.unconstrained, cell.value) == (
                        unconstrained, value), (n, t, ell1)
                    cells += 1
        assert cells == 101

    @pytest.mark.parametrize("n,t,ell1,ideals,value", [
        (9, 2, 2, 3_369, 3),
        (10, 2, 2, 60_249, 3),
        (12, 3, 2, 28_227, 3),
        (11, 2, 3, 1_831_833, 3),
        (12, 2, 4, 8_171_672, 3),
        (14, 3, 2, 15_957_016, 3),
    ])
    def test_exact_ideal_counts(self, n, t, ell1, ideals, value):
        counted, _, found = dp_max_corners(Context(n, t), ell1)
        assert (counted, found) == (ideals, value)
        assert brute_force_max_corners(Context(n, t), ell1).value == value

    def test_state_budget(self):
        cell = brute_force_max_corners(Context(10, 2), 2, SearchBudget(max_states=100))
        assert cell.partial
        assert cell.value is None or cell.value <= 3

    @pytest.mark.parametrize("n,t,ell1", [(9, 1, 2), (10, 1, 3)])
    def test_principal_budget_ends_at_the_work_done(self, n, t, ell1):
        # one unit per state and per free monomial of its layer; at these
        # cells the units, 15,012 and 57,964, reach past the masks' 64 bits
        # per unit (91,963 and 344,730 bits), so the state count is the cap
        # that trips
        done = _principal_work(n, t, ell1)
        exact = brute_force_max_corners(Context(n, t), ell1, SearchBudget(max_states=done))
        assert not exact.partial
        capped = brute_force_max_corners(Context(n, t), ell1, SearchBudget(max_states=done - 1))
        assert capped.partial
        assert _principal_work(n, t, ell1) == done

    @pytest.mark.parametrize("n,t,ell1", [(10, 2, 2), (12, 3, 2)])
    def test_state_budget_ends_at_the_work_done(self, monkeypatch, n, t, ell1):
        # the dynamic program charges nodes in batches, and neither the work
        # counted nor the cap depends on the batch size
        def dp_work():
            layers = oracle._layers(Context(n, t), ell1, SearchBudget())
            search = CornerDP(layers, SearchBudget())
            for shadow, mm in search.groups(0, 0):
                if mm >= 0:
                    search.solve(1, shadow)
            return search.meter.used

        done = dp_work()
        monkeypatch.setattr(helpers, "DP_CHECK_EVERY", 7)
        assert dp_work() == done
        dp_max_corners(Context(n, t), ell1, SearchBudget(max_states=done))
        with pytest.raises(BudgetExceededError, match="state budget"):
            dp_max_corners(Context(n, t), ell1, SearchBudget(max_states=done - 1))

    def test_timeout(self):
        cell = brute_force_max_corners(Context(10, 2), 2, SearchBudget(timeout=0.0))
        assert cell.partial

    def test_timeout_within_one_layer(self, monkeypatch):
        # a clock that ticks once per reading: the deadline passes on the
        # third reading after the start, inside the single state of layer l1
        # of the dynamic program, and at the third state of the principal
        # search, which reads it once per state
        budget = SearchBudget(timeout=2.5)
        layers = oracle._layers(Context(12, 2), 2, budget)
        for search, run in ((CornerDP, lambda s: s.groups(0, 0)),
                            (oracle._PrincipalSearch, lambda s: s.solve(0, 0))):
            ticks = iter(range(10**6))
            monkeypatch.setattr(oracle, "time",
                                SimpleNamespace(monotonic=lambda: next(ticks)))
            started = search(layers, budget)
            with pytest.raises(BudgetExceededError, match="timeout"):
                run(started)
            assert next(ticks) == 4

    def test_ideal_budget_is_exact(self):
        # the walk charges max_states one unit per ideal, so a cap one
        # short of the total stops it one ideal short
        ctx = Context(9, 2)
        ideals, _, _ = dp_max_corners(ctx, 2)
        capped = SearchBudget(max_states=ideals - 1)
        walked = 0
        with pytest.raises(BudgetExceededError):
            for _ in enumerate_strongly_stable_ideals(ctx, 2, capped):
                walked += 1
        assert walked == ideals - 1
        at_cap = SearchBudget(max_states=ideals)
        assert len(list(enumerate_strongly_stable_ideals(ctx, 2, at_cap))) == ideals

    def test_more_variables_than_the_oracle_takes_are_refused(self, monkeypatch):
        monkeypatch.setattr(oracle, "_Layer", _no_layer)
        with pytest.raises(BudgetExceededError, match="33"):
            oracle._layers(Context(33, 2), 17, SearchBudget())
        cell = brute_force_max_corners(Context(33, 2), 17)
        assert cell.partial
        assert cell.value is None and cell.unconstrained is None
        # past the top t-spread degree there is no layer to build: an exact dash
        cell = brute_force_max_corners(Context(40, 2), 25)
        assert not cell.partial and cell.value is None

    def test_oversized_layers_refused_before_building(self, monkeypatch):
        # 2^32 monomials in all degrees: refused from spread_count alone
        monkeypatch.setattr(oracle, "_Layer", _no_layer)
        cell = brute_force_max_corners(Context(32, 1), 1)
        assert cell.partial
        assert cell.value is None and cell.unconstrained is None

    @pytest.mark.parametrize("n", [16, 20])
    def test_mask_bits_refused_before_building(self, monkeypatch, n):
        # 65,535 and 1,048,575 monomials, under max_states, but masks of
        # about 1.2e9 and 2.7e11 bits
        monkeypatch.setattr(oracle, "_Layer", _no_layer)
        with pytest.raises(BudgetExceededError, match="bits"):
            oracle._layers(Context(n, 1), 1, SearchBudget())
        cell = brute_force_max_corners(Context(n, 1), 1)
        assert cell.partial
        assert cell.value is None and cell.unconstrained is None

    def test_mask_bits_at_the_cap_are_built(self):
        # degrees 1..6 of 6 variables hold 6, 15, 20, 15, 6 and 1 monomials:
        # 6*21 + 15*35 + 20*35 + 15*21 + 6*7 + 1*1 = 1,709 bits, and
        # 64 * 27 = 1,728 >= 1,709 > 1,664 = 64 * 26
        layers = oracle._layers(Context(6, 1), 1, SearchBudget(max_states=27))
        assert [layer.size for layer in layers] == [6, 15, 20, 15, 6, 1]
        with pytest.raises(BudgetExceededError):
            oracle._layers(Context(6, 1), 1, SearchBudget(max_states=26))

    def test_mask_bit_rate_is_64_bits_per_unit(self):
        # degrees 2..5 of 10 variables at t = 2 hold 36, 56, 35 and 6
        # monomials: 36*92 + 56*91 + 35*41 + 6*6 = 9,879 bits, which lie in
        # (64 * 154, 65 * 154], so a rate of 65 bits would build them at 154
        # units, and 64 * 155 = 9,920 >= 9,879
        with pytest.raises(BudgetExceededError, match="9879 bits"):
            oracle._layers(Context(10, 2), 2, SearchBudget(max_states=154))
        layers = oracle._layers(Context(10, 2), 2, SearchBudget(max_states=155))
        assert [layer.size for layer in layers] == [36, 56, 35, 6]

    def test_budget_caps_must_be_positive(self):
        with pytest.raises(ValueError):
            SearchBudget(max_states=0)

    @pytest.mark.parametrize("timeout", [-1.0, float("nan")])
    def test_timeout_must_be_a_nonnegative_number(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            SearchBudget(timeout=timeout)
        assert SearchBudget(timeout=0.0).timeout == 0.0


class TestRegenerateTable:
    def test_formula_row(self):
        cells = regenerate_table(2, (4, 9), (2, 2))
        assert [c.value for c in cells] == [1, 1, 2, 2, 2, 3]
        assert all(c.provenance == "formula" for c in cells)

    def test_first_rows_of_both_tables(self):
        cells = regenerate_table(3, (4, 12), (2, 2))
        assert [c.value for c in cells] == [1, 1, 1, 1, 2, 2, 2, 2, 3]

    def test_dashes(self):
        cells = regenerate_table(3, (4, 7), (3, 3))
        assert [c.value for c in cells] == [None] * 4

    def test_brute_force_below_initial_degree_two_is_refused(self):
        with pytest.raises(ConstructionInapplicableError):
            regenerate_table(2, (5, 5), (0, 1), brute_force_upto=5)
        # formula cells are refused there too: the closed forms need l1 >= 2
        with pytest.raises(ConstructionInapplicableError, match="initial degree 0"):
            regenerate_table(2, (5, 5), (0, 1))
        with pytest.raises(ConstructionInapplicableError, match="initial degree 1"):
            regenerate_table(2, (6, 6), (1, 2), brute_force_upto=5)

    @pytest.mark.parametrize("t", [1, 0, -3])
    def test_formula_cells_below_spread_two_are_refused(self, t):
        with pytest.raises(ConstructionInapplicableError, match=f"t={t}"):
            regenerate_table(t, (4, 7), (2, 3))
        with pytest.raises(ConstructionInapplicableError, match=f"t={t}"):
            regenerate_table(t, (4, 7), (2, 3), brute_force_upto=6)

    def test_brute_force_cells_at_spread_one(self):
        cells = regenerate_table(1, (4, 7), (2, 3), brute_force_upto=7)
        assert [c.value for c in cells] == [2, 2, 3, 4, 1, 2, 3, 4]
        assert all(c.provenance == "brute-force" and not c.partial for c in cells)

    def test_brute_force_provenance(self):
        cells = regenerate_table(2, (4, 6), (2, 3), brute_force_upto=5)
        by_key = {(c.n, c.ell1): c for c in cells}
        assert by_key[(4, 2)].provenance == "brute-force"
        assert by_key[(6, 2)].provenance == "formula"
        assert by_key[(4, 2)].value == 1
        assert by_key[(5, 3)].value is None

    def test_csv_format(self):
        lines = cli._csv_lines(regenerate_table(2, (4, 5), (2, 3)))
        assert lines[0] == "t,n,ell1,value,provenance"
        assert lines[1] == "2,4,2,1,formula"
        assert "2,4,3,-,formula" in lines

    def test_markdown_grid(self):
        lines = cli._markdown_lines(regenerate_table(2, (4, 6), (2, 3)))
        assert lines[0] == "| l1 \\ n | 4 | 5 | 6 |"
        assert "| 2 | 1 | 1 | 2 |" in lines
        assert "| 3 | - | - | 1 |" in lines


class TestCrossValidate:
    def test_small_sweep_is_clean(self):
        report = cross_validate((4, 8), (2, 3), (2, 3))
        assert report.ok, report.disagreements
        assert not report.partial
        assert any(r["check"] == "closure-domination" for r in report.records)
        assert any(r["check"] == "corner-methods" for r in report.records)
        assert any(r["check"] == "max-corners" for r in report.records)

    def test_reference_sweeps_are_clean(self):
        # the two sweeps used as ground truth elsewhere: t=2 up to n=9 and
        # t=3 up to n=11, low initial degrees
        assert cross_validate((4, 9), (2, 2), (2, 2)).ok
        assert cross_validate((4, 11), (3, 3), (2, 3)).ok

    def test_json_lines(self, capsys):
        # the validate command writes each record as one sorted-key JSON line
        report = cross_validate((4, 5), (2, 2), (2, 2))
        assert main(["validate", "--n", "4:5", "--t", "2:2", "--l", "2:2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [json.dumps(r, sort_keys=True) for r in report.records]
        for line in lines:
            record = json.loads(line)
            assert record["check"] in ("closure-domination", "corner-methods",
                                       "max-corners")
            assert record["ok"] and not record["partial"]

    def test_off_by_one_search_is_reported(self, monkeypatch):
        # the closed form and the largest count walked in (b) both catch it
        search = oracle.brute_force_max_corners

        def overcounting(*args, **kwargs):
            cell = search(*args, **kwargs)
            cell.value += 1
            return cell

        monkeypatch.setattr(oracle, "brute_force_max_corners", overcounting)
        report = cross_validate((6, 6), (2, 2), (2, 2))
        assert [r["check"] for r in report.disagreements] == ["max-corners"]

    def test_wrong_closure_is_reported(self, monkeypatch):
        # check (a) compares closures with the oracle's own move order, so a
        # closure search that drops a monomial is caught
        closure = oracle.borel_closure_degree
        monkeypatch.setattr(oracle, "borel_closure_degree",
                            lambda u, ctx: closure(u, ctx)[1:])
        report = cross_validate((5, 5), (2, 2), (2, 2))
        assert [r["check"] for r in report.disagreements] == ["closure-domination"]

    def test_wrong_constructed_corners_are_reported(self, monkeypatch):
        # check (c) reads the corners off the Betti table of the built ideal,
        # so an ideal that misses a witness is caught although the report
        # still predicts every corner
        build = oracle.construct_extremal_ideal

        def short(n, t, ell1):
            ideal, rep = build(n, t, ell1)
            return borel_ideal(rep.omegas[:-1], rep.ctx), rep

        monkeypatch.setattr(oracle, "construct_extremal_ideal", short)
        report = cross_validate((8, 8), (2, 2), (2, 2))
        [bad] = report.disagreements
        assert bad["check"] == "max-corners"
        assert (bad["brute"], bad["formula"], bad["built"]) == (2, 2, 2)

    def test_witnesses_failing_their_claim_are_reported(self, monkeypatch):
        # the built ideal and its corners are right; only the reported
        # witness list, one monomial short, fails omega_claim_check
        build = oracle.construct_extremal_ideal

        def short_report(n, t, ell1):
            ideal, rep = build(n, t, ell1)
            return ideal, dataclasses.replace(rep, omegas=rep.omegas[:-1])

        monkeypatch.setattr(oracle, "construct_extremal_ideal", short_report)
        report = cross_validate((8, 8), (2, 2), (2, 2))
        [bad] = report.disagreements
        assert bad["check"] == "max-corners"
        assert (bad["brute"], bad["formula"], bad["built"]) == (2, 2, 2)
        assert bad["detail"] == "witnesses fail omega_claim_check"

    def test_failed_construction_is_a_record(self, monkeypatch):
        def failing(n, t, ell1):
            raise InvariantViolationError("corner verification failed")

        monkeypatch.setattr(oracle, "construct_extremal_ideal", failing)
        report = cross_validate((8, 8), (2, 2), (2, 3))
        assert [r["check"] for r in report.disagreements] == ["max-corners"] * 2
        for record in report.disagreements:
            assert record["built"] is None
            assert "corner verification failed" in record["detail"]

    def test_partial_budget_marks_report(self):
        # the walk of (b) stops at 3,000 of 3,369 ideals; (a) compares 87
        # closures, charged 9 * 9 + 28 * 28 + 35 * 35 + 15 * 15 = 2,315 units
        report = cross_validate((9, 9), (2, 2), (2, 2), SearchBudget(max_states=3000))
        assert report.partial
        closure, walk, _ = report.records
        assert not closure["partial"] and closure["cases"] == 87
        assert walk["partial"] and walk["cases"] == 3000

    def test_closure_check_under_the_state_budget(self):
        # n = 5, t = 2: 5 + 6 + 1 closures charged 5, 6 and 1 units each
        # (25 + 36 + 1), masks of at most 36 bits; 40 units end in degree 2
        report = cross_validate((5, 5), (2, 2), (2, 2), SearchBudget(max_states=40))
        closure = report.records[0]
        assert closure["check"] == "closure-domination"
        assert closure["partial"] and closure["ok"] and closure["cases"] == 7
        full = cross_validate((5, 5), (2, 2), (2, 2), SearchBudget(max_states=62))
        assert not full.records[0]["partial"] and full.records[0]["cases"] == 12
        assert report.partial

    def test_closure_check_under_a_timeout(self):
        report = cross_validate((9, 9), (2, 2), (2, 2), SearchBudget(timeout=0.0))
        closure = report.records[0]
        assert closure["partial"] and closure["cases"] < 87
        assert report.partial

    @pytest.mark.parametrize("n,t,ell1,gaps", [(7, 1, 2, 2369), (9, 2, 2, 77),
                                               (10, 3, 3, 0), (8, 2, 2, 7)])
    def test_link_data_matches_the_whole_ideal_readings(self, n, t, ell1, gaps):
        # check (b) tables the rows and folds the peaks of links read once;
        # (8, 2, 2) has 7 ideals with no new generators in a middle degree
        skipped = 0
        stream = enumerate_strongly_stable_ideals(Context(n, t), ell1)
        for ideal, slots in oracle._link_data(stream, t):
            assert [(l, link) for l, link, *_ in slots] == sorted(ideal.gens.items())
            table = BettiTable({l: row for l, _, row, _, _ in slots})
            assert table.rows == graded_betti(ideal).rows
            peaks = corners_from_peaks(t, [(l, peak) for l, _, _, peak, _ in slots])
            assert peaks == corners_via_characterization(ideal)
            skipped += max(ideal.gens) - min(ideal.gens) + 1 > len(ideal.gens)
        assert skipped == gaps

    def test_one_generator_gated_per_walked_ideal(self, monkeypatch):
        # consecutive walked ideals differ by one generator, appended after
        # a generator prefix that both share, and only it is gated again
        gated = []
        gate = oracle.gate_degree

        def counting(trie, gens, t, created):
            gated.append(len(gens))
            gate(trie, gens, t, created)

        monkeypatch.setattr(oracle, "gate_degree", counting)
        report = cross_validate((9, 9), (2, 2), (2, 2))
        assert sum(gated) == report.records[1]["cases"] == 3369
        gated.clear()
        walked = 0
        for t in (2, 3):  # the cells of the validate benchmark
            for n in range(4, 10):
                report = cross_validate((n, n), (t, t), (2, 3))
                walked += sum(r["cases"] for r in report.records
                              if r["check"] == "corner-methods")
        assert sum(gated) == walked == 5078

    def test_closure_check_refuses_oversized_masks(self, monkeypatch):
        # degree 1 of n = 9 needs 81 bits, over 64 * 1
        monkeypatch.setattr(oracle, "_Layer", _no_layer)
        report = cross_validate((9, 9), (2, 2), (2, 2), SearchBudget(max_states=1))
        closure = report.records[0]
        assert closure["partial"] and closure["cases"] == 0


LINK_CTX = Context(8, 2)
LINK_POOL = {d: spread_monomials(LINK_CTX, d) for d in range(1, 5)}


def _link_step(links, op, i, j):
    """``links`` after one step; the links it leaves alone stay the same
    objects, and so do the monomials of every link."""
    k = i % len(links)
    d, gens = links[k]
    if op == "append":  # one generator after the last of link k
        after = LINK_POOL[d][LINK_POOL[d].index(gens[-1]) + 1:]
        if not after:
            return links
        return links[:k] + [(d, gens + (after[j % len(after)],))] + links[k + 1:]
    if op == "truncate":  # link k cut to a prefix, dropped if empty
        if j % len(gens):
            return links[:k] + [(d, gens[:j % len(gens)])] + links[k + 1:]
        return links[:k] + links[k + 1:] if len(links) > 1 else links
    top = links[-1][0]
    if op == "push":  # a new top link of a higher degree
        degrees, base = range(top + 1, 5), links
    else:  # op == "degree": the top link swapped for one of another degree
        below = links[-2][0] if len(links) > 1 else 0
        degrees, base = [e for e in range(below + 1, 5) if e != top], links[:-1]
    if not degrees:
        return links
    e = degrees[i % len(degrees)]
    return base + [(e, (LINK_POOL[e][j % len(LINK_POOL[e])],))]


def _fresh_gate(links, t):
    """The trie of gating ``links`` afresh, or the gate's error message."""
    trie: dict = {}
    try:
        for _, gens in links:
            ideals.gate_degree(trie, gens, t)
    except NotStronglyStableError as exc:
        return str(exc)
    return trie


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["append", "push", "degree", "truncate"]),
                          st.integers(0, 7), st.integers(0, 7)), max_size=40))
@example([("push", 0, 0), ("append", 1, 0), ("append", 0, 0)])
def test_link_data_keeps_the_trie_of_each_ideal(steps):
    # a step whose ideal is unstable is skipped, unless it is the last one:
    # the stream holds stable ideals and at most one unstable ideal, its last.
    # Small indices pick the slex-first monomials, which keep ideals stable;
    # the example grows the lower link below a kept degree-3 link
    links = [(2, (LINK_POOL[2][0],))]
    stream, want = [SpreadIdeal(LINK_CTX, dict(links))], [_fresh_gate(links, 2)]
    for at, step in enumerate(steps, 1):
        moved = _link_step(links, *step)
        fresh = _fresh_gate(moved, 2)
        if isinstance(fresh, str) and at < len(steps):
            continue
        links = moved
        stream.append(SpreadIdeal(LINK_CTX, dict(links)))
        want.append(fresh)
    tries = []
    gate = oracle.gate_degree

    def spy(trie, gens, t, created):
        tries.append(trie)
        gate(trie, gens, t, created)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "gate_degree", spy)
        got = oracle._link_data(iter(stream), 2)
        for ideal, fresh in zip(stream, want):
            if isinstance(fresh, str):
                with pytest.raises(NotStronglyStableError, match=re.escape(fresh)):
                    next(got)
                break
            assert next(got)[0] is ideal
            assert all(trie is tries[0] for trie in tries)
            assert tries[0] == fresh


def test_stability_of_every_enumerated_ideal_generator_criterion():
    for ideal in enumerate_strongly_stable_ideals(Context(7, 3), 2):
        assert helpers.gate_witness(ideal) is None
