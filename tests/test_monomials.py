"""Monomial representation, slex order, enumeration."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspread import (
    Context,
    InvalidMonomialError,
    format_monomial,
    is_t_spread,
    parse_monomial,
    slex_sorted,
    spread_count,
    spread_monomials,
)
from tspread.monomials import max_spread_degree

from helpers import brute_force_spread, min_index, slex_greater, support


class TestContext:
    def test_rejects_spread_below_one(self):
        # t = 0 would need repeated variables, which index tuples cannot hold
        for t in (0, -1):
            with pytest.raises(InvalidMonomialError):
                Context(2, t)


class TestIsTSpread:
    def test_gap_two_is_2_spread(self):
        assert is_t_spread((1, 3, 6), Context(6, 2))

    def test_gap_two_is_not_3_spread(self):
        assert not is_t_spread((1, 3, 6), Context(6, 3))

    def test_unit_monomial_always_spread(self):
        for t in range(1, 5):
            assert is_t_spread((), Context(4, t))

    def test_degree_one_vacuous(self):
        assert is_t_spread((7,), Context(9, 5))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidMonomialError):
            is_t_spread((1, 7), Context(6, 2))
        with pytest.raises(InvalidMonomialError):
            is_t_spread((0, 3), Context(6, 2))

    def test_non_increasing_rejected(self):
        with pytest.raises(InvalidMonomialError):
            is_t_spread((3, 3), Context(6, 1))


class TestSlexOrder:
    """Within one degree, slex-greater is tuple-smaller (``helpers.slex_greater``
    is the paper's definition), so the library sorts and compares tuples."""

    def test_smaller_first_index_wins(self):
        assert slex_greater((1, 4), (2, 3)) and (1, 4) < (2, 3)

    def test_reflexive(self):
        u = (2, 5, 9)
        assert not slex_greater(u, u) and not u < u

    def test_greatest_spread_monomial(self):
        # x1 x_{1+t} ... x_{1+(d-1)t} beats every other member of M_{n,d,t}
        ctx = Context(11, 3)
        top = (1, 4, 7)
        for v in spread_monomials(ctx, 3):
            assert top <= v

    @pytest.mark.parametrize("n,t,d", [(7, 2, 3), (9, 2, 2), (8, 1, 3)])
    def test_total_order_axioms(self, n, t, d):
        # equal to the tuple order, so a strict total order
        mons = spread_monomials(Context(n, t), d)
        for u in mons:
            for v in mons:
                assert slex_greater(u, v) == (u < v)

    def test_slex_sorted_descending(self):
        mons = [(2, 4), (1, 5), (1, 3), (3, 5)]
        ordered = slex_sorted(mons)
        assert ordered == [(1, 3), (1, 5), (2, 4), (3, 5)]
        for u, v in zip(ordered, ordered[1:]):
            assert slex_greater(u, v)


class TestEnumeration:
    def test_size_9_4_2(self):
        assert len(spread_monomials(Context(9, 2), 4)) == 15
        assert spread_count(9, 4, 2) == comb(6, 4)

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidMonomialError):
            spread_count(9, -1, 2)
        with pytest.raises(InvalidMonomialError):
            spread_monomials(Context(9, 2), -1)

    def test_empty_when_n_too_small(self):
        # n = d + 3t with 3 <= d <= t leaves no room in degree 5
        for t in (3, 4, 5):
            for d in range(3, t + 1):
                assert spread_monomials(Context(d + 3 * t, t), 5) == []

    def test_derived_singleton(self):
        # brute force over all 2-subsets of {1..4}
        assert brute_force_spread(4, 2, 3) == [(1, 4)]
        assert spread_monomials(Context(4, 3), 2) == [(1, 4)]

    def test_matches_brute_force_and_count(self):
        for t in range(1, 6):
            for d in range(1, 7):
                for n in range(1, 15):
                    got = spread_monomials(Context(n, t), d)
                    assert got == slex_sorted(brute_force_spread(n, d, t))
                    assert len(got) == spread_count(n, d, t)

    def test_nonempty_iff_and_maximum(self):
        for t in range(1, 5):
            for d in range(1, 6):
                for n in range(1, 14):
                    mons = spread_monomials(Context(n, t), d)
                    if n >= (d - 1) * t + 1:
                        assert mons
                        assert mons[0] == tuple(1 + i * t for i in range(d))
                    else:
                        assert not mons

    def test_max_spread_degree_is_the_top_nonempty_degree(self):
        for t in range(1, 9):
            for n in range(1, 41):
                top = max_spread_degree(n, t)
                assert spread_count(n, top, t) > 0
                assert spread_count(n, top + 1, t) == 0
                assert spread_monomials(Context(n, t), top + 1) == []

    def test_degree_far_past_the_recursion_limit(self):
        # degree 1050 is deeper than the default recursion limit
        ctx = Context(2100, 2)
        got = spread_monomials(ctx, 1050)
        assert len(got) == spread_count(2100, 1050, 2) == 1051
        assert got == sorted(set(got))
        assert all(len(u) == 1050 and is_t_spread(u, ctx) for u in got)
        assert got[0] == tuple(range(1, 2100, 2))
        assert got[-1] == tuple(range(2, 2101, 2))

    def test_all_members_squarefree(self):
        for u in spread_monomials(Context(10, 1), 4):
            assert len(set(u)) == len(u)


class TestIndicesAndSupport:
    def test_max_min(self):
        assert min_index((2, 5, 14)) == 2

    def test_unit(self):
        assert min_index(()) == 0
        assert support(()) == set()

    def test_singleton(self):
        assert min_index((7,)) == 7
        assert support((2, 5, 9)) == {2, 5, 9}


class TestTextSyntax:
    @pytest.mark.parametrize("u,text", [
        ((2, 5, 14), "x2*x5*x14"),
        ((1, 4), "x1*x4"),
        ((), "1"),
        ((7,), "x7"),
    ])
    def test_round_trip(self, u, text):
        assert format_monomial(u) == text
        assert parse_monomial(text) == u

    def test_whitespace_insensitive(self):
        assert parse_monomial(" x2 * x5*x14 ") == (2, 5, 14)

    @pytest.mark.parametrize("bad", ["x2*x2", "x5*x2", "y3", "x", "", "x0*x3"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(InvalidMonomialError):
            parse_monomial(bad)


@given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_enumeration_is_strictly_descending(n, d, t):
    mons = spread_monomials(Context(n, t), d)
    for u, v in zip(mons, mons[1:]):
        assert u < v
