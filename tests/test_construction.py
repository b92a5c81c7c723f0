"""The maximal-corner construction: decomposition, witness monomials, checks."""

import pytest

from tspread import (
    ConstructionInapplicableError,
    Context,
    CornerSequence,
    InvalidMonomialError,
    InvariantViolationError,
    NotTSpreadError,
    SpreadIdeal,
    borel_ideal,
    build_omegas,
    construct_extremal_ideal,
    corners_via_characterization,
    decompose,
    j_max,
    max_corners,
    nu_max,
    omega_claim_check,
    spread_monomials,
)
from tspread import construction
from tspread.construction import s_value

from helpers import (OMEGAS_46_3, TABLE_T2, TABLE_T3, bfs_borel_ideal, bfs_closure,
                     contains, slex_successor_with_max_n, table_cells)


class TestDecompose:
    @pytest.mark.parametrize("n,t,d,k", [
        (46, 3, 1, 15),
        (32, 5, 2, 6),
        (14, 3, 2, 4),
        (138, 11, 6, 12),
        (6, 3, 3, 1),
        (3, 3, 3, 0),
    ])
    def test_examples(self, n, t, d, k):
        dec = decompose(n, t)
        assert (dec.d, dec.k) == (d, k)
        assert n == dec.d + dec.k * t and 1 <= dec.d <= t

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            decompose(10, 0)

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            decompose(0, 2)

    def test_unique_over_range(self):
        for t in range(1, 7):
            for n in range(1, 80):
                dec = decompose(n, t)
                assert n == dec.d + dec.k * t and 1 <= dec.d <= t


class TestSlexSuccessor:
    def test_successor_of_x1x11x14(self):
        assert slex_successor_with_max_n((1, 11, 14), Context(14, 3)) == (2, 5, 14)

    def test_smallest_monomial_has_no_successor(self):
        # all gaps exactly t
        assert slex_successor_with_max_n((8, 11, 14), Context(14, 3)) is None
        assert slex_successor_with_max_n((14,), Context(14, 3)) is None

    def test_against_enumeration(self):
        # the successor is the largest max-n monomial strictly below u
        for n, t, d in [(9, 2, 4), (11, 3, 3), (12, 2, 3), (10, 1, 4)]:
            ctx = Context(n, t)
            with_max_n = [u for u in spread_monomials(ctx, d) if u[-1] == n]
            for pos, u in enumerate(with_max_n):
                got = slex_successor_with_max_n(u, ctx)
                want = with_max_n[pos + 1] if pos + 1 < len(with_max_n) else None
                assert got == want

    def test_requires_max_n(self):
        with pytest.raises(InvalidMonomialError):
            slex_successor_with_max_n((1, 9), Context(14, 3))

    def test_requires_spread(self):
        with pytest.raises(NotTSpreadError):
            slex_successor_with_max_n((1, 2, 14), Context(14, 3))


class TestScalars:
    def test_j_max(self):
        assert j_max(46, 3, 2) == 10
        assert j_max(32, 5, 2) == 4
        assert j_max(138, 11, 5) == 7

    def test_s_value(self):
        assert s_value(46, 3, 2) == 1
        assert s_value(32, 5, 2) == 3
        assert s_value(138, 11, 5) == 2

    def test_nu_max(self):
        assert nu_max(46, 3, 2) == 2
        assert nu_max(32, 5, 2) == -1
        assert nu_max(138, 11, 5) == 0

    @pytest.mark.parametrize("n,t,match", [
        (10, 0, "spread t must be positive"),
        (10, -1, "spread t must be positive"),
        (0, 2, "n must be >= 1"),
    ])
    def test_refuse_outside_the_domain(self, n, t, match):
        # decompose's check: j_max(10, 0) was 9 and j_max(10, -1) divided by 0
        for scalar in (j_max, s_value, nu_max):
            with pytest.raises(ValueError, match=match):
                scalar(n, t)


class TestMaxCorners:
    @pytest.mark.parametrize("n,t,ell1,want", [
        (9, 2, 2, 3),
        (14, 3, 2, 3),
        (20, 3, 7, 1),
        (46, 3, 2, 14),
        (32, 5, 2, 5),
        (138, 11, 5, 9),
    ])
    def test_examples(self, n, t, ell1, want):
        assert max_corners(n, t, ell1) == want

    def test_against_both_printed_tables(self):
        for table, t in ((TABLE_T2, 2), (TABLE_T3, 3)):
            for n, t_, ell1, want in table_cells(table, t_ := t):
                assert max_corners(n, t_, ell1) == want, (n, t_, ell1)

    def test_none_when_no_degree_two_monomial(self):
        assert max_corners(3, 3, 2) is None

    def test_monotone_in_n(self):
        for t in (2, 3, 4, 5):
            for ell1 in (2, 3, 4):
                values = [max_corners(n, t, ell1) for n in range(4, 60)]
                present = [v for v in values if v is not None]
                assert all(a <= b for a, b in zip(present, present[1:]))
                # from k >= 3 on, the value increases by one every t steps of n
                stable = [max_corners(n, t, ell1) for n in range(1 + 3 * t, 60)]
                for a, b in zip(stable, stable[t:]):
                    if a is not None:
                        assert b == a + 1


class TestBuildOmegas:
    def test_46_3_2_verbatim(self):
        rep = build_omegas(46, 3, 2)
        assert list(rep.omegas) == OMEGAS_46_3
        assert (rep.j_max, rep.s, rep.nu_max) == (10, 1, 2)
        assert rep.total == 14
        assert rep.critic_index == 11

    def test_32_5_2_no_critic(self):
        rep = build_omegas(32, 5, 2)
        assert (rep.j_max, rep.s, rep.nu_max) == (4, 3, -1)
        assert rep.critic_index is None
        assert rep.total == 5
        assert rep.omegas[-1] == (2, 8, 14, 20, 25, 32)

    def test_138_11_5_general_degree(self):
        rep = build_omegas(138, 11, 5)
        assert (rep.j_max, rep.s, rep.nu_max) == (7, 2, 0)
        assert rep.total == 9
        assert rep.omegas[0] == (1, 12, 23, 34, 138)
        assert rep.omegas[1] == (1, 12, 23, 35, 46, 138)
        assert rep.omegas[7] == (1, 12, 23, 35, 47, 59, 71, 83, 95, 107, 118, 138)
        assert rep.omegas[8] == (1, 12, 23, 35, 47, 59, 72, 83, 94, 105, 116, 127, 138)

    def test_14_3_2(self):
        rep = build_omegas(14, 3, 2)
        assert list(rep.omegas) == [(1, 14), (2, 5, 14), (2, 6, 9, 14)]
        assert (rep.j_max, rep.nu_max) == (2, -1)

    def test_small_k_regimes(self):
        # k = 1: the starter only
        rep = build_omegas(7, 3, 2)
        assert list(rep.omegas) == [(1, 7)] and rep.regime == "small-k"
        # k = 2, d = 1: still just the starter
        assert list(build_omegas(5, 2, 2).omegas) == [(1, 5)]
        # k = 2, d >= 2: one forward monomial x2 x_{2+t} x_n
        assert list(build_omegas(6, 2, 2).omegas) == [(1, 6), (2, 4, 6)]
        assert list(build_omegas(8, 3, 2).omegas) == [(1, 8), (2, 5, 8)]

    def test_k3_enumerated_subcases_degree_two(self):
        # k = 3 forward lists: x2 x_{2+t} x_n, then x2 x_{3+t} x_{3+2t} x_n
        for t, d in [(2, 1), (2, 2), (3, 3), (5, 4)]:
            n = d + 3 * t
            rep = build_omegas(n, t, 2)
            assert rep.omegas[0] == (1, n)
            if rep.total >= 2:
                assert rep.omegas[1] == (2, 2 + t, n)
            if rep.total >= 3:
                assert rep.omegas[2] == (2, 3 + t, 3 + 2 * t, n)
            assert rep.total == (2 if d <= 2 else 3)

    def test_k3_enumerated_subcases_higher_degree(self):
        # ell1 = 3: starter x1 x_{1+t} x_n, then x1 x_{2+t} x_{2+2t} x_n
        for t, d in [(3, 2), (4, 3), (5, 5)]:
            n = d + 3 * t
            rep = build_omegas(n, t, 3)
            assert rep.omegas[0] == (1, 1 + t, n)
            assert rep.total == 2
            assert rep.omegas[1] == (1, 2 + t, 2 + 2 * t, n)
        # d = 1 admits only the starter
        for t in (2, 3, 4):
            rep = build_omegas(1 + 3 * t, t, 3)
            assert list(rep.omegas) == [(1, 1 + t, 1 + 3 * t)]
        # ell1 = 4 with d >= 2: only the starter
        for t, d in [(2, 2), (5, 3)]:
            n = d + 3 * t
            rep = build_omegas(n, t, 4)
            assert list(rep.omegas) == [(1, 1 + t, 1 + 2 * t, n)]

    def test_total_always_matches_max_corners(self):
        for t in (2, 3, 4, 5, 6):
            for n in range(t + 1, 70):
                for ell1 in range(2, 9):
                    want = max_corners(n, t, ell1)
                    if want is None:
                        with pytest.raises(ConstructionInapplicableError):
                            build_omegas(n, t, ell1)
                    else:
                        rep = build_omegas(n, t, ell1)
                        assert rep.total == len(rep.omegas) == want

    def test_count_identity(self):
        # with a critic: 1 + j_max + (1 + nu_max); without: j_max + 1
        for t in (2, 3, 5):
            for n in range(t + 1, 60):
                rep = build_omegas(n, t, 2)
                if rep.critic_index is not None:
                    assert rep.nu_max >= 0
                    assert rep.total == 2 + rep.j_max + rep.nu_max
                else:
                    assert rep.nu_max < 0
                    assert rep.total == rep.j_max + 1

    def test_inapplicable_names_the_condition(self):
        with pytest.raises(ConstructionInapplicableError) as err:
            build_omegas(3, 3, 2)
        assert "degree 2" in str(err.value)
        with pytest.raises(ConstructionInapplicableError) as err:
            build_omegas(14, 3, 7)  # no 3-spread monomial of degree 7 at all
        assert "degree 7" in str(err.value)
        with pytest.raises(ConstructionInapplicableError) as err:
            build_omegas(5, 2, 3)  # x1x3x5 exists, but ell1=3 is out of range
        assert "exceeds" in str(err.value)
        with pytest.raises(ConstructionInapplicableError, match="t=1"):
            build_omegas(14, 1, 2)
        # the closed forms themselves refuse outside t >= 2, l1 >= 2
        with pytest.raises(ConstructionInapplicableError, match="t=1"):
            max_corners(6, 1, 2)
        with pytest.raises(ConstructionInapplicableError, match="initial degree 1"):
            max_corners(6, 2, 1)


class TestConstructExtremalIdeal:
    def test_matches_borel_ideal_at_desk_scale(self):
        # the BFS oracle materializes every closure, and closures grow
        # exponentially with degree, so the n=46 example is out of its reach;
        # these cover every regime (forward-only, critic+backward, small-k,
        # higher initial degree)
        for n, t, ell1 in [(14, 3, 2), (9, 2, 2), (13, 2, 2), (20, 3, 4),
                           (32, 5, 2), (11, 3, 3), (6, 2, 2), (18, 4, 3)]:
            ideal, rep = construct_extremal_ideal(n, t, ell1)
            ctx = Context(n, t)
            closures = [v for w in rep.omegas for v in bfs_closure(w, ctx)]
            assert ideal == SpreadIdeal.from_generators(ctx, closures)

    def test_fourteen_variable_corners(self):
        ideal, rep = construct_extremal_ideal(14, 3, 2)
        seq = corners_via_characterization(ideal)
        assert seq.corners == ((10, 2), (7, 3), (4, 4))
        assert seq.values == (1, 1, 1)

    def test_9_2_2(self):
        ideal, rep = construct_extremal_ideal(9, 2, 2)
        assert rep.predicted_corners.corners == ((6, 2), (4, 3), (2, 4))
        assert corners_via_characterization(ideal) == rep.predicted_corners

    def test_corner_count_is_max_corners(self):
        for n, t, ell1 in [(12, 2, 2), (17, 3, 3), (26, 4, 2), (23, 5, 3)]:
            ideal, rep = construct_extremal_ideal(n, t, ell1)
            assert len(rep.predicted_corners.corners) == max_corners(n, t, ell1)

    def test_corner_positions_satisfy_position_law(self):
        for n, t, ell1 in [(19, 2, 3), (25, 3, 2), (33, 4, 4)]:
            _, rep = construct_extremal_ideal(n, t, ell1)
            for k, l in rep.predicted_corners.corners:
                assert k + t * (l - 1) + 1 == n

    @pytest.mark.parametrize("n,t,ell1", [(300, 2, 2), (400, 3, 3), (500, 4, 2),
                                          (2100, 2, 1000)])
    def test_large_closures_are_one_run_per_degree(self, n, t, ell1):
        # degree l1 + j holds exactly the run omega_j[:-1] + (v,) with
        # omega_j[-2] + t <= v <= n: the search at depths beyond the BFS oracle
        rep = build_omegas(n, t, ell1)
        want = {len(w): tuple(w[:-1] + (v,) for v in range(w[-2] + t, n + 1))
                for w in rep.omegas}
        assert borel_ideal(rep.omegas, rep.ctx).gens == want


class TestSelfChecks:
    """A construction that breaks one of its own invariants raises
    InvariantViolationError, which names the invariant."""

    def test_malformed_witness(self, monkeypatch):
        monkeypatch.setattr(construction, "is_t_spread", lambda u, ctx: False)
        with pytest.raises(InvariantViolationError,
                           match=r"malformed witness monomial #0 for \(n=14, t=3, ell1=2\)"):
            build_omegas(14, 3, 2)

    def test_wrong_count(self, monkeypatch):
        count = construction.max_corners
        monkeypatch.setattr(construction, "max_corners",
                            lambda n, t, ell1: count(n, t, ell1) + 1)
        with pytest.raises(InvariantViolationError,
                           match=r"built 3 monomials for \(n=14, t=3, ell1=2\), expected 4"):
            build_omegas(14, 3, 2)

    def test_corners_off_the_prediction(self, monkeypatch):
        monkeypatch.setattr(construction, "corners_from_peaks",
                            lambda t, peaks: CornerSequence((), ()))
        with pytest.raises(InvariantViolationError,
                           match=r"corner verification failed for \(n=14, t=3, ell1=2\)"):
            construct_extremal_ideal(14, 3, 2)


class TestOmegaClaimCheck:
    def test_showcase_triples(self):
        for n, t, ell1 in [(46, 3, 2), (32, 5, 2), (9, 2, 2), (138, 11, 5)]:
            rep = build_omegas(n, t, ell1)
            assert omega_claim_check(rep.omegas, Context(n, t), ell1)

    def test_omega2_for_9_2_2(self):
        # the only degree-4 monomial with max 9 avoiding both shadows
        from tspread.construction import _max_excluded
        from tspread.ideals import _trie_add

        rep = build_omegas(9, 2, 2)
        earlier: dict = {}
        _trie_add(earlier, rep.omegas[:2])
        assert _max_excluded(9, 2, 4, earlier) == (2, 5, 7, 9)

    def test_max_excluded_matches_brute_force(self):
        # every witness list with n <= 12, t = 2..3, l1 = 2..3, and one
        # degree past it, against a slex scan filtered by the BFS closure
        from tspread.construction import _max_excluded
        from tspread.ideals import _trie_add

        checked = 0
        for t in (2, 3):
            for ell1 in (2, 3):
                for n in range(1, 13):
                    if max_corners(n, t, ell1) is None:
                        continue
                    ctx = Context(n, t)
                    omegas = build_omegas(n, t, ell1).omegas
                    earlier: dict = {}
                    for j in range(1, len(omegas) + 1):
                        _trie_add(earlier, [omegas[j - 1]])
                        closure = bfs_borel_ideal(omegas[:j], ctx)
                        deg = ell1 + j
                        want = next((u for u in spread_monomials(ctx, deg)
                                     if u[-1] == n and not contains(closure, u)), None)
                        assert _max_excluded(n, t, deg, earlier) == want, (n, t, ell1, j)
                        checked += 1
        assert checked > 40, checked

    def test_no_monomial_below_degree_one(self):
        # omega_claim_check reaches degree l1 + j < 1 only at l1 < 1
        from tspread.construction import _max_excluded

        assert _max_excluded(5, 2, 0, {}) is None
        assert omega_claim_check((), Context(5, 2), 0) is True

    def test_perturbed_omegas_fail(self):
        rep = build_omegas(46, 3, 2)
        mutated = list(rep.omegas)
        w = list(mutated[5])
        w[3] -= 1
        mutated[5] = tuple(w)
        assert not omega_claim_check(mutated, Context(46, 3), 2)

    def test_truncated_list_fails_beyond_check(self):
        rep = build_omegas(14, 3, 2)
        assert not omega_claim_check(rep.omegas[:-1], Context(14, 3), 2)
