"""Graded Betti numbers, diagrams, regularity, corners by two methods."""

import io
import json
from contextlib import redirect_stdout

import pytest

from tspread import (
    BettiTable,
    Context,
    construct_extremal_ideal,
    CornerSequence,
    NotStronglyStableError,
    SpreadIdeal,
    TSpreadError,
    borel_ideal,
    corners_from_table,
    corners_via_characterization,
    enumerate_strongly_stable_ideals,
    graded_betti,
    proj_dim,
    regularity,
    spread_monomials,
)
from tspread import cli
from tspread.cli import main
from helpers import (GOLDEN_BETTI_ROWS, GOLDEN_CORNERS, GOLDEN_CORNER_VALUES,
                     linear_quotient_betti, mult_binom)


@pytest.fixture(scope="module")
def golden_ideal():
    return borel_ideal([(1, 14), (2, 5, 14), (2, 6, 9, 14)], Context(14, 3))


class TestGradedBetti:
    def test_golden_rows(self, golden_ideal):
        assert graded_betti(golden_ideal).rows == GOLDEN_BETTI_ROWS

    def test_beta0_counts_generators(self, golden_ideal):
        table = graded_betti(golden_ideal)
        for l, gens in golden_ideal.gens.items():
            assert table.entries[(0, l)] == len(gens)

    def test_single_generator_row_against_independent_binomial(self):
        # one generator u at t=2: row l has binom(max(u) - 2l + 1, k)
        ctx = Context(12, 2)
        u = (2, 5, 12)
        I = borel_ideal([u], ctx)
        # principal closure: every closure member contributes its own binomial
        expected = {}
        for v in I.gens[3]:
            m = v[-1] - 2 * 3 + 1
            for k in range(m + 1):
                expected[k] = expected.get(k, 0) + mult_binom(m, k)
        got = graded_betti(I).rows[3]
        assert got == [expected[k] for k in range(len(got))]

    def test_formula_summed_per_generator(self):
        # the library sums runs of consecutive m in closed form; add
        # binom(m, k) once per generator instead, with an independent binomial
        ideals = [construct_extremal_ideal(n, t, ell1)[0]
                  for n, t, ell1 in ((46, 3, 2), (46, 3, 3), (60, 4, 2))]
        ideals.append(borel_ideal(
            [(1, 16), (2, 6, 16), (2, 7, 11, 16), (3, 7, 11, 14, 16)],
            Context(16, 2)))
        ideals.extend(enumerate_strongly_stable_ideals(Context(8, 2), 2))
        for ideal in ideals:
            t = ideal.ctx.spread_t
            expected = {}
            for l, gens in ideal.gens.items():
                for u in gens:
                    m = u[-1] - t * (l - 1) - 1
                    for k in range(m + 1):
                        expected[(k, l)] = expected.get((k, l), 0) + mult_binom(m, k)
            assert graded_betti(ideal).entries == expected

    @pytest.mark.parametrize("n,t,ell1", [(7, 2, 2), (8, 2, 2), (8, 2, 3), (9, 3, 2),
                                          (6, 1, 2), (6, 1, 3)])
    def test_linear_quotients_on_walked_ideals(self, n, t, ell1):
        # an independent route to the table: the colon ideals of the
        # generators, not the closed formula
        for ideal in enumerate_strongly_stable_ideals(Context(n, t), ell1):
            assert graded_betti(ideal).entries == linear_quotient_betti(ideal)

    @pytest.mark.parametrize("n,t,ell1", [(46, 3, 2), (60, 4, 2), (60, 2, 2)])
    def test_linear_quotients_on_constructed_ideals(self, n, t, ell1):
        ideal, _ = construct_extremal_ideal(n, t, ell1)
        assert graded_betti(ideal).entries == linear_quotient_betti(ideal)

    def test_linear_quotients_on_the_unit_and_golden_ideals(self, golden_ideal):
        unit = borel_ideal([()], Context(5, 2))
        assert linear_quotient_betti(unit) == graded_betti(unit).entries == {(0, 0): 1}
        assert linear_quotient_betti(golden_ideal) == graded_betti(golden_ideal).entries

    def test_linear_quotients_refuse_a_colon_ideal_without_linear_generators(self):
        # (x1*x4) : x2*x3 = (x1*x4), whose generator is no variable
        ideal = SpreadIdeal.from_generators(Context(4, 1), [(1, 4), (2, 3)])
        with pytest.raises(ValueError, match="x2\\*x3"):
            linear_quotient_betti(ideal)

    def test_rejects_unstable_ideal(self):
        I = SpreadIdeal.from_generators(Context(9, 2), [(2, 5)])
        with pytest.raises(NotStronglyStableError) as err:
            graded_betti(I)
        assert err.value.witness is not None

    def test_zero_ideal_empty_table(self):
        table = graded_betti(borel_ideal([], Context(5, 2)))
        assert table.is_empty

    @pytest.mark.parametrize("t", [2, 3])
    def test_unit_ideal_is_free_of_rank_one(self, t):
        unit = borel_ideal([()], Context(5, t))
        table = graded_betti(unit)
        assert table.entries == {(0, 0): 1}
        for seq in (corners_from_table(table), corners_via_characterization(unit)):
            assert seq.corners == ((0, 0),) and seq.values == (1,)

    def test_large_entry_exact(self):
        # arbitrary precision: the entry is sum_{m<=61} binom(m, 30), which the
        # hockey-stick identity turns into one independent big binomial
        ctx = Context(64, 2)
        I = borel_ideal([(1, 64)], ctx)
        table = graded_betti(I)
        assert table.entries[(30, 2)] == mult_binom(62, 31)

    def test_row_support_has_no_internal_zeros(self, golden_ideal):
        for row in graded_betti(golden_ideal).rows.values():
            assert all(row)


class TestCornersFromTable:
    def test_golden(self, golden_ideal):
        seq = corners_from_table(graded_betti(golden_ideal))
        assert seq.corners == GOLDEN_CORNERS
        assert seq.values == GOLDEN_CORNER_VALUES

    def test_single_entry_table(self):
        seq = corners_from_table(BettiTable({2: [0, 0, 0, 7]}))
        assert seq.corners == ((3, 2),)
        assert seq.values == (7,)

    def test_top_right_entry_always_a_corner(self):
        table = graded_betti(borel_ideal([(2, 4, 9), (1, 8)], Context(9, 2)))
        k_top = max(k for k, l in table.entries if l == max(j for _, j in table.entries))
        seq = corners_from_table(table)
        assert (k_top, max(j for _, j in table.entries)) in seq.corners

    def test_empty_table_empty_sequence(self):
        assert corners_from_table(BettiTable({})).corners == ()

    def test_sparse_table_with_gap(self):
        # definition-driven: works on tables with holes
        table = BettiTable({2: [1, 0, 0, 0, 0, 2], 4: [0, 3]})
        assert table.entries == {(0, 2): 1, (5, 2): 2, (1, 4): 3}
        seq = corners_from_table(table)
        assert seq.corners == ((5, 2), (1, 4))
        assert seq.values == (2, 3)


class TestCornersViaCharacterization:
    def test_golden_agreement(self, golden_ideal):
        assert corners_via_characterization(golden_ideal) == corners_from_table(
            graded_betti(golden_ideal)
        )

    def test_single_degree_single_corner(self):
        ctx = Context(9, 2)
        I = borel_ideal([(2, 5, 9)], ctx)
        seq = corners_via_characterization(I)
        assert seq.corners == ((9 - 2 * 2 - 1, 3),)

    def test_cross_method_on_random_closures(self):
        import random

        rng = random.Random(42)
        for _ in range(60):
            t = rng.choice([2, 3])
            n = rng.randint(t + 1, 12)
            ctx = Context(n, t)
            pool = [u for d in range(2, (n - 1) // t + 2)
                    for u in spread_monomials(ctx, d)]
            gens = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            I = borel_ideal(gens, ctx)
            assert corners_via_characterization(I) == corners_from_table(
                graded_betti(I)
            )

    def test_rejects_unstable(self):
        I = SpreadIdeal.from_generators(Context(9, 2), [(2, 5)])
        with pytest.raises(NotStronglyStableError):
            corners_via_characterization(I)

    def test_cross_method_at_scale(self):
        # B_2(x3*x7*x11*x15*x20): 1,701 generators through the stability gate
        I = borel_ideal([(3, 7, 11, 15, 20)], Context(20, 2))
        assert len(I.all_generators()) == 1701
        assert corners_via_characterization(I) == corners_from_table(graded_betti(I))


class TestRegularityProjDim:
    def test_golden(self, golden_ideal):
        table = graded_betti(golden_ideal)
        assert proj_dim(table) == 10
        assert regularity(table) == 4

    def test_single_entry(self):
        table = BettiTable({7: [0, 0, 0, 0, 2]})
        assert (proj_dim(table), regularity(table)) == (4, 7)

    def test_corner_extremes(self, golden_ideal):
        table = graded_betti(golden_ideal)
        seq = corners_from_table(table)
        assert seq.corners[0][0] == proj_dim(table)
        assert seq.corners[-1][1] == regularity(table)

    def test_empty_table_errors(self):
        with pytest.raises(TSpreadError):
            regularity(BettiTable({}))
        with pytest.raises(TSpreadError):
            proj_dim(BettiTable({}))

    @pytest.mark.parametrize("entries", [{2: [0]}, {2: [1, 0]}, {2: [1, -3, 2]}, {2: []}])
    def test_bad_entry_raises(self, entries):
        # a row is nonempty and ends at its last nonzero entry, and no entry
        # is negative; zeros inside a row are holes
        with pytest.raises(TSpreadError, match="bad Betti row of degree 2"):
            BettiTable(entries)

    def test_rows_out_of_order_raise(self):
        with pytest.raises(TSpreadError, match="ascending"):
            BettiTable({4: [1], 2: [1]})


class TestRendering:
    """The Betti diagram, which the command line lays out."""

    def test_golden_diagram(self, golden_ideal):
        expected = [
            "     0   1    2    3    4    5    6    7   8   9  10",
            "2:  11  55  165  330  462  462  330  165  55  11   1",
            "3:   7  28   56   70   56   28    8    1   -   -   -",
            "4:   3   9   10    5    1    -    -    -   -   -   -",
        ]
        assert cli._diagram_lines(graded_betti(golden_ideal)) == expected

    def test_empty_diagram(self):
        # the zero ideal's table is empty, so betti prints no diagram rows
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["betti", "--gens", "", "-n", "5", "-t", "2"])
        assert code == 0
        assert out.getvalue() == "corners: none\n"


class TestJson:
    """The Betti table and its corners as parts of the ``betti --format
    json`` document, which the command line writes."""

    @pytest.fixture(scope="class")
    def golden_document(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["betti", "--borel", "--gens", "x1*x14,x2*x5*x14,x2*x6*x9*x14",
                         "-n", "14", "-t", "3", "--format", "json"])
        assert code == 0
        return json.loads(out.getvalue())

    def test_betti_json(self, golden_document):
        assert golden_document["betti"] == {
            "rows": {str(l): row for l, row in GOLDEN_BETTI_ROWS.items()}}

    def test_corner_json(self, golden_document):
        assert golden_document["corners"] == {
            "corners": [[10, 2], [7, 3], [4, 4]],
            "values": [1, 1, 1],
        }
        assert golden_document["regularity"] == 4
        assert golden_document["proj_dim"] == 10


class TestCornerSequenceInvariants:
    def test_rejects_non_monotone(self):
        with pytest.raises(TSpreadError):
            CornerSequence(((3, 2), (5, 4)), (1, 1))

    def test_rejects_zero_value(self):
        with pytest.raises(TSpreadError):
            CornerSequence(((3, 2),), (0,))
