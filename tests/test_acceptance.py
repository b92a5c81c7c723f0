"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import random
import time
from math import comb

import pytest

from tspread import (
    Context,
    SearchBudget,
    borel_ideal,
    brute_force_max_corners,
    build_omegas,
    construct_extremal_ideal,
    corners_from_table,
    corners_via_characterization,
    enumerate_strongly_stable_ideals,
    graded_betti,
    max_corners,
    omega_claim_check,
    regenerate_table,
    spread_count,
    spread_monomials,
)
from tspread.cli import main as cli_main
from tspread.monomials import max_spread_degree

from helpers import (
    GOLDEN_BETTI_ROWS,
    GOLDEN_CORNERS,
    OMEGAS_46_3,
    TABLE_T2,
    TABLE_T3,
    closure_equivalence_cases,
    ideal_json,
    slex_greater,
    table_cells,
)

GOLDEN_DIAGRAM = "\n".join([
    "     0   1    2    3    4    5    6    7   8   9  10",
    "2:  11  55  165  330  462  462  330  165  55  11   1",
    "3:   7  28   56   70   56   28    8    1   -   -   -",
    "4:   3   9   10    5    1    -    -    -   -   -   -",
])


class _Criterion:
    """Context manager printing one pass/fail line with the elapsed time."""

    def __init__(self, number, label, limit_seconds=None):
        self.number = number
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded {self.limit}s: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_golden_betti_diagram(capsys, tmp_path):
    """The 14-variable, 3-spread example ideal reproduces its printed diagram.

    The example's Borel generator list is entered through the construction
    (x2*x4*x14 and x2*x5*x7*x14, as sometimes quoted, are not 3-spread; the
    witness monomials x2*x5*x14 and x2*x6*x9*x14 generate the ideal whose
    diagram is printed).
    """
    with _Criterion(1, "golden Betti diagram for the 14-variable example",
                    limit_seconds=1.0):
        ideal, report = construct_extremal_ideal(14, 3, 2)
        assert ideal == borel_ideal([(1, 14), (2, 5, 14), (2, 6, 9, 14)],
                                    Context(14, 3))
        path = tmp_path / "example14.json"
        path.write_text(ideal_json(ideal))
        code = cli_main(["betti", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(GOLDEN_DIAGRAM + "\n")
        assert "corners: (10, 2), (7, 3), (4, 4)" in out
        assert "values: 1, 1, 1" in out
        table = graded_betti(ideal)
        assert table.rows == GOLDEN_BETTI_ROWS
        seq = corners_from_table(table)
        assert seq.corners == GOLDEN_CORNERS and seq.values == (1, 1, 1)


def test_criterion_2_golden_construction_46_3():
    with _Criterion(2, "construction for n=46, t=3 (critic and backward)",
                    limit_seconds=1.0):
        report = build_omegas(46, 3, 2)
        assert list(report.omegas) == OMEGAS_46_3
        assert report.total == 14
        assert (report.j_max, report.s, report.nu_max) == (10, 1, 2)
        assert report.critic_index == 11


def test_criterion_3_golden_non_critic_32_5():
    with _Criterion(3, "non-critic construction for n=32, t=5"):
        report = build_omegas(32, 5, 2)
        assert (report.j_max, report.s, report.nu_max) == (4, 3, -1)
        assert report.total == 5
        assert report.critic_index is None
        assert report.omegas[-1] == (2, 8, 14, 20, 25, 32)


def test_criterion_4_general_degree_138_11():
    with _Criterion(4, "general initial degree: n=138, t=11, ell1=5",
                    limit_seconds=1.0):
        report = build_omegas(138, 11, 5)
        assert (report.j_max, report.s, report.nu_max) == (7, 2, 0)
        assert report.total == 9
        assert report.omegas[7] == (1, 12, 23, 35, 47, 59, 71, 83, 95, 107,
                                    118, 138)
        assert report.omegas[8] == (1, 12, 23, 35, 47, 59, 72, 83, 94, 105,
                                    116, 127, 138)


def test_criterion_5_table_regeneration_by_formula():
    with _Criterion(5, "closed forms reproduce both printed tables",
                    limit_seconds=5.0):
        for table, t, ell_hi in ((TABLE_T2, 2, 10), (TABLE_T3, 3, 7)):
            cells = regenerate_table(t, (4, 20), (2, ell_hi))
            by_key = {(c.ell1, c.n): c.value for c in cells}
            for n, _, ell1, want in table_cells(table, t):
                assert by_key[(ell1, n)] == want, (t, n, ell1)
            assert len(by_key) == 17 * (ell_hi - 1)


def test_criterion_6_brute_force_corroboration():
    with _Criterion(6, "exhaustive enumeration reproduces the table cells",
                    limit_seconds=600.0):
        for table, t, n_hi in ((TABLE_T2, 2, 14), (TABLE_T3, 3, 17)):
            for n, _, ell1, want in table_cells(table, t):
                if n > n_hi:
                    continue
                cell = brute_force_max_corners(Context(n, t), ell1)
                assert not cell.partial, (n, t, ell1)
                assert cell.value == want, (n, t, ell1, cell.value, want)


def test_criterion_7_property_suite():
    with _Criterion(7, "property suite (order, counts, closures, corners, "
                       "claim, positions)"):
        # the paper's slex order is the reversed tuple order, a strict
        # total order (exhaustive on a >1000-pair family)
        mons = spread_monomials(Context(9, 2), 3)
        pairs = 0
        for u in mons:
            for v in mons:
                assert slex_greater(u, v) == (u < v)
                pairs += 1
        assert pairs >= 1000

        # cardinality identity against the binomial closed form
        for t in range(1, 6):
            for d in range(1, 7):
                for n in range(1, 15):
                    assert len(spread_monomials(Context(n, t), d)) == \
                        spread_count(n, d, t) == \
                        (comb(n - (d - 1) * (t - 1), d)
                         if n - (d - 1) * (t - 1) >= 0 else 0)

        # library closures equal the BFS and domination oracles
        # (n <= 12, t <= 3, d <= 4)
        cases, mismatches = closure_equivalence_cases(max_n=12, max_t=3, max_d=4)
        assert mismatches == 0 and cases >= 1000

        # the two corner methods agree on every enumerated ideal; the largest
        # cell, (9, 2, 2), holds 3,369 ideals, so a walk that yields far more
        # stops with BudgetExceededError and fails here instead of running on
        checked = 0
        walk_budget = SearchBudget(max_states=10_000)
        for t, n_hi in ((2, 9), (3, 11)):
            for n in range(t + 1, n_hi + 1):
                ctx = Context(n, t)
                for ell1 in range(2, max_spread_degree(n, t) + 1):
                    for ideal in enumerate_strongly_stable_ideals(ctx, ell1, walk_budget):
                        got_t = corners_from_table(graded_betti(ideal))
                        got_c = corners_via_characterization(ideal)
                        assert got_t == got_c, ideal
                        checked += 1
        assert checked == 9_219

        # the witness monomials satisfy their defining property, everywhere
        # the construction applies (n <= 60, t <= 6)
        claims = 0
        for t in range(2, 7):
            for n in range(t + 1, 61):
                ell1 = 2
                while max_corners(n, t, ell1) is not None:
                    report = build_omegas(n, t, ell1)
                    assert omega_claim_check(report.omegas, Context(n, t),
                                             ell1), (n, t, ell1)
                    claims += 1
                    ell1 += 1
        assert claims >= 1000

        # constructed corner positions satisfy k + t(l-1) + 1 = n
        for t in range(2, 7):
            for n in range(t + 1, 61):
                report = build_omegas(n, t, 2)
                for k, l in report.predicted_corners.corners:
                    assert k + t * (l - 1) + 1 == n


def test_criterion_8_self_verification_sweep():
    with _Criterion(8, "500-triple construction sweep, n <= 200",
                    limit_seconds=120.0):
        triples = []
        for t in range(2, 11):
            for n in range(t + 1, 201):
                ell1 = 2
                while max_corners(n, t, ell1) is not None:
                    triples.append((n, t, ell1))
                    ell1 += 1
        rng = random.Random(20260810)
        sample = rng.sample(triples, 500)
        for n, t, ell1 in sample:
            # construct_extremal_ideal raises InvariantViolationError when its
            # internal corner verification trips; it must never do so
            ideal, report = construct_extremal_ideal(n, t, ell1)
            assert report.total == max_corners(n, t, ell1)
