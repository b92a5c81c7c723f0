"""Command-line interface: output formats, exit codes, golden text."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tspread.cli
from tspread import SearchBudget, SpreadIdeal, construct_extremal_ideal, graded_betti, oracle
from tspread.cli import main

GOLDEN_DIAGRAM = "\n".join([
    "     0   1    2    3    4    5    6    7   8   9  10",
    "2:  11  55  165  330  462  462  330  165  55  11   1",
    "3:   7  28   56   70   56   28    8    1   -   -   -",
    "4:   3   9   10    5    1    -    -    -   -   -   -",
])


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestEnumerate:
    def test_count(self, capsys):
        code, out, _ = run_cli(["enumerate", "-n", "9", "-t", "2", "-d", "4",
                                "--count"], capsys)
        assert code == 0 and out == "15\n"

    def test_count_is_closed_form(self, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("--count must not enumerate")
        monkeypatch.setattr(tspread.cli, "spread_monomials", refuse)
        code, out, _ = run_cli(["enumerate", "-n", "60", "-t", "1", "-d", "30",
                                "--count"], capsys)
        assert code == 0 and out == "118264581564861424\n"

    def test_negative_degree_exits_3(self, capsys):
        for extra in ([], ["--count"]):
            code, _, err = run_cli(["enumerate", "-n", "9", "-t", "2", "-d", "-1"]
                                   + extra, capsys)
            assert code == 3 and "degree" in err

    def test_listing(self, capsys):
        code, out, _ = run_cli(["enumerate", "-n", "4", "-t", "3", "-d", "2"],
                               capsys)
        assert code == 0 and out == "x1*x4\n"

    def test_empty_is_success(self, capsys):
        code, out, _ = run_cli(["enumerate", "-n", "3", "-t", "3", "-d", "2"],
                               capsys)
        assert code == 0 and out == ""

    def test_json(self, capsys):
        code, out, _ = run_cli(["enumerate", "-n", "4", "-t", "3", "-d", "2",
                                "--format", "json"], capsys)
        assert code == 0 and json.loads(out) == [[1, 4]]

    def test_order_is_slex_descending(self, capsys):
        _, out, _ = run_cli(["enumerate", "-n", "6", "-t", "2", "-d", "2"],
                            capsys)
        assert out.splitlines()[:3] == ["x1*x3", "x1*x4", "x1*x5"]


class TestBetti:
    def test_golden_diagram_from_file(self, capsys, tmp_path):
        # the full minimal generating set of the 14-variable example
        gens = ([[1, b] for b in range(4, 15)]
                + [[2, 5, c] for c in range(8, 15)]
                + [[2, 6, 9, e] for e in range(12, 15)])
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n": 14, "t": 3, "gens": gens}))
        code, out, _ = run_cli(["betti", str(path)], capsys)
        assert code == 0
        assert out == "\n".join([
            GOLDEN_DIAGRAM, "",
            "corners: (10, 2), (7, 3), (4, 4)",
            "values: 1, 1, 1",
            "regularity: 4",
            "projective dimension: 10",
        ]) + "\n"

    @pytest.mark.parametrize("option", [["--gens", "x1*x2"], ["-n", "99"], ["-t", "7"]],
                             ids=lambda option: option[0])
    def test_ideal_file_with_option_exits_3(self, capsys, tmp_path, option):
        path = tmp_path / "ideal.json"
        path.write_text('{"n": 5, "t": 2, "gens": [[1, 3]]}')
        code, out, err = run_cli(["betti", str(path)] + option, capsys)
        assert code == 3 and out == ""
        assert option[0] in err

    def test_inline_borel_generators(self, capsys):
        # same ideal entered by its three Borel generators
        code, out, _ = run_cli(["betti", "--borel",
                                "--gens", "x1*x14,x2*x5*x14,x2*x6*x9*x14",
                                "-n", "14", "-t", "3"], capsys)
        assert code == 0
        assert out.startswith(GOLDEN_DIAGRAM + "\n")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["betti", "--gens", "x1*x4", "-n", "4", "-t", "3",
                                "--format", "json"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["betti"] == {"rows": {"2": [1]}}
        assert payload["corners"] == {"corners": [[0, 2]], "values": [1]}

    def test_zero_ideal(self, capsys):
        # the empty table has no diagram, regularity or projective dimension
        code, out, _ = run_cli(["betti", "--gens", "", "-n", "5", "-t", "2"],
                               capsys)
        assert code == 0
        assert out == "corners: none\n"

    def test_non_stable_exits_3_with_witness(self, capsys):
        code, _, err = run_cli(["betti", "--gens", "x2*x5", "-n", "9", "-t", "2"],
                               capsys)
        assert code == 3
        assert "x1*x5" in err  # the violating move is named

    @pytest.mark.parametrize("text, needle", [
        ('{"n": 5, "t": 2, "gens": [[1, 3.5]]}', "integer"),
        ('{"n": 5, "t": 2, "gens": [[1.0, 3]]}', "integer"),
        ('{"n": 5, "t": 2, "gens": [[true, 3]]}', "integer"),
        ('{"n": 5.0, "t": 2, "gens": [[1, 3]]}', "integer"),
        ('{"n": 5, "t": 2, "gens": ["x1*x3"]}', "integer"),
        ('{"n": 5, "gens": [[1, 3]]}', "key 't'"),
        ('{"t": 2, "gens": [[1, 3]]}', "key 'n'"),
        ('{"n": 5, "t": 2}', "key 'gens'"),
        ("not json", "malformed"),
        ("", "malformed"),
        ('{"n": 5, "t": 2, "gens": [1, 3]}', "malformed"),
        ('{"n": 5, "t": 2, "gens": null}', "malformed"),
        ("[5, 2]", "malformed"),
    ])
    def test_malformed_ideal_file_exits_3(self, tmp_path, capsys, text, needle):
        path = tmp_path / "ideal.json"
        path.write_text(text)
        code, out, err = run_cli(["betti", str(path)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_undecodable_ideal_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "ideal.json"
        path.write_bytes(b'\xff\xfe{"n"')
        code, out, err = run_cli(["betti", str(path)], capsys)
        assert code == 3 and out == "" and err.startswith("error: malformed")

    def test_deeply_nested_ideal_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "ideal.json"
        path.write_text("[" * 200_000)
        code, out, err = run_cli(["betti", str(path)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: malformed") and err.count("\n") == 1

    def test_zero_spread_exits_3(self, capsys):
        code, out, err = run_cli(["betti", "--gens", "x1*x2", "-n", "2", "-t", "0"],
                                 capsys)
        assert code == 3 and out == "" and "spread_t" in err

    def test_non_spread_input_exits_3(self, capsys):
        code, _, err = run_cli(["betti", "--gens", "x1*x2", "-n", "9", "-t", "2"],
                               capsys)
        assert code == 3 and "spread" in err

    def test_missing_input_exits_3(self, capsys):
        code, _, err = run_cli(["betti"], capsys)
        assert code == 3

    @pytest.mark.parametrize("given", [[], ["-n", "5"], ["-t", "2"]])
    def test_inline_generators_without_n_and_t_exit_3(self, capsys, given):
        code, out, err = run_cli(["betti", "--gens", "x1*x3"] + given, capsys)
        assert code == 3 and out == ""
        assert "--gens requires -n and -t" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(["betti", str(tmp_path / "absent.json")], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "absent.json" in err

    def test_unit_ideal(self, capsys):
        code, out, _ = run_cli(["betti", "--gens", "1", "-n", "5", "-t", "2",
                                "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == {"betti": {"rows": {"0": [1]}},
                                   "corners": {"corners": [[0, 0]], "values": [1]},
                                   "regularity": 0, "proj_dim": 0}


@pytest.fixture
def digit_cap():
    """Python's cap on int-to-str digits, lowered to its minimum for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str cap before Python 3.10.7")
class TestDigitCap:
    """Exact results longer than the int-to-str cap are written whole, the
    cap is restored after, and input is still held to it."""

    def test_count(self, capsys, digit_cap):
        code, out, err = run_cli(["enumerate", "-n", "2200", "-t", "1", "-d", "1100",
                                  "--count"], capsys)
        assert sys.get_int_max_str_digits() == digit_cap
        sys.set_int_max_str_digits(0)  # to read the 661-digit answer here
        assert (code, err) == (0, "") and out == f"{math.comb(2200, 1100)}\n"

    def test_betti_json(self, capsys, digit_cap):
        # B_1(x2200) has the generators x1, ..., x2200, so its one row is
        # beta_{k,k+1} = sum over i of binom(i - 1, k) = binom(2200, k + 1)
        code, out, err = run_cli(["betti", "--borel", "--gens", "x2200", "-n", "2200",
                                  "-t", "1", "--format", "json"], capsys)
        assert sys.get_int_max_str_digits() == digit_cap
        sys.set_int_max_str_digits(0)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["betti"]["rows"] == {"1": [math.comb(2200, k + 1) for k in range(2200)]}
        assert doc["corners"] == {"corners": [[2199, 1]], "values": [1]}

    def test_input_keeps_the_cap(self, capsys, digit_cap, tmp_path):
        big = "1" * (digit_cap + 1)
        with pytest.raises(SystemExit) as exc:  # argparse: invalid int value
            main(["enumerate", "-n", big, "-t", "1", "-d", "1", "--count"])
        assert exc.value.code == 2
        path = tmp_path / "ideal.json"
        path.write_text(f'{{"n": {big}, "t": 1, "gens": [[1]]}}')
        code, out, err = run_cli(["betti", str(path)], capsys)
        assert (code, out) == (3, "") and "malformed ideal JSON" in err
        assert sys.get_int_max_str_digits() == digit_cap


class TestConstruct:
    def test_14_3_2(self, capsys):
        code, out, _ = run_cli(["construct", "-n", "14", "-t", "3", "-l", "2"],
                               capsys)
        assert code == 0
        assert "j_max=2" in out and "nu_max=-1" in out
        assert "omega_0 = x1*x14" in out
        assert "omega_1 = x2*x5*x14" in out
        assert "omega_2 = x2*x6*x9*x14" in out
        assert "corners: (10, 2), (7, 3), (4, 4)" in out

    def test_46_3_2_count(self, capsys):
        code, out, _ = run_cli(["construct", "-n", "46", "-t", "3", "-l", "2",
                                "--format", "json"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert len(payload["omegas"]) == 14 and payload["j_max"] == 10
        assert payload["omegas"][11] == [2, 6, 10, 14, 18, 22, 26, 31, 34, 37,
                                         40, 43, 46]

    def test_small_k_note(self, capsys):
        code, out, _ = run_cli(["construct", "-n", "7", "-t", "3", "-l", "2"],
                               capsys)
        assert code == 0
        assert "small-k regime" in out
        assert out.count("omega_") == 1  # a single corner

    def test_inapplicable_exits_3(self, capsys):
        for args, needle in [(["-n", "3", "-t", "3", "-l", "2"], "no construction"),
                             (["-n", "9", "-t", "1"], "t=1"),
                             (["-n", "9", "-t", "2", "-l", "1"], "initial degree 1")]:
            code, out, err = run_cli(["construct"] + args, capsys)
            assert code == 3 and out == ""
            assert needle in err

    def test_degree_far_past_the_recursion_limit(self, capsys):
        # 1,051 degrees from 1,000 up, each closure search 1,000+ positions deep
        code, out, _ = run_cli(["construct", "-n", "2100", "-t", "2", "-l", "1000",
                                "--format", "json"], capsys)
        assert code == 0
        gens = json.loads(out)["gens"]
        assert len(gens[0]) == 1000 and len(gens[-1]) == 1050

    @pytest.mark.parametrize("n,t", [(46, 3), (300, 2)])
    def test_json_generators_written_as_arrays(self, capsys, n, t):
        code, out, _ = run_cli(["construct", "-n", str(n), "-t", str(t),
                                "--format", "json"], capsys)
        ideal, report = construct_extremal_ideal(n, t, 2)
        payload = json.loads(out)
        assert code == 0
        assert list(payload) == ["n", "t", "ell1", "d", "k", "j_max", "s", "nu_max",
                                 "omegas", "corners", "total", "regime",
                                 "critic_index", "gens"]
        assert payload["gens"] == [list(u) for u in ideal.all_generators()]
        assert payload["omegas"] == [list(u) for u in report.omegas]

    @pytest.mark.parametrize("n,t,l", [(7, 2, 2), (46, 3, 3), (300, 2, 2),
                                       (400, 3, 3), (500, 4, 2)])
    def test_json_text_is_the_json_module_text(self, capsys, n, t, l):
        # indices of one, two and three digits, written without json.dumps;
        # the last two hold the longest prefix runs
        code, out, _ = run_cli(["construct", "-n", str(n), "-t", str(t), "-l", str(l),
                                "--format", "json"], capsys)
        ideal, report = construct_extremal_ideal(n, t, l)
        payload = {
            "n": n, "t": t, "ell1": l, "d": report.decomp.d, "k": report.decomp.k,
            "j_max": report.j_max, "s": report.s, "nu_max": report.nu_max,
            "omegas": [list(u) for u in report.omegas],
            "corners": [list(c) for c in report.predicted_corners.corners],
            "total": report.total, "regime": report.regime,
            "critic_index": report.critic_index,
            "gens": [list(u) for u in ideal.all_generators()],
        }
        assert code == 0 and out == json.dumps(payload) + "\n"

    def test_betti_of_saved_construction(self, capsys, tmp_path):
        # 3,748 generators read back through the minimalization
        path = tmp_path / "ideal.json"
        code, out, _ = run_cli(["construct", "-n", "150", "-t", "2",
                                "--format", "json"], capsys)
        assert code == 0
        path.write_text(out)
        code, out, _ = run_cli(["betti", str(path), "--format", "json"], capsys)
        ideal, _ = construct_extremal_ideal(150, 2, 2)
        rows = graded_betti(ideal).rows
        assert code == 0
        assert json.loads(out)["betti"] == {"rows": {str(l): r for l, r in rows.items()}}

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_no_variables_exits_3(self, capsys, n):
        code, out, err = run_cli(["construct", "-n", n, "-t", "2"], capsys)
        assert code == 3 and out == ""
        assert f"no 2-spread monomial of degree 2 in {n} variables" in err


class TestTable:
    @pytest.mark.parametrize("n,upto,needle", [
        ("0:5", ["--brute-force-upto", "-1"], "got 0"),
        ("0:5", [], "got 0"),
        ("0:5", ["--brute-force-upto", "5"], "got 0"),
        ("-4:5", ["--brute-force-upto", "-10", "--format", "json"], "got -4"),
    ])
    def test_no_variables_exits_3_whichever_side_computes(self, capsys, n, upto, needle):
        # a formula cell alone would print a dash for n < 1
        code, out, err = run_cli(["table", "-t", "2", f"--n={n}", "--l", "2:2"] + upto,
                                 capsys)
        assert code == 3 and out == ""
        assert f"n_vars must be >= 1, {needle}" in err

    def test_markdown_layout(self, capsys):
        code, out, _ = run_cli(["table", "-t", "3", "--n", "4:12", "--l", "2:4"],
                               capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "| l1 \\ n | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | 12 |"
        assert lines[2] == "| 2 | 1 | 1 | 1 | 1 | 2 | 2 | 2 | 2 | 3 |"
        assert lines[3] == "| 3 | - | - | - | - | 1 | 1 | 1 | 2 | 2 |"
        for fmt in ("text", "markdown"):
            code, out, _ = run_cli(["table", "-t", "2", "--n", "4:6", "--l", "2:3",
                                    "--format", fmt], capsys)
            assert code == 0
            assert out == ("| l1 \\ n | 4 | 5 | 6 |\n|---|---|---|---|\n"
                           "| 2 | 1 | 1 | 2 |\n| 3 | - | - | 1 |\n")

    def test_csv_with_provenance_column(self, capsys):
        code, out, _ = run_cli(["table", "-t", "2", "--n", "4:6", "--l", "2:2",
                                "--format", "csv", "--brute-force-upto", "5"],
                               capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,n,ell1,value,provenance"
        assert lines[1] == "2,4,2,1,brute-force"
        assert lines[3] == "2,6,2,2,formula"
        code, out, _ = run_cli(["table", "-t", "2", "--n", "4:5", "--l", "2:3",
                                "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines() == ["t,n,ell1,value,provenance",
                                    "2,4,2,1,formula", "2,5,2,1,formula",
                                    "2,4,3,-,formula", "2,5,3,-,formula"]

    def test_partial_budget_exits_4(self, capsys):
        code, out, _ = run_cli(["table", "-t", "2", "--n", "9:9", "--l", "2:2",
                                "--brute-force-upto", "9", "--max-states", "10"],
                               capsys)
        assert code == 4

    @pytest.mark.parametrize("budget", [["--max-states", "1"], ["--budget-seconds", "0"]])
    def test_exhausted_budget_prints_the_partial_cell(self, capsys, budget):
        # the search turns exhaustion into the cell's partial flag
        code, out, err = run_cli(["table", "-t", "2", "--n", "9:9", "--l", "2:2",
                                  "--brute-force-upto", "9", "--format", "csv"]
                                 + budget, capsys)
        assert (code, err) == (4, "")
        assert out.splitlines()[1].endswith(",brute-force (partial)")

    def test_partial_cell_without_value_prints_question_mark(self, capsys):
        # 150 units settle n = 8, give n = 9 a lower bound and n = 10 no value
        code, out, _ = run_cli(["table", "-t", "2", "--n", "8:10", "--l", "2:2",
                                "--brute-force-upto", "10", "--max-states", "150"],
                               capsys)
        assert code == 4
        assert out.splitlines()[2] == "| 2 | 2 | 1+ | ? |"
        code, out, _ = run_cli(["table", "-t", "2", "--n", "8:10", "--l", "2:2",
                                "--brute-force-upto", "10", "--max-states", "150",
                                "--format", "csv"], capsys)
        assert code == 4
        assert out.splitlines()[1:] == ["2,8,2,2,brute-force",
                                        "2,9,2,1,brute-force (partial)",
                                        "2,10,2,-,brute-force (partial)"]

    def test_mask_bits_do_not_refuse_a_cell_the_search_settles(self, capsys):
        # the search settles the cell in 552 units, and the masks' 9,879 bits
        # fit in 64 * 1000, one unit per 64-bit word
        code, out, _ = run_cli(["table", "-t", "2", "--n", "10:10", "--l", "2:2",
                                "--brute-force-upto", "10", "--max-states", "1000"],
                               capsys)
        assert code == 0
        assert out.splitlines()[2] == "| 2 | 3 |"

    def test_brute_force_below_initial_degree_two_exits_3(self, capsys):
        # exhaustive cells, then formula cells alone
        for args, needle in [(["--n", "5:5", "--l", "0:1", "--brute-force-upto", "5"],
                              "initial degree 0"),
                             (["--n", "5:7", "--l", "1:2"], "initial degree 1")]:
            code, out, err = run_cli(["table", "-t", "2"] + args, capsys)
            assert code == 3 and out == ""
            assert needle in err

    @pytest.mark.parametrize("t", ["1", "0", "-3"])
    def test_formula_cells_below_spread_two_exit_3(self, capsys, t):
        code, out, err = run_cli(["table", "-t", t, "--n", "4:7", "--l", "2:3"],
                                 capsys)
        assert code == 3 and out == ""
        assert f"t={t}" in err

    def test_brute_force_cells_at_spread_one(self, capsys):
        code, out, _ = run_cli(["table", "-t", "1", "--n", "4:7", "--l", "2:3",
                                "--brute-force-upto", "7", "--format", "csv"],
                               capsys)
        assert code == 0
        assert [line.split(",")[3] for line in out.splitlines()[1:]] == [
            "2", "2", "3", "4", "1", "2", "3", "4"]

    def test_json_cells(self, capsys):
        code, out, _ = run_cli(["table", "-t", "2", "--n", "5:6", "--l", "2:3",
                                "--brute-force-upto", "5", "--format", "json"],
                               capsys)
        assert code == 0
        assert json.loads(out) == [
            {"t": 2, "n": 5, "ell1": 2, "value": 1, "provenance": "brute-force",
             "partial": False},
            {"t": 2, "n": 6, "ell1": 2, "value": 2, "provenance": "formula",
             "partial": False},
            {"t": 2, "n": 5, "ell1": 3, "value": None, "provenance": "brute-force",
             "partial": False},
            {"t": 2, "n": 6, "ell1": 3, "value": 1, "provenance": "formula",
             "partial": False},
        ]

    def test_bare_range_is_one_value(self, capsys):
        code, out, _ = run_cli(["table", "-t", "2", "--n", "6", "--l", "2"], capsys)
        assert code == 0
        assert out == "| l1 \\ n | 6 |\n|---|---|\n| 2 | 2 |\n"

    def test_bad_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "-t", "2", "--n", "9:x", "--l", "2:2"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("option,value,needle", [
        ("--max-states", "0", "max_states"), ("--max-states", "-5", "max_states"),
        ("--budget-seconds", "-1", "timeout"), ("--budget-seconds", "nan", "timeout"),
    ])
    def test_bad_budget_exits_2(self, capsys, option, value, needle):
        with pytest.raises(SystemExit) as exc:
            main(["table", "-t", "2", "--n", "9:9", "--l", "2:2",
                  "--brute-force-upto", "9", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert needle in err
        assert err.startswith("usage: tspread table")


class TestValidate:
    def test_clean_run_exits_0(self, capsys):
        code, out, _ = run_cli(["validate", "--n", "4:6", "--t", "2:2",
                                "--l", "2:2"], capsys)
        assert code == 0
        for line in out.splitlines():
            assert json.loads(line)["ok"]

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        search = oracle.brute_force_max_corners

        def overcounting(*args, **kwargs):
            cell = search(*args, **kwargs)
            cell.value += 1
            return cell

        monkeypatch.setattr(oracle, "brute_force_max_corners", overcounting)
        code, out, _ = run_cli(["validate", "--n", "6:6", "--t", "2:2",
                                "--l", "2:2"], capsys)
        assert code == 1
        cell = json.loads(out.splitlines()[-1])
        assert cell["check"] == "max-corners" and not cell["ok"]
        assert (cell["brute"], cell["formula"]) == (3, 2)

    def test_corner_methods_disagreement_exits_1(self, capsys, monkeypatch):
        # check (b) compares the table's corners with the characterization's,
        # folded from each link's peak
        monkeypatch.setattr(oracle, "corners_from_peaks", lambda t, peaks: None)
        code, out, _ = run_cli(["validate", "--n", "6:6", "--t", "2:2",
                                "--l", "2:2"], capsys)
        assert code == 1
        [bad] = [r for r in map(json.loads, out.splitlines()) if not r["ok"]]
        assert bad["check"] == "corner-methods"
        assert bad["detail"] == "table vs characterization"

    def test_unstable_ideal_after_a_stable_one_exits_3(self, capsys, monkeypatch):
        # the second ideal shares the first's degree-2 link and drops
        # x1*x4*x6 from its degree-3 link: a kept degree-3 link would still
        # hold it and pass x2*x4*x6
        def stream(ctx, ell1, budget=None):
            low = ((1, 3),)
            yield SpreadIdeal(ctx, {2: low, 3: ((1, 4, 6), (2, 4, 6))})
            yield SpreadIdeal(ctx, {2: low, 3: ((2, 4, 6),)})

        monkeypatch.setattr(oracle, "enumerate_strongly_stable_ideals", stream)
        code, out, err = run_cli(["validate", "--n", "6:6", "--t", "2:2",
                                  "--l", "2:2"], capsys)
        assert (code, out) == (3, "")
        assert err == ("error: not strongly stable: x1*(x2*x4*x6/x2) = x1*x4*x6 "
                       "lies outside the ideal\n")

    @pytest.mark.parametrize("value,want", [(3, 1), (2, 4), (1, 4)])
    def test_partial_search_is_a_lower_bound(self, capsys, monkeypatch, value, want):
        # a partial cell passes while its value stays at or below the
        # formula's 2, and the run then exits 4
        search = oracle.brute_force_max_corners
        monkeypatch.setattr(oracle, "brute_force_max_corners",
                            lambda *args: dataclasses.replace(
                                search(*args), value=value, partial=True))
        code, out, _ = run_cli(["validate", "--n", "6:6", "--t", "2:2",
                                "--l", "2:2"], capsys)
        assert code == want
        cell = json.loads(out.splitlines()[-1])
        assert cell["check"] == "max-corners" and cell["partial"]
        assert (cell["brute"], cell["formula"]) == (value, 2)
        assert cell["ok"] == (value <= 2)

    def test_partial_exits_4(self, capsys):
        # the walk stops at 3,000 of 3,369 ideals, after 87 closures
        # compared for 2,315 units
        code, out, _ = run_cli(["validate", "--n", "9:9", "--t", "2:2",
                                "--l", "2:2", "--max-states", "3000"], capsys)
        assert code == 4
        closure, walk, _ = [json.loads(line) for line in out.splitlines()]
        assert walk["partial"] and walk["cases"] == 3000
        assert not closure["partial"] and closure["cases"] == 87

    def test_removed_budget_routes(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--n", "9:9", "--t", "2:2", "--l", "2:2",
                  "--max-ideals", "5"])
        assert exc.value.code == 2
        capsys.readouterr()
        # --budget-seconds is the only route to the timeout
        monkeypatch.setenv("TSPREAD_BUDGET_SECONDS", "0")
        code, _, _ = run_cli(["validate", "--n", "6:6", "--t", "2:2",
                              "--l", "2:2"], capsys)
        assert code == 0

    def test_closure_check_timeout_exits_4(self, capsys):
        code, out, _ = run_cli(["validate", "--n", "9:9", "--t", "2:2",
                                "--l", "2:2", "--budget-seconds", "0"], capsys)
        assert code == 4
        closure = json.loads(out.splitlines()[0])
        assert closure["check"] == "closure-domination" and closure["partial"]

    def test_state_budget_exits_4(self, capsys):
        code, out, _ = run_cli(["validate", "--n", "9:9", "--t", "2:2",
                                "--l", "2:2", "--max-states", "10"], capsys)
        assert code == 4
        cell = [json.loads(line) for line in out.splitlines()][-1]
        assert cell["check"] == "max-corners" and cell["partial"]

    def test_one_unit_budget_leaves_every_check_partial(self, capsys):
        code, out, err = run_cli(["validate", "--n", "9:9", "--t", "2:2",
                                  "--l", "2:2", "--max-states", "1"], capsys)
        assert (code, err) == (4, "")
        assert [json.loads(line)["partial"] for line in out.splitlines()] == [True] * 3

    def test_initial_degree_below_two_exits_3(self, capsys):
        code, out, err = run_cli(["validate", "--n", "5:5", "--t", "2:2",
                                  "--l", "0:1"], capsys)
        assert code == 3 and out == ""
        assert "initial degree 0" in err

    def test_spread_below_two_exits_3(self, capsys):
        code, out, err = run_cli(["validate", "--n", "5:5", "--t", "1:1",
                                  "--l", "2:2"], capsys)
        assert code == 3 and out == ""
        assert "t=1" in err


@pytest.mark.parametrize("head,option,value,rest,needle", [
    (["table", "-t", "2"], "--n", "-3:1", ["--l", "2:3"], "got -3"),
    (["table", "-t", "2", "--n", "5:5"], "--l", "-1:3", [], "initial degree -1"),
    (["validate"], "--n", "-1:1", ["--t", "2", "--l", "2"], "got -1"),
    (["validate", "--n", "5:5"], "--t", "-1:2", ["--l", "2"], "t=-1"),
    (["validate", "--n", "5:5", "--t", "2"], "--l", "-1:2", [], "initial degree -1"),
])
@pytest.mark.parametrize("joined", [False, True])
def test_range_starting_with_a_minus_sign_exits_3(capsys, head, option, value, rest,
                                                  needle, joined):
    # "--n -3:1" is read as "--n=-3:1", not as a missing value
    given = [f"{option}={value}"] if joined else [option, value]
    code, out, err = run_cli(head + given + rest, capsys)
    assert code == 3 and out == ""
    assert needle in err


@pytest.mark.parametrize("head,option,rest", [
    (["table", "-t", "2"], "--n", ["--l", "2:2"]),
    (["validate", "--n", "5:5"], "--t", ["--l", "2:2"]),
])
@pytest.mark.parametrize("value,message", [
    ("5:3", "empty range '5:3'"),
    ("1:2:3", "bad range '1:2:3', expected integers a:b"),
    ("a:b", "bad range 'a:b', expected integers a:b"),
])
def test_malformed_range_exits_2_with_its_message(capsys, head, option, rest, value,
                                                   message):
    with pytest.raises(SystemExit) as exc:
        main(head + [option, value] + rest)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: {message}\n" in err
    assert "_parse_range" not in err


class TestArgumentErrors:
    def test_missing_required_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "-n", "9"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


def run_fresh_process(args):
    """Run ``python -m tspread`` in a child process, which imports the same
    tspread as this process, installed or not."""
    src = str(Path(tspread.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tspread", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


def test_console_entry_point():
    result = run_fresh_process(["enumerate", "-n", "9", "-t", "2", "-d", "4",
                                "--count"])
    assert result.returncode == 0
    assert result.stdout == "15\n"


class TestSharedParser:
    """Every ``main`` call of a process parses with one parser, and no call
    leaves anything behind in it for the next."""

    TABLE = ["table", "-t", "2", "--n", "9:9", "--l", "2:2", "--brute-force-upto", "9"]

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        tspread.cli.build_parser.cache_clear()
        yield
        tspread.cli.build_parser.cache_clear()

    def test_built_once_across_calls(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for args in (["enumerate", "-n", "9", "-t", "2", "-d", "4", "--count"],
                     self.TABLE, ["construct", "-n", "14", "-t", "3"]):
            assert run_cli(args, capsys)[0] == 0
        assert built.count("tspread") == 1
        assert len(built) == 6  # the top level and its five subcommands

    def test_valid_call_after_usage_error_prints_as_a_fresh_process(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.TABLE + ["--format", "csv", "--max-states", "0"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(self.TABLE, capsys)
        fresh = run_fresh_process(self.TABLE)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert out.startswith("| l1 \\ n | 9 |")  # markdown, not the csv asked before

    def test_repeated_bad_budget_prints_the_subcommand_usage(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(self.TABLE + ["--max-states", "0"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: tspread table")
            assert "max_states" in err

    def test_budget_defaults_after_a_call_that_set_it(self, capsys, monkeypatch):
        budgets = []

        def record(t, n_range, ell1_range, budget, brute_force_upto):
            budgets.append(budget)
            return []

        monkeypatch.setattr(tspread.cli, "regenerate_table", record)
        for extra in (["--max-states", "7", "--budget-seconds", "5"], [],
                      ["--max-states", "7"], []):
            assert run_cli(self.TABLE + extra, capsys)[0] == 0
        assert budgets == [SearchBudget(7, 5.0), SearchBudget(),
                           SearchBudget(7), SearchBudget()]
