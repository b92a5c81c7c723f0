"""Tests of the benchmark itself: every output check rejects a corrupted
output, the tracer restores what it wraps, and a short run finishes.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing

RUN_PY = Path(run.__file__).resolve()
CLI = run.load_tspread()


def cli_json(argv):
    op = run.Op("test", [(argv, None)], check=None)
    (rc, out), = op.run(CLI)
    return rc, out


@pytest.fixture(scope="module")
def construct_betti(tmp_path_factory):
    """Construction and Betti payloads of the witness ideal at (20, 3, 2)."""
    path = tmp_path_factory.mktemp("ideal") / "ideal.json"
    rc, built = cli_json(["construct", "-n", "20", "-t", "3", "-l", "2", "--format", "json"])
    assert rc == 0
    path.write_text(built)
    rc, betti = cli_json(["betti", str(path), "--format", "json"])
    assert rc == 0
    return json.loads(built), json.loads(betti)


def test_construction_check_accepts_and_rejects(construct_betti):
    built, _ = construct_betti
    assert checks.check_construction(built, 20, 3, 2) == []
    fewer = copy.deepcopy(built)
    fewer["gens"] = [u for u in fewer["gens"] if u[-1] != 20 or len(u) != 3]
    assert checks.check_construction(fewer, 20, 3, 2)
    inflated = copy.deepcopy(built)
    inflated["total"] += 1
    assert checks.check_construction(inflated, 20, 3, 2)
    assert checks.check_construction(built, 20, 3, 3)


@pytest.mark.parametrize("row, k", [("2", 0), ("3", 2), ("4", -1)])
def test_betti_check_rejects_an_entry_off_by_one(construct_betti, row, k):
    built, betti = construct_betti
    gens = [tuple(u) for u in built["gens"]]
    assert checks.check_betti(betti, gens, 3) == []
    bad = copy.deepcopy(betti)
    bad["betti"]["rows"][row][k] += 1
    assert checks.check_betti(bad, gens, 3)


def test_betti_check_rejects_wrong_corners(construct_betti):
    built, betti = construct_betti
    gens = [tuple(u) for u in built["gens"]]
    bad = copy.deepcopy(betti)
    bad["corners"]["values"][0] += 1
    assert checks.check_betti(bad, gens, 3)
    bad = copy.deepcopy(betti)
    bad["proj_dim"] += 1
    assert checks.check_betti(bad, gens, 3)


def test_stability_test():
    assert checks.stability_violation([(1, 3), (1, 4), (2, 4)], 2) is None
    assert checks.stability_violation([(1, 3), (2, 4)], 2) == ((2, 4), (1, 4))
    # the move x1 * x2x4 / x2 lands on a multiple of the generator x1
    assert checks.stability_violation([(1,), (2, 4)], 2) is None
    assert checks.stability_violation([(1,), (2, 5)], 2) == ((2, 5), (2, 4))


def test_borel_check_matches_domination_and_rejects_a_wrong_table():
    gens_text = "x1*x12,x2*x6*x12,x2*x7*x10*x12"
    rc, out = cli_json(["betti", "--borel", "--gens", gens_text, "-n", "12", "-t", "2",
                        "--format", "json"])
    assert rc == 0
    inputs = [(1, 12), (2, 6, 12), (2, 7, 10, 12)]
    gens = checks.domination_generators(inputs, 12, 2)
    from tspread import Context, borel_ideal
    assert gens == borel_ideal(inputs, Context(12, 2)).all_generators()
    payload = json.loads(out)
    assert checks.check_betti(payload, gens, 2) == []
    assert checks.check_betti(payload, gens[:-1], 2)


def test_table_check():
    rc, out = cli_json(["table", "-t", "2", "--n", "9:9", "--l", "2:2",
                        "--brute-force-upto", "9", "--format", "json"])
    assert rc == 0
    cells = json.loads(out)
    assert checks.check_table_cell(cells, 9, 2, 2) == []
    wrong = copy.deepcopy(cells)
    wrong[0]["value"] += 1
    assert checks.check_table_cell(wrong, 9, 2, 2)
    assert checks.check_table_cell(cells, 9, 2, 3)


def test_table_check_on_the_partial_cell():
    cell = {"t": 2, "n": 11, "ell1": 3, "value": 2, "provenance": "brute-force",
            "partial": True}
    assert checks.check_table_cell([cell], 11, 2, 3) == []
    assert checks.check_table_cell([dict(cell, partial=False)], 11, 2, 3)
    assert checks.check_table_cell([dict(cell, value=4)], 11, 2, 3)
    assert checks.check_table_cell([dict(cell, value=3, partial=False)], 11, 2, 3) == []


def test_validate_check():
    rc, out = cli_json(["validate", "--n", "7:7", "--t", "2:2", "--l", "2:2"])
    assert rc == 0
    lines = out.splitlines()
    assert checks.check_validate(lines, 7, 2, 2) == []
    records = [json.loads(line) for line in lines]
    for i, key, value in [(2, "ok", False), (1, "partial", True), (2, "brute", 1),
                          (1, "cases", 0), (0, "n", 8)]:
        bad = copy.deepcopy(records)
        bad[i][key] = value
        assert checks.check_validate([json.dumps(r) for r in bad], 7, 2, 2), (i, key)
    assert checks.check_validate(lines[:2], 7, 2, 2)


def test_theorem_agrees_with_the_tables():
    for t, table in checks.PAPER_TABLES.items():
        for ell1, row in table.items():
            for n, value in zip(range(4, 21), row):
                if n >= 1 + 3 * t:  # k >= 3
                    assert checks.theorem_max_corners(n, t, ell1) == value, (n, t, ell1)


def test_tracer_restores_the_modules():
    import tspread.betti
    import tspread.cli
    import tspread.ideals
    originals = (tspread.cli.main, tspread.betti.require_strongly_stable,
                 tspread.ideals.SpreadIdeal.__dict__["from_json"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tspread.betti.require_strongly_stable is not originals[1]
        rc, _ = cli_json(["validate", "--n", "6:6", "--t", "2:2", "--l", "2:2"])
        assert rc == 0
    finally:
        tracer.uninstall()
    assert (tspread.cli.main, tspread.betti.require_strongly_stable,
            tspread.ideals.SpreadIdeal.__dict__["from_json"]) == originals
    figures = tracer.snapshot()
    assert figures["ideals.gate_calls"] > 0 and figures["oracle.ideals"] > 0
    assert figures["oracle.cells"] == 1
    assert all(end >= start for _, start, end, _ in tracer.spans)


def _result(args, cwd):
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170)
    return done.returncode, done.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run(trace):
    root = RUN_PY.parent.parent
    rc, out = _result([str(RUN_PY), "--workload", "betti-diagram", "--seed", "5",
                       "--seconds", "1", "--trace", trace], root)
    assert rc == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % len(run.build_ops("betti-diagram", Path())) == 0
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_sources(tmp_path):
    root = RUN_PY.parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN_PY.parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, out = _result(["bench/run.py", "--workload", "validate", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], tmp_path)
    assert rc == 2 and out == ""
