"""Mutation survey of the Tier-1 test suite.

Run from the root of a checkout:

    python3 tools/mutants.py

Each mutant is one textual change, (file, old text, new text), to the
library.  For each, the checkout is copied to a temporary directory, the
mutant is applied there, and the Tier-1 command runs on the copy with
``-x`` under ``TIMEOUT`` seconds.  Before the mutants, the unmutated copy
runs the same way, as the ``baseline`` line: if it does not pass, the
script prints that line, runs no mutant and exits with status 1, since
every kill would be void.
Each run's address space is capped at ``MEMORY`` bytes, so that a mutant
which makes a search grow without bound fails with MemoryError instead of
filling the machine; Tier-1 itself passes under half the cap.
One JSON line per run goes to stdout: its id, whether the mutant is marked
equivalent, the status (``killed``, ``survived`` or ``timeout``), the first
failing test, and the seconds taken.  An equivalent mutant cannot change
any result; it is listed so that the survey shows it survive, and a kill of
one is a finding.  A survivor that is not marked equivalent is a gap in the
tests.  This script is not part of Tier-1.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")
MEMORY = 2 << 30
TIMEOUT = 300  # seconds per Tier-1 run


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str  # relative to the root of the checkout
    old: str  # must occur exactly once in the file
    new: str
    equivalent: bool = False
    note: str = ""


ORACLE = "src/tspread/oracle.py"
IDEALS = "src/tspread/ideals.py"
BETTI = "src/tspread/betti.py"

MUTANTS = [
    # the step table of _pred_steps and the predecessor condition
    Mutant("steps-first-binomial", ORACLE,
           "comb(big - b + 1, d - p - 1)", "comb(big - b + 2, d - p - 1)"),
    Mutant("steps-second-binomial", ORACLE,
           "comb(big - b, d - p - 2)", "comb(big - b + 1, d - p - 2)"),
    Mutant("steps-second-term-range", ORACLE,
           "if p < d - 1 else 0)", "if p < d - 2 else 0)"),
    Mutant("steps-row-offset", ORACLE,
           "row[b + p * (t - 1)]", "row[b + p * t]"),
    Mutant("steps-subset-size", ORACLE,
           "big = n - (d - 1) * (t - 1)", "big = n - d * (t - 1)"),
    Mutant("steps-start-at-two", ORACLE,
           "for b in range(1, big + 1):", "for b in range(2, big + 1):",
           equivalent=True,
           note="no index 1 is lowered, and 1 is an entry only at position 0"),
    Mutant("preds-gap", ORACLE,
           "u[p] - u[p - 1] > t", "u[p] - u[p - 1] >= t"),
    # the max-corner search
    Mutant("search-corner-ge", ORACLE,
           "if k > b:\n                        b, r = k, r + 1",
           "if k >= b:\n                        b, r = k, r + 1"),
    Mutant("scan-clears-up-set", ORACLE,
           "free &= ~(up[p] & same[p])", "free &= ~up[p]"),
    Mutant("first-corner-k-ge-0", ORACLE,
           "(ell1 < 3 or k1 >= 1)", "(ell1 < 3 or k1 >= 0)"),
    Mutant("front-keeps-ties", ORACLE,
           "if front.get(b, -1) < r:", "if front.get(b, -1) <= r:",
           equivalent=True, note="a tie rewrites the same value"),
    Mutant("mask-bit-rate", ORACLE,
           "if bits > 64 * budget.max_states:", "if bits > 65 * budget.max_states:"),
    # check (b)'s per-link slots
    Mutant("link-undo-skips-one", ORACLE,
           "for slot in reversed(slots[same:]):", "for slot in reversed(slots[same + 1:]):"),
    Mutant("link-scan-starts-past-first", ORACLE,
           "same, common = 0, min(", "same, common = 1, min("),
    Mutant("link-scan-stops-short", ORACLE,
           "while same < common and", "while same < common - 1 and",
           equivalent=True,
           note="a link that is still the same is undone and read again alike"),
    # the stability gate and the generator tries
    Mutant("gate-gap", IDEALS,
           "if a - prev > t:", "if a - prev > t + 1:"),
    Mutant("gate-first-index", IDEALS,
           "prev = 1 - t", "prev = 2 - t"),
    Mutant("divisible-skips-an-index", IDEALS,
           "if child is not None:\n                    stack.append((child, p + 1))",
           "if child is not None:\n                    stack.append((child, p + 2))"),
    Mutant("last-end-never-set", IDEALS,
           "parent.get(_LAST_END, 0) < u[-1]", "parent.get(_LAST_END, 0) > u[-1]"),
    Mutant("mark-bound", IDEALS,
           "if mark >= lo:", "if mark > lo:"),
    # the closed forms
    Mutant("betti-corner-ge", BETTI,
           "k > corners[-1][0]", "k >= corners[-1][0]"),
    Mutant("table-corner-ge", BETTI,
           "len(row) - 1 > corners[-1][0]", "len(row) - 1 >= corners[-1][0]"),
    Mutant("table-zero-last-entry", BETTI,
           "row[-1] <= 0", "row[-1] < 0"),
    Mutant("run-merge-across-gap", BETTI,
           "runs[-1][1] == m - 1", "runs[-1][1] == m - 2"),
    Mutant("run-merge-never", BETTI,
           "runs[-1][1] == m - 1", "runs[-1][1] == m",
           equivalent=True,
           note="the keys are distinct, so no run grows, and one-key runs sum alike"),
    Mutant("corner-shift-off-by-one", BETTI,
           "return t * (l - 1) + 1 if l else 0", "return t * (l - 1) + 2 if l else 0"),
]


def first_failure(output: str) -> str | None:
    """The first test pytest's short summary names as failed or in error."""
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                return line[len(tag):].split(" - ")[0]
    return None


def run(mutant: Mutant | None) -> dict:
    """Tier-1 with ``-x`` on a copy of the checkout, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="tspread-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        start = time.monotonic()
        try:
            done = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT,
                                  preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            status, failed = "timeout", None
        else:
            failed = first_failure(done.stdout)
            status = "survived" if done.returncode == 0 else "killed"
        seconds = round(time.monotonic() - start, 1)
    return {"id": mutant.id if mutant else "baseline",
            "equivalent": bool(mutant and mutant.equivalent),
            "status": status, "first_failure": failed, "seconds": seconds}


def main() -> int:
    for m in MUTANTS:  # a mutant whose text moved would silently test nothing
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            print(f"mutants: {m.id}: old text occurs {count} times in {m.path}",
                  file=sys.stderr)
            return 2
    baseline = run(None)
    print(json.dumps(baseline), flush=True)
    if baseline["status"] != "survived":
        return 1
    for mutant in MUTANTS:
        print(json.dumps(run(mutant)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
