"""Pass-level, drift-normalised benchmark of the tspread command line.

Run from the root of a checkout:

    python3 bench/run.py --workload betti-diagram --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of operations, each one or two calls of
``tspread.cli.main(argv)`` in this process with stdout captured, the way a
user drives the CLI.  A run repeats whole passes over the list, always in
the same order, until ``--seconds`` have gone by, and checks every output
against ``checks``.  A fixed pure-Python reference loop is timed
right before and right after every operation, so that the machine's drift in
Python speed cancels out of ``pass_ref``.  ``--trace 1`` alternates untraced
and traced passes and reports per-layer figures from the traced ones (see
``tracing``).  The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 3
RSS_PASSES = 3  # peak memory is read after this many untraced passes

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402


def load_tspread():
    """Import tspread from this checkout's src/, or exit with status 2."""
    src = ROOT / "src"
    if not (src / "tspread" / "__init__.py").is_file():
        print(f"bench: no tspread sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import tspread.cli
    if Path(tspread.__file__).resolve().parent != src / "tspread":
        print(f"bench: imported tspread from {tspread.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return tspread.cli


class Op:
    """One operation: CLI calls run in order, the stdout of each call
    optionally saved to a file that a later call reads."""

    def __init__(self, name, steps, check, may_be_partial=False):
        self.name = name
        self.steps = steps  # [(argv, path to save stdout to, or None)]
        self.check = check  # outputs -> list of problems
        self.may_be_partial = may_be_partial

    def run(self, cli) -> list[tuple[int, str]]:
        outputs = []
        for argv, save in self.steps:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash fails this op, not the run
                    traceback.print_exc(file=sys.__stderr__)
                    rc = 1
            text = out.getvalue()
            outputs.append((rc, text))
            if rc != 0:
                break
            if save is not None:
                save.write_text(text, encoding="utf-8")
        return outputs


# -- workloads -------------------------------------------------------------

# construct then betti: ideals users bring to a Betti diagram
CONSTRUCT_BETTI = [(46, 3, 2), (46, 3, 3), (60, 4, 2)]
# betti --borel of multi-degree generator sets, t = 2
BOREL_SETS = [
    (16, "x1*x16,x2*x6*x16,x2*x7*x11*x16,x3*x7*x11*x14*x16"),
    (20, "x1*x20,x2*x6*x20,x2*x7*x11*x20,x3*x7*x11*x15*x20"),
]
# construct alone, 15k-25k generators
CONSTRUCT_ONLY = [(300, 2, 2), (400, 3, 3), (500, 4, 2)]
# table --brute-force-upto, one (t, n, l1) cell per op
TABLE_CELLS = [(2, 9, 2), (2, 10, 2), (2, 10, 3), (2, 11, 4), (2, 11, 3),
               (3, 12, 2), (3, 12, 3)]
# validate --n 4:9 --t 2:3 --l 2:3, one (n, t, l1) cell per op
VALIDATE_CELLS = [(n, t, l) for t in (2, 3) for n in range(4, 10) for l in (2, 3)]


def _json_check(fn):
    def check(outputs):
        try:
            return fn(outputs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]
    return check


def _construct_betti_op(n, t, l, work: Path) -> Op:
    path = work / f"ideal-{n}-{t}-{l}.json"
    argv = ["construct", "-n", str(n), "-t", str(t), "-l", str(l), "--format", "json"]

    @_json_check
    def check(outputs):
        built = json.loads(outputs[0][1])
        problems = checks.check_construction(built, n, t, l)
        gens = [tuple(u) for u in built["gens"]]
        return problems + checks.check_betti(json.loads(outputs[1][1]), gens, t)

    return Op(f"construct+betti {n},{t},{l}",
              [(argv, path), (["betti", str(path), "--format", "json"], None)], check)


def _borel_op(n, gens_text) -> Op:
    inputs = [tuple(int(f[1:]) for f in g.split("*")) for g in gens_text.split(",")]
    expected = []  # computed on the first check

    @_json_check
    def check(outputs):
        if not expected:
            expected.extend(checks.domination_generators(inputs, n, 2))
        return checks.check_betti(json.loads(outputs[0][1]), expected, 2)

    argv = ["betti", "--borel", "--gens", gens_text, "-n", str(n), "-t", "2",
            "--format", "json"]
    return Op(f"betti --borel n={n}", [(argv, None)], check)


def _construct_op(n, t, l) -> Op:
    @_json_check
    def check(outputs):
        return checks.check_construction(json.loads(outputs[0][1]), n, t, l)

    argv = ["construct", "-n", str(n), "-t", str(t), "-l", str(l), "--format", "json"]
    return Op(f"construct {n},{t},{l}", [(argv, None)], check)


def _table_op(t, n, l) -> Op:
    @_json_check
    def check(outputs):
        rc, out = outputs[0]
        cells = json.loads(out)
        if (rc == 4) != any(c["partial"] for c in cells):
            return [f"exit code {rc} does not match the partial flag"]
        return checks.check_table_cell(cells, n, t, l)

    argv = ["table", "-t", str(t), "--n", f"{n}:{n}", "--l", f"{l}:{l}",
            "--brute-force-upto", str(n), "--format", "json"]
    return Op(f"table t={t} n={n} l1={l}", [(argv, None)], check, may_be_partial=True)


def _validate_op(n, t, l) -> Op:
    @_json_check
    def check(outputs):
        return checks.check_validate(outputs[0][1].splitlines(), n, t, l)

    argv = ["validate", "--n", f"{n}:{n}", "--t", f"{t}:{t}", "--l", f"{l}:{l}"]
    return Op(f"validate n={n} t={t} l1={l}", [(argv, None)], check)


def build_ops(workload: str, work: Path) -> list[Op]:
    if workload == "betti-diagram":
        return ([_construct_betti_op(n, t, l, work) for n, t, l in CONSTRUCT_BETTI]
                + [_borel_op(n, g) for n, g in BOREL_SETS]
                + [_construct_op(n, t, l) for n, t, l in CONSTRUCT_ONLY])
    if workload == "oracle-table":
        return [_table_op(t, n, l) for t, n, l in TABLE_CELLS]
    if workload == "validate":
        return [_validate_op(n, t, l) for n, t, l in VALIDATE_CELLS]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("betti-diagram", "oracle-table", "validate")


# -- timing ----------------------------------------------------------------

def reference_loop() -> int:
    """Fixed tuple, set, dict and JSON work of the kinds the library and its
    CLI do (about 2.3 ms)."""
    rows = [[a, b, a * b] for a in range(1, 45) for b in range(a, 45)]
    seen = {tuple(r) for r in json.loads(json.dumps(rows))}
    table: dict = {}
    for u in sorted(seen):
        table[u[:2]] = table.get(u[1:], 0) + len(u)
    return len(table)


def time_reference(reps: int = 3) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return out


class Pass:
    """Times of one pass: per op, its wall time and its reference time."""

    def __init__(self):
        self.op_s: list[float] = []
        self.ref_s: list[float] = []

    @property
    def pass_s(self) -> float:
        return sum(self.op_s)

    @property
    def pass_ref(self) -> float:
        return sum(op / ref for op, ref in zip(self.op_s, self.ref_s))


class Run:
    def __init__(self, cli, ops: list[Op]):
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self) -> Pass:
        p = Pass()
        for op in self.ops:
            gc.collect()
            refs = time_reference()
            t0 = time.perf_counter()
            outputs = op.run(self.cli)
            elapsed = time.perf_counter() - t0
            refs += time_reference()
            p.op_s.append(elapsed)
            p.ref_s.append(statistics.median(refs))
            self.attempted += 1
            rcs = [rc for rc, _ in outputs]
            failed = any(rcs)
            self.failed += failed
            if failed and not (op.may_be_partial and rcs == [4]):
                continue  # a failed op has no output to check
            for problem in op.check(outputs):
                self.problems.append(f"{op.name}: {problem}")
        return p


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter through importing tspread
    and building the workload's inputs."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # used by setup_probe
    args = parser.parse_args(argv)

    os.environ.pop("TSPREAD_BUDGET_SECONDS", None)  # budgets stay deterministic
    cli = load_tspread()
    work = OUT / "work"
    ops = build_ops(args.workload, work)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    work.mkdir(parents=True, exist_ok=True)
    # a few probes now and one after every pass, so that the median spans
    # the same stretch of machine drift as the passes do
    setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    run = Run(cli, ops)
    plain: list[Pass] = []
    traced: list[Pass] = []
    layer_passes: list[dict] = []
    peak_rss = []  # after each untraced pass
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            before = tracer.snapshot()
            tracer.install()
            try:
                traced.append(run.one_pass())
            finally:
                tracer.uninstall()
            after = tracer.snapshot()
            layer_passes.append({k: after[k] - before[k] for k in after})
        else:
            plain.append(run.one_pass())
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        setups.append(setup_probe(args.workload, args.seed))
        if time.perf_counter() - start >= args.seconds and len(traced) == (
                len(plain) if tracer is not None else 0):
            break

    for problem in run.problems[:10]:
        print(f"bench: wrong output: {problem}", file=sys.stderr)

    def med(values):
        return statistics.median(values)

    if tracer is None:
        metrics = {
            "pass_ref": (med([p.pass_ref for p in plain]), "ref"),
            "peak_rss_mb": (peak_rss[:RSS_PASSES][-1], "MiB"),
            "setup_s": (med(setups), "s"),
        }
    else:
        metrics = {k: (med([lp[k] for lp in layer_passes]),
                       "s" if k.endswith("_s") else "count")
                   for k in layer_passes[0]}
        # wall time of a pass: no bound can hold it on a drifting machine
        untraced_s = med([p.pass_s for p in plain])
        metrics["trace.pass_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (med([p.pass_s for p in traced]) - untraced_s, "s")
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
