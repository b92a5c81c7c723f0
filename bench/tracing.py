"""Per-layer tracing of tspread from outside the package.

``Tracer.install()`` replaces the public functions of each tspread module,
wherever a module holds a reference to them, with wrappers that record a
span (name, start, end, parent) and a few counts; ``uninstall()`` puts the
originals back.  Spans stay in memory until the run writes them out.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("cli", "monomials", "ideals", "betti", "construction", "oracle")


def _gen_count(ideal) -> int:
    return sum(len(g) for g in ideal.gens.values())


# Span name -> (module, attribute path, count name, count of the call's
# result or first argument).  Functions left out run inside their caller's
# self time: build_omegas inside construction, regenerate_table and the
# renderers inside cli.
TRACED = {
    "cli.main": ("cli", "main", None, None),
    "monomials.spread_monomials": ("monomials", "spread_monomials",
                                   "monomials.enumerated", lambda args, r: len(r)),
    "ideals.require_strongly_stable": ("ideals", "require_strongly_stable",
                                       "ideals.gate_gens", lambda args, r: _gen_count(args[0])),
    "ideals.borel_ideal": ("ideals", "borel_ideal", None, None),
    "ideals.borel_closure_degree": ("ideals", "borel_closure_degree",
                                    "ideals.closure_size", lambda args, r: len(r)),
    "ideals.SpreadIdeal.from_generators": ("ideals", "SpreadIdeal.from_generators", None, None),
    "ideals.SpreadIdeal.from_json": ("ideals", "SpreadIdeal.from_json", None, None),
    "construction.construct_extremal_ideal": ("construction", "construct_extremal_ideal",
                                              "construction.generators",
                                              lambda args, r: _gen_count(r[0])),
    "betti.graded_betti": ("betti", "graded_betti", "betti.entries",
                           lambda args, r: len(r.entries)),
    "betti.corners_from_table": ("betti", "corners_from_table", None, None),
    "betti.corners_via_characterization": ("betti", "corners_via_characterization", None, None),
    "oracle._layers": ("oracle", "_layers", None, None),
    "oracle.brute_force_max_corners": ("oracle", "brute_force_max_corners", None, None),
    "oracle.enumerate_strongly_stable_ideals": ("oracle", "enumerate_strongly_stable_ideals",
                                                None, None),
    "oracle.cross_validate": ("oracle", "cross_validate", None, None),
}

# Reported per-layer metric -> the spans whose self times it sums.
SELF_TIMES = {
    "ideals.gate_s": ("ideals.require_strongly_stable",),
    "ideals.closure_s": ("ideals.borel_ideal", "ideals.borel_closure_degree"),
    "ideals.minimalize_s": ("ideals.SpreadIdeal.from_generators", "ideals.SpreadIdeal.from_json"),
    "construction.construct_s": ("construction.construct_extremal_ideal",),
    "betti.formula_s": ("betti.graded_betti",),
    "betti.corners_s": ("betti.corners_from_table", "betti.corners_via_characterization"),
    "oracle.brute_force_s": ("oracle.brute_force_max_corners",),
    "oracle.layers_s": ("oracle._layers",),
    "monomials.enumerate_s": ("monomials.spread_monomials",),
    "oracle.enumerate_s": ("oracle.enumerate_strongly_stable_ideals",),
    "oracle.cross_validate_s": ("oracle.cross_validate",),
    "cli.self_s": ("cli.main",),
}

# Reported count metric -> the count it reads: calls of a span, yields of a
# generator span, or a count taken from arguments or results (see TRACED).
COUNTS = {
    "ideals.gate_calls": "ideals.require_strongly_stable",
    "ideals.gate_gens": "ideals.gate_gens",
    "ideals.closure_size": "ideals.closure_size",
    "construction.generators": "construction.generators",
    "betti.entries": "betti.entries",
    "oracle.cells": "oracle.brute_force_max_corners",
    "monomials.enumerated": "monomials.enumerated",
    "oracle.ideals": "oracle.enumerate_strongly_stable_ideals:yield",
}


class Tracer:
    """Spans and counts of one run, kept in memory."""

    def __init__(self):
        self.names: list[str] = list(TRACED)
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self.self_time = {name: 0.0 for name in self.names}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _begin(self, name_id: int) -> None:
        self._stack.append([len(self.spans), name_id, time.perf_counter(), 0.0])
        self.spans.append(None)  # filled in by _end; keeps start order

    def _end(self) -> None:
        end = time.perf_counter()
        idx, name_id, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans[idx] = (name_id, start, end, parent[0] if parent else -1)
        self.self_time[self.names[name_id]] += duration - child

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers --------------------------------------------------------
    def _wrap(self, name: str, fn, counter, measure):
        name_id = self.names.index(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.count(name)
                it = fn(*args, **kwargs)
                while True:
                    tracer._begin(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._end()
                    tracer.count(name + ":yield")
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            tracer._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end()
            if counter is not None:
                tracer.count(counter, measure(args, result))
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every tspread module holding it."""
        if self._patches:
            return
        modules = [importlib.import_module(f"tspread.{m}") for m in MODULES]
        for name, (mod, path, counter, measure) in TRACED.items():
            owner = importlib.import_module(f"tspread.{mod}")
            if "." in path:  # a classmethod: rebind on the class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapped = self._wrap(name, original.__func__, counter, measure)
                self._patches.append((cls, attr, original))
                setattr(cls, attr, classmethod(wrapped))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(name, original, counter, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Every per-layer figure so far, as cumulative totals."""
        out: dict[str, float] = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(self.self_time[n] for n in names)
        for metric, key in COUNTS.items():
            out[metric] = self.counts.get(key, 0)
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}
