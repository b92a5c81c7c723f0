"""Brute-force ground truth at desk scale.

Every t-spread strongly stable ideal in n variables is a chain of
Borel-closed sets, one per degree: the degree-l slice of the ideal is closed
under the admissible index-lowering moves, and it contains the shadow of the
slice below.  Conversely any such chain of down-sets (for the move order)
with the shadow-containment property determines exactly one ideal, whose
minimal generators in degree l are the chosen down-set minus the shadow.

The enumeration here walks those chains degree by degree, with each
Borel-closed set held as a bitmask over the slex-sorted monomial list of its
degree.  It is independent of every closed formula in
:mod:`tspread.construction`, which is the point: the two routes are compared
cell by cell in :func:`cross_validate`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .errors import BudgetExceededError
from .ideals import SpreadIdeal
from .monomials import Context, Monomial, spread_monomials

# degrees beyond floor((n-1)/t) + 1 carry no t-spread monomials at all
def max_spread_degree(n: int, t: int) -> int:
    return (n - 1) // t + 1


@dataclass(frozen=True)
class SearchBudget:
    """Caps for exhaustive enumeration; exceeding any of them aborts the
    search with a partial-result marker rather than a silent wrong answer."""

    max_n: int = 32
    max_total_gens: int = 1_000_000
    max_ideals: int = 50_000_000
    timeout: float | None = None  # wall-clock seconds; None = no limit

    def __post_init__(self):
        if self.max_n < 1 or self.max_total_gens < 1 or self.max_ideals < 1:
            raise ValueError("budget caps must be positive")


@dataclass
class TableCell:
    """One (n, t, l1) cell: the maximal corner count, or None for a dash."""

    n: int
    t: int
    ell1: int
    value: int | None
    provenance: str = ""
    partial: bool = False  # True: enumeration aborted, value is a lower bound
    unconstrained: int | None = None  # max with no corner-at-l1 requirement


class _Layer:
    """M_{n,d,t} with bitmask machinery: immediate predecessors under the
    move order (decrement one index) and per-monomial shadows."""

    def __init__(self, ctx: Context, d: int):
        self.ctx = ctx
        self.d = d
        self.monomials = spread_monomials(ctx, d)  # ascending tuples = slex desc
        self.index = {u: i for i, u in enumerate(self.monomials)}
        self.size = len(self.monomials)
        self.maxval = [u[-1] if u else 0 for u in self.monomials]
        t = ctx.spread_t
        self.preds = []
        for u in self.monomials:
            mask = 0
            for p in range(len(u)):
                v = u[p] - 1
                if v < 1 or (p > 0 and v - u[p - 1] < t):
                    continue
                j = self.index.get(u[:p] + (v,) + u[p + 1:])
                if j is not None:
                    mask |= 1 << j
            self.preds.append(mask)
        self.shadow: list[int] | None = None  # masks into the next layer

    def link(self, nxt: "_Layer") -> None:
        t = self.ctx.spread_t
        self.shadow = []
        for u in self.monomials:
            mask = 0
            for i in range(1, self.ctx.n_vars + 1):
                if i in u:
                    continue
                grown = tuple(sorted(u + (i,)))
                if all(b - a >= t for a, b in zip(grown, grown[1:])):
                    j = nxt.index.get(grown)
                    if j is not None:
                        mask |= 1 << j
            self.shadow.append(mask)

    def members(self, mask: int) -> list[Monomial]:
        """Monomials of a bitmask, slex-descending."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.monomials[low.bit_length() - 1])
            mask ^= low
        return out

    def shadow_mask(self, mask: int) -> int:
        s = 0
        sh = self.shadow
        while mask:
            low = mask & -mask
            s |= sh[low.bit_length() - 1]
            mask ^= low
        return s


def _layers(ctx: Context, ell1: int) -> list[_Layer]:
    top = max_spread_degree(ctx.n_vars, ctx.spread_t)
    layers = [_Layer(ctx, d) for d in range(ell1, top + 1)]
    for a in range(len(layers) - 1):
        layers[a].link(layers[a + 1])
    return layers


def _down_set_masks(layer: _Layer, required: int = 0):
    """All down-sets of the move order containing `required`, as bitmasks.

    Elements are scanned in slex-descending order, a linear extension (every
    move lowers the tuple lexicographically), so including an element is
    legal exactly when its immediate predecessors are already in.  `required`
    must itself be a down-set, which every shadow is.
    """
    preds = layer.preds

    def rec(p: int, mask: int):
        if p == layer.size:
            yield mask
            return
        bit = 1 << p
        if required & bit:
            yield from rec(p + 1, mask | bit)
            return
        yield from rec(p + 1, mask)
        if preds[p] & ~mask == 0:
            yield from rec(p + 1, mask | bit)

    if layer.size == 0:
        yield 0
        return
    yield from rec(0, 0)


def enumerate_borel_closed(ctx: Context, d: int, budget: SearchBudget | None = None) -> list[list[Monomial]]:
    """All subsets of M_{n,d,t} closed under the admissible moves.

    Includes the empty set and the full set.  Raises BudgetExceededError if
    the count passes ``budget.max_ideals``.
    """
    budget = budget or SearchBudget()
    if ctx.n_vars > budget.max_n:
        raise BudgetExceededError(f"n={ctx.n_vars} exceeds budget max_n={budget.max_n}")
    layer = _Layer(ctx, d)
    out = []
    for mask in _down_set_masks(layer):
        if len(out) >= budget.max_ideals:
            raise BudgetExceededError(
                f"more than {budget.max_ideals} Borel-closed sets in degree {d}"
            )
        out.append(layer.members(mask))
    return out


def _walk_chains(layers: list[_Layer], budget: SearchBudget):
    """Yield one ``[(degree, gens_mask, layer), ...]`` list per ideal.

    Chains start with a nonempty down-set at the first layer (so the initial
    degree is exactly that of ``layers[0]``) and at each later degree range
    over all down-sets containing the shadow of the previous one.  Raises
    BudgetExceededError when a cap is hit.
    """
    deadline = None if budget.timeout is None else time.monotonic() + budget.timeout
    count = 0
    total_gens = 0

    def rec(li: int, required: int, chain: list):
        nonlocal count, total_gens
        layer = layers[li]
        for mask in _down_set_masks(layer, required):
            gens = mask & ~required
            if li == 0 and gens == 0:
                continue
            link = chain
            if gens:
                total_gens += gens.bit_count()
                if total_gens > budget.max_total_gens:
                    raise BudgetExceededError(
                        f"generator budget {budget.max_total_gens} exhausted"
                    )
                link = chain + [(layer.d, gens, layer)]
            if li + 1 == len(layers):
                count += 1
                if count > budget.max_ideals:
                    raise BudgetExceededError(
                        f"ideal budget {budget.max_ideals} exhausted"
                    )
                if deadline is not None and count % 1024 == 0:
                    if time.monotonic() > deadline:
                        raise BudgetExceededError(
                            f"timeout of {budget.timeout}s exhausted"
                        )
                yield link
            else:
                yield from rec(li + 1, layer.shadow_mask(mask), link)

    yield from rec(0, 0, [])


def enumerate_strongly_stable_ideals(ctx: Context, ell1: int, budget: SearchBudget | None = None):
    """Every t-spread strongly stable ideal of initial degree exactly l1.

    Yields :class:`SpreadIdeal` values (minimal generators) in a fixed
    deterministic order; raises BudgetExceededError mid-stream when a cap is
    hit, so everything yielded before the error is valid but partial.
    """
    budget = budget or SearchBudget()
    if ctx.n_vars > budget.max_n:
        raise BudgetExceededError(f"n={ctx.n_vars} exceeds budget max_n={budget.max_n}")
    if ell1 < 1 or ell1 > max_spread_degree(ctx.n_vars, ctx.spread_t):
        return
    for chain in _walk_chains(_layers(ctx, ell1), budget):
        gens = {d: tuple(layer.members(mask)) for d, mask, layer in chain}
        yield SpreadIdeal(ctx, gens)


def _corner_stats(chain, t: int):
    """Per-ideal corner data from a chain: list of (k, ell, value).

    The degree-l candidate sits at k = mm - t(l-1) - 1 with mm the largest
    last index among the new generators; it survives iff no later candidate
    reaches it, and its Betti value equals the number of generators attaining
    mm.
    """
    corners = []
    best = -1
    for d, gens, layer in reversed(chain):
        mm, cnt = 0, 0
        maxval = layer.maxval
        m = gens
        while m:
            low = m & -m
            v = maxval[low.bit_length() - 1]
            if v > mm:
                mm, cnt = v, 1
            elif v == mm:
                cnt += 1
            m ^= low
        k = mm - t * (d - 1) - 1
        if k > best:
            corners.append((k, d, cnt))
            best = k
    corners.reverse()
    return corners


def brute_force_max_corners(
    ctx: Context,
    ell1: int,
    budget: SearchBudget | None = None,
    require_corner_at_ell1: bool = True,
    require_unit_values: bool = True,
) -> TableCell:
    """Maximal corner count over all enumerated ideals of initial degree l1.

    ``require_corner_at_ell1`` keeps only ideals whose corner sequence starts
    in degree l1; for l1 >= 3 that corner must have homological index k >= 1
    (the corner-sequence convention), while in degree 2 the degenerate
    position (0, 2) is admitted, matching the small-n analysis.  With
    ``require_unit_values`` every corner value must equal 1.  The cell also
    records the unconstrained maximum for comparison.

    A value of None means no qualifying ideal exists (a dash in the tables).
    On budget exhaustion the cell is marked partial and its value is only a
    lower bound.
    """
    budget = budget or SearchBudget()
    t = ctx.spread_t
    best: int | None = None
    unconstrained: int | None = None
    partial = False
    try:
        if ell1 <= max_spread_degree(ctx.n_vars, t) and ctx.n_vars <= budget.max_n:
            for chain in _walk_chains(_layers(ctx, ell1), budget):
                corners = _corner_stats(chain, t)
                r = len(corners)
                if unconstrained is None or r > unconstrained:
                    unconstrained = r
                if require_corner_at_ell1:
                    k1, d1, _ = corners[0]
                    if d1 != ell1 or (ell1 >= 3 and k1 < 1):
                        continue
                if require_unit_values and any(c != 1 for _, _, c in corners):
                    continue
                if best is None or r > best:
                    best = r
        elif ctx.n_vars > budget.max_n:
            raise BudgetExceededError(
                f"n={ctx.n_vars} exceeds budget max_n={budget.max_n}"
            )
    except BudgetExceededError:
        partial = True
    return TableCell(
        n=ctx.n_vars,
        t=t,
        ell1=ell1,
        value=best,
        provenance="brute-force",
        partial=partial,
        unconstrained=unconstrained,
    )


def regenerate_table(
    t: int,
    n_range: tuple[int, int],
    ell1_range: tuple[int, int],
    budget: SearchBudget | None = None,
    brute_force_upto: int = 0,
) -> list[TableCell]:
    """Cells for n and l1 in the given inclusive ranges, at spread t.

    Cells with n <= brute_force_upto are computed by exhaustive enumeration
    (within the budget), the rest by the closed formulas; the provenance
    field says which.
    """
    from .construction import max_corners

    cells = []
    for ell1 in range(ell1_range[0], ell1_range[1] + 1):
        for n in range(n_range[0], n_range[1] + 1):
            if n <= brute_force_upto:
                cell = brute_force_max_corners(Context(n, t), ell1, budget)
            else:
                cell = TableCell(n=n, t=t, ell1=ell1,
                                 value=max_corners(n, t, ell1),
                                 provenance="formula")
            cells.append(cell)
    return cells


def table_csv(cells: list[TableCell]) -> str:
    lines = ["t,n,ell1,value,provenance"]
    for c in cells:
        value = "-" if c.value is None else str(c.value)
        prov = c.provenance + (" (partial)" if c.partial else "")
        lines.append(f"{c.t},{c.n},{c.ell1},{value},{prov}")
    return "\n".join(lines)


def table_markdown(cells: list[TableCell]) -> str:
    """Rows labelled by l1, columns by n, dashes for empty cells."""
    ns = sorted({c.n for c in cells})
    ells = sorted({c.ell1 for c in cells})
    grid = {(c.ell1, c.n): c for c in cells}
    header = ["l1 \\ n"] + [str(n) for n in ns]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for ell in ells:
        row = [str(ell)]
        for n in ns:
            c = grid.get((ell, n))
            if c is None or c.value is None:
                row.append("-")
            else:
                row.append(str(c.value) + ("+" if c.partial else ""))
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


@dataclass
class CrossValidationReport:
    """Outcome of the oracle-versus-formula sweep; one record per check."""

    records: list[dict] = field(default_factory=list)
    partial: bool = False

    @property
    def disagreements(self) -> list[dict]:
        return [r for r in self.records if not r["ok"]]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records)


def cross_validate(
    n_range: tuple[int, int],
    t_range: tuple[int, int],
    ell1_range: tuple[int, int],
    budget: SearchBudget | None = None,
) -> CrossValidationReport:
    """Cross-check every independent route against every closed form.

    (a) single-monomial Borel closures computed by move search equal the
        componentwise-domination sets, for low degrees;
    (b) on every enumerated strongly stable ideal, corners read off the Betti
        table agree with the generator characterization;
    (c) per cell: brute-force maximum == closed-form maximum == number of
        constructed witness monomials (wherever each is defined), and the
        constructed ideal's corners sit at (n - t(l-1) - 1, l) with value 1.

    Budget exhaustion marks the affected record and the report as partial.
    """
    from .betti import corners_from_table, corners_via_characterization, graded_betti
    from .construction import build_omegas, construct_extremal_ideal, max_corners
    from .errors import ConstructionInapplicableError
    from .ideals import borel_closure_degree

    budget = budget or SearchBudget()
    report = CrossValidationReport()

    for t in range(t_range[0], t_range[1] + 1):
        for n in range(n_range[0], n_range[1] + 1):
            ctx = Context(n, t)
            # (a) closure equivalence, degrees up to 4
            bad = 0
            checked = 0
            for d in range(1, min(4, max_spread_degree(n, t)) + 1):
                basis = spread_monomials(ctx, d)
                for u in basis:
                    closure = borel_closure_degree(u, ctx)
                    dominated = [v for v in basis
                                 if all(a <= b for a, b in zip(v, u))]
                    checked += 1
                    if closure != dominated:
                        bad += 1
            report.records.append({
                "check": "closure-domination", "n": n, "t": t,
                "cases": checked, "ok": bad == 0,
                "detail": f"{bad} mismatches" if bad else "",
            })

            for ell1 in range(ell1_range[0], ell1_range[1] + 1):
                # (b) corner-method agreement on the enumerated ideals
                agree = True
                cases = 0
                partial = False
                try:
                    for ideal in enumerate_strongly_stable_ideals(ctx, ell1, budget):
                        cases += 1
                        via_table = corners_from_table(graded_betti(ideal))
                        # graded_betti above already ran the stability gate
                        via_gens = corners_via_characterization(
                            ideal, check_stability=False)
                        if via_table != via_gens:
                            agree = False
                except BudgetExceededError:
                    partial = report.partial = True
                report.records.append({
                    "check": "corner-methods", "n": n, "t": t, "ell1": ell1,
                    "cases": cases, "ok": agree, "partial": partial,
                    "detail": "" if agree else "table vs characterization",
                })

                # (c) brute force vs formula vs construction
                cell = brute_force_max_corners(ctx, ell1, budget)
                if cell.partial:
                    report.partial = True
                formula = max_corners(n, t, ell1)
                try:
                    ideal, rep = construct_extremal_ideal(n, t, ell1)
                    built = rep.total
                    positions_ok = all(
                        k + t * (l - 1) + 1 == n
                        for k, l in rep.predicted_corners.corners
                    )
                    values_ok = all(v == 1 for v in rep.predicted_corners.values)
                except ConstructionInapplicableError:
                    built = None
                    positions_ok = values_ok = True
                ok = (built == formula) and positions_ok and values_ok
                if not cell.partial:
                    ok = ok and cell.value == formula
                elif cell.value is not None and formula is not None:
                    ok = ok and cell.value <= formula  # partial: lower bound
                report.records.append({
                    "check": "max-corners", "n": n, "t": t, "ell1": ell1,
                    "brute": cell.value, "formula": formula, "built": built,
                    "partial": cell.partial, "ok": ok,
                    "detail": "" if ok else "disagreement",
                })
    return report
