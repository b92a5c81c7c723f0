"""Output checks for the benchmark, computed apart from tspread.

Nothing here imports tspread.  Each check recomputes what an operation's
output must be from the paper's definitions and tables, with its own
binomials, its own enumeration and its own stability test, and returns a
list of problems (empty when the output is right).
"""

from __future__ import annotations

import json
from itertools import combinations

# Maximal corner counts from the paper's tables for t = 2 and t = 3:
# rows are the initial degree, columns n = 4..20, None is a dash.
PAPER_N_RANGE = (4, 20)
PAPER_TABLES = {
    2: {
        2: [1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8],
        3: [None, None, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8],
        4: [None, None, None, None, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7],
        5: [None] * 6 + [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6],
        6: [None] * 8 + [1, 1, 2, 2, 3, 3, 4, 4, 5],
        7: [None] * 10 + [1, 1, 2, 2, 3, 3, 4],
        8: [None] * 12 + [1, 1, 2, 2, 3],
        9: [None] * 14 + [1, 1, 2],
        10: [None] * 16 + [1],
    },
    3: {
        2: [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5],
        3: [None] * 4 + [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5],
        4: [None] * 7 + [1, 1, 1, 2, 2, 2, 3, 3, 3, 4],
        5: [None] * 10 + [1, 1, 1, 2, 2, 2, 3],
        6: [None] * 13 + [1, 1, 1, 2],
        7: [None] * 16 + [1],
    },
}


def theorem_max_corners(n: int, t: int, ell1: int) -> int | None:
    """The theorem's maximal number of corners, None where there is none.

    With n = d + k*t and 1 <= d <= t (and k >= 3): k + floor((d-3)/t) for
    l1 = 2, and k + floor((d-2)/t) - (l1-2) for 3 <= l1 <= k + floor((d-2)/t) + 1.
    """
    d = (n - 1) % t + 1
    k = (n - d) // t
    if k < 3:
        raise ValueError(f"the theorem needs k >= 3, got n={n}, t={t}")
    if ell1 == 2:
        return k + (d - 3) // t
    if ell1 > k + (d - 2) // t + 1:
        return None
    return k + (d - 2) // t - (ell1 - 2)


def paper_max_corners(n: int, t: int, ell1: int) -> int | None:
    """The paper's tables for t in {2, 3} and n <= 20, its theorem beyond."""
    lo, hi = PAPER_N_RANGE
    if t in PAPER_TABLES and lo <= n <= hi:
        row = PAPER_TABLES[t].get(ell1)
        return None if row is None else row[n - lo]
    return theorem_max_corners(n, t, ell1)


def binom(a: int, b: int) -> int:
    """Multiplicative binomial coefficient; 0 outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    b = min(b, a - b)
    out = 1
    for i in range(1, b + 1):
        out = out * (a - b + i) // i
    return out


def betti_rows(gens, t: int) -> dict[int, list[int]]:
    """Closed-formula Betti rows l -> [beta_{0,l}, beta_{1,1+l}, ...].

    beta_{k,k+l} = sum over generators u of degree l of
    binom(max(u) - t(l-1) - 1, k), summed per (l, max(u)) class.
    """
    classes: dict[tuple[int, int], int] = {}
    for u in gens:
        key = (len(u), u[-1] - t * (len(u) - 1) - 1)
        classes[key] = classes.get(key, 0) + 1
    rows: dict[int, list[int]] = {}
    for (l, m), mult in classes.items():
        row = rows.setdefault(l, [])
        if len(row) < m + 1:
            row.extend([0] * (m + 1 - len(row)))
        for k in range(m + 1):
            row[k] += mult * binom(m, k)
    return {l: rows[l] for l in sorted(rows)}


def corners_of(extents: dict[int, int]) -> list[tuple[int, int]]:
    """Corner positions (k, l), k decreasing, of a table whose row l is
    nonzero exactly at k = 0..extents[l]: the entries with no other nonzero
    entry weakly to the south-east."""
    out = []
    best = -1
    for l in sorted(extents, reverse=True):
        if extents[l] > best:
            best = extents[l]
            out.append((best, l))
    return out[::-1]


def corner_values(gens, t: int) -> list[tuple[int, int, int]]:
    """(k, l, beta_{k,k+l}) at every corner, without building whole rows."""
    by_degree: dict[int, list[int]] = {}
    for u in gens:
        by_degree.setdefault(len(u), []).append(u[-1] - t * (len(u) - 1) - 1)
    extents = {l: max(ms) for l, ms in by_degree.items()}
    return [(k, l, sum(binom(m, k) for m in by_degree[l]))
            for k, l in corners_of(extents)]


def spread_problems(gens, n: int, t: int) -> list[str]:
    """Generators must be t-spread index tuples inside [1, n], without
    repeats."""
    problems = []
    if len(set(gens)) != len(gens):
        problems.append("repeated generators")
    for u in gens:
        if not u or u[0] < 1 or u[-1] > n or any(b - a < t for a, b in zip(u, u[1:])):
            problems.append(f"{u} is not a {t}-spread monomial in {n} variables")
            break
    return problems


def _trie(gens) -> dict:
    root: dict = {}
    for g in gens:
        node = root
        for i in g:
            node = node.setdefault(i, {})
        node[None] = True
    return root


def _has_divisor(trie: dict, w) -> bool:
    """Some generator in the trie is a subset of the sorted tuple w."""
    stack = [(trie, 0)]
    while stack:
        node, pos = stack.pop()
        if None in node:
            return True
        for p in range(pos, len(w)):
            child = node.get(w[p])
            if child is not None:
                stack.append((child, p + 1))
    return False


def stability_violation(gens, t: int):
    """A move x_(a-1) * u / x_a out of the ideal, or None if it is stable.

    Any admissible move x_i * u / x_j (i < j, result t-spread) is a chain of
    unit decrements of one index that stay t-spread, and a unit decrement of
    a multiple of a generator is a multiple of that generator or of the
    generator's own unit decrement.  So closure of the ideal under unit
    decrements of its generators is strong stability.  Membership is tested
    by subset search, without assuming the generators are minimal.
    """
    genset = set(gens)
    trie = _trie(gens)
    for u in gens:
        for p, a in enumerate(u):
            if a == 1 or (p and a - 1 - u[p - 1] < t):
                continue
            w = u[:p] + (a - 1,) + u[p + 1:]
            if w not in genset and not _has_divisor(trie, w):
                return u, w
    return None


def domination_generators(inputs, n: int, t: int) -> list[tuple[int, ...]]:
    """Minimal generators of B_t(inputs) by componentwise domination.

    In degree d the closure of u is every t-spread v with v <= u position by
    position.  A degree-d element is a minimal generator unless one of its
    subsets lies in the closure of a lower-degree input.
    """
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for u in inputs:
        by_degree.setdefault(len(u), []).append(u)

    def dominated(v, us):
        return any(all(a <= b for a, b in zip(v, u)) for u in us)

    out = []
    for d in sorted(by_degree):
        for v in combinations(range(1, n + 1), d):
            if any(b - a < t for a, b in zip(v, v[1:])):
                continue
            if not dominated(v, by_degree[d]):
                continue
            if any(dominated(s, by_degree[e])
                   for e in by_degree if e < d for s in combinations(v, e)):
                continue
            out.append(v)
    return out


def _rows_from_json(rows) -> dict[int, list[int]]:
    return {int(l): list(row) for l, row in rows.items()}


def check_betti(payload: dict, gens, t: int) -> list[str]:
    """A `betti --format json` payload against the ideal's generators."""
    problems = []
    want = betti_rows(gens, t)
    got = _rows_from_json(payload["betti"]["rows"])
    if got != want:
        problems.append("Betti table differs from the closed formula")
    extents = {l: len(row) - 1 for l, row in want.items()}
    corners = corners_of(extents)
    if payload["corners"]["corners"] != [list(c) for c in corners]:
        problems.append(f"corners {payload['corners']['corners']} != {corners}")
    values = [want[l][k] for k, l in corners]
    if payload["corners"]["values"] != values:
        problems.append(f"corner values {payload['corners']['values']} != {values}")
    if payload.get("regularity") != max(want) or payload.get("proj_dim") != max(extents.values()):
        problems.append("regularity or projective dimension is wrong")
    violation = stability_violation(gens, t)
    if violation is not None:
        problems.append(f"not strongly stable: {violation[0]} -> {violation[1]}")
    return problems


def check_construction(payload: dict, n: int, t: int, ell1: int) -> list[str]:
    """A `construct --format json` payload: t-spread generators, each
    dominated by the witness monomial of its degree, and corners at
    (n - t(l-1) - 1, l), l = l1, l1+1, ..., each of value 1, as many as the
    paper says."""
    gens = [tuple(u) for u in payload["gens"]]
    if (payload["n"], payload["t"], payload["ell1"]) != (n, t, ell1):
        return [f"construction echoes the wrong parameters: {payload['n'], payload['t'], payload['ell1']}"]
    problems = spread_problems(gens, n, t)
    omegas = {len(w): tuple(w) for w in payload["omegas"]}
    if any(len(u) not in omegas or any(a > b for a, b in zip(u, omegas[len(u)]))
           for u in gens):
        problems.append("a generator escapes the closure of its witness monomial")
    if problems:
        return problems
    want = paper_max_corners(n, t, ell1)
    found = corner_values(gens, t)
    expected = [(n - t * (l - 1) - 1, l, 1) for l in range(ell1, ell1 + want)]
    if found != expected:
        problems.append(f"corners {found} != {expected}")
    if payload["total"] != want or len(payload["omegas"]) != want:
        problems.append(f"{payload['total']} witness monomials, the paper says {want}")
    if payload["corners"] != [[k, l] for k, l, _ in expected]:
        problems.append("reported corners differ from the generators' corners")
    return problems


def check_table_cell(cells: list, n: int, t: int, ell1: int) -> list[str]:
    """A one-cell `table --brute-force-upto --format json` payload.

    An exact cell must equal the paper; a partial one is a lower bound and
    must not exceed it.
    """
    if len(cells) != 1:
        return [f"{len(cells)} cells, expected 1"]
    c = cells[0]
    if (c["n"], c["t"], c["ell1"], c["provenance"]) != (n, t, ell1, "brute-force"):
        return [f"wrong cell {c}"]
    want = paper_max_corners(n, t, ell1)
    if c["partial"]:
        if c["value"] is not None and (want is None or c["value"] > want):
            return [f"partial value {c['value']} exceeds the paper's {want}"]
        return []
    if c["value"] != want:
        return [f"value {c['value']} != the paper's {want}"]
    return []


def check_validate(lines: list[str], n: int, t: int, ell1: int) -> list[str]:
    """`validate` JSON lines for one cell: one record per check, every one ok
    and exact, and the brute-force and formula maxima equal to the paper."""
    records = [json.loads(line) for line in lines if line.strip()]
    kinds = [r["check"] for r in records]
    if kinds != ["closure-domination", "corner-methods", "max-corners"]:
        return [f"records {kinds}"]
    problems = []
    for r in records:
        if (r["n"], r["t"], r.get("ell1", ell1)) != (n, t, ell1):
            problems.append(f"record for the wrong cell: {r}")
        if not r["ok"] or r.get("partial", False):
            problems.append(f"record not ok or partial: {r}")
    want = paper_max_corners(n, t, ell1)
    top = records[2]
    if top["brute"] != want or top["formula"] != want:
        problems.append(f"max-corners {top['brute']}/{top['formula']} != the paper's {want}")
    has_monomials = binom(n - (ell1 - 1) * (t - 1), ell1) > 0
    if (records[1]["cases"] > 0) != has_monomials:
        problems.append(f"{records[1]['cases']} ideals enumerated in initial degree {ell1}")
    return problems
