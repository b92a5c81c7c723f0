"""Graded Betti numbers of t-spread strongly stable ideals and their corners.

For a t-spread strongly stable ideal I the graded Betti numbers are given by
the closed formula

    beta_{k, k+l}(I) = sum over u in G(I)_l of binom(max(u) - t(l-1) - 1, k),

the t-spread analogue of the Eliahou-Kervaire (t = 0) and
Aramova-Herzog-Hibi (t = 1) formulas.  All arithmetic is exact; entries are
arbitrary-precision integers.

Conventions: tables are for the ideal I itself, not the quotient S/I (the
two differ by an index shift); rows are labelled by the generator degree l,
columns by the homological index k.  An entry is extremal when every other
nonzero entry (i, j) has i < k or j < l; the positions (k, l) of extremal
entries, listed with k strictly decreasing, form the corner sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .errors import TSpreadError
from .ideals import SpreadIdeal, require_strongly_stable


@dataclass(frozen=True)
class BettiTable:
    """Sparse table (k, l) -> beta_{k,k+l}; zero entries are never stored."""

    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        for (k, l), beta in self.entries.items():
            if beta <= 0 or k < 0:
                raise TSpreadError(f"bad Betti entry beta_{{{k},{k}+{l}}} = {beta}")

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def rows(self) -> dict[int, list[int]]:
        """Dense rows: l -> [beta_{0,l}, beta_{1,1+l}, ...] up to the last nonzero."""
        out: dict[int, list[int]] = {}
        for (k, l), beta in self.entries.items():
            row = out.setdefault(l, [])
            if len(row) <= k:
                row.extend([0] * (k + 1 - len(row)))
            row[k] = beta
        return {l: out[l] for l in sorted(out)}


@dataclass(frozen=True)
class CornerSequence:
    """Extremal-Betti positions (k_1, l_1), ..., (k_r, l_r) and their values.

    Positions carry strictly decreasing k and strictly increasing l; the
    values are the corresponding nonzero Betti numbers.
    """

    corners: tuple[tuple[int, int], ...]
    values: tuple[int, ...]

    def __post_init__(self):
        corners = self.corners
        for (k, l), (k_next, l_next) in zip(corners, corners[1:]):
            if k <= k_next or l >= l_next:
                raise TSpreadError(f"not a corner sequence: {corners}")
        if len(self.values) != len(corners) or min(self.values, default=1) < 1:
            raise TSpreadError(f"bad corner values: {self.values}")


def corner_shift(t: int, l: int) -> int:
    """t(l-1) + 1, subtracted from max(u) for a generator u of degree l to
    give its corner candidate k; 0 in degree 0, whose only generator is the
    unit (S is free of rank one).  The oracle and the construction use it too."""
    return t * (l - 1) + 1 if l else 0


def graded_betti(ideal: SpreadIdeal) -> BettiTable:
    """Betti table of a t-spread strongly stable ideal via the closed formula,
    one :func:`betti_row` per generator degree.

    Raises NotStronglyStableError (the formula does not apply) otherwise.
    """
    require_strongly_stable(ideal)
    t = ideal.ctx.spread_t
    return merge_rows([(l, betti_row(t, l, gens)) for l, gens in ideal.gens.items()])


def betti_row(t: int, l: int, gens) -> list[int]:
    """The row of degree l of the closed formula, [beta_{0,l}, beta_{1,1+l},
    ...], from ``gens``, the degree-l minimal generators alone.

    Every entry up to the largest max(u) - t(l-1) - 1 is positive, so the
    row is dense and ends at its last nonzero entry.
    """
    # sum over m = a..b of binom(m, k) is binom(b+1, k+1) - binom(a, k+1):
    # one term per run of consecutive m with equal multiplicity, not one
    # per generator
    shift = corner_shift(t, l)
    ms: dict[int, int] = {}  # max(u) - shift -> generators with it
    for m in [u[-1] - shift for u in gens] if l else [0]:  # degree 0: the unit
        ms[m] = ms.get(m, 0) + 1
    runs: list[list[int]] = []  # [a, b, multiplicity]
    for m in sorted(ms):
        mult = ms[m]
        if runs and runs[-1][1] == m - 1 and runs[-1][2] == mult:
            runs[-1][1] = m
        else:
            runs.append([m, m, mult])
    row = [0] * (max(ms) + 1)
    for a, b, mult in runs:
        for k in range(b + 1):
            row[k] += mult * (comb(b + 1, k + 1) - comb(a, k + 1))
    return row


def merge_rows(rows) -> BettiTable:
    """The table whose row of degree l is ``row``, for each ``(l, row)``
    pair of distinct degrees, rows as :func:`betti_row` gives them."""
    return BettiTable({(k, l): beta for l, row in rows for k, beta in enumerate(row)})


def corners_from_table(table: BettiTable) -> CornerSequence:
    """Corners straight from the definition of extremal Betti numbers.

    An entry (k, l) is a corner iff it is nonzero and no other nonzero entry
    dominates it componentwise.  Works for any sparse table.
    """
    row_max: dict[int, int] = {}
    for k, l in table.entries:
        if k > row_max.get(l, -1):
            row_max[l] = k
    corners = []
    best = -1
    for l in sorted(row_max, reverse=True):
        if row_max[l] > best:
            best = row_max[l]
            corners.append((best, l))
    corners.reverse()
    values = tuple(table.entries[(k, l)] for k, l in corners)
    return CornerSequence(tuple(corners), values)


def corners_via_characterization(ideal: SpreadIdeal, check_stability: bool = True) -> CornerSequence:
    """Corners computed from generator data alone, without the Betti table:
    :func:`corners_from_peaks` over the :func:`corner_peak` of each degree.

    Input must be strongly stable; callers holding an ideal that is stable
    by construction (a Borel closure) may pass ``check_stability=False`` to
    skip the redundant verification.
    """
    if check_stability:
        require_strongly_stable(ideal)
    gens = ideal.gens
    return corners_from_peaks(ideal.ctx.spread_t,
                              [(l, corner_peak(gens[l])) for l in sorted(gens)])


def corner_peak(gens) -> tuple[int, int]:
    """``(mm, count)`` of one degree's generators: their largest last index
    (0 for the unit) and how many of them attain it."""
    lasts = [u[-1] for u in gens if u] or [0]  # the unit: max 0
    mm = max(lasts)
    return mm, lasts.count(mm)


def corners_from_peaks(t: int, peaks) -> CornerSequence:
    """The corners of the ideal whose degree-l generators have the
    :func:`corner_peak` ``(mm, count)``, for each ``(l, (mm, count))`` pair
    of ``peaks``, ascending in l.

    The only candidate of degree l is k = mm - t(l-1) - 1, and it is a
    corner iff it exceeds the candidates of every higher generator degree;
    the corner value is ``count``, the number of degree-l generators
    attaining mm.
    """
    corners = []
    values = []
    best = -1  # the largest candidate of the degrees above
    for l, (mm, count) in reversed(peaks):
        k = mm - corner_shift(t, l)
        if k > best:
            best = k
            corners.append((k, l))
            values.append(count)
    corners.reverse()
    values.reverse()
    return CornerSequence(tuple(corners), tuple(values))


def regularity(table: BettiTable) -> int:
    """Castelnuovo-Mumford regularity of the ideal: the largest nonzero row."""
    if table.is_empty:
        raise TSpreadError("regularity of an empty Betti table")
    return max(l for _, l in table.entries)


def proj_dim(table: BettiTable) -> int:
    """Projective dimension of the ideal: the largest nonzero column."""
    if table.is_empty:
        raise TSpreadError("projective dimension of an empty Betti table")
    return max(k for k, _ in table.entries)

