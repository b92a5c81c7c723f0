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
    """Rows l -> [beta_{0,l}, beta_{1,1+l}, ...] ascending in l, as
    :func:`betti_row` gives them.  A row ends at its last nonzero entry, so
    its last column is ``len(row) - 1``; zeros inside it are holes."""

    rows: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        if list(self.rows) != sorted(self.rows):
            raise TSpreadError(f"Betti rows not in ascending degree: {list(self.rows)}")
        for l, row in self.rows.items():
            if not row or min(row) < 0 or row[-1] <= 0:  # empty, negative, trailing zero
                raise TSpreadError(f"bad Betti row of degree {l}")

    @property
    def is_empty(self) -> bool:
        return not self.rows

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """The sparse view (k, l) -> beta_{k,k+l} of the nonzero entries."""
        return {(k, l): beta for l, row in self.rows.items()
                for k, beta in enumerate(row) if beta}


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
    t, gens = ideal.ctx.spread_t, ideal.gens
    return BettiTable({l: betti_row(t, l, gens[l]) for l in sorted(gens)})


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


def corners_from_table(table: BettiTable) -> CornerSequence:
    """Corners straight from the definition of extremal Betti numbers.

    An entry (k, l) is a corner iff it is nonzero and no other nonzero entry
    dominates it componentwise: row l's candidate is its last column,
    ``len(row) - 1``, and it is a corner iff it exceeds the last column of
    every row above.  Works for any table, holes included.
    """
    corners, values = [], []  # l descending
    for l, row in reversed(table.rows.items()):
        if not corners or len(row) - 1 > corners[-1][0]:
            corners.append((len(row) - 1, l))
            values.append(row[-1])
    return CornerSequence(tuple(reversed(corners)), tuple(reversed(values)))


def corners_via_characterization(ideal: SpreadIdeal) -> CornerSequence:
    """Corners computed from generator data alone, without the Betti table:
    :func:`corners_from_peaks` over the :func:`corner_peak` of each degree.

    Raises NotStronglyStableError (the characterization does not apply)
    unless the ideal is strongly stable.
    """
    require_strongly_stable(ideal)
    return corners_from_peaks(ideal.ctx.spread_t,
                              [(l, corner_peak(g)) for l, g in sorted(ideal.gens.items())])


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
    corners, values = [], []  # l descending
    for l, (mm, count) in reversed(peaks):
        k = mm - corner_shift(t, l)
        if not corners or k > corners[-1][0]:
            corners.append((k, l))
            values.append(count)
    return CornerSequence(tuple(reversed(corners)), tuple(reversed(values)))


def regularity(table: BettiTable) -> int:
    """Castelnuovo-Mumford regularity of the ideal: the largest nonzero row."""
    if table.is_empty:
        raise TSpreadError("regularity of an empty Betti table")
    return max(table.rows)


def proj_dim(table: BettiTable) -> int:
    """Projective dimension of the ideal: the largest nonzero column."""
    if table.is_empty:
        raise TSpreadError("projective dimension of an empty Betti table")
    return max(len(row) for row in table.rows.values()) - 1

