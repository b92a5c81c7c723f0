"""t-spread monomials: representation, the squarefree lex order, enumeration.

A monomial x_{i_1} x_{i_2} ... x_{i_d} is stored as its strictly increasing
index tuple ``(i_1, ..., i_d)``; the empty tuple is the monomial 1.  A
monomial is t-spread when consecutive indices differ by at least t, so for
t >= 1 every t-spread monomial is squarefree and the tuple representation is
lossless.  Monomials with repeated variables, which only occur for t = 0,
are out of scope: :class:`Context` rejects t < 1.

Within a fixed degree, monomials are compared in the squarefree
lexicographic order (slex): u > v iff at the first differing position u has
the *smaller* index.  Equivalently, ascending order of the raw index tuples
is descending slex order, which is how every function here sorts.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import add

from .errors import InvalidMonomialError

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class Context:
    """Ambient parameters: number of variables and the spread t."""

    n_vars: int
    spread_t: int

    def __post_init__(self):
        if self.n_vars < 1:
            raise InvalidMonomialError(f"n_vars must be >= 1, got {self.n_vars}")
        if self.spread_t < 1:
            raise InvalidMonomialError(f"spread_t must be >= 1, got {self.spread_t}")


def is_t_spread(u: Monomial, ctx: Context) -> bool:
    """True iff all consecutive index gaps of u are >= t.

    Vacuously true in degree <= 1, including the monomial 1.  Raises
    InvalidMonomialError unless u is strictly increasing inside [1, n].
    """
    for a, b in zip(u, u[1:]):
        if a >= b:
            raise InvalidMonomialError(f"indices not strictly increasing: {u}")
    if u and (u[0] < 1 or u[-1] > ctx.n_vars):
        raise InvalidMonomialError(f"index out of [1, {ctx.n_vars}]: {u}")
    t = ctx.spread_t
    return all(b - a >= t for a, b in zip(u, u[1:]))


def slex_sorted(monomials) -> list[Monomial]:
    """Sort monomials of one degree in descending slex order (greatest first)."""
    return sorted(monomials)


def spread_count(n: int, d: int, t: int) -> int:
    """|M_{n,d,t}|, the number of t-spread monomials of degree d in n variables.

    Equals binom(n - (d-1)(t-1), d), with binom(a, b) = 0 whenever a < b
    (including a < 0).  A negative degree raises InvalidMonomialError.
    """
    if d < 0:
        raise InvalidMonomialError(f"degree must be >= 0, got {d}")
    top = n - (d - 1) * (t - 1)
    return comb(top, d) if top >= 0 else 0


def max_spread_degree(n: int, t: int) -> int:
    """The top degree floor((n-1)/t) + 1 that carries t-spread monomials in n
    variables; every degree above it has none."""
    return (n - 1) // t + 1


def iter_spread_monomials(ctx: Context, d: int) -> Iterator[Monomial]:
    """The t-spread monomials of degree d, in descending slex order, one at
    a time; a negative degree raises InvalidMonomialError at the call.

    Adding j(t - 1) to the index at position j = 0, ..., d-1 maps the
    d-subsets of {1, ..., n - (d-1)(t-1)} one to one onto the t-spread
    monomials and preserves ascending tuple order, so the output is natively
    slex-descending with no sort and no recursion.  May be empty (precisely
    when n < (d-1)t + 1).
    """
    n, t = ctx.n_vars, ctx.spread_t
    if d < 0:
        raise InvalidMonomialError(f"degree must be >= 0, got {d}")
    shift = [j * (t - 1) for j in range(d)]
    return (tuple(map(add, s, shift))
            for s in combinations(range(1, n - (d - 1) * (t - 1) + 1), d))


def spread_monomials(ctx: Context, d: int) -> list[Monomial]:
    """All t-spread monomials of degree d, in descending slex order: the
    list of :func:`iter_spread_monomials`."""
    return list(iter_spread_monomials(ctx, d))


def format_monomial(u: Monomial) -> str:
    """Render as ``x2*x5*x14``; the monomial 1 renders as ``1``."""
    return "*".join(f"x{i}" for i in u) if u else "1"


def parse_monomial(text: str) -> Monomial:
    """Parse ``x2*x5*x14`` (whitespace-insensitive).  ``1`` is the monomial 1.

    Indices must come out strictly increasing; unsorted or repeated factors
    are rejected rather than silently normalized.
    """
    s = "".join(text.split())
    if s == "1":
        return ()
    if not s:
        raise InvalidMonomialError("empty monomial string")
    indices = []
    for factor in s.split("*"):
        digits = factor[1:]  # int() alone would take "+1", "1_0" and non-ASCII digits
        if not (factor.startswith("x") and digits.isascii() and digits.isdigit()):
            raise InvalidMonomialError(f"bad factor {factor!r} in {text!r}")
        try:
            indices.append(int(digits))
        except ValueError:  # past Python's cap on int-from-str digits
            raise InvalidMonomialError(f"bad factor {factor!r} in {text!r}") from None
    u = tuple(indices)
    for a, b in zip(u, u[1:]):
        if a >= b:
            raise InvalidMonomialError(f"indices not strictly increasing: {text!r}")
    if u[0] < 1:
        raise InvalidMonomialError(f"indices must be >= 1: {text!r}")
    return u
