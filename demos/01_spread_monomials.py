"""A tour of t-spread monomials and the squarefree lexicographic order.

A monomial x_{i_1}...x_{i_d} is t-spread when consecutive indices are at
least t apart.  This script enumerates a few of those sets, shows the slex
order, and checks the binomial counting formula by hand.
"""

from math import comb

from tspread import (
    Context,
    format_monomial,
    is_t_spread,
    spread_count,
    spread_monomials,
)

print("x1*x3*x6 is 2-spread:", is_t_spread((1, 3, 6), Context(6, 2)))
print("x1*x3*x6 is 3-spread:", is_t_spread((1, 3, 6), Context(6, 3)))
print()

ctx = Context(9, 2)
mons = spread_monomials(ctx, 4)
print(f"M_(n=9, d=4, t=2) has {len(mons)} members "
      f"(binom(6,4) = {comb(6, 4)}), in slex order:")
for u in mons:
    print("   ", format_monomial(u))
print()

print("slex compares within one degree; the smaller first index wins,")
print("so the slex-greater monomial is the smaller index tuple:")
u, v = (1, 4), (2, 3)
print(f"    {format_monomial(u)} vs {format_monomial(v)} ->",
      "u greater" if u < v else "v greater")
print()

print("counting formula across a small grid (n=4..12, d=3):")
for t in (1, 2, 3):
    row = [spread_count(n, 3, t) for n in range(4, 13)]
    print(f"    t={t}:", row)
