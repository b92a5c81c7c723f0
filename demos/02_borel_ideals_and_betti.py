"""Borel closures and graded Betti numbers.

Builds the smallest 3-spread strongly stable ideal containing three chosen
monomials in 14 variables, prints its minimal generators, and computes its
Betti diagram and extremal corners two independent ways.
"""

from tspread import (
    Context,
    borel_closure_degree,
    borel_ideal,
    corners_from_table,
    corners_via_characterization,
    format_monomial,
    graded_betti,
    proj_dim,
    regularity,
)

ctx = Context(14, 3)

print("degree-2 part of B_3(x1*x14): every move-reachable monomial")
closure = borel_closure_degree((1, 14), ctx)
print("   ", ", ".join(format_monomial(u) for u in closure))
print()

ideal = borel_ideal([(1, 14), (2, 5, 14), (2, 6, 9, 14)], ctx)
print("minimal generators of B_3(x1*x14, x2*x5*x14, x2*x6*x9*x14):")
for degree in sorted(ideal.gens):
    gens = ideal.gens[degree]
    print(f"    degree {degree} ({len(gens)}):",
          ", ".join(format_monomial(u) for u in gens))
print()

table = graded_betti(ideal)
print("Betti table, one row per generator degree l, listing beta_{k,k+l}")
print("from k = 0 (`tspread betti` prints it as a diagram):")
for degree, row in table.rows.items():
    print(f"    {degree}:", row)
print()
print("regularity:", regularity(table), " projective dimension:", proj_dim(table))

seq = corners_from_table(table)
print("corners from the table:        ", seq.corners, "values", seq.values)
seq2 = corners_via_characterization(ideal)
print("corners from the generators:   ", seq2.corners, "values", seq2.values)
assert seq == seq2
