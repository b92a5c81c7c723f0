"""Exhaustive enumeration versus the closed forms.

Every t-spread strongly stable ideal at desk scale is enumerated as a chain
of Borel-closed sets; the maximal corner counts found this way must agree
with the closed formulas cell by cell.
"""

from tspread import (
    Context,
    brute_force_max_corners,
    cross_validate,
    enumerate_strongly_stable_ideals,
)
from tspread.cli import main

print("maximal corner counts for t=3 (formula), as `tspread table` prints them:")
main(["table", "-t", "3", "--n", "4:20", "--l", "2:7"])
print()

ctx = Context(9, 2)
count = sum(1 for _ in enumerate_strongly_stable_ideals(ctx, 2))
print(f"there are {count} 2-spread strongly stable ideals of initial "
      f"degree 2 in 9 variables")
cell = brute_force_max_corners(ctx, 2)
print(f"brute-force maximum over all of them: {cell.value} corners "
      f"(unconstrained: {cell.unconstrained})")
print()

print("cross-validation over n=4..9, t=2..3, ell1=2..3:")
report = cross_validate((4, 9), (2, 3), (2, 3))
checks = {}
for record in report.records:
    checks[record["check"]] = checks.get(record["check"], 0) + 1
for name, num in sorted(checks.items()):
    print(f"    {name}: {num} records")
print("disagreements:", len(report.disagreements))
assert report.ok
