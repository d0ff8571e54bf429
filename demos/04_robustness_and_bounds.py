"""Incompatibility robustness: exact small cases, tournaments, and bounds.

The degree-2 search runs over tournaments; the 2-mode value saturates its
bound because an order-4 skew-Hadamard matrix exists, while 3 modes fall
strictly short (no order-6 skew-Hadamard).
"""

import math

from majorana_jm.paper import exhaustive_tournament_max, tournament_bound_check
from majorana_jm.robustness import (
    appendix_tournament_4,
    degree2_norm,
    robustness_bruteforce,
    skew_hadamard_search,
)

for n, degree in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]:
    rep = robustness_bruteforce(n, degree)
    upper = rep.bounds["thm2_upper"]
    lower = rep.bounds["construction_lower"]
    notes = []
    if lower is not None:
        notes.append(f"construction {lower:.4f}")
    notes.append(f"upper {upper:.6f}" if upper is not None else "no proven upper")
    print(f"n={n} degree={degree}: eta* = {rep.value:.6f}  ({', '.join(notes)})")

print()
t4 = appendix_tournament_4()
total, lams = degree2_norm(t4)
print("order-4 tournament spectral sum:", f"{total:.6f} = 2*sqrt(3);",
      "bound margin", f"{tournament_bound_check(t4):.1e}")

best6, _ = exhaustive_tournament_max(6)
print(f"order-6 exhaustive maximum {best6:.6f} < bound {3 * math.sqrt(5):.6f}"
      " (strict: no order-6 skew-Hadamard)")

print()
for order in (4, 6, 8, 12, 36, 276):
    res = skew_hadamard_search(order)
    print(f"skew-Hadamard order {order}: {res.status} ({res.reason})")
