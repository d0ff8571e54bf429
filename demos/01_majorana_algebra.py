"""Tour of the exact monomial algebra.

Products, commutation signs, Jordan-Wigner images and braid moves, all
cross-checked against dense matrices.
"""

import numpy as np

from majorana_jm.algebra import canonical_monomial, dense_matrix, monomial_product
from majorana_jm.paper import (
    BraidElement,
    braid_conjugate,
    braiding_recipe,
    commutation_sign,
    to_pauli,
)

n = 3
a = canonical_monomial(n, [1, 2])
b = canonical_monomial(n, [2, 3])
print("a            =", a)
print("b            =", b)
print("a * b        =", monomial_product(a, b))
print("commute?     ", commutation_sign([1, 2], [2, 3]) == 1)

prod = monomial_product(a, b)
oracle = dense_matrix(a) @ dense_matrix(b)
print("dense agrees?", np.max(np.abs(dense_matrix(prod) - oracle)) < 1e-12)

print()
print("Jordan-Wigner images on", n, "modes:")
for j in (1, 2, 5):
    print(f"  gamma_{j} ->", to_pauli(canonical_monomial(n, [j])))
print("  gamma[1,2] ->", to_pauli(canonical_monomial(1, [1, 2])), "(a single mode)")

print()
print("Braid moves:")
g1 = canonical_monomial(n, [1])
print("  B_{1,2}: gamma_1 ->", braid_conjugate(BraidElement(1, 2), g1))

# carrying a quadruple onto another support, sign included
m = canonical_monomial(4, [1, 2, 3, 4])
for braid in braiding_recipe([1, 2, 3, 4], [2, 4, 6, 8], 4):
    print("  applying braid", (braid.i, braid.j))
    m = braid_conjugate(braid, m)
print("  image:", m)
