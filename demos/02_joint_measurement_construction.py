"""The two-rotation joint measurement at n = 3, reproduced end to end.

Builds the block-diagonal rotation from lower-flat blocks, permutes it by
the staircase matching, prints both rotations with their coverage, and
shows the sharpness table every estimator consumes.
"""

import math

import numpy as np

from majorana_jm.io import sharpness_csv
from majorana_jm.matching import degree2_ensemble, degree2k_ensemble
from majorana_jm.povm import sharpness_table
from majorana_jm.turan import build_partition, permutation_cycles, sparse_matching

matching = sparse_matching(2)
print("staircase matching of the 6-vertex Turan graph:", matching.edges)
print("partition:", build_partition(3).subsets)

ens = degree2_ensemble(3)
print("pi cycles:   ", permutation_cycles(ens.pi))
print("sigma cycles:", permutation_cycles(ens.sigmas[1]))
with np.printoptions(precision=3, suppress=True):
    print("O1 * sqrt(2):\n", ens.matrices[0].entries * math.sqrt(2.0))
    print("O2 * sqrt(2):\n", ens.matrices[1].entries * math.sqrt(2.0))

print("\ncoverage (all 15 pair observables):")
for row in ens.coverage.rows:
    print(f"  S={row.subset}  rotation {row.r}  rows {row.rows}  eta = {row.eta:.3f}")

print("\nsharpness table CSV:")
print(sharpness_csv(sharpness_table(ens)))

print("degree-4 randomized ensemble at n = 6 (nine rotations):")
quartic = degree2k_ensemble(6, 2, 9, seed=7)
print("  resamples needed:", quartic.retries)
print("  min sharpness over all 495 quadruples:", f"{quartic.coverage.min_eta:.5f}")
print("  bound from the lower-flat entries:   ", f"{quartic.block_min_entry ** 4:.5f}")
