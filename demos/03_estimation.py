"""Shot-level simulation and single-shot estimators on a random state.

Simulates the measurement circuit, estimates every pair observable and a
two-body energy, and compares the empirical estimator variance with the
closed-form prediction for a single-rotation parent.
"""

import math

import numpy as np

from majorana_jm.algebra import subsets_of_size
from majorana_jm.ensemble import custom_ensemble
from majorana_jm.gaussian import random_orthogonal
from majorana_jm.matching import degree2_ensemble
from majorana_jm.paper import sample_complexity
from majorana_jm.povm import sharpness_table
from majorana_jm.sampling import (
    FermionicState,
    HamiltonianSpec,
    estimate_expectations,
    estimate_hamiltonian,
    predicted_variance,
    simulate_shots,
)

rng = np.random.default_rng(2024)
n = 3
state = FermionicState.random_pure(n, rng)
ensemble = degree2_ensemble(n)
table = sharpness_table(ensemble)

batch = simulate_shots(state, ensemble, 100_000, rng)
print(f"simulated {len(batch)} shots on {n} modes")
print(f"{'target':>10} {'estimate':>10} {'exact':>10} {'sigma':>7}")
for rec in estimate_expectations(batch, table, subsets_of_size(2 * n, 2), rng=rng):
    exact = state.expectation(rec.target)
    pull = (rec.estimate - exact) / rec.stderr
    print(f"{str(rec.target):>10} {rec.estimate:>10.4f} {exact:>10.4f} {pull:>7.2f}")

ham = HamiltonianSpec((((1, 2), 0.7), ((3, 4), -1.1), ((1, 4), 0.3)))
energy = estimate_hamiltonian(batch, table, ham, rng=rng)
print(f"\nenergy estimate {energy.estimate:.4f} +- {energy.stderr:.4f}"
      f"  (exact {ham.expectation(state):.4f})")

# single-rotation parent: the variance formula applies
o = random_orthogonal(2 * n, rng)
single = custom_ensemble(n, 1, [o])
single_table = sharpness_table(single)
pred = predicted_variance(ham, single_table, state)
big = simulate_shots(state, single, 400_000, rng)
energy1 = estimate_hamiltonian(big, single_table, ham, rng=rng)
emp = energy1.stderr ** 2 * len(big)
print(f"single-rotation variance: empirical {emp:.4f} vs predicted {pred:.4f}")

eta2 = min(table.mean_sharpness(s) for s in subsets_of_size(2 * n, 2))
shots = sample_complexity(n, 1, epsilon=0.1, delta=0.05, eta=eta2)
print(f"\nshots for 0.1-accurate pair estimates with 95% confidence: {shots}")
