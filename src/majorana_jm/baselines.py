"""Comparator formulas: qubit-local parents and shadow-derived bounds.

The qubit route measures every generator through a fermion-to-qubit
mapping and the local unbiased parent, paying ``3**(-w/2)`` per Pauli
weight ``w``; the tree-based mapping is modeled by its weight ceiling
alone.  The shadow route gives a certified joint-measurability threshold
and the matching state-independent variance norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MappingModel",
    "qubit_parent_sharpness",
    "mapped_sharpness",
    "jw_max_weight",
    "shadow_jm_bound",
    "shadow_norm",
    "comparison_rows",
]

# degree-k images jw_max_weight enumerates at most
_JW_ENUMERATION_CAP = 2_000_000


@dataclass(frozen=True)
class MappingModel:
    """Fermion-to-qubit mapping abstracted to its generator weight profile."""

    kind: str  # jordan-wigner | ternary-tree
    n_modes: int

    def __post_init__(self):
        if self.kind not in ("jordan-wigner", "ternary-tree"):
            raise ValueError(f"unknown mapping {self.kind!r}")

    def generator_weight(self, index: int) -> int:
        """Pauli weight of the image of one generator (1-based index)."""
        if self.kind == "jordan-wigner":
            return (index + 1) // 2
        return math.ceil(math.log(2 * self.n_modes + 1, 3))


def qubit_parent_sharpness(weight: int) -> float:
    """Sharpness of a weight-w Pauli under the local qubit parent."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    return 3.0 ** (-weight / 2.0)


def jw_max_weight(n_modes: int, degree: int) -> int:
    """Largest Pauli weight among degree-k observables under Jordan-Wigner."""
    from majorana_jm.algebra import canonical_monomial, subsets_of_size, to_pauli

    if degree == 0:
        return 0
    count = math.comb(2 * n_modes, degree)
    if count > _JW_ENUMERATION_CAP:
        raise ValueError("enumeration too large")
    best = 0
    for subset in subsets_of_size(2 * n_modes, degree):
        best = max(best, to_pauli(canonical_monomial(n_modes, subset)).weight)
    return best


def mapped_sharpness(model: MappingModel, degree: int) -> float:
    """Worst-case joint sharpness of all degree-k observables under a mapping.

    The tree mapping pays the weight ceiling per constituent generator; the
    Jordan-Wigner value uses the exact worst weight over the images.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return 1.0
    if model.kind == "ternary-tree":
        weight = degree * model.generator_weight(1)
        return qubit_parent_sharpness(weight)
    return qubit_parent_sharpness(jw_max_weight(model.n_modes, degree))


def shadow_jm_bound(n_modes: int, half_degree: int) -> float:
    """Certified joint-measurability threshold ``C(n,k)/C(2n,2k)``.

    Every uniform sharpness at or below this value is compatible, so it
    lower-bounds the robustness of the degree-2k assemblage.
    """
    if not 1 <= half_degree <= n_modes:
        raise ValueError("need 1 <= k <= n")
    return math.comb(n_modes, half_degree) / math.comb(2 * n_modes, 2 * half_degree)


def shadow_norm(n_modes: int, half_degree: int) -> float:
    """State-independent shadow variance norm ``sqrt(C(2n,2k)/C(n,k))``."""
    if not 1 <= half_degree <= n_modes:
        raise ValueError("need 1 <= k <= n")
    return math.sqrt(
        math.comb(2 * n_modes, 2 * half_degree) / math.comb(n_modes, half_degree)
    )


def comparison_rows(n_values, half_degree: int, construction_seed: int = 0):
    """Rows of the strategy-comparison table for a range of mode counts.

    Columns: n, k, eta_construction (explicit ensemble, min over
    observables of the best single-rotation sharpness), eta_ternary,
    shadow_jm_bound, ho_bound, thm2_upper.  Construction entries are blank
    where the ensemble is infeasible.
    """
    from majorana_jm.matching import CoverageError, degree2_ensemble, degree2k_ensemble
    from majorana_jm.robustness import ho_bound, thm2_upper_bound

    rows = []
    for n in n_values:
        if half_degree > n:
            continue
        try:
            if half_degree == 1:
                ens = degree2_ensemble(n)
            else:
                ens = degree2k_ensemble(n, half_degree, seed=construction_seed)
            eta_construction = ens.coverage.min_eta
        except (ValueError, CoverageError):
            eta_construction = None
        model = MappingModel("ternary-tree", n)
        rows.append(
            {
                "n": n,
                "k": half_degree,
                "eta_construction": eta_construction,
                "eta_ternary": mapped_sharpness(model, 2 * half_degree),
                "shadow_jm_bound": shadow_jm_bound(n, half_degree),
                "ho_bound": ho_bound(n, half_degree),
                "thm2_upper": thm2_upper_bound(n, 2 * half_degree),
            }
        )
    return rows
