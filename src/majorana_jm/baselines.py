"""Comparator formulas and bounds: qubit-local parents, shadow and spectral bounds.

The qubit route measures every generator through a fermion-to-qubit
mapping and the local unbiased parent, paying ``3**(-w/2)`` per Pauli
weight ``w``; the tree-based mapping is modeled by its weight ceiling
alone.  The shadow route gives a certified joint-measurability threshold.
The proven upper bounds on the robustness close the comparison; ``compare``
and the robustness reports both read them here.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "MappingModel",
    "qubit_parent_sharpness",
    "mapped_sharpness",
    "shadow_jm_bound",
    "ho_bound",
    "ho_bound_proven",
    "thm2_upper_bound",
    "comparison_rows",
]


class MappingModel(namedtuple("MappingModel", "kind n_modes")):
    """Fermion-to-qubit mapping abstracted to its generator weight profile."""

    __slots__ = ()

    def __new__(cls, kind: str, n_modes: int):  # kind: jordan-wigner | ternary-tree
        if kind not in ("jordan-wigner", "ternary-tree"):
            raise ValueError(f"unknown mapping {kind!r}")
        return super().__new__(cls, kind, n_modes)

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
    from majorana_jm.paper import jw_max_weight

    return qubit_parent_sharpness(jw_max_weight(model.n_modes, degree))


def shadow_jm_bound(n_modes: int, half_degree: int) -> float:
    """Certified joint-measurability threshold ``C(n,k)/C(2n,2k)``.

    Every uniform sharpness at or below this value is compatible, so it
    lower-bounds the robustness of the degree-2k assemblage.
    """
    if not 1 <= half_degree <= n_modes:
        raise ValueError("need 1 <= k <= n")
    return math.comb(n_modes, half_degree) / math.comb(2 * n_modes, 2 * half_degree)


def ho_bound(n_modes: int, half_degree: int) -> float:
    """Spectral upper bound ``sqrt(C(n,k)/C(2n,2k))`` on the robustness."""
    if half_degree < 1:
        raise ValueError("half_degree must be >= 1")
    return math.sqrt(
        math.comb(n_modes, half_degree) / math.comb(2 * n_modes, 2 * half_degree)
    )


def ho_bound_proven(half_degree: int) -> bool:
    """The bound is proven for half-degree at most 5, conjectured beyond."""
    return half_degree <= 5


def thm2_upper_bound(n_modes: int, degree: int) -> float | None:
    """Best proven upper bound on the degree-k robustness, None if unproven."""
    if degree % 2:
        return None
    half = degree // 2
    if half == 1:
        return 1.0 / math.sqrt(2 * n_modes - 1)
    if ho_bound_proven(half):
        return ho_bound(n_modes, half)
    return None


def comparison_rows(n_values, half_degree: int, construction_seed: int = 0):
    """Rows of the strategy-comparison table for a range of mode counts.

    Columns: n, k, eta_construction (explicit ensemble, min over
    observables of the best single-rotation sharpness), eta_ternary,
    shadow_jm_bound, ho_bound, thm2_upper.  Construction entries are blank
    where the ensemble is infeasible.
    """
    rows = []
    for n in n_values:
        if half_degree > n:
            continue
        ens = _construction(n, half_degree, construction_seed)
        eta_construction = None if ens is None else ens.coverage.min_eta
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


def _construction(n_modes: int, half_degree: int, seed: int):
    """The explicit ensemble of the construction, or None where it is infeasible.

    A size with ``2k > l + 1`` is refused before the builders are loaded.
    """
    from majorana_jm.ensemble import CoverageError
    from majorana_jm.turan import construction_fits

    if not construction_fits(n_modes, half_degree):
        return None
    from majorana_jm.matching import degree2_ensemble, degree2k_ensemble

    try:
        if half_degree == 1:
            return degree2_ensemble(n_modes)
        return degree2k_ensemble(n_modes, half_degree, seed=seed)
    except (ValueError, CoverageError):
        return None
