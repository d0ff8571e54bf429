"""Sharpness accounting of the parent POVM, and its outcome-probability oracle.

:class:`SharpnessTable` reads an ensemble's minor tables, one per even
degree, for the estimators; :func:`two_observable_correlation` couples two
observables' assignments for the single-rotation variance.  The dense
effects ``G(q, x)`` live in :mod:`majorana_jm.effects`, which only
``validate`` and the oracle :func:`outcome_probabilities` load, so a
command that reads sharpness compiles none of them.
"""

from __future__ import annotations

import math

import numpy as np

from majorana_jm.ensemble import COVERAGE_TOL, MeasurementEnsemble
from majorana_jm.matching import CoverageRow, MinorTable, scan_minors

__all__ = [
    "PARENT_ORACLE_LIMIT",
    "SharpnessTable",
    "outcome_probabilities",
    "sharpness_table",
    "two_observable_correlation",
]

PARENT_ORACLE_LIMIT = 5


def outcome_probabilities(o_arr, state_density: np.ndarray, n_modes: int) -> np.ndarray:
    """Exact ``tr(G(q, x) rho)`` table, shape ``(4^n, 2^n)``.

    A test oracle: no CLI path builds it (the exact mode is
    :func:`majorana_jm.sampling.analytic_estimates`).
    """
    from majorana_jm.algebra import canonical_monomial, monomial_trace
    from majorana_jm.effects import _sign_grids

    if n_modes > PARENT_ORACLE_LIMIT:
        raise ValueError(f"dense parent oracle gated to n <= {PARENT_ORACLE_LIMIT}")
    terms, q_grid, x_grid, q_signs, x_signs = _sign_grids(o_arr, n_modes)
    weights = np.array([t[2] for t in terms])
    # tr(gamma_S rho) from the monomial action, once per distinct support
    trace_of = {}
    for _, cols, _ in terms:
        if cols not in trace_of:
            g = canonical_monomial(n_modes, cols)
            trace_of[cols] = np.real(monomial_trace(g, state_density))
    traces = np.array([trace_of[cols] for _, cols, _ in terms])
    table = 1.0 + (x_signs * (weights * traces)) @ q_signs.T
    return table / 2 ** (3 * n_modes)


class SharpnessTable:
    """Per-observable sharpness bookkeeping for an ensemble.

    Reads the ensemble's :class:`MinorTable`: per-matrix assignments (each
    rotation's best R and signed minor) drive the estimators, and ``rows``
    are the primary degree's coverage rows, the best (r, R) per observable
    among those winners, ties to the smallest r.  Other even degrees are
    scanned lazily on first access, so mixed-degree Hamiltonians share one
    table.  A subset is ranked once per lookup, and :meth:`minors`,
    :meth:`assignment`, :meth:`mean_sharpness` and the estimators' sign
    rule read that one column of every rotation's assignment.
    ``mean_sharpness`` gives the exact sharpness of the uniformly
    randomized parent, at least the worst-case discount ``eta_S / N``.
    """

    def __init__(self, ensemble: MeasurementEnsemble):
        self.n_modes = ensemble.n_modes
        self.degree_k = ensemble.degree_k
        self.n_matrices = ensemble.n_matrices
        self._arrays = ensemble.arrays()
        self._tables: dict[int, MinorTable] = {self.degree_k: ensemble.coverage}

    def _table(self, half: int) -> MinorTable:
        if not 1 <= half <= self.n_modes:
            raise ValueError(f"no degree-{2 * half} observables on {self.n_modes} modes")
        if half not in self._tables:
            self._tables[half] = scan_minors(self._arrays, self.n_modes, half)
        return self._tables[half]

    def _locate(self, subset):
        key = tuple(sorted(subset))
        if len(key) % 2 or not key:
            raise KeyError(f"not an even-degree support: {key}")
        table = self._table(len(key) // 2)
        return table, table.index[key]

    def _column(self, subset):
        """The degree's row sets, then each rotation's row set index and signed minor, from one rank."""
        table, i = self._locate(subset)
        best, minors = table.per_matrix
        return table.row_sets, best[:, i], minors[:, i]

    @property
    def coverage(self) -> MinorTable:
        """The primary degree's minor table."""
        return self._table(self.degree_k)

    @property
    def rows(self) -> tuple[CoverageRow, ...]:
        return self.coverage.rows

    def row_for(self, subset) -> CoverageRow:
        table, i = self._locate(subset)
        return table.row_at(i)

    def minors(self, subset) -> np.ndarray:
        """Each rotation's assigned signed minor ``m_r(S)`` for a subset, shape ``(N,)``."""
        return self._column(subset)[2]

    def mean_sharpness(self, subset) -> float:
        """Sharpness of the uniformly randomized parent for this observable.

        Zero when no rotation's minor exceeds ``COVERAGE_TOL``, the threshold
        below which :meth:`assignment` leaves a rotation unassigned.
        """
        minors = np.abs(self.minors(subset))
        return float(minors.mean()) if minors.max() > COVERAGE_TOL else 0.0

    def assignment(self, r: int, subset):
        """Best rows and signed minor of matrix ``r`` (1-based) for a subset."""
        row_sets, best, minors = self._column(subset)
        det = float(minors[r - 1])
        return (row_sets[int(best[r - 1])] if abs(det) > COVERAGE_TOL else None), det


def sharpness_table(ensemble: MeasurementEnsemble) -> SharpnessTable:
    return SharpnessTable(ensemble)


def two_observable_correlation(o_arr, first, second, n_modes: int) -> float:
    """Coefficient ``c`` with ``E[e_S e_S'] = c * tr(gamma_{S xor S'} rho)``.

    ``first`` and ``second`` are ``(R, S)`` assignments.  The coefficient is
    ``det(O_{R xor R', S xor S'}) / (tau tau')`` when the two symmetric
    differences have equal size and zero otherwise.
    """
    arr = np.asarray(o_arr, dtype=float)
    (r1, s1), (r2, s2) = first, second
    r1, s1, r2, s2 = map(lambda t: tuple(sorted(t)), (r1, s1, r2, s2))
    rd = tuple(sorted(set(r1) ^ set(r2)))
    sd = tuple(sorted(set(s1) ^ set(s2)))
    if len(rd) != len(sd):
        return 0.0
    from majorana_jm.gaussian import submatrix_det

    tau1 = submatrix_det(arr, r1, s1)
    tau2 = submatrix_det(arr, r2, s2)
    if tau1 == 0.0 or tau2 == 0.0:
        raise ValueError("assignments must have nonzero minors")
    cross = submatrix_det(arr, rd, sd)
    return float(cross / (math.copysign(1.0, tau1) * math.copysign(1.0, tau2)))
