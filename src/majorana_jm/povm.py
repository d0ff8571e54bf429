"""The parent POVM, its marginals, and sharpness accounting.

The dense effect oracle evaluates

    G(q, x) = 2^(-3n) (1 + sum_k sum_R q_R sum_S x_S det(O_{R,S}) gamma_S)

with q in {+-1}^n the computational outcomes and x in {+-1}^(2n) the sign
string equivalent to the sampled conjugation monomial.  :func:`effect_table`
is the one place these effects are formed; a marginal is the sum of its
entries that the post-processing maps to one outcome.  Everything here is
dense and gated to small mode counts; estimation paths never materialize
these tables, and only these dense oracles import
:mod:`majorana_jm.algebra`, so a command that reads sharpness loads none
of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from majorana_jm.matching import (
    COVERAGE_TOL,
    CoverageRow,
    MeasurementEnsemble,
    MinorTable,
    diag_index_sets,
    minor_dets,
    scan_minors,
)

__all__ = [
    "PARENT_ORACLE_LIMIT",
    "SharpnessTable",
    "PovmReport",
    "minor_terms",
    "effect_table",
    "outcome_probabilities",
    "marginal_effect",
    "sharpness_table",
    "two_observable_correlation",
    "povm_validate",
    "parent_validate",
    "x_string_from_subset",
    "subset_from_x_string",
    "degree1_parent_effect",
    "degree1_marginal",
]

PARENT_ORACLE_LIMIT = 5
# random (R, S) marginals parent_validate checks per rotation
_MARGINAL_CHECKS = 3


def x_string_from_subset(mask: int, n_modes: int) -> np.ndarray:
    """Sign string of conjugation by the monomial with support ``mask``.

    ``x_j = (-1)^(|X| - [j in X])``; an array of masks gives one row per mask.
    """
    from majorana_jm.algebra import parity

    masks = np.asarray(mask, dtype=np.uint64)[..., None]
    inside = masks >> np.arange(2 * n_modes, dtype=np.uint64) & np.uint64(1)
    return (parity(masks) * parity(inside)).astype(np.int8)


def subset_from_x_string(signs) -> int:
    """Inverse of :func:`x_string_from_subset` (unique support mask)."""
    neg = sum(1 << j for j, s in enumerate(signs) if s < 0)
    return neg ^ ((1 << len(signs)) - 1) if neg.bit_count() % 2 else neg


def minor_terms(o_arr: np.ndarray, n_modes: int):
    """All nonzero minors ``det(O_{R,S})`` over diagonal R and every even S.

    Returns a list of ``(R, S, value)`` with 1-based index tuples, for
    ``|R| = |S| = 2k`` and every ``k = 1..n``, ordered by ``k`` and then
    row-major over ``(R, S)``.
    """
    terms = []
    for half in range(1, n_modes + 1):
        rows_sets = diag_index_sets(n_modes, half)
        cols_sets = list(
            itertools.combinations(range(1, 2 * n_modes + 1), 2 * half)
        )
        dets = minor_dets(o_arr, np.array(rows_sets) - 1, np.array(cols_sets) - 1)
        for i, j in np.argwhere(np.abs(dets) > 1e-14):
            terms.append((rows_sets[i], cols_sets[j], float(dets[i, j])))
    return terms


def _sign_grids(o_arr, n_modes):
    """Per-term outcome sign tables over the q-grid and the x-grid.

    Grid row ``idx`` holds ``(-1)^bit_j(idx)``, so a term's signs are ``parity(idx & mask)``.
    """
    from majorana_jm.algebra import indices_to_support, parity

    terms = minor_terms(np.asarray(o_arr, dtype=float), n_modes)
    n = n_modes
    q_idx = np.arange(2 ** n)
    x_idx = np.arange(4 ** n)
    q_grid = 1 - 2 * (q_idx[:, None] >> np.arange(n) & 1)
    x_grid = 1 - 2 * (x_idx[:, None] >> np.arange(2 * n) & 1)
    q_signs = np.empty((2 ** n, len(terms)), dtype=np.int64)
    x_signs = np.empty((4 ** n, len(terms)), dtype=np.int64)
    for m, (rows, cols, _) in enumerate(terms):
        q_signs[:, m] = parity(q_idx & indices_to_support([v // 2 for v in rows[1::2]], n))
        x_signs[:, m] = parity(x_idx & indices_to_support(cols, n))
    return terms, q_grid, x_grid, q_signs, x_signs


def effect_table(o_arr, n_modes: int):
    """Every effect ``G(q, x)`` as a stacked array, plus the outcome grids.

    Outcome order: x-string index major, q index minor; grid rows use bit
    ``j`` of the index for entry ``j`` (+1 for bit 0).
    """
    from majorana_jm.algebra import canonical_monomial, dense_matrix

    if n_modes > 4:
        raise ValueError("full effect table gated to n <= 4 (2^(3n) entries)")
    terms, q_grid, x_grid, q_signs, x_signs = _sign_grids(o_arr, n_modes)
    weights = np.array([t[2] for t in terms])
    mats = np.stack(
        [dense_matrix(canonical_monomial(n_modes, cols)) for _, cols, _ in terms]
    )
    dim = 2 ** n_modes
    coeff = np.einsum("xm,qm->xqm", x_signs, q_signs).reshape(-1, len(terms))
    effects = np.tensordot(coeff * weights, mats, axes=(1, 0))
    effects += np.eye(dim)
    effects /= 2 ** (3 * n_modes)
    return (q_grid, x_grid), effects.reshape(len(x_grid), len(q_grid), dim, dim)


def outcome_probabilities(o_arr, state_density: np.ndarray, n_modes: int) -> np.ndarray:
    """Exact ``tr(G(q, x) rho)`` table, shape ``(4^n, 2^n)``.

    A test oracle: no CLI path builds it (the exact mode is
    :func:`majorana_jm.sampling.analytic_estimates`).
    """
    from majorana_jm.algebra import canonical_monomial, monomial_trace

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


def _marginal(table, rows, cols, det, outcome: int) -> np.ndarray:
    """Sum of the table's effects ``G(q, x)`` whose outcome ``tau x_S q_R`` is ``outcome``.

    ``table`` is :func:`effect_table`'s result; ``tau`` is the sign of
    ``det``, and +1 for a zero minor (``|det| <= 1e-14``, the
    :func:`minor_terms` cut).
    """
    (q_grid, x_grid), effects = table
    tau = -1 if det < -1e-14 else 1
    q_r = np.prod(q_grid[:, [(v - 1) // 2 for v in rows[::2]]], axis=1)
    x_s = np.prod(x_grid[:, [c - 1 for c in cols]], axis=1)
    return effects[tau * np.multiply.outer(x_s, q_r) == outcome].sum(axis=0)


def marginal_effect(o_arr, rows, cols, outcome: int, n_modes: int) -> np.ndarray:
    """Post-processed marginal of the parent for observable ``cols`` via ``rows``.

    The literal sum of :func:`effect_table`'s ``G(q, x)`` over all outcomes
    mapped to ``outcome`` by ``sign(det(O_{R,S})) x_S q_R``.  Equals
    ``(1 + outcome*|det| gamma_S)/2``.
    """
    from majorana_jm.gaussian import submatrix_det

    arr = np.asarray(o_arr, dtype=float)
    rows = tuple(sorted(rows))
    cols = tuple(sorted(cols))
    if rows not in diag_index_sets(n_modes, len(rows) // 2):
        raise ValueError("rows must be a union of standard pairs")
    return _marginal(effect_table(arr, n_modes), rows, cols, submatrix_det(arr, rows, cols), outcome)


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


@dataclass(frozen=True)
class PovmReport:
    completeness_residual: float
    min_eigenvalue: float
    n_effects: int

    @property
    def valid(self) -> bool:
        return self.completeness_residual < 1e-10 and self.min_eigenvalue > -1e-10


def povm_validate(effects) -> PovmReport:
    """Completeness and positivity of an iterable of dense effects."""
    effects = [np.asarray(e) for e in effects]
    dim = effects[0].shape[0]
    total = sum(effects)
    residual = float(np.max(np.abs(total - np.eye(dim))))
    min_eig = min(float(np.linalg.eigvalsh(e)[0]) for e in effects)
    return PovmReport(residual, min_eig, len(effects))


def parent_validate(o_arr, n_modes: int, rng=None):
    """Full dense validation of one parent rotation.

    Checks the effect table for positivity and completeness, and the
    post-processed binary marginals, sums over that one table, against
    ``(1 + e |det| gamma_S)/2``.  Returns a dict of worst residuals.
    """
    from majorana_jm.algebra import canonical_monomial, dense_matrix

    arr = np.asarray(o_arr, dtype=float)
    table = effect_table(arr, n_modes)
    dim = 2 ** n_modes
    report = povm_validate(table[1].reshape(-1, dim, dim))
    worst_marginal = 0.0
    rng = rng or np.random.default_rng(0)
    terms = minor_terms(arr, n_modes)
    candidates = [t for t in terms if abs(t[2]) > 1e-12] or terms
    for _ in range(_MARGINAL_CHECKS):
        rows, cols, det = candidates[int(rng.integers(0, len(candidates)))]
        gamma = dense_matrix(canonical_monomial(n_modes, cols))
        for e in (1, -1):
            marg = _marginal(table, rows, cols, det, e)
            target = (np.eye(dim) + e * abs(det) * gamma) / 2.0
            worst_marginal = max(worst_marginal, float(np.max(np.abs(marg - target))))
    return {
        "completeness_residual": report.completeness_residual,
        "min_eigenvalue": report.min_eigenvalue,
        "marginal_residual": worst_marginal,
    }


def degree1_parent_effect(etas, outcomes) -> np.ndarray:
    """Closed-form biased parent for the 2n single generators.

    ``G(e) = 2^(-2n) (1 + sum_j e_j eta_j gamma_j)`` requires
    ``sum eta_j^2 <= 1`` for positivity.
    """
    from majorana_jm.algebra import canonical_monomial, dense_matrix

    etas = np.asarray(etas, dtype=float)
    outcomes = np.asarray(outcomes, dtype=np.int64)
    if etas.shape != outcomes.shape or etas.ndim != 1 or len(etas) % 2:
        raise ValueError("need matching 2n-vectors")
    n_modes = len(etas) // 2
    dim = 2 ** n_modes
    acc = np.eye(dim, dtype=complex)
    for j, (eta, e) in enumerate(zip(etas, outcomes), start=1):
        if eta != 0.0:
            acc = acc + (e * eta) * dense_matrix(canonical_monomial(n_modes, [j]))
    return acc / 4 ** n_modes


def degree1_marginal(etas, index: int, outcome: int) -> np.ndarray:
    """Marginal of the degree-1 parent: ``(1 + e eta_j gamma_j)/2``."""
    from majorana_jm.algebra import canonical_monomial, dense_matrix

    etas = np.asarray(etas, dtype=float)
    n_modes = len(etas) // 2
    dim = 2 ** n_modes
    g = dense_matrix(canonical_monomial(n_modes, [index]))
    return (np.eye(dim) + outcome * etas[index - 1] * g) / 2.0
