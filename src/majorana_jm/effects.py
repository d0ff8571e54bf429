"""The dense effects of the parent POVM and the checks that ``validate`` runs on them.

The dense effect oracle evaluates

    G(q, x) = 2^(-3n) (1 + sum_k sum_R q_R sum_S x_S det(O_{R,S}) gamma_S)

with q in {+-1}^n the computational outcomes and x in {+-1}^(2n) the sign
string equivalent to the sampled conjugation monomial.  :func:`effect_table`
is the one place these effects are formed; a marginal is the sum of its
entries that the post-processing maps to one outcome.  Everything here is
dense and gated to small mode counts: ``validate`` runs it for n <= 3, and
no other command loads it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from majorana_jm.matching import diag_index_sets, minor_dets

__all__ = [
    "PovmReport",
    "minor_terms",
    "effect_table",
    "marginal_effect",
    "povm_validate",
    "parent_validate",
]

# random (R, S) marginals parent_validate checks per rotation
_MARGINAL_CHECKS = 3


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


class PovmReport(NamedTuple):
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
