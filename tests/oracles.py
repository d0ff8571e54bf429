"""Oracles for the tests: closed forms and checks of the paper that the library does not run.

The optimal degree-1 parent (its effects, marginals, shots and variance)
and the minor-expansion law of a compiled Gaussian unitary.  The tests
compare the library against them; no command and no demo calls them.
"""

import math

import numpy as np

from majorana_jm.algebra import (
    apply_monomial,
    canonical_monomial,
    dense_matrix,
    parity,
    subsets_of_size,
)
from majorana_jm.gaussian import _as_array, compile_gaussian_unitary, submatrix_det
from majorana_jm.sampling import FermionicState, _block_size, _conjugated, _eigenstates, _mask_bits


def x_string_from_subset(mask: int, n_modes: int) -> np.ndarray:
    """Sign string of conjugation by the monomial with support ``mask``.

    ``x_j = (-1)^(|X| - [j in X])``; an array of masks gives one row per mask.
    """
    masks = np.asarray(mask, dtype=np.uint64)[..., None]
    inside = masks >> np.arange(2 * n_modes, dtype=np.uint64) & np.uint64(1)
    return (parity(masks) * parity(inside)).astype(np.int8)


def subset_from_x_string(signs) -> int:
    """Inverse of :func:`x_string_from_subset` (unique support mask)."""
    neg = sum(1 << j for j, s in enumerate(signs) if s < 0)
    return neg ^ ((1 << len(signs)) - 1) if neg.bit_count() % 2 else neg


def degree1_parent_effect(etas, outcomes) -> np.ndarray:
    """Closed-form biased parent for the 2n single generators.

    ``G(e) = 2^(-2n) (1 + sum_j e_j eta_j gamma_j)`` requires
    ``sum eta_j^2 <= 1`` for positivity.
    """
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
    etas = np.asarray(etas, dtype=float)
    n_modes = len(etas) // 2
    dim = 2 ** n_modes
    g = dense_matrix(canonical_monomial(n_modes, [index]))
    return (np.eye(dim) + outcome * etas[index - 1] * g) / 2.0


def degree1_variance(coeffs, state: FermionicState) -> float:
    """Variance of the optimal uniform degree-1 estimator: 2n sum a^2 - tr^2."""
    coeffs = np.asarray(coeffs, dtype=float)
    n2 = len(coeffs)
    mean = sum(
        c * state.expectation([j + 1]) for j, c in enumerate(coeffs) if c != 0.0
    )
    return float(n2 * np.sum(coeffs ** 2) - mean ** 2)


def simulate_degree1_shots(state: FermionicState, n_shots: int, rng):
    """Shots of the optimal uniform degree-1 parent.

    Rotates the first generator onto ``sum_j gamma_j / sqrt(2n)``, conjugates
    by a uniform monomial and measures the single binary outcome; returns
    the per-shot sign strings ``e_j = q * x_j`` as an (L, 2n) array.
    """
    n = state.n_modes
    two_n = 2 * n
    eta = 1.0 / math.sqrt(two_n)
    target = np.full(two_n, eta)
    basis = np.linalg.qr(
        np.column_stack([target, np.eye(two_n)[:, 1:]])
    )[0]
    o = basis.T.copy()
    if o[0, 0] * target[0] < 0:
        o[0] = -o[0]
    u = compile_gaussian_unitary(o, n)
    rotated = u.conj().T @ apply_monomial(canonical_monomial(n, [1]), u)
    weights, rows = _eigenstates(state)
    masks = rng.integers(0, 2 ** two_n, size=n_shots, dtype=np.uint64)
    distinct, inverse = np.unique(masks, return_inverse=True)
    means = np.empty(len(distinct))
    step = _block_size(rows)
    for b in range(0, len(distinct), step):
        # tr(gamma_X^dag R gamma_X rho) = sum_j w_j <gamma_X v_j| R |gamma_X v_j>
        block = _conjugated(rows, *_mask_bits(distinct[b : b + step], n))
        means[b : b + step] = weights @ np.real(np.sum(block.conj() * (block @ rotated.T), axis=-1))
    p_plus = (1.0 + means[inverse]) / 2.0
    qs = np.where(rng.random(n_shots) < p_plus, 1, -1).astype(np.int8)[:, None]
    return qs * x_string_from_subset(masks, n)


def minor_expansion_check(o, subset, n_modes: int) -> float:
    """Residual of the minor-expansion law for the observable on ``subset``.

    Evaluates ``U^dag gamma_S U - sum_S' det(O_{S,S'}) gamma_S'`` in max norm;
    the sum runs over all supports of size ``|S|``.
    """
    arr = _as_array(o)
    u = compile_gaussian_unitary(arr, n_modes)
    g = dense_matrix(canonical_monomial(n_modes, subset))
    rotated = u.conj().T @ g @ u
    acc = np.zeros_like(rotated)
    for other in subsets_of_size(2 * n_modes, len(tuple(subset))):
        d = submatrix_det(arr, subset, other)
        if d != 0.0:
            acc = acc + d * dense_matrix(canonical_monomial(n_modes, other))
    return float(np.max(np.abs(rotated - acc)))

