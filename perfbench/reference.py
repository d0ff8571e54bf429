"""Reference values computed without ``majorana_jm``.

Everything here follows the conventions the README states, so a fault in
the library cannot hide in a check that reuses the library's own code:

* Jordan-Wigner generators with qubit 1 in the least-significant bit of the
  basis index, ``gamma_{2j-1} = Z..Z X_j`` and ``gamma_{2j} = Z..Z Y_j``;
* the canonical observable on a support ``S`` is ``i**C(|S|,2)`` times the
  ascending product of its generators, so ``gamma[2j-1,2j] = -Z_j``;
* ensemble archives are zips of ``matrix_<r>.txt`` (size line, then
  row-major entries) plus ``metadata.json``;
* sharpness ``eta_S`` is the largest ``|det O_r[R, S]|`` over rotations ``r``
  and row sets ``R`` that are unions of ``k`` standard pairs ``{2j-1, 2j}``.
"""

from __future__ import annotations

import itertools
import json
import math
import zipfile

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def majorana_generators(n_modes: int) -> list[np.ndarray]:
    """Dense ``gamma_1 .. gamma_2n``; qubit 1 is the least-significant bit."""
    gens = []
    for j in range(1, n_modes + 1):
        for last in "XY":
            letters = ["Z"] * (j - 1) + [last] + ["I"] * (n_modes - j)
            mat = np.ones((1, 1), dtype=complex)
            for letter in reversed(letters):  # qubit n ends up most significant
                mat = np.kron(mat, _PAULI[letter])
            gens.append(mat)
    return gens


def observable(gens: list[np.ndarray], support) -> np.ndarray:
    """Canonical Hermitian observable ``i**C(|S|,2) gamma_{s1} gamma_{s2} ...``."""
    support = sorted(support)
    out = (1j) ** math.comb(len(support), 2) * np.eye(gens[0].shape[0], dtype=complex)
    for s in support:
        out = out @ gens[s - 1]
    return out


def expectations(vector: np.ndarray, n_modes: int, supports) -> list[float]:
    """``<psi| gamma_S |psi>`` for each support, from a pure state vector."""
    gens = majorana_generators(n_modes)
    return [
        float(np.real(vector.conj() @ observable(gens, s) @ vector)) for s in supports
    ]


def read_archive(path) -> tuple[dict, list[np.ndarray]]:
    """Metadata and rotations of an ensemble archive, parsed with the stdlib."""
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("metadata.json"))
        mats = []
        for r in range(1, meta["n_matrices"] + 1):
            lines = zf.read(f"matrix_{r}.txt").decode().split("\n")
            size = int(lines[0])
            rows = [[float(tok) for tok in ln.split()] for ln in lines[1 : size + 1]]
            mats.append(np.array(rows))
    return meta, mats


def orthogonality_error(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat @ mat.T - np.eye(mat.shape[0]))))


def diagonal_row_sets(n_modes: int, half_degree: int) -> list[tuple[int, ...]]:
    """Unions of ``half_degree`` standard pairs, as ascending 1-based tuples."""
    return [
        tuple(v for j in modes for v in (2 * j - 1, 2 * j))
        for modes in itertools.combinations(range(1, n_modes + 1), half_degree)
    ]


def minor(mat: np.ndarray, rows, cols) -> float:
    """``det O[rows, cols]`` for 1-based index tuples."""
    return float(np.linalg.det(mat[np.ix_([r - 1 for r in rows], [c - 1 for c in cols])]))


def best_minors(mats: list[np.ndarray], n_modes: int, supports) -> np.ndarray:
    """Largest ``|det O_r[R, S]|`` over rotations and diagonal row sets, per support."""
    stack = np.stack(mats)
    out = np.zeros(len(supports))
    for i, s in enumerate(supports):
        rows = np.array(diagonal_row_sets(n_modes, len(s) // 2)) - 1
        cols = np.array(s) - 1
        # (N, nR, 2k, 2k): every rotation's submatrix on every diagonal row set
        sub = stack[:, rows[:, :, None], cols[None, None, :]]
        out[i] = float(np.max(np.abs(np.linalg.det(sub))))
    return out


def ho_bound(n_modes: int, half_degree: int) -> float:
    """``sqrt(C(n,k) / C(2n,2k))``."""
    return math.sqrt(math.comb(n_modes, half_degree) / math.comb(2 * n_modes, 2 * half_degree))


def degree2_upper(n_modes: int) -> float:
    """``1 / sqrt(2n - 1)``, the exact degree-2 upper bound."""
    return 1.0 / math.sqrt(2 * n_modes - 1)
