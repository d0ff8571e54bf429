"""Orthogonal-matrix utilities and dense fermionic Gaussian unitaries.

``compile_gaussian_unitary`` turns any O in O(2n) into the dense unitary
whose conjugation action rotates the generator vector by O.  Rotations with
determinant -1 are handled by splitting off conjugation with the last
generator, whose orthogonal action is diag(-1, ..., -1, +1).  The Givens
factors of adjacent generators act on at most two adjacent qubits, so runs
of them are fused into 4x4 gates on a window of the rows of ``u^T``; the
compile holds ``u^T`` and one scratch array of the same size.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

__all__ = [
    "OrthogonalMatrix",
    "ORTHOGONALITY_TOL",
    "givens_factors",
    "compile_gaussian_unitary",
    "submatrix_det",
    "random_orthogonal",
]

ORTHOGONALITY_TOL = 1e-12


class OrthogonalMatrix(namedtuple("OrthogonalMatrix", "entries")):
    """Real square matrix certified orthogonal at construction.

    A one-field tuple: read the array from ``entries``, not ``np.asarray(self)``.
    """

    __slots__ = ()

    def __new__(cls, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        gram = arr @ arr.T - np.eye(arr.shape[0])
        if np.max(np.abs(gram)) > ORTHOGONALITY_TOL:
            raise ValueError(
                f"orthogonality gate failed: residual {np.max(np.abs(gram)):.3e}"
            )
        arr.setflags(write=False)
        return super().__new__(cls, arr)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def det(self) -> float:
        return float(np.linalg.det(self.entries))


def _as_array(o) -> np.ndarray:
    if isinstance(o, OrthogonalMatrix):
        return o.entries
    return OrthogonalMatrix(np.asarray(o, dtype=float)).entries


def givens_factors(o) -> tuple[list[tuple[int, int, float]], bool]:
    """Factor O into plane rotations, column-by-column elimination.

    Returns ``(rotations, flip)`` such that, with ``K = diag(-1,..,-1,+1)``,

        O = (K if flip else I) @ G(i1,j1,t1) @ G(i2,j2,t2) @ ...

    where ``G(i,j,t)`` is the rotation acting on 0-based coordinates
    ``(i, j)`` as ``e_i -> cos t e_i + sin t e_j``.  The elimination order is
    deterministic so compiled unitaries are reproducible.
    """
    a = _as_array(o).copy()
    dim = a.shape[0]
    flip = np.linalg.det(a) < 0
    if flip:
        # pre-compose with K so the remaining factor lies in SO(dim)
        k = np.ones(dim)
        k[:-1] = -1.0
        a = k[:, None] * a
    rotations: list[tuple[int, int, float]] = []
    for col in range(dim - 1):
        for row in range(dim - 1, col, -1):
            x, y = a[row - 1, col], a[row, col]
            if abs(y) < 1e-15:
                continue
            theta = math.atan2(y, x)
            c, s = math.cos(theta), math.sin(theta)
            upper = c * a[row - 1] + s * a[row]
            lower = -s * a[row - 1] + c * a[row]
            a[row - 1], a[row] = upper, lower
            rotations.append((row - 1, row, theta))
    # a is now diagonal +-1 with det +1; clear paired -1 signs with pi-rotations
    signs = np.sign(np.diag(a))
    negatives = [i for i in range(dim) if signs[i] < 0]
    if len(negatives) % 2 != 0:
        raise AssertionError("determinant bookkeeping failed")
    for i, j in zip(negatives[::2], negatives[1::2]):
        rotations.append((i, j, math.pi))
        a[i] *= -1.0
        a[j] *= -1.0
    # R_k ... R_1 (K O) = I, hence (K O) = R_1^T R_2^T ... R_k^T
    factors = [(i, j, -theta) for (i, j, theta) in rotations]
    return factors, bool(flip)


def _window(mask: int, n_modes: int) -> int | None:
    """``lo`` of a window of adjacent qubits ``lo, lo + 1`` that holds ``mask``, else None."""
    low = (mask & -mask).bit_length() - 1
    if n_modes < 2 or mask.bit_length() - 1 - low > 1:
        return None
    return min(low, n_modes - 2)


def _gate_steps(factors, n_modes: int) -> list:
    """The Givens factors as steps on the rows of ``u^T``, consecutive ones fused.

    Right-multiplying ``u`` by ``F = cos(t/2) + sin(t/2) gamma_i gamma_j``
    left-multiplies ``u^T`` by ``F^T``.  A run of consecutive factors whose
    Jordan-Wigner actions (``flip | zmask``) lie on two adjacent qubits
    ``lo, lo + 1`` becomes one step ``(lo, (F_1 ... F_m)^T)`` with the 4x4
    product taken on that window; every factor of adjacent generators fits a
    window.  A factor that fits none (a closing pi-rotation of distant
    generators, or any factor at n = 1) is a step
    ``(None, (theta, flip, phase, zmask))``.
    """
    from majorana_jm.algebra import monomial_bits, parity

    theta = np.array([t for _, _, t in factors])
    pairs = np.array([1 << i | 1 << j for i, j, _ in factors], dtype=np.int64)
    flip, phase, zmask = monomial_bits(n_modes, pairs, 0)
    starts, spans = [], []
    for k, bits in enumerate((flip | zmask).tolist()):
        # a span that fits no window never grows into one, so a gather stays alone
        if spans and _window(spans[-1] | bits, n_modes) is not None:
            spans[-1] |= bits
        else:
            starts.append(k)
            spans.append(bits)
    windows = [_window(span, n_modes) for span in spans]
    bounds = starts + [len(factors)]
    lo = np.repeat(np.array([w or 0 for w in windows], dtype=np.int64), np.diff(bounds))
    # each factor on its window: (P @ gamma)[:, t] = P[:, t ^ flip] * d[t]
    local = np.arange(4)
    d = (np.sin(theta / 2.0) * phase)[:, None] * parity(local & (zmask >> lo)[:, None])
    mats = np.zeros((len(factors), 4, 4), dtype=complex)
    mats[np.arange(len(factors))[:, None], local ^ (flip >> lo & 3)[:, None], local] = d
    mats[:, local, local] += np.cos(theta / 2.0)[:, None]
    steps = []
    for w, a, b in zip(windows, bounds, bounds[1:]):
        if w is None:
            steps.append((None, (theta[a], flip[a], phase[a], zmask[a])))
        else:
            steps.append((w, functools.reduce(np.matmul, mats[a:b]).T))
    return steps


def compile_gaussian_unitary(o, n_modes: int) -> np.ndarray:
    """Dense unitary U with ``U^dag gamma_j U = sum_j' O[j,j'] gamma_j'``.

    The SO part is realized as a product of ``exp(theta/2 gamma_i gamma_j)``
    plane rotations from :func:`givens_factors`; a determinant of -1
    contributes one extra conjugation by the last generator.  The factors act
    on the rows of ``u^T``, fused by :func:`_gate_steps`: a window's 4x4 gate
    is one batched matmul over a reshaped view, and a factor outside every
    window is a signed row gather (its pair monomial is a signed
    permutation).  Each step costs O(4^n), and only ``u^T`` and one scratch
    array of the same size are held; the result is a transposed view.
    """
    # only compiles load the algebra: construct and validate never run one
    from majorana_jm.algebra import DENSE_LIMIT, canonical_monomial, monomial_action, parity

    arr = _as_array(o)
    if arr.shape[0] != 2 * n_modes:
        raise ValueError("matrix size must be 2 * n_modes")
    if n_modes > DENSE_LIMIT:
        raise ValueError(f"dense limit {DENSE_LIMIT} exceeded")
    factors, flip = givens_factors(arr)
    dim = 2 ** n_modes
    basis = np.arange(dim)
    ut = np.zeros((dim, dim), dtype=complex)
    if flip:
        # gamma_2n |b> = d[b] |b ^ mask>, so its transpose holds d[b] at (b, b ^ mask)
        mask, d = monomial_action(canonical_monomial(n_modes, [2 * n_modes]))
        ut[basis, basis ^ mask] = d
    else:
        ut[basis, basis] = 1.0
    scratch = np.empty_like(ut)
    for lo, step in _gate_steps(factors, n_modes):
        if lo is None:
            theta, mask, phase, zmask = step
            # (u @ gamma)[:, b] = u[:, b ^ mask] * d[b]
            np.take(ut, basis ^ mask, axis=0, out=scratch)
            scratch *= (math.sin(theta / 2.0) * phase * parity(basis & zmask))[:, None]
            ut *= math.cos(theta / 2.0)
            ut += scratch
        else:
            shape = (dim >> lo + 2, 4, dim << lo)
            np.matmul(step, ut.reshape(shape), out=scratch.reshape(shape))
            ut, scratch = scratch, ut
    return ut.T


def submatrix_det(o, rows, cols) -> float:
    """Determinant of the submatrix with ascending 1-based rows/columns."""
    arr = _as_array(o) if not isinstance(o, np.ndarray) else o
    r = sorted(int(v) for v in rows)
    c = sorted(int(v) for v in cols)
    if len(r) != len(c):
        raise ValueError("row and column sets must have equal size")
    if not r:
        return 1.0
    sub = arr[np.ix_([v - 1 for v in r], [v - 1 for v in c])]
    if sub.shape == (1, 1):
        return float(sub[0, 0])
    if sub.shape == (2, 2):
        return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    return float(np.linalg.det(sub))


def random_orthogonal(size: int, rng, special: bool | None = None) -> OrthogonalMatrix:
    """Haar-ish random orthogonal matrix from a QR factorization.

    ``special=True``/``False`` forces determinant +1/-1; ``None`` keeps the
    sampled sign.
    """
    a = rng.standard_normal((size, size))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if special is not None:
        want = 1.0 if special else -1.0
        if np.linalg.det(q) * want < 0:
            q[[0, 1]] = q[[1, 0]]
    return OrthogonalMatrix(q)
