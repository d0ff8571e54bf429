"""Exact algebra of Majorana monomials.

A monomial is stored as a support bitmask over the 2n Majorana generators
together with an integer power of i, so all products, conjugations and sign
rules are exact.  Dense matrices are produced through the Jordan-Wigner
image and are only needed for small mode counts.  Hot paths never build
them: under Jordan-Wigner a monomial is a signed permutation of the basis,
``gamma |b> = d[b] |b ^ flip>``, which :func:`monomial_action` computes in
closed form from the support bits and :func:`apply_monomial` and
:func:`monomial_trace` use in O(2^n) work per vector or trace.
:func:`majorana_jm.paper.to_pauli` and :func:`majorana_jm.paper.pauli_dense`
are the independent letter-by-letter and Kronecker-product oracle.

Conventions
-----------
* Generator indices are 1-based at every public interface; bitmasks are
  0-based internally (bit ``j-1`` encodes generator ``j``).
* A canonical observable on support ``S`` carries the phase ``i**C(|S|,2)``
  in front of the ascending product of generators.  For even ``|S|`` this is
  the standard Hermitian normalisation; for odd ``|S|`` it is the unique
  extension that keeps the observable Hermitian.
* Dense matrices tensor qubit ``n`` down to qubit ``1``, i.e. qubit 1 lives
  in the least-significant bit of the basis index.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

__all__ = [
    "ScaledMonomial",
    "DENSE_LIMIT",
    "canonical_monomial",
    "monomial_product",
    "monomial_bits",
    "monomial_action",
    "parity",
    "apply_monomial",
    "monomial_trace",
    "dense_matrix",
    "monomial_to_str",
    "monomial_from_str",
    "subsets_of_size",
    "support_to_indices",
    "indices_to_support",
]

# Dense realizations are gated to keep memory/time bounded.
DENSE_LIMIT = 12

_PHASE_VALUES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_PHASE_ARRAY = np.array(_PHASE_VALUES)
_PHASE_LABELS = ("+1", "+i", "-1", "-i")


def indices_to_support(indices, n_modes: int) -> int:
    """1-based generator indices -> support bitmask."""
    mask = 0
    for j in indices:
        if not 1 <= j <= 2 * n_modes:
            raise ValueError(f"index {j} outside 1..{2 * n_modes}")
        bit = 1 << (j - 1)
        if mask & bit:
            raise ValueError(f"repeated index {j}")
        mask |= bit
    return mask


def support_to_indices(support: int) -> tuple[int, ...]:
    """Support bitmask -> ascending 1-based generator indices."""
    out = []
    j = 1
    while support:
        if support & 1:
            out.append(j)
        support >>= 1
        j += 1
    return tuple(out)


def subsets_of_size(n_items: int, size: int) -> list[tuple[int, ...]]:
    """All ascending ``size``-subsets of ``{1..n_items}`` in lexicographic order."""
    return [tuple(c) for c in itertools.combinations(range(1, n_items + 1), size)]


class ScaledMonomial(namedtuple("ScaledMonomial", "n_modes support phase_quarter")):
    """``i**phase_quarter`` times the ascending product of generators in ``support``.

    A tuple ``(n_modes, support, phase_quarter)``: it compares equal to a
    plain tuple of the same fields.
    """

    __slots__ = ()

    def __new__(cls, n_modes: int, support: int, phase_quarter: int):
        if n_modes < 1:
            raise ValueError("n_modes must be positive")
        if support >> (2 * n_modes):
            raise ValueError("support outside the 2n generators")
        return super().__new__(cls, n_modes, support, phase_quarter % 4)

    @property
    def indices(self) -> tuple[int, ...]:
        return support_to_indices(self.support)

    @property
    def degree(self) -> int:
        return self.support.bit_count()

    @property
    def phase(self) -> complex:
        return _PHASE_VALUES[self.phase_quarter]

    def __str__(self) -> str:
        return monomial_to_str(self)


def _as_support(indices, n_modes: int | None = None) -> int:
    """Support mask of a mask or of 1-based indices (checked up to ``n_modes`` or the largest)."""
    if isinstance(indices, int):
        return indices
    if isinstance(indices, ScaledMonomial):
        raise TypeError("expected a support mask or generator indices, not a monomial")
    indices = tuple(indices)
    if n_modes is None:
        n_modes = (max(indices, default=0) + 1) // 2
    return indices_to_support(indices, n_modes)


def canonical_monomial(n_modes: int, indices) -> ScaledMonomial:
    """Hermitian observable on a 1-based index set or a support bitmask."""
    support = _as_support(indices, n_modes)
    return ScaledMonomial(n_modes, support, math.comb(support.bit_count(), 2) % 4)


def _crossing_count(mask_a: int, mask_b: int) -> int:
    """Number of pairs (a in A, b in B) with a > b."""
    count = 0
    b = mask_b
    while b:
        low = b & -b
        count += (mask_a >> low.bit_length()).bit_count()
        b ^= low
    return count


def monomial_product(a: ScaledMonomial, b: ScaledMonomial) -> ScaledMonomial:
    """Product ``a * b`` with exact phase.

    The support is the symmetric difference; the quarter-phase picks up
    ``(-1)^inv`` from moving each generator of ``b`` past the larger
    generators of ``a`` (squares ``gamma_j**2 = 1`` drop out without sign).
    """
    if a.n_modes != b.n_modes:
        raise ValueError("mode-count mismatch")
    inv = _crossing_count(a.support, b.support)
    phase = (a.phase_quarter + b.phase_quarter + 2 * inv) % 4
    return ScaledMonomial(a.n_modes, a.support ^ b.support, phase)


def parity(bits) -> np.ndarray:
    """``(-1)^popcount`` of each bitmask, as floats."""
    return 1.0 - 2.0 * (np.bitwise_count(bits) & 1)


def monomial_bits(n_modes: int, support, phase_quarter):
    """Integer closed form ``(flip, phase, zmask)`` of ``i**phase_quarter gamma_support``.

    ``gamma |b> = phase (-1)^popcount(b & zmask) |b ^ flip>``.  Elementwise
    when ``support`` and ``phase_quarter`` are integer arrays.  Generators
    act right to left; generator ``g`` (0-based) flips qubit ``h = g >> 1``
    with diagonal ``(-1)^popcount(b & z_g)``, where ``z_g`` holds the qubits
    below ``h`` plus ``h`` itself and a factor ``i`` when ``g`` is odd
    (``Y = i X Z``).  Flips made earlier sit on qubits ``>= h`` and never
    on ``h`` itself for odd ``g``, so they leave the diagonals unchanged: qubit
    ``h`` flips when one generator of the pair ``(2h, 2h+1)`` is present,
    ``zmask`` bit ``h`` is the parity of the support above the pair
    plus the odd generator ``2h+1``, and each odd generator adds one ``i``.
    """
    flip = zmask = above = odd = 0
    for h in reversed(range(n_modes)):
        even_bit, odd_bit = support >> 2 * h & 1, support >> 2 * h + 1 & 1
        flip = flip | (even_bit ^ odd_bit) << h
        zmask = zmask | (above ^ odd_bit) << h
        above = above ^ even_bit ^ odd_bit
        odd = odd + odd_bit
    return flip, _PHASE_ARRAY[(phase_quarter + odd) % 4], zmask


def monomial_action(m: ScaledMonomial) -> tuple[int, np.ndarray]:
    """Matrix-free Jordan-Wigner action ``gamma |b> = d[b] |b ^ flip>``.

    The diagonal ``d`` spelled out from :func:`monomial_bits`.
    """
    flip, phase, zmask = monomial_bits(m.n_modes, m.support, m.phase_quarter)
    basis = np.arange(2 ** m.n_modes, dtype=np.int64)
    return flip, phase * parity(basis & zmask)


def apply_monomial(m: ScaledMonomial, v: np.ndarray) -> np.ndarray:
    """``gamma @ v`` for a vector, or column-wise for a matrix, in O(size)."""
    flip, d = monomial_action(m)
    v = np.asarray(v)
    scaled = d.reshape((-1,) + (1,) * (v.ndim - 1)) * v
    return scaled[np.arange(len(d)) ^ flip]


def monomial_trace(m: ScaledMonomial, rho: np.ndarray) -> complex:
    """``tr(gamma rho) = sum_b d[b] rho[b, b ^ flip]`` in O(2^n)."""
    flip, d = monomial_action(m)
    basis = np.arange(len(d))
    return complex(np.dot(d, rho[basis, basis ^ flip]))


def dense_matrix(m: ScaledMonomial) -> np.ndarray:
    """Dense ``2^n`` realization, the action scattered into a zero matrix.

    Uncached oracle; :func:`majorana_jm.paper.pauli_dense` of ``to_pauli`` is
    the independent Kronecker-product check.
    """
    if m.n_modes > DENSE_LIMIT:
        raise ValueError(f"dense limit {DENSE_LIMIT} exceeded")
    flip, d = monomial_action(m)
    basis = np.arange(len(d))
    out = np.zeros((len(d), len(d)), dtype=complex)
    out[basis ^ flip, basis] = d
    return out


def monomial_to_str(m: ScaledMonomial) -> str:
    """Text form ``<phase>*gamma[j1,j2,...]`` with ascending 1-based indices."""
    inner = ",".join(str(j) for j in m.indices)
    return f"{_PHASE_LABELS[m.phase_quarter]}*gamma[{inner}]"


def monomial_from_str(text: str, n_modes: int) -> ScaledMonomial:
    """Parse the ``<phase>*gamma[...]`` text form (phase optional, default +1)."""
    s = text.strip()
    phase = 0
    if "*" in s:
        head, s = s.split("*", 1)
        head = head.strip()
        if head not in _PHASE_LABELS:
            raise ValueError(f"unknown phase {head!r}")
        phase = _PHASE_LABELS.index(head)
    s = s.strip()
    if not (s.startswith("gamma[") and s.endswith("]")):
        raise ValueError(f"cannot parse monomial {text!r}")
    body = s[len("gamma[") : -1].strip()
    indices = [int(tok) for tok in body.split(",")] if body else []
    if indices != sorted(indices):
        raise ValueError("indices must be ascending")
    support = indices_to_support(indices, n_modes)
    return ScaledMonomial(n_modes, support, phase)
