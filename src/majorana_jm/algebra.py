"""Exact algebra of Majorana monomials.

A monomial is stored as a support bitmask over the 2n Majorana generators
together with an integer power of i, so all products, conjugations and sign
rules are exact.  Dense matrices are produced through the Jordan-Wigner
image and are only needed for small mode counts.  Hot paths never build
them: under Jordan-Wigner a monomial is a signed permutation of the basis,
``gamma |b> = d[b] |b ^ flip>``, which :func:`monomial_action` computes in
closed form from the support bits and :func:`apply_monomial` and
:func:`monomial_trace` use in O(2^n) work per vector or trace.
:func:`to_pauli` and :func:`pauli_dense` are the independent letter-by-letter
and Kronecker-product oracle.

Conventions
-----------
* Generator indices are 1-based at every public interface; bitmasks are
  0-based internally (bit ``j-1`` encodes generator ``j``).
* A canonical observable on support ``S`` carries the phase ``i**C(|S|,2)``
  in front of the ascending product of generators.  For even ``|S|`` this is
  the standard Hermitian normalisation; for odd ``|S|`` it is the unique
  extension that keeps the observable Hermitian (see
  ``ODD_DEGREE_PHASE_NOTE``).
* Dense matrices tensor qubit ``n`` down to qubit ``1``, i.e. qubit 1 lives
  in the least-significant bit of the basis index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScaledMonomial",
    "PauliString",
    "BraidElement",
    "DENSE_LIMIT",
    "ODD_DEGREE_PHASE_NOTE",
    "canonical_monomial",
    "identity_monomial",
    "monomial_product",
    "commutation_sign",
    "to_pauli",
    "pauli_dense",
    "monomial_bits",
    "monomial_action",
    "parity",
    "apply_monomial",
    "monomial_trace",
    "dense_matrix",
    "braid_conjugate",
    "braid_unitary",
    "braiding_recipe",
    "braid_stabilizer_unitaries",
    "commutant_dimension",
    "monomial_to_str",
    "monomial_from_str",
    "subsets_of_size",
    "support_to_indices",
    "indices_to_support",
]

# Dense realizations are gated to keep memory/time bounded.
DENSE_LIMIT = 12

ODD_DEGREE_PHASE_NOTE = (
    "Odd-degree canonical monomials carry phase i**C(k,2) with k = |S|, the "
    "unique Hermitian extension of the even-degree convention."
)

_PHASE_VALUES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_PHASE_ARRAY = np.array(_PHASE_VALUES)
_PHASE_LABELS = ("+1", "+i", "-1", "-i")

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# (a, b) -> (a*b letter, quarter-phase), e.g. X*Y = i Z.
_PAULI_MUL = {
    ("I", "I"): ("I", 0),
    ("I", "X"): ("X", 0),
    ("I", "Y"): ("Y", 0),
    ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0),
    ("Y", "I"): ("Y", 0),
    ("Z", "I"): ("Z", 0),
    ("X", "X"): ("I", 0),
    ("Y", "Y"): ("I", 0),
    ("Z", "Z"): ("I", 0),
    ("X", "Y"): ("Z", 1),
    ("Y", "X"): ("Z", 3),
    ("Y", "Z"): ("X", 1),
    ("Z", "Y"): ("X", 3),
    ("Z", "X"): ("Y", 1),
    ("X", "Z"): ("Y", 3),
}


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


@dataclass(frozen=True)
class ScaledMonomial:
    """``i**phase_quarter`` times the ascending product of generators in ``support``."""

    n_modes: int
    support: int
    phase_quarter: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be positive")
        if self.support >> (2 * self.n_modes):
            raise ValueError("support outside the 2n generators")
        object.__setattr__(self, "phase_quarter", self.phase_quarter % 4)

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
    indices = tuple(indices)
    if n_modes is None:
        n_modes = (max(indices, default=0) + 1) // 2
    return indices_to_support(indices, n_modes)


def canonical_monomial(n_modes: int, indices) -> ScaledMonomial:
    """Hermitian observable on a 1-based index set or a support bitmask."""
    support = _as_support(indices, n_modes)
    return ScaledMonomial(n_modes, support, math.comb(support.bit_count(), 2) % 4)


def identity_monomial(n_modes: int) -> ScaledMonomial:
    return ScaledMonomial(n_modes, 0, 0)


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


def commutation_sign(set_a, set_b) -> int:
    """+1 if the observables on the two index sets commute, -1 otherwise.

    Accepts 1-based index iterables or support bitmasks; the sign is
    ``(-1)**(|A|*|B| - |A & B|)``.
    """
    mask_a, mask_b = _as_support(set_a), _as_support(set_b)
    exponent = mask_a.bit_count() * mask_b.bit_count() - (mask_a & mask_b).bit_count()
    return -1 if exponent % 2 else 1


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis times ``i**phase_quarter``."""

    n_qubits: int
    letters: tuple[str, ...]
    phase_quarter: int

    def __post_init__(self):
        if len(self.letters) != self.n_qubits:
            raise ValueError("letter count must equal n_qubits")
        if any(c not in "IXYZ" for c in self.letters):
            raise ValueError("letters must be I, X, Y or Z")
        object.__setattr__(self, "phase_quarter", self.phase_quarter % 4)

    @property
    def weight(self) -> int:
        return sum(1 for c in self.letters if c != "I")

    @property
    def phase(self) -> complex:
        return _PHASE_VALUES[self.phase_quarter]

    def __str__(self) -> str:
        return _PHASE_LABELS[self.phase_quarter] + "*" + "".join(self.letters)


def to_pauli(m: ScaledMonomial) -> PauliString:
    """Jordan-Wigner image of a monomial, phase included.

    Generator ``j`` on qubit ``h = (j-1)//2`` maps to ``Z`` on qubits below
    ``h``, then ``X`` (odd ``j``) or ``Y`` (even ``j``) on ``h``, identity
    above; the images are multiplied in ascending order, letter by letter.
    """
    letters = ["I"] * m.n_modes
    phase = m.phase_quarter
    for j in m.indices:
        head = (j - 1) // 2
        for q in range(head):
            letters[q], extra = _PAULI_MUL[(letters[q], "Z")]
            phase += extra
        letters[head], extra = _PAULI_MUL[(letters[head], "X" if j % 2 else "Y")]
        phase += extra
    return PauliString(m.n_modes, tuple(letters), phase % 4)


def pauli_dense(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string (qubit 1 in the least-significant bit)."""
    if p.n_qubits > DENSE_LIMIT:
        raise ValueError(f"dense limit {DENSE_LIMIT} exceeded")
    out = np.array([[p.phase]], dtype=complex)
    for letter in reversed(p.letters):
        out = np.kron(out, _PAULI_MATS[letter])
    return out


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

    Uncached oracle; :func:`pauli_dense` of :func:`to_pauli` is the
    independent Kronecker-product check.
    """
    if m.n_modes > DENSE_LIMIT:
        raise ValueError(f"dense limit {DENSE_LIMIT} exceeded")
    flip, d = monomial_action(m)
    basis = np.arange(len(d))
    out = np.zeros((len(d), len(d)), dtype=complex)
    out[basis ^ flip, basis] = d
    return out


@dataclass(frozen=True)
class BraidElement:
    """Exchange unitary for the generator pair ``(i, j)`` with ``i < j``."""

    i: int
    j: int
    inverse_flag: bool = False

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ValueError("require 1 <= i < j")

    def inverse(self) -> "BraidElement":
        return BraidElement(self.i, self.j, not self.inverse_flag)


def braid_conjugate(b: BraidElement, m: ScaledMonomial) -> ScaledMonomial:
    """Image of ``m`` under conjugation with the braid ``b``.

    The forward braid sends ``gamma_i -> gamma_j`` and ``gamma_j -> -gamma_i``
    and fixes every other generator; the inverse swaps the roles.
    """
    if b.j > 2 * m.n_modes:
        raise ValueError("braid index outside the 2n generators")
    # forward: i -> j, j -> -i; inverse: j -> i, i -> -j
    if not b.inverse_flag:
        mapping = {b.i: (b.j, 1), b.j: (b.i, -1)}
    else:
        mapping = {b.j: (b.i, 1), b.i: (b.j, -1)}
    images = []
    sign = 1
    for j in m.indices:
        tgt, s = mapping.get(j, (j, 1))
        sign *= s
        images.append(tgt)
    # sort the image generators, tracking transposition parity
    inv = 0
    arr = list(images)
    for a in range(len(arr)):
        for c in range(a + 1, len(arr)):
            if arr[a] > arr[c]:
                inv += 1
    arr.sort()
    support = indices_to_support(arr, m.n_modes)
    phase = (m.phase_quarter + 2 * ((0 if sign == 1 else 1) + inv)) % 4
    return ScaledMonomial(m.n_modes, support, phase)


def braid_unitary(b: BraidElement, n_modes: int) -> np.ndarray:
    """Dense unitary ``(1 - gamma_i gamma_j)/sqrt(2)`` (or its inverse)."""
    gij = dense_matrix(ScaledMonomial(n_modes, 1 << (b.i - 1) | 1 << (b.j - 1), 0))
    eye = np.eye(gij.shape[0], dtype=complex)
    if b.inverse_flag:
        return (eye + gij) / math.sqrt(2.0)
    return (eye - gij) / math.sqrt(2.0)


def braiding_recipe(set_a, set_b, n_modes: int) -> list[BraidElement]:
    """Braids carrying the observable on ``set_a`` to ``+-`` the one on ``set_b``.

    Pairs the ascending elements of ``A \\ B`` with those of ``B \\ A``; the
    pairs are disjoint, so the braids commute and the composite maps
    ``gamma_A`` to ``+-gamma_B`` exactly.
    """
    a = set(set_a)
    b = set(set_b)
    if len(a) != len(b):
        raise ValueError("cardinality mismatch")
    move_from = sorted(a - b)
    move_to = sorted(b - a)
    return [BraidElement(min(u, v), max(u, v)) for u, v in zip(move_from, move_to)]


def braid_stabilizer_unitaries(indices, n_modes: int) -> list[np.ndarray]:
    """Dense unitaries of every braid fixing the observable on ``indices``.

    These are the braids whose two generator indices lie both inside or both
    outside the support.
    """
    inside = sorted(set(indices))
    outside = [j for j in range(1, 2 * n_modes + 1) if j not in inside]
    gens = []
    for group in (inside, outside):
        for i, j in itertools.combinations(group, 2):
            gens.append(braid_unitary(BraidElement(i, j), n_modes))
    return gens


def _parity_sector_basis(n_modes: int, sector: str) -> np.ndarray:
    q = dense_matrix(canonical_monomial(n_modes, range(1, 2 * n_modes + 1)))
    diag = np.real(np.diag(q))
    want = 1.0 if sector == "even" else -1.0
    cols = np.where(np.isclose(diag, want))[0]
    basis = np.zeros((q.shape[0], len(cols)), dtype=complex)
    basis[cols, np.arange(len(cols))] = 1.0
    return basis


def commutant_dimension(
    generators,
    parity_sector: str | None = None,
    n_modes: int | None = None,
) -> int:
    """Dimension of the space of matrices commuting with every generator.

    Solves the joint linear system ``M A - A M = 0`` by a nullspace
    computation; singular values up to ``1e-8`` times the largest (or 1)
    count as zero.  With ``parity_sector`` given, the generators are first
    restricted to the even or odd eigenspace of the parity operator
    (``n_modes`` is then required).
    """
    mats = [np.asarray(g, dtype=complex) for g in generators]
    if not mats:
        raise ValueError("need at least one generator")
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise ValueError("generators must share one dimension")
    if dim > 2 ** 5:
        raise ValueError("dimension limit exceeded (n <= 5)")
    if parity_sector is not None:
        if parity_sector not in ("even", "odd"):
            raise ValueError("parity_sector must be 'even' or 'odd'")
        if n_modes is None:
            raise ValueError("n_modes required with a parity sector")
        basis = _parity_sector_basis(n_modes, parity_sector)
        mats = [basis.conj().T @ m @ basis for m in mats]
        dim = mats[0].shape[0]
    eye = np.eye(dim)
    blocks = [np.kron(a.T, eye) - np.kron(eye, a) for a in mats]
    stacked = np.vstack(blocks)
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals <= 1e-8 * max(1.0, svals[0])))


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
