"""The paper's side results that no command runs, kept as checks and for the demos.

Nothing in the CLI imports this module, so no command compiles it:

* Jordan-Wigner images letter by letter (:func:`to_pauli`,
  :func:`pauli_dense`), the independent oracle for the dense monomials,
  and commutation signs;
* braid moves, their stabilizers and commutant dimensions;
* the partition combinatorics of the randomized construction;
* the sample-complexity bound;
* tournament searches and checks beyond the ones the robustness report runs;
* the Jordan-Wigner comparator.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from majorana_jm.algebra import (
    _PHASE_LABELS,
    _PHASE_VALUES,
    DENSE_LIMIT,
    ScaledMonomial,
    _as_support,
    canonical_monomial,
    dense_matrix,
    indices_to_support,
    subsets_of_size,
)
from majorana_jm.robustness import BRUTE_FORCE_BUDGET, SignSection, TournamentMatrix, _search, degree2_norm

__all__ = [
    "PauliString",
    "to_pauli",
    "pauli_dense",
    "commutation_sign",
    "BraidElement",
    "braid_conjugate",
    "braid_unitary",
    "braiding_recipe",
    "braid_stabilizer_unitaries",
    "commutant_dimension",
    "partition_failure_prob",
    "random_partition",
    "random_partition_batch",
    "sample_complexity",
    "tournament_from_section",
    "tournament_bound_check",
    "random_tournament",
    "exhaustive_tournament_max",
    "jw_max_weight",
]

# degree-k images jw_max_weight enumerates at most
_JW_ENUMERATION_CAP = 2_000_000

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


class PauliString(namedtuple("PauliString", "n_qubits letters phase_quarter")):
    """Tensor product of single-qubit Paulis times ``i**phase_quarter``."""

    __slots__ = ()

    def __new__(cls, n_qubits: int, letters: tuple[str, ...], phase_quarter: int):
        if len(letters) != n_qubits:
            raise ValueError("letter count must equal n_qubits")
        if any(c not in "IXYZ" for c in letters):
            raise ValueError("letters must be I, X, Y or Z")
        return super().__new__(cls, n_qubits, letters, phase_quarter % 4)

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


def commutation_sign(set_a, set_b) -> int:
    """+1 if the observables on the two index sets commute, -1 otherwise.

    Accepts 1-based index iterables or support bitmasks; the sign is
    ``(-1)**(|A|*|B| - |A & B|)``.
    """
    mask_a, mask_b = _as_support(set_a), _as_support(set_b)
    exponent = mask_a.bit_count() * mask_b.bit_count() - (mask_a & mask_b).bit_count()
    return -1 if exponent % 2 else 1


class BraidElement(namedtuple("BraidElement", "i j inverse_flag")):
    """Exchange unitary for the generator pair ``(i, j)`` with ``i < j``."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, inverse_flag: bool = False):
        if not 1 <= i < j:
            raise ValueError("require 1 <= i < j")
        return super().__new__(cls, i, j, inverse_flag)

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


def partition_failure_prob(side: int, half_degree: int) -> float:
    """Probability a uniform partition fails to separate a fixed 2k-set.

    Exact value ``1 - l^{2k} C(l+1, 2k) / C(l(l+1), 2k)`` for the Turan
    graph on ``2n = l(l+1)`` vertices.
    """
    if side < 1:
        raise ValueError("side must be >= 1")
    if 2 * half_degree > side + 1:
        raise ValueError("need 2k <= l + 1")
    two_n = side * (side + 1)
    num = Fraction(side ** (2 * half_degree)) * math.comb(side + 1, 2 * half_degree)
    prob = 1 - num / math.comb(two_n, 2 * half_degree)
    return float(prob)


def random_partition(side: int, rng) -> np.ndarray:
    """Uniform partition of ``{0..l(l+1)-1}`` into ``l+1`` blocks of size ``l``.

    Returned as an array mapping vertex (0-based) to block index.
    """
    two_n = side * (side + 1)
    perm = rng.permutation(two_n)
    colors = np.empty(two_n, dtype=np.int64)
    colors[perm] = np.arange(two_n) // side
    return colors


def random_partition_batch(side: int, trials: int, rng) -> np.ndarray:
    """``trials`` independent uniform partitions, one color row each."""
    two_n = side * (side + 1)
    ranks = np.argsort(rng.random((trials, two_n)), axis=1)
    colors = np.empty((trials, two_n), dtype=np.int64)
    np.put_along_axis(colors, ranks, np.broadcast_to(np.arange(two_n) // side, (trials, two_n)), axis=1)
    return colors


def sample_complexity(
    n_modes: int, half_degree: int, epsilon: float, delta: float, eta: float
) -> int:
    """Shots guaranteeing epsilon-accurate estimates for all degree-2k targets.

    Hoeffding with a union bound over the C(2n, 2k) observables:
    ``ceil(2 ln(2 C(2n,2k) / delta) / (epsilon * eta)^2)``.
    """
    if not 0 < epsilon < 1 or not 0 < delta <= 1:
        raise ValueError("epsilon in (0,1), delta in (0,1]")
    if not 0 < eta <= 1:
        raise ValueError("eta in (0,1]")
    count = math.comb(2 * n_modes, 2 * half_degree)
    return math.ceil(2.0 * math.log(2.0 * count / delta) / (epsilon * eta) ** 2)


def tournament_from_section(section: SignSection) -> TournamentMatrix:
    if section.degree != 2:
        raise ValueError("tournaments encode degree-2 sections")
    size = 2 * section.n_modes
    arr = np.zeros((size, size))
    for sign, (i, j) in zip(section.signs, itertools.combinations(range(1, size + 1), 2)):
        arr[i - 1, j - 1] = sign
        arr[j - 1, i - 1] = -sign
    return TournamentMatrix(arr)


def tournament_bound_check(t: TournamentMatrix) -> float:
    """Margin of the spectral bound ``n sqrt(2n-1)``; nonnegative up to roundoff."""
    size = t.size
    total, _ = degree2_norm(t)
    return (size / 2.0) * math.sqrt(size - 1.0) - total


def random_tournament(size: int, rng) -> TournamentMatrix:
    upper = rng.choice((-1.0, 1.0), size=(size, size))
    arr = np.triu(upper, k=1)
    return TournamentMatrix(arr - arr.T)


def exhaustive_tournament_max(size: int):
    """Exact maximum of the spectral sum over every tournament of a size.

    Searches the degree-2 sections of ``size / 2`` modes, where player 1
    beats everyone (a diagonal +-1 conjugation reaches every tournament);
    practical up to size 6 (1,024 matrices).
    """
    if size % 2:
        raise ValueError("need an even number of players")
    found = _search(size // 2, 2, BRUTE_FORCE_BUDGET)
    if found is None:
        raise ValueError("exhaustive search practical only for size <= 6")
    best, signs = found
    return best, tournament_from_section(SignSection(size // 2, 2, signs))


def jw_max_weight(n_modes: int, degree: int) -> int:
    """Largest Pauli weight among degree-k observables under Jordan-Wigner."""
    if degree == 0:
        return 0
    count = math.comb(2 * n_modes, degree)
    if count > _JW_ENUMERATION_CAP:
        raise ValueError("enumeration too large")
    best = 0
    for subset in subsets_of_size(2 * n_modes, degree):
        best = max(best, to_pauli(canonical_monomial(n_modes, subset)).weight)
    return best
