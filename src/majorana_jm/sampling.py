"""Shot-level simulation of the joint measurement and unbiased estimators.

A shot samples a rotation index and a conjugation monomial, evolves the
state, and measures the n commuting pair observables by exact Born
probabilities.  Estimators post-process the recorded signs; variance for
the single-rotation setting follows the two-observable marginal formula.

Shots are grouped by (rotation, monomial) and groups are processed in
blocks that stay within one rotation.  Monomials are applied matrix-free
through the closed form of their Jordan-Wigner action
(``algebra.monomial_bits``, evaluated once per rotation for all its
groups), a signed permutation of the basis.  A Gaussian unitary maps each
parity sector of the basis onto one sector, so each compile is cut at once
into its two 2^(n-1) x 2^(n-1) sector blocks and the dense unitary is
dropped: between compiles the simulator holds 8 4^n bytes.  A block of
about ``_BLOCK_BYTES`` (128 KB) costs, per sector, one gather from the
eigen-rows, one sign lookup and one half-size matrix product.  A rotation
whose columns are exactly those of the last compiled one, permuted, reuses
its blocks: the permutation moves onto the masks and, as one reflection per
transposition, onto the state.  A density matrix is diagonalized once and
its eigenvectors are evolved like pure states.  Each pair observable acts
as -Z on its qubit under the chosen conventions, so a shot's packed
outcome signs are the complement of its basis outcome; the tests check
this against the pair monomials' dense diagonals.

Draws: ``Generator.choice(dim, size, p=p)`` takes ``random(size)`` and
returns ``cdf.searchsorted(u, side="right")`` with ``cdf = p.cumsum()``
divided by its last entry.  :func:`simulate_shots` draws ``random(n_shots)``
once, in the order of the sorted groups, and counts the entries ``<= u`` of
each shot's group cdf, which on a non-decreasing cdf is that search, so its
shots and the generator state afterwards equal those of one ``choice`` call
per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from majorana_jm.algebra import (
    DENSE_LIMIT,
    apply_monomial,
    canonical_monomial,
    indices_to_support,
    monomial_bits,
    monomial_trace,
    parity,
)
from majorana_jm.gaussian import compile_gaussian_unitary
from majorana_jm.matching import COVERAGE_TOL, MeasurementEnsemble, _column_permutation

if TYPE_CHECKING:  # simulate never loads povm; the functions that use it import it
    from majorana_jm.povm import SharpnessTable

__all__ = [
    "FermionicState",
    "ShotBatch",
    "HamiltonianSpec",
    "EstimationRecord",
    "UncoveredTargetError",
    "simulate_shots",
    "shot_probability_table",
    "estimate_expectations",
    "estimate_hamiltonian",
    "exact_expectations",
    "analytic_estimates",
    "predicted_variance",
    "degree1_variance",
    "simulate_degree1_shots",
    "sample_complexity",
]


class UncoveredTargetError(ValueError):
    """An estimation target has zero sharpness under every rotation."""


@dataclass(frozen=True)
class FermionicState:
    """Pure vector or density matrix on n modes (2^n dimensions)."""

    n_modes: int
    vector: np.ndarray | None = None
    density_matrix: np.ndarray | None = None

    def __post_init__(self):
        dim = 2 ** self.n_modes
        if (self.vector is None) == (self.density_matrix is None):
            raise ValueError("give exactly one of vector or density_matrix")
        if self.vector is not None:
            vec = np.asarray(self.vector, dtype=complex).reshape(-1)
            if vec.shape != (dim,):
                raise ValueError("vector dimension mismatch")
            norm = np.linalg.norm(vec)
            if abs(norm - 1.0) > 1e-10:
                raise ValueError("state vector must be normalized")
            vec.setflags(write=False)
            object.__setattr__(self, "vector", vec)
        else:
            rho = np.asarray(self.density_matrix, dtype=complex)
            if rho.shape != (dim, dim):
                raise ValueError("density matrix dimension mismatch")
            if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
                raise ValueError("density matrix must be Hermitian")
            if abs(np.trace(rho) - 1.0) > 1e-10:
                raise ValueError("density matrix must have unit trace")
            if np.linalg.eigvalsh(rho)[0] < -1e-10:
                raise ValueError("density matrix must be positive semidefinite")
            rho.setflags(write=False)
            object.__setattr__(self, "density_matrix", rho)

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    def density(self) -> np.ndarray:
        if self.vector is not None:
            return np.outer(self.vector, self.vector.conj())
        return self.density_matrix

    def expectation(self, subset) -> float:
        g = canonical_monomial(self.n_modes, subset)
        if self.vector is not None:
            return float(np.real(np.vdot(self.vector, apply_monomial(g, self.vector))))
        return float(np.real(monomial_trace(g, self.density_matrix)))

    @classmethod
    def basis_state(cls, n_modes: int, index: int = 0) -> "FermionicState":
        vec = np.zeros(2 ** n_modes, dtype=complex)
        vec[index] = 1.0
        return cls(n_modes, vector=vec)

    @classmethod
    def maximally_mixed(cls, n_modes: int) -> "FermionicState":
        dim = 2 ** n_modes
        return cls(n_modes, density_matrix=np.eye(dim, dtype=complex) / dim)

    @classmethod
    def random_pure(cls, n_modes: int, rng) -> "FermionicState":
        dim = 2 ** n_modes
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return cls(n_modes, vector=vec / np.linalg.norm(vec))


@dataclass
class ShotBatch:
    """Columnar shot storage, one row per shot."""

    n_modes: int
    r: np.ndarray  # (L,) 1-based
    conj_mask: np.ndarray  # (L,) uint64
    q_bits: np.ndarray  # (L,) uint64, bit j = (1 - q_j)/2

    def __len__(self) -> int:
        return len(self.r)

    @property
    def q(self) -> np.ndarray:
        """Pair-observable outcomes ``q_j = 1 - 2 bit_j``, unpacked from ``q_bits`` as (L, n) int8."""
        bits = self.q_bits[:, None] >> np.arange(self.n_modes, dtype=np.uint64) & np.uint64(1)
        return 1 - 2 * bits.astype(np.int8)


# Working memory of one block of conjugated vectors ``gamma_X v_j`` (complex).
_BLOCK_BYTES = 1 << 17


def _eigenstates(state: FermionicState) -> tuple[np.ndarray, np.ndarray]:
    """``(weights, rows)`` with ``rho = sum_j weights[j] |v_j><v_j|``, ``v_j = rows[j]``.

    A pure state is the rank-1 case; a density matrix takes one ``eigh`` and
    keeps its positive eigenvalues.
    """
    if state.is_pure:
        return np.ones(1), state.vector[None, :]
    weights, vectors = np.linalg.eigh(state.density_matrix)
    keep = weights > 0.0
    return weights[keep], vectors[:, keep].T


def _block_size(rows: np.ndarray) -> int:
    """Masks per block, so that a block holds about ``_BLOCK_BYTES`` of vectors."""
    return max(1, _BLOCK_BYTES // (16 * rows.size))


def _mask_bits(masks, n_modes: int):
    """``(flip, phase, zmask)`` arrays of the canonical observable on each support mask."""
    masks = np.asarray(masks, dtype=np.int64)
    size = np.bitwise_count(masks).astype(np.int64)
    # the canonical observable on X carries the phase i**C(|X|, 2)
    return monomial_bits(n_modes, masks, size * (size - 1) // 2)


def _conjugated(rows: np.ndarray, flip, phase, zmask) -> np.ndarray:
    """``gamma_X v_j`` for every row ``v_j`` and mask ``X``, shape ``(rank, len(flip), 2^n)``.

    ``(gamma_X v)[b] = phase (-1)^|(b ^ flip) & zmask| v[b ^ flip]`` from the
    masks' closed form (:func:`_mask_bits`): one gather and one parity call
    per block.
    """
    source = np.arange(rows.shape[-1]) ^ flip[:, None]
    return phase[:, None] * parity(source & zmask[:, None]) * rows[:, source]


def _sector_blocks(unitary: np.ndarray, odd: bool) -> list:
    """The compiled unitary cut into its two parity-sector blocks ``(source, target, block)``.

    A Gaussian unitary maps each parity sector of the basis onto one sector:
    onto itself, or onto the other when ``odd`` (det O = -1, the extra
    ``gamma_2n``).  So ``amplitudes[:, target] = vectors[:, source] @ block``
    with ``block = U[target, source].T``, each 2^(n-1) x 2^(n-1): both hold
    half the dense unitary's bytes.
    """
    parities = np.bitwise_count(np.arange(len(unitary))) & 1
    sectors = [np.flatnonzero(parities == p) for p in (0, 1)]
    return [(s, t, unitary.T[np.ix_(s, t)]) for s, t in zip(sectors, sectors[::-1] if odd else sectors)]


def _born_cdfs(blocks, signs, weights, rows, flip, zmask) -> np.ndarray:
    """Cumulative Born distributions of one block of groups under one rotation, ``(G, 2^n)``.

    ``p_X(b) = sum_j w_j |(U gamma_X v_j)_b|^2``, normalized per group; the
    cumulative sum is then divided by its last entry, as
    ``Generator.choice`` does.  Per sector block (:func:`_sector_blocks`) the
    ``source`` entries ``c`` of ``gamma_X v_j`` are gathered straight from
    the rows, ``(-1)^|a & zmask| v_j[a]`` with ``a = c ^ flip`` and the sign
    read from ``signs = parity(arange(2^n))``; the group's phase is dropped,
    since ``|amplitude|^2`` ignores it.  Two half-size products, and
    ``|amplitude|^2`` is scattered into basis order.
    """
    probs = np.empty((len(rows) * len(flip), rows.shape[-1]))
    for source, target, block in blocks:
        at = source ^ flip[:, None]
        vectors = rows[:, at]
        vectors *= signs[at & zmask[:, None]]
        part = np.abs(vectors.reshape(-1, len(source)) @ block)
        np.square(part, out=part)  # nonnegative, so no clip is needed
        probs[:, target] = part
    if len(rows) > 1:
        probs = (weights[:, None, None] * probs.reshape(len(rows), len(flip), -1)).sum(axis=0)
    elif weights[0] != 1.0:  # one row: the weighted sum is one exact product
        probs *= weights[0]
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _permuted(rows: np.ndarray, masks: np.ndarray, perm: np.ndarray):
    """Eigen-rows and group masks of the rotation ``O_b Q`` under the base's unitary.

    ``perm`` is ``matching._column_permutation`` of ``O_b Q`` against
    ``O_b``, so ``U(O_b Q) ~ U(O_b) U(Q)`` and
    ``U(Q) gamma_m U(Q)^dag = gamma_perm[m]``: the group of mask ``X``
    becomes the base's group of ``perm(X)`` on the rows ``U(Q) v_j``, with
    signs and phases that ``|amplitude|^2`` drops.
    Each cycle ``c0 -> c1 -> ...`` of ``perm`` is the transpositions
    ``(c0 c1), (c0 c2), ...`` in that order, and the reflection
    ``(gamma_a - gamma_b)/sqrt(2)`` conjugates ``gamma_a <-> gamma_b`` and
    negates every generator, so the rows take one reflection per
    transposition, in the same order, and equal ``U(Q) v_j`` up to the
    parity operator: diagonal, and it commutes with Gaussian unitaries and
    monomials up to sign, so the distribution does not change.  The rows go
    through in chunks of about ``_BLOCK_BYTES``, so beside the result only
    one chunk's scratch is held.
    """
    n = rows.shape[-1].bit_length() - 1
    places = np.arange(len(perm), dtype=np.uint64)
    # bit m of each mask moves to bit perm[m]; the sum of distinct powers of two is their or
    moved = (masks[:, None] >> places & np.uint64(1)) @ (np.uint64(1) << perm.astype(np.uint64))
    swaps = []
    done = perm == np.arange(len(perm))
    for c0 in range(len(perm)):
        done[c0], c = True, perm[c0]
        while not done[c]:
            swaps.append([1 << c0, 1 << c])
            done[c], c = True, perm[c]
    flip, phase, zmask = _mask_bits(swaps, n)
    out = np.empty_like(rows)
    step = _block_size(rows[:1])  # rows per chunk
    for s in range(0, len(rows), step):
        chunk = rows[s : s + step]
        for k in range(len(swaps)):
            pair = _conjugated(chunk, flip[k], phase[k], zmask[k])
            chunk = (pair[:, 0] - pair[:, 1]) * math.sqrt(0.5)
        out[s : s + step] = chunk
    return out, moved


def _outcomes(cdfs: np.ndarray, group: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``cdfs[group[i]].searchsorted(uniforms[i], side="right")`` for every shot ``i``.

    On a non-decreasing cdf the count of entries ``<= u`` is that index, so
    all shots are counted at once; the comparison is cut into chunks of
    about ``_BLOCK_BYTES``.
    """
    out = np.empty(len(group), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (8 * cdfs.shape[1]))
    for s in range(0, len(group), step):
        chunk = slice(s, s + step)
        out[chunk] = (cdfs[group[chunk]] <= uniforms[chunk, None]).sum(axis=1)
    return out


def simulate_shots(state: FermionicState, ensemble: MeasurementEnsemble, n_shots: int, rng) -> ShotBatch:
    """Sample shots of the randomized parent measurement.

    Rotation indices and conjugation monomials are drawn uniformly up
    front; shots are then grouped by (rotation, monomial) so each group
    samples its computational outcomes from one Born distribution.
    Rotations that drew shots are walked in order: one that is an exact
    column permutation of the current base rotation runs under the base's
    sector blocks (:func:`_permuted`), and any other becomes the base: it
    is compiled and cut into its blocks (:func:`_sector_blocks`), and the
    dense unitary is dropped.  Rotations that drew no shot are never
    compiled.
    """
    n = state.n_modes
    if n != ensemble.n_modes:
        raise ValueError("state and ensemble mode counts differ")
    if n > DENSE_LIMIT:
        raise ValueError("dense simulation gated by the dense limit")
    n_mat = ensemble.n_matrices
    rs = rng.integers(0, n_mat, size=n_shots)
    masks = rng.integers(0, 2 ** (2 * n), size=n_shots, dtype=np.uint64)
    keys = rs.astype(np.uint64) << np.uint64(2 * n + 1) | masks
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(n_shots, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    del keys  # the sort keys are not held through the compile
    bounds = np.r_[np.flatnonzero(first), n_shots]
    leads = order[bounds[:-1]]
    group_r, group_masks = rs[leads], masks[leads]
    group = np.cumsum(first) - 1  # each sorted shot's group
    del first, leads
    uniforms = rng.random(n_shots)  # the draws of every group's choice call, in group order
    outcomes = np.empty(n_shots, dtype=np.int64)
    weights, base_rows = _eigenstates(state)
    signs = parity(np.arange(2 ** n))
    step = _block_size(base_rows)
    edges = np.searchsorted(group_r, np.arange(n_mat + 1))
    base = blocks = None
    for r in range(n_mat):
        lo, hi = edges[r], edges[r + 1]
        if lo == hi:
            continue
        o = ensemble.matrices[r].entries
        perm = None if base is None else _column_permutation(base, o)
        rows = None  # at most one moved copy of the eigen-rows at a time
        if perm is None:
            blocks = None  # the next compile must not hold two rotations' blocks at once
            base, blocks = o, _sector_blocks(compile_gaussian_unitary(o, n), np.linalg.det(o) < 0)
            rows, moved = base_rows, group_masks[lo:hi]
        else:
            rows, moved = _permuted(base_rows, group_masks[lo:hi], perm)
        flip, _, zmask = _mask_bits(moved, n)
        for b in range(lo, hi, step):
            e = min(b + step, hi)
            cdfs = _born_cdfs(blocks, signs, weights, rows, flip[b - lo : e - lo], zmask[b - lo : e - lo])
            shots = slice(bounds[b], bounds[e])
            outcomes[shots] = _outcomes(cdfs, group[shots] - b, uniforms[shots])
    # the pair observables act as -Z on each qubit: q_j = -1 exactly where bit j of the outcome is 0
    q_bits = np.empty(n_shots, dtype=np.uint64)
    q_bits[order] = outcomes ^ (2 ** n - 1)
    return ShotBatch(n, rs + 1, masks, q_bits)


def shot_probability_table(state: FermionicState, ensemble: MeasurementEnsemble):
    """Exact joint distribution over (rotation, monomial mask, q-index).

    A test oracle for the shot distribution and, with
    :func:`exact_expectations`, for :func:`analytic_estimates`; gated to the
    dense-parent regime.
    """
    from majorana_jm.povm import PARENT_ORACLE_LIMIT, outcome_probabilities

    n = state.n_modes
    if n > PARENT_ORACLE_LIMIT:
        raise ValueError("oracle gated to small n")
    rho = state.density()
    n_mat = ensemble.n_matrices
    # the x-string table is indexed by sign-string bits; re-key it by mask:
    # x_j = -1 iff |X| - [j in X] is odd, so odd masks map to their complement
    masks = np.arange(4 ** n)
    odd = (np.bitwise_count(masks) & 1).astype(bool)
    x_idx = np.where(odd, masks ^ (4 ** n - 1), masks)
    table = np.stack(
        [outcome_probabilities(mat.entries, rho, n)[x_idx] for mat in ensemble.matrices]
    )
    return table / n_mat


def _sign_rule(table: SharpnessTable, subset):
    """The post-processing rule ``e_S = tau_r x_S(X) q_R(q)`` of one target, from one table lookup.

    Returns the support mask of S, ``tau`` (the sign of each rotation's
    assigned minor, 0 where the rotation does not cover S), ``modes`` (the
    mode mask of each rotation's assigned R), the signed minors ``m_r(S)``
    and the effective sharpness ``eta_eff(S) = mean_r |m_r(S)|``.  Targets
    have even degree, so ``x_S(X) = (-1)^|X & S|`` and
    ``q_R(q) = (-1)^|q_bits & modes_R|``.  Raises
    :class:`UncoveredTargetError` when no rotation covers S.
    """
    row_sets, best, minors = table._column(subset)
    covered = np.abs(minors) > COVERAGE_TOL
    if not covered.any():
        raise UncoveredTargetError(f"target {tuple(subset)} is uncovered")
    tau = np.where(covered, np.copysign(1.0, minors), 0.0)
    # the even indices 2j of each assigned R name its modes j
    pairs = (np.array(row_sets, dtype=np.uint64)[best, 1::2] >> np.uint64(1)) - np.uint64(1)
    modes = np.bitwise_or.reduce(np.uint64(1) << pairs, axis=1)
    modes[~covered] = 0
    eta = float(np.abs(minors).mean())
    return np.uint64(indices_to_support(subset, table.n_modes)), tau, modes, minors, eta


def _filled_signs(batch: ShotBatch, table: SharpnessTable, subset, rng):
    """Per-shot signs of one target and its effective sharpness.

    Shots whose rotation does not cover the target take fair coins from ``rng``.
    """
    s_mask, tau, modes, _, eta = _sign_rule(table, subset)
    r = batch.r - 1
    tau_r = tau[r]
    signs = tau_r * parity(batch.conj_mask & s_mask) * parity(batch.q_bits & modes[r])
    holes = tau_r == 0.0
    if holes.any():
        signs[holes] = rng.choice((-1.0, 1.0), size=int(holes.sum()))
    return signs, eta


@dataclass(frozen=True)
class EstimationRecord:
    target: object
    estimate: float
    shots: int
    stderr: float
    predicted_variance: float | None = None

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("standard error must be nonnegative")


def estimate_expectations(
    batch: ShotBatch, table: SharpnessTable, targets, rng=None
) -> list[EstimationRecord]:
    """Unbiased estimates of ``tr(gamma_S rho)`` for each target.

    Shots whose rotation does not cover a target contribute a fair coin
    from ``rng``; the mean is divided by the exact effective sharpness of
    the randomized parent, so the estimator stays unbiased.
    """
    rng = rng or np.random.default_rng(0)
    records = []
    for subset in targets:
        signs, eta = _filled_signs(batch, table, subset, rng)
        est = float(signs.mean() / eta)
        stderr = float(signs.std(ddof=1) / math.sqrt(len(signs)) / eta)
        records.append(EstimationRecord(tuple(subset), est, len(signs), stderr))
    return records


@dataclass(frozen=True)
class HamiltonianSpec:
    """Real combination of even-degree observables."""

    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        seen = set()
        normalized = []
        for subset, coeff in self.terms:
            key = tuple(sorted(subset))
            if len(key) % 2:
                raise ValueError("only even-degree terms are allowed")
            if key in seen:
                raise ValueError(f"duplicate term {key}")
            seen.add(key)
            normalized.append((key, float(coeff)))
        object.__setattr__(self, "terms", tuple(normalized))

    def expectation(self, state: FermionicState) -> float:
        return sum(c * state.expectation(s) for s, c in self.terms)


def estimate_hamiltonian(
    batch: ShotBatch, table: SharpnessTable, ham: HamiltonianSpec, rng=None
) -> EstimationRecord:
    """Single-shot energy estimator averaged over the batch."""
    rng = rng or np.random.default_rng(0)
    per_shot = np.zeros(len(batch.r))
    for subset, coeff in ham.terms:
        signs, eta = _filled_signs(batch, table, subset, rng)
        per_shot += coeff * signs / eta
    est = float(per_shot.mean())
    stderr = float(per_shot.std(ddof=1) / math.sqrt(len(per_shot)))
    return EstimationRecord("hamiltonian", est, len(per_shot), stderr)


def exact_expectations(probs: np.ndarray, table: SharpnessTable, targets) -> list[EstimationRecord]:
    """Analytic estimator expectations from the exact outcome table (no sampling).

    ``probs`` is :func:`shot_probability_table` of the state and ensemble
    that ``table`` describes.  Enumerates every outcome of every rotation: a
    test oracle for unbiasedness and for :func:`analytic_estimates`, which
    the exact mode runs.
    """
    n = table.n_modes
    masks = np.arange(4 ** n, dtype=np.uint64)
    q_bits = np.arange(2 ** n, dtype=np.uint64)
    records = []
    for subset in targets:
        s_mask, tau, modes, _, eta = _sign_rule(table, subset)
        x_s = parity(masks & s_mask)
        total = 0.0
        for r in np.flatnonzero(tau):  # uncovered rotations draw coins: zero mean
            total += tau[r] * float(x_s @ probs[r] @ parity(q_bits & modes[r]))
        records.append(EstimationRecord(tuple(subset), float(total / eta), 0, 0.0))
    return records


def analytic_estimates(state: FermionicState, table: SharpnessTable, targets) -> list[EstimationRecord]:
    """Analytic estimator expectations in closed form (no sampling, no outcome table).

    Under rotation r the sign rule's mean is ``tau_r m_r(S) tr(rho gamma_S)``,
    with ``m_r(S)`` the rotation's assigned minor, so the estimate is
    ``mean_r(tau_r m_r(S)) tr(rho gamma_S) / eta_eff(S)``.  Rotations that do
    not cover S (``tau_r = 0``) draw coins and add nothing.  Costs one
    ``state.expectation`` per distinct target, so it has no dense gate; it
    equals :func:`exact_expectations` of :func:`shot_probability_table`.
    """
    traces = {}
    records = []
    for subset in targets:
        key = tuple(subset)
        _, tau, _, minors, eta = _sign_rule(table, subset)
        # tau * m = |m| exactly, so a target every rotation covers has ratio 1.0
        ratio = float(np.mean(tau * minors)) / eta
        if key not in traces:
            traces[key] = state.expectation(subset)
        records.append(EstimationRecord(key, ratio * traces[key], 0, 0.0))
    return records


def predicted_variance(ham: HamiltonianSpec, table: SharpnessTable, state: FermionicState) -> float:
    """Variance of the single-rotation energy estimator.

    ``table`` describes a one-rotation ensemble (``ValueError`` otherwise),
    whose fixed ``R(S)`` assignments the terms read; the cross terms couple
    through the two-observable marginal coefficient.
    """
    from majorana_jm.povm import two_observable_correlation

    if table.n_matrices != 1:
        raise ValueError(f"predicted variance needs one rotation, not {table.n_matrices}")
    arr = table._arrays[0]
    n = state.n_modes
    assignment = {}
    for subset, _ in ham.terms:
        rows, det = table.assignment(1, subset)
        if rows is None:
            raise UncoveredTargetError(f"term {subset} has zero sharpness")
        assignment[subset] = rows, det
    total = 0.0
    for subset, coeff in ham.terms:
        total += coeff ** 2 / assignment[subset][1] ** 2
    for (s1, c1) in ham.terms:
        for (s2, c2) in ham.terms:
            if s1 == s2:
                continue
            (r1, nu1), (r2, nu2) = assignment[s1], assignment[s2]
            # E[e_S e_S'] = coeff * tr(gamma_{S xor S'} rho); dividing by the
            # sharpness product turns it into the nu-ratio of the variance law
            coeff = two_observable_correlation(arr, (r1, s1), (r2, s2), n)
            if coeff == 0.0:
                continue
            sd = tuple(sorted(set(s1) ^ set(s2)))
            total += c1 * c2 * coeff * state.expectation(sd) / abs(nu1 * nu2)
    return total - ham.expectation(state) ** 2


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
    from majorana_jm.povm import x_string_from_subset

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
