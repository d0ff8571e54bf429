"""Turan partitions, sparse perfect matchings, and the base rotation of the constructed ensembles.

The degree-2 ensemble consists of two orthogonal matrices ``O1 = P_pi D``
and ``O2 = O1 P_sigma`` where ``D`` is a direct sum of lower-flat blocks,
``pi`` reorders a sparsely arranged perfect matching onto the standard
pairs ``{2j-1, 2j}``, and ``sigma`` swaps the endpoints of every matching
edge.  This module builds those pieces; the builders of
:mod:`majorana_jm.matching` load it only when a construction runs.

Mode counts that miss the exact Turan size ``2n = l(l+1)`` are handled by
enlarging some blocks by two vertices; the two extra vertices of an
enlarged block are matched to each other and their within-block pair is
covered through a non-monomial 2x2 minor forced by orthogonality.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from majorana_jm.ensemble import COVERAGE_TOL, CoverageError
from majorana_jm.gaussian import OrthogonalMatrix

__all__ = [
    "TuranPartition",
    "PerfectMatching",
    "LowerFlatMatrix",
    "turan_side",
    "construction_fits",
    "build_partition",
    "sparse_matching",
    "general_matching",
    "pi_permutation",
    "sigma_permutation",
    "permutation_matrix",
    "permutation_cycles",
    "sylvester_hadamard",
    "lower_flat",
]

_HADAMARD_MAX_M = 12


class TuranPartition(namedtuple("TuranPartition", "n_vertices subsets")):
    """Partition of ``{1..2n}`` into ``l+1`` contiguous subsets."""

    __slots__ = ()

    def __new__(cls, n_vertices: int, subsets: tuple[tuple[int, ...], ...]):
        flat = [v for sub in subsets for v in sub]
        if sorted(flat) != list(range(1, n_vertices + 1)):
            raise ValueError("subsets must partition {1..2n}")
        return super().__new__(cls, n_vertices, subsets)

    @property
    def n_subsets(self) -> int:
        return len(self.subsets)

    def color_of(self) -> dict[int, int]:
        """vertex -> subset index (0-based)."""
        return {v: i for i, sub in enumerate(self.subsets) for v in sub}


class PerfectMatching(namedtuple("PerfectMatching", "n_vertices edges")):
    """Perfect matching given as ascending vertex pairs sorted by first vertex."""

    __slots__ = ()

    def __new__(cls, n_vertices: int, edges: tuple[tuple[int, int], ...]):
        seen = set()
        for u, v in edges:
            if not (1 <= u < v <= n_vertices):
                raise ValueError(f"bad edge ({u},{v})")
            seen.update((u, v))
        if len(seen) != n_vertices or len(edges) != n_vertices // 2:
            raise ValueError("not a perfect matching")
        return super().__new__(cls, n_vertices, tuple(sorted(edges)))

    def relaxed_sparseness(self, partition: TuranPartition) -> tuple[bool, tuple[tuple[int, int], ...]]:
        """Sparseness allowing one within-subset edge per enlarged subset.

        Returns ``(ok, within_subset_edges)`` where ``ok`` demands exactly one
        edge between every pair of distinct subsets and at most one edge
        inside any single subset.
        """
        color = partition.color_of()
        cross: dict[tuple[int, int], int] = {}
        inside: dict[int, int] = {}
        within = []
        for u, v in self.edges:
            cu, cv = color[u], color[v]
            if cu == cv:
                inside[cu] = inside.get(cu, 0) + 1
                within.append((u, v))
            else:
                key = (min(cu, cv), max(cu, cv))
                cross[key] = cross.get(key, 0) + 1
        side = partition.n_subsets
        ok = all(
            cross.get((a, b), 0) == 1 for a in range(side) for b in range(a + 1, side)
        ) and all(c <= 1 for c in inside.values())
        return ok, tuple(sorted(within))


def turan_side(n_modes: int) -> tuple[int, int]:
    """Largest ``l`` with ``l(l+1) <= 2n`` and the leftover ``t = 2n - l(l+1)``."""
    two_n = 2 * n_modes
    side = 1
    while (side + 1) * (side + 2) <= two_n:
        side += 1
    t = two_n - side * (side + 1)
    if t % 2 != 0:
        raise AssertionError("t must be even: 2n and l(l+1) are both even")
    return side, t


def construction_fits(n_modes: int, half_degree: int) -> bool:
    """Whether the degree-2k construction exists at n modes: ``2k <= l + 1``."""
    return 2 * half_degree <= turan_side(n_modes)[0] + 1


def build_partition(n_modes: int) -> TuranPartition:
    """Contiguous partition into ``l+1`` subsets of size ``l`` or ``l+2``.

    The ``t`` leftover vertices are placed in pairs, two per subset starting
    from the first subset, so that every enlarged subset can carry a
    within-subset matching edge.
    """
    side, t = turan_side(n_modes)
    sizes = [side] * (side + 1)
    for i in range(t // 2):
        sizes[i] += 2
    subsets = []
    start = 1
    for size in sizes:
        subsets.append(tuple(range(start, start + size)))
        start += size
    return TuranPartition(2 * n_modes, tuple(subsets))


def sparse_matching(side: int) -> PerfectMatching:
    """Staircase sparsely arranged matching for ``2n = l(l+1)``.

    The edge between subsets ``i < j`` joins vertex ``(i-1)l + (j-1)`` of
    subset ``i`` to vertex ``(j-1)l + i`` of subset ``j``.
    """
    if side < 1:
        raise ValueError("side must be >= 1")
    edges = []
    for i in range(1, side + 2):
        for j in range(i + 1, side + 2):
            edges.append(((i - 1) * side + (j - 1), (j - 1) * side + i))
    return PerfectMatching(side * (side + 1), tuple(edges))


def general_matching(
    partition: TuranPartition, cores: list[tuple[int, ...]], extra_pairs: list[tuple[int, int] | None]
) -> PerfectMatching:
    """Staircase on the per-subset cores plus the within-subset extra edges."""
    side = partition.n_subsets - 1
    virtual = sparse_matching(side)
    edges = []
    for u, v in virtual.edges:
        iu, pu = divmod(u - 1, side)
        iv, pv = divmod(v - 1, side)
        a, b = cores[iu][pu], cores[iv][pv]
        edges.append((min(a, b), max(a, b)))
    for pair in extra_pairs:
        if pair is not None:
            edges.append(pair)
    return PerfectMatching(partition.n_vertices, tuple(edges))


def pi_permutation(matching: PerfectMatching) -> np.ndarray:
    """Permutation sending edge ``j`` (sorted order) onto the pair ``{2j-1, 2j}``.

    Returned as a 0-based array ``perm`` with ``perm[v-1] = pi(v) - 1``; the
    matching is recovered as ``{{pi^-1(2j-1), pi^-1(2j)}}``.
    """
    perm = np.empty(matching.n_vertices, dtype=np.int64)
    for j, (u, v) in enumerate(matching.edges):
        perm[u - 1] = 2 * j
        perm[v - 1] = 2 * j + 1
    return perm


def sigma_permutation(
    matching: PerfectMatching, partition: TuranPartition | None = None
) -> np.ndarray:
    """Involution swapping the endpoints of every matching edge (0-based array).

    With a partition given, verifies the re-partition property: vertices of a
    common subset land in pairwise distinct subsets, except for the endpoints
    of a within-subset edge, which stay together.
    """
    perm = np.empty(matching.n_vertices, dtype=np.int64)
    for u, v in matching.edges:
        perm[u - 1] = v - 1
        perm[v - 1] = u - 1
    if partition is not None:
        color = partition.color_of()
        within = {
            frozenset(e)
            for e in matching.edges
            if color[e[0]] == color[e[1]]
        }
        for sub in partition.subsets:
            landing: dict[int, list[int]] = {}
            for v in sub:
                landing.setdefault(color[int(perm[v - 1]) + 1], []).append(v)
            for dest, members in landing.items():
                if len(members) > 1 and frozenset(members) not in within:
                    raise ValueError(
                        f"re-partition property violated: {members} all map to subset {dest}"
                    )
    return perm


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """Matrix ``P`` with ``P e_j = e_perm[j]``.

    Then ``(P_pi @ D)`` has row ``i`` equal to row ``pi^-1(i)`` of ``D`` and
    ``(D @ P_sigma)`` has column ``j`` equal to column ``sigma(j)`` of ``D``.
    """
    size = len(perm)
    mat = np.zeros((size, size))
    mat[perm, np.arange(size)] = 1.0
    return mat


def permutation_cycles(perm: np.ndarray) -> list[tuple[int, ...]]:
    """Cycle decomposition with 1-based labels, fixed points included."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = int(perm[start])
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = int(perm[nxt])
        cycles.append(tuple(v + 1 for v in cycle))
    return cycles


class LowerFlatMatrix(namedtuple("LowerFlatMatrix", "entries min_abs_entry")):
    """Orthogonal matrix whose entries are all bounded away from zero; ``min_abs_entry`` is measured."""

    __slots__ = ()

    def __new__(cls, entries):
        arr = OrthogonalMatrix(entries).entries
        smallest = float(np.min(np.abs(arr)))
        if smallest <= 0.0:
            raise ValueError("lower-flat matrix has a zero entry")
        return super().__new__(cls, arr, smallest)

    def __getnewargs__(self):  # copy and pickle rebuild from the entries alone
        return (self.entries,)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def sylvester_hadamard(m: int) -> np.ndarray:
    """Sylvester Hadamard matrix of order ``2**m`` with +-1 entries."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m > _HADAMARD_MAX_M:
        raise ValueError(f"Hadamard order 2**{m} exceeds limit 2**{_HADAMARD_MAX_M}")
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(m):
        h = np.kron(block, h)
    return h


def lower_flat(size: int) -> LowerFlatMatrix:
    """Lower-flat orthogonal matrix of the given order.

    Decomposes ``size = 2**m + q`` with ``0 <= q < 2**m`` (the decomposition
    is unique) and builds the bordered-Hadamard construction from a
    normalized Sylvester Hadamard.  For ``q = 0`` the result is the
    normalized Hadamard itself.  For ``m > 1`` every entry has magnitude at
    least ``1/(2*sqrt(size))``; for ``size = 3`` (the only order forcing
    ``m = 1`` with ``q > 0``) the measured ``min_abs_entry`` is recorded
    instead of asserting that bound.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if size == 1:
        return LowerFlatMatrix(np.array([[1.0]]))
    m = size.bit_length() - 1  # unique m with 2**m <= size < 2**(m+1)
    q = size - 2 ** m
    h = sylvester_hadamard(m) / math.sqrt(2 ** m)
    if q == 0:
        return LowerFlatMatrix(h)
    s = 2 ** m - q
    h_ss, h_sq = h[:s, :s], h[:s, s:]
    h_qs, h_qq = h[s:, :s], h[s:, s:]
    eye_q = np.eye(q)
    root2 = math.sqrt(2.0)
    top = np.hstack([h_ss, h_sq / root2, -h_sq / root2])
    mid = np.hstack([h_qs / root2, (h_qq + eye_q) / 2.0, (-h_qq + eye_q) / 2.0])
    bot = np.hstack([-h_qs / root2, (-h_qq + eye_q) / 2.0, (h_qq + eye_q) / 2.0])
    return LowerFlatMatrix(np.vstack([top, mid, bot]))


def _best_block_pair(block: LowerFlatMatrix) -> tuple[tuple[int, int], tuple[int, int], float]:
    """Row pair, column pair and value of the largest 2x2 minor of the block."""
    f = block.entries
    size = block.size
    best = ((0, 1), (0, 1), -1.0)
    for rows in itertools.combinations(range(size), 2):
        sub = f[list(rows), :]
        for cols in itertools.combinations(range(size), 2):
            val = abs(sub[0, cols[0]] * sub[1, cols[1]] - sub[0, cols[1]] * sub[1, cols[0]])
            if val > best[2] + 1e-15:
                best = (rows, cols, val)
    return best


def _fix_block_columns(block: LowerFlatMatrix, rows, cols) -> LowerFlatMatrix:
    """Permute columns so the chosen minor sits on the ``rows x rows`` positions."""
    perm = list(range(block.size))

    def place(pos, val):
        cur = perm.index(val)
        perm[pos], perm[cur] = perm[cur], perm[pos]

    place(rows[0], cols[0])
    place(rows[1], cols[1])
    return LowerFlatMatrix(block.entries[:, perm])


def _blocks_and_extras(partition: TuranPartition):
    """Lower-flat block per subset plus core labels and within-subset pairs.

    Enlarged subsets (size ``l+2``) reserve two vertices that are matched to
    each other; the block columns are permuted so the reserved pair's own
    2x2 minor attains the block's best value, which orthogonality forces to
    be at least twice the squared smallest entry.
    """
    side = partition.n_subsets - 1
    blocks: list[LowerFlatMatrix] = []
    cores: list[tuple[int, ...]] = []
    extra_pairs: list[tuple[int, int] | None] = []
    for sub in partition.subsets:
        block = lower_flat(len(sub))
        if len(sub) == side:
            blocks.append(block)
            cores.append(tuple(sub))
            extra_pairs.append(None)
            continue
        rows, cols, _ = _best_block_pair(block)
        if cols != rows:
            block = _fix_block_columns(block, rows, cols)
        pair = (sub[rows[0]], sub[rows[1]])
        blocks.append(block)
        cores.append(tuple(v for v in sub if v not in pair))
        extra_pairs.append(pair)
    return blocks, cores, extra_pairs


def _block_diagonal(blocks: list[LowerFlatMatrix], size: int) -> np.ndarray:
    d = np.zeros((size, size))
    at = 0
    for b in blocks:
        d[at : at + b.size, at : at + b.size] = b.entries
        at += b.size
    return d


def _base_rotation(n_modes: int):
    """The pieces shared by both ensemble builders: O1 = P_pi D and friends."""
    partition = build_partition(n_modes)
    blocks, cores, extra_pairs = _blocks_and_extras(partition)
    matching = general_matching(partition, cores, extra_pairs)
    sparse_ok, within_edges = matching.relaxed_sparseness(partition)
    if not sparse_ok or set(within_edges) != {p for p in extra_pairs if p}:
        raise AssertionError("matching lost the sparse arrangement")
    pi = pi_permutation(matching)
    d = _block_diagonal(blocks, 2 * n_modes)
    o1 = permutation_matrix(pi) @ d
    min_entry = min(b.min_abs_entry for b in blocks)
    within = tuple(sorted(p for p in extra_pairs if p is not None))
    return partition, blocks, matching, pi, o1, min_entry, within


def _certify_degree2(coverage, blocks, partition, within_pairs, sigma):
    """Check every pair meets the sharpness bound of its guaranteed route.

    Cross-subset pairs are covered by the first rotation at a product of two
    lower-flat entries; same-subset pairs by the second rotation at a product
    taken in the blocks their sigma-images land in; the reserved extra pairs
    by the orthogonality-forced minor, worth twice the squared smallest entry
    of their block.  The bounds of all pairs are one array, in support order.
    """
    color_of = partition.color_of()
    color = np.array([color_of[v] for v in range(1, partition.n_vertices + 1)])
    entry = np.array([b.min_abs_entry for b in blocks])
    a, b = coverage.cols.T.astype(np.intp)
    ca, cb = color[a], color[b]
    same = ca == cb
    if same.any():  # n >= 2, so there is a second rotation and its sigma
        ca[same], cb[same] = color[sigma[a[same]]], color[sigma[b[same]]]
    bound = entry[ca] * entry[cb]
    for pair in within_pairs:
        bound[coverage.index[tuple(pair)]] = 2.0 * blocks[color_of[pair[0]]].min_abs_entry ** 2
    eta = coverage.best[0]
    failed = np.flatnonzero((eta <= COVERAGE_TOL) | (eta < bound - 1e-12))
    if failed.size:
        j = int(failed[0])
        row = coverage.row_at(j)
        raise CoverageError(
            f"pair {row.subset} covered at {row.eta:.3e}, below bound {float(bound[j]):.3e}"
        )
