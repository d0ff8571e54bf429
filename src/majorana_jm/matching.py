"""The minor table of an ensemble, and the builders of the constructed ensembles.

The scan reads every rotation's minors ``det(O_{R,S})`` over the diagonal
row sets ``R`` and the size-2k supports ``S`` into a :class:`MinorTable`,
which is also the coverage certificate.  The degree-2 ensemble is the pair
``O1 = P_pi D``, ``O2 = O1 P_sigma`` of :mod:`majorana_jm.turan`; the
degree-2k ensemble permutes the columns of ``O1`` by uniformly random
permutations and retries until every size-2k support is covered.  Every
rotation either builder makes is therefore ``O1`` with permuted columns,
and its minors are those of ``O1``, relabelled and signed: the minor scan
runs its kernel once per base rotation and reads every permuted copy off
the base's table.  The builders load :mod:`majorana_jm.turan` only when
they run, so commands that only scan never compile the construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from functools import cached_property
from typing import NamedTuple

import numpy as np

from majorana_jm.ensemble import COVERAGE_TOL, CoverageError, MeasurementEnsemble, _column_permutation
from majorana_jm.gaussian import OrthogonalMatrix

__all__ = [
    "CoverageRow",
    "MinorTable",
    "diag_index_sets",
    "degree2_ensemble",
    "degree2k_ensemble",
    "minor_dets",
    "scan_minors",
]

# candidate resamples before the degree-2k construction gives up
_MAX_RETRIES = 200
# (row set, support) pairs evaluated at once (4.7 MB of 6x6 submatrices on LAPACK)
_PAIR_CHUNK = 1 << 14


def diag_index_sets(n_modes: int, half_degree: int) -> list[tuple[int, ...]]:
    """The index sets of products of ``half_degree`` standard pairs, lexicographic."""
    out = []
    for modes in itertools.combinations(range(1, n_modes + 1), half_degree):
        s: tuple[int, ...] = ()
        for j in modes:
            s = s + (2 * j - 1, 2 * j)
        out.append(s)
    return out


def _components(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column labels of the connected components of ``arr != 0``.

    The graph is bipartite, rows on one side and columns on the other, with
    an edge per nonzero entry.  Each component is labelled by its smallest
    row index (min-label propagation until nothing changes); a zero column
    gets the label ``len(arr)``, which no row carries.
    """
    nz = arr != 0
    n_rows = len(arr)
    row_lab = np.arange(n_rows)
    while True:
        col_lab = np.where(nz, row_lab[:, None], n_rows).min(axis=0)
        new = np.minimum(row_lab, np.where(nz, col_lab, n_rows).min(axis=1))
        if np.array_equal(new, row_lab):
            return row_lab, col_lab
        row_lab = new


def _label_keys(labels: np.ndarray, n_labels: int) -> np.ndarray:
    """One integer per row of ``labels``, equal exactly where the rows hold the same multiset.

    A multiset of ``width`` labels below ``n_labels`` is its count vector,
    whose entries are at most ``width``: read in base ``width + 1`` it is
    the key, in the smallest unsigned type that holds it (at most 16 bits
    makes the stable argsort a radix sort).  Where that number overflows
    int64, the sorted rows are numbered by :func:`np.unique` instead.
    """
    base = labels.shape[1] + 1
    if base ** n_labels >= 2 ** 63:
        return np.unique(np.sort(labels, axis=1), axis=0, return_inverse=True)[1].reshape(-1)
    digits = np.array([base**m for m in range(n_labels)], dtype=np.min_scalar_type(base**n_labels - 1))
    keys = np.zeros(len(labels), dtype=digits.dtype)
    for column in labels.T:  # column by column: a sum along axis 1 is slower
        keys += digits[column]
    return keys


def _group_bounds(arr: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Each row set's group of supports whose minor can be nonzero.

    A minor ``det(arr[R, S])`` can be nonzero only when ``R`` and ``S`` meet
    every connected component of ``arr != 0`` equally often, that is when
    they hold the same multiset of component labels.  Each row set and
    support gets one integer key (:func:`_label_keys`); one stable argsort
    of the support keys keeps each key's group of supports in ascending
    order, and two ``searchsorted`` calls find every row set's group.
    Returns ``(order, lo, hi, row_keys)``: row set ``i``'s group is
    ``order[lo[i]:hi[i]]``.  A dense matrix is one component, and then
    every support is in every group.
    """
    # the labels renumbered 0, 1, ... so that few components make small keys,
    # through a table: np.unique would load sort code worth half a MB of RSS
    row_lab, col_lab = _components(arr)
    used = np.zeros(len(arr) + 1, dtype=bool)
    used[row_lab] = used[col_lab] = True
    renumber = (np.cumsum(used) - 1).astype(np.min_scalar_type(len(arr)))
    keys = _label_keys(np.concatenate([renumber[col_lab][cols], renumber[row_lab][rows]]), int(used.sum()))
    col_keys, row_keys = keys[: len(cols)], keys[len(cols) :]
    order = np.argsort(col_keys, kind="stable")
    ranked = col_keys[order]
    lo = np.searchsorted(ranked, row_keys, side="left")
    hi = np.searchsorted(ranked, row_keys, side="right")
    return order, lo, hi, row_keys


def _lapack_minors(arr: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """The evaluator ``dets(i, j)``: ``det(arr[rows[i], cols[j]])`` pair by pair, one ``np.linalg.det`` call.

    LAPACK factors each submatrix on its own, so a minor's bits do not
    depend on the chunk it comes in.
    """
    # gathers with intp indices run about twice as fast as with the cached uint8 ones
    rows = rows.astype(np.intp)
    return lambda i, j: np.linalg.det(arr[rows[i][:, :, None], cols[j].astype(np.intp)[:, None, :]])


def minor_dets(arr: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Signed ``det(arr[R, S])`` for the 0-based index sets ``R`` in ``rows``, ``S`` in ``cols``.

    The dense ``(len(rows), len(cols))`` block: the minors of the pairs
    that :func:`_group_bounds` allows, through LAPACK, and exactly ``0.0``
    everywhere else.
    """
    out = np.zeros((len(rows), len(cols)))
    dets = _lapack_minors(arr, rows, cols)
    for i, j in _pair_chunks(_group_bounds(arr, rows, cols), _PAIR_CHUNK):
        out[i, j] = dets(i, j)
    return out


class CoverageRow(NamedTuple):
    subset: tuple[int, ...]
    r: int | None  # 1-based matrix index, None if uncovered
    rows: tuple[int, ...] | None
    eta: float


class MinorTable:
    """Each rotation's reductions of its minors ``det(O_{R,S})`` at one degree.

    ``cols`` holds the supports, 0-based, one row each in combinations
    order, and ``row_sets`` the diagonal row sets as 1-based tuples.
    ``per_matrix`` is ``(best, minors)``, both ``(N, nS)``: for matrix
    ``r`` (0-based) and support ``j``, the diagonal row set
    ``row_sets[best[r, j]]`` maximizes ``|det|`` rounded to 12 decimals
    (the first row set winning ties) and ``minors[r, j]`` is its signed
    minor; ``best`` has the smallest unsigned type that holds a row set
    index.  Coverage, sharpness and the sign rule read only these, as
    ``eta_S = max_R |det(O_{R,S})|``; ``rows`` is the coverage certificate,
    one :class:`CoverageRow` per support with uncovered supports flagged.
    Support tuples are made only where asked for: ``index`` maps one to
    its position by its lexicographic rank.
    """

    def __init__(self, sets: _IndexSets, best: np.ndarray, minors: np.ndarray):
        self.half_degree = sets.half_degree
        self.cols = sets.cols
        self.row_sets = sets.row_sets
        self.index = sets.index
        self.per_matrix = (best, minors)

    @cached_property
    def best(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best ``(eta, r, rows index)`` per support over the whole ensemble.

        Each matrix's winner is visited in ``r`` order and replaces the
        running best only when larger by more than ``COVERAGE_TOL``, so
        near-ties go to the smallest ``r``.  Uncovered supports keep
        ``eta = 0`` and index ``-1``.
        """
        winners, minors = self.per_matrix
        n_s = len(self.cols)
        eta = np.zeros(n_s)
        best_r = np.full(n_s, -1, dtype=np.int64)
        best_rows = np.full(n_s, -1, dtype=np.int64)
        for r, (rows, signed) in enumerate(zip(winners, minors)):
            vals = np.abs(signed)
            better = vals > eta + COVERAGE_TOL
            eta[better] = vals[better]
            best_r[better] = r
            best_rows[better] = rows[better]
        return eta, best_r, best_rows

    def row_at(self, j: int) -> CoverageRow:
        """The global best ``(r, R)`` and ``eta`` of support ``j``."""
        eta, r_idx, rows_idx = self.best
        subset = tuple((self.cols[j] + 1).tolist())
        if eta[j] > COVERAGE_TOL:
            return CoverageRow(subset, int(r_idx[j]) + 1, self.row_sets[int(rows_idx[j])], float(eta[j]))
        return CoverageRow(subset, None, None, 0.0)

    @cached_property
    def rows(self) -> tuple[CoverageRow, ...]:
        """:meth:`row_at` of every support, in support order."""
        return tuple(self.row_at(j) for j in range(len(self.cols)))

    @property
    def uncovered(self) -> tuple[tuple[int, ...], ...]:
        eta = self.best[0]
        return tuple(map(tuple, (self.cols[eta <= COVERAGE_TOL] + 1).tolist()))

    @property
    def min_eta(self) -> float:
        """The smallest ``eta`` of :attr:`rows`: 0 when a support is uncovered."""
        eta = self.best[0]
        return float(np.where(eta > COVERAGE_TOL, eta, 0.0).min())

    def row_for(self, subset) -> CoverageRow:
        return self.row_at(self.index[tuple(subset)])


class _SupportRank:
    """Position of a support among the ``size``-subsets of ``1..n_indices`` in combinations order.

    ``rank[s]`` is the lexicographic rank of the ascending tuple ``s``,
    ``C(n, m) - 1 - sum_t C(n - s_t, m - t)`` for ``s = (s_1, ..., s_m)``;
    anything that is not an ascending ``size``-tuple of integers in
    ``1..n_indices`` raises ``KeyError``, as a lookup in a dict of every
    support would.
    """

    def __init__(self, n_indices: int, size: int):
        self.n_indices = n_indices
        self.size = size

    def __getitem__(self, support) -> int:
        try:
            s = [operator.index(v) for v in support]
        except TypeError:
            raise KeyError(support) from None
        n, m = self.n_indices, self.size
        if len(s) != m or not all(a < b for a, b in zip([0, *s], [*s, n + 1])):
            raise KeyError(support)
        return math.comb(n, m) - 1 - sum(math.comb(n - v, m - t) for t, v in enumerate(s))

    def of_rows(self, supports: np.ndarray) -> np.ndarray:
        """The rank of every row of ``supports``, ascending 0-based tuples, by the same formula."""
        n, m = self.n_indices, self.size
        at = np.full(len(supports), math.comb(n, m) - 1, dtype=np.intp)
        for t, column in enumerate(supports.T):
            at -= np.array([math.comb(n - 1 - v, m - t) for v in range(n)], dtype=np.intp)[column]
        return at


def _combinations(n_items: int, size: int) -> np.ndarray:
    """Every ``size``-subset of ``range(n_items)`` in combinations order, as a ``(count, size)`` array.

    Its type is the smallest unsigned one that holds ``n_items``, so the
    1-based subsets fit too.  The subsets starting at ``f`` are ``f``
    followed by the ``(size - 1)``-subsets above ``f``, a tail of the
    previous size's list, so each size is one pass over the starts.
    ``np.fromiter`` over ``itertools.combinations`` gives the same array
    but raised every command's peak RSS by about 0.2 MB.
    """
    combos = np.arange(n_items, dtype=np.min_scalar_type(n_items))[:, None]
    for width in range(2, size + 1):
        tails = np.searchsorted(combos[:, 0], np.arange(1, n_items - width + 2))
        out = np.empty((math.comb(n_items, width), width), dtype=combos.dtype)
        at = 0
        for first, tail in enumerate(tails.tolist()):
            count = len(combos) - tail
            out[at : at + count, 0] = first
            out[at : at + count, 1:] = combos[tail:]
            at += count
        combos = out
    return combos


class _IndexSets:
    """The supports and diagonal row sets of one ``(n, k)``, as 0-based arrays.

    Every :class:`MinorTable` of that ``(n, k)`` shares them.  The supports
    are kept only as the ``(nS, 2k)`` array ``cols``; the few row sets are
    also kept as 1-based tuples.  ``best_dtype`` is the smallest unsigned
    type that holds a row set index, and ``index`` ranks a support.
    """

    def __init__(self, n_modes: int, half_degree: int):
        self.n_modes = n_modes
        self.half_degree = half_degree
        self.cols = _combinations(2 * n_modes, 2 * half_degree)
        self.row_sets = tuple(diag_index_sets(n_modes, half_degree))
        self.rows = (np.array(self.row_sets) - 1).astype(self.cols.dtype)
        self.best_dtype = np.min_scalar_type(len(self.row_sets) - 1)
        self.index = _SupportRank(2 * n_modes, 2 * half_degree)


@functools.lru_cache(maxsize=4)
def _index_sets(n_modes: int, half_degree: int) -> _IndexSets:
    return _IndexSets(n_modes, half_degree)


def _layers(keys: np.ndarray) -> list[np.ndarray]:
    """Row set indices by rank among equal keys: layer ``m`` holds each key's ``m``-th row set.

    Row sets of one key share their group of supports, and those of
    different keys share none, so no support occurs twice in a layer and
    each support meets its row sets in ascending order across the layers.
    """
    seen: dict[int, int] = {}
    layers: list[list[int]] = []
    for i, key in enumerate(keys.tolist()):
        rank = seen[key] = seen.get(key, -1) + 1
        if rank == len(layers):
            layers.append([])
        layers[rank].append(i)
    return [np.array(layer) for layer in layers]


def _pair_chunks(bounds, chunk: int):
    """Yield ``(i, j)``: every (row set, support) pair of the grouping ``bounds``, in chunks.

    ``bounds`` is the result of :func:`_group_bounds`.  The row sets go
    layer by layer (:func:`_layers`), each layer's pairs in chunks of at
    most ``chunk``, so a chunk never holds a support twice and each
    support's row sets arrive in ascending order.
    """
    order, lo, hi, row_keys = bounds
    for layer in _layers(row_keys):
        sizes = hi[layer] - lo[layer]
        ends = np.cumsum(sizes)
        shift = lo[layer] - (ends - sizes)  # from a pair's flat index to its place in order
        total = int(ends[-1])
        for start in range(0, total, chunk):
            flat = np.arange(start, min(start + chunk, total))
            at = np.searchsorted(ends, flat, side="right")
            yield layer[at], order[flat + shift[at]]


def _odd_inversions(labels: np.ndarray) -> np.ndarray:
    """Per row of ``labels``: whether its pairs ``t < u`` with ``labels[t] > labels[u]`` are odd in number."""
    odd = np.zeros(len(labels), dtype=bool)
    for t, u in itertools.combinations(range(labels.shape[1]), 2):
        odd ^= labels[:, t] > labels[:, u]
    return odd


def _image_ranks(sets: _IndexSets, perm: np.ndarray) -> np.ndarray:
    """Per support ``S``: the position of its image ``sorted(perm[S])`` among the supports."""
    images = np.sort(perm.astype(sets.cols.dtype)[sets.cols], axis=1)
    return sets.index.of_rows(images)


def _permuted_row(sets: _IndexSets, best: np.ndarray, minors: np.ndarray, perm: np.ndarray):
    """The ``(best, minors)`` row of ``base[:, perm]`` from the row of ``base``.

    Its minor on ``S`` is the base's on the columns ``perm[S]``: the
    base's support ``sorted(perm[S])``, negated where the sort is odd.
    Every row set's ``|det|`` and its rounding stay, so the best row set
    does too.  The negation is ``0.0 - x``, which keeps a structural zero
    ``+0.0``.
    """
    at = _image_ranks(sets, perm)
    signed = minors[at]
    odd = _odd_inversions(perm.astype(sets.cols.dtype)[sets.cols])
    np.subtract(0.0, signed, out=signed, where=odd)
    return best[at], signed


def _scan_rotation(arr: np.ndarray, sets: _IndexSets, best: np.ndarray, minors: np.ndarray) -> None:
    """Reduce every nonzero minor of one rotation into its ``(best, minors)`` row, in place."""
    bounds = _group_bounds(arr, sets.rows, sets.cols)
    order, lo, hi, _ = bounds
    top = np.zeros(len(sets.cols))  # the running best rounded |det|
    top[order[lo[0] : hi[0]]] = -1.0  # row set 0 assigns its whole group
    dets = _lapack_minors(arr, sets.rows, sets.cols)
    if sets.half_degree > 1:  # at 2k = 2 the tables would move LAPACK's last bits
        from majorana_jm import _blockminors

        dets = _blockminors.grouped_minors(arr, sets) or dets
    for i, j in _pair_chunks(bounds, _PAIR_CHUNK):
        chunk = dets(i, j)
        vals = np.abs(np.round(chunk, 12))
        won = vals > top[j]
        at = j[won]
        top[at] = vals[won]
        best[at] = i[won]
        minors[at] = chunk[won]


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _scan_footprint(n_modes: int, half_degree: int, n_matrices: int) -> int:
    """Bytes that a scan of ``n_matrices`` rotations needs, about.

    Per support: its 2k columns, each rotation's minor and row set index,
    and 64 bytes of scan scratch (the running best, the sort order and
    keys); besides, one LAPACK chunk's submatrices, twice.
    """
    size = 2 * half_degree
    n_supports = math.comb(2 * n_modes, size)
    best_bytes = np.min_scalar_type(math.comb(n_modes, half_degree) - 1).itemsize
    per_support = size + n_matrices * (8 + best_bytes) + 64
    return n_supports * per_support + 2 * min(n_supports, _PAIR_CHUNK) * size * size * 8


def _check_footprint(n_modes: int, half_degree: int, n_matrices: int) -> None:
    """Raise ``ValueError`` before a scan whose footprint would pass physical memory."""
    need, have = _scan_footprint(n_modes, half_degree, n_matrices), _physical_memory()
    if need > have:
        raise ValueError(
            f"the degree-{2 * half_degree} minor table of {n_matrices} rotation(s) on {n_modes} modes "
            f"needs about {need / 1e9:.3g} GB, more than the {have / 1e9:.3g} GB of physical memory"
        )


def scan_minors(arrays, n_modes: int, half_degree: int) -> MinorTable:
    """The :class:`MinorTable` of ``arrays`` over every size-2k support.

    The rotations are walked in order, as the shot simulator walks them.
    One whose columns are exactly (``==``) the current base rotation's
    columns permuted takes the base's row, relabelled and signed
    (:func:`_permuted_row`); any other becomes the base and goes through a
    kernel, so a constructed ensemble runs one kernel in all.  The kernel
    reduces the chunks of :func:`_pair_chunks` straight into the row, so
    no ``(C(n,k), C(2n,2k))`` block is held; a chunk's minors come from
    LAPACK (:func:`_lapack_minors`) or, at ``2k >= 4`` on several
    components, from :mod:`majorana_jm._blockminors`.  Row set 0 assigns
    its group; a later row set replaces an entry only when its ``|det|``
    rounded to 12 decimals is strictly larger.  That is the first-wins
    argmax over the block: a support no row set matches keeps row set 0
    and minor ``0.0``.  Off LAPACK the minors agree with LAPACK's to
    rounding (about 1e-16), not bit for bit.  The index sets are built
    once per ``(n, k)`` and process, after :func:`_check_footprint`.
    """
    _check_footprint(n_modes, half_degree, len(arrays))
    sets = _index_sets(n_modes, half_degree)
    best = np.zeros((len(arrays), len(sets.cols)), dtype=sets.best_dtype)
    minors = np.zeros(best.shape)
    base = None
    for r, arr in enumerate(arrays):
        perm = None if base is None else _column_permutation(arrays[base], arr)
        if perm is None:
            base = r
            _scan_rotation(arr, sets, best[r], minors[r])
        else:
            best[r], minors[r] = _permuted_row(sets, best[base], minors[base], perm)
    return MinorTable(sets, best, minors)


def degree2_ensemble(n_modes: int) -> MeasurementEnsemble:
    """The two-rotation ensemble jointly measuring all degree-2 observables.

    For ``n = 1`` a single rotation already covers the unique observable and
    the ensemble has one matrix.
    """
    from majorana_jm.turan import _base_rotation, _certify_degree2, permutation_matrix, sigma_permutation

    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    partition, blocks, matching, pi, o1, min_entry, within = _base_rotation(n_modes)
    if n_modes == 1:
        matrices = (OrthogonalMatrix(o1),)
        sigmas: tuple[np.ndarray | None, ...] = (None,)
    else:
        sigma = sigma_permutation(matching, partition)
        o2 = o1 @ permutation_matrix(sigma)
        matrices = (OrthogonalMatrix(o1), OrthogonalMatrix(o2))
        sigmas = (None, sigma)
    ensemble = MeasurementEnsemble(
        n_modes=n_modes,
        degree_k=1,
        matrices=matrices,
        partition=partition,
        pi=pi,
        sigmas=sigmas,
        block_min_entry=min_entry,
        within_pairs=within,
    )
    _certify_degree2(ensemble.coverage, blocks, partition, within, ensemble.sigmas[-1])
    return ensemble


def degree2k_ensemble(
    n_modes: int,
    half_degree: int,
    n_matrices: int | None = None,
    seed: int | None = None,
) -> MeasurementEnsemble:
    """Randomized ensemble covering all degree-2k observables.

    Each rotation permutes the columns of the base rotation by a uniformly
    random permutation (Fisher-Yates through the seeded generator).  A
    rotation covers a support when its best diagonal-row minor meets the
    lower-flat product bound; when the union of covers is incomplete the
    weakest permutation is resampled, up to ``_MAX_RETRIES`` times.  The
    base is scanned once and each candidate's covers are read off it
    (:func:`_image_ranks`); the ensemble's table is the scan of its final
    rotations, the one that ``validate`` and ``sharpness`` repeat.
    """
    from majorana_jm.turan import _base_rotation, permutation_matrix, turan_side

    if half_degree < 1:
        raise ValueError("half_degree must be >= 1")
    side, _ = turan_side(n_modes)
    if 2 * half_degree > side + 1:
        raise ValueError(
            f"degree 2k={2 * half_degree} too large: needs 2k <= l+1 = {side + 1}"
        )
    if n_matrices is None:
        n_matrices = 4 * half_degree + 1
    if n_matrices < 1:
        raise ValueError(f"need N >= 1 rotations, got N = {n_matrices}")
    if seed is None:
        raise ValueError("seed is mandatory for the randomized construction")
    _check_footprint(n_modes, half_degree, n_matrices)
    # counter-based generator for bit-reproducible ensembles across platforms
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    partition, blocks, _, pi, o1, min_entry, within = _base_rotation(n_modes)
    two_n = 2 * n_modes
    threshold = min_entry ** (2 * half_degree)
    sets = _index_sets(n_modes, half_degree)
    # the base's covers: a candidate's minor on S is the base's on sigma[S], up to sign
    strong = np.abs(scan_minors([o1], n_modes, half_degree).per_matrix[1][0]) >= threshold - 1e-12
    sigmas = [rng.permutation(two_n) for _ in range(n_matrices)]
    covered = np.stack([strong[_image_ranks(sets, sigma)] for sigma in sigmas])
    retries = 0
    while not covered.any(axis=0).all():
        if retries >= _MAX_RETRIES:
            raise CoverageError(
                f"coverage not achieved within {_MAX_RETRIES} resamples"
            )
        weakest = int(np.argmin(covered.sum(axis=1)))
        sigmas[weakest] = rng.permutation(two_n)
        covered[weakest] = strong[_image_ranks(sets, sigmas[weakest])]
        retries += 1
    del strong, covered  # not held through the final scan
    ensemble = MeasurementEnsemble(
        n_modes=n_modes,
        degree_k=half_degree,
        matrices=tuple(OrthogonalMatrix(o1 @ permutation_matrix(s)) for s in sigmas),
        partition=partition,
        pi=pi,
        sigmas=tuple(sigmas),
        seed=seed,
        retries=retries,
        block_min_entry=min_entry,
        within_pairs=within,
    )
    table = ensemble.coverage
    if table.uncovered:
        raise CoverageError(f"uncovered supports remain: {table.uncovered[:5]}")
    if table.min_eta < threshold - 1e-12:
        raise CoverageError(
            f"min sharpness {table.min_eta:.3e} below bound {threshold:.3e}"
        )
    return ensemble
