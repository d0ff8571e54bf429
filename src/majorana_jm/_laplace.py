"""Degree-4 minors of a rotation by Laplace expansion along its standard row pairs.

A diagonal row set of degree 4 is two standard pairs ``{2p-1, 2p, 2q-1,
2q}``, so its minor on a support ``S`` is the six-term expansion
``det O[R, S] = sum_A +-T[p, A] T[q, S - A]`` over the 2-subsets ``A`` of
``S``, with ``T[p, c]`` the 2x2 minor of row pair ``p`` on column pair
``c``.  :func:`majorana_jm.matching.scan_minors` imports this module for
its ``2k = 4`` scans only, so no other command compiles it.
"""

from __future__ import annotations

import itertools

import numpy as np

from majorana_jm.matching import _pair_chunks

# The six column pairs of a degree-4 support in combinations order: pair t
# goes to the first row pair and its complement, pair 5 - t, to the second,
# with sign _LAPLACE_SIGNS[t].
_SUPPORT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_LAPLACE_SIGNS = (1, -1, 1, 1, -1, 1)
# (R, S) pairs evaluated at once
_PAIR_CHUNK = 1 << 14


def split_table(n_modes: int, cols: np.ndarray):
    """The split table ``(left, right, pairs, offsets)`` of the 0-based supports ``cols``.

    Column pair ``c`` is ``(left[c], right[c])``, numbered in combinations
    order; ``pairs[j, t]`` is the number of support ``j``'s column pair
    ``_SUPPORT_PAIRS[t]``, and ``offsets[:, i]`` holds the two standard
    pairs of row set ``i`` (mode pairs in combinations order, as
    ``matching.diag_index_sets`` lists them) times the column-pair count.
    The index tables come from ``itertools``, not numpy's index helpers,
    which would load code that costs RSS in every 2k = 4 scan.
    """
    left, right = np.array(list(itertools.combinations(range(2 * n_modes), 2))).T
    number = np.zeros((2 * n_modes,) * 2, dtype=np.min_scalar_type(len(left)))
    number[left, right] = np.arange(len(left))
    pairs = np.stack([number[cols[:, x], cols[:, y]] for x, y in _SUPPORT_PAIRS], axis=1)
    offsets = np.array(list(itertools.combinations(range(0, n_modes * len(left), len(left)), 2))).T
    return left, right, pairs, offsets


def _degree4_dets(pair_minors: np.ndarray, offsets: np.ndarray, pairs: np.ndarray, i, j) -> np.ndarray:
    """``det(O[R_i, S_j])`` as the Laplace sum over the 2x2 minors of the row pairs.

    ``pair_minors[p * C(2n,2) + c]`` is the minor of standard row pair ``p``
    on column pair ``c``.  Starting the sum at ``+0.0`` makes a minor whose
    six products are all zero exactly ``+0.0``.
    """
    first, second = offsets[0][i], offsets[1][i]
    at = np.take(pairs, j, axis=0)  # a row gather, faster than pairs[j]
    dets = np.zeros(len(i))
    for t, sign in enumerate(_LAPLACE_SIGNS):
        term = pair_minors[first + at[:, t]] * pair_minors[second + at[:, 5 - t]]
        if sign > 0:
            dets += term
        else:
            dets -= term
    return dets


def grouped_minors(arr: np.ndarray, splits, bounds):
    """Yield ``(i, j, dets)`` chunks: every minor of ``arr`` that the grouping ``bounds`` allows.

    ``splits`` is :func:`split_table`'s result and ``bounds`` that of
    ``matching._group_bounds``.  One table holds the 2x2 minor of every
    standard row pair on every column pair, and each minor is read off it,
    in the chunks of ``matching._pair_chunks``.
    """
    left, right, pairs, offsets = splits
    up, down = arr[0::2], arr[1::2]
    pair_minors = (up[:, left] * down[:, right] - up[:, right] * down[:, left]).ravel()
    for i, j in _pair_chunks(bounds, _PAIR_CHUNK):
        yield i, j, _degree4_dets(pair_minors, offsets, pairs, i, j)
