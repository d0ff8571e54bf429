"""Minors of degree 2k >= 4 as products of the minors of a rotation's components.

The minor scan hands each chunk of (row set, support) pairs of
``matching._pair_chunks`` to an evaluator ``dets(i, j)``: LAPACK, or the
one :func:`grouped_minors` builds here.  Those pairs meet every connected
component of the rotation's nonzero pattern equally often, so ordering
both by component makes ``O[R, S]`` block diagonal and

    det O[R, S] = s_R s_S prod_c det O[R & c, S & c],

with ``s_R`` and ``s_S`` the parities of the inversions of R's and S's
component sequences.  Each component's minors of every size up to 2k are
tabulated once per rotation, indexed by local row and column bitmask;
a minor is the product of one gather of its factors, the sign among them.
Only ``2k >= 4`` scans import this module.
"""

from __future__ import annotations

import itertools

import numpy as np

from majorana_jm.matching import _components, _odd_inversions
# table entries of one rotation (16 MB); a rotation whose tables would pass it goes through LAPACK
_TABLE_LIMIT = 1 << 21


def _minor_table(block: np.ndarray, size: int) -> np.ndarray:
    """Every minor of ``block`` with at most ``size`` rows, at ``[row mask, column mask]``.

    Bit ``t`` of a mask selects local row (column) ``t``; the empty minor
    is 1 and entries of unequal popcount are 0.  Each minor is expanded
    along its first row over the table of the size below.  A minor whose
    every Leibniz term vanishes is then a sum of exact zeros starting at
    ``+0.0``, so it is exactly ``+0.0``, as LAPACK does not guarantee.
    """
    n_rows, n_cols = block.shape
    table = np.zeros((1 << n_rows, 1 << n_cols))
    table[0, 0] = 1.0
    for m in range(1, min(size, n_rows, n_cols) + 1):
        rows = np.array(list(itertools.combinations(range(n_rows), m)))
        cols = np.array(list(itertools.combinations(range(n_cols), m)))
        row_masks, col_masks = (1 << rows).sum(axis=1), (1 << cols).sum(axis=1)
        first = rows[:, :1]
        rest = row_masks[:, None] - (1 << first)
        acc = np.zeros((len(rows), len(cols)))
        for t in range(m):
            term = block[first, cols[:, t]] * table[rest, col_masks - (1 << cols[:, t])]
            if t % 2:
                acc -= term
            else:
                acc += term
        table[row_masks[:, None], col_masks] = acc
    return table


def grouped_minors(arr: np.ndarray, sets):
    """The evaluator ``dets(i, j)`` of row sets ``i`` and supports ``j`` off the component tables.

    ``sets`` is the ``matching._IndexSets`` of the scan; every pair that
    ``dets`` gets must meet the components equally, as those of
    ``matching._pair_chunks`` do.  Returns ``None`` where the tables do
    not pay and LAPACK should run instead: a matrix of one component (a
    dense rotation), or components whose tables would pass
    ``_TABLE_LIMIT`` entries.
    """
    row_lab, col_lab = _components(arr)
    labels = sorted(set(row_lab.tolist()) & set(col_lab.tolist()))
    members = [(np.flatnonzero(row_lab == c), np.flatnonzero(col_lab == c)) for c in labels]
    if len(members) < 2 or sum(1 << (len(r) + len(c)) for r, c in members) > _TABLE_LIMIT:
        return None
    size = sets.cols.shape[1]
    # per row and column: its component, and its one-hot bit among the
    # component's own in the component's slot; the last slot is the sign's
    widths = [len(cols) for _, cols in members] + [0]
    row_comp = np.full(len(arr), len(members), dtype=np.uint8)
    col_comp = np.full(arr.shape[1], len(members), dtype=np.uint8)
    row_bits = np.zeros((len(arr), len(widths)), dtype=np.int64)
    col_bits = np.zeros((arr.shape[1], len(widths)), dtype=np.min_scalar_type((1 << max(widths)) - 1))
    tables = []
    for c, (rows, cols) in enumerate(members):
        row_comp[rows], col_comp[cols] = c, c
        row_bits[rows, c] = 1 << np.arange(len(rows))
        col_bits[cols, c] = 1 << np.arange(len(cols))
        tables.append(_minor_table(arr[np.ix_(rows, cols)], size).ravel())
    tables.append(np.array([1.0, -1.0, 1.0]))  # at odd_R + odd_S: s_R s_S
    # row set i's index into each table, less support j's share: its column masks
    rows = sets.rows.astype(np.intp)
    row_parts = row_bits[rows].sum(axis=1) << widths
    row_parts += np.cumsum([0] + [len(t) for t in tables[:-1]])
    row_parts[:, -1] += _odd_inversions(row_comp[rows])
    col_parts = np.zeros((len(sets.cols), len(tables)), dtype=col_bits.dtype)
    for column in sets.cols.T:
        col_parts += np.take(col_bits, column, axis=0)
    col_parts[:, -1] = _odd_inversions(col_comp[sets.cols])
    flat = np.concatenate(tables)

    def dets(i, j):
        # row gathers, faster than row_parts[i]
        factors = flat[np.take(row_parts, i, axis=0) + np.take(col_parts, j, axis=0)]
        out = factors[:, 0] * factors[:, 1]
        for c in range(2, factors.shape[1]):
            out *= factors[:, c]
        out += 0.0  # a -0.0 product is a structural zero: make it +0.0
        return out

    return dets
