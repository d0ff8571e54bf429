"""Tests for partitions, matchings, permutations and measurement ensembles."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorana_jm import _blockminors, matching
from majorana_jm.ensemble import COVERAGE_TOL, CoverageError
from majorana_jm.gaussian import random_orthogonal, submatrix_det
from majorana_jm.matching import (
    degree2_ensemble,
    degree2k_ensemble,
    diag_index_sets,
    minor_dets,
    scan_minors,
)
from majorana_jm.paper import partition_failure_prob, random_partition
from majorana_jm.turan import (
    _base_rotation,
    _certify_degree2,
    build_partition,
    construction_fits,
    lower_flat,
    permutation_cycles,
    permutation_matrix,
    pi_permutation,
    sigma_permutation,
    sparse_matching,
    turan_side,
)


def is_generated(subset, partition_blocks) -> bool:
    """True when no two elements of ``subset`` fall in one partition block."""
    colors = [partition_blocks[v] for v in subset]
    return len(set(colors)) == len(colors)


PRINTED_O2 = np.array(
    [
        [0, 0, 1, 0, 1, 0],
        [1, 0, 0, 0, 0, 1],
        [0, 0, 1, 0, -1, 0],
        [0, 1, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, -1],
        [0, 1, 0, -1, 0, 0],
    ]
) / math.sqrt(2.0)


class TestMatching:
    def test_staircase_l2(self):
        m = sparse_matching(2)
        assert m.edges == ((1, 3), (2, 5), (4, 6))

    def test_staircase_l1(self):
        assert sparse_matching(1).edges == ((1, 2),)

    @pytest.mark.parametrize("side", [2, 3, 4, 5])
    def test_sparseness_predicate(self, side):
        m = sparse_matching(side)
        n_modes = side * (side + 1) // 2
        assert m.relaxed_sparseness(build_partition(n_modes)) == (True, ())
        assert len(m.edges) == math.comb(side + 1, 2)

    def test_pi_cycles_match_worked_example(self):
        pi = pi_permutation(sparse_matching(2))
        assert permutation_cycles(pi) == [(1,), (2, 3), (4, 5), (6,)]

    def test_pi_identity_on_standard_pairs(self):
        from majorana_jm.turan import PerfectMatching

        m = PerfectMatching(6, ((1, 2), (3, 4), (5, 6)))
        assert np.array_equal(pi_permutation(m), np.arange(6))

    @pytest.mark.parametrize("side", [2, 3])
    def test_pi_round_trip(self, side):
        # the matching is recovered as {{pi^-1(2j-1), pi^-1(2j)}}
        m = sparse_matching(side)
        pi = pi_permutation(m)
        inv = np.argsort(pi)
        rebuilt = sorted(
            tuple(sorted((int(inv[2 * j]) + 1, int(inv[2 * j + 1]) + 1)))
            for j in range(len(pi) // 2)
        )
        assert tuple(rebuilt) == m.edges

    def test_sigma_cycles(self):
        sg = sigma_permutation(sparse_matching(2), build_partition(3))
        assert permutation_cycles(sg) == [(1, 3), (2, 5), (4, 6)]

    def test_sigma_smallest(self):
        sg = sigma_permutation(sparse_matching(1))
        assert permutation_cycles(sg) == [(1, 2)]

    def test_sigma_no_two_same_colors(self):
        # the l=3 re-partition keeps all subsets rainbow
        sigma_permutation(sparse_matching(3), build_partition(6))


class TestPartition:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_sizes(self, n):
        part = build_partition(n)
        side, t = turan_side(n)
        sizes = sorted(len(s) for s in part.subsets)
        assert len(part.subsets) == side + 1
        assert all(s in (side, side + 2) for s in sizes)
        assert sum(sizes) == 2 * n

    def test_t_even(self):
        for n in range(1, 30):
            _, t = turan_side(n)
            assert t % 2 == 0

    @pytest.mark.parametrize("half", range(1, 7))
    def test_construction_fits_agrees_with_the_builder(self, half):
        # N = 0 is refused only after the size check, so no ensemble is built
        for n in range(1, 31):
            message = "too large" if not construction_fits(n, half) else "need N >= 1"
            with pytest.raises(ValueError, match=message):
                degree2k_ensemble(n, half, n_matrices=0, seed=1)


class TestDegree2Ensemble:
    def test_n3_matches_worked_example(self):
        ens = degree2_ensemble(3)
        assert ens.n_matrices == 2
        # O2 equals the printed matrix exactly
        assert np.max(np.abs(ens.matrices[1].entries - PRINTED_O2)) < 1e-14
        # O1 is P_pi D for pi = (1)(23)(45)(6); entries in {0, +-1/sqrt2}
        vals = np.unique(np.round(ens.matrices[0].entries * math.sqrt(2.0), 12))
        assert set(vals) == {-1.0, 0.0, 1.0}
        etas = [row.eta for row in ens.coverage.rows]
        assert len(etas) == 15
        assert all(abs(e - 0.5) < 1e-12 for e in etas)

    def test_n3_single_matrix_misses_same_pair_observables(self):
        ens = degree2_ensemble(3)
        table = scan_minors([ens.matrices[0].entries], 3, 1)
        uncovered = [s for s, e in zip(_supports(table), table.best[0]) if e < 1e-12]
        assert uncovered == [(1, 2), (3, 4), (5, 6)]

    def test_n1_single_matrix(self):
        ens = degree2_ensemble(1)
        assert ens.n_matrices == 1
        assert ens.coverage.row_for((1, 2)).eta == pytest.approx(1.0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_full_coverage_any_n(self, n):
        ens = degree2_ensemble(n)
        assert not ens.coverage.uncovered
        assert ens.coverage.min_eta > 0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_scaling_constant(self, n):
        # matrix-level check of the 1/sqrt(n) scaling at desk sizes
        ens = degree2_ensemble(n)
        assert math.sqrt(n) * ens.coverage.min_eta >= 0.05

    def test_monomial_minors_factor(self):
        # covered cross-subset pairs have minors equal to a product of two entries
        ens = degree2_ensemble(3)
        o1 = ens.matrices[0].entries
        row = ens.coverage.row_for((1, 3))
        det = submatrix_det(o1, row.rows, (1, 3))
        assert abs(det) == pytest.approx(0.5, abs=1e-12)
        sub = o1[np.ix_([r - 1 for r in row.rows], [0, 2])]
        nonzero = sub[np.abs(sub) > 1e-14]
        assert abs(abs(det) - abs(np.prod(nonzero))) < 1e-12


def _certify_by_rows(coverage, blocks, partition, within_pairs, sigma):
    """Support-by-support oracle of the degree-2 certificate: the first failure's text, or None."""
    color = partition.color_of()
    within = {frozenset(p) for p in within_pairs}
    for row in coverage.rows:
        a, b = row.subset
        if frozenset(row.subset) in within:
            bound = 2.0 * blocks[color[a]].min_abs_entry ** 2
        elif color[a] == color[b]:
            ia, ib = color[int(sigma[a - 1]) + 1], color[int(sigma[b - 1]) + 1]
            bound = blocks[ia].min_abs_entry * blocks[ib].min_abs_entry
        else:
            bound = blocks[color[a]].min_abs_entry * blocks[color[b]].min_abs_entry
        if row.r is None or row.eta < bound - 1e-12:
            return f"pair {row.subset} covered at {row.eta:.3e}, below bound {bound:.3e}"
    return None


def _degree2_pieces(n):
    ens = degree2_ensemble(n)
    blocks = _base_rotation(n)[1]
    return ens.coverage, blocks, ens.partition, ens.within_pairs, ens.sigmas[-1]


class TestDegree2Certificate:
    """``_certify_degree2`` on a real construction with tampered blocks, sigma or reserved pairs."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_real_construction_passes(self, n):
        _certify_degree2(*_degree2_pieces(n))
        assert _certify_by_rows(*_degree2_pieces(n)) is None

    def test_cross_pair_fails_at_its_blocks_product(self):
        coverage, blocks, partition, within, sigma = _degree2_pieces(3)
        blocks = [blocks[0]._replace(min_abs_entry=1.0), *blocks[1:]]
        bound = 1.0 * blocks[1].min_abs_entry
        text = f"pair (1, 3) covered at {coverage.row_for((1, 3)).eta:.3e}, below bound {bound:.3e}"
        with pytest.raises(CoverageError, match=re.escape(text)):
            _certify_degree2(coverage, blocks, partition, within, sigma)

    def test_same_subset_pair_takes_the_blocks_of_its_sigma_images(self):
        # sigma sends 1 and 2 into the blocks of {3, 4} and {5, 6}
        coverage, blocks, partition, within, sigma = _degree2_pieces(3)
        blocks = [*blocks[:2], blocks[2]._replace(min_abs_entry=1.0)]
        bound = blocks[1].min_abs_entry * 1.0
        text = f"pair (1, 2) covered at {coverage.row_for((1, 2)).eta:.3e}, below bound {bound:.3e}"
        with pytest.raises(CoverageError, match=re.escape(text)):
            _certify_degree2(coverage, blocks, partition, within, sigma)
        # with sigma the identity, (1, 2) takes block 0 twice and passes; (1, 5) is the first to fail
        text = f"pair (1, 5) covered at {coverage.row_for((1, 5)).eta:.3e}, below bound {bound:.3e}"
        with pytest.raises(CoverageError, match=re.escape(text)):
            _certify_degree2(coverage, blocks, partition, within, np.arange(6))

    def test_reserved_pair_takes_twice_its_squared_entry(self):
        coverage, blocks, partition, _, sigma = _degree2_pieces(3)
        bound = 2.0 * blocks[0].min_abs_entry ** 2
        text = f"pair (1, 2) covered at {coverage.row_for((1, 2)).eta:.3e}, below bound {bound:.3e}"
        with pytest.raises(CoverageError, match=re.escape(text)):
            _certify_degree2(coverage, blocks, partition, ((1, 2),), sigma)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_tampered_blocks_and_sigma_match_the_row_oracle(self, n):
        coverage, blocks, partition, within, sigma = _degree2_pieces(n)
        rng = np.random.default_rng(n)
        for trial in range(20):
            scale = rng.uniform(0.9, 1.3, size=len(blocks))
            tampered = [b._replace(min_abs_entry=b.min_abs_entry * f) for b, f in zip(blocks, scale)]
            perm = sigma if trial % 2 else rng.permutation(2 * n)
            expected = _certify_by_rows(coverage, tampered, partition, within, perm)
            if expected is None:
                _certify_degree2(coverage, tampered, partition, within, perm)
                continue
            with pytest.raises(CoverageError) as caught:
                _certify_degree2(coverage, tampered, partition, within, perm)
            assert str(caught.value) == expected


class TestDegree2kEnsemble:
    def test_n6_k2_covers_all_495(self):
        ens = degree2k_ensemble(6, 2, 9, seed=7)
        assert len(ens.coverage.rows) == math.comb(12, 4)
        assert not ens.coverage.uncovered
        assert ens.coverage.min_eta >= ens.block_min_entry ** 4 - 1e-12

    def test_k1_reduces_to_degree2_style_coverage(self):
        ens = degree2k_ensemble(3, 1, 3, seed=1)
        assert not ens.coverage.uncovered
        ref = degree2_ensemble(3)
        assert set(r.subset for r in ens.coverage.rows) == set(
            r.subset for r in ref.coverage.rows
        )

    def test_n10_k2_sharpness_bound(self):
        ens = degree2k_ensemble(10, 2, 9, seed=3)
        assert ens.coverage.min_eta >= ens.block_min_entry ** 4 - 1e-12

    def test_requires_seed_and_valid_degree(self):
        with pytest.raises(ValueError):
            degree2k_ensemble(6, 2, 9, seed=None)
        with pytest.raises(ValueError):
            degree2k_ensemble(3, 2, 9, seed=1)

    def test_reproducible(self):
        a = degree2k_ensemble(6, 2, 9, seed=11)
        b = degree2k_ensemble(6, 2, 9, seed=11)
        for ma, mb in zip(a.matrices, b.matrices):
            assert np.array_equal(ma.entries, mb.entries)


def _loop_reductions(dets):
    """Plain-loop oracle of the coverage chain and the per-matrix argmax."""
    n_mat, n_r, n_s = dets.shape
    eta = np.zeros(n_s)
    best_r = np.full(n_s, -1)
    best_rows = np.full(n_s, -1)
    pm_best = np.zeros((n_mat, n_s), dtype=np.int64)
    for j in range(n_s):
        for r in range(n_mat):
            top = -1.0
            for i in range(n_r):
                if abs(dets[r, i, j]) > eta[j] + COVERAGE_TOL:
                    eta[j], best_r[j], best_rows[j] = abs(dets[r, i, j]), r, i
                rounded = abs(np.round(dets[r, i, j], 12))
                if rounded > top:
                    top, pm_best[r, j] = rounded, i
    return (eta, best_r, best_rows), pm_best


def _rotation(kind, size, rng):
    if kind == "random":
        return random_orthogonal(size, rng).entries
    if kind == "blocks":
        # a direct sum of lower-flat blocks of random sizes
        base = np.zeros((size, size))
        at = 0
        while at < size:
            width = int(rng.integers(1, size - at + 1))
            base[at : at + width, at : at + width] = lower_flat(width).entries
            at += width
    elif kind == "tiny":
        # a rotation by about 1e-14 between generators 2 and 3, unpermuted:
        # row set 0 meets supports such as (1, 3) only in a minor that rounds
        # to zero, as every other row set's minor there does
        base = np.eye(size)
        angle = rng.uniform(1e-15, 1e-13)
        base[1:3, 1:3] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        return base * rng.choice((-1.0, 1.0), size)
    else:
        base = np.eye(size) if kind == "permutation" else lower_flat(size).entries
    signed = base * rng.choice((-1.0, 1.0), size)
    return signed[rng.permutation(size)][:, rng.permutation(size)]


def _supports(table):
    """The table's supports as 1-based tuples, in combinations order."""
    return [tuple(s) for s in (table.cols + 1).tolist()]


def _full_minors(arrays, table):
    """Every minor ``det(O_{R,S})`` from ``submatrix_det``, shape ``(N, nR, nS)``."""
    return np.array([
        [[submatrix_det(arr, rows, cols) for cols in _supports(table)] for rows in table.row_sets]
        for arr in arrays
    ])


def _assert_matches_oracle(table, dets):
    # the oracle's minors agree with the scan's to rounding (submatrix_det
    # takes 2x2 minors in closed form), so values match to 1e-12 and the
    # tie rules must still pick the same indices
    (eta, best_r, best_rows), pm_best = _loop_reductions(dets)
    got_eta, got_r, got_rows = table.best
    assert np.max(np.abs(got_eta - eta)) < 1e-12
    assert np.array_equal(got_r, best_r)
    assert np.array_equal(got_rows, best_rows)
    got_best, got_vals = table.per_matrix
    assert got_best.shape == got_vals.shape == (len(dets), len(table.cols))
    assert np.array_equal(got_best, pm_best)
    columns = np.arange(len(table.cols))
    for r in range(len(dets)):
        assert np.max(np.abs(got_vals[r] - dets[r, pm_best[r], columns])) < 1e-12
    return eta, best_r, best_rows


class TestMinorTable:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 5),
        half=st.integers(1, 2),
        seed=st.integers(0, 2 ** 32 - 1),
        layout=st.sampled_from([(0,), (0, 1), (0, 0), (0, 1, 0)]),
        kind=st.sampled_from(["random", "permutation", "lower_flat", "blocks"]),
    )
    def test_matches_submatrix_dets_and_loop_oracle(self, n, half, seed, layout, kind):
        # repeated matrices tie exactly; signed permutations, permuted
        # lower-flat matrices and direct sums of lower-flat blocks tie
        # exactly or, at n = 3 and 5, within rounding
        rng = np.random.default_rng(seed)
        base = [_rotation(kind, 2 * n, rng) for _ in range(2)]
        arrays = [base[b] for b in layout]
        table = scan_minors(arrays, n, half)
        assert len(table.row_sets) == math.comb(n, half)
        assert len(table.cols) == math.comb(2 * n, 2 * half)
        assert _supports(table) == list(itertools.combinations(range(1, 2 * n + 1), 2 * half))
        _assert_matches_oracle(table, _full_minors(arrays, table))

    def test_identity_ensemble_covers_exactly_diag(self):
        table = scan_minors([np.eye(6)], 3, 1)
        covered = {s for s, e in zip(_supports(table), table.best[0]) if e > 1e-12}
        assert covered == set(diag_index_sets(3, 1))
        # min_eta and uncovered are read off best; rows is the reference
        assert table.uncovered == tuple(row.subset for row in table.rows if row.r is None)
        assert table.min_eta == min(row.eta for row in table.rows) == 0.0

    def test_tie_break_is_lexicographic(self):
        # two identical matrices: ties resolve to the first matrix, smallest rows
        ens = degree2_ensemble(3)
        arrays = [ens.matrices[0].entries, ens.matrices[0].entries.copy()]
        eta, r_idx, _ = scan_minors(arrays, 3, 1).best
        assert np.all(r_idx[eta > 1e-12] == 0)

    def test_degree2k_table_is_the_stack_of_its_candidates(self):
        ens = degree2k_ensemble(6, 2, 9, seed=7)
        table = ens.coverage
        rescanned = scan_minors(ens.arrays(), 6, 2)
        assert np.array_equal(table.cols, rescanned.cols)
        assert table.row_sets == rescanned.row_sets
        for got, ref in zip(table.per_matrix, rescanned.per_matrix):
            assert np.array_equal(got, ref)
        for got, ref in zip(table.best, rescanned.best):
            assert np.array_equal(got, ref)
        # its minors tie within COVERAGE_TOL across rotations, so this also
        # pins the tolerance of the coverage chain
        eta, best_r, best_rows = _assert_matches_oracle(table, _full_minors(ens.arrays(), table))
        for s_i, row in enumerate(table.rows):
            assert row.r == best_r[s_i] + 1
            assert abs(row.eta - eta[s_i]) < 1e-12
            assert row.rows == table.row_sets[best_rows[s_i]]
        assert table.min_eta == min(row.eta for row in table.rows) > 0.0


def _dense_minor_dets(arr, rows, cols):
    """Every minor through ``np.linalg.det``, one row set at a time."""
    out = np.empty((len(rows), len(cols)))
    for i, r in enumerate(rows):
        out[i] = np.linalg.det(arr[r[None, :, None], cols[:, None, :]])
    return out


def _argmax_scan(arrays, n, half):
    """The scan as every minor in a dense block and a first-wins argmax per support."""
    rows = np.array(diag_index_sets(n, half)) - 1
    cols = np.array(list(itertools.combinations(range(2 * n), 2 * half)))
    columns = np.arange(len(cols))
    best = np.empty((len(arrays), len(cols)), dtype=np.int64)
    minors = np.empty(best.shape)
    for r, arr in enumerate(arrays):
        dets = _dense_minor_dets(arr, rows, cols)
        best[r] = np.argmax(np.abs(np.round(dets.T, 12)), axis=1)
        minors[r] = dets[best[r], columns]
    return best, minors


KINDS = ["random", "permutation", "lower_flat", "blocks", "tiny"]


def _structural_zeros(arr, rows, cols):
    """``(nS,)``: True where every row set's ``arr[R, S] != 0`` has no perfect matching.

    Then every Leibniz term of every minor of that support is 0.
    """
    size = cols.shape[1]
    perms = np.array(list(itertools.permutations(range(size))))
    zero = np.ones(len(cols), dtype=bool)
    for r in rows:
        pattern = (arr != 0)[r[None, :, None], cols[:, None, :]]
        zero &= ~pattern[:, np.arange(size), perms].all(axis=-1).any(axis=-1)
    return zero


def _assert_best(best, ref_best, n, half):
    # row set indices compare by value, in the smallest unsigned type that holds them
    assert best.dtype == np.min_scalar_type(math.comb(n, half) - 1)
    assert np.array_equal(best, ref_best)


def _assert_kernel_rule(arrays, n, half, got):
    """A scan off LAPACK (2k >= 4) against the LAPACK block argmax: the same best
    row sets, exactly +0.0 where every row set's minor is structurally zero,
    and every minor within 1e-15."""
    best, minors = got
    ref_best, ref_minors = _argmax_scan(arrays, n, half)
    _assert_best(best, ref_best, n, half)
    rows = np.array(diag_index_sets(n, half)) - 1
    cols = np.array(list(itertools.combinations(range(2 * n), 2 * half)))
    for arr, vals in zip(arrays, minors):
        assert not vals[_structural_zeros(arr, rows, cols)].view(np.int64).any()
    assert np.max(np.abs(minors - ref_minors)) <= 1e-15


def _assert_same_reductions(got, ref):
    (best, minors), (ref_best, ref_minors) = got, ref
    assert best.dtype == ref_best.dtype and np.array_equal(best, ref_best)
    assert np.array_equal(minors.view(np.int64), ref_minors.view(np.int64))


def _several_blocks(n, rng):
    """A signed, permuted direct sum of lower-flat blocks of orders 3, 4, 3, 4, ... (the last cut short)."""
    base = np.zeros((2 * n, 2 * n))
    at = 0
    for width in itertools.cycle((3, 4)):
        if at == 2 * n:
            break
        width = min(width, 2 * n - at)
        base[at : at + width, at : at + width] = lower_flat(width).entries
        at += width
    signed = base * rng.choice((-1.0, 1.0), 2 * n)
    return signed[rng.permutation(2 * n)][:, rng.permutation(2 * n)]


class TestMinorDets:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 5),
        half=st.integers(1, 2),
        seed=st.integers(0, 2 ** 32 - 1),
        kind=st.sampled_from(KINDS),
    )
    def test_bitwise_equal_to_dense_oracle(self, n, half, seed, kind):
        # the skipped minors must be the oracle's exact +0.0 and the rest its
        # very bits, so a -0.0 or a last-bit change fails
        arr = _rotation(kind, 2 * n, np.random.default_rng(seed))
        sets = np.array(list(itertools.combinations(range(2 * n), 2 * half)))
        got = minor_dets(arr, sets, sets)
        assert np.array_equal(got.view(np.int64), _dense_minor_dets(arr, sets, sets).view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 5),
        half=st.integers(1, 2),
        seed=st.integers(0, 2 ** 32 - 1),
        layout=st.sampled_from([(0,), (0, 1), (0, 0), (0, 1, 0)]),
        kind=st.sampled_from(KINDS),
    )
    def test_scan_bitwise_equal_to_block_argmax(self, n, half, seed, layout, kind):
        # repeated matrices tie exactly across rotations, and the tiny
        # rotation has supports whose every rounded minor is zero, where
        # row set 0's own signed minor must be kept; at 2k = 4 the minors of
        # a rotation of several components come from the block kernel, not
        # LAPACK, so the last bits differ
        rng = np.random.default_rng(seed)
        base = [_rotation(kind, 2 * n, rng) for _ in range(2)]
        arrays = [base[b] for b in layout]
        got = scan_minors(arrays, n, half).per_matrix
        if half == 2:
            _assert_kernel_rule(arrays, n, half, got)
            return
        (best, minors), (ref_best, ref_minors) = got, _argmax_scan(arrays, n, half)
        _assert_best(best, ref_best, n, half)
        assert np.array_equal(minors.view(np.int64), ref_minors.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 2 ** 32 - 1),
        layout=st.sampled_from([(0,), (0, 1), (0, 0), (1, 0, 1)]),
        kind=st.sampled_from(KINDS),
    )
    def test_degree4_kernel_matches_dense_oracle(self, n, seed, layout, kind):
        rng = np.random.default_rng(seed)
        base = [_rotation(kind, 2 * n, rng) for _ in range(2)]
        arrays = [base[b] for b in layout]
        _assert_kernel_rule(arrays, n, 2, scan_minors(arrays, n, 2).per_matrix)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 6),
        seed=st.integers(0, 2 ** 32 - 1),
        layout=st.sampled_from([(0,), (0, 1), (0, 0), (1, 0, 1)]),
        kind=st.sampled_from(KINDS + ["several_blocks"]),
    )
    def test_degree6_kernel_matches_dense_oracle(self, n, seed, layout, kind):
        # signed permutations, direct sums of blocks and the tiny rotation
        # have several components and go through the block kernel; a dense
        # rotation is one component and keeps LAPACK's very bits
        rng = np.random.default_rng(seed)
        make = _several_blocks if kind == "several_blocks" else lambda n, rng: _rotation(kind, 2 * n, rng)
        base = [make(n, rng) for _ in range(2)]
        arrays = [base[b] for b in layout]
        got = scan_minors(arrays, n, 3).per_matrix
        _assert_kernel_rule(arrays, n, 3, got)
        if kind == "random":
            assert np.array_equal(got[1].view(np.int64), _argmax_scan(arrays, n, 3)[1].view(np.int64))

    @pytest.mark.parametrize("kind, n, half", [("blocks", 6, 2), ("blocks", 6, 3), ("dense", 5, 1), ("dense", 5, 2)])
    def test_chunks_match_one_chunk(self, monkeypatch, kind, n, half):
        # the layers split over many chunks of a few pairs give the same bits,
        # on the block kernel (several blocks) and on LAPACK (a dense rotation)
        rng = np.random.default_rng(3)
        arr = _several_blocks(n, rng) if kind == "blocks" else random_orthogonal(2 * n, rng).entries
        whole = scan_minors([arr], n, half).per_matrix
        monkeypatch.setattr(matching, "_PAIR_CHUNK", 7)
        _assert_same_reductions(scan_minors([arr], n, half).per_matrix, whole)

    def test_block_kernel_runs_where_the_tables_pay(self, monkeypatch):
        # a matrix of several small components is read off its tables;
        # one component, or tables past the limit, go to LAPACK
        calls = []
        tables = _blockminors._minor_table
        monkeypatch.setattr(_blockminors, "_minor_table", lambda *a: calls.append(1) or tables(*a))
        rng = np.random.default_rng(4)
        scan_minors([_several_blocks(6, rng)], 6, 3)
        assert len(calls) == 4  # blocks of orders 3, 4, 3 and 2
        calls.clear()
        scan_minors([_rotation("random", 12, rng)], 6, 3)
        monkeypatch.setattr(_blockminors, "_TABLE_LIMIT", 1 << 8)  # the blocks' tables hold 400
        scan_minors([_several_blocks(6, rng)], 6, 3)
        assert calls == []

    def test_many_components_fall_back_to_numbered_keys(self):
        # a signed permutation of 28 generators has 28 components, too many
        # for base-5 count keys of 4-sets: each row set meets exactly the
        # support its rows map to, in a minor of +-1
        arr = _rotation("permutation", 28, np.random.default_rng(5))
        table = scan_minors([arr], 14, 2)
        best, minors = table.per_matrix
        expected_best = np.zeros(len(table.cols), dtype=np.int64)
        expected = np.zeros(len(table.cols))
        for i, rows in enumerate(table.row_sets):
            r = np.array(rows) - 1
            image = np.sort(np.flatnonzero(arr[r].any(axis=0)))
            j = table.index[tuple(image + 1)]
            expected_best[j] = i
            expected[j] = np.linalg.det(arr[np.ix_(r, image)])
        assert np.array_equal(best[0], expected_best)
        assert np.array_equal(minors[0], expected)

    def test_all_zero_support_keeps_row_set_0_minor(self):
        arr = _rotation("tiny", 4, np.random.default_rng(0))
        table = scan_minors([arr], 2, 1)
        best, minors = table.per_matrix
        j = table.index[(1, 3)]
        assert best[0, j] == 0
        assert minors[0, j] != 0.0 and abs(minors[0, j]) < 1e-12

    @pytest.mark.parametrize("kind", ["degree2k", "random"])
    def test_evaluates_only_the_minors_the_blocks_allow(self, monkeypatch, kind):
        # a degree-2k rotation is P_pi D with permuted columns, so few row
        # set and support pairs meet its blocks equally, and the block
        # kernel reads them; a dense rotation is one block and goes through
        # every minor on LAPACK
        if kind == "degree2k":
            arr = degree2k_ensemble(10, 2, seed=1).arrays()[0]
        else:
            arr = random_orthogonal(20, np.random.default_rng(1)).entries
        counted = []
        pairs = matching._pair_chunks

        def counting(bounds, chunk):
            for i, j in pairs(bounds, chunk):
                counted.append(len(i))
                yield i, j

        # after the construction, which scans too
        monkeypatch.setattr(matching, "_pair_chunks", counting)
        scan_minors([arr], 10, 2)
        share = sum(counted) / (math.comb(10, 2) * math.comb(20, 4))
        if kind == "degree2k":
            assert 0 < share <= 0.05
        else:
            assert share == 1.0

    def test_scan_peaks_below_one_block_of_minors(self):
        # a dense rotation puts every support in every row set's group: one
        # group's submatrices and the sort keys, never the block
        arr = random_orthogonal(24, np.random.default_rng(1)).entries
        block = math.comb(12, 2) * math.comb(24, 4) * 8
        assert _scan_peak([arr], 12, 2) < 1.0 * block

    def test_degree2k_scan_peak(self):
        # N=9 rotations at n=16: one rotation's block would be 34.5 MB
        ens = degree2k_ensemble(16, 2, seed=1)
        assert _scan_peak(ens.arrays(), 16, 2) < 25e6


def _scan_peak(arrays, n, half):
    tracemalloc.start()
    try:
        scan_minors(arrays, n, half)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _odd(sequence) -> bool:
    return sum(a > b for a, b in itertools.combinations(sequence, 2)) % 2 == 1


def _signed_base_row(base_row, p, table):
    """Loop oracle of the gather: support S reads the base's entry at sorted(p[S]), negated if p[S] is odd."""
    best, minors = base_row
    out_best, out = np.empty_like(best), np.empty_like(minors)
    for j, support in enumerate(table.cols.tolist()):
        image = [p[c] for c in support]
        at = table.index[tuple(sorted(v + 1 for v in image))]
        out_best[j] = best[at]
        out[j] = 0.0 - minors[at] if _odd(image) else minors[at]
    return out_best, out


class TestPermutedRotations:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        half=st.integers(1, 3),
        seed=st.integers(0, 2 ** 32 - 1),
        kind=st.sampled_from(KINDS + ["degree2", "degree2k"]),
        odd=st.booleans(),
        flip=st.booleans(),
    )
    def test_gathered_rows_match_one_rotation_scans(self, n, half, seed, kind, odd, flip):
        # every rotation after the first is the first with permuted columns,
        # so the scan reads it off the first one's row
        n = max(n, 2) if kind == "tiny" else n  # its rotation needs three generators
        half = min(half, n)
        rng = np.random.default_rng(seed)
        if kind == "degree2":
            arrays = degree2_ensemble(n).arrays()
        elif kind == "degree2k":
            # k = 2 needs n >= 6; below it the construction runs at k = 1
            arrays = degree2k_ensemble(n, 2 if n == 6 else 1, seed=seed).arrays()
        else:
            a = _rotation(kind, 2 * n, rng)
            if flip:  # the other determinant
                a = a * np.r_[-1.0, np.ones(2 * n - 1)][:, None]
            sigmas = [rng.permutation(2 * n) for _ in range(2)]
            for sigma in sigmas:
                if _odd(sigma) != odd:
                    sigma[[0, 1]] = sigma[[1, 0]]
            arrays = [a] + [a @ permutation_matrix(sigma) for sigma in sigmas]
        table = scan_minors(arrays, n, half)
        rows = np.array(diag_index_sets(n, half)) - 1
        base_row = tuple(a[0] for a in scan_minors(arrays[:1], n, half).per_matrix)
        _assert_same_reductions(tuple(a[:1] for a in table.per_matrix), tuple(a[None] for a in base_row))
        for r, o in enumerate(arrays[1:], start=1):
            got_best, got = (a[r] for a in table.per_matrix)
            ref_best, ref = (a[0] for a in scan_minors([o], n, half).per_matrix)
            assert got_best.dtype == ref_best.dtype and np.array_equal(got_best, ref_best)
            assert np.max(np.abs(got - ref)) <= 1e-15
            assert not got[_structural_zeros(o, rows, table.cols)].view(np.int64).any()
            p = [next(b for b in range(2 * n) if np.array_equal(o[:, c], arrays[0][:, b])) for c in range(2 * n)]
            want_best, want = _signed_base_row(base_row, p, table)
            assert np.array_equal(got_best, want_best)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "layout, kernels",
        [("degree2k", 1), ("A, AP, B, BP", 2), ("A, B, AP", 3)],
    )
    def test_one_kernel_per_base_rotation(self, monkeypatch, layout, kernels):
        # a rotation becomes the base unless it permutes the current base's columns
        calls = []
        group_bounds = matching._group_bounds
        monkeypatch.setattr(matching, "_group_bounds", lambda *a: calls.append(1) or group_bounds(*a))
        rng = np.random.default_rng(32)
        if layout == "degree2k":
            arrays = degree2k_ensemble(6, 2, seed=5).arrays()
            assert len(arrays) == 9
        else:
            a, b = (random_orthogonal(8, rng).entries for _ in range(2))
            p = permutation_matrix(rng.permutation(8))
            named = {"A": a, "AP": a @ p, "B": b, "BP": b @ p}
            arrays = [named[m] for m in layout.split(", ")]
        for half in (1, 2, 3):
            calls.clear()
            scan_minors(arrays, 6 if layout == "degree2k" else 4, half)
            assert len(calls) == kernels


class TestLeanTable:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), half=st.integers(1, 3), data=st.data())
    def test_index_is_the_combinations_rank(self, n, half, data):
        half = min(half, n)
        table = scan_minors([np.eye(2 * n)], n, half)
        supports = list(itertools.combinations(range(1, 2 * n + 1), 2 * half))
        assert [table.index[s] for s in supports] == list(range(len(supports)))
        j = data.draw(st.integers(0, len(supports) - 1))
        assert table.index[list(supports[j])] == j
        assert table.row_for(supports[j]) == table.rows[j]
        # anything but an ascending 2k-tuple in 1..2n is missing, as from a dict
        s = supports[j]
        bad = data.draw(
            st.lists(st.integers(-1, 2 * n + 2), max_size=2 * half + 1).filter(
                lambda c: tuple(c) not in supports
            )
        )
        wrong = (s[:-1], s + (2 * n + 1,), (0,) + s[1:], s[:-1] + (2 * n + 1,), s[:1] * len(s))
        for key in (*wrong, tuple(bad)):
            with pytest.raises(KeyError):
                table.index[key]

    def test_sharpness_lookup_misses_raise_key_error(self):
        from majorana_jm.povm import sharpness_table

        table = sharpness_table(degree2_ensemble(3))
        for subset in ((0, 2), (1, 7), (2, 2)):
            with pytest.raises(KeyError):
                table.minors(subset)
        assert table.row_for((3, 1)) == table.rows[1]

    def test_index_sets_hold_supports_as_one_small_array(self):
        # 593,775 supports of six indices: 3.6 MB as uint8, 60 MB as tuples
        matching._index_sets.cache_clear()
        tracemalloc.start()
        try:
            sets = matching._index_sets(15, 3)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            matching._index_sets.cache_clear()
        assert sets.cols.shape == (593_775, 6) and sets.cols.dtype == np.uint8
        assert sets.best_dtype == np.uint16
        assert retained < 8e6 and peak < 16e6, (retained, peak)


class TestPartitionCombinatorics:
    def test_exact_values(self):
        assert partition_failure_prob(2, 1) == pytest.approx(0.2, abs=1e-15)
        assert partition_failure_prob(3, 2) == pytest.approx(1 - 81 / 495, abs=1e-15)

    def test_edge_case_in_unit_interval(self):
        # 2k = l + 1 forces C(l+1, 2k) = 1
        for side in (3, 5):
            val = partition_failure_prob(side, (side + 1) // 2)
            assert 0.0 <= val <= 1.0

    @pytest.mark.parametrize("side,k", [(2, 1), (3, 1), (3, 2)])
    def test_monte_carlo_matches_formula(self, side, k):
        rng = np.random.default_rng(100 * side + k)
        two_n = side * (side + 1)
        subset = tuple(range(2 * k))
        trials = 100_000
        sup = np.array(subset)
        fails = 0
        for _ in range(trials):
            colors = random_partition(side, rng)
            if not is_generated(subset, colors):
                fails += 1
        p = partition_failure_prob(side, k)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(fails / trials - p) < 3 * sigma + 1e-12

    def test_n_partition_failure_matches_independence(self):
        # failing all N independent partitions happens with probability P(S)^N
        rng = np.random.default_rng(5)
        side, k, n_parts = 2, 1, 3
        subset = (0, 1)
        trials = 60_000
        fails = 0
        for _ in range(trials):
            if all(
                not is_generated(subset, random_partition(side, rng))
                for _ in range(n_parts)
            ):
                fails += 1
        p = partition_failure_prob(side, k) ** n_parts
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(fails / trials - p) < 3 * sigma + 1e-12

    def test_union_bound_envelope_decay(self):
        # the N-partition union bound C(2n,2k) P(S)^N decays like l^(4k-N):
        # P(S) <= k(2k-1)/l and C(2n,2k) <= l^(4k)/(2k)!, so the normalized
        # ratio stays below (k(2k-1))^N / (2k)! at every side length
        for k, n_parts in [(1, 5), (2, 9)]:
            limit = (k * (2 * k - 1)) ** n_parts / math.factorial(2 * k)
            for side in range(2 * k + 1, 40):
                two_n = side * (side + 1)
                bound = math.comb(two_n, 2 * k) * partition_failure_prob(side, k) ** n_parts
                ratio = bound / side ** (4 * k - n_parts)
                assert ratio <= limit * 1.01


class TestFootprint:
    @pytest.mark.parametrize(
        "n, half, kind",
        [(10, 2, "degree2k"), (10, 2, "random"), (12, 3, "degree2"), (8, 3, "random")],
    )
    def test_estimate_covers_traced_peak(self, n, half, kind):
        # the refusal compares an estimate that is at least what the scan allocates,
        # its index sets included
        rng = np.random.default_rng(n)
        arrays = {
            "degree2k": lambda: degree2k_ensemble(n, half, seed=1).arrays(),
            "degree2": lambda: degree2_ensemble(n).arrays(),
            "random": lambda: [random_orthogonal(2 * n, rng).entries for _ in range(3)],
        }[kind]()
        matching._index_sets.cache_clear()
        assert _scan_peak(arrays, n, half) <= matching._scan_footprint(n, half, len(arrays))

    def test_refuses_before_allocating(self, monkeypatch):
        # the scan and the construction both refuse before any support is enumerated
        arrays = degree2_ensemble(6).arrays()
        need = matching._scan_footprint(6, 2, 2)
        index_sets = matching._index_sets
        monkeypatch.setattr(matching, "_physical_memory", lambda: need - 1)
        monkeypatch.setattr(matching, "_index_sets", lambda *a: pytest.fail("index sets built"))
        with pytest.raises(ValueError, match=r"degree-4 minor table of 2 rotation\(s\) on 6 modes needs about"):
            scan_minors(arrays, 6, 2)
        with pytest.raises(ValueError, match="of physical memory"):
            degree2k_ensemble(6, 2, seed=1)
        monkeypatch.setattr(matching, "_index_sets", index_sets)
        monkeypatch.setattr(matching, "_physical_memory", lambda: need)
        assert scan_minors(arrays, 6, 2).per_matrix[1].shape == (2, math.comb(12, 4))
