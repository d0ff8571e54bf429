"""Tests for orthogonal utilities and Gaussian-unitary compilation."""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorana_jm.algebra import (
    ScaledMonomial,
    canonical_monomial,
    dense_matrix,
    monomial_product,
    subsets_of_size,
)
from majorana_jm.gaussian import (
    OrthogonalMatrix,
    compile_gaussian_unitary,
    givens_factors,
    random_orthogonal,
    submatrix_det,
)
from majorana_jm.paper import pauli_dense, to_pauli
from majorana_jm.turan import LowerFlatMatrix, lower_flat, sylvester_hadamard

from oracles import minor_expansion_check


def rotation_residual(o, n):
    """Max residual of the generator rotation law for a compiled unitary."""
    arr = o.entries if isinstance(o, OrthogonalMatrix) else np.asarray(o)
    u = compile_gaussian_unitary(arr, n)
    worst = 0.0
    for j in range(1, 2 * n + 1):
        g = dense_matrix(canonical_monomial(n, [j]))
        lhs = u.conj().T @ g @ u
        rhs = sum(
            arr[j - 1, jp - 1] * dense_matrix(canonical_monomial(n, [jp]))
            for jp in range(1, 2 * n + 1)
        )
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


class TestHadamard:
    def test_m0(self):
        assert np.array_equal(sylvester_hadamard(0), [[1.0]])

    def test_m1(self):
        assert np.array_equal(sylvester_hadamard(1), [[1.0, 1.0], [1.0, -1.0]])

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_orthogonality(self, m):
        h = sylvester_hadamard(m)
        assert np.array_equal(np.abs(h), np.ones_like(h))
        assert np.max(np.abs(h @ h.T - 2 ** m * np.eye(2 ** m))) == 0.0

    def test_limit(self):
        with pytest.raises(ValueError):
            sylvester_hadamard(30)


class TestLowerFlat:
    def test_size2_is_normalized_hadamard(self):
        f = lower_flat(2)
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.max(np.abs(f.entries - expected)) < 1e-15

    def test_size4_all_half(self):
        f = lower_flat(4)
        assert np.max(np.abs(np.abs(f.entries) - 0.5)) < 1e-15

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13])
    def test_orthogonal_and_min_entry_recorded(self, size):
        f = lower_flat(size)
        gram = f.entries @ f.entries.T - np.eye(size)
        assert np.max(np.abs(gram)) < 1e-12
        assert f.min_abs_entry == np.min(np.abs(f.entries))
        assert f.min_abs_entry > 0

    @pytest.mark.parametrize("size", [5, 6, 7, 9, 12, 13, 20])
    def test_paper_bound_above_m1(self, size):
        # sizes decomposing as 2**m + q with m > 1 satisfy |f_ij| >= 1/(2 sqrt(size))
        f = lower_flat(size)
        assert f.min_abs_entry >= 1.0 / (2.0 * math.sqrt(size)) - 1e-15

    def test_size3_weaker_constant(self):
        f = lower_flat(3)
        expected = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
        assert abs(f.min_abs_entry - expected) < 1e-12

    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError):
            LowerFlatMatrix(np.eye(2))

    def test_orthogonality_is_the_orthogonal_matrix_gate(self):
        with pytest.raises(ValueError, match="orthogonality gate failed"):
            LowerFlatMatrix(np.full((2, 2), 0.5))

    def test_copies_rebuild_from_the_entries(self):
        f = lower_flat(5)
        for twin in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert np.array_equal(twin.entries, f.entries)
            assert twin.min_abs_entry == f.min_abs_entry
            assert not twin.entries.flags.writeable


class TestCompile:
    def test_identity(self):
        u = compile_gaussian_unitary(np.eye(4), 2)
        phase = u[0, 0]
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.max(np.abs(u - phase * np.eye(4))) < 1e-12

    def test_quarter_turn_matches_braid(self):
        # Givens rotation by pi/2 in the (1,2) plane acts as gamma_1 -> gamma_2
        n = 2
        o = np.eye(4)
        o[0, 0], o[0, 1], o[1, 0], o[1, 1] = 0.0, 1.0, -1.0, 0.0
        u = compile_gaussian_unitary(o, n)
        g1 = dense_matrix(canonical_monomial(n, [1]))
        g2 = dense_matrix(canonical_monomial(n, [2]))
        assert np.max(np.abs(u.conj().T @ g1 @ u - g2)) < 1e-12
        assert np.max(np.abs(u.conj().T @ g2 @ u + g1)) < 1e-12

    def test_random_o6_rotation_law(self):
        rng = np.random.default_rng(2)
        o = random_orthogonal(6, rng)
        assert rotation_residual(o, 3) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rotation_law_batch_including_det_minus_one(self, n):
        rng = np.random.default_rng(n)
        for trial in range(8):
            o = random_orthogonal(2 * n, rng, special=(trial % 2 == 0))
            assert rotation_residual(o, n) < 1e-9

    def test_composition_up_to_phase(self):
        n = 3
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_orthogonal(2 * n, rng)
            b = random_orthogonal(2 * n, rng)
            uab = compile_gaussian_unitary(a.entries @ b.entries, n)
            ua_ub = compile_gaussian_unitary(a.entries, n) @ compile_gaussian_unitary(
                b.entries, n
            )
            phases = uab.conj() * ua_ub
            phase = phases.flat[np.argmax(np.abs(uab))]
            phase /= abs(phase)
            assert np.max(np.abs(ua_ub - phase * uab)) < 1e-9

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            compile_gaussian_unitary(np.ones((4, 4)), 2)


def dense_factor_product(o, n):
    """Oracle: the Givens factors ``cos + sin gamma_i gamma_j`` as dense matmuls."""
    factors, flip = givens_factors(o)
    last = pauli_dense(to_pauli(canonical_monomial(n, [2 * n])))
    u = last if flip else np.eye(2 ** n, dtype=complex)
    for i, j, theta in factors:
        pair = monomial_product(ScaledMonomial(n, 1 << i, 0), ScaledMonomial(n, 1 << j, 0))
        gij = pauli_dense(to_pauli(pair))
        factor = math.cos(theta / 2.0) * np.eye(2 ** n) + math.sin(theta / 2.0) * gij
        u = u @ factor
    return u


class TestCompileMatrixFree:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 2 ** 32 - 1),
        special=st.sampled_from([True, False, None]),
    )
    def test_matches_dense_factor_product(self, n, seed, special):
        o = random_orthogonal(2 * n, np.random.default_rng(seed), special=special)
        got = compile_gaussian_unitary(o, n)
        assert np.max(np.abs(got - dense_factor_product(o.entries, n))) < 1e-12

    def test_structured_rotations_match(self):
        # permutation-like and Hadamard rotations exercise pi-rotations and zero angles;
        # n = 1 has no two-qubit window, and the windows reach the top qubit
        for n in (1, 2, 3, 4, 5, 6, 7):
            flat = lower_flat(2 * n).entries
            negated = flat.copy()
            negated[0] *= -1.0  # det -1 for n >= 2
            # -1 ⊕ flat ⊕ -1 closes with a pi-rotation of generators 1 and 2n,
            # which no window holds for n >= 3
            ends = -np.eye(2 * n)
            if n > 1:
                ends[1:-1, 1:-1] = lower_flat(2 * n - 2).entries
            for o in (np.eye(2 * n)[::-1], flat, negated, ends):
                got = compile_gaussian_unitary(o, n)
                assert np.max(np.abs(got - dense_factor_product(o, n))) < 1e-12

    def test_compile_holds_two_unitaries(self):
        # u^T and one scratch array: a third 16 * 4^n array would cross 2.5x
        o = random_orthogonal(16, np.random.default_rng(8), special=False)
        tracemalloc.start()
        try:
            u = compile_gaussian_unitary(o, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * u.nbytes


class TestSubmatrixDet:
    def test_identity_cases(self):
        assert submatrix_det(np.eye(6), [1, 2], [1, 2]) == 1.0
        assert submatrix_det(np.eye(6), [1, 2], [1, 3]) == 0.0

    def test_empty_sets(self):
        assert submatrix_det(np.eye(4), [], []) == 1.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            submatrix_det(np.eye(4), [1], [1, 2])


class TestMinorExpansion:
    def test_identity_zero_residual(self):
        assert minor_expansion_check(np.eye(6), [1, 2], 3) < 1e-14

    @pytest.mark.parametrize("subset", [[1, 2], [1, 2, 3, 4]])
    def test_random_o_small_residual(self, subset):
        rng = np.random.default_rng(len(subset))
        o = random_orthogonal(6, rng)
        assert minor_expansion_check(o, subset, 3) < 1e-9
