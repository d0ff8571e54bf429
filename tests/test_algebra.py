"""Tests for the exact Majorana monomial algebra."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorana_jm.algebra import (
    ScaledMonomial,
    apply_monomial,
    canonical_monomial,
    dense_matrix,
    monomial_action,
    monomial_bits,
    monomial_from_str,
    monomial_product,
    monomial_to_str,
    monomial_trace,
    subsets_of_size,
)
from majorana_jm.paper import (
    BraidElement,
    braid_conjugate,
    braid_stabilizer_unitaries,
    braid_unitary,
    braiding_recipe,
    commutant_dimension,
    commutation_sign,
    pauli_dense,
    to_pauli,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_monomial(rng, n):
    support = int(rng.integers(0, 2 ** (2 * n)))
    phase = int(rng.integers(0, 4))
    return ScaledMonomial(n, support, phase)


class TestCanonical:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hermitian_involution_traceless(self, n):
        for size in range(0, 2 * n + 1):
            for subset in itertools.combinations(range(1, 2 * n + 1), size):
                g = dense_matrix(canonical_monomial(n, subset))
                assert np.max(np.abs(g - g.conj().T)) < 1e-12
                assert np.max(np.abs(g @ g - np.eye(2 ** n))) < 1e-12
                if subset:
                    assert abs(np.trace(g)) < 1e-12

    def test_support_mask_gives_the_same_observable(self):
        for n in (1, 2, 3):
            for size in range(0, 2 * n + 1):
                for subset in itertools.combinations(range(1, 2 * n + 1), size):
                    mask = sum(1 << (j - 1) for j in subset)
                    assert canonical_monomial(n, mask) == canonical_monomial(n, subset)
        with pytest.raises(ValueError):
            canonical_monomial(2, 1 << 4)

    def test_monomial_is_not_a_support(self):
        # a monomial is a tuple of ints; reading it as indices would pick wrong generators
        m = canonical_monomial(3, [1, 2])
        with pytest.raises(TypeError, match="not a monomial"):
            canonical_monomial(3, m)

    def test_trace_orthogonality(self):
        n = 3
        monos = [canonical_monomial(n, s) for k in range(0, 5) for s in subsets_of_size(2 * n, k)]
        mats = [dense_matrix(m) for m in monos]
        for a, ma in enumerate(mats):
            for b, mb in enumerate(mats):
                val = np.trace(ma @ mb) / 2 ** n
                assert abs(val - (1.0 if a == b else 0.0)) < 1e-12


class TestProduct:
    def test_square_is_identity(self):
        m = canonical_monomial(2, [1])
        assert monomial_product(m, m) == ScaledMonomial(2, 0, 0)

    def test_pair_product_example(self):
        # gamma_{12} * gamma_{23} = i * gamma_{13}; frozen from the dense 4x4 oracle
        a = canonical_monomial(2, [1, 2])
        b = canonical_monomial(2, [2, 3])
        prod = monomial_product(a, b)
        expected = dense_matrix(a) @ dense_matrix(b)
        assert prod.indices == (1, 3)
        assert np.max(np.abs(dense_matrix(prod) - expected)) < 1e-12
        target = canonical_monomial(2, [1, 3])
        assert prod.phase_quarter == (target.phase_quarter + 1) % 4  # extra factor i

    def test_disjoint_product_phase_from_oracle(self):
        a = canonical_monomial(2, [1, 2])
        b = canonical_monomial(2, [3, 4])
        prod = monomial_product(a, b)
        expected = dense_matrix(a) @ dense_matrix(b)
        assert prod.indices == (1, 2, 3, 4)
        assert np.max(np.abs(dense_matrix(prod) - expected)) < 1e-12

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            monomial_product(canonical_monomial(1, [1]), canonical_monomial(2, [1]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_products_match_dense(self, n):
        rng = np.random.default_rng(7 + n)
        for _ in range(200):
            a = random_monomial(rng, n)
            b = random_monomial(rng, n)
            prod = monomial_product(a, b)
            err = np.max(np.abs(dense_matrix(prod) - dense_matrix(a) @ dense_matrix(b)))
            assert err < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        sa=st.integers(min_value=0, max_value=63),
        sb=st.integers(min_value=0, max_value=63),
        sc=st.integers(min_value=0, max_value=63),
    )
    def test_associativity(self, sa, sb, sc):
        n = 3
        a, b, c = (ScaledMonomial(n, s, 0) for s in (sa, sb, sc))
        left = monomial_product(monomial_product(a, b), c)
        right = monomial_product(a, monomial_product(b, c))
        assert left == right


class TestCommutation:
    def test_examples(self):
        assert commutation_sign({1, 2}, {3, 4}) == 1
        assert commutation_sign({1, 2}, {2, 3}) == -1
        assert commutation_sign({1}, {1}) == 1

    def test_index_sets_and_masks_agree(self):
        for a in range(2 ** 6):
            for b in range(2 ** 6):
                assert commutation_sign(a, b) == commutation_sign(
                    [j + 1 for j in range(6) if a >> j & 1], {j + 1 for j in range(6) if b >> j & 1}
                )

    def test_matches_dense_commutator(self):
        n = 3
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = int(rng.integers(0, 2 ** (2 * n)))
            b = int(rng.integers(0, 2 ** (2 * n)))
            ga = dense_matrix(ScaledMonomial(n, a, 0))
            gb = dense_matrix(ScaledMonomial(n, b, 0))
            commutes = np.max(np.abs(ga @ gb - gb @ ga)) < 1e-12
            assert commutes == (commutation_sign(a, b) == 1)


class TestJordanWigner:
    def test_generator_images(self):
        p1 = to_pauli(canonical_monomial(3, [1]))
        assert p1.letters == ("X", "I", "I") and p1.phase_quarter == 0
        p2 = to_pauli(canonical_monomial(3, [2]))
        assert p2.letters == ("Y", "I", "I") and p2.phase_quarter == 0
        p5 = to_pauli(canonical_monomial(3, [5]))
        assert p5.letters == ("Z", "Z", "X")

    def test_pair_is_minus_z(self):
        p = to_pauli(canonical_monomial(1, [1, 2]))
        assert p.letters == ("Z",) and p.phase_quarter == 2
        assert np.max(np.abs(pauli_dense(p) + Z)) < 1e-12

    def test_gamma1_is_pauli_x(self):
        assert np.max(np.abs(dense_matrix(canonical_monomial(1, [1])) - X)) < 1e-12

    def test_dense_agrees_with_pauli(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_monomial(rng, 3)
            assert np.max(np.abs(pauli_dense(to_pauli(m)) - dense_matrix(m))) < 1e-13

    def test_dense_limit(self):
        with pytest.raises(ValueError):
            dense_matrix(canonical_monomial(13, [1]))


@st.composite
def monomials(draw, max_modes=6):
    n = draw(st.integers(1, max_modes))
    support = draw(st.integers(0, 4 ** n - 1))
    return ScaledMonomial(n, support, draw(st.integers(0, 3)))


class TestMonomialAction:
    """The matrix-free action against the Kronecker-product oracle."""

    @settings(max_examples=150, deadline=None)
    @given(m=monomials(), seed=st.integers(0, 2 ** 32 - 1))
    def test_apply_matches_kronecker_exactly(self, m, seed):
        rng = np.random.default_rng(seed)
        dim = 2 ** m.n_modes
        oracle = pauli_dense(to_pauli(m))
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        assert np.array_equal(apply_monomial(m, v), oracle @ v)
        block = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        assert np.array_equal(apply_monomial(m, block), oracle @ block)

    @settings(max_examples=150, deadline=None)
    @given(m=monomials())
    def test_dense_scatter_matches_kronecker_exactly(self, m):
        assert np.array_equal(dense_matrix(m), pauli_dense(to_pauli(m)))

    @settings(max_examples=100, deadline=None)
    @given(m=monomials(), seed=st.integers(0, 2 ** 32 - 1))
    def test_trace_matches_dense(self, m, seed):
        rng = np.random.default_rng(seed)
        dim = 2 ** m.n_modes
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        expected = np.trace(pauli_dense(to_pauli(m)) @ rho)
        assert abs(monomial_trace(m, rho) - expected) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(m=monomials())
    def test_action_is_signed_permutation(self, m):
        flip, d = monomial_action(m)
        assert 0 <= flip < 2 ** m.n_modes
        assert np.array_equal(np.abs(d), np.ones(2 ** m.n_modes))
        # all entries share one quarter phase up to sign
        assert len({complex(v) for v in d * d}) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bits_elementwise_over_arrays(self, n):
        # the block sampler feeds whole mask arrays through the same closed form
        supports = np.repeat(np.arange(4 ** n), 4)
        quarters = np.tile(np.arange(4), 4 ** n)
        flip, phase, zmask = monomial_bits(n, supports, quarters)
        for i, (support, quarter) in enumerate(zip(supports.tolist(), quarters.tolist())):
            assert (flip[i], phase[i], zmask[i]) == monomial_bits(n, support, quarter)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_monomial_matches_kronecker_exactly(self, n):
        basis = np.arange(2 ** n)
        for support in range(4 ** n):
            for phase in range(4):
                m = ScaledMonomial(n, support, phase)
                flip, d = monomial_action(m)
                oracle = pauli_dense(to_pauli(m))
                scattered = np.zeros_like(oracle)
                scattered[basis ^ flip, basis] = d
                assert np.array_equal(scattered, oracle), (n, support, phase)

    def test_dense_matrix_is_uncached(self):
        m = canonical_monomial(3, [1, 4])
        first = dense_matrix(m)
        first[0, 0] = 7.0
        assert dense_matrix(m)[0, 0] != 7.0


class TestBraids:
    def test_three_case_rule(self):
        b = BraidElement(1, 2)
        g1 = canonical_monomial(3, [1])
        assert braid_conjugate(b, g1) == canonical_monomial(3, [2])
        g3 = canonical_monomial(3, [3])
        assert braid_conjugate(b, g3) == g3
        g2 = canonical_monomial(3, [2])
        img = braid_conjugate(b, g2)
        assert img.indices == (1,) and img.phase == -1

    def test_worked_quadruple_example(self):
        # B_{1,6} B_{3,8} maps gamma_1gamma_2gamma_3gamma_4 to -gamma_2gamma_4gamma_6gamma_8
        n = 4
        raw = ScaledMonomial(n, 0b1111, 0)
        out = braid_conjugate(BraidElement(1, 6), braid_conjugate(BraidElement(3, 8), raw))
        assert out.indices == (2, 4, 6, 8)
        assert out.phase == -1

    def test_conjugate_matches_dense(self):
        n = 3
        rng = np.random.default_rng(5)
        for _ in range(60):
            i, j = sorted(rng.choice(2 * n, size=2, replace=False) + 1)
            b = BraidElement(int(i), int(j), bool(rng.integers(0, 2)))
            m = random_monomial(rng, n)
            u = braid_unitary(b, n)
            expected = u @ dense_matrix(m) @ u.conj().T
            got = dense_matrix(braid_conjugate(b, m))
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_preserves_hermiticity_and_involution(self):
        n = 3
        rng = np.random.default_rng(17)
        for _ in range(40):
            size = int(rng.integers(1, 2 * n + 1))
            subset = sorted(rng.choice(2 * n, size=size, replace=False) + 1)
            m = canonical_monomial(n, [int(v) for v in subset])
            i, j = sorted(rng.choice(2 * n, size=2, replace=False) + 1)
            img = braid_conjugate(BraidElement(int(i), int(j)), m)
            g = dense_matrix(img)
            assert np.max(np.abs(g - g.conj().T)) < 1e-12
            assert np.max(np.abs(g @ g - np.eye(2 ** n))) < 1e-12


class TestBraidingRecipe:
    def test_identical_sets(self):
        assert braiding_recipe([1, 2], [1, 2], 2) == []

    def test_paper_pairs(self):
        recipe = braiding_recipe([1, 2, 3, 4], [2, 4, 6, 8], 4)
        assert recipe == [BraidElement(1, 6), BraidElement(3, 8)]

    def test_degree1(self):
        assert braiding_recipe([1], [5], 3) == [BraidElement(1, 5)]

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_pairs_map_up_to_sign(self, n):
        rng = np.random.default_rng(23 + n)
        for _ in range(50):
            k = int(rng.integers(1, 2 * n))
            sa = sorted(int(v) for v in rng.choice(2 * n, size=k, replace=False) + 1)
            sb = sorted(int(v) for v in rng.choice(2 * n, size=k, replace=False) + 1)
            m = canonical_monomial(n, sa)
            for b in braiding_recipe(sa, sb, n):
                m = braid_conjugate(b, m)
            assert m.indices == tuple(sb)
            # image is +-gamma_{S'}: phase differs from canonical by 0 or 2 quarters
            target = canonical_monomial(n, sb)
            assert (m.phase_quarter - target.phase_quarter) % 4 in (0, 2)

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            braiding_recipe([1], [2, 3], 2)

    def test_recipe_composed_as_unitaries(self):
        # the dense product of the recipe braids conjugates gamma_S onto
        # exactly +-gamma_{S'}
        n = 3
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            sa = sorted(int(v) for v in rng.choice(2 * n, size=k, replace=False) + 1)
            sb = sorted(int(v) for v in rng.choice(2 * n, size=k, replace=False) + 1)
            u = np.eye(2 ** n, dtype=complex)
            for b in braiding_recipe(sa, sb, n):
                u = braid_unitary(b, n) @ u
            image = u @ dense_matrix(canonical_monomial(n, sa)) @ u.conj().T
            target = dense_matrix(canonical_monomial(n, sb))
            sign = 1.0 if abs(np.trace(image @ target)) > 1 else None
            assert sign is not None
            err_plus = np.max(np.abs(image - target))
            err_minus = np.max(np.abs(image + target))
            assert min(err_plus, err_minus) < 1e-12


class TestCommutant:
    def test_identity_generator_full_space(self):
        n = 2
        dim = commutant_dimension([np.eye(2 ** n)])
        assert dim == 4 ** n

    @pytest.mark.parametrize("n", [2, 3])
    def test_braid_stabilizers_of_pair(self, n):
        gens = braid_stabilizer_unitaries([1, 2], n)
        assert commutant_dimension(gens) == 4
        assert commutant_dimension(gens, parity_sector="even", n_modes=n) == 2
        assert commutant_dimension(gens, parity_sector="odd", n_modes=n) == 2

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            commutant_dimension([np.eye(2 ** 6)])


class TestTextFormat:
    def test_round_trip(self):
        m = canonical_monomial(3, [1, 4])
        text = monomial_to_str(m)
        assert text == "+i*gamma[1,4]"
        assert monomial_from_str(text, 3) == m

    def test_identity(self):
        m = ScaledMonomial(2, 0, 0)
        assert monomial_to_str(m) == "+1*gamma[]"
        assert monomial_from_str("gamma[]", 2) == m

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            monomial_from_str("gamma[3,1]", 2)


def test_odd_degree_phase_is_hermitian():
    # the documented odd-degree extension: i**C(k,2) keeps gamma_S Hermitian
    for n, subset in [(2, [1, 2, 3]), (3, [1, 3, 5]), (3, [2, 3, 4, 5, 6])]:
        g = dense_matrix(canonical_monomial(n, subset))
        assert np.max(np.abs(g - g.conj().T)) < 1e-12
        assert math.comb(len(subset), 2) % 4 == canonical_monomial(n, subset).phase_quarter
