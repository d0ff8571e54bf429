"""Tests for the parent POVM oracle, marginals and sharpness accounting."""

import itertools
import math

import numpy as np
import pytest

from majorana_jm.algebra import canonical_monomial, dense_matrix
from majorana_jm.effects import effect_table, marginal_effect, parent_validate, povm_validate
from majorana_jm.gaussian import compile_gaussian_unitary, random_orthogonal
from majorana_jm.matching import degree2_ensemble
from majorana_jm.paper import commutation_sign
from majorana_jm.povm import sharpness_table, two_observable_correlation

from oracles import (
    degree1_marginal,
    degree1_parent_effect,
    subset_from_x_string,
    x_string_from_subset,
)


class TestParentEffect:
    def test_identity_rotation_trace(self):
        _, effects = effect_table(np.eye(6), 3)
        traces = np.trace(effects, axis1=2, axis2=3).real
        assert np.max(np.abs(traces - 2 ** 3 / 2 ** 9)) < 1e-15

    def test_n1_identity_eight_effects_sum_to_identity(self):
        _, effects = effect_table(np.eye(2), 1)
        effs = effects.reshape(-1, 2, 2)
        assert len(effs) == 8
        assert np.max(np.abs(effs.sum(axis=0) - np.eye(2))) < 1e-14

    def test_n2_psd_for_structured_rotation(self):
        ens = degree2_ensemble(2)
        for mat in ens.matrices:
            _, effects = effect_table(mat.entries, 2)
            flat = effects.reshape(-1, 4, 4)
            assert min(np.linalg.eigvalsh(e)[0] for e in flat) > -1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_completeness_random_rotations(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4 if n < 3 else 2):
            o = random_orthogonal(2 * n, rng)
            _, effects = effect_table(o.entries, n)
            total = effects.reshape(-1, 2 ** n, 2 ** n).sum(axis=0)
            assert np.max(np.abs(total - np.eye(2 ** n))) < 1e-10

    def test_oracle_gate(self):
        with pytest.raises(ValueError):
            effect_table(np.eye(10), 5)
        with pytest.raises(ValueError):
            marginal_effect(np.eye(10), (1, 2), (1, 2), 1, 5)


class TestMarginalEffect:
    def test_identity_sharp_pair(self):
        # O = I measures gamma_{12} projectively through R = {1,2}
        for e in (1, -1):
            marg = marginal_effect(np.eye(4), (1, 2), (1, 2), e, 2)
            target = (
                np.eye(4) + e * dense_matrix(canonical_monomial(2, [1, 2]))
            ) / 2.0
            assert np.max(np.abs(marg - target)) < 1e-12

    def test_identity_zero_minor_is_coin(self):
        marg = marginal_effect(np.eye(4), (1, 2), (1, 3), 1, 2)
        assert np.max(np.abs(marg - np.eye(4) / 2.0)) < 1e-12

    def test_worked_example_half_sharp(self):
        ens = degree2_ensemble(3)
        o1 = ens.matrices[0].entries
        marg = marginal_effect(o1, (1, 2), (1, 3), 1, 3)
        g = dense_matrix(canonical_monomial(3, [1, 3]))
        assert np.max(np.abs(marg - (np.eye(8) + 0.5 * g) / 2.0)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_prop_chain_random(self, n):
        rng = np.random.default_rng(40 + n)
        rep = parent_validate(random_orthogonal(2 * n, rng).entries, n, rng=rng)
        assert rep["completeness_residual"] < 1e-10
        assert rep["min_eigenvalue"] > -1e-10
        assert rep["marginal_residual"] < 1e-10

    def test_marginalization_chain_reproduces_single_pair_povm(self):
        # summing the full table over the discarded computational outcomes
        # leaves 2^-(2n+1) (1 + q_R sum_S x_S det(O_{R,S}) gamma_S)
        from majorana_jm.effects import minor_terms

        n = 2
        rng = np.random.default_rng(77)
        o = random_orthogonal(2 * n, rng).entries
        (q_grid, x_grid), effects = effect_table(o, n)
        pair_terms = [t for t in minor_terms(o, n) if t[0] == (1, 2)]
        for x_idx in range(len(x_grid)):
            for q_r in (1, -1):
                keep = q_grid[:, 0] == q_r  # q_R for R = {1,2} is the mode-1 outcome
                total = effects[x_idx][keep].sum(axis=0)
                expected = np.eye(2 ** n, dtype=complex)
                for _, cols, det in pair_terms:
                    x_s = np.prod(x_grid[x_idx, [c - 1 for c in cols]])
                    expected = expected + (q_r * x_s * det) * dense_matrix(
                        canonical_monomial(n, cols)
                    )
                expected /= 2 ** (2 * n + 1)
                assert np.max(np.abs(total - expected)) < 1e-12


class TestXStringBijection:
    def test_round_trip_all_masks(self):
        n = 2
        for mask in range(2 ** (2 * n)):
            signs = x_string_from_subset(mask, n)
            assert subset_from_x_string(signs) == mask

    def test_even_subset_signs(self):
        signs = x_string_from_subset(0b0011, 2)
        assert list(signs) == [-1, -1, 1, 1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_signs_are_commutation_signs(self, n):
        masks = np.arange(4 ** n, dtype=np.uint64)
        rows = x_string_from_subset(masks, n)
        for mask in range(4 ** n):
            signs = x_string_from_subset(mask, n)
            assert signs.dtype == np.int8 and np.array_equal(rows[mask], signs)
            for j in range(2 * n):
                assert signs[j] == commutation_sign(mask, 1 << j)


class TestSharpnessTable:
    def test_degree2_worked_example(self):
        ens = degree2_ensemble(3)
        tab = sharpness_table(ens)
        assert len(tab.rows) == 15
        for row in tab.rows:
            assert row.eta == pytest.approx(0.5, abs=1e-12)
        assert ens.coverage.min_eta == pytest.approx(0.5, abs=1e-12)

    def test_mean_sharpness_accounts_for_overlap(self):
        tab = sharpness_table(degree2_ensemble(3))
        # covered by both rotations at 1/2 each
        assert tab.mean_sharpness((1, 3)) == pytest.approx(0.5, abs=1e-12)
        # covered only by the second rotation
        assert tab.mean_sharpness((1, 2)) == pytest.approx(0.25, abs=1e-12)

    def test_assignments_expose_signed_minors(self):
        tab = sharpness_table(degree2_ensemble(3))
        rows, det = tab.assignment(2, (1, 2))
        assert rows is not None and abs(abs(det) - 0.5) < 1e-12
        rows1, det1 = tab.assignment(1, (1, 2))
        assert rows1 is None and det1 == pytest.approx(0.0, abs=1e-12)

    def test_enumeration_order_invariance(self):
        a = sharpness_table(degree2_ensemble(4))
        b = sharpness_table(degree2_ensemble(4))
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb


class TestTwoObservableCorrelation:
    def test_self_pair_is_one(self):
        o = degree2_ensemble(3).matrices[0].entries
        assert two_observable_correlation(o, ((1, 2), (1, 3)), ((1, 2), (1, 3)), 3) == 1.0

    def test_size_mismatch_vanishes(self):
        o = degree2_ensemble(3).matrices[0].entries
        # same R, different S: |R xor R'| = 0 but |S xor S'| = 2
        val = two_observable_correlation(o, ((1, 2), (1, 3)), ((1, 2), (2, 4)), 3)
        assert val == 0.0

    def test_matches_dense_two_observable_marginal(self):
        # E[e_S e_S'] from the dense parent equals the coefficient formula
        n = 3
        ens = degree2_ensemble(n)
        o = ens.matrices[0].entries
        tab = sharpness_table(ens)
        s1, s2 = (1, 3), (1, 4)
        r1, d1 = tab.assignment(1, s1)
        r2, d2 = tab.assignment(1, s2)
        coeff = two_observable_correlation(o, (r1, s1), (r2, s2), n)
        rng = np.random.default_rng(8)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        sd = tuple(sorted(set(s1) ^ set(s2)))
        expected = coeff * np.real(
            np.trace(dense_matrix(canonical_monomial(n, sd)) @ rho)
        )
        # exact expectation of e_S e_S' over the dense outcome table
        from majorana_jm.povm import outcome_probabilities
        from majorana_jm.effects import minor_terms

        probs = outcome_probabilities(o, rho, n)
        tau1, tau2 = np.sign(d1), np.sign(d2)
        total = 0.0
        for x_idx in range(probs.shape[0]):
            x = np.array([1 - 2 * ((x_idx >> j) & 1) for j in range(2 * n)])
            for q_idx in range(probs.shape[1]):
                q = np.array([1 - 2 * ((q_idx >> j) & 1) for j in range(n)])
                e1 = tau1 * np.prod(x[[v - 1 for v in s1]]) * np.prod(
                    q[[(v - 1) // 2 for v in r1[::2]]]
                )
                e2 = tau2 * np.prod(x[[v - 1 for v in s2]]) * np.prod(
                    q[[(v - 1) // 2 for v in r2[::2]]]
                )
                total += probs[x_idx, q_idx] * e1 * e2
        assert total == pytest.approx(expected, abs=1e-10)


class TestPovmValidate:
    def test_corrupted_effect_flagged(self):
        effs = [np.eye(2) * 0.5, np.diag([0.5, 0.7]), -0.2 * np.eye(2)]
        rep = povm_validate(effs)
        assert rep.min_eigenvalue < -1e-10
        assert not rep.valid

    def test_identity_parent_clean(self):
        _, effects = effect_table(np.eye(2), 1)
        rep = povm_validate(effects.reshape(-1, 2, 2))
        assert rep.valid


class TestDegree1Parent:
    def test_completeness_and_psd(self):
        etas = np.array([0.5, 0.5, 0.5, 0.5])
        effs = [
            degree1_parent_effect(etas, e) for e in itertools.product([1, -1], repeat=4)
        ]
        rep = povm_validate(effs)
        assert rep.completeness_residual < 1e-12
        assert rep.min_eigenvalue > -1e-12

    def test_marginals_exact(self):
        etas = np.array([0.6, 0.0, 0.8, 0.0])
        for j, e in [(1, 1), (3, -1), (2, 1)]:
            total = sum(
                degree1_parent_effect(etas, out)
                for out in itertools.product([1, -1], repeat=4)
                if out[j - 1] == e
            )
            assert np.max(np.abs(total - degree1_marginal(etas, j, e))) < 1e-12

    def test_projective_simulation_path(self):
        # rotating gamma_1 onto sum eta_j gamma_j and conjugating by every
        # monomial reproduces the closed-form parent exactly
        n = 2
        etas = np.array([0.5, 0.5, 0.5, 0.5])
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(
            np.column_stack([etas, rng.standard_normal((4, 3))])
        )[0]
        o = basis.T.copy()  # first row proportional to etas
        if o[0, 0] * etas[0] < 0:
            o[0] = -o[0]
        np.testing.assert_allclose(o[0], etas, atol=1e-12)
        u = compile_gaussian_unitary(o, n)
        g1 = dense_matrix(canonical_monomial(n, [1]))
        rotated = u.conj().T @ g1 @ u
        pushforward: dict = {}
        for mask in range(16):
            gx = dense_matrix(
                canonical_monomial(n, [j + 1 for j in range(4) if (mask >> j) & 1])
            )
            gamma_ox = gx.conj().T @ rotated @ gx
            x = x_string_from_subset(mask, n)
            for q in (1, -1):
                e_string = tuple(int(q * xi) for xi in x)
                eff = (np.eye(4) + q * gamma_ox) / 2.0 / 16.0
                pushforward[e_string] = pushforward.get(e_string, 0) + eff
        for e_string, eff in pushforward.items():
            target = degree1_parent_effect(etas, e_string)
            assert np.max(np.abs(eff - target)) < 1e-9
