"""Tests for shot simulation, estimators, variance and sample complexity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from majorana_jm import sampling
from majorana_jm.algebra import (
    ScaledMonomial,
    apply_monomial,
    canonical_monomial,
    parity,
    subsets_of_size,
)
from majorana_jm.ensemble import COVERAGE_TOL, UncoveredTargetError, custom_ensemble
from majorana_jm.gaussian import compile_gaussian_unitary, random_orthogonal
from majorana_jm.matching import degree2_ensemble, degree2k_ensemble
from majorana_jm.paper import pauli_dense, sample_complexity, to_pauli
from majorana_jm.povm import outcome_probabilities, sharpness_table
from majorana_jm.sampling import (
    EstimationRecord,
    FermionicState,
    HamiltonianSpec,
    ShotBatch,
    _born_cdfs,
    _eigenstates,
    _filled_signs,
    _mask_bits,
    _sector_blocks,
    _sign_rule,
    analytic_estimates,
    estimate_expectations,
    estimate_hamiltonian,
    exact_expectations,
    predicted_variance,
    shot_probability_table,
    simulate_shots,
)
from majorana_jm.turan import permutation_matrix

from oracles import degree1_variance, simulate_degree1_shots, x_string_from_subset


def sector_cdfs(o, weights, rows, masks, n):
    """``_born_cdfs`` of the groups ``masks`` under the rotation ``o``, from its compiled sector blocks."""
    blocks = _sector_blocks(compile_gaussian_unitary(o, n), o.det() < 0)
    flip, _, zmask = _mask_bits(masks, n)
    return _born_cdfs(blocks, parity(np.arange(2 ** n)), weights, rows, flip, zmask)


def bin_shots(batch, n, n_matrices):
    q_idx = np.zeros(len(batch.r), dtype=np.int64)
    for j in range(n):
        q_idx |= ((1 - batch.q[:, j].astype(np.int64)) // 2) << j
    keys = (
        (batch.r - 1) * (4 ** n * 2 ** n)
        + batch.conj_mask.astype(np.int64) * 2 ** n
        + q_idx
    )
    return np.bincount(keys, minlength=n_matrices * 4 ** n * 2 ** n)


class TestFermionicState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            FermionicState(1, vector=np.array([1.0, 1.0]))

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            FermionicState(1, density_matrix=np.diag([0.9, 0.3]))

    def test_mixed_state_expectations_vanish(self):
        state = FermionicState.maximally_mixed(2)
        assert state.expectation([1, 2]) == pytest.approx(0.0, abs=1e-14)


class TestShotDistribution:
    def test_basis_state_identity_rotation_deterministic(self):
        # X = empty leaves a basis state an eigenstate of every pair observable
        state = FermionicState.basis_state(2, 0)
        ens = custom_ensemble(2, 1, [np.eye(4)])
        probs = shot_probability_table(state, ens)
        # conditioned on mask 0 exactly one q outcome occurs
        row = probs[0, 0]
        assert np.count_nonzero(row > 1e-15) == 1

    def test_maximally_mixed_uniform(self):
        state = FermionicState.maximally_mixed(2)
        rng = np.random.default_rng(3)
        ens = custom_ensemble(2, 1, [random_orthogonal(4, rng).entries])
        probs = shot_probability_table(state, ens)
        assert np.max(np.abs(probs - 1.0 / probs.size)) < 1e-12

    @pytest.mark.parametrize(
        "n,shots", [(1, 100_000), (2, 400_000), (3, 1_500_000)]
    )
    def test_total_variation_and_chisquare(self, n, shots):
        rng = np.random.default_rng(n)
        ens = degree2_ensemble(n)
        state = FermionicState.random_pure(n, rng)
        batch = simulate_shots(state, ens, shots, rng)
        probs = shot_probability_table(state, ens)
        counts = bin_shots(batch, n, ens.n_matrices)
        tv = 0.5 * np.abs(counts / shots - probs.reshape(-1)).sum()
        assert tv < 0.01
        chi = stats.chisquare(counts, probs.reshape(-1) * shots)
        assert chi.pvalue > 1e-6

    def test_deterministic_streams(self):
        ens = degree2_ensemble(2)
        state = FermionicState.random_pure(2, np.random.default_rng(0))
        a = simulate_shots(state, ens, 500, np.random.default_rng(9))
        b = simulate_shots(state, ens, 500, np.random.default_rng(9))
        assert np.array_equal(a.r, b.r)
        assert np.array_equal(a.conj_mask, b.conj_mask)
        assert np.array_equal(a.q, b.q)


def kron_dense(n, subset):
    return pauli_dense(to_pauli(canonical_monomial(n, subset)))


def random_mixed(n, rng):
    a = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    rho = a @ a.conj().T
    return FermionicState(n, density_matrix=rho / np.trace(rho))


def two_matrix_ensemble(n, rng):
    mats = [random_orthogonal(2 * n, rng).entries for _ in range(2)]
    return custom_ensemble(n, 1, mats)


class TestMatrixFreeAgainstDense:
    """Monomial actions in the sampler against Kronecker-product oracles."""

    @pytest.mark.parametrize("pure", [True, False])
    def test_expectation(self, pure):
        rng = np.random.default_rng(21)
        n = 3
        state = FermionicState.random_pure(n, rng) if pure else random_mixed(n, rng)
        rho = state.density()
        for size in (1, 2, 3, 4):
            for subset in subsets_of_size(2 * n, size)[::3]:
                expected = np.real(np.trace(kron_dense(n, subset) @ rho))
                assert state.expectation(subset) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("pure", [True, False])
    def test_group_probability(self, pure):
        rng = np.random.default_rng(22)
        n = 3
        state = FermionicState.random_pure(n, rng) if pure else random_mixed(n, rng)
        o = random_orthogonal(2 * n, rng)
        u = compile_gaussian_unitary(o, n)
        masks = np.arange(0, 4 ** n, 5, dtype=np.uint64)
        cdfs = sector_cdfs(o, *_eigenstates(state), masks, n)
        for mask, cdf in zip(masks.tolist(), cdfs):
            gx = pauli_dense(to_pauli(ScaledMonomial(n, mask, math.comb(mask.bit_count(), 2))))
            evolved = u @ gx @ state.density() @ gx.conj().T @ u.conj().T
            expected = np.real(np.diag(evolved))
            got = np.diff(cdf, prepend=0.0)
            assert np.max(np.abs(got - expected / expected.sum())) < 1e-12

    def test_probability_table_rekeys_by_x_string(self):
        rng = np.random.default_rng(23)
        n = 3
        state = FermionicState.random_pure(n, rng)
        ens = two_matrix_ensemble(n, rng)
        table = shot_probability_table(state, ens)
        for r, mat in enumerate(ens.matrices):
            by_x = outcome_probabilities(mat.entries, state.density(), n)
            for mask in range(4 ** n):
                bits = x_string_from_subset(mask, n) < 0
                x_idx = sum(1 << j for j, neg in enumerate(bits) if neg)
                assert np.array_equal(table[r, mask], by_x[x_idx] / 2)

    def test_exact_expectations_match_outcome_sum(self):
        # the literal sum over (r, mask, q) of tau * x_S * q_R * p(r, mask, q)
        rng = np.random.default_rng(24)
        n = 3
        state = FermionicState.random_pure(n, rng)
        ens = two_matrix_ensemble(n, rng)
        table = sharpness_table(ens)
        probs = shot_probability_table(state, ens)
        targets = subsets_of_size(2 * n, 2)[::2] + subsets_of_size(2 * n, 4)[::3]
        for rec in exact_expectations(probs, table, targets):
            subset = rec.target
            s_mask = sum(1 << (v - 1) for v in subset)
            total = 0.0
            for r in range(1, ens.n_matrices + 1):
                rows, det = table.assignment(r, subset)
                if rows is None:
                    continue
                modes = [(v - 1) // 2 for v in rows[::2]]
                for mask in range(4 ** n):
                    x_s = (-1) ** (len(subset) * mask.bit_count() - (mask & s_mask).bit_count())
                    for q_idx in range(2 ** n):
                        q_r = math.prod(1 - 2 * ((q_idx >> m) & 1) for m in modes)
                        total += probs[r - 1, mask, q_idx] * math.copysign(1.0, det) * x_s * q_r
            expected = total / table.mean_sharpness(subset)
            assert rec.estimate == pytest.approx(expected, abs=1e-12)


class TestSectorBlocksAgainstDense:
    """The two parity-sector blocks of a compiled unitary, and the Born cdfs made from them."""

    @settings(max_examples=40, deadline=None)
    @example(n=1, det_negative=True, pure=False, seed=1)
    @example(n=6, det_negative=True, pure=True, seed=2)
    @example(n=6, det_negative=False, pure=False, seed=3)
    @given(
        n=st.integers(1, 6),
        det_negative=st.booleans(),
        pure=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_blocks_and_cdfs_match_dense_unitary(self, n, det_negative, pure, seed):
        rng = np.random.default_rng(seed)
        o = random_orthogonal(2 * n, rng, special=not det_negative)
        u = compile_gaussian_unitary(o, n)
        # the kernel's premise: each sector maps onto one sector, the other one
        # exactly when det O = -1, and every other entry is exactly zero
        sector = np.bitwise_count(np.arange(2 ** n)) & 1
        assert np.all(u[(sector[:, None] ^ sector[None, :]) != det_negative] == 0.0)
        blocks = _sector_blocks(u, det_negative)
        assert sorted(np.concatenate([t for _, t, _ in blocks]).tolist()) == list(range(2 ** n))
        for source, target, block in blocks:
            assert block.shape == (2 ** (n - 1), 2 ** (n - 1))
            assert np.array_equal(block, u[np.ix_(target, source)].T)
        if pure:
            state = FermionicState.random_pure(n, rng)
        else:
            # a rank-deficient density matrix
            shape = (2 ** n, int(rng.integers(1, 2 ** n)))
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            rho = a @ a.conj().T
            state = FermionicState(n, density_matrix=rho / np.trace(rho))
        masks = np.unique(rng.integers(0, 4 ** n, size=24, dtype=np.uint64))
        cdfs = sector_cdfs(o, *_eigenstates(state), masks, n)
        for mask, cdf in zip(masks.tolist(), cdfs):
            gx = pauli_dense(to_pauli(ScaledMonomial(n, mask, math.comb(mask.bit_count(), 2))))
            if pure:
                expected = np.abs(u @ gx @ state.vector) ** 2
            else:
                expected = np.real(np.diag(u @ gx @ state.density_matrix @ gx.conj().T @ u.conj().T))
            got = np.diff(cdf, prepend=0.0)
            assert np.max(np.abs(got - expected / expected.sum())) < 1e-12


def per_group_shots(state, ens, n_shots, rng):
    """Oracle sampler: one Born distribution and one ``rng.choice`` per shot group."""
    n = state.n_modes
    rs = rng.integers(0, ens.n_matrices, size=n_shots)
    masks = rng.integers(0, 2 ** (2 * n), size=n_shots, dtype=np.uint64)
    # outcome signs of the n pair observables, from their Kronecker products
    pairs = [kron_dense(n, [2 * j + 1, 2 * j + 2]) for j in range(n)]
    signs = np.array([np.rint(np.real(np.diag(p))) for p in pairs], dtype=np.int8)
    unitaries = [compile_gaussian_unitary(m.entries, n) for m in ens.matrices]
    q = np.empty((n_shots, n), dtype=np.int8)
    keys = rs.astype(np.uint64) << np.uint64(2 * n + 1) | masks
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    for start, stop in zip(starts, np.r_[starts[1:], n_shots]):
        members = order[start:stop]
        u = unitaries[int(rs[members[0]])]
        g = canonical_monomial(n, int(masks[members[0]]))
        if state.is_pure:
            probs = np.abs(u @ apply_monomial(g, state.vector)) ** 2
        else:
            # gamma rho gamma^dag = gamma (gamma rho)^dag for Hermitian rho
            conjugated = apply_monomial(g, apply_monomial(g, state.density_matrix).conj().T)
            probs = np.real(np.diag(u @ conjugated @ u.conj().T))
        probs = np.clip(probs, 0.0, None)
        q[members] = signs[:, rng.choice(2 ** n, size=len(members), p=probs / probs.sum())].T
    return rs + 1, masks, q


class TestBatchedSamplerAgainstPerGroupOracle:
    @settings(max_examples=25, deadline=None)
    # groups of thousands of shots; singleton groups; a density state at n=6
    @example(n=1, n_rotations=2, pure=True, shots=100_000, block_bytes=1, seed=1)
    @example(n=6, n_rotations=3, pure=True, shots=50, block_bytes=512, seed=2)
    @example(n=6, n_rotations=2, pure=False, shots=5_000, block_bytes=sampling._BLOCK_BYTES, seed=3)
    @example(n=3, n_rotations=3, pure=False, shots=20_000, block_bytes=512, seed=4)
    # n_rotations=0: a constructed ensemble, whose rotations after the first
    # run under the first one's sector blocks through _permuted
    @example(n=6, n_rotations=0, pure=True, shots=20_000, block_bytes=sampling._BLOCK_BYTES, seed=5)
    @given(
        n=st.integers(1, 6),
        n_rotations=st.integers(0, 3),
        pure=st.booleans(),
        shots=st.integers(1, 100_000),
        # the shipped block size, whatever it is, always among them
        block_bytes=st.sampled_from([1, 512, 1 << 16, sampling._BLOCK_BYTES]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_same_shots_and_generator_state(self, n, n_rotations, pure, shots, block_bytes, seed):
        rng = np.random.default_rng(seed)
        if n_rotations:
            ens = custom_ensemble(n, 1, [random_orthogonal(2 * n, rng).entries for _ in range(n_rotations)])
        else:
            ens = degree2k_ensemble(n, 2 if n >= 6 else 1, seed=seed)
        if pure:
            state = FermionicState.random_pure(n, rng)
        else:
            # random rank, so that the eigenvector sum is sometimes rank-deficient
            shape = (2 ** n, int(rng.integers(1, 2 ** n + 1)))
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            rho = a @ a.conj().T
            state = FermionicState(n, density_matrix=rho / np.trace(rho))
        batched, oracle = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        # small blocks split one rotation's groups over several blocks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_BLOCK_BYTES", block_bytes)
            batch = simulate_shots(state, ens, shots, batched)
        r, masks, q = per_group_shots(state, ens, shots, oracle)
        assert np.array_equal(batch.r, r)
        assert np.array_equal(batch.conj_mask, masks)
        assert np.array_equal(batch.q, q)
        assert batched.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("block_bytes", [1, sampling._BLOCK_BYTES])
def test_outcome_count_equals_searchsorted(monkeypatch, block_bytes):
    # repeated entries (zero-probability outcomes), uniforms equal to an entry or
    # just below one, and rows whose last entry is exactly 1.0
    cdfs = np.array(
        [[0.25, 0.25, 0.5, 1.0], [0.0, 0.0, 0.7, 1.0], [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
    )
    entries = np.unique(cdfs)
    draws = np.r_[entries, np.nextafter(entries, 0.0), np.random.default_rng(41).random(50)]
    group = np.repeat(np.arange(len(cdfs)), len(draws))
    uniforms = np.tile(draws, len(cdfs))
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", block_bytes)
    got = sampling._outcomes(cdfs, group, uniforms)
    want = [cdfs[g].searchsorted(u, side="right") for g, u in zip(group, uniforms)]
    assert np.array_equal(got, want)


def test_compiles_only_rotations_that_drew_shots(monkeypatch):
    calls = []
    compile_unitary = sampling.compile_gaussian_unitary

    def counted(o, n_modes):
        calls.append(n_modes)
        return compile_unitary(o, n_modes)

    monkeypatch.setattr(sampling, "compile_gaussian_unitary", counted)
    rng = np.random.default_rng(31)
    ens = custom_ensemble(2, 1, [random_orthogonal(4, rng).entries for _ in range(3)])
    batch = simulate_shots(FermionicState.random_pure(2, rng), ens, 1, rng)
    assert len(batch) == 1
    assert calls == [2]


def permuted_ensemble(kind, n, odd, det_negative, seed):
    """Rotations that are exact column permutations of one base rotation.

    ``degree2`` and ``degree2k`` are the constructions; ``custom`` is a random
    base (of determinant -1 when ``det_negative``) times permutations of the
    parity ``odd``, after the base itself.
    """
    if kind == "degree2":
        return degree2_ensemble(n)
    if kind == "degree2k":
        return degree2k_ensemble(n, 2 if n >= 6 else 1, seed=seed)
    rng = np.random.default_rng(seed)
    base = random_orthogonal(2 * n, rng, special=not det_negative).entries
    mats = [base]
    for _ in range(2):
        sigma = rng.permutation(2 * n)
        if (np.linalg.det(permutation_matrix(sigma)) < 0) != odd:
            sigma[[0, 1]] = sigma[[1, 0]]
        mats.append(base @ permutation_matrix(sigma))
    return custom_ensemble(n, 1, mats)


class TestPermutedRotationsAgainstPerRotationCompile:
    """Born cdfs of rotations ``O_b Q`` under the base unitary, against compiling ``O_b Q``."""

    @settings(max_examples=40, deadline=None)
    @example(kind="custom", n=6, odd=True, det_negative=True, pure=False, block_bytes=1, seed=1)
    @example(kind="degree2k", n=6, odd=False, det_negative=False, pure=True, block_bytes=512, seed=2)
    @example(kind="degree2", n=1, odd=False, det_negative=False, pure=False, block_bytes=1, seed=3)
    @given(
        kind=st.sampled_from(["degree2", "degree2k", "custom"]),
        n=st.integers(1, 6),
        odd=st.booleans(),
        det_negative=st.booleans(),
        pure=st.booleans(),
        block_bytes=st.sampled_from([1, 512, sampling._BLOCK_BYTES]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_cdfs_match_compiled_rotation(self, kind, n, odd, det_negative, pure, block_bytes, seed):
        ens = permuted_ensemble(kind, n, odd, det_negative, seed)
        rng = np.random.default_rng(seed)
        if pure:
            state = FermionicState.random_pure(n, rng)
        else:
            # random rank, so that the eigenvector sum is sometimes rank-deficient
            shape = (2 ** n, int(rng.integers(1, 2 ** n + 1)))
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            rho = a @ a.conj().T
            state = FermionicState(n, density_matrix=rho / np.trace(rho))
        seen = []

        def recorded(*args):
            seen.append(_born_cdfs(*args))
            return seen[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_BLOCK_BYTES", block_bytes)
            patch.setattr(sampling, "_born_cdfs", recorded)
            batch = simulate_shots(state, ens, 300 * ens.n_matrices, rng)
        got = np.concatenate(seen)
        # blocks come in the sorted order of the (rotation, mask) groups
        groups = np.unique((batch.r - 1).astype(np.uint64) << np.uint64(2 * n + 1) | batch.conj_mask)
        group_r = (groups >> np.uint64(2 * n + 1)).astype(np.int64)
        group_masks = groups & np.uint64(4 ** n - 1)
        assert got.shape == (len(groups), 2 ** n)
        weights, rows = _eigenstates(state)
        for r, mat in enumerate(ens.matrices):
            mine = group_r == r
            if mine.any():
                want = sector_cdfs(mat, weights, rows, group_masks[mine], n)
                assert np.max(np.abs(got[mine] - want)) <= 1e-15


@pytest.mark.parametrize(
    "layout, compiles",
    [("degree2k", 1), ("A, AP, B, BP", 2), ("A, B, AP", 3)],
)
def test_one_compile_per_base_rotation(monkeypatch, layout, compiles):
    calls = []
    compile_unitary = sampling.compile_gaussian_unitary

    def counted(o, n_modes):
        calls.append(n_modes)
        return compile_unitary(o, n_modes)

    monkeypatch.setattr(sampling, "compile_gaussian_unitary", counted)
    rng = np.random.default_rng(32)
    if layout == "degree2k":
        ens = degree2k_ensemble(6, 2, seed=5)
        assert ens.n_matrices == 9
    else:
        a, b = (random_orthogonal(12, rng).entries for _ in range(2))
        p = permutation_matrix(rng.permutation(12))
        named = {"A": a, "AP": a @ p, "B": b, "BP": b @ p}
        ens = custom_ensemble(6, 1, [named[m] for m in layout.split(", ")])
    batch = simulate_shots(FermionicState.random_pure(6, rng), ens, 100 * ens.n_matrices, rng)
    assert set(batch.r.tolist()) == set(range(1, ens.n_matrices + 1))
    assert len(calls) == compiles


def loop_target_signs(batch, table, subset):
    """Per-shot ``(-1)^(|S||X| - |S & X|) prod_{j in R} q_j sign(det)``, NaN where uncovered."""
    s_mask = sum(1 << (v - 1) for v in subset)
    out = np.empty(len(batch))
    for i in range(len(batch)):
        rows, det = table.assignment(int(batch.r[i]), subset)
        if rows is None:
            out[i] = np.nan
            continue
        x = int(batch.conj_mask[i])
        x_s = (-1) ** (len(subset) * x.bit_count() - (x & s_mask).bit_count())
        q_r = math.prod(int(batch.q[i, (v - 1) // 2]) for v in rows[::2])
        out[i] = x_s * q_r * math.copysign(1.0, det)
    return out


def loop_sign_rule(table, subset):
    """``(tau, modes, eta)`` of one target from one ``assignment`` call per rotation."""
    tau = np.zeros(table.n_matrices)
    modes = np.zeros(table.n_matrices, dtype=np.uint64)
    dets = np.empty(table.n_matrices)
    for r in range(table.n_matrices):
        rows, dets[r] = table.assignment(r + 1, subset)
        if rows is not None:
            tau[r] = math.copysign(1.0, dets[r])
            modes[r] = sum(1 << (v // 2 - 1) for v in rows[1::2])
    return tau, modes, float(np.abs(dets).mean())


def assert_rule_matches_loops(batch, table, subset, seed):
    """The one-lookup rule and signs of ``subset`` against the per-rotation and per-shot loops."""
    tau, modes, eta = loop_sign_rule(table, subset)
    if not tau.any():
        with pytest.raises(UncoveredTargetError):
            _sign_rule(table, subset)
        return
    _, got_tau, got_modes, minors, got_eta = _sign_rule(table, subset)
    assert np.array_equal(got_tau, tau) and np.array_equal(got_modes, modes)
    assert got_eta == eta and np.array_equal(minors, table.minors(subset))
    signs, sign_eta = _filled_signs(batch, table, subset, np.random.default_rng(seed))
    want = loop_target_signs(batch, table, subset)
    holes = np.isnan(want)  # shots under a rotation that does not cover S: fair coins
    assert sign_eta == eta and np.array_equal(signs[~holes], want[~holes])
    assert set(signs[holes].tolist()) <= {-1.0, 1.0}


def random_batch(n, n_matrices, shots, rng):
    r = rng.integers(1, n_matrices + 1, size=shots)
    masks = rng.integers(0, 4 ** n, size=shots, dtype=np.uint64)
    q = rng.choice(np.array([-1, 1], dtype=np.int8), size=(shots, n))
    q_bits = ((q < 0).astype(np.uint64) << np.arange(n, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
    batch = ShotBatch(n, r, masks, q_bits)
    assert np.array_equal(batch.q, q)
    return batch


def test_sampling_never_goes_through_pauli_letters(monkeypatch):
    # monomials act through their support bits; to_pauli is only the oracle
    from majorana_jm import paper

    def forbidden(m):
        raise AssertionError("to_pauli called")

    monkeypatch.setattr(paper, "to_pauli", forbidden)
    rng = np.random.default_rng(6)
    ens = degree2_ensemble(3)
    table = sharpness_table(ens)
    ham = HamiltonianSpec((((1, 2), 1.0), ((3, 6), -0.5)))
    for state in (FermionicState.random_pure(3, rng), FermionicState.maximally_mixed(3)):
        batch = simulate_shots(state, ens, 300, rng)
        estimate_expectations(batch, table, [(1, 2), (1, 4), (2, 3, 5, 6)], rng=rng)
        estimate_hamiltonian(batch, table, ham, rng=rng)


class TestSignRule:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 4),
        n_random=st.integers(1, 2),
        round_off=st.booleans(),
        shots=st.integers(1, 80),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(n=3, n_random=1, round_off=True, shots=40, seed=0)
    def test_target_signs_match_loop_oracle(self, n, n_random, round_off, shots, seed):
        # the identity rotation covers only the pair products, so most
        # targets are uncovered under it and its shots draw coins; the
        # round-off rotation's minor for (1, 3) is about 2e-17, not a cover.
        # Degree-4 targets come first, from the lazily scanned degree of the
        # same k = 1 table, so one table serves mixed degrees.
        rng = np.random.default_rng(seed)
        mats = [random_orthogonal(2 * n, rng).entries for _ in range(n_random)] + [np.eye(2 * n)]
        mats += [_round_off_rotation(n)] if round_off else []
        table = sharpness_table(custom_ensemble(n, 1, mats))
        if round_off:
            assert 0.0 < abs(table.minors((1, 3))[-1]) <= COVERAGE_TOL
        batch = random_batch(n, len(mats), shots, rng)
        for subset in subsets_of_size(2 * n, 4) + subsets_of_size(2 * n, 2):
            assert_rule_matches_loops(batch, table, subset, seed)


def _round_off_rotation(n):
    """A rotation whose minor for support (1, 3) is round-off (about 2e-17), not zero."""
    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    arr = np.eye(2 * n)
    arr[:4, :4] = np.kron(rot(0.3), rot(0.7))
    return arr


class TestAnalyticEstimates:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 4),
        n_random=st.integers(1, 2),
        pure=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_closed_form_matches_outcome_table(self, n, n_random, pure, seed):
        rng = np.random.default_rng(seed)
        mats = [random_orthogonal(2 * n, rng).entries for _ in range(n_random)]
        ens = custom_ensemble(n, 1, mats + [_round_off_rotation(n)])
        table = sharpness_table(ens)
        assert 0.0 < abs(table.minors((1, 3))[-1]) <= COVERAGE_TOL
        if pure:
            state = FermionicState.random_pure(n, rng)
        else:
            # a rank-3 mixture of random pure states
            vecs = [FermionicState.random_pure(n, rng).vector for _ in range(3)]
            weights = rng.dirichlet(np.ones(3))
            rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
            state = FermionicState(n, density_matrix=rho)
        targets = [(1, 3)] + subsets_of_size(2 * n, 2)[::3] + subsets_of_size(2 * n, 4)[::5]
        got = analytic_estimates(state, table, targets)
        want = exact_expectations(shot_probability_table(state, ens), table, targets)
        for g, w in zip(got, want):
            assert g.target == w.target and (g.shots, g.stderr) == (0, 0.0)
            assert abs(g.estimate - w.estimate) <= 1e-12

    def test_covered_by_every_rotation_is_the_expectation(self):
        # tau_r m_r(S) = |m_r(S)| exactly, so the ratio to eta_eff is 1.0
        n = 6
        rng = np.random.default_rng(9)
        ens = custom_ensemble(n, 1, [random_orthogonal(2 * n, rng).entries for _ in range(3)])
        state = FermionicState.random_pure(n, rng)
        targets = subsets_of_size(2 * n, 2)[::7] + [(1, 2, 5, 11)]
        for rec in analytic_estimates(state, sharpness_table(ens), targets):
            assert rec.estimate == state.expectation(rec.target)

    def test_uncovered_target_raises(self):
        table = sharpness_table(custom_ensemble(2, 1, [np.eye(4)]))
        with pytest.raises(UncoveredTargetError):
            analytic_estimates(FermionicState.basis_state(2), table, [(1, 3)])


class TestEstimators:
    def test_eigenstate_estimates_plus_one(self):
        # basis state 0 is a +1 eigenstate of -Z_1, i.e. of the first pair
        n = 2
        state = FermionicState.basis_state(n, 0)
        ens = degree2_ensemble(n)
        rng = np.random.default_rng(11)
        batch = simulate_shots(state, ens, 100_000, rng)
        table = sharpness_table(ens)
        (rec,) = estimate_expectations(batch, table, [(1, 2)], rng=rng)
        exact = state.expectation((1, 2))
        assert abs(exact) == pytest.approx(1.0, abs=1e-12)
        assert abs(rec.estimate - exact) < 4 * rec.stderr

    def test_zero_expectation_state(self):
        n = 2
        state = FermionicState.maximally_mixed(n)
        ens = degree2_ensemble(n)
        rng = np.random.default_rng(13)
        batch = simulate_shots(state, ens, 50_000, rng)
        table = sharpness_table(ens)
        (rec,) = estimate_expectations(batch, table, [(1, 3)], rng=rng)
        assert abs(rec.estimate) < 4 * rec.stderr

    def test_all_degree2_targets_within_4_sigma(self):
        n = 3
        rng = np.random.default_rng(42)
        ens = degree2_ensemble(n)
        state = FermionicState.random_pure(n, rng)
        batch = simulate_shots(state, ens, 100_000, rng)
        table = sharpness_table(ens)
        recs = estimate_expectations(batch, table, subsets_of_size(2 * n, 2), rng=rng)
        for rec in recs:
            assert abs(rec.estimate - state.expectation(rec.target)) < 4 * rec.stderr

    def test_exact_mode_is_unbiased(self):
        n = 3
        rng = np.random.default_rng(5)
        ens = degree2_ensemble(n)
        state = FermionicState.random_pure(n, rng)
        table = sharpness_table(ens)
        probs = shot_probability_table(state, ens)
        recs = exact_expectations(probs, table, subsets_of_size(2 * n, 2))
        for rec in recs:
            assert rec.estimate == pytest.approx(state.expectation(rec.target), abs=1e-10)

    def test_uncovered_target_raises(self):
        ens = custom_ensemble(2, 1, [np.eye(4)])
        table = sharpness_table(ens)
        state = FermionicState.basis_state(2)
        batch = simulate_shots(state, ens, 10, np.random.default_rng(0))
        with pytest.raises(UncoveredTargetError):
            estimate_expectations(batch, table, [(1, 3)])

    def test_round_off_minors_are_uncovered(self):
        # every minor of support (1,3) under this rotation is round-off (~1e-17)
        def rot(t):
            return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

        ens = custom_ensemble(2, 1, [np.kron(rot(0.3), rot(0.7))])
        table = sharpness_table(ens)
        assert table.assignment(1, (1, 3))[0] is None
        assert table.mean_sharpness((1, 3)) == 0.0
        state = FermionicState.random_pure(2, np.random.default_rng(1))
        batch = simulate_shots(state, ens, 1000, np.random.default_rng(2))
        with pytest.raises(UncoveredTargetError):
            estimate_expectations(batch, table, [(1, 3)])
        with pytest.raises(UncoveredTargetError):
            estimate_hamiltonian(batch, table, HamiltonianSpec((((1, 2), 1.0), ((1, 3), 0.5))))
        with pytest.raises(UncoveredTargetError):
            exact_expectations(shot_probability_table(state, ens), table, [(1, 3)])

    def test_coin_fill_keeps_unbiasedness(self):
        # target covered by one of two rotations only
        n = 3
        rng = np.random.default_rng(21)
        ens = degree2_ensemble(n)
        state = FermionicState.random_pure(n, rng)
        batch = simulate_shots(state, ens, 200_000, rng)
        table = sharpness_table(ens)
        (rec,) = estimate_expectations(batch, table, [(1, 2)], rng=rng)
        assert abs(rec.estimate - state.expectation((1, 2))) < 4 * rec.stderr


class TestHamiltonian:
    def test_single_term_reduces_to_observable(self):
        n = 2
        rng = np.random.default_rng(3)
        ens = degree2_ensemble(n)
        state = FermionicState.random_pure(n, rng)
        batch = simulate_shots(state, ens, 50_000, rng)
        table = sharpness_table(ens)
        ham = HamiltonianSpec((((1, 3), 2.5),))
        rec = estimate_hamiltonian(batch, table, ham, rng=rng)
        (obs,) = estimate_expectations(batch, table, [(1, 3)], rng=np.random.default_rng(99))
        assert rec.estimate == pytest.approx(2.5 * obs.estimate, abs=5 * rec.stderr)

    def test_diagonal_hamiltonian_on_basis_state(self):
        n = 3
        state = FermionicState.basis_state(n, 5)
        rng = np.random.default_rng(8)
        ens = degree2_ensemble(n)
        batch = simulate_shots(state, ens, 100_000, rng)
        table = sharpness_table(ens)
        ham = HamiltonianSpec(
            (((1, 2), 0.7), ((3, 4), -1.1), ((5, 6), 0.4))
        )
        rec = estimate_hamiltonian(batch, table, ham, rng=rng)
        assert abs(rec.estimate - ham.expectation(state)) < 4 * rec.stderr

    def test_random_two_local_matches_dense(self):
        n = 3
        rng = np.random.default_rng(17)
        ens = degree2_ensemble(n)
        state = FermionicState.random_pure(n, rng)
        batch = simulate_shots(state, ens, 100_000, rng)
        table = sharpness_table(ens)
        ham = HamiltonianSpec((((1, 4), 0.3), ((2, 5), -0.9), ((3, 6), 0.2)))
        rec = estimate_hamiltonian(batch, table, ham, rng=rng)
        assert abs(rec.estimate - ham.expectation(state)) < 4 * rec.stderr

    def test_rejects_odd_degree(self):
        with pytest.raises(ValueError):
            HamiltonianSpec((((1, 2, 3), 1.0),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            HamiltonianSpec((((1, 2), 1.0), ((2, 1), 2.0)))


class TestPredictedVariance:
    def test_single_term_closed_form(self):
        n = 2
        rng = np.random.default_rng(31)
        o = random_orthogonal(2 * n, rng)
        state = FermionicState.random_pure(n, rng)
        alpha = 1.7
        ham = HamiltonianSpec((((1, 3), alpha),))
        ens = custom_ensemble(n, 1, [o])
        tab = sharpness_table(ens)
        eta = tab.row_for((1, 3)).eta
        expected = alpha ** 2 / eta ** 2 - (alpha * state.expectation((1, 3))) ** 2
        assert predicted_variance(ham, tab, state) == pytest.approx(expected, rel=1e-12)

    def test_needs_one_rotation(self):
        table = sharpness_table(degree2_ensemble(2))
        ham = HamiltonianSpec((((1, 3), 1.0),))
        with pytest.raises(ValueError, match="one rotation"):
            predicted_variance(ham, table, FermionicState.basis_state(2))

    def test_matches_monte_carlo(self):
        n = 3
        rng = np.random.default_rng(7)
        o = random_orthogonal(2 * n, rng)
        ens = custom_ensemble(n, 1, [o])
        state = FermionicState.random_pure(n, rng)
        ham = HamiltonianSpec((((1, 2), 0.8), ((1, 3), -0.5)))
        table = sharpness_table(ens)
        pred = predicted_variance(ham, table, state)
        batch = simulate_shots(state, ens, 1_000_000, rng)
        per_shot = np.zeros(len(batch.r))
        for subset, coeff in ham.terms:
            signs, eta = _filled_signs(batch, table, subset, rng)
            per_shot += coeff * signs / eta
        emp = per_shot.var(ddof=1)
        m4 = ((per_shot - per_shot.mean()) ** 4).mean()
        se = math.sqrt((m4 - emp ** 2) / len(per_shot))
        assert abs(emp - pred) < 3 * se

    def test_correlated_pair_from_shots(self):
        # E[e_S e_S'] agrees with the two-observable coefficient times tr
        from majorana_jm.povm import two_observable_correlation

        n = 3
        rng = np.random.default_rng(19)
        o = random_orthogonal(2 * n, rng)
        ens = custom_ensemble(n, 1, [o])
        state = FermionicState.random_pure(n, rng)
        batch = simulate_shots(state, ens, 400_000, rng)
        table = sharpness_table(ens)
        s1, s2 = (1, 2), (1, 3)
        e1, _ = _filled_signs(batch, table, s1, rng)
        e2, _ = _filled_signs(batch, table, s2, rng)
        prod = e1 * e2
        r1, _ = table.assignment(1, s1)
        r2, _ = table.assignment(1, s2)
        coeff = two_observable_correlation(o.entries, (r1, s1), (r2, s2), n)
        sd = tuple(sorted(set(s1) ^ set(s2)))
        expected = coeff * state.expectation(sd)
        se = prod.std(ddof=1) / math.sqrt(len(prod))
        assert abs(prod.mean() - expected) < 3 * se


class TestDegree1:
    def test_variance_formula(self):
        rng = np.random.default_rng(23)
        coeffs = np.array([0.3, -0.2, 0.5, 0.1, 0.0, 0.4])
        state = FermionicState.random_pure(3, rng)
        shots = simulate_degree1_shots(state, 150_000, rng)
        eta = 1.0 / math.sqrt(6.0)
        per = (shots * coeffs).sum(axis=1) / eta
        pred = degree1_variance(coeffs, state)
        emp = per.var(ddof=1)
        m4 = ((per - per.mean()) ** 4).mean()
        se = math.sqrt((m4 - emp ** 2) / len(per))
        assert abs(emp - pred) < 3 * se

    def test_unbiased(self):
        rng = np.random.default_rng(29)
        state = FermionicState.random_pure(2, rng)
        shots = simulate_degree1_shots(state, 150_000, rng)
        eta = 0.5
        for j in range(4):
            est = shots[:, j].mean() / eta
            se = shots[:, j].std(ddof=1) / math.sqrt(len(shots)) / eta
            assert abs(est - state.expectation([j + 1])) < 4 * se


class TestSampleComplexity:
    def test_single_observable_limit(self):
        # delta -> 1 with one observable: 2 ln 2 / (eps eta)^2
        val = sample_complexity(1, 1, 0.1, 1.0, 0.5)
        assert val == math.ceil(2 * math.log(2) / (0.05) ** 2)

    def test_formula_value(self):
        n, k, eps, delta, eta = 3, 1, 0.1, 0.05, 0.25
        expected = math.ceil(2 * math.log(2 * 15 / 0.05) / (eps * eta) ** 2)
        assert sample_complexity(n, k, eps, delta, eta) == expected

    def test_scaling_n_to_k_log_n(self):
        # under eta = c n^(-k/2), L grows like n^k log n
        for k in (1, 2):
            ratios = []
            for n in (8, 16, 32, 64):
                val = sample_complexity(n, k, 0.1, 0.01, 0.5 * n ** (-k / 2.0))
                ratios.append(val / (n ** k * math.log(n)))
            assert max(ratios) / min(ratios) < 3.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sample_complexity(2, 1, 0.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            sample_complexity(2, 1, 0.1, 0.1, 1.5)

    def test_calibration_is_conservative(self):
        # failure frequency over repeated trials stays below delta
        n, k, eps, delta = 2, 1, 0.2, 0.2
        ens = degree2_ensemble(n)
        table = sharpness_table(ens)
        eta_min = min(table.mean_sharpness(row.subset) for row in table.rows)
        shots = sample_complexity(n, k, eps, delta, eta_min)
        rng = np.random.default_rng(101)
        state = FermionicState.random_pure(n, rng)
        targets = subsets_of_size(2 * n, 2)
        failures = 0
        trials = 30
        for _ in range(trials):
            batch = simulate_shots(state, ens, shots, rng)
            recs = estimate_expectations(batch, table, targets, rng=rng)
            if any(
                abs(rec.estimate - state.expectation(rec.target)) >= eps
                for rec in recs
            ):
                failures += 1
        assert failures / trials <= delta


def test_estimation_record_validates():
    with pytest.raises(ValueError):
        EstimationRecord("x", 0.0, 1, -1.0)
