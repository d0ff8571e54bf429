"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
pass lines, or execute the file directly.
"""

import math
import time

import numpy as np
import pytest

from majorana_jm.algebra import (
    braid_conjugate,
    braid_stabilizer_unitaries,
    braiding_recipe,
    canonical_monomial,
    commutant_dimension,
    subsets_of_size,
)
from majorana_jm.baselines import shadow_jm_bound, shadow_norm
from majorana_jm.gaussian import random_orthogonal
from majorana_jm.matching import (
    degree2_ensemble,
    partition_failure_prob,
    random_partition_batch,
)
from majorana_jm.povm import parent_validate, sharpness_table
from majorana_jm.robustness import (
    appendix_tournament_4,
    degree2_norm,
    exhaustive_tournament_max,
    ho_bound,
    random_tournament,
    robustness_bruteforce,
    tournament_bound_check,
)
from majorana_jm.sampling import (
    FermionicState,
    HamiltonianSpec,
    degree1_variance,
    estimate_expectations,
    simulate_degree1_shots,
    simulate_shots,
)
from majorana_jm.sampling import _filled_signs

PRINTED_O1 = np.array(
    [
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, 0],
        [1, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, -1],
    ]
) / math.sqrt(2.0)

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


def report(criterion, text):
    print(f"[criterion {criterion:2d}] PASS: {text}")


def test_criterion_01_robustness_exact_value():
    start = time.perf_counter()
    rep = robustness_bruteforce(2, 2)
    elapsed = time.perf_counter() - start
    assert rep.value == pytest.approx(1 / math.sqrt(3), abs=1e-9)
    assert elapsed < 1.0
    report(1, f"eta*_2(n=2) = {rep.value:.9f} = 1/sqrt(3) in {elapsed * 1e3:.0f} ms")


def test_criterion_02_degree1_closed_form():
    for n in (2, 3):
        rep = robustness_bruteforce(n, 1)
        assert rep.value == pytest.approx(1 / math.sqrt(2 * n), abs=1e-9)
    report(2, "eta*_1 = 1/sqrt(2n) at n = 2, 3 (norm forced by anticommutation)")


def test_criterion_03_construction_reproduction():
    ens = degree2_ensemble(3)
    etas = [row.eta for row in ens.coverage.rows]
    assert len(etas) == 15
    assert all(abs(e - 0.5) < 1e-12 for e in etas)
    # our O2 equals the printed matrix entry for entry; the printed O1
    # equals ours with the two middle-block rows swapped (the documented
    # in-block labeling convention for P_pi)
    assert np.max(np.abs(ens.matrices[1].entries - PRINTED_O2)) < 1e-14
    ours = ens.matrices[0].entries
    assert np.max(np.abs(ours[[0, 4, 2, 3, 1, 5]] - PRINTED_O1)) < 1e-14
    report(3, "all 15 pair observables at eta=1/2; printed matrices reproduced")


def test_criterion_04_parent_validity():
    rng = np.random.default_rng(404)
    worst = {"completeness_residual": 0.0, "min_eigenvalue": 0.0, "marginal_residual": 0.0}
    budget = [(1, 2), (2, 4), (3, 4)]  # ten rotations across n <= 3
    for n, count in budget:
        for _ in range(count):
            res = parent_validate(random_orthogonal(2 * n, rng).entries, n, rng=rng)
            worst["completeness_residual"] = max(
                worst["completeness_residual"], res["completeness_residual"]
            )
            worst["min_eigenvalue"] = min(worst["min_eigenvalue"], res["min_eigenvalue"])
            worst["marginal_residual"] = max(
                worst["marginal_residual"], res["marginal_residual"]
            )
    assert worst["completeness_residual"] < 1e-10
    assert worst["min_eigenvalue"] > -1e-10
    assert worst["marginal_residual"] < 1e-10
    report(
        4,
        "10 random parents: completeness {completeness_residual:.1e}, "
        "min eig {min_eigenvalue:.1e}, marginal {marginal_residual:.1e}".format(**worst),
    )


def test_criterion_05_gaussian_compilation():
    from majorana_jm.algebra import dense_matrix
    from majorana_jm.gaussian import compile_gaussian_unitary, minor_expansion_check

    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (2, 3, 4):
        for trial in range(34 if n < 4 else 32):
            o = random_orthogonal(2 * n, rng, special=(trial % 2 == 0))
            u = compile_gaussian_unitary(o.entries, n)
            for j in range(1, 2 * n + 1):
                g = dense_matrix(canonical_monomial(n, [j]))
                rhs = sum(
                    o.entries[j - 1, jp - 1] * dense_matrix(canonical_monomial(n, [jp]))
                    for jp in range(1, 2 * n + 1)
                )
                worst = max(worst, float(np.max(np.abs(u.conj().T @ g @ u - rhs))))
    assert worst < 1e-9
    worst_minor = 0.0
    for subset in ([1, 2], [1, 2, 3, 4]):
        for _ in range(3):
            o = random_orthogonal(6, rng)
            worst_minor = max(worst_minor, minor_expansion_check(o, subset, 3))
    assert worst_minor < 1e-9
    report(5, f"rotation law residual {worst:.1e} (100 rotations, det +-1); "
              f"minor expansion {worst_minor:.1e}")


def test_criterion_06_tournament_spectrum():
    total, _ = degree2_norm(appendix_tournament_4())
    assert total == pytest.approx(2 * math.sqrt(3), abs=1e-12)
    rng = np.random.default_rng(606)
    for _ in range(1000):
        size = 2 * int(rng.integers(1, 21))
        assert tournament_bound_check(random_tournament(size, rng)) > -1e-9
    best, _ = exhaustive_tournament_max(6)
    assert best < 3 * math.sqrt(5) - 1e-6
    report(
        6,
        f"4x4 spectral sum 2*sqrt(3); 1000 random tournaments below bound; "
        f"order-6 exhaustive max {best:.6f} < {3 * math.sqrt(5):.6f}",
    )


def test_criterion_07_estimator_statistics():
    n = 3
    rng = np.random.default_rng(707)
    ens = degree2_ensemble(n)
    state = FermionicState.random_pure(n, rng)
    batch = simulate_shots(state, ens, 100_000, rng)
    table = sharpness_table(ens)
    recs = estimate_expectations(batch, table, subsets_of_size(2 * n, 2), rng=rng)
    worst_dev = 0.0
    for rec in recs:
        dev = abs(rec.estimate - state.expectation(rec.target)) / rec.stderr
        worst_dev = max(worst_dev, dev)
    assert worst_dev < 4.0

    # variance against the closed formula in the single-rotation setting
    from majorana_jm.matching import custom_ensemble
    from majorana_jm.sampling import predicted_variance

    o = random_orthogonal(2 * n, rng)
    single = custom_ensemble(n, 1, [o])
    hamiltonian = HamiltonianSpec((((1, 2), 0.8), ((1, 3), -0.5), ((2, 5), 0.4)))
    stab = sharpness_table(single)
    pred = predicted_variance(hamiltonian, stab, state)
    big = simulate_shots(state, single, 1_000_000, rng)
    per_shot = np.zeros(len(big.r))
    for subset, coeff in hamiltonian.terms:
        signs, eta = _filled_signs(big, stab, subset, rng)
        per_shot += coeff * signs / eta
    emp = per_shot.var(ddof=1)
    m4 = ((per_shot - per_shot.mean()) ** 4).mean()
    se = math.sqrt((m4 - emp ** 2) / len(per_shot))
    assert abs(emp - pred) < 3 * se

    # degree-1 special case
    coeffs = np.array([0.3, -0.2, 0.5, 0.1, 0.0, 0.4])
    shots1 = simulate_degree1_shots(state, 200_000, rng)
    per1 = (shots1 * coeffs).sum(axis=1) * math.sqrt(2 * n)
    pred1 = degree1_variance(coeffs, state)
    emp1 = per1.var(ddof=1)
    m4 = ((per1 - per1.mean()) ** 4).mean()
    se1 = math.sqrt((m4 - emp1 ** 2) / len(per1))
    assert abs(emp1 - pred1) < 3 * se1
    report(
        7,
        f"15 targets within {worst_dev:.2f} sigma at 1e5 shots; variance "
        f"{emp:.4f} vs {pred:.4f} ({abs(emp - pred) / se:.2f} se); degree-1 "
        f"{emp1:.4f} vs {pred1:.4f}",
    )


def test_criterion_08_partition_combinatorics():
    rng = np.random.default_rng(808)
    trials = 100_000
    lines = []
    for side, k in [(2, 1), (3, 1), (3, 2)]:
        colors = random_partition_batch(side, trials, rng)
        picked = colors[:, : 2 * k]
        picked.sort(axis=1)
        fails = int((np.diff(picked, axis=1) == 0).any(axis=1).sum())
        p = partition_failure_prob(side, k)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(fails / trials - p) < 3 * sigma
        lines.append(f"(l={side},k={k}): {fails / trials:.4f}~{p:.4f}")

    # N-partition behavior: per-support failure is the N-th power, the
    # union bound caps the empirical rate, and the bound itself decays
    # like l^(4k - N) with the analytic constant
    side, k, n_parts = 2, 1, 5
    trials_n = 40_000
    colors = random_partition_batch(side, trials_n * n_parts, rng).reshape(
        trials_n, n_parts, -1
    )
    picked = colors[:, :, : 2 * k]
    per_part_fail = picked[..., 0] == picked[..., 1]
    all_fail = per_part_fail.all(axis=1)
    p_one = partition_failure_prob(side, k)
    p_n = p_one ** n_parts
    sigma_n = math.sqrt(p_n * (1 - p_n) / trials_n)
    assert abs(all_fail.mean() - p_n) < 3 * sigma_n + 1e-12
    for kk, nn in [(1, 5), (2, 9)]:
        limit = (kk * (2 * kk - 1)) ** nn / math.factorial(2 * kk)
        for s in range(2 * kk + 1, 40):
            bound = math.comb(s * (s + 1), 2 * kk) * partition_failure_prob(s, kk) ** nn
            assert bound <= limit * s ** (4 * kk - nn) * 1.01
    report(8, "; ".join(lines) + f"; N-partition failure {all_fail.mean():.2e}~{p_n:.2e}")


def test_criterion_09_scaling_and_ordering():
    worst = math.inf
    for n in range(3, 13):
        ens = degree2_ensemble(n)
        worst = min(worst, math.sqrt(n) * ens.coverage.min_eta)
    assert worst >= 0.05
    checked = []
    for n in (2, 3):
        rep = robustness_bruteforce(n, 2)
        lower = rep.bounds["construction_lower"]
        upper = rep.bounds["thm2_upper"]
        assert lower is not None and upper is not None
        assert lower <= rep.value + 1e-9
        assert rep.value <= upper + 1e-9
        checked.append(f"n={n}: {lower:.4f} <= {rep.value:.4f} <= {upper:.4f}")
    report(9, f"min sqrt(n)*eta_2 = {worst:.4f} >= 0.05 over n=3..12; " + "; ".join(checked))


def test_criterion_10_baseline_consistency():
    for n in range(1, 51):
        assert ho_bound(n, 1) == pytest.approx(1 / math.sqrt(2 * n - 1), abs=1e-14)
        for k in range(1, min(n, 5) + 1):
            assert shadow_norm(n, k) * ho_bound(n, k) == pytest.approx(1.0, abs=1e-12)
    value = robustness_bruteforce(2, 2).value
    assert shadow_jm_bound(2, 1) == pytest.approx(1 / 3, abs=1e-15)
    assert shadow_jm_bound(2, 1) <= value + 1e-12
    report(10, "ho(n,1) = 1/sqrt(2n-1) for n <= 50; shadow_norm * ho = 1; 1/3 <= 1/sqrt(3)")


def test_criterion_11_symmetry():
    for n in (2, 3):
        gens = braid_stabilizer_unitaries([1, 2], n)
        assert commutant_dimension(gens, parity_sector="even", n_modes=n) == 2
        assert commutant_dimension(gens) == 4
    n = 4
    rng = np.random.default_rng(111)
    for _ in range(50):
        size = int(rng.integers(1, 2 * n))
        sa = sorted(int(v) for v in rng.choice(2 * n, size=size, replace=False) + 1)
        sb = sorted(int(v) for v in rng.choice(2 * n, size=size, replace=False) + 1)
        mono = canonical_monomial(n, sa)
        for braid in braiding_recipe(sa, sb, n):
            mono = braid_conjugate(braid, mono)
        target = canonical_monomial(n, sb)
        assert mono.indices == tuple(sb)
        assert (mono.phase_quarter - target.phase_quarter) % 4 in (0, 2)
    report(11, "commutant 2 (fixed parity) / 4 (free) at n=2,3; 50 braid recipes land on +-target")


if __name__ == "__main__":
    tests = sorted(
        (name, fn) for name, fn in globals().items() if name.startswith("test_criterion")
    )
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            num = name.split("_")[2]
            print(f"[criterion {int(num):2d}] FAIL: {exc}")
    raise SystemExit(1 if failures else 0)
