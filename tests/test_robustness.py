"""Tests for section search, tournament spectra and robustness bounds."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorana_jm import robustness
from majorana_jm.algebra import canonical_monomial, subsets_of_size
from majorana_jm.baselines import ho_bound, ho_bound_proven, thm2_upper_bound
from majorana_jm.paper import (
    exhaustive_tournament_max,
    pauli_dense,
    random_tournament,
    to_pauli,
    tournament_bound_check,
    tournament_from_section,
)
from majorana_jm.robustness import (
    BRUTE_FORCE_BUDGET,
    RobustnessReport,
    SignSection,
    TournamentMatrix,
    appendix_tournament_4,
    build_report,
    degree2_norm,
    exact_robustness,
    robustness_bruteforce,
    section_from_tournament,
    skew_hadamard_search,
)


@functools.lru_cache(maxsize=None)
def _kron_terms(n, degree):
    """Kronecker-product oracle of every canonical degree-d observable."""
    return np.stack(
        [
            pauli_dense(to_pauli(canonical_monomial(n, s)))
            for s in subsets_of_size(2 * n, degree)
        ]
    )


def _kron_norm(n, degree, signs):
    vals = np.linalg.eigvalsh(np.tensordot(signs, _kron_terms(n, degree), axes=(0, 0)))
    return max(vals[-1], -vals[0])


def _free_supports(n, degree):
    # at degree <= 2 every support holding generator 1 keeps sign +1
    supports = subsets_of_size(2 * n, degree)
    return supports, [i for i, s in enumerate(supports) if degree > 2 or 1 not in s]


def _code_signs(n, degree, code):
    supports, free = _free_supports(n, degree)
    signs = [1] * len(supports)
    for b, idx in enumerate(free):
        if code >> b & 1:
            signs[idx] = -1
    return tuple(signs)


@functools.lru_cache(maxsize=None)
def _loop_search(n, degree):
    """Plain loop over every section in code order with the first-wins tie rule."""
    best, best_signs = -math.inf, None
    for code in range(2 ** len(_free_supports(n, degree)[1])):
        signs = _code_signs(n, degree, code)
        value = _kron_norm(n, degree, np.array(signs, dtype=float))
        if value > best + 1e-9:
            best, best_signs = value, signs
    return best, best_signs


class TestSections:
    def test_round_trip_string(self):
        s = SignSection(2, 2, (1, -1, 1, 1, -1, 1))
        assert SignSection.from_string(2, 2, str(s)) == s

    def test_tournament_round_trip(self):
        rng = np.random.default_rng(0)
        t = random_tournament(6, rng)
        assert np.array_equal(
            tournament_from_section(section_from_tournament(t)).entries, t.entries
        )

    def test_rejects_symmetric(self):
        with pytest.raises(ValueError):
            TournamentMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestDegree2Spectrum:
    def test_two_player_tournament(self):
        t = TournamentMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        total, lams = degree2_norm(t)
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_appendix_matrix_saturates(self):
        t = appendix_tournament_4()
        total, _ = degree2_norm(t)
        assert total == pytest.approx(2 * math.sqrt(3), abs=1e-12)
        assert abs(tournament_bound_check(t)) < 1e-12
        h = t.entries + np.eye(4)
        assert np.max(np.abs(h @ h.T - 4 * np.eye(4))) < 1e-12

    def test_spectral_path_equals_dense_norm(self):
        # for every section the tournament sum matches the dense eigenvalue
        rng = np.random.default_rng(3)
        for n in (2, 3):
            count = math.comb(2 * n, 2)
            for _ in range(50):
                signs = tuple(int(s) for s in rng.choice((1, -1), size=count))
                section = SignSection(n, 2, signs)
                dense = _kron_norm(n, 2, np.array(signs, dtype=float))
                total, _ = degree2_norm(tournament_from_section(section))
                assert abs(dense - total) < 1e-9

    def test_bound_never_violated_on_random_tournaments(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            size = 2 * int(rng.integers(1, 21))
            margin = tournament_bound_check(random_tournament(size, rng))
            assert margin > -1e-9

    def test_upper_triangular_tournament_positive_margin(self):
        arr = np.triu(np.ones((4, 4)), k=1)
        t = TournamentMatrix(arr - arr.T)
        assert tournament_bound_check(t) > 0.1


class TestBruteForce:
    def test_n2_degree2_exact(self):
        rep = robustness_bruteforce(2, 2)
        assert rep.value == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        assert rep.method == "degree2-spectral"

    @pytest.mark.parametrize("n", [2, 3])
    def test_degree1_closed_form(self, n):
        rep = robustness_bruteforce(n, 1)
        assert rep.value == pytest.approx(1 / math.sqrt(2 * n), abs=1e-9)

    def test_n3_degree2_strictly_below_bound(self):
        rep = robustness_bruteforce(3, 2)
        assert rep.value < 1 / math.sqrt(5) - 1e-6
        assert rep.bounds["construction_lower"] <= rep.value + 1e-9

    def test_reduced_equals_full_enumeration(self):
        # soundness of the sign-fixing quotient at n=2
        n = 2
        for degree in (1, 2):
            rep = robustness_bruteforce(n, degree)
            supports = subsets_of_size(2 * n, degree)
            best = max(
                _kron_norm(n, degree, np.array(signs, dtype=float))
                for signs in itertools.product((1, -1), repeat=len(supports))
            )
            assert rep.value == pytest.approx(best / len(supports), abs=1e-9)

    def test_budget_fallback(self):
        rep = robustness_bruteforce(5, 2, budget=4)
        assert rep.method == "bound-only"
        assert rep.value is None
        assert rep.bounds["thm2_upper"] is not None

    def test_degree3_full_enumeration(self):
        # odd degree has no proven upper bound; value still computed exactly
        rep = robustness_bruteforce(2, 3)
        assert rep.method == "brute-force"
        assert rep.bounds["thm2_upper"] is None
        assert 0 < rep.value <= 1

    @pytest.mark.parametrize("n, degree", [(2, 5), (2, 0), (0, 2), (-1, 1)])
    def test_rejects_degree_out_of_range(self, n, degree):
        with pytest.raises(ValueError, match="degree in 1..2n"):
            robustness_bruteforce(n, degree)

    def test_optimizer_section_reproduces_value(self):
        rep = robustness_bruteforce(2, 2)
        section = SignSection.from_string(2, 2, rep.section)
        total, _ = degree2_norm(tournament_from_section(section))
        assert total / 6 == pytest.approx(rep.value, abs=1e-12)


class TestTieRule:
    @pytest.mark.parametrize("chunk", [1, 7, robustness._CHUNK])
    @pytest.mark.parametrize(
        "n, degree", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2)]
    )
    def test_search_matches_loop_oracle(self, n, degree, chunk, monkeypatch):
        monkeypatch.setattr(robustness, "_CHUNK", chunk)
        best, signs = robustness._search(n, degree, BRUTE_FORCE_BUDGET)
        expected_best, expected_signs = _loop_search(n, degree)
        assert signs == expected_signs
        assert best == pytest.approx(expected_best, abs=1e-12)

    def test_n3_degree4_reports_first_tied_section(self):
        # 1,280 sections lie within 1e-14 of the maximum; code 80 comes first
        rep = robustness_bruteforce(3, 4)
        assert rep.section == str(SignSection(3, 4, _code_signs(3, 4, 80)))
        assert rep.value == pytest.approx(0.43094010767585, abs=1e-12)

    def test_search_stops_at_the_proven_bound(self, monkeypatch):
        # n=4: code 85298 is the first of 2,097,152 sections to reach n sqrt(2n-1)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a)
        )
        rep = robustness_bruteforce(4, 2, budget=2 ** 21)
        assert rep.section == str(SignSection(4, 2, _code_signs(4, 2, 85298)))
        assert rep.value == pytest.approx(thm2_upper_bound(4, 2), abs=1e-12)
        assert len(calls) == 85298 // robustness._CHUNK + 1


class TestExactRobustness:
    """Certificates against the section search and the Kronecker oracle."""

    @pytest.mark.parametrize(
        "n, degree, budget, method",
        [
            (2, 3, BRUTE_FORCE_BUDGET, "parity-dual"),
            (3, 4, BRUTE_FORCE_BUDGET, "parity-dual"),
            (3, 5, BRUTE_FORCE_BUDGET, "parity-dual"),
            (2, 2, BRUTE_FORCE_BUDGET, "skew-hadamard"),
            (4, 2, 2 ** 21, "skew-hadamard"),
        ],
    )
    def test_matches_search_and_oracle(self, n, degree, budget, method):
        rep = exact_robustness(n, degree, budget)
        assert rep.method == method
        assert rep.value == pytest.approx(robustness_bruteforce(n, degree, budget).value, abs=1e-12)
        signs = SignSection.from_string(n, degree, rep.section).signs
        total = _kron_norm(n, degree, np.array(signs, dtype=float))
        assert total == pytest.approx(rep.value * math.comb(2 * n, degree), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        case=st.sampled_from([(2, 3), (3, 4), (3, 5), (4, 6), (4, 7)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dual_map_is_the_parity_product(self, case, seed):
        # any section, not only an optimal one: gamma_1...gamma_2n times the
        # mapped sum is the dual sum up to one factor +-1 or +-i
        n, degree = case
        dual = np.random.default_rng(seed).choice((-1, 1), size=math.comb(2 * n, degree))
        signs = robustness._dual_signs(n, degree, tuple(int(v) for v in dual))
        full = pauli_dense(to_pauli(canonical_monomial(n, range(1, 2 * n + 1))))
        mapped = full @ np.tensordot(np.array(signs, dtype=float), _kron_terms(n, degree), axes=(0, 0))
        target = np.tensordot(dual.astype(float), _kron_terms(n, 2 * n - degree), axes=(0, 0))
        factor = np.vdot(target, mapped) / np.vdot(target, target)
        assert min(abs(factor - c) for c in (1, -1, 1j, -1j)) < 1e-12
        assert np.allclose(mapped, factor * target, atol=1e-12)
        assert _kron_norm(n, degree, np.array(signs, dtype=float)) == pytest.approx(
            _kron_norm(n, 2 * n - degree, dual.astype(float)), abs=1e-12
        )

    def test_dual_of_a_skew_hadamard_degree(self):
        # n=4 degree 6 is too large to search; its dual, degree 2, is certified
        rep = exact_robustness(4, 6)
        assert rep.method == "parity-dual"
        assert rep.value == exact_robustness(4, 2).value
        assert rep.value == pytest.approx(thm2_upper_bound(4, 6), abs=1e-12)
        signs = SignSection.from_string(4, 6, rep.section).signs
        total = _kron_norm(4, 6, np.array(signs, dtype=float))
        assert total == pytest.approx(rep.value * math.comb(8, 6), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 16, 20])
    def test_skew_hadamard_meets_the_bound(self, n):
        rep = exact_robustness(n, 2)
        assert rep.method == "skew-hadamard"
        assert rep.value == pytest.approx(thm2_upper_bound(n, 2), abs=1e-15)

    def test_without_certificate_it_is_the_search(self):
        # no skew-Hadamard tournament of order 6, and degree 2 is not above n
        assert exact_robustness(3, 2) == robustness_bruteforce(3, 2)
        assert exact_robustness(3, 6) == robustness_bruteforce(3, 6)

    @pytest.mark.parametrize("n, degree", [(2, 2), (4, 6), (3, 4)])
    def test_zero_budget_is_bound_only(self, n, degree):
        rep = exact_robustness(n, degree, budget=0)
        assert rep.method == "bound-only"
        assert rep.value is None and rep.section is None

    def test_budget_caps_the_dual_search(self):
        # the dual of n=3 degree 4 searches 1,024 degree-2 sections
        assert exact_robustness(3, 4, budget=1023).method == "bound-only"
        assert exact_robustness(3, 4, budget=1024).method == "parity-dual"

    @pytest.mark.parametrize("n, degree", [(2, 5), (2, 0), (0, 2), (-1, 1)])
    def test_rejects_degree_out_of_range(self, n, degree):
        with pytest.raises(ValueError, match="degree in 1..2n"):
            exact_robustness(n, degree)


class TestSkewHadamard:
    def test_order4_found(self):
        res = skew_hadamard_search(4)
        assert res.status == "found"
        total, _ = degree2_norm(res.tournament)
        assert total == pytest.approx(2 * math.sqrt(3), abs=1e-12)

    def test_order6_none(self):
        res = skew_hadamard_search(6)
        assert res.status == "none"

    def test_order8_by_doubling(self):
        res = skew_hadamard_search(8)
        assert res.status == "found"
        e = res.tournament.entries
        assert np.max(np.abs(e @ e.T - 7 * np.eye(8))) < 1e-12

    @pytest.mark.parametrize("order", [12, 16, 20, 24, 32])
    def test_constructible_orders(self, order):
        res = skew_hadamard_search(order)
        assert res.status == "found"
        e = res.tournament.entries
        assert np.max(np.abs(e @ e.T - (order - 1) * np.eye(order))) < 1e-9

    def test_known_and_open_orders(self):
        assert skew_hadamard_search(36).status == "exists"
        assert skew_hadamard_search(276).status == "open"
        # 280 = 2 * 140 is reachable by doubling the Paley order 140
        assert skew_hadamard_search(280).status == "found"
        assert skew_hadamard_search(292).status == "unknown"

    def test_exhaustive_order6_strict_gap(self):
        best, _ = exhaustive_tournament_max(6)
        assert best < 3 * math.sqrt(5) - 1e-6

    def test_exhaustive_matches_every_tournament(self):
        # the search fixes player 1's row; all 2^15 order-6 tournaments agree
        rows, cols = np.triu_indices(6, k=1)
        codes = np.arange(2 ** len(rows))
        block = np.zeros((len(codes), 6, 6))
        block[:, rows, cols] = 1 - 2 * ((codes[:, None] >> np.arange(len(rows))) & 1)
        block -= np.transpose(block, (0, 2, 1))
        full = np.abs(np.linalg.eigvalsh(1j * block)).sum(axis=1).max() / 2
        best, t = exhaustive_tournament_max(6)
        assert best == pytest.approx(full, abs=1e-12)
        assert degree2_norm(t)[0] == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("size", [3, 5, 8])
    def test_exhaustive_rejects_odd_and_large_sizes(self, size):
        with pytest.raises(ValueError):
            exhaustive_tournament_max(size)


class TestBounds:
    def test_ho_identity_k1(self):
        for n in range(1, 51):
            assert ho_bound(n, 1) == pytest.approx(
                1 / math.sqrt(2 * n - 1), abs=1e-14
            )

    def test_ho_example(self):
        assert ho_bound(10, 2) == pytest.approx(math.sqrt(45 / 4845), abs=1e-14)

    def test_conjecture_flag(self):
        assert ho_bound_proven(5)
        assert not ho_bound_proven(6)
        assert thm2_upper_bound(8, 12) is None
        assert thm2_upper_bound(8, 12 - 2) is not None

    def test_report_order_invariant(self):
        with pytest.raises(ValueError):
            RobustnessReport(
                2, 2, "brute-force", 0.1, None, {"construction_lower": 0.5}
            )

    def test_bound_only_report_fields(self):
        rep = build_report(5, 4, method="bound-only")
        assert rep.bounds["shadow_lower"] == pytest.approx(
            math.comb(5, 2) / math.comb(10, 4)
        )
        assert rep.bounds["ho_value"] is not None
