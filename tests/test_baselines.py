"""Tests for the comparator formulas."""

import math

import pytest

from majorana_jm.baselines import (
    MappingModel,
    comparison_rows,
    ho_bound,
    mapped_sharpness,
    qubit_parent_sharpness,
    shadow_jm_bound,
)
from majorana_jm.paper import jw_max_weight


class TestQubitParent:
    def test_weights(self):
        assert qubit_parent_sharpness(0) == 1.0
        assert qubit_parent_sharpness(1) == pytest.approx(1 / math.sqrt(3))
        assert qubit_parent_sharpness(2) == pytest.approx(1 / 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            qubit_parent_sharpness(-1)


class TestMappedSharpness:
    def test_jw_generator_weights(self):
        model = MappingModel("jordan-wigner", 4)
        assert model.generator_weight(1) == 1
        assert model.generator_weight(2) == 1
        assert model.generator_weight(7) == 4
        assert model.generator_weight(8) == 4

    def test_ternary_weight_is_log_ceiling(self):
        assert MappingModel("ternary-tree", 13).generator_weight(1) == 3
        assert MappingModel("ternary-tree", 4).generator_weight(1) == 2

    def test_ternary_example(self):
        assert mapped_sharpness(MappingModel("ternary-tree", 13), 2) == pytest.approx(
            1 / 27
        )

    def test_jw_degree1_exponential(self):
        for n in (2, 3, 5):
            assert mapped_sharpness(MappingModel("jordan-wigner", n), 1) == pytest.approx(
                3.0 ** (-n / 2.0)
            )

    def test_degree0(self):
        assert mapped_sharpness(MappingModel("ternary-tree", 3), 0) == 1.0

    def test_jw_max_weight_degree2(self):
        # worst degree-2 image touches every qubit
        assert jw_max_weight(3, 2) == 3

    def test_tree_overtakes_jw(self):
        # the tree model pays the weight ceiling per generator, so the exact
        # Jordan-Wigner weight wins at small n; the crossover sits at
        # n >= 2 for degree 1 and n >= 6 for degree 2, strict soon after
        for n in range(2, 12):
            tree = mapped_sharpness(MappingModel("ternary-tree", n), 1)
            jw = mapped_sharpness(MappingModel("jordan-wigner", n), 1)
            assert tree >= jw - 1e-15
            if n >= 3:
                assert tree > jw
        for n in range(6, 12):
            tree = mapped_sharpness(MappingModel("ternary-tree", n), 2)
            jw = mapped_sharpness(MappingModel("jordan-wigner", n), 2)
            assert tree >= jw - 1e-15
            if n >= 7:
                assert tree > jw

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ValueError):
            MappingModel("parity", 2)


class TestShadowFormulas:
    def test_k1_closed_form(self):
        for n in range(1, 30):
            assert shadow_jm_bound(n, 1) == pytest.approx(1 / (2 * n - 1), abs=1e-14)

    def test_examples(self):
        assert shadow_jm_bound(2, 1) == pytest.approx(1 / 3)
        assert shadow_jm_bound(4, 2) == pytest.approx(6 / 70)
        assert shadow_jm_bound(3, 1) == pytest.approx(1 / 5)

    def test_norm_bound_reciprocity(self):
        # the shadow variance norm is 1/sqrt(shadow_jm_bound), the reciprocal of ho_bound
        for n in range(1, 51):
            for k in range(1, min(n, 6) + 1):
                assert ho_bound(n, k) ** 2 == pytest.approx(shadow_jm_bound(n, k), rel=1e-12)

    def test_shadow_bound_below_ho(self):
        for n in range(1, 20):
            for k in range(1, min(n, 5) + 1):
                assert shadow_jm_bound(n, k) <= ho_bound(n, k) + 1e-15

    def test_range_validation(self):
        with pytest.raises(ValueError):
            shadow_jm_bound(3, 4)


class TestRepetitionScaling:
    def test_tree_parent_needs_quadratically_more(self):
        # repetitions scale as eta^-2: (2n+1)^(2k) for the tree route vs
        # about n^k for the explicit construction route
        import numpy as np

        ns = [4, 8, 16, 32, 64]
        k = 1
        tree_cost = [mapped_sharpness(MappingModel("ternary-tree", n), 2 * k) ** -2 for n in ns]
        slope_tree = np.polyfit(np.log(ns), np.log(tree_cost), 1)[0]
        assert 2 * k * 0.8 < slope_tree < 2 * k * 1.2
        opt_cost = [ho_bound(n, k) ** -2 for n in ns]
        slope_opt = np.polyfit(np.log(ns), np.log(opt_cost), 1)[0]
        assert k * 0.8 < slope_opt < k * 1.2


class TestComparisonRows:
    def test_k1_columns(self):
        rows = comparison_rows(range(2, 8), 1)
        for row in rows:
            assert row["thm2_upper"] == pytest.approx(
                1 / math.sqrt(2 * row["n"] - 1)
            )
            assert row["shadow_jm_bound"] < row["ho_bound"] + 1e-15
            assert row["eta_construction"] is not None

    def test_k2_rows_blank_when_infeasible(self):
        rows = comparison_rows(range(2, 8), 2)
        by_n = {row["n"]: row for row in rows}
        assert by_n[2]["eta_construction"] is None  # needs 2k <= l+1
        assert by_n[6]["eta_construction"] is not None
        for row in rows:
            strict = row["n"] > row["k"]
            assert row["shadow_jm_bound"] <= row["ho_bound"] + 1e-15
            if strict:
                assert row["shadow_jm_bound"] < row["ho_bound"]
