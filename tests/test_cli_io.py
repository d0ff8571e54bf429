"""End-to-end tests for file formats and the command-line front-end."""

import json
import math
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import majorana_jm
from majorana_jm import io
from majorana_jm.cli import main
from majorana_jm.matching import degree2_ensemble
from majorana_jm.povm import sharpness_table
from majorana_jm.sampling import FermionicState, HamiltonianSpec, simulate_shots


def state_to_json(state):
    """The state JSON that ``io.state_from_json`` reads, written for test inputs."""
    if state.is_pure:
        payload = {"amplitudes": [[v.real, v.imag] for v in state.vector]}
    else:
        payload = {"density": [[[v.real, v.imag] for v in row] for row in state.density_matrix]}
    return json.dumps({"n_modes": state.n_modes, **payload}, sort_keys=True) + "\n"


class TestMatrixText:
    def test_round_trip_full_precision(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((5, 5))
        assert np.array_equal(io.matrix_from_text(io.matrix_to_text(arr)), arr)

    def test_file_round_trip(self, tmp_path):
        arr = degree2_ensemble(3).matrices[0].entries
        path = tmp_path / "m.txt"
        path.write_text(io.matrix_to_text(arr))
        assert np.array_equal(io.matrix_from_text(path.read_text()), arr)


class TestEnsembleArchive:
    def test_round_trip(self, tmp_path):
        ens = degree2_ensemble(3)
        path = tmp_path / "ens.zip"
        io.write_ensemble_archive(path, ens)
        loaded = io.read_ensemble_archive(path)
        assert loaded.n_modes == 3 and loaded.degree_k == 1
        for a, b in zip(ens.matrices, loaded.matrices):
            assert np.array_equal(a.entries, b.entries)
        assert loaded.coverage.min_eta == pytest.approx(0.5, abs=1e-12)

    def test_metadata_cycles(self, tmp_path):
        ens = degree2_ensemble(3)
        path = tmp_path / "ens.zip"
        io.write_ensemble_archive(path, ens)
        with zipfile.ZipFile(path) as zf:
            meta = json.loads(zf.read("metadata.json"))
            names = set(zf.namelist())
        assert {"metadata.json", "matrix_1.txt", "matrix_2.txt", "coverage.csv"} <= names
        assert meta["pi_cycles"] == [[1], [2, 3], [4, 5], [6]]
        assert meta["sigma_cycles"][1] == [[1, 3], [2, 5], [4, 6]]

    def test_rejects_unknown_format(self, tmp_path, capsys):
        path = tmp_path / "ens.zip"
        io.write_ensemble_archive(path, degree2_ensemble(2))
        with zipfile.ZipFile(path) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        meta = json.loads(members["metadata.json"])
        meta["format"] = "majorana-jm ensemble v2"
        members["metadata.json"] = json.dumps(meta).encode()
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        with pytest.raises(ValueError, match="format"):
            io.read_ensemble_archive(path)
        assert main(["validate", "--ensemble", str(path)]) == 4
        assert "format" in capsys.readouterr().err

    def test_coverage_csv_streams_into_the_entry_and_the_side_file(self, tmp_path, monkeypatch):
        # blocks of 4 rows: the 15 supports go out in four writes
        monkeypatch.setattr(io, "_JOIN_ROWS", 4)
        ens = degree2_ensemble(3)
        path = tmp_path / "ens.zip"
        assert io.write_ensemble_archive(path, ens) is None
        with zipfile.ZipFile(path) as zf:
            stored = zf.read("coverage.csv")
        text = "".join(io._coverage_csv_parts(ens.coverage))
        assert len(text.splitlines()) == 16
        assert stored == (tmp_path / "ens.zip.coverage.csv").read_bytes() == text.encode()

    def test_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        import time

        ens = degree2_ensemble(3)
        blobs = []
        for second in (1_000_000_000, 1_000_003_601):
            monkeypatch.setattr(time, "time", lambda: float(second))
            path = tmp_path / f"ens_{second}.zip"
            io.write_ensemble_archive(path, ens)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestStateJson:
    def test_pure_round_trip(self):
        state = FermionicState.random_pure(2, np.random.default_rng(1))
        back = io.state_from_json(state_to_json(state))
        assert np.allclose(back.vector, state.vector)

    def test_density_round_trip(self):
        state = FermionicState.maximally_mixed(2)
        back = io.state_from_json(state_to_json(state))
        assert np.allclose(back.density_matrix, state.density_matrix)

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            io.state_from_json({"n_modes": 1})


class TestShotLog:
    def test_format(self):
        state = FermionicState.basis_state(2)
        batch = simulate_shots(state, degree2_ensemble(2), 4, np.random.default_rng(0))
        text = io.shot_log_csv(batch)
        lines = text.strip().splitlines()
        assert lines[0] == "shot_id,r,x_bits,q_bits"
        assert len(lines) == 5
        shot_id, r, xb, qb = lines[1].split(",")
        assert int(r) in (1, 2)
        assert int(xb, 16) < 2 ** 4
        assert int(qb, 16) < 2 ** 2

    def test_rows_match_records(self):
        rng = np.random.default_rng(3)
        batch = simulate_shots(FermionicState.random_pure(3, rng), degree2_ensemble(3), 300, rng)
        text = io.shot_log_csv(batch)
        lines = text.splitlines()
        assert text.endswith("\n") and len(lines) == 301
        for i, line in enumerate(lines[1:]):
            q_bits = sum(1 << j for j, v in enumerate(batch.q[i].tolist()) if v < 0)
            assert line == f"{i},{batch.r[i]},{int(batch.conj_mask[i]):x},{q_bits:x}"


class TestCoverageAndSharpnessCsv:
    def test_exact_text_with_uncovered_supports(self):
        from majorana_jm.ensemble import custom_ensemble

        def rot(t):
            return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

        # the minors of (1,3) and (2,4) are round-off, so both are uncovered
        ens = custom_ensemble(2, 1, [np.kron(rot(0.3), rot(0.7))])
        assert "".join(io._coverage_csv_parts(ens.coverage)) == (
            "S,r,R,eta\n"
            '"[1,2]",1,"[1,2]",0.91266780745483911\n'
            '"[1,3]",,,0\n'
            '"[1,4]",1,"[1,2]",0.28232123669751763\n'
            '"[2,3]",1,"[1,2]",0.28232123669751763\n'
            '"[2,4]",,,0\n'
            '"[3,4]",1,"[3,4]",0.91266780745483911\n'
        )
        assert io.sharpness_csv(sharpness_table(ens)) == (
            "S,r,R,eta_RS,eta_S,eta_effective\n"
            '"[1,2]",1,"[1,2]",0.91266780745483911,0.91266780745483911,0.91266780745483911\n'
            '"[1,3]",0,[],0,0,0\n'
            '"[1,4]",1,"[1,2]",0.28232123669751763,0.28232123669751763,0.28232123669751763\n'
            '"[2,3]",1,"[1,2]",0.28232123669751763,0.28232123669751763,0.28232123669751763\n'
            '"[2,4]",0,[],0,0,0\n'
            '"[3,4]",1,"[3,4]",0.91266780745483911,0.91266780745483911,0.91266780745483911\n'
        )


    def test_comparison_exact_text_with_blank_fields(self):
        rows = [
            {"n": 2, "k": 2, "eta_construction": None, "eta_ternary": 0.1,
             "shadow_jm_bound": 1 / 3, "ho_bound": None, "thm2_upper": 0.5},
            {"n": 3, "k": 1, "eta_construction": 0.5, "eta_ternary": 1.0,
             "shadow_jm_bound": 0.2, "ho_bound": 0.25, "thm2_upper": 2 ** -0.5},
        ]
        assert io.comparison_csv(rows) == (
            "n,k,eta_construction,eta_ternary,shadow_jm_bound,ho_bound,thm2_upper\n"
            "2,2,,0.10000000000000001,0.33333333333333331,,0.5\n"
            "3,1,0.5,1,0.20000000000000001,0.25,0.70710678118654757\n"
        )


class TestRngSubstreams:
    def test_labels_are_independent(self):
        a = io.rng_for(7, "simulate").integers(0, 1 << 30, 4)
        b = io.rng_for(7, "coins").integers(0, 1 << 30, 4)
        c = io.rng_for(7, "simulate").integers(0, 1 << 30, 4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_construct_worked_example(self, tmp_path, capsys):
        out = tmp_path / "ens.zip"
        code = self.run("construct", "--n", "3", "--k", "1", "--out", str(out))
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n_matrices"] == 2
        assert info["min_eta"] == pytest.approx(0.5, abs=1e-12)
        with zipfile.ZipFile(out) as zf:
            assert (tmp_path / "ens.zip.coverage.csv").read_bytes() == zf.read("coverage.csv")
        loaded = io.read_ensemble_archive(out)
        printed_o2 = np.array(
            [
                [0, 0, 1, 0, 1, 0],
                [1, 0, 0, 0, 0, 1],
                [0, 0, 1, 0, -1, 0],
                [0, 1, 0, 1, 0, 0],
                [1, 0, 0, 0, 0, -1],
                [0, 1, 0, -1, 0, 0],
            ]
        ) / math.sqrt(2.0)
        assert np.max(np.abs(loaded.matrices[1].entries - printed_o2)) < 1e-15

    def test_construct_degree4(self, tmp_path, capsys):
        out = tmp_path / "ens4.zip"
        code = self.run(
            "construct", "--n", "6", "--k", "2", "--N", "9", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["min_eta"] > 0

    def test_construct_invalid_degree_exit4(self, tmp_path, capsys):
        code = self.run(
            "construct", "--n", "3", "--k", "2", "--seed", "1",
            "--out", str(tmp_path / "x.zip"),
        )
        assert code == 4
        assert "invalid" in capsys.readouterr().err

    def test_construct_needs_seed(self, tmp_path):
        code = self.run("construct", "--n", "6", "--k", "2", "--out", str(tmp_path / "x.zip"))
        assert code == 4

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_construct_rejects_no_rotations(self, tmp_path, capsys, count):
        code = self.run(
            "construct", "--n", "7", "--k", "2", "--N", count, "--seed", "1",
            "--out", str(tmp_path / "x.zip"),
        )
        assert code == 4
        assert capsys.readouterr().err == f"invalid input: need N >= 1 rotations, got N = {count}\n"
        assert not (tmp_path / "x.zip").exists()

    def test_construct_refuses_rotation_count_at_k1(self, tmp_path, capsys):
        code = self.run("construct", "--n", "4", "--k", "1", "--N", "3", "--out", str(tmp_path / "x.zip"))
        assert code == 4
        assert "--N applies to k >= 2 only" in capsys.readouterr().err
        assert not (tmp_path / "x.zip").exists()

    def test_validate_and_sharpness(self, tmp_path, capsys):
        out = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(out)) == 0
        capsys.readouterr()
        assert self.run("validate", "--ensemble", str(out)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["uncovered"] == []
        assert report["dense_checks"][0]["completeness_residual"] < 1e-10
        table_path = tmp_path / "sharp.csv"
        assert self.run("sharpness", "--ensemble", str(out), "--out", str(table_path)) == 0
        lines = table_path.read_text().strip().splitlines()
        assert lines[0] == "S,r,R,eta_RS,eta_S,eta_effective"
        assert len(lines) == 1 + math.comb(4, 2)
        for line in lines[1:]:
            _, eta_s, eta_effective = line.rsplit(",", 2)
            assert float(eta_effective) == float(eta_s) / 2  # eta_S / N, N = 2 rotations

    def test_robustness_values(self, tmp_path, capsys):
        assert self.run("robustness", "--n", "2", "--k", "2") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["value"] == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        assert rep["status"] == "ok"
        assert self.run("robustness", "--n", "2", "--k", "1") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["value"] == pytest.approx(0.5, abs=1e-9)

    def test_robustness_budget_fallback(self, capsys):
        assert self.run("robustness", "--n", "5", "--k", "2", "--budget", "8") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "budget-exceeded"
        assert rep["value"] is None
        assert rep["bounds"]["thm2_upper"] is not None

    def test_robustness_budget_zero_is_bound_only(self, capsys):
        assert self.run("robustness", "--n", "2", "--k", "1", "--budget", "0") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "budget-exceeded"
        assert rep["method"] == "bound-only"
        assert rep["value"] is None and rep["section"] is None

    def test_robustness_refuses_negative_budget(self, capsys):
        assert self.run("robustness", "--n", "2", "--k", "1", "--budget", "-1") == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid input: --budget must be at least 0, got -1" in captured.err

    @pytest.mark.parametrize(
        "n, k, method, value",
        [("4", "6", "parity-dual", 1 / math.sqrt(7)), ("6", "2", "skew-hadamard", 1 / math.sqrt(11))],
    )
    def test_robustness_exact_from_certificates(self, n, k, method, value, capsys):
        assert self.run("robustness", "--n", n, "--k", k) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "ok" and rep["method"] == method
        assert rep["value"] == pytest.approx(value, abs=1e-12)
        assert self.run("robustness", "--n", n, "--k", k, "--budget", "0") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "budget-exceeded" and rep["method"] == "bound-only"
        assert rep["value"] is None

    @pytest.mark.parametrize(
        "n, k", [("2", "5"), ("2", "0"), ("0", "2"), ("-1", "1")]
    )
    def test_robustness_out_of_range_exit4(self, n, k, capsys):
        assert self.run("robustness", "--n", n, "--k", k) == 4
        assert "degree in 1..2n" in capsys.readouterr().err

    def test_simulate_and_estimate(self, tmp_path, capsys):
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(ens)) == 0
        state = FermionicState.random_pure(2, np.random.default_rng(5))
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(state))
        log = tmp_path / "shots.csv"
        code = self.run(
            "simulate", "--state", str(state_path), "--ensemble", str(ens),
            "--shots", "200", "--seed", "3", "--out", str(log),
        )
        assert code == 0
        assert len(log.read_text().strip().splitlines()) == 201
        capsys.readouterr()
        rep_path = tmp_path / "est.json"
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens),
            "--targets", "gamma[1,3],gamma[2,4]", "--shots", "20000",
            "--seed", "3", "--out", str(rep_path),
        )
        assert code == 0
        report = json.loads(rep_path.read_text())
        for entry in report["estimates"]:
            exact = state.expectation(tuple(entry["target"]))
            assert abs(entry["estimate"] - exact) < 5 * entry["stderr"]

    def test_estimate_exact_mode(self, tmp_path):
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(ens)) == 0
        state = FermionicState.random_pure(2, np.random.default_rng(8))
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(state))
        ham_path = tmp_path / "ham.json"
        ham_path.write_text(json.dumps({"terms": [[[1, 2], 0.5], [[1, 3], -0.25]]}))
        rep_path = tmp_path / "est.json"
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens),
            "--targets", "gamma[1,3]", "--hamiltonian", str(ham_path),
            "--shots", "0", "--out", str(rep_path),
        )
        assert code == 0
        report = json.loads(rep_path.read_text())
        assert report["mode"] == "exact"
        (entry,) = report["estimates"]
        assert entry["estimate"] == pytest.approx(state.expectation((1, 3)), abs=1e-10)
        ham = HamiltonianSpec((((1, 2), 0.5), ((1, 3), -0.25)))
        assert report["hamiltonian"]["estimate"] == pytest.approx(
            ham.expectation(state), abs=1e-10
        )

    def test_estimate_exact_mode_closed_form_at_n8(self, tmp_path, monkeypatch):
        # the exact mode needs no outcome table, so it runs past the n <= 5 oracle gate
        from majorana_jm import sampling

        def forbidden(*args, **kwargs):
            raise AssertionError("the exact mode built an outcome table")

        monkeypatch.setattr(sampling, "shot_probability_table", forbidden)
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "8", "--k", "1", "--out", str(ens)) == 0
        state = FermionicState.random_pure(8, np.random.default_rng(12))
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(state))
        targets = [(1, 2), (3, 16), (5, 9), (1, 4, 7, 16)]
        rep_path = tmp_path / "est.json"
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens),
            "--targets", ",".join(f"gamma[{','.join(map(str, s))}]" for s in targets),
            "--shots", "0", "--out", str(rep_path),
        )
        assert code == 0
        report = json.loads(rep_path.read_text())
        assert report["mode"] == "exact" and report["n"] == 8
        assert [tuple(e["target"]) for e in report["estimates"]] == targets
        for entry in report["estimates"]:
            assert abs(entry["estimate"] - state.expectation(tuple(entry["target"]))) <= 1e-12

    def test_estimate_uncovered_exit5(self, tmp_path, capsys):
        # identity-like single rotation covers only the standard pairs
        from majorana_jm.ensemble import custom_ensemble

        ens_path = tmp_path / "ident.zip"
        io.write_ensemble_archive(ens_path, custom_ensemble(2, 1, [np.eye(4)]))
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.basis_state(2)))
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens_path),
            "--targets", "gamma[1,3]", "--shots", "0",
        )
        assert code == 5
        assert "uncovered" in capsys.readouterr().err

    def test_estimate_round_off_minors_exit5(self, tmp_path, capsys):
        # the minors of support (1,3) under this rotation are round-off (~1e-17)
        from majorana_jm.ensemble import custom_ensemble

        def rot(t):
            return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

        ens_path = tmp_path / "kron.zip"
        io.write_ensemble_archive(ens_path, custom_ensemble(2, 1, [np.kron(rot(0.3), rot(0.7))]))
        state_path = tmp_path / "state.json"
        state = FermionicState.random_pure(2, np.random.default_rng(1))
        state_path.write_text(state_to_json(state))
        for shots in ("0", "1000"):
            code = self.run(
                "estimate", "--state", str(state_path), "--ensemble", str(ens_path),
                "--targets", "gamma[1,3]", "--shots", shots, "--seed", "3",
            )
            assert code == 5
            assert "uncovered" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [("--shots", "1"), ("--shots", "-3"), ("--shots", "0", "--shot-log", "shots.csv")]
    )
    def test_estimate_rejects_unusable_shot_counts(self, tmp_path, monkeypatch, capsys, flags):
        # one shot has no standard error, and the exact mode draws no shots to log
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(ens)) == 0
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.basis_state(2)))
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens),
            "--targets", "gamma[1,2]", "--seed", "3", *flags,
        )
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid input: --shot" in captured.err
        assert not (tmp_path / "shots.csv").exists()

    @pytest.mark.parametrize(
        "ham, message",
        [
            ({"terms": [[[1, 99], 0.5]]}, "index 99 outside 1..4"),
            ({"terms": [[[1, 1], 0.5]]}, "repeated index 1"),
            ({"term": [[[1, 2], 0.5]]}, "--hamiltonian needs a JSON object with a 'terms' list"),
            ({"terms": [[[], 1.0]]}, "target gamma[] needs an even degree of at least 2"),
            # json reads NaN and Infinity, which would make the report invalid JSON
            ({"terms": [[[1, 2], 0.5], [[1, 3], float("nan")]]}, "term gamma[1,3] has a non-finite coefficient nan"),
            ({"terms": [[[2, 4], float("-inf")]]}, "term gamma[2,4] has a non-finite coefficient -inf"),
        ],
    )
    def test_estimate_rejects_bad_hamiltonian_terms(self, tmp_path, capsys, ham, message):
        # Hamiltonian terms are checked like --targets, with a message naming the problem
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(ens)) == 0
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.basis_state(2)))
        ham_path = tmp_path / "ham.json"
        ham_path.write_text(json.dumps(ham))
        capsys.readouterr()
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens),
            "--hamiltonian", str(ham_path), "--shots", "0",
        )
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == "" and f"invalid input: {message}" in captured.err

    @pytest.mark.parametrize("target", ["gamma[]", "gamma[1]"])
    def test_estimate_rejects_bad_target_degree(self, tmp_path, capsys, target):
        # only degrees 2, 4, ... have a sharpness; the message names the target, not a KeyError
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(ens)) == 0
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.basis_state(2)))
        capsys.readouterr()
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens),
            "--targets", target, "--shots", "0",
        )
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: target {target} needs an even degree of at least 2\n"

    @pytest.mark.parametrize(
        "targets, message",
        [
            ("gamma[1,2]gamma[3,4]", "cannot parse targets 'gamma[1,2]gamma[3,4]'"),
            (",,gamma[1,2]", "cannot parse targets ',,gamma[1,2]'"),
            ("gamma[1,2],", "cannot parse targets 'gamma[1,2],'"),
            ("gamma[1,2],,gamma[3,4]", "cannot parse targets 'gamma[1,2],,gamma[3,4]'"),
            ("gamma[1,2],gamma[1,2]", "duplicate target gamma[1,2]"),
            ("gamma[1,2], gamma[3,4] ,gamma[1,2]", "duplicate target gamma[1,2]"),
        ],
    )
    def test_estimate_rejects_bad_target_lists(self, tmp_path, capsys, targets, message):
        # exactly one comma between tokens, and each target once, like the Hamiltonian's terms
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(ens)) == 0
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.basis_state(2)))
        capsys.readouterr()
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens),
            "--targets", targets, "--shots", "0",
        )
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {message}\n"

    def test_estimate_targets_allow_space_around_commas(self, tmp_path, capsys):
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(ens)) == 0
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.basis_state(2)))
        capsys.readouterr()
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens),
            "--targets", " gamma[1,2] , gamma[3,4]", "--shots", "0",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [e["target"] for e in report["estimates"]] == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("shots", ["0", "200"])
    def test_estimate_empty_hamiltonian_is_float_zero(self, tmp_path, capsys, shots):
        # a Hamiltonian with no terms reads 0.0 in both modes, a float like every estimate
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(ens)) == 0
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.basis_state(2)))
        ham_path = tmp_path / "ham.json"
        ham_path.write_text(json.dumps({"terms": []}))
        capsys.readouterr()
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens),
            "--hamiltonian", str(ham_path), "--shots", shots, "--seed", "3",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"estimate": 0.0,' in out
        assert json.loads(out)["hamiltonian"]["estimate"] == 0.0

    def test_sharpness_out_equals_library_csv(self, tmp_path, capsys):
        # the command streams its CSV block by block (1,128 supports: two blocks);
        # the bytes match the library's one string
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "24", "--k", "1", "--out", str(ens)) == 0
        out = tmp_path / "sharpness.csv"
        assert self.run("sharpness", "--ensemble", str(ens), "--out", str(out)) == 0
        expected = io.sharpness_csv(sharpness_table(io.read_ensemble_archive(ens)))
        assert out.read_bytes() == expected.encode()
        capsys.readouterr()
        assert self.run("sharpness", "--ensemble", str(ens)) == 0
        assert capsys.readouterr().out == expected

    def test_estimate_dimension_mismatch_exit4(self, tmp_path):
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(ens)) == 0
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.basis_state(3)))
        code = self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(ens),
            "--targets", "gamma[1,2]", "--shots", "0",
        )
        assert code == 4

    @pytest.mark.parametrize("shots", ["0", "-2"])
    def test_simulate_rejects_shots_below_one(self, tmp_path, capsys, shots):
        # checked up front: the missing input files are never opened
        log = tmp_path / "shots.csv"
        code = self.run(
            "simulate", "--state", str(tmp_path / "state.json"), "--ensemble", str(tmp_path / "ens.zip"),
            "--shots", shots, "--seed", "3", "--out", str(log),
        )
        assert code == 4
        assert "invalid input: --shots" in capsys.readouterr().err
        assert not log.exists()

    @pytest.mark.parametrize("argv", [("compare", "--n-range", "-2:2"), ("bogus",)])
    def test_usage_errors_exit4(self, capsys, argv):
        # argparse's own usage-error code is 2, the I/O code here
        assert self.run(*argv) == 4
        assert "invalid input: majorana-jm" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("--help")
        assert exc.value.code == 0
        assert "usage: majorana-jm" in capsys.readouterr().out

    def test_missing_file_exit2(self, tmp_path):
        code = self.run("validate", "--ensemble", str(tmp_path / "missing.zip"))
        assert code == 2

    @pytest.mark.parametrize("n_range", ["5:3", "0:3"])
    def test_compare_rejects_empty_or_nonpositive_range(self, n_range, capsys):
        assert self.run("compare", "--n-range", n_range, "--k", "1") == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "--n-range" in captured.err

    def test_compare_csv(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert self.run("compare", "--n-range", "2:6", "--k", "1", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("n,k,eta_construction")
        assert len(lines) == 6
        rows = [ln.split(",") for ln in lines[1:]]
        for col in (4, 5, 6):  # shadow_jm_bound, ho_bound, thm2_upper decrease in n
            values = [float(r[col]) for r in rows]
            assert all(a > b for a, b in zip(values, values[1:]))
        ternary = [float(r[3]) for r in rows]
        assert all(a >= b for a, b in zip(ternary, ternary[1:]))

    def test_tables_past_physical_memory_are_refused(self, tmp_path, capsys, monkeypatch):
        # construct exits 4 naming the footprint, compare leaves the cell blank and
        # robustness reports no construction bound; no support is ever enumerated
        from majorana_jm import algebra, matching

        monkeypatch.setattr(matching, "_physical_memory", lambda: 10**5)
        monkeypatch.setattr(matching, "_index_sets", lambda *a: pytest.fail("supports enumerated"))
        assert self.run("construct", "--n", "28", "--k", "4", "--seed", "1", "--out", str(tmp_path / "e.zip")) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "invalid input: the degree-8 minor table of 17 rotation(s) on 28 modes needs about 344 GB, "
            "more than the 0.0001 GB of physical memory\n"
        )
        for k in ("1", "4"):
            assert self.run("compare", "--n-range", "28:28", "--k", k) == 0
            assert capsys.readouterr().out.splitlines()[1].startswith(f"28,{k},,")
        monkeypatch.setattr(algebra, "subsets_of_size", lambda *a: pytest.fail("supports listed"))
        assert self.run("robustness", "--n", "28", "--k", "8", "--budget", "0") == 0
        assert json.loads(capsys.readouterr().out)["bounds"]["construction_lower"] is None

    def test_byte_identical_reruns(self, tmp_path):
        ens = tmp_path / "ens.zip"
        assert self.run("construct", "--n", "2", "--k", "1", "--out", str(ens)) == 0
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.basis_state(2)))
        outs = []
        for tag in ("a", "b"):
            rep = tmp_path / f"est_{tag}.json"
            code = self.run(
                "estimate", "--state", str(state_path), "--ensemble", str(ens),
                "--targets", "gamma[1,2],gamma[1,3]", "--shots", "5000",
                "--seed", "17", "--out", str(rep),
            )
            assert code == 0
            outs.append(rep.read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_defaults(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"budget": 8}))
        assert self.run(
            "robustness", "--n", "5", "--k", "2", "--config", str(conf)
        ) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "budget-exceeded"

    def test_config_replaces_defaults_and_flags_still_win(self, tmp_path, capsys):
        conf = tmp_path / "construct.json"
        conf.write_text(json.dumps({"k": 2}))
        archive = str(tmp_path / "ens.zip")
        for n, flags, k in (("6", (), 2), ("2", ("--k", "1"), 1)):
            assert self.run(
                "construct", "--n", n, "--seed", "1", *flags, "--config", str(conf), "--out", archive
            ) == 0
            assert json.loads(capsys.readouterr().out)["k"] == k
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.basis_state(2)))
        rep = tmp_path / "est.json"
        conf = tmp_path / "estimate.json"
        conf.write_text(json.dumps({"shots": 500}))
        for flags, mode in (((), "sampled"), (("--shots", "0"), "exact")):
            assert self.run(
                "estimate", "--state", str(state_path), "--ensemble", archive,
                "--targets", "gamma[1,2]", "--seed", "3", *flags,
                "--config", str(conf), "--out", str(rep),
            ) == 0
            report = json.loads(rep.read_text())
            assert report["mode"] == mode and report["shots"] == (500 if flags == () else 0)

    @pytest.mark.parametrize(
        "argv, conf, named",
        [
            (["compare", "--n-range", "2:3"], {"bogus": 3}, "'bogus'"),
            (["robustness", "--n", "2", "--k", "2"], {"budget": 8, "shot": 10}, "'shot'"),
            # a flag of another command is no flag of this one
            (["construct", "--n", "2", "--out", "e.zip"], {"k": 1, "shots": 500}, "'shots'"),
            # argparse checks required flags before the file is read
            (["compare"], {"n-range": "2:3"}, "--n-range"),
        ],
    )
    def test_config_refuses_keys_that_name_no_flag(self, tmp_path, capsys, monkeypatch, argv, conf, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "conf.json").write_text(json.dumps(conf))
        assert self.run(*argv, "--config", "conf.json") == 4
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err
        assert not (tmp_path / "e.zip").exists()

    def test_each_command_scans_minors_once(self, tmp_path, monkeypatch, capsys):
        from majorana_jm import matching, povm

        calls = []
        kernels = []
        scan_minors, group_bounds = matching.scan_minors, matching._group_bounds

        def counted(arrays, n_modes, half_degree):
            calls.append(len(arrays))
            return scan_minors(arrays, n_modes, half_degree)

        monkeypatch.setattr(matching, "scan_minors", counted)
        monkeypatch.setattr(povm, "scan_minors", counted)
        monkeypatch.setattr(matching, "_group_bounds", lambda *a: kernels.append(1) or group_bounds(*a))
        archive = str(tmp_path / "ens.zip")
        assert self.run("construct", "--n", "6", "--k", "2", "--seed", "7", "--out", archive) == 0
        info = json.loads(capsys.readouterr().out)
        # the base rotation once, for every candidate's covers, then the final
        # rotations, all of them the base with permuted columns: one kernel each
        assert calls == [1, info["n_matrices"]]
        assert len(kernels) == 2
        for command in ("validate", "sharpness"):
            calls.clear()
            kernels.clear()
            assert self.run(command, "--ensemble", archive, "--out", str(tmp_path / command)) == 0
            assert calls == [info["n_matrices"]]
            assert len(kernels) == 1

    def test_exact_estimate_scans_each_extra_degree_once(self, tmp_path, monkeypatch):
        from majorana_jm import matching, povm

        halves = []
        kernels = []
        scan_minors, group_bounds = matching.scan_minors, matching._group_bounds

        def counted(arrays, n_modes, half_degree):
            halves.append(half_degree)
            return scan_minors(arrays, n_modes, half_degree)

        monkeypatch.setattr(matching, "scan_minors", counted)
        monkeypatch.setattr(povm, "scan_minors", counted)
        monkeypatch.setattr(matching, "_group_bounds", lambda *a: kernels.append(1) or group_bounds(*a))
        archive = str(tmp_path / "ens.zip")
        assert self.run("construct", "--n", "3", "--k", "1", "--out", archive) == 0
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.random_pure(3, np.random.default_rng(4))))
        ham_path = tmp_path / "ham.json"
        ham_path.write_text(json.dumps({"terms": [[[1, 3], 0.5], [[1, 2, 3, 5], -0.25]]}))
        halves.clear()
        kernels.clear()
        assert self.run(
            "estimate", "--state", str(state_path), "--ensemble", archive,
            "--targets", "gamma[1,2]", "--hamiltonian", str(ham_path),
            "--shots", "0", "--out", str(tmp_path / "exact.json"),
        ) == 0
        # the archive's degree-2 table is scanned when estimate builds its
        # sharpness table, degree 4 once, lazily; O2 is O1 with permuted
        # columns, so each degree runs one kernel
        assert halves == [1, 2]
        assert len(kernels) == 2

    @pytest.mark.parametrize("shots", ["0", "200"])
    def test_one_rotation_estimate_scans_each_degree_once(self, tmp_path, monkeypatch, shots):
        # predicted_variance reads the estimate's own table instead of scanning the rotation again
        from majorana_jm import matching, povm
        from majorana_jm.gaussian import random_orthogonal
        from majorana_jm.ensemble import custom_ensemble

        halves = []
        scan_minors = matching.scan_minors

        def counted(arrays, n_modes, half_degree):
            halves.append(half_degree)
            return scan_minors(arrays, n_modes, half_degree)

        rng = np.random.default_rng(6)
        archive = tmp_path / "one.zip"
        io.write_ensemble_archive(archive, custom_ensemble(3, 1, [random_orthogonal(6, rng)]))
        state_path = tmp_path / "state.json"
        state_path.write_text(state_to_json(FermionicState.random_pure(3, rng)))
        ham_path = tmp_path / "ham.json"
        ham_path.write_text(json.dumps({"terms": [[[1, 3], 0.5], [[1, 2, 3, 5], -0.25]]}))
        monkeypatch.setattr(matching, "scan_minors", counted)
        monkeypatch.setattr(povm, "scan_minors", counted)
        out = tmp_path / "est.json"
        assert self.run(
            "estimate", "--state", str(state_path), "--ensemble", str(archive),
            "--hamiltonian", str(ham_path), "--shots", shots, "--seed", "3", "--out", str(out),
        ) == 0
        assert "predicted_variance" in json.loads(out.read_text())["hamiltonian"]
        assert halves == [1, 2]

    def test_simulate_never_scans_minors(self, tmp_path, monkeypatch):
        from majorana_jm import matching, povm

        calls = []
        scan_minors = matching.scan_minors

        def counted(arrays, n_modes, half_degree):
            calls.append(half_degree)
            return scan_minors(arrays, n_modes, half_degree)

        monkeypatch.setattr(matching, "scan_minors", counted)
        monkeypatch.setattr(povm, "scan_minors", counted)
        archive = str(tmp_path / "ens.zip")
        assert self.run("construct", "--n", "6", "--k", "2", "--seed", "3", "--out", archive) == 0
        state_path = tmp_path / "state.json"
        state = FermionicState.random_pure(6, np.random.default_rng(5))
        state_path.write_text(state_to_json(state))
        calls.clear()
        out = tmp_path / "shots.csv"
        assert self.run(
            "simulate", "--state", str(state_path), "--ensemble", archive,
            "--shots", "300", "--seed", "2", "--out", str(out),
        ) == 0
        # simulate reads no coverage, so the archive's minors are never scanned
        assert calls == []
        assert len(out.read_text().splitlines()) == 301


# Runs one CLI command in a fresh interpreter and prints the majorana_jm
# modules loaded before it (the package and cli) and after it, its exit code,
# and the module that the package attribute majorana_jm.sampling loads.
_IMPORT_PROBE = """
import json, sys
import majorana_jm, majorana_jm.cli
bare = sorted(m for m in sys.modules if m.startswith("majorana_jm.") or m == "numpy")
code = majorana_jm.cli.main(json.loads(sys.argv[1]))
after = sorted(m[len("majorana_jm."):] for m in sys.modules if m.startswith("majorana_jm."))
records = "dataclasses" in sys.modules
attribute = majorana_jm.sampling.simulate_shots.__module__
print(json.dumps({"bare": bare, "code": code, "after": after, "dataclasses": records, "attribute": attribute}))
"""


def _modules_loaded(argv, cwd, code=0):
    src = str(Path(majorana_jm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(out.stdout.splitlines()[-1])
    assert probe["bare"] == ["majorana_jm.cli"]  # the package imports no submodule up front
    assert probe["code"] == code, out.stderr
    assert not probe["dataclasses"]  # every record is a named tuple
    assert probe["attribute"] == "majorana_jm.sampling"
    return probe["after"]


def test_commands_load_only_the_modules_they_run(tmp_path):
    """Each command loads the shared modules and those its own path runs, never the paper module.

    Every command runs in its own interpreter, so each set is that command's alone.
    """
    assert main(["construct", "--n", "4", "--k", "1", "--out", str(tmp_path / "ens.zip")]) == 0
    assert main(["construct", "--n", "3", "--k", "1", "--out", str(tmp_path / "ens3.zip")]) == 0
    (tmp_path / "state.json").write_text(state_to_json(FermionicState.basis_state(4)))
    (tmp_path / "ham.json").write_text(json.dumps({"terms": [[[1, 3], 0.5], [[1, 2, 3, 5], -0.25]]}))
    estimate = ["estimate", "--state", "state.json", "--ensemble", "ens.zip", "--targets", "gamma[1,2]",
                "--hamiltonian", "ham.json"]
    expected = [
        # no compile in construct or validate (n > 3): no algebra, no povm
        (["construct", "--n", "4", "--k", "1", "--out", "e.zip"], ["matching", "turan"]),
        (["validate", "--ensemble", "ens.zip"], ["matching"]),
        (["validate", "--ensemble", "ens3.zip"], ["algebra", "effects", "matching"]),
        # sharpness reads minors only: povm without the dense effects
        (["sharpness", "--ensemble", "ens.zip", "--out", "sharpness.csv"], ["matching", "povm"]),
        # simulate reads no coverage: neither the minor scan nor the sharpness tables
        (["simulate", "--state", "state.json", "--ensemble", "ens.zip", "--shots", "5", "--seed", "1",
          "--out", "shots.csv"], ["algebra", "sampling"]),
        # the degree-4 term scans at 2k = 4, which loads the block kernel
        ([*estimate, "--shots", "50", "--seed", "1", "--out", "sampled.json"],
         ["_blockminors", "algebra", "matching", "povm", "sampling"]),
        ([*estimate, "--out", "exact.json"], ["_blockminors", "algebra", "matching", "povm", "sampling"]),
        # degree 2 on 3 modes searches the sections; on 4 a skew-Hadamard tournament certifies
        (["robustness", "--n", "3", "--k", "2"], ["algebra", "baselines", "matching", "robustness", "turan"]),
        (["robustness", "--n", "4", "--k", "2"], ["baselines", "matching", "robustness", "turan"]),
        # 2k = 4 > l + 1 = 3 at n = 3: no construction, so no scan
        (["robustness", "--n", "3", "--k", "4"], ["algebra", "baselines", "robustness", "turan"]),
        (["compare", "--n-range", "2:3", "--k", "1"], ["baselines", "matching", "turan"]),
        (["construct", "--n", "6", "--k", "2", "--seed", "1", "--out", "e2.zip"],
         ["_blockminors", "matching", "turan"]),
    ]
    for argv, modules in expected:
        loaded = _modules_loaded(argv, tmp_path)
        assert loaded == sorted(["cli", "ensemble", "gaussian", "io", *modules]), argv
        assert "paper" not in loaded
        if argv[0] == "simulate":
            assert "matching" not in loaded and "povm" not in loaded
    # a refused command classifies its error without loading sampling
    loaded = _modules_loaded(["construct", "--n", "0", "--out", "e0.zip"], tmp_path, code=4)
    assert loaded == ["cli", "ensemble", "gaussian", "io", "matching"]


class TestMixedDegreeHamiltonian:
    def test_table_serves_multiple_degrees(self):
        ens = degree2_ensemble(3)
        table = sharpness_table(ens)
        # degree-4 assignments come from the same rotations, built lazily
        eta4 = table.mean_sharpness((1, 2, 3, 4))
        assert eta4 >= 0.0
        row = table.row_for((1, 3))
        assert row.eta == pytest.approx(0.5, abs=1e-12)


# Starts the CLI from a small interpreter and prints that child's exit code
# and peak RSS (KiB) from os.wait4.  Linux charges a child with the peak of
# the process it was started from, so the CLI is not started from pytest.
_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "majorana_jm.cli", *sys.argv[1:]])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _cli_peak_rss_mb(args, cwd):
    src = str(Path(majorana_jm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *args],
        cwd=cwd, env=env, check=True, capture_output=True, text=True,
    ).stdout.split()
    code, peak_kib = int(out[-2]), int(out[-1])
    assert code == 0, f"{args[0]} exited with {code}"
    return peak_kib / 1024.0


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_simulate_peak_memory(tmp_path):
    """n=8 simulate holds one compiled unitary at a time, not thousands of dense monomials."""
    state = FermionicState.random_pure(8, np.random.default_rng(11))
    (tmp_path / "state.json").write_text(state_to_json(state))
    _cli_peak_rss_mb(
        ["construct", "--n", "8", "--k", "2", "--seed", "1", "--out", "ens.zip"], tmp_path
    )
    peak = _cli_peak_rss_mb(
        ["simulate", "--state", "state.json", "--ensemble", "ens.zip",
         "--shots", "2000", "--seed", "1", "--out", "shots.csv"],
        tmp_path,
    )
    assert peak < 500.0, f"simulate peaked at {peak:.0f} MB"


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_construct_peak_memory(tmp_path):
    """n=12, k=2 construct keeps each rotation's reductions, not all N*66*10626 minors."""
    peak = _cli_peak_rss_mb(
        ["construct", "--n", "12", "--k", "2", "--seed", "1", "--out", "ens.zip"], tmp_path
    )
    assert peak < 80.0, f"construct peaked at {peak:.0f} MB"
