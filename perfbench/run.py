"""End-to-end and per-layer benchmark of the majorana-jm command line.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1           # every workload
    python3 perfbench/run.py --workload sample --repeat 10     # steadiness mode

Each CLI command runs as users run it: ``python -m majorana_jm.cli`` in a
fresh interpreter with ``PYTHONPATH=src``, one after another from this
single process (a closed loop with one client), all on one CPU.  Wall time
is taken around each child and its peak RSS comes from ``os.wait4``, so no
child's peak leaks into the next.  A run sets up its inputs several times
(``setup_s`` is their median), then repeats whole rounds of the workload's
commands and output checks while another round fits in ``--seconds``
(three rounds at least), and reports the median round.  Times are reported
at the reference CPU speed: divided by the run's median calibration slice.
Every command and every check is one operation; a nonzero exit code or a
failed check counts as failed.

With ``--trace 1`` each command runs under ``traced_cli.py`` instead, and
the run reports per-layer metrics built from its spans.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACED_CLI = BENCH_DIR / "traced_cli.py"
SPAWN = BENCH_DIR / "spawn.py"
CHILD_TIMEOUT_S = 60
SETUP_REPS = 5
# a run's figures are medians over rounds; with three or more, one odd round
# cannot set them (the first sharpness of a run often peaks higher, see README)
MIN_ROUNDS = 3
CAL_LOOP = 300_000
# median time of calibration_slice's loop on the reference machine (see the
# README), over 400 slices on one CPU, pinned as run_workload pins itself
CAL_REF_S = 0.0300
# the package __init__ imports every library module; cli is imported apart
IMPORT_ALL = "import majorana_jm, majorana_jm.cli"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, aggregate, span names).  Aggregates: "calls", "s" (time
# inside the spans), "self_s" (that time minus the time of child spans),
# "extra" (sum of the per-call counts traced_cli records), "distinct"
# (distinct dense keys) and "dense_bytes" (16 * 4^n per distinct key).
PER_LAYER = [
    ("cli.self_s", "s", "self_s", ["cli.main"]),
    ("cli.wall_s", "s", "s", ["cli.main"]),
    ("algebra.dense_matrix.calls", "count", "calls", ["algebra.dense_matrix"]),
    ("algebra.dense_matrix.s", "s", "s", ["algebra.dense_matrix"]),
    ("algebra.dense_matrix.distinct", "count", "distinct", ["algebra.dense_matrix"]),
    ("algebra.dense_bytes", "bytes", "dense_bytes", ["algebra.dense_matrix"]),
    ("gaussian.compile_gaussian_unitary.calls", "count", "calls", ["gaussian.compile_gaussian_unitary"]),
    ("gaussian.compile_gaussian_unitary.s", "s", "s", ["gaussian.compile_gaussian_unitary"]),
    ("gaussian.givens_factors.count", "count", "extra", ["gaussian.givens_factors"]),
    ("matching.scan_minors.calls", "count", "calls", ["matching.scan_minors"]),
    ("matching.scan_minors.s", "s", "s", ["matching.scan_minors"]),
    ("matching.minors_evaluated", "count", "extra", ["matching.scan_minors"]),
    ("matching.candidates_scanned", "count", "extra", ["matching.degree2k_ensemble"]),
    ("matching.degree2k_ensemble.self_s", "s", "self_s", ["matching.degree2k_ensemble"]),
    ("povm.sharpness_table.calls", "count", "calls", ["povm.sharpness_table"]),
    ("povm.sharpness_table.self_s", "s", "self_s", ["povm.sharpness_table"]),
    ("povm.outcome_probabilities.s", "s", "s", ["povm.outcome_probabilities"]),
    ("sampling.simulate_shots.self_s", "s", "self_s", ["sampling.simulate_shots"]),
    ("sampling.shot_groups", "count", "extra", ["sampling.simulate_shots"]),
    ("sampling.estimators.s", "s", "s", ["sampling.estimate_expectations", "sampling.estimate_hamiltonian"]),
    ("sampling.exact_expectations.self_s", "s", "self_s", ["sampling.exact_expectations"]),
    ("sampling.shot_probability_table.calls", "count", "calls", ["sampling.shot_probability_table"]),
    ("sampling.shot_probability_table.self_s", "s", "self_s", ["sampling.shot_probability_table"]),
    ("robustness.robustness_bruteforce.self_s", "s", "self_s", ["robustness.robustness_bruteforce"]),
    ("robustness.sections", "count", "extra", ["robustness.robustness_bruteforce"]),
    ("robustness.build_report.s", "s", "s", ["robustness.build_report"]),
    ("baselines.comparison_rows.s", "s", "s", ["baselines.comparison_rows"]),
    ("io.read_ensemble_archive.self_s", "s", "self_s", ["io.read_ensemble_archive"]),
    ("io.write_ensemble_archive.s", "s", "s", ["io.write_ensemble_archive"]),
    ("io.archive_bytes", "bytes", "extra", ["io.write_ensemble_archive"]),
    ("io.shot_log_csv.s", "s", "s", ["io.shot_log_csv"]),
    ("io.shot_log_bytes", "bytes", "extra", ["io.shot_log_csv"]),
]

# largest gap allowed between a command's root span and the sum of all self times
ADDITIVITY_TOL_S = 1e-6


class CheckFailed(Exception):
    pass


class SetupFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Child:
    name: str
    rc: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    layers: dict | None = None


def calibration_slice() -> float:
    """How slow this CPU runs now: a fixed loop's time over its reference time.

    The host's CPUs slow down and speed up by tens of percent over minutes
    as other tenants load them.  The median slice of a run, taken before
    each of its commands on the one CPU they all use, follows that drift.
    Nothing here calls ``majorana_jm``, so a change to the program cannot
    move it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i % 7
    return (time.perf_counter() - start) / CAL_REF_S


def layer_metrics(spans: list) -> tuple[dict, float]:
    """Per-layer metrics of one traced command, and its additivity gap.

    The gap is the root span's duration minus the sum of every span's self
    time; it is zero up to rounding when spans nest properly.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    inside: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    extra: dict = defaultdict(int)
    dense_keys = set()
    for i, (name, start, end, _, x) in enumerate(spans):
        calls[name] += 1
        inside[name] += end - start
        self_s[name] += end - start - child_time[i]
        if name == "algebra.dense_matrix":
            dense_keys.add(tuple(x))
        elif x is not None:
            extra[name] += x
    aggregates = {
        "calls": calls,
        "s": inside,
        "self_s": self_s,
        "extra": extra,
        "distinct": {"algebra.dense_matrix": len(dense_keys)},
        "dense_bytes": {"algebra.dense_matrix": sum(16 * 4 ** n for n, _, _ in dense_keys)},
    }
    metrics = {
        metric: sum(aggregates[how].get(name, 0) for name in names)
        for metric, _, how, names in PER_LAYER
    }
    gap = inside["cli.main"] - sum(self_s.values())
    return metrics, gap


class Runner:
    """Runs children one at a time and keeps the operation count.

    The children are started by ``spawn.py``, a small helper process, so
    that this process's own memory does not count in their peak RSS.
    """

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", str(SPAWN)], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.attempted = 0
        self.failed = 0
        self.commands: list[Child] = []
        self.slowness: list[float] = []
        self.calibration_s = 0.0

    def close(self) -> None:
        """Stop the helper and wait for it; it ends its current child first."""
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def python(self, name: str, args: list[str]) -> Child:
        self.calibrate()
        out_path = self.work / f"{name}.stdout"
        err_path = self.work / f"{name}.stderr"
        request = {
            "args": [sys.executable, *args], "cwd": str(self.work),
            "stdout": str(out_path), "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper ended early")
        reply = json.loads(reply)
        if reply["rc"] != 0:
            sys.stderr.write(f"{name}: exit {reply['rc']}: {err_path.read_text()[-2000:]}\n")
        return Child(
            name,
            reply["rc"],
            reply["wall_s"],
            reply["maxrss_kb"] * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
            out_path.read_text(),
        )

    def cli(self, *args: str) -> Child:
        """One timed CLI command: one operation, failed on a nonzero exit."""
        name = args[0]
        if self.trace:
            spans_path = self.work / f"{name}.spans.json"
            spans_path.unlink(missing_ok=True)
            child = self.python(name, [str(TRACED_CLI), str(spans_path), *args])
            try:
                child.layers, gap = layer_metrics(json.loads(spans_path.read_text())["spans"])
            except (OSError, ValueError, KeyError):
                child.layers, gap = dict.fromkeys((m for m, *_ in PER_LAYER), 0), math.inf
            if abs(gap) > ADDITIVITY_TOL_S:
                sys.stderr.write(f"{name}: self times miss the traced wall by {gap:.3g} s\n")
                child.rc = child.rc or -1
        else:
            child = self.python(name, ["-m", "majorana_jm.cli", *args])
        self._count(child.rc == 0)
        self.commands.append(child)
        return child

    def check(self, name: str, fn) -> None:
        """One output check: one operation, failed when ``fn`` raises."""
        try:
            fn()
            ok = True
        except Exception as exc:  # any fault in a check is a failed operation
            sys.stderr.write(f"check {name} failed: {exc!r}\n")
            ok = False
        self._count(ok)

    def setup_cli(self, *args: str) -> None:
        """A set-up command; set-up must succeed for the run to mean anything."""
        child = self.python("setup", ["-m", "majorana_jm.cli", *args])
        if child.rc != 0:
            raise SetupFailed(f"set-up command {args[0]} exited {child.rc}")

    def calibrate(self) -> None:
        """One calibration slice before each child, outside its timing."""
        start = time.perf_counter()
        self.slowness.append(calibration_slice())
        self.calibration_s += time.perf_counter() - start

    def _count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def random_state(n_modes: int, rng) -> np.ndarray:
    vec = rng.standard_normal(2 ** n_modes) + 1j * rng.standard_normal(2 ** n_modes)
    return vec / np.linalg.norm(vec)


def write_state(path: Path, n_modes: int, vec: np.ndarray) -> np.ndarray:
    """Pure state in the README's state JSON format."""
    payload = {"n_modes": n_modes, "amplitudes": [[v.real, v.imag] for v in vec]}
    path.write_text(json.dumps(payload))
    return vec


def targets_text(supports) -> str:
    return ",".join("gamma[" + ",".join(map(str, s)) + "]" for s in supports)


def estimates_by_target(report: dict) -> dict:
    return {tuple(rec["target"]): rec for rec in report["estimates"]}


class Certify:
    """construct -> validate -> sharpness of one quartic ensemble."""

    n_modes, half = 10, 2
    sampled_supports = 300

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self, run: Runner) -> None:
        pass  # the seed is the only input

    def prepare(self) -> None:
        pass

    def round(self, run: Runner) -> None:
        n, k = str(self.n_modes), str(self.half)
        run.cli("construct", "--n", n, "--k", k, "--seed", str(self.seed), "--out", "cert.zip")
        validate = run.cli("validate", "--ensemble", "cert.zip")
        run.cli("sharpness", "--ensemble", "cert.zip", "--out", "sharpness.csv")
        run.check("archive_orthogonal", self.check_orthogonal)
        run.check("validate_report", lambda: self.check_validate(validate.stdout))
        run.check("sharpness_minors", self.check_minors)
        run.check("sharpness_effective", self.check_effective)

    def check_orthogonal(self):
        meta, mats = reference.read_archive(self.work / "cert.zip")
        require(len(mats) == meta["n_matrices"] > 0, "no rotations in the archive")
        worst = max(reference.orthogonality_error(m) for m in mats)
        require(worst <= 1e-12, f"rotation off orthogonal by {worst:.3g}")

    def check_validate(self, stdout: str):
        meta, _ = reference.read_archive(self.work / "cert.zip")
        report = json.loads(stdout)
        require(report["uncovered"] == [], f"uncovered supports {report['uncovered'][:3]}")
        # the construction certifies min_eta against this bound within 1e-12
        bound = meta["block_min_entry"] ** (2 * self.half)
        require(report["min_eta"] >= bound - 1e-12, f"min_eta {report['min_eta']} below {bound}")

    def sharpness_rows(self):
        with open(self.work / "sharpness.csv", newline="") as fh:
            records = list(csv.reader(fh))
        require(records[0] == ["S", "r", "R", "eta_RS", "eta_S", "eta_effective"], "sharpness header")
        rows = []
        for s_text, r_text, rows_text, eta_rs, eta_s, eta_eff in records[1:]:
            support = tuple(json.loads(s_text))
            row_set = tuple(json.loads(rows_text))
            rows.append((support, int(r_text), row_set, float(eta_rs), float(eta_s), float(eta_eff)))
        expected = math.comb(2 * self.n_modes, 2 * self.half)
        require(len(rows) == expected, f"{len(rows)} sharpness rows, expected {expected}")
        return rows

    def check_minors(self):
        _, mats = reference.read_archive(self.work / "cert.zip")
        rows = self.sharpness_rows()
        pick = np.random.default_rng([self.seed, 1]).choice(len(rows), self.sampled_supports, replace=False)
        sample = [rows[i] for i in sorted(pick)]
        best = reference.best_minors(mats, self.n_modes, [row[0] for row in sample])
        # the scan keeps the first (r, R) within 1e-12 of the best minor; the
        # extra 1e-14 allows for rounding between two determinant routines
        for (support, r, row_set, eta_rs, eta_s, _), eta_ref in zip(sample, best):
            require(abs(eta_s - eta_ref) <= 1e-12 + 1e-14, f"eta_S of {support}: {eta_s} vs {eta_ref}")
            at_r = abs(reference.minor(mats[r - 1], row_set, support))
            require(abs(eta_rs - at_r) <= 1e-12, f"eta_RS of {support}: {eta_rs} vs {at_r}")

    def check_effective(self):
        meta, _ = reference.read_archive(self.work / "cert.zip")
        n_mat = meta["n_matrices"]
        for support, _, _, _, eta_s, eta_eff in self.sharpness_rows():
            require(abs(eta_eff - eta_s / n_mat) <= 1e-15, f"eta_effective of {support}")


class Sample:
    """simulate, then a sampled estimate with a shot log, on a seeded pure state."""

    n_modes, half, shots = 7, 2, 6000
    # per degree, targets (and separately Hamiltonian terms) drawn from the
    # covered pair products and from the other covered supports
    per_kind = 4
    # weight of one basis state in the state: pair products then have
    # expectations near +-0.85, large against the standard error, so a wrong
    # sign or scale in the estimators fails the 5-standard-error check
    basis_weight = 0.85
    stderr_limit = 5.0

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.first_log: bytes | None = None

    def setup(self, run: Runner) -> None:
        rng = np.random.default_rng([self.seed, 2])
        vec = math.sqrt(1 - self.basis_weight) * random_state(self.n_modes, rng)
        vec[rng.integers(2 ** self.n_modes)] += math.sqrt(self.basis_weight)
        self.vector = write_state(self.work / "state.json", self.n_modes, vec / np.linalg.norm(vec))
        run.setup_cli(
            "construct", "--n", str(self.n_modes), "--k", str(self.half),
            "--seed", str(self.seed), "--out", "ens.zip",
        )

    def prepare(self) -> None:
        """Draw covered targets and Hamiltonian terms; compute their references."""
        _, mats = reference.read_archive(self.work / "ens.zip")
        rng = np.random.default_rng([self.seed, 3])
        self.targets, terms = [], []
        for degree in (2, 4):
            supports = list(itertools.combinations(range(1, 2 * self.n_modes + 1), degree))
            eta = reference.best_minors(mats, self.n_modes, supports)
            pairs = set(reference.diagonal_row_sets(self.n_modes, degree // 2))
            covered = [s for s, e in zip(supports, eta) if e > 1e-6]
            for pool in ([s for s in covered if s in pairs], [s for s in covered if s not in pairs]):
                for chosen in (self.targets, terms):
                    pick = rng.choice(len(pool), min(self.per_kind, len(pool)), replace=False)
                    chosen += [pool[i] for i in pick]
        self.coeffs = rng.standard_normal(len(terms))
        ham = {"terms": [[list(s), float(c)] for s, c in zip(terms, self.coeffs)]}
        (self.work / "ham.json").write_text(json.dumps(ham))
        exp = reference.expectations(self.vector, self.n_modes, self.targets + terms)
        self.reference = dict(zip(self.targets, exp))
        self.energy = float(np.dot(self.coeffs, exp[len(self.targets) :]))

    def round(self, run: Runner) -> None:
        common = ["--state", "state.json", "--ensemble", "ens.zip", "--shots", str(self.shots), "--seed", str(self.seed)]
        run.cli("simulate", *common, "--out", "shots.csv")
        run.cli(
            "estimate", *common, "--targets", targets_text(self.targets),
            "--hamiltonian", "ham.json", "--shot-log", "estimate_shots.csv", "--out", "estimate.json",
        )
        run.check("shot_log_rows", self.check_shot_log)
        run.check("targets_within_5se", self.check_targets)
        run.check("hamiltonian_within_5se", self.check_hamiltonian)
        run.check("shot_log_reproducible", self.check_reproducible)

    def check_shot_log(self):
        lines = (self.work / "shots.csv").read_text().splitlines()
        require(lines[0] == "shot_id,r,x_bits,q_bits", "shot log header")
        require(len(lines) - 1 == self.shots, f"{len(lines) - 1} shots logged, {self.shots} asked")
        n_mat = 4 * self.half + 1
        for i, line in enumerate(lines[1:]):
            shot_id, r, x_bits, q_bits = line.split(",")
            require(int(shot_id) == i and 1 <= int(r) <= n_mat, f"shot row {line!r}")
            require(int(x_bits, 16) < 4 ** self.n_modes and int(q_bits, 16) < 2 ** self.n_modes, f"shot row {line!r}")

    def report(self) -> dict:
        return json.loads((self.work / "estimate.json").read_text())

    def check_targets(self):
        records = estimates_by_target(self.report())
        require(set(records) == set(self.targets), "estimated targets differ from the request")
        for s in self.targets:
            rec = records[s]
            require(rec["shots"] == self.shots, f"{s}: {rec['shots']} shots")
            dev = abs(rec["estimate"] - self.reference[s])
            require(dev <= self.stderr_limit * rec["stderr"], f"{s}: off by {dev:.3g}, stderr {rec['stderr']:.3g}")

    def check_hamiltonian(self):
        rec = self.report()["hamiltonian"]
        dev = abs(rec["estimate"] - self.energy)
        require(dev <= self.stderr_limit * rec["stderr"], f"energy off by {dev:.3g}, stderr {rec['stderr']:.3g}")

    def check_reproducible(self):
        log = (self.work / "shots.csv").read_bytes()
        require(log == (self.work / "estimate_shots.csv").read_bytes(), "simulate and estimate logs differ")
        if self.first_log is None:
            self.first_log = log
        require(hashlib.sha256(log).digest() == hashlib.sha256(self.first_log).digest(), "log differs from round 1")


class Analytic:
    """Exact-mode estimate, section search and the comparison table."""

    n_modes = 5
    compare_range = (2, 12)
    robustness_modes = 3

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self, run: Runner) -> None:
        vec = random_state(self.n_modes, np.random.default_rng([self.seed, 4]))
        self.vector = write_state(self.work / "state.json", self.n_modes, vec)
        run.setup_cli("construct", "--n", str(self.n_modes), "--k", "1", "--out", "ens.zip")

    def prepare(self) -> None:
        self.targets = list(itertools.combinations(range(1, 2 * self.n_modes + 1), 2))
        self.coeffs = np.random.default_rng([self.seed, 5]).standard_normal(len(self.targets))
        ham = {"terms": [[list(s), float(c)] for s, c in zip(self.targets, self.coeffs)]}
        (self.work / "ham.json").write_text(json.dumps(ham))
        exp = reference.expectations(self.vector, self.n_modes, self.targets)
        self.reference = dict(zip(self.targets, exp))
        self.energy = float(np.dot(self.coeffs, exp))

    def round(self, run: Runner) -> None:
        run.cli(
            "estimate", "--state", "state.json", "--ensemble", "ens.zip", "--shots", "0",
            "--targets", targets_text(self.targets), "--hamiltonian", "ham.json", "--out", "exact.json",
        )
        m = str(self.robustness_modes)
        run.cli("robustness", "--n", m, "--k", "2", "--out", "robustness2.json")
        run.cli("robustness", "--n", m, "--k", "4", "--out", "robustness4.json")
        lo, hi = self.compare_range
        run.cli("compare", "--n-range", f"{lo}:{hi}", "--k", "1", "--out", "compare.csv")
        run.check("exact_vs_reference", self.check_exact)
        run.check("parity_duality", self.check_duality)
        run.check("robustness_bounds", self.check_bounds)
        run.check("compare_closed_forms", self.check_compare)

    def check_exact(self):
        report = json.loads((self.work / "exact.json").read_text())
        require(report["mode"] == "exact", "estimate did not run the exact mode")
        records = estimates_by_target(report)
        require(set(records) == set(self.targets), "estimated targets differ from the request")
        for s in self.targets:
            dev = abs(records[s]["estimate"] - self.reference[s])
            require(dev <= 1e-10, f"{s}: exact estimate off by {dev:.3g}")
        scale = float(np.abs(self.coeffs).sum())
        dev = abs(report["hamiltonian"]["estimate"] - self.energy)
        require(dev <= 1e-10 * scale, f"exact energy off by {dev:.3g}")

    def robustness(self, degree: int) -> dict:
        return json.loads((self.work / f"robustness{degree}.json").read_text())

    def check_duality(self):
        v2, v4 = self.robustness(2)["value"], self.robustness(4)["value"]
        require(abs(v2 - v4) <= 1e-9, f"degree 2 gives {v2}, degree 4 gives {v4}")

    def check_bounds(self):
        n = self.robustness_modes
        closed = {2: reference.degree2_upper(n), 4: reference.ho_bound(n, 2)}
        for degree, upper in closed.items():
            rep = self.robustness(degree)
            require(rep["status"] == "ok" and rep["value"] is not None, f"degree {degree}: no exact value")
            bounds = rep["bounds"]
            require(abs(bounds["thm2_upper"] - upper) <= 1e-12, f"degree {degree}: thm2_upper {bounds['thm2_upper']}")
            require(rep["value"] <= upper + 1e-9, f"degree {degree}: value above thm2_upper")
            lower = bounds["construction_lower"]
            require(lower is None or lower <= rep["value"] + 1e-9, f"degree {degree}: value below construction_lower")

    def check_compare(self):
        with open(self.work / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        lo, hi = self.compare_range
        require([int(r["n"]) for r in rows] == list(range(lo, hi + 1)), "compare rows cover the wrong n")
        for r in rows:
            n = int(r["n"])
            require(math.isclose(float(r["ho_bound"]), reference.ho_bound(n, 1), rel_tol=1e-12), f"ho_bound at n={n}")
            require(math.isclose(float(r["thm2_upper"]), reference.degree2_upper(n), rel_tol=1e-12), f"thm2_upper at n={n}")


class Exact:
    """The exact paths, with no sampling: a certify round, then an analytic one.

    The two share one workload so that a run is long enough to steady the
    figures; their files have distinct names in the shared directory.
    """

    def __init__(self, seed: int, work: Path):
        self.parts = [Certify(seed, work), Analytic(seed, work)]

    def setup(self, run: Runner) -> None:
        for part in self.parts:
            part.setup(run)

    def prepare(self) -> None:
        for part in self.parts:
            part.prepare()

    def round(self, run: Runner) -> None:
        for part in self.parts:
            part.round(run)


WORKLOADS = {"exact": Exact, "sample": Sample}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run whole rounds while another fits in ``seconds``, and summarise one workload.

    A run makes at least ``MIN_ROUNDS`` rounds, even when they overrun ``seconds``.
    """
    # one CPU for this process, the spawn helper and every command, so that
    # the calibration slices time the CPU the commands run on; the host's
    # CPUs drift apart from each other
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    run = Runner(work, trace)
    try:
        workload = WORKLOADS[name](seed, work)
        setups = []
        for _ in range(SETUP_REPS):
            start, calibrated = time.perf_counter(), run.calibration_s
            child = run.python("import", ["-c", IMPORT_ALL])
            if child.rc != 0:
                raise SetupFailed("majorana_jm does not import")
            workload.setup(run)
            setups.append(time.perf_counter() - start - (run.calibration_s - calibrated))
        workload.prepare()
        rounds: list[list[Child]] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            run.commands = []
            workload.round(run)
            rounds.append(run.commands)
            now = time.perf_counter()
            if len(rounds) >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
                break  # another round would overrun the run
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    return summarise(name, setups, rounds, run, trace)


def summarise(name, setups, rounds, run: Runner, trace: bool) -> dict:
    lines = [f"workload {name}: {len(rounds)} rounds, {run.attempted} operations, {run.failed} failed"]
    walls = [sum(c.wall_s for c in cmds) for cmds in rounds]
    # per-command times: commands of one name are summed within a round
    by_command = defaultdict(lambda: [0.0] * len(rounds))
    for i, cmds in enumerate(rounds):
        for c in cmds:
            by_command[c.name][i] += c.wall_s
    for command, per_round in by_command.items():
        q1, med, q3 = quartiles(per_round)
        lines.append(f"  {command}_s  {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, {len(rounds)} rounds)")
    if name == "sample":
        lines.append(f"  shots_per_s  {Sample.shots / statistics.median(by_command['simulate']):.1f} 1/s")
    if trace:
        lines.append(f"  traced process wall per round  median {statistics.median(walls):.4f} s")
        metrics = {}
        for metric, unit, _, _ in PER_LAYER:
            per_round = [sum(c.layers[metric] for c in cmds) for cmds in rounds]
            metrics[metric] = {"value": statistics.median(per_round), "unit": unit}
    else:
        # times at the reference CPU speed: divided by the run's median slowness
        slowness = statistics.median(run.slowness)
        lines.append(f"  wall_s  {statistics.median(walls):.4f} s  (as measured)")
        lines.append(f"  slowness  {slowness:.4f}  (median of {len(run.slowness)} calibration slices)")
        per_round = {
            "setup_s": [s / slowness for s in setups],
            "wall_ref_s": [w / slowness for w in walls],
            "peak_rss_mb": [max(c.peak_rss_mb for c in cmds) for cmds in rounds],
        }
        metrics = {m: {"value": statistics.median(per_round[m]), "unit": u} for m, u in END_TO_END}
    for metric, v in metrics.items():
        lines.append(f"  {metric}  {v['value']:.6g} {v['unit']}")
    return {
        "text": "\n".join(lines),
        "result": {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        },
    }


def steadiness(args) -> dict:
    """Run the benchmark ``--repeat`` times with seeds seed, seed+1, ...

    Prints each metric's median, quartiles and spread, the inter-quartile
    distance as a share of the median.
    """
    values = defaultdict(list)
    shares = []
    for i in range(args.repeat):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed + i), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"run {i} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        line = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
        print(f"seed {args.seed + i}: attempted {result['attempted']} failed {result['failed']} {line}", flush=True)
        for metric, v in result["metrics"].items():
            values[metric].append(v["value"])
    summary = {}
    for metric, vals in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("nan")
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{metric:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3%}")
    print(f"failed shares: {sorted(set(shares))}")
    return {"runs": args.repeat, "failed_shares": sorted(set(shares)), "metrics": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness mode: this many runs")
    args = parser.parse_args(argv)
    if not (SRC / "majorana_jm" / "cli.py").is_file():
        sys.stderr.write(f"no majorana_jm sources under {SRC}\n")
        return 2
    try:
        if args.repeat:
            print(json.dumps(steadiness(args)))
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(out["text"], flush=True)
            results[name] = out["result"]
    except Exception:  # no result line when set-up or the harness itself breaks
        traceback.print_exc()
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
