"""Batch command-line front-end.

Subcommands: construct, validate, sharpness, robustness, simulate,
estimate, compare.  All randomness flows from --seed through labeled
substreams, so identical invocations produce byte-identical outputs.

Exit codes: 0 success, 2 I/O failure, 3 coverage failure, 4 invalid
input, 5 uncovered estimation target.
"""

from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_IO = 2
EXIT_COVERAGE = 3
EXIT_INVALID = 4
EXIT_UNCOVERED = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit with 2, the I/O code here: a usage error is invalid input
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _common(parser):
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--config", default=None, help="JSON file with defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="majorana-jm",
        description="joint measurements of Majorana observables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a measurement ensemble")
    p.add_argument("--n", type=int, required=True, help="mode count")
    p.add_argument("--k", type=int, default=1, help="half-degree (targets 2k)")
    p.add_argument("--N", type=int, default=None, help="rotation count (k >= 2)")
    _common(p)

    p = sub.add_parser("validate", help="re-certify an ensemble archive")
    p.add_argument("--ensemble", required=True)
    _common(p)

    p = sub.add_parser("sharpness", help="sharpness table of an archive")
    p.add_argument("--ensemble", required=True)
    _common(p)

    p = sub.add_parser("robustness", help="incompatibility robustness report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="observable degree")
    p.add_argument("--budget", type=int, default=None, help="max sections (0: bounds only)")
    _common(p)

    p = sub.add_parser("simulate", help="sample shots of the parent measurement")
    p.add_argument("--state", required=True, help="state JSON path")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--shots", type=int, required=True)
    _common(p)

    p = sub.add_parser("estimate", help="estimate observables or a Hamiltonian")
    p.add_argument("--state", required=True)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--targets", default=None, help="comma list of gamma[...] terms")
    p.add_argument("--hamiltonian", default=None, help="Hamiltonian JSON path")
    p.add_argument("--shots", type=int, default=0, help="0 runs the exact mode")
    p.add_argument("--shot-log", default=None, help="also write the shot CSV here")
    _common(p)

    p = sub.add_parser("compare", help="strategy comparison table")
    p.add_argument("--n-range", required=True, help="inclusive range, e.g. 2:12")
    p.add_argument("--k", type=int, default=1, help="half-degree")
    _common(p)
    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


def _apply_config(parser, argv, args):
    """Parse again with the config file's values as the command's defaults.

    A value from the file replaces a flag's default; a flag given on the
    command line still wins.
    """
    if args.config:
        with open(args.config) as fh:
            conf = json.load(fh)
        parser.commands[args.command].set_defaults(**{k.replace("-", "_"): v for k, v in conf.items()})
        args = parser.parse_args(argv)
    return args


def _emit(args, text):
    """Write ``text`` to --out or stdout; an iterable of strings is written part by part as it comes."""
    parts = [text] if isinstance(text, str) else text
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _require_seed(args):
    if args.seed is None:
        raise ValueError("--seed is mandatory for stochastic commands")


def _cmd_construct(args):
    from majorana_jm import io
    from majorana_jm.matching import degree2_ensemble, degree2k_ensemble

    if args.n < 1 or args.k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if args.out is None:
        raise ValueError("construct requires --out for the archive")
    if args.k == 1:
        if args.N is not None:
            raise ValueError("--N applies to k >= 2 only: the degree-2 ensemble has 2 rotations")
        ensemble = degree2_ensemble(args.n)
    else:
        _require_seed(args)
        ensemble = degree2k_ensemble(args.n, args.k, args.N, seed=args.seed)
    io.write_ensemble_archive(args.out, ensemble)
    sys.stdout.write(
        json.dumps(
            {
                "archive": args.out,
                "n": args.n,
                "k": args.k,
                "n_matrices": ensemble.n_matrices,
                "min_eta": ensemble.coverage.min_eta,
                "retries": ensemble.retries,
            },
            sort_keys=True,
        )
        + "\n"
    )
    return EXIT_OK


def _cmd_validate(args):
    from majorana_jm import io

    ensemble = io.read_ensemble_archive(args.ensemble)
    coverage = ensemble.coverage
    payload = {
        "n": ensemble.n_modes,
        "k": ensemble.degree_k,
        "n_matrices": ensemble.n_matrices,
        "min_eta": coverage.min_eta,
        "uncovered": [list(s) for s in coverage.uncovered],
        "orthogonality": "certified",
    }
    if ensemble.n_modes <= 3:
        from majorana_jm.povm import parent_validate

        dense = [
            parent_validate(m.entries, ensemble.n_modes)
            for m in ensemble.matrices
        ]
        payload["dense_checks"] = dense
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if not coverage.uncovered else EXIT_COVERAGE


def _cmd_sharpness(args):
    from majorana_jm import io
    from majorana_jm.povm import sharpness_table

    ensemble = io.read_ensemble_archive(args.ensemble)
    _emit(args, io._sharpness_csv_parts(sharpness_table(ensemble)))
    return EXIT_OK


def _cmd_robustness(args):
    from majorana_jm import io
    from majorana_jm.robustness import BRUTE_FORCE_BUDGET, exact_robustness

    budget = BRUTE_FORCE_BUDGET if args.budget is None else args.budget
    report = exact_robustness(args.n, args.k, budget=budget)
    status = "budget-exceeded" if report.method == "bound-only" else "ok"
    _emit(args, io.robustness_report_json(report, status=status))
    return EXIT_OK


def _load_state(args):
    from majorana_jm import io

    with open(args.state) as fh:
        return io.state_from_json(fh.read())


def _load_ensemble(args):
    from majorana_jm import io

    return io.read_ensemble_archive(args.ensemble)


def _cmd_simulate(args):
    from majorana_jm import io
    from majorana_jm.sampling import simulate_shots

    _require_seed(args)
    if args.shots < 1:
        raise ValueError("--shots must be at least 1")
    state = _load_state(args)
    ensemble = _load_ensemble(args)
    if state.n_modes != ensemble.n_modes:
        raise ValueError("state and ensemble dimensions differ")
    batch = simulate_shots(state, ensemble, args.shots, io.rng_for(args.seed, "simulate"))
    _emit(args, io.shot_log_csv(batch))
    return EXIT_OK


def _check_degree(indices):
    """Refuse a target or term whose degree is not even and positive: only those have a sharpness."""
    if not indices or len(indices) % 2:
        raise ValueError(f"target gamma[{','.join(map(str, indices))}] needs an even degree of at least 2")


def _parse_targets(text, n_modes):
    import re

    from majorana_jm.algebra import monomial_from_str

    token = r"gamma\[[^\]]*\]"
    # tokens separated by exactly one comma, with optional space around it
    if not re.fullmatch(rf"\s*{token}(\s*,\s*{token})*\s*", text):
        raise ValueError(f"cannot parse targets {text!r}")
    targets = [monomial_from_str(tok, n_modes).indices for tok in re.findall(token, text)]
    seen = set()
    for target in targets:
        _check_degree(target)
        if target in seen:
            raise ValueError(f"duplicate target gamma[{','.join(map(str, target))}]")
        seen.add(target)
    return targets


def _parse_hamiltonian(path, n_modes):
    """The Hamiltonian JSON ``{"terms": [[indices, coeff], ...]}``, each term checked like a target."""
    from majorana_jm.algebra import indices_to_support
    from majorana_jm.sampling import HamiltonianSpec

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "terms" not in data:
        raise ValueError("--hamiltonian needs a JSON object with a 'terms' list")
    terms = tuple((tuple(term[0]), float(term[1])) for term in data["terms"])
    for subset, _ in terms:
        indices_to_support(subset, n_modes)
        _check_degree(subset)
    return HamiltonianSpec(terms)


def _cmd_estimate(args):
    from majorana_jm import io
    from majorana_jm.povm import sharpness_table
    from majorana_jm.sampling import (
        EstimationRecord,
        analytic_estimates,
        estimate_expectations,
        estimate_hamiltonian,
        predicted_variance,
        simulate_shots,
    )

    if args.shots < 0 or args.shots == 1:
        raise ValueError("--shots must be 0 (exact mode) or at least 2 (a standard error needs two)")
    if args.shot_log and args.shots == 0:
        raise ValueError("--shot-log needs sampled shots: the exact mode (--shots 0) draws none")
    state = _load_state(args)
    ensemble = _load_ensemble(args)
    if state.n_modes != ensemble.n_modes:
        raise ValueError("state and ensemble dimensions differ")
    targets = []
    ham = None
    if args.targets:
        targets = _parse_targets(args.targets, state.n_modes)
    if args.hamiltonian:
        ham = _parse_hamiltonian(args.hamiltonian, state.n_modes)
    if not targets and ham is None:
        raise ValueError("nothing to estimate: give --targets and/or --hamiltonian")
    table = sharpness_table(ensemble)
    meta = {"shots": args.shots, "seed": args.seed, "n": state.n_modes}
    ham_terms = [s for s, _ in ham.terms] if ham else []
    uncovered = [
        list(s)
        for s in {tuple(t) for t in (list(targets) + ham_terms)}
        if table.mean_sharpness(s) <= 0.0
    ]
    if uncovered:
        sys.stderr.write(f"uncovered targets: {sorted(uncovered)}\n")
        return EXIT_UNCOVERED
    ham_record = None
    if args.shots == 0:
        # one sharpness table for targets and terms
        records = analytic_estimates(state, table, list(targets) + ham_terms)
        records, term_records = records[: len(targets)], records[len(targets) :]
        if ham:
            total = float(sum(c * r.estimate for (_, c), r in zip(ham.terms, term_records)))
            ham_record = EstimationRecord("hamiltonian", total, 0, 0.0)
        meta["mode"] = "exact"
    else:
        _require_seed(args)
        batch = simulate_shots(state, ensemble, args.shots, io.rng_for(args.seed, "simulate"))
        coin_rng = io.rng_for(args.seed, "coins")
        records = estimate_expectations(batch, table, targets, rng=coin_rng)
        if ham:
            ham_record = estimate_hamiltonian(batch, table, ham, rng=io.rng_for(args.seed, "ham-coins"))
        if args.shot_log:
            with open(args.shot_log, "w") as fh:
                fh.write(io.shot_log_csv(batch))
        meta["mode"] = "sampled"
    if ham and ensemble.n_matrices == 1:
        import dataclasses

        pred = predicted_variance(ham, table, state)
        ham_record = dataclasses.replace(ham_record, predicted_variance=pred)
    _emit(args, io.estimation_report_json(records, ham_record, meta))
    return EXIT_OK


def _cmd_compare(args):
    from majorana_jm import io
    from majorana_jm.baselines import comparison_rows

    lo, _, hi = args.n_range.partition(":")
    n_values = range(int(lo), int(hi or lo) + 1)
    if not n_values or n_values.start < 1:
        raise ValueError(f"--n-range {args.n_range!r} must be lo:hi with 1 <= lo <= hi")
    seed = args.seed if args.seed is not None else 0
    rows = comparison_rows(n_values, args.k, construction_seed=seed)
    _emit(args, io.comparison_csv(rows))
    return EXIT_OK


_HANDLERS = {
    "construct": _cmd_construct,
    "validate": _cmd_validate,
    "sharpness": _cmd_sharpness,
    "robustness": _cmd_robustness,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, argv, parser.parse_args(argv))
        return _HANDLERS[args.command](args)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001
        from majorana_jm.matching import CoverageError
        from majorana_jm.sampling import UncoveredTargetError

        if isinstance(exc, UncoveredTargetError):
            sys.stderr.write(f"uncovered target: {exc}\n")
            return EXIT_UNCOVERED
        if isinstance(exc, CoverageError):
            sys.stderr.write(f"coverage failure: {exc}\n")
            return EXIT_COVERAGE
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
