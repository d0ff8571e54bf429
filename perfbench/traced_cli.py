"""Run one majorana-jm CLI command with a span around each traced library call.

    python3 perfbench/traced_cli.py SPANS.json <cli arguments...>

Each function in ``TRACED`` is rebound in every ``majorana_jm`` module
namespace that holds it (``povm.scan_minors`` as well as
``matching.scan_minors``), so calls made through any import path are seen.
``cli.main`` is the root span.  Spans ``[name, start, end, parent, extra]``
are kept in memory and written to SPANS.json when the command returns;
``extra`` carries the per-call count a layer metric needs, or null.
The library itself is not modified.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import sys
import time

MODULES = ("algebra", "gaussian", "matching", "povm", "sampling", "robustness", "baselines", "io", "cli")


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _dense_key(fn, args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return [m.n_modes, m.support, m.phase_quarter]


def _minors_evaluated(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    n, k = a["n_modes"], a["half_degree"]
    return len(a["arrays"]) * math.comb(n, k) * math.comb(2 * n, 2 * k)


def _candidates(fn, args, kwargs, result):
    return result.n_matrices + result.retries


def _shot_groups(fn, args, kwargs, result):
    return len(set(zip(result.r.tolist(), result.conj_mask.tolist())))


def _sections(fn, args, kwargs, result):
    # the degree <= 2 search fixes the sign of every support holding index 1
    a = _bind(fn, args, kwargs)
    n, degree = a["n_modes"], a["degree"]
    free = math.comb(2 * n, degree)
    if degree <= 2:
        free -= math.comb(2 * n - 1, degree - 1)
    return 2 ** free if free < 63 and 2 ** free <= a["budget"] else 0


def _archive_bytes(fn, args, kwargs, result):
    return os.path.getsize(_bind(fn, args, kwargs)["path"])


def _text_bytes(fn, args, kwargs, result):
    return len(result.encode())


TRACED = {
    "algebra.dense_matrix": _dense_key,
    "gaussian.compile_gaussian_unitary": None,
    "gaussian.givens_factors": lambda fn, a, kw, res: len(res[0]),
    "matching.scan_minors": _minors_evaluated,
    "matching.degree2k_ensemble": _candidates,
    "povm.sharpness_table": None,
    "povm.outcome_probabilities": None,
    "sampling.simulate_shots": _shot_groups,
    "sampling.estimate_expectations": None,
    "sampling.estimate_hamiltonian": None,
    "sampling.exact_expectations": None,
    "sampling.shot_probability_table": None,
    "robustness.robustness_bruteforce": _sections,
    "robustness.build_report": None,
    "baselines.comparison_rows": None,
    "io.read_ensemble_archive": None,
    "io.write_ensemble_archive": _archive_bytes,
    "io.shot_log_csv": _text_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, extract):
        clock = time.perf_counter
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[4] = extract(fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = {m: importlib.import_module(f"majorana_jm.{m}") for m in MODULES}
        for qualified, extract in TRACED.items():
            home, attr = qualified.split(".")
            original = getattr(modules[home], attr)
            wrapper = self.wrap(qualified, original, extract)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return self.wrap("cli.main", modules["cli"].main, None)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli_main = tracer.install()
    try:
        return cli_main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
