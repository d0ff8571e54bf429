"""The tracer of ``perfbench/traced_cli.py`` rebinds library functions by name.

Each name in its ``TRACED`` table must resolve in ``majorana_jm``, and each
parameter its extractors bind must still exist, so that a rename fails here
rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
_spec = importlib.util.spec_from_file_location("traced_cli", _PATH)
traced_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traced_cli)


def _resolve(qualified):
    home, attr = qualified.split(".")
    assert home in traced_cli.MODULES
    return getattr(importlib.import_module(f"majorana_jm.{home}"), attr)


@pytest.mark.parametrize("qualified", sorted(traced_cli.TRACED))
def test_traced_names_resolve(qualified):
    assert callable(_resolve(qualified))


# the parameters that the extractors of these names bind, in order
BOUND = {
    "matching.scan_minors": ["arrays", "n_modes", "half_degree"],
    "io.write_ensemble_archive": ["path"],
    "robustness.robustness_bruteforce": ["n_modes", "degree", "budget"],
    "algebra.dense_matrix": ["m"],
}


@pytest.mark.parametrize("qualified", sorted(BOUND))
def test_extractors_bind_existing_parameters(qualified):
    assert traced_cli.TRACED[qualified] is not None
    signature = inspect.signature(_resolve(qualified))
    assert list(signature.parameters)[: len(BOUND[qualified])] == BOUND[qualified]
