"""Joint measurements of Majorana observables.

Library layout:

* :mod:`majorana_jm.algebra` - exact Majorana monomial algebra, Jordan-Wigner
  images, braid transformations, commutant checks.
* :mod:`majorana_jm.gaussian` - orthogonal-matrix utilities, lower-flat
  matrices, Givens compilation of fermionic Gaussian unitaries.
* :mod:`majorana_jm.matching` - Turan-graph partitions, sparse perfect
  matchings, and the measurement ensembles built from them.
* :mod:`majorana_jm.povm` - the parent POVM, its marginals and sharpness
  accounting, dense validity oracles.
* :mod:`majorana_jm.sampling` - shot-level simulation, unbiased
  estimators and their closed-form exact mode, variance prediction and
  sample-complexity formulas.
* :mod:`majorana_jm.robustness` - incompatibility robustness by exact
  section search, tournament spectra, skew-Hadamard machinery and bounds.
* :mod:`majorana_jm.baselines` - comparator formulas (fermion-to-qubit
  parents and shadow-derived bounds).
* :mod:`majorana_jm.io` - text/CSV/JSON/archive formats.
* :mod:`majorana_jm.cli` - batch command-line front-end.

Submodules load lazily: ``import majorana_jm`` imports none of them (nor
numpy), and an attribute such as ``majorana_jm.sampling`` imports its
submodule on first access, so a CLI command loads only the modules it runs.
"""

import importlib

_SUBMODULES = frozenset(
    {"algebra", "baselines", "gaussian", "io", "matching", "povm", "robustness", "sampling"}
)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
