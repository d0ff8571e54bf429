"""Joint measurements of Majorana observables.

Library layout, in pipeline order:

* :mod:`majorana_jm.algebra` - exact Majorana monomial algebra and its
  Jordan-Wigner action.
* :mod:`majorana_jm.gaussian` - orthogonal matrices and the Givens
  compilation of fermionic Gaussian unitaries.
* :mod:`majorana_jm.ensemble` - the measurement ensemble that every
  command after ``construct`` reads.
* :mod:`majorana_jm.turan` - Turan partitions, sparse perfect matchings and
  the lower-flat base rotation of the constructions.
* :mod:`majorana_jm.matching` - the minor table and the ensemble builders.
* :mod:`majorana_jm.povm` - sharpness accounting of the parent POVM.
* :mod:`majorana_jm.effects` - the dense parent effects and validity checks.
* :mod:`majorana_jm.sampling` - shot-level simulation, unbiased
  estimators and their closed-form exact mode, variance prediction.
* :mod:`majorana_jm.robustness` - incompatibility robustness by exact
  section search, tournament spectra and skew-Hadamard machinery.
* :mod:`majorana_jm.baselines` - comparator formulas and robustness bounds.
* :mod:`majorana_jm.io` - text/CSV/JSON/archive formats.
* :mod:`majorana_jm.cli` - batch command-line front-end.
* :mod:`majorana_jm.paper` - the paper's side results that no command runs.

Submodules load lazily: ``import majorana_jm`` imports none of them (nor
numpy), and an attribute such as ``majorana_jm.sampling`` imports its
submodule on first access, so a CLI command loads only the modules it runs.
"""

import importlib

_SUBMODULES = frozenset(
    "algebra baselines effects ensemble gaussian io matching paper povm robustness sampling turan".split()
)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
