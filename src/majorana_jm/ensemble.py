"""The measurement ensemble: what every command after ``construct`` reads from an archive.

An ensemble is a family of orthogonal rotations sampled with weight 1/N
each.  Its builders live in :mod:`majorana_jm.matching`, which also scans
its minor table; a reader that never asks for ``coverage`` never loads
that module, so ``simulate`` compiles neither the scan nor the
construction.  The two coverage errors live here too, so the CLI
classifies a failure without loading the modules that raise them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from majorana_jm.gaussian import OrthogonalMatrix

if TYPE_CHECKING:
    from majorana_jm.matching import MinorTable

__all__ = ["COVERAGE_TOL", "CoverageError", "UncoveredTargetError", "MeasurementEnsemble", "custom_ensemble"]

COVERAGE_TOL = 1e-12


class CoverageError(RuntimeError):
    """Raised when an ensemble fails its coverage certificate."""


class UncoveredTargetError(ValueError):
    """An estimation target has zero sharpness under every rotation."""


class MeasurementEnsemble(
    namedtuple(
        "MeasurementEnsemble",
        "n_modes degree_k matrices partition pi sigmas seed retries block_min_entry within_pairs",
        defaults=(None, None, None, None, 0, 0.0, ()),
    )
):
    """A finite family of orthogonal rotations sampled with weight 1/N each.

    ``degree_k`` is the half-degree: the ensemble targets degree-2k
    observables.  The partition and permutation fields carry the provenance
    of the structured constructions; ensembles assembled from arbitrary
    rotations (see :func:`custom_ensemble`) leave them unset.  ``coverage``
    is the :class:`~majorana_jm.matching.MinorTable` of the rotations,
    scanned on first access, so consumers that never read coverage never
    scan.

    A tuple of its fields; it keeps an instance ``__dict__`` (no
    ``__slots__``) because the cached ``coverage`` is stored there.
    """

    @cached_property
    def coverage(self) -> MinorTable:
        from majorana_jm.matching import scan_minors

        return scan_minors(self.arrays(), self.n_modes, self.degree_k)

    @property
    def n_matrices(self) -> int:
        return len(self.matrices)

    def arrays(self) -> list[np.ndarray]:
        return [m.entries for m in self.matrices]


def custom_ensemble(
    n_modes: int, half_degree: int, matrices, seed: int | None = None
) -> MeasurementEnsemble:
    """Wrap arbitrary orthogonal rotations as an ensemble.

    Its coverage is scanned on first access.  Supports with all-zero minors
    are tolerated here (its ``uncovered`` lists them); estimation rejects
    uncovered targets downstream.
    """
    mats = tuple(
        m if isinstance(m, OrthogonalMatrix) else OrthogonalMatrix(np.asarray(m, dtype=float))
        for m in matrices
    )
    return MeasurementEnsemble(n_modes=n_modes, degree_k=half_degree, matrices=mats, seed=seed)


def _column_permutation(base: np.ndarray, o: np.ndarray) -> np.ndarray | None:
    """``p`` with ``o[:, c] == base[:, p[c]]`` for every column ``c``, else None."""
    match = (o.T[:, None, :] == base.T[None, :, :]).all(axis=2)
    p = match.argmax(axis=1)
    # orthogonal columns are distinct, so a full match is a permutation
    return p if match[np.arange(len(p)), p].all() else None
