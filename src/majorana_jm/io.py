"""File formats: matrix text, ensemble archives, CSV tables, JSON reports.

Matrix text: first line the size, then row-major entries with 17
significant digits (full float round-trip).  Ensemble archive: a zip of
matrix files plus a metadata document and the coverage table.  State JSON:
amplitude list (pure) or row-major density matrix, with qubit 1 living in
the least-significant bit of the basis index, matching the dense
convention used throughout.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from typing import TYPE_CHECKING

import numpy as np

from majorana_jm.ensemble import COVERAGE_TOL, MeasurementEnsemble, custom_ensemble

if TYPE_CHECKING:  # a command loads the scan, robustness or sampling only if it runs them
    from majorana_jm.matching import MinorTable
    from majorana_jm.robustness import RobustnessReport
    from majorana_jm.sampling import EstimationRecord, FermionicState, ShotBatch

__all__ = [
    "matrix_to_text",
    "matrix_from_text",
    "write_ensemble_archive",
    "read_ensemble_archive",
    "sharpness_csv",
    "shot_log_csv",
    "estimation_report_json",
    "robustness_report_json",
    "comparison_csv",
    "state_from_json",
    "rng_for",
]

_ARCHIVE_FORMAT = "majorana-jm ensemble v1"
# CSV rows formatted per join: bounds the per-row strings alive at once
_JOIN_ROWS = 1024


def matrix_to_text(arr: np.ndarray) -> str:
    arr = np.asarray(arr, dtype=float)
    lines = [str(arr.shape[0])]
    for row in arr:
        lines.append(" ".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    size = int(lines[0])
    rows = [[float(tok) for tok in ln.split()] for ln in lines[1 : size + 1]]
    arr = np.array(rows)
    if arr.shape != (size, size):
        raise ValueError("matrix text is malformed")
    return arr


def _bracketed(index_sets) -> list[str]:
    # every set has two or more indices, so the csv module would quote it too
    return ['"[' + ",".join(map(str, s)) + ']"' for s in index_sets]


def _coverage_blocks(table: MinorTable):
    """Yield, per block of ``_JOIN_ROWS`` supports, each one's quoted S, 1-based r, quoted R and eta.

    An uncovered support reads ``r = 0``, ``R = ""`` and ``eta = 0.0``, as
    in :attr:`MinorTable.rows`, which these fields print without building.
    """
    eta, r_idx, rows_idx = table.best
    row_text = _bracketed(table.row_sets)
    for lo in range(0, len(eta), _JOIN_ROWS):
        block = slice(lo, lo + _JOIN_ROWS)
        covered = eta[block] > COVERAGE_TOL
        yield zip(
            _bracketed((table.cols[block] + 1).tolist()),
            np.where(covered, r_idx[block] + 1, 0).tolist(),
            [row_text[i] if ok else "" for i, ok in zip(rows_idx[block].tolist(), covered.tolist())],
            np.where(covered, eta[block], 0.0).tolist(),
        )


def _coverage_csv_parts(table: MinorTable):
    """Yield the coverage CSV: its header, then one text per block of :func:`_coverage_blocks`."""
    yield "S,r,R,eta\n"
    for fields in _coverage_blocks(table):
        yield "".join([f"{s},{r or ''},{rows},{eta:.17g}\n" for s, r, rows, eta in fields])


def _sharpness_csv_parts(table):
    """Yield the sharpness CSV: its header, then one text per block of :func:`_coverage_blocks`.

    One row per support; an uncovered support reads ``r = 0`` and
    ``R = []``.  ``eta_RS`` is the best ``(r, R)`` minor, so it equals
    ``eta_S``, and ``eta_effective = eta_S / N``.
    """
    n_matrices = table.n_matrices
    yield "S,r,R,eta_RS,eta_S,eta_effective\n"
    for fields in _coverage_blocks(table.coverage):
        lines = []
        for s, r, rows, eta in fields:
            text = format(eta, ".17g")
            lines.append(f"{s},{r},{rows or '[]'},{text},{text},{eta / n_matrices:.17g}\n")
        yield "".join(lines)


def sharpness_csv(table) -> str:
    return "".join(_sharpness_csv_parts(table))


def write_ensemble_archive(path, ensemble: MeasurementEnsemble) -> None:
    """Zip archive of matrices, construction metadata and the coverage table.

    The coverage CSV is also written beside the archive, to
    ``<path>.coverage.csv``.  Both get it block by block, so its whole text
    is never held.
    """
    from majorana_jm.turan import permutation_cycles

    meta = {
        "format": _ARCHIVE_FORMAT,
        "n_modes": ensemble.n_modes,
        "degree_k": ensemble.degree_k,
        "n_matrices": ensemble.n_matrices,
        "seed": ensemble.seed,
        "retries": ensemble.retries,
        "block_min_entry": ensemble.block_min_entry,
        "within_pairs": [list(p) for p in ensemble.within_pairs],
        "pi_cycles": None
        if ensemble.pi is None
        else [list(c) for c in permutation_cycles(ensemble.pi)],
        "sigma_cycles": None
        if ensemble.sigmas is None
        else [
            None if s is None else [list(c) for c in permutation_cycles(s)]
            for s in ensemble.sigmas
        ],
        "partition": None
        if ensemble.partition is None
        else [list(s) for s in ensemble.partition.subsets],
    }
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(_zip_entry("metadata.json"), json.dumps(meta, indent=2, sort_keys=True))
        for r, mat in enumerate(ensemble.matrices, start=1):
            zf.writestr(_zip_entry(f"matrix_{r}.txt"), matrix_to_text(mat.entries))
        with zf.open(_zip_entry("coverage.csv"), "w") as entry, open(f"{path}.coverage.csv", "wb") as side:
            for part in _coverage_csv_parts(ensemble.coverage):
                data = part.encode()
                entry.write(data)
                side.write(data)


def _zip_entry(name: str) -> zipfile.ZipInfo:
    # a fixed date instead of the clock keeps seeded archives byte-identical
    info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
    info.compress_type = zipfile.ZIP_DEFLATED
    info.external_attr = 0o600 << 16
    return info


def read_ensemble_archive(path) -> MeasurementEnsemble:
    """Rebuild an ensemble from an archive; its coverage is rescanned on first access."""
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("metadata.json"))
        if meta.get("format") != _ARCHIVE_FORMAT:
            raise ValueError(f"not a {_ARCHIVE_FORMAT!r} archive: format {meta.get('format')!r}")
        mats = []
        for r in range(1, meta["n_matrices"] + 1):
            mats.append(matrix_from_text(zf.read(f"matrix_{r}.txt").decode()))
    return custom_ensemble(
        meta["n_modes"], meta["degree_k"], mats, seed=meta.get("seed")
    )


def shot_log_csv(batch: ShotBatch) -> str:
    """Columns shot_id, r, x_bits, q_bits; bit j set means index j+1 flipped.

    ``x_bits`` is the conjugation support mask; ``q_bits`` packs the basis
    outcomes with bit j = (1 - q_j)/2 (mode j+1), both in lowercase hex.
    """
    columns = (np.arange(len(batch)), batch.r, batch.conj_mask, batch.q_bits)
    parts = ["shot_id,r,x_bits,q_bits\n"]
    for s in range(0, len(batch), _JOIN_ROWS):
        # one row-major block of Python ints, formatted by one % operation
        block = np.stack([c[s : s + _JOIN_ROWS] for c in columns], axis=1, dtype=np.uint64, casting="unsafe")
        parts.append("%d,%d,%x,%x\n" * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _record_dict(rec: EstimationRecord) -> dict:
    out = {
        "target": list(rec.target) if isinstance(rec.target, tuple) else rec.target,
        "estimate": rec.estimate,
        "shots": rec.shots,
        "stderr": rec.stderr,
    }
    if rec.predicted_variance is not None:
        out["predicted_variance"] = rec.predicted_variance
    return out


def estimation_report_json(records, hamiltonian_record: EstimationRecord | None, meta: dict) -> str:
    payload = {"estimates": [_record_dict(r) for r in records], **meta}
    if hamiltonian_record is not None:
        payload["hamiltonian"] = _record_dict(hamiltonian_record)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def robustness_report_json(report: RobustnessReport, status: str) -> str:
    payload = {
        "n": report.n_modes,
        "k": report.degree,
        "method": report.method,
        "value": report.value,
        "section": report.section,
        "bounds": report.bounds,
        "status": status,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def comparison_csv(rows) -> str:
    """One row per mode count; a missing value is a blank field."""
    columns = ("eta_construction", "eta_ternary", "shadow_jm_bound", "ho_bound", "thm2_upper")
    lines = ["n,k," + ",".join(columns) + "\n"]
    for row in rows:
        values = ("" if row[c] is None else format(row[c], ".17g") for c in columns)
        lines.append(f"{row['n']},{row['k']},{','.join(values)}\n")
    return "".join(lines)


def state_from_json(data) -> FermionicState:
    """Parse ``{"n_modes": n, "amplitudes": [...]}`` or a density variant.

    Complex entries appear as ``[re, im]`` pairs or plain reals; qubit 1
    occupies the least-significant bit of the basis index.
    """
    from majorana_jm.sampling import FermionicState

    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    n = int(data["n_modes"])

    def as_complex(v):
        if isinstance(v, (list, tuple)):
            return complex(v[0], v[1])
        return complex(v)

    if "amplitudes" in data:
        vec = np.array([as_complex(v) for v in data["amplitudes"]])
        return FermionicState(n, vector=vec)
    if "density" in data:
        rho = np.array([[as_complex(v) for v in row] for row in data["density"]])
        return FermionicState(n, density_matrix=rho)
    raise ValueError("state JSON needs 'amplitudes' or 'density'")


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Labeled counter-based substream of one master seed."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, zlib.crc32(label.encode())]))
    )
