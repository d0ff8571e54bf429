"""Incompatibility robustness of degree-k observable assemblages.

The robustness equals the maximum over sign sections of the operator norm
of the signed sum of all degree-k observables, divided by their count.
Degree-2 sections are antisymmetric +-1 matrices (tournaments), whose
spectra give the norm directly as the sum of the positive imaginary parts;
the general case diagonalizes the dense signed sum.  One section search,
``_search``, enumerates the sections for both.

``exact_robustness`` reads the value off a certificate before it searches.
Multiplying by ``gamma_1...gamma_2n`` maps every degree-d signed sum onto a
degree-(2n-d) one of the same norm, so a degree between n and 2n is solved
at its dual degree and its section mapped back (``parity-dual``).  At
degree 2 a skew-Hadamard tournament meets the proven bound
``1/sqrt(2n-1)`` (``skew-hadamard``).  Only what is left runs the search
(``robustness_bruteforce``), and the budget caps only the sections that
are actually searched.

Section enumeration quotients out the monomial-conjugation sign action by
fixing every sign whose support contains the first generator.  That
quotient is transitive on those coordinates only for degree <= 2, so
higher degrees enumerate the full section space.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from majorana_jm.baselines import _construction, ho_bound, ho_bound_proven, shadow_jm_bound, thm2_upper_bound

__all__ = [
    "SignSection",
    "TournamentMatrix",
    "RobustnessReport",
    "BRUTE_FORCE_BUDGET",
    "operator_norm",
    "robustness_bruteforce",
    "exact_robustness",
    "degree2_norm",
    "section_from_tournament",
    "appendix_tournament_4",
    "skew_hadamard_search",
    "SkewHadamardResult",
    "build_report",
]

BRUTE_FORCE_BUDGET = 2 ** 20
# Norms closer than this are ties; the section visited first keeps the lead.
_NORM_TOL = 1e-9
_CHUNK = 4096
_FIRST_OPEN_SKEW_ORDER = 276


class SignSection(namedtuple("SignSection", "n_modes degree signs")):
    """Signs over all degree-k supports, lexicographically ordered."""

    __slots__ = ()

    def __new__(cls, n_modes: int, degree: int, signs: tuple[int, ...]):
        count = math.comb(2 * n_modes, degree)
        if len(signs) != count:
            raise ValueError(f"need {count} signs")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1")
        return super().__new__(cls, n_modes, degree, signs)

    def __str__(self) -> str:
        return "".join("+" if s == 1 else "-" for s in self.signs)

    @classmethod
    def from_string(cls, n_modes: int, degree: int, text: str) -> "SignSection":
        return cls(n_modes, degree, tuple(1 if c == "+" else -1 for c in text))


class TournamentMatrix(namedtuple("TournamentMatrix", "entries")):
    """Antisymmetric matrix with +-1 off the zero diagonal.

    A one-field tuple: read the array from ``entries``, not ``np.asarray(self)``.
    """

    __slots__ = ()

    def __new__(cls, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("must be square")
        if np.any(np.diag(arr) != 0):
            raise ValueError("diagonal must vanish")
        if np.any(arr != -arr.T):
            raise ValueError("must be antisymmetric")
        off = arr[~np.eye(arr.shape[0], dtype=bool)]
        if np.any(np.abs(off) != 1):
            raise ValueError("off-diagonal entries must be +-1")
        arr.setflags(write=False)
        return super().__new__(cls, arr)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def operator_norm(h: np.ndarray) -> np.ndarray:
    """Largest absolute eigenvalue of each Hermitian matrix on the last two axes."""
    vals = np.linalg.eigvalsh(h)
    return np.maximum(vals[..., -1], -vals[..., 0])


def _spectral_sum(vals: np.ndarray) -> np.ndarray:
    """Signed-pair-sum norm from the tournament eigenvalues ``eig(iT)``, batched."""
    return np.abs(vals).sum(axis=-1) / 2.0


def section_from_tournament(t: TournamentMatrix) -> SignSection:
    size = t.size
    if size % 2:
        raise ValueError("need an even number of players")
    signs = [
        int(t.entries[i - 1, j - 1])
        for i, j in itertools.combinations(range(1, size + 1), 2)
    ]
    return SignSection(size // 2, 2, tuple(signs))


def degree2_norm(t: TournamentMatrix) -> tuple[float, np.ndarray]:
    """Sum of positive eigenvalue parts and the parts themselves.

    The eigenvalues of an antisymmetric matrix come in pairs ``+-i lam_j``;
    the returned sum equals the operator norm of the corresponding signed
    sum of pair observables.
    """
    vals = np.linalg.eigvalsh(1j * t.entries)
    return float(_spectral_sum(vals)), vals[vals.shape[0] // 2 :]


def appendix_tournament_4() -> TournamentMatrix:
    """The 4x4 tournament whose shift by the identity is a Hadamard matrix."""
    return TournamentMatrix(
        np.array(
            [
                [0, 1, 1, 1],
                [-1, 0, 1, -1],
                [-1, -1, 0, 1],
                [-1, 1, -1, 0],
            ],
            dtype=float,
        )
    )


class SkewHadamardResult(NamedTuple):
    order: int
    status: str  # found | none | exists | open | unknown
    tournament: TournamentMatrix | None = None
    reason: str = ""


def _paley_tournament(order: int) -> np.ndarray | None:
    q = order - 1
    if q < 3 or q % 4 != 3:
        return None
    # quadratic-character construction needs q prime
    if any(q % p == 0 for p in range(2, int(math.isqrt(q)) + 1)):
        return None
    squares = {(x * x) % q for x in range(1, q)}
    chi = np.zeros(q)
    for d in range(1, q):
        chi[d] = 1.0 if d in squares else -1.0
    core = np.empty((q, q))
    for i in range(q):
        for j in range(q):
            core[i, j] = chi[(i - j) % q]
    arr = np.zeros((order, order))
    arr[0, 1:] = 1.0
    arr[1:, 0] = -1.0
    arr[1:, 1:] = core
    return arr


def _double_skew(e: np.ndarray) -> np.ndarray:
    # H -> [[H, H], [H - 2I, 2I - H]] preserves H + H^T = 2I and H H^T = m I
    h = e + np.eye(e.shape[0])
    top = np.hstack([h, h])
    bottom = np.hstack([h - 2 * np.eye(h.shape[0]), 2 * np.eye(h.shape[0]) - h])
    return np.vstack([top, bottom]) - np.eye(2 * h.shape[0])


def _construct_skew_tournament(order: int) -> np.ndarray | None:
    if order == 1:
        return np.zeros((1, 1))
    if order == 2:
        return np.array([[0.0, 1.0], [-1.0, 0.0]])
    if order % 4 != 0:
        return None
    if order == 4:
        return appendix_tournament_4().entries.copy()
    paley = _paley_tournament(order)
    if paley is not None:
        return paley
    if order % 2 == 0:
        half = _construct_skew_tournament(order // 2)
        if half is not None:
            return _double_skew(half)
    return None


def skew_hadamard_search(order: int) -> SkewHadamardResult:
    """Construct or classify a tournament saturating the spectral bound.

    Constructions: the explicit order-4 matrix, quadratic-residue bordering
    for prime ``order - 1 = 3 mod 4``, and doubling.  Orders that are not 1,
    2 or a multiple of 4 are certified impossible; known-but-unconstructed
    orders are reported from the existence table (complete below the first
    open order, 276).
    """
    if order < 1:
        raise ValueError("order must be positive")
    arr = _construct_skew_tournament(order)
    if arr is not None:
        gram = arr @ arr.T - (order - 1) * np.eye(order)
        if np.max(np.abs(gram)) > 1e-9:
            raise AssertionError("construction failed certification")
        t = TournamentMatrix(arr) if order > 1 else None
        return SkewHadamardResult(order, "found", t, "constructed and certified")
    if order > 2 and order % 4 != 0:
        return SkewHadamardResult(
            order, "none", None, "order is not 1, 2 or a multiple of 4"
        )
    if order < _FIRST_OPEN_SKEW_ORDER:
        return SkewHadamardResult(
            order, "exists", None, "known order, no construction implemented"
        )
    if order == _FIRST_OPEN_SKEW_ORDER:
        return SkewHadamardResult(order, "open", None, "first undecided order")
    return SkewHadamardResult(order, "unknown", None, "beyond the existence table")


class RobustnessReport(namedtuple("RobustnessReport", "n_modes degree method value section bounds")):
    # method: brute-force | degree2-spectral (the section search) | skew-hadamard |
    # parity-dual (certificates, see exact_robustness) | bound-only
    __slots__ = ()

    def __new__(cls, n_modes: int, degree: int, method: str, value, section, bounds: dict):
        lower = bounds.get("construction_lower")
        upper = bounds.get("thm2_upper")
        if value is not None:
            if lower is not None and lower > value + _NORM_TOL:
                raise ValueError("lower bound exceeds the exact value")
            if upper is not None and value > upper + _NORM_TOL:
                raise ValueError("exact value exceeds the upper bound")
        return super().__new__(cls, n_modes, degree, method, value, section, bounds)


def _section_signs(codes: np.ndarray, free: list[int], n_supports: int) -> np.ndarray:
    """Sign rows of section codes: bit ``b`` flips free support ``free[b]``."""
    signs = np.ones((len(codes), n_supports), dtype=np.int64)
    signs[:, free] = 1 - 2 * ((codes[:, None] >> np.arange(len(free))) & 1)
    return signs


def _search(n_modes: int, degree: int, budget: int) -> tuple[float, tuple[int, ...]] | None:
    """Largest signed-sum norm over sign sections and the section reaching it.

    Each chunk of sections contracts its sign rows with one stack of terms:
    the Hermitian tournament units ``i(E_ij - E_ji)`` at degree 2 (norm =
    spectral sum), the dense monomials otherwise (norm = largest absolute
    eigenvalue).  Sections are visited in code order and replace the running
    best only when larger by more than ``_NORM_TOL``, so the first of tied
    maxima is reported whatever the chunking or the LAPACK round-off.  The
    search stops once the best is within ``_NORM_TOL / 2`` of the proven
    upper bound, which no later section can then exceed by ``_NORM_TOL``.
    Returns None when the sections outnumber ``budget``.
    """
    # the searches load the algebra; compare and the bounds never need it
    from majorana_jm.algebra import canonical_monomial, dense_matrix, subsets_of_size

    if n_modes < 1 or not 1 <= degree <= 2 * n_modes:
        raise ValueError(
            f"need n >= 1 and degree in 1..2n, got n={n_modes}, degree={degree}"
        )
    # counted before the supports are listed: at degree <= 2 those holding 1 keep sign +1
    n_free = math.comb(2 * n_modes - (degree <= 2), degree)
    if n_free >= 63 or 2 ** n_free > budget:
        return None
    supports = subsets_of_size(2 * n_modes, degree)
    free = [i for i, s in enumerate(supports) if degree > 2 or 1 not in s]
    if degree == 2:
        size = 2 * n_modes
        terms = np.zeros((len(supports), size, size), dtype=complex)
        for t, (i, j) in enumerate(supports):
            terms[t, i - 1, j - 1], terms[t, j - 1, i - 1] = 1j, -1j
    else:
        terms = np.stack(
            [dense_matrix(canonical_monomial(n_modes, s)) for s in supports]
        )
    upper = thm2_upper_bound(n_modes, degree)
    ceiling = math.inf if upper is None else upper * len(supports) - _NORM_TOL / 2
    best, best_code = -math.inf, 0
    total = 2 ** len(free)
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total))
        hs = np.tensordot(_section_signs(codes, free, len(supports)), terms, axes=(1, 0))
        norms = _spectral_sum(np.linalg.eigvalsh(hs)) if degree == 2 else operator_norm(hs)
        pos = 0
        while best < ceiling:
            above = np.flatnonzero(norms[pos:] > best + _NORM_TOL)
            if not above.size:
                break
            pos += int(above[0])
            best, best_code = float(norms[pos]), start + pos
        if best >= ceiling:
            break
    signs = _section_signs(np.array([best_code]), free, len(supports))[0]
    return best, tuple(int(v) for v in signs)


def robustness_bruteforce(
    n_modes: int,
    degree: int,
    budget: int = BRUTE_FORCE_BUDGET,
) -> RobustnessReport:
    """Exact robustness by maximizing the signed-sum norm over sections.

    Degree-2 sections run through the tournament spectrum (one small
    antisymmetric eigenproblem each); other degrees diagonalize the dense
    signed sum.  Exceeding the budget yields a bound-only report.
    """
    found = _search(n_modes, degree, budget)
    if found is None:
        return build_report(n_modes, degree, method="bound-only")
    best, signs = found
    return build_report(
        n_modes,
        degree,
        method="degree2-spectral" if degree == 2 else "brute-force",
        value=best / len(signs),
        section=str(SignSection(n_modes, degree, signs)),
    )


def exact_robustness(
    n_modes: int,
    degree: int,
    budget: int = BRUTE_FORCE_BUDGET,
) -> RobustnessReport:
    """Exact robustness, from a certificate where one applies, else by search.

    A positive ``budget`` first tries the certificates of
    :func:`_certified_section`: degrees ``n < d < 2n`` go to their parity
    dual, and degree 2 takes a skew-Hadamard tournament when one is
    constructed.  Everything else, including ``budget <= 0`` and degrees
    out of range, is :func:`robustness_bruteforce` with the same budget.
    The budget caps only the sections a search visits.
    """
    found = None
    if budget > 0 and 1 <= degree <= 2 * n_modes:
        found = _certified_section(n_modes, degree, budget)
    if found is None:
        return robustness_bruteforce(n_modes, degree, budget)
    method, best, signs = found
    return build_report(
        n_modes,
        degree,
        method=method,
        value=best / len(signs),
        section=str(SignSection(n_modes, degree, signs)),
    )


def _certified_section(
    n_modes: int, degree: int, budget: int
) -> tuple[str, float, tuple[int, ...]] | None:
    """Method, signed-sum norm and signs of a maximizing section, or None.

    None means no certificate applies, or the dual degree's search needs
    more than ``budget`` sections; the primal search is then no smaller.
    """
    if n_modes < degree < 2 * n_modes:
        dual = 2 * n_modes - degree
        certified = _certified_section(n_modes, dual, budget)
        found = certified[1:] if certified else _search(n_modes, dual, budget)
        if found is None:
            return None
        best, signs = found
        return "parity-dual", best, _dual_signs(n_modes, degree, signs)
    if degree == 2:
        skew = skew_hadamard_search(2 * n_modes)
        if skew.status == "found":
            # its norm is n sqrt(2n-1), the proven bound, so no section beats it
            best, _ = degree2_norm(skew.tournament)
            return "skew-hadamard", best, section_from_tournament(skew.tournament).signs
    return None


def _dual_signs(n_modes: int, degree: int, dual_signs) -> tuple[int, ...]:
    """The degree-``degree`` section mapped from a section of degree ``2n - degree``.

    With ``G`` the Hermitian ``gamma_1...gamma_2n``, ``G gamma_S = e_S
    gamma_{S^c}`` where ``e_S`` is ``+-1`` at even degree and ``+-i`` at
    odd degree.  Support ``S`` takes the sign of its complement times the
    sign of ``e_S`` (of ``e_S / i`` at odd degree); then ``G`` times the new
    sum is the dual sum up to one common factor ``1`` or ``i``, and ``G`` is
    unitary, so both norms agree.
    """
    from majorana_jm.algebra import canonical_monomial, monomial_product, subsets_of_size, support_to_indices

    two_n = 2 * n_modes
    full = canonical_monomial(n_modes, (1 << two_n) - 1)
    dual_index = {s: j for j, s in enumerate(subsets_of_size(two_n, two_n - degree))}
    signs = []
    for subset in subsets_of_size(two_n, degree):
        image = monomial_product(full, canonical_monomial(n_modes, subset))
        quarter = (image.phase_quarter - canonical_monomial(n_modes, image.support).phase_quarter) % 4
        sign = dual_signs[dual_index[support_to_indices(image.support)]]
        signs.append(sign if quarter < 2 else -sign)
    return tuple(signs)


def build_report(
    n_modes: int,
    degree: int,
    method: str,
    value: float | None = None,
    section: str | None = None,
) -> RobustnessReport:
    """Assemble a report with every bound that applies at this size."""
    bounds: dict = {"thm2_upper": thm2_upper_bound(n_modes, degree)}
    if degree % 2 == 0:
        half = degree // 2
        bounds["ho_value"] = ho_bound(n_modes, half)
        bounds["ho_conjectured"] = not ho_bound_proven(half)
        bounds["shadow_lower"] = shadow_jm_bound(n_modes, half)
        bounds["construction_lower"] = _construction_lower(n_modes, half)
    else:
        bounds["ho_value"] = None
        bounds["ho_conjectured"] = None
        bounds["shadow_lower"] = None
        bounds["construction_lower"] = None
    return RobustnessReport(n_modes, degree, method, value, section, bounds)


def _construction_lower(n_modes: int, half_degree: int) -> float | None:
    """Achievable sharpness of the explicit randomized parent, if feasible.

    Uses the exact effective sharpness (mean over the rotations), which is
    a true joint-measurability witness and hence a lower bound.  The
    randomized construction runs with seed 0.
    """
    ens = _construction(n_modes, half_degree, seed=0)
    if ens is None:
        return None
    # the worst support's mean |minor| over the rotations, read off the table
    return float(np.abs(ens.coverage.per_matrix[1]).mean(axis=0).min())
