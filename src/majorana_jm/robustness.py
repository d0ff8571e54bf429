"""Incompatibility robustness of degree-k observable assemblages.

The robustness equals the maximum over sign sections of the operator norm
of the signed sum of all degree-k observables, divided by their count.
Degree-2 sections are antisymmetric +-1 matrices (tournaments), whose
spectra give the norm directly as the sum of the positive imaginary parts;
the general case diagonalizes the dense signed sum.

Section enumeration quotients out the monomial-conjugation sign action by
fixing every sign whose support contains the first generator.  That
quotient is transitive on those coordinates only for degree <= 2, so
higher degrees enumerate the full section space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from majorana_jm.algebra import canonical_monomial, dense_matrix, monomial_action, subsets_of_size

__all__ = [
    "SignSection",
    "TournamentMatrix",
    "RobustnessReport",
    "BRUTE_FORCE_BUDGET",
    "syk_operator",
    "operator_norm",
    "robustness_bruteforce",
    "degree2_norm",
    "tournament_from_section",
    "section_from_tournament",
    "tournament_bound_check",
    "random_tournament",
    "appendix_tournament_4",
    "skew_hadamard_search",
    "SkewHadamardResult",
    "exhaustive_tournament_max",
    "ho_bound",
    "ho_bound_proven",
    "thm2_upper_bound",
    "build_report",
]

BRUTE_FORCE_BUDGET = 2 ** 20
_FIRST_OPEN_SKEW_ORDER = 276


@dataclass(frozen=True)
class SignSection:
    """Signs over all degree-k supports, lexicographically ordered."""

    n_modes: int
    degree: int
    signs: tuple[int, ...]

    def __post_init__(self):
        count = math.comb(2 * self.n_modes, self.degree)
        if len(self.signs) != count:
            raise ValueError(f"need {count} signs")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")

    @property
    def supports(self) -> list[tuple[int, ...]]:
        return subsets_of_size(2 * self.n_modes, self.degree)

    def __str__(self) -> str:
        return "".join("+" if s == 1 else "-" for s in self.signs)

    @classmethod
    def from_string(cls, n_modes: int, degree: int, text: str) -> "SignSection":
        return cls(n_modes, degree, tuple(1 if c == "+" else -1 for c in text))


@dataclass(frozen=True)
class TournamentMatrix:
    """Antisymmetric matrix with +-1 off the zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
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
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def syk_operator(section: SignSection) -> np.ndarray:
    """Dense signed sum of all degree-k observables for a section.

    Each term's signed permutation is scattered into one accumulator,
    ``acc[b ^ flip, b] += s d[b]``.
    """
    n = section.n_modes
    basis = np.arange(2 ** n)
    acc = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for sign, subset in zip(section.signs, section.supports):
        flip, d = monomial_action(canonical_monomial(n, subset))
        acc[basis ^ flip, basis] += sign * d
    return acc


def operator_norm(h: np.ndarray, tol: float = 1e-8) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix.

    Dense diagonalization below dimension 256, Lanczos above.
    """
    if h.shape[0] < 256:
        vals = np.linalg.eigvalsh(h)
        return float(max(vals[-1], -vals[0]))
    from scipy.sparse import linalg as sla

    top = sla.eigsh(h, k=1, which="LA", tol=tol, return_eigenvectors=False)[0]
    bottom = sla.eigsh(h, k=1, which="SA", tol=tol, return_eigenvectors=False)[0]
    return float(max(top, -bottom))


def tournament_from_section(section: SignSection) -> TournamentMatrix:
    if section.degree != 2:
        raise ValueError("tournaments encode degree-2 sections")
    size = 2 * section.n_modes
    arr = np.zeros((size, size))
    for sign, (i, j) in zip(section.signs, section.supports):
        arr[i - 1, j - 1] = sign
        arr[j - 1, i - 1] = -sign
    return TournamentMatrix(arr)


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
    lams = vals[vals.shape[0] // 2 :]
    return float(np.abs(vals).sum() / 2.0), lams


def tournament_bound_check(t: TournamentMatrix) -> float:
    """Margin of the spectral bound ``n sqrt(2n-1)``; nonnegative up to roundoff."""
    size = t.size
    total, _ = degree2_norm(t)
    return (size / 2.0) * math.sqrt(size - 1.0) - total


def random_tournament(size: int, rng) -> TournamentMatrix:
    upper = rng.choice((-1.0, 1.0), size=(size, size))
    arr = np.triu(upper, k=1)
    return TournamentMatrix(arr - arr.T)


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


@dataclass(frozen=True)
class SkewHadamardResult:
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


def exhaustive_tournament_max(size: int, chunk: int = 8192):
    """Exact maximum of the spectral sum over every tournament of a size.

    Enumerates all sign assignments of the upper triangle; practical up to
    size 6 (32768 matrices).
    """
    n_pairs = math.comb(size, 2)
    if n_pairs > 16:
        raise ValueError("exhaustive search practical only for size <= 6")
    pairs = list(itertools.combinations(range(size), 2))
    best_val, best_bits = -1.0, 0
    for start in range(0, 2 ** n_pairs, chunk):
        stop = min(start + chunk, 2 ** n_pairs)
        block = np.zeros((stop - start, size, size))
        codes = np.arange(start, stop)
        for p, (i, j) in enumerate(pairs):
            sign = 1.0 - 2.0 * ((codes >> p) & 1)
            block[:, i, j] = sign
            block[:, j, i] = -sign
        sums = np.abs(np.linalg.eigvalsh(1j * block)).sum(axis=1) / 2.0
        top = int(np.argmax(sums))
        if sums[top] > best_val:
            best_val = float(sums[top])
            best_bits = start + top
    arr = np.zeros((size, size))
    for p, (i, j) in enumerate(pairs):
        sign = 1.0 - 2.0 * ((best_bits >> p) & 1)
        arr[i, j] = sign
        arr[j, i] = -sign
    return best_val, TournamentMatrix(arr)


def ho_bound(n_modes: int, half_degree: int) -> float:
    """Spectral upper bound ``sqrt(C(n,k)/C(2n,2k))`` on the robustness."""
    if half_degree < 1:
        raise ValueError("half_degree must be >= 1")
    return math.sqrt(
        math.comb(n_modes, half_degree) / math.comb(2 * n_modes, 2 * half_degree)
    )


def ho_bound_proven(half_degree: int) -> bool:
    """The bound is proven for half-degree at most 5, conjectured beyond."""
    return half_degree <= 5


def thm2_upper_bound(n_modes: int, degree: int) -> float | None:
    """Best proven upper bound on the degree-k robustness, None if unproven."""
    if degree % 2:
        return None
    half = degree // 2
    if half == 1:
        return 1.0 / math.sqrt(2 * n_modes - 1)
    if ho_bound_proven(half):
        return ho_bound(n_modes, half)
    return None


@dataclass(frozen=True)
class RobustnessReport:
    n_modes: int
    degree: int
    method: str  # brute-force | degree2-spectral | bound-only
    value: float | None
    section: str | None
    bounds: dict

    def __post_init__(self):
        lower = self.bounds.get("construction_lower")
        upper = self.bounds.get("thm2_upper")
        if self.value is not None:
            if lower is not None and lower > self.value + 1e-9:
                raise ValueError("lower bound exceeds the exact value")
            if upper is not None and self.value > upper + 1e-9:
                raise ValueError("exact value exceeds the upper bound")


def _reduced_enumeration(n_modes: int, degree: int):
    """Free/fixed coordinate split for the conjugation-sign quotient."""
    supports = subsets_of_size(2 * n_modes, degree)
    if degree <= 2:
        fixed = [i for i, s in enumerate(supports) if 1 in s]
    else:
        fixed = []
    free = [i for i in range(len(supports)) if i not in fixed]
    return supports, fixed, free


def robustness_bruteforce(
    n_modes: int,
    degree: int,
    budget: int = BRUTE_FORCE_BUDGET,
    chunk: int = 4096,
) -> RobustnessReport:
    """Exact robustness by maximizing the signed-sum norm over sections.

    Degree-2 sections run through the tournament spectrum (one small
    antisymmetric eigenproblem each); other degrees diagonalize the dense
    signed sum.  Exceeding the budget yields a bound-only report.
    """
    supports, fixed, free = _reduced_enumeration(n_modes, degree)
    n_s = len(supports)
    if len(free) >= 63 or 2 ** len(free) > budget:
        return build_report(n_modes, degree, method="bound-only")
    signs = np.ones(n_s, dtype=np.int64)
    best_val, best_signs = -1.0, None
    total = 2 ** len(free)
    if degree == 2:
        pair_rows = np.array([s[0] - 1 for s in supports])
        pair_cols = np.array([s[1] - 1 for s in supports])
    else:
        mats = np.stack(
            [dense_matrix(canonical_monomial(n_modes, s)) for s in supports]
        )
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        codes = np.arange(start, stop)
        block_signs = np.ones((stop - start, n_s), dtype=np.int64)
        for b, idx in enumerate(free):
            block_signs[:, idx] = 1 - 2 * ((codes >> b) & 1)
        if degree == 2:
            size = 2 * n_modes
            es = np.zeros((stop - start, size, size))
            es[:, pair_rows, pair_cols] = block_signs
            es -= np.transpose(es, (0, 2, 1))
            norms = np.abs(np.linalg.eigvalsh(1j * es)).sum(axis=1) / 2.0
        else:
            hs = np.tensordot(block_signs.astype(complex), mats, axes=(1, 0))
            vals = np.linalg.eigvalsh(hs)
            norms = np.maximum(vals[:, -1], -vals[:, 0])
        top = int(np.argmax(norms))
        if norms[top] > best_val:
            best_val = float(norms[top])
            best_signs = block_signs[top].copy()
    section = SignSection(n_modes, degree, tuple(int(v) for v in best_signs))
    method = "degree2-spectral" if degree == 2 else "brute-force"
    return build_report(
        n_modes,
        degree,
        method=method,
        value=best_val / n_s,
        section=str(section),
    )


def build_report(
    n_modes: int,
    degree: int,
    method: str,
    value: float | None = None,
    section: str | None = None,
    construction_seed: int = 0,
) -> RobustnessReport:
    """Assemble a report with every bound that applies at this size."""
    bounds: dict = {"thm2_upper": thm2_upper_bound(n_modes, degree)}
    if degree % 2 == 0:
        half = degree // 2
        bounds["ho_value"] = ho_bound(n_modes, half)
        bounds["ho_conjectured"] = not ho_bound_proven(half)
        from majorana_jm.baselines import shadow_jm_bound

        bounds["shadow_lower"] = shadow_jm_bound(n_modes, half)
        bounds["construction_lower"] = _construction_lower(
            n_modes, half, construction_seed
        )
    else:
        bounds["ho_value"] = None
        bounds["ho_conjectured"] = None
        bounds["shadow_lower"] = None
        bounds["construction_lower"] = None
    return RobustnessReport(n_modes, degree, method, value, section, bounds)


def _construction_lower(n_modes: int, half_degree: int, seed: int) -> float | None:
    """Achievable sharpness of the explicit randomized parent, if feasible.

    Uses the exact effective sharpness (mean over the rotations), which is
    a true joint-measurability witness and hence a lower bound.
    """
    from majorana_jm.matching import CoverageError, degree2_ensemble, degree2k_ensemble
    from majorana_jm.povm import sharpness_table

    try:
        if half_degree == 1:
            ens = degree2_ensemble(n_modes)
        else:
            ens = degree2k_ensemble(n_modes, half_degree, seed=seed)
    except (ValueError, CoverageError):
        return None
    return sharpness_table(ens).min_mean_sharpness
