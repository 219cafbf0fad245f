"""Column selection with restricted-invertibility certificates.

Given a full-rank k x d matrix (k <= d), one can always pick l < k columns
whose l-th singular value is within a constant of the best the spectrum
allows; the quantitative form bounds 1/s_l of the selection by a minimum
over tail sums of the spectrum.  This module computes that bound, searches
for good selections exhaustively or greedily, and evaluates the
projection-deficit functional of a selection against the span of the rest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .linalg import SingularSpectrum, complement_projector, rank_cutoff, singular_spectrum

__all__ = [
    "SelectionCertificate",
    "ri_bound_rhs",
    "ri_select",
    "projection_deficit",
]

_EXHAUSTIVE_BUDGET = 10 ** 6
_CHUNK_ENTRIES = 2 ** 20  # matrix entries per batched SVD (8 MB), bounding memory


@dataclass(frozen=True)
class SelectionCertificate:
    """A column selection with its measured quality against the spectral bound.

    ``ratio`` is (1/s_l_selected) / rhs_bound: how far the selection's
    inverse smallest singular value sits from the bound (the existence
    statement says some selection keeps this below an absolute constant).
    """

    indices: tuple[int, ...]
    s_l_selected: float
    rhs_bound: float
    ratio: float

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("selected indices must be distinct")
        if self.s_l_selected <= 0.0 or self.rhs_bound <= 0.0:
            raise ValueError("certificate requires positive s_l and bound")

    def csv_row(self) -> str:
        idx = " ".join(str(i) for i in self.indices)
        return f"{idx},{self.s_l_selected!r},{self.rhs_bound!r},{self.ratio!r}"


def ri_bound_rhs(spectrum: SingularSpectrum, l: int) -> float:
    """min over r in {l+1..k} of sqrt(d r / ((r - l) * sum of s_i^2 for i >= r)).

    ``spectrum`` must come from a full-rank k x d matrix with k <= d; the
    singular values are 1-indexed largest-first, matching the formula.
    """
    k, d = spectrum.shape[0], spectrum.shape[1]
    if k > d:
        raise ValueError("expected a wide matrix (rows <= columns)")
    if len(spectrum.values) != k:
        raise ValueError("spectrum length does not match row count")
    if not 1 <= l <= k - 1:
        raise ParameterError("l", f"[1, {k - 1}]", l)
    if spectrum.smallest <= rank_cutoff(d, spectrum.largest):
        raise ValueError("spectrum is rank-deficient; the bound assumes full rank")
    vals = spectrum.values
    best = math.inf
    for r in range(l + 1, k + 1):
        tail = sum(v * v for v in vals[r - 1:])
        best = min(best, math.sqrt(d * r / ((r - l) * tail)))
    return best


def _best_subset(m: np.ndarray, chunks) -> tuple[float, np.ndarray]:
    """Largest s_l of m[:, row] over the rows of index-array chunks; the first row wins ties."""
    best_val, best = -math.inf, None
    for block in chunks:  # one batched SVD per chunk
        vals = np.linalg.svd(np.swapaxes(m[:, block], 0, 1), compute_uv=False)[:, -1]
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best = float(vals[i]), block[i]
    return best_val, best


def ri_select(m: np.ndarray, l: int, mode: str = "exhaustive") -> SelectionCertificate:
    """Select l columns with large l-th singular value, with a quality certificate.

    Exhaustive mode maximizes s_l over all column subsets (ties broken by
    lexicographically smallest index set; subsets beyond 10^6 are refused).
    Greedy mode grows the selection one column at a time, each step taking
    the column that maximizes the running smallest singular value, lowest
    index on ties.  Candidate subsets are scored in chunks, one batched SVD
    of at most 2^20 matrix entries each.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    k, d = m.shape
    spectrum = singular_spectrum(m)
    rhs = ri_bound_rhs(spectrum, l)
    step = max(1, _CHUNK_ENTRIES // (k * l))  # subsets per batched SVD

    if mode == "exhaustive":
        n_subsets = math.comb(d, l)
        if n_subsets > _EXHAUSTIVE_BUDGET:
            raise ResourceLimitError(
                f"exhaustive search over C({d},{l}) = {n_subsets} subsets exceeds "
                f"the {_EXHAUSTIVE_BUDGET} budget")
        # combinations are lex-ordered, so the first maximum is the lex-first winner
        flat = itertools.chain.from_iterable(itertools.combinations(range(d), l))
        s_l, best = _best_subset(m, (
            np.fromiter(itertools.islice(flat, step * l), np.intp).reshape(-1, l)
            for _ in range(0, n_subsets, step)))
    elif mode == "greedy":
        best = np.empty(0, dtype=np.intp)
        for _ in range(l):
            rest = np.setdiff1d(np.arange(d), best)
            block = np.column_stack([np.tile(best, (rest.size, 1)), rest])
            _, best = _best_subset(m, (block[i:i + step] for i in range(0, rest.size, step)))
        s_l, best = _best_subset(m, [np.sort(best)[None]])
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'greedy', got {mode!r}")

    if s_l <= 0.0:
        raise ValueError("selection is singular; certificate undefined")
    return SelectionCertificate(tuple(best.tolist()), s_l, rhs, (1.0 / s_l) / rhs)


def projection_deficit(a: np.ndarray, selected, excluded) -> float:
    """Sum of squared distances from the selected columns to the span of the excluded ones.

    Equals the squared Frobenius norm of the excluded-span complement
    projector applied to the selected columns.  The two index sets must not
    overlap.
    """
    a = np.asarray(a, dtype=float)
    sel = list(selected)
    exc = list(excluded)
    if set(sel) & set(exc):
        raise ValueError("selected and excluded column sets overlap")
    proj = complement_projector(a[:, exc] if exc else np.empty((a.shape[0], 0)))
    residual = proj @ a[:, sel]
    return float(np.sum(residual * residual))
