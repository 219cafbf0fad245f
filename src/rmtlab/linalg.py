"""Singular-value utilities: spectra, ranks, variational characterizations.

Everything here wraps numpy's SVD behind small, testable contracts; the
interesting guarantees (ordering, the min-max identity for the k-th smallest
singular value) are asserted by the test suite against independent routes.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import glob
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularSpectrum",
    "singular_spectrum",
    "rank_cutoff",
    "numerical_rank",
    "complement_projector",
    "minmax_kth_smallest",
    "write_matrix",
    "read_matrix",
]


@dataclass(frozen=True)
class SingularSpectrum:
    """Non-increasing singular values of a matrix of the given shape."""

    values: tuple[float, ...]
    shape: tuple[int, int]

    def __post_init__(self):
        n_rows, n_cols = self.shape
        if len(self.values) != min(n_rows, n_cols):
            raise ValueError(
                f"expected {min(n_rows, n_cols)} singular values for shape {self.shape}, "
                f"got {len(self.values)}"
            )
        vals = self.values
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("singular values must be non-increasing")
        if vals and vals[-1] < 0.0:
            raise ValueError("singular values must be non-negative")

    @property
    def largest(self) -> float:
        return self.values[0]

    @property
    def smallest(self) -> float:
        return self.values[-1]

    def kth_smallest(self, k: int) -> float:
        """The k-th smallest singular value, k = 1 meaning the smallest."""
        if not 1 <= k <= len(self.values):
            raise ValueError(f"k must be in [1, {len(self.values)}], got {k}")
        return self.values[len(self.values) - k]


def singular_spectrum(matrix: np.ndarray) -> SingularSpectrum:
    """Full singular spectrum, largest first."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    vals = np.linalg.svd(m, compute_uv=False)
    return SingularSpectrum(tuple(float(v) for v in vals), m.shape)


def rank_cutoff(size, s_largest):
    """The one rank rule: singular values at or below size * eps * s_largest count as zero.

    ``size`` is max(rows, cols); ``s_largest`` is a float or an array, one per matrix.
    """
    return size * np.finfo(float).eps * s_largest


def numerical_rank(spectrum: SingularSpectrum) -> int:
    """Number of singular values strictly above :func:`rank_cutoff`."""
    cutoff = rank_cutoff(max(spectrum.shape), spectrum.largest if spectrum.values else 0.0)
    return int(sum(1 for v in spectrum.values if v > cutoff))


def complement_projector(vectors: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the complement of the span of the given columns.

    Rank is detected with an SVD cutoff of 1e-10 times the largest singular
    value, so nearly dependent columns do not inflate the span.  An empty or
    all-zero set of columns yields the identity.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    dim = v.shape[0]
    if v.shape[1] == 0 or not np.any(v):
        return np.eye(dim)
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    keep = s > 1e-10 * s[0]
    basis = u[:, keep]
    return np.eye(dim) - basis @ basis.T


def minmax_kth_smallest(matrix: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """The k-th smallest singular value with its optimal subspace witness.

    For an n x m matrix A with n >= m, the k-th smallest singular value equals
    the minimum over k-dimensional subspaces H of R^m of the maximum of |Ax|
    over unit x in H; the minimizer is the span of the bottom k right singular
    vectors.  Returns (value, witness) where witness is m x k orthonormal.
    """
    m = np.asarray(matrix, dtype=float)
    n_rows, n_cols = m.shape
    if n_rows < n_cols:
        raise ValueError("expected a tall or square matrix (rows >= columns)")
    if not 1 <= k <= n_cols:
        raise ValueError(f"k must be in [1, {n_cols}], got {k}")
    _, s, vt = np.linalg.svd(m)
    witness = vt[n_cols - k:, :].T
    return float(s[n_cols - k]), witness


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None if not found.

    Looked up on first use, not at import.  Only numpy's wheel copy in
    ``numpy.libs`` is searched; MKL, Accelerate or a system BLAS give None.
    """
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block, then restore the caller's count.

    Batched SVDs of many matrices gain more from threads over whole blocks than
    from BLAS threads inside each SVD, which oversubscribe the cores.  The count
    is process-wide: overlapping blocks from several threads share one pin, set
    by the first to enter and restored by the last to leave.  A no-op when
    numpy's OpenBLAS is not found.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        blas = _openblas()
        if blas is not None:
            if _blas_depth == 0:
                _blas_saved = blas[0]()
                blas[1](1)
            _blas_depth += 1
    try:
        yield
    finally:
        if blas is not None:
            with _blas_lock:
                _blas_depth -= 1
                if _blas_depth == 0:
                    blas[1](_blas_saved)


def _remove(path) -> None:
    """Remove whatever is at ``path`` (a link itself, not its target), if anything."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _create(path):
    """Open ``path`` for writing as a new file, removing whatever was there first.

    A link at ``path`` is replaced, never written through, and no existing file
    is truncated (on ext4 a truncated file's close starts writeback).
    """
    _remove(path)
    return open(path, "x", newline="")


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a dense matrix as CSV with a ``rows,cols`` header line, as a new file."""
    m = np.asarray(matrix, dtype=float)
    with _create(path) as fh:
        writer = csv.writer(fh)
        writer.writerow([m.shape[0], m.shape[1]])
        for row in m:
            writer.writerow([repr(float(v)) for v in row])


def read_matrix(path) -> np.ndarray:
    """Inverse of :func:`write_matrix`; validates the declared shape."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            n_rows, n_cols = int(header[0]), int(header[1])
        except (StopIteration, ValueError, IndexError) as exc:
            raise ValueError(f"{path}: expected a rows,cols header line") from exc
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"{path}: header declares a negative shape {n_rows},{n_cols}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row and n_cols:  # a row of a 0-column matrix is an empty line
                continue
            if len(row) != n_cols:
                raise ValueError(f"{path}:{line_no}: expected {n_cols} values, got {len(row)}")
            rows.append([float(v) for v in row])
    if len(rows) != n_rows:
        raise ValueError(f"{path}: header declares {n_rows} rows, found {len(rows)}")
    return np.asarray(rows, dtype=float).reshape(n_rows, n_cols)
