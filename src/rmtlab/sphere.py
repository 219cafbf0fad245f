"""Decomposition of the unit sphere into compressible and incompressible parts.

A unit vector is compressible when it sits within distance rho of the set of
vectors supported on at most floor(delta * n) coordinates, and incompressible
otherwise.  Incompressible vectors carry many coordinates of comparable size,
which is what the anti-concentration machinery feeds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import singular_spectrum

__all__ = [
    "SphereParams",
    "dist_to_sparse",
    "classify_vector",
    "spread_coordinates",
    "almost_orthogonal_check",
    "sampled_span_incompressible",
]

_UNIT_TOL = 1e-8


@dataclass(frozen=True)
class SphereParams:
    """Sphere-decomposition parameters; every field must lie strictly in (0, 1).

    delta/rho control the sparse and compressible sets, tau the
    incompressibility level used for span checks (span parameters are
    (tau^2, tau^4/2) where they appear).
    """

    delta: float
    rho: float
    tau: float = 0.5

    def __post_init__(self):
        for name in ("delta", "rho", "tau"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


def _check_unit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-d vector")
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValueError(f"expected a unit vector, got norm {norm!r}")
    return x


def dist_to_sparse(x: np.ndarray, delta: float):
    """Euclidean distance from x to the vectors supported on <= floor(delta*n) coords.

    ``x`` is one vector (the result is a float) or an n x B array of column
    vectors (the result is an array of B distances, the same as B single
    calls).  The nearest sparse vector keeps the floor(delta*n)
    largest-magnitude coordinates, so the distance is the norm of the rest.
    When the support budget floors to zero only the zero vector is sparse
    and the distance is the full norm of x.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected a vector or an n x B array, got shape {x.shape}")
    n = x.shape[0]
    mags = np.abs(np.ascontiguousarray((x[:, None] if x.ndim == 1 else x).T))
    budget = int(delta * n)
    if budget > 0:
        mags = np.sort(mags, axis=1)[:, : max(n - budget, 0)]
    # One dot product per column, the sum a 1-d np.linalg.norm takes, so a batch
    # is bit-equal to single calls; axis norms and einsum can differ in the last bit.
    dists = np.sqrt(mags[:, None, :] @ mags[:, :, None])[:, 0, 0]
    return float(dists[0]) if x.ndim == 1 else dists


def classify_vector(x: np.ndarray, params: SphereParams) -> str:
    """'compressible' or 'incompressible' for a unit vector (boundary is compressible)."""
    x = _check_unit(x)
    return "compressible" if dist_to_sparse(x, params.delta) <= params.rho else "incompressible"


def spread_coordinates(u: np.ndarray, delta: float, rho: float) -> tuple[np.ndarray, bool]:
    """Comparable-magnitude coordinates of a unit vector, with the spread guarantee flag.

    Returns (indices, passed) where indices collects the coordinates with
    rho/sqrt(2n) <= |u_i| <= 1/sqrt(delta*n), and passed reports whether at
    least rho^2 * delta * n / 2 of them exist, the count guaranteed for
    incompressible vectors.
    """
    u = _check_unit(u)
    n = u.size
    mags = np.abs(u)
    lo = rho / math.sqrt(2.0 * n)
    hi = 1.0 / math.sqrt(delta * n)
    idx = np.flatnonzero((mags >= lo) & (mags <= hi))
    return idx, bool(idx.size >= rho ** 2 * delta * n / 2.0)


def almost_orthogonal_check(vectors: np.ndarray, nu: float) -> tuple[bool, float, float]:
    """Whether the normalized columns have all singular values within nu of 1.

    Returns (passed, s_min, s_max) of the column-normalized matrix.  A zero
    column cannot be normalized and is a domain error.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    norms = np.linalg.norm(v, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero column")
    spec = singular_spectrum(v / norms)
    return (spec.smallest >= 1.0 - nu and spec.largest <= 1.0 + nu,
            spec.smallest, spec.largest)


def sampled_span_incompressible(vectors: np.ndarray, delta: float, rho: float,
                                stream: np.random.Generator,
                                n_samples: int = 1000) -> tuple[bool, float]:
    """Monte Carlo check that unit vectors in span(columns) avoid the compressible set.

    Draws ``n_samples`` uniform directions in the span and measures each
    one's distance to the sparse set; returns (all strictly above rho, worst
    distance seen).  A sampled check can only certify failure, never success,
    and it needs at least one sample.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    v = np.asarray(vectors, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    q, r = np.linalg.qr(v)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.abs(r).max()))
    q = q[:, keep]
    if q.shape[1] == 0:
        raise ValueError("span is trivial; nothing to sample")
    coeffs = stream.standard_normal((q.shape[1], n_samples))
    coeffs /= np.linalg.norm(coeffs, axis=0)
    worst = float(np.min(dist_to_sparse(q @ coeffs, delta)))
    return worst > rho, worst
