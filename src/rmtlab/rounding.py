"""Randomized rounding of vector tuples onto a scaled integer grid.

Rounding a tuple of vectors onto delta * Z^n coordinate-by-coordinate, with
the fractional part deciding the coin bias, preserves each vector in
expectation while landing it on a countable net.  The verifier here measures
the seven guarantees such a rounding is expected to satisfy (proximity,
operator-norm drift, almost-orthogonality, span incompressibility, lattice
distance, the annulus condition, and bounded images under a fixed matrix).

The net membership predicate and the uniform lattice-shell sampler used by
the counting arguments live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import matrix_lattice_distance
from .ensembles import EntryProfile
from .errors import ParameterError, ResourceLimitError
from .sphere import almost_orthogonal_check, dist_to_sparse, sampled_span_incompressible

__all__ = [
    "PropertyCheck",
    "RoundingParams",
    "RoundingReport",
    "annulus_check",
    "randomized_round",
    "rounding_report",
    "in_rounding_net",
    "sample_lattice_shell",
]

_GRID_SNAP = 1e-9


@dataclass(frozen=True)
class RoundingParams:
    """Thresholds for the rounding guarantees.

    delta in (0, inf) is the grid step, rho in (0, 1) the compressibility radius, tau
    in (0, 1) the span incompressibility level (the span check runs at (tau^2, tau^4/2)),
    K in [1, inf) the psi2 cap of the ambient ensemble, r in (0, inf) the lower norm scale
    of the annulus condition, and c_op in (0, inf) the empirical constant for the
    operator-norm drift.  A value outside raises :class:`~rmtlab.errors.ParameterError`.
    """

    delta: float
    rho: float
    tau: float
    K: float
    r: float
    c_op: float = 3.0

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ParameterError("delta", "(0, inf)", self.delta)
        for name in ("rho", "tau"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ParameterError(name, "(0, 1)", getattr(self, name))
        if not self.K >= 1.0:
            raise ParameterError("K", "[1, inf)", self.K)
        for name in ("r", "c_op"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(name, "(0, inf)", getattr(self, name))


@dataclass(frozen=True)
class PropertyCheck:
    """One measured guarantee: the value observed, the threshold, and the verdict."""

    name: str
    measured: float
    threshold: float
    passed: bool

    def csv_row(self) -> str:
        return f"{self.name},{self.measured!r},{self.threshold!r},{self.passed}"


@dataclass(frozen=True)
class RoundingReport:
    """The seven rounding guarantees with measured values attached."""

    sup_norm: PropertyCheck
    op_norm: PropertyCheck
    almost_orth: PropertyCheck
    span_incomp: PropertyCheck
    lattice_dist: PropertyCheck
    annulus: PropertyCheck
    image_norm: PropertyCheck

    @property
    def checks(self) -> tuple[PropertyCheck, ...]:
        return (self.sup_norm, self.op_norm, self.almost_orth, self.span_incomp,
                self.lattice_dist, self.annulus, self.image_norm)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def csv_rows(self) -> list:
        return [c.csv_row() for c in self.checks]


def randomized_round(v: np.ndarray, delta: float, stream: np.random.Generator) -> np.ndarray:
    """Round each coordinate onto the delta-grid, unbiased.

    Coordinate v_i is rounded down to the grid and bumped up one step with
    probability equal to its fractional grid offset, so E[u_i] = v_i and
    |u_i - v_i| <= delta always.  Coordinates already on the grid (within
    1e-9 of a grid point, relatively) stay put.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    v = np.asarray(v, dtype=float)
    scaled = v / delta
    base = np.floor(scaled)
    frac = scaled - base
    snap_up = frac > 1.0 - _GRID_SNAP
    base = base + snap_up
    frac = np.where(snap_up, 0.0, frac)
    frac = np.where(frac < _GRID_SNAP, 0.0, frac)
    bump = stream.random(v.shape) < frac
    return (base + bump) * delta


def _as_tuple_matrix(t: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(t, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"{name} must be an (n x l) array of column vectors")
    return m


def rounding_report(v_tuple: np.ndarray, u_tuple: np.ndarray, a_profile: EntryProfile,
                    b_matrix: np.ndarray, params: RoundingParams,
                    stream: np.random.Generator, n_span_samples: int = 1000,
                    n_annulus_samples: int = 1000, mc_trials: int = 1000) -> RoundingReport:
    """Measure the seven guarantees of a rounded tuple U against its source V.

    Columns of ``v_tuple``/``u_tuple`` are the vectors.  Lattice distances
    are expectations over ``a_profile`` (the ensemble the vectors will be
    tested against), so the profile rather than a sampled matrix enters;
    ``b_matrix`` is the fixed matrix of the bounded-image guarantee.  The
    span and annulus conditions are sampled, not certified.  ``mc_trials``
    is accepted and not read: every lattice expectation is exact.
    """
    v = _as_tuple_matrix(v_tuple, "v_tuple")
    u = _as_tuple_matrix(u_tuple, "u_tuple")
    if v.shape != u.shape:
        raise ValueError(f"tuple shapes differ: {v.shape} vs {u.shape}")
    n = v.shape[0]
    if a_profile.n_rows != n:
        raise ValueError(f"profile rows {a_profile.n_rows} do not match vector length {n}")
    b = np.asarray(b_matrix, dtype=float)
    if b.ndim != 2 or b.shape[1] != n:
        raise ValueError(f"b_matrix must have {n} columns")
    sqrt_n = math.sqrt(n)

    sup_meas = float(np.max(np.abs(u - v)))
    sup = PropertyCheck("sup_norm", sup_meas, params.delta, sup_meas <= params.delta)

    op_meas = float(np.linalg.svd(u - v, compute_uv=False)[0])
    op_thresh = params.c_op * params.delta * sqrt_n
    op = PropertyCheck("op_norm", op_meas, op_thresh, op_meas <= op_thresh)

    _, s_min, s_max = almost_orthogonal_check(u, 0.25)
    orth_meas = max(1.0 - s_min, s_max - 1.0)
    orth = PropertyCheck("almost_orth", orth_meas, 0.25, orth_meas <= 0.25)

    span_rho = params.tau ** 4 / 2.0
    span_ok, span_worst = sampled_span_incompressible(u, params.tau ** 2, span_rho,
                                                      stream, n_span_samples)
    incomp = PropertyCheck("span_incomp", span_worst, span_rho, span_ok)

    dist_meas = float(np.max(matrix_lattice_distance(u, a_profile)))
    dist_thresh = 2.0 * params.rho * sqrt_n
    lattice = PropertyCheck("lattice_dist", dist_meas, dist_thresh, dist_meas < dist_thresh)

    annulus = annulus_check(u, a_profile, 8.0 * params.r * sqrt_n, (params.rho / 2.0) * sqrt_n,
                            stream, n_annulus_samples)

    img_meas = float(np.max(np.linalg.norm(b @ u, axis=0)))
    img_thresh = 2.0 * params.K * params.delta * n
    image = PropertyCheck("image_norm", img_meas, img_thresh, img_meas <= img_thresh)

    return RoundingReport(sup, op, orth, incomp, lattice, annulus, image)


def annulus_check(u: np.ndarray, a_profile: EntryProfile, keep_norm: float,
                  threshold: float, stream: np.random.Generator,
                  n_samples: int) -> PropertyCheck:
    """Sampled check that small-coefficient, large-image combinations stay lattice-far.

    Draws theta uniformly in the ball of radius 1/(20 sqrt(l)), keeps those
    with |U theta| >= keep_norm, and requires the lattice distance of every
    kept image to exceed ``threshold``; all kept images go to
    :func:`matrix_lattice_distance` in one batch.  The measured value is the
    smallest such distance; no kept sample means a vacuous pass with
    measured value +inf.  At least one sample must be drawn.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    l = u.shape[1]
    ball_radius = 1.0 / (20.0 * math.sqrt(l))
    raw = stream.standard_normal((l, n_samples))
    raw /= np.linalg.norm(raw, axis=0)
    radii = ball_radius * stream.random(n_samples) ** (1.0 / l)
    images = u @ (raw * radii)
    kept = images[:, np.linalg.norm(images, axis=0) >= keep_norm]
    measured = math.inf
    if kept.shape[1]:
        measured = float(np.min(matrix_lattice_distance(kept, a_profile)))
    return PropertyCheck("annulus", measured, threshold, measured > threshold)


def _grid_coordinates(u: np.ndarray, delta: float) -> np.ndarray:
    """Integer grid coordinates of u, or a domain error when u is off-grid."""
    scaled = np.asarray(u, dtype=float) / delta
    nearest = np.round(scaled)
    tol = 1e-12 * np.maximum(1.0, np.abs(scaled))
    if np.any(np.abs(scaled - nearest) > tol):
        worst = float(np.max(np.abs(scaled - nearest)))
        raise ValueError(f"input is not on the delta-grid (worst offset {worst:.3e} steps)")
    return nearest


def in_rounding_net(u_tuple: np.ndarray, radii, a_profile: EntryProfile,
                    params: RoundingParams, stream: np.random.Generator,
                    n_span_samples: int = 1000) -> bool:
    """Membership in the rounding net for radius list d.

    Requires each grid vector u_j to have norm in [d_j/2, 4 d_j] (inclusive),
    lattice distance below 2 rho sqrt(n), and the tuple's span to avoid the
    compressible set at level (tau^2, tau^4/2) (sampled).  Off-grid input is
    a domain error.
    """
    u = _as_tuple_matrix(u_tuple, "u_tuple")
    _grid_coordinates(u, params.delta)
    d = np.asarray(radii, dtype=float)
    if d.size != u.shape[1]:
        raise ValueError(f"expected {u.shape[1]} radii, got {d.size}")
    n = u.shape[0]
    norms = np.linalg.norm(u, axis=0)
    if np.any(norms < d / 2.0) or np.any(norms > 4.0 * d):
        return False
    limit = 2.0 * params.rho * math.sqrt(n)
    if np.any(matrix_lattice_distance(u, a_profile) >= limit):
        return False
    ok, _ = sampled_span_incompressible(u, params.tau ** 2, params.tau ** 4 / 2.0,
                                        stream, n_span_samples)
    return ok


def sample_lattice_shell(delta: float, d_j: float, n: int, sphere_params,
                         stream: np.random.Generator,
                         max_proposals: int = 10 ** 6) -> np.ndarray:
    """Uniform sample from the grid points in the norm window with spread direction.

    The target set is delta * Z^n intersected with the shell
    d_j/2 <= |u| <= 4 d_j, restricted to directions whose distance to the
    (tau^2)-sparse set exceeds tau^4/2, with tau taken from ``sphere_params``.
    Proposals are uniform over the grid box enclosing the shell, so accepted
    points are uniform over the target.  Infeasible below d_j = delta *
    sqrt(n); persistent rejection raises a resource error carrying the
    proposal count.
    """
    tau = sphere_params.tau
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if d_j < delta * math.sqrt(n):
        raise ValueError(f"d_j = {d_j} below the coarsest shell delta*sqrt(n) = "
                         f"{delta * math.sqrt(n):.6g}")
    top = int(math.floor(4.0 * d_j / delta))
    lo, hi = d_j / 2.0, 4.0 * d_j
    batch = 1024
    proposed = 0
    while proposed < max_proposals:
        coords = stream.integers(-top, top + 1, size=(batch, n))
        proposed += batch
        pts = coords * delta
        norms = np.linalg.norm(pts, axis=1)
        window = np.flatnonzero((norms >= lo) & (norms <= hi))
        spread = dist_to_sparse((pts[window] / norms[window, None]).T, tau ** 2) > tau ** 4 / 2.0
        if spread.any():
            return pts[window[np.argmax(spread)]]
    raise ResourceLimitError(
        f"lattice-shell sampler found no acceptable point in {proposed} proposals "
        f"(delta={delta}, d_j={d_j}, n={n}, tau={tau})")
