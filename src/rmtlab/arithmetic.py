"""Lattice arithmetic structure of random vectors.

The central objects: distance from a vector to the integer lattice, the
expected squared lattice distance of Schur products against symmetrized
entry laws, and the induced randomized log-least-common-denominator
(the norm threshold past which some direction in a subspace produces
lattice-correlated projections).  A small Levy concentration estimator and
the matching small-ball upper bound evaluator round out the toolkit.

Expectations decompose per coordinate and are exact: finite laws sum over
the atoms of X - X', and gaussian and uniform laws take closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import EntryProfile
from .errors import ParameterError, ResourceLimitError

__all__ = [
    "RLCDParams",
    "RLCDEstimate",
    "dist_to_lattice",
    "log_plus",
    "expected_sq_dist_to_lattice",
    "matrix_lattice_distance",
    "rlcd_estimate",
    "levy_estimate",
    "esseen_bound_eval",
    "count_lattice_points",
]


def dist_to_lattice(y: np.ndarray) -> float:
    """Euclidean distance from y to the integer lattice (per-coordinate rounding)."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("expected finite entries")
    return float(np.linalg.norm(y - np.round(y)))


def _residual_sq(z: np.ndarray) -> np.ndarray:
    r = z - np.round(z)
    return r * r


_M = np.arange(1, 33)
#: (-1)^(m+1) / (pi m)^2 for m = 1..32, and the sum of the terms past m = 32 (to 16 digits).
_FOURIER = -(-1.0) ** _M / (math.pi * _M) ** 2
_FOURIER_TAIL = 4.792870103589944e-05


def _expected_residual_sq(group, y: np.ndarray) -> np.ndarray:
    """E (w - round w)^2 for w = y (X - X'), X and X' iid of group.law, elementwise over y.

    Finite laws sum over the atoms of X - X'.  Gaussian: w ~ N(0, s) with
    s = 2 y^2, and the expectation is s to double precision when s <= 1/400;
    otherwise it is 1/12 + sum_m (-1)^m e^(-2 pi^2 m^2 s) / (pi m)^2, summed as
    sum_m (-1)^(m+1) (1 - e^(-2 pi^2 m^2 s)) / (pi m)^2 to avoid cancellation,
    with terms past m = 32 below e^(-50).  Uniform: w is triangular on [-a, a],
    a = 2 sqrt(3) |y|; the expectation is 2 y^2 when a <= 1/2, and otherwise
    1/12 + (2 q({a + 1/2}) - 1/8) / (12 a^2), q(x) = x^2 (1 - x)^2 being the
    fourth Bernoulli polynomial up to a constant.
    """
    if group.atoms is not None:
        return _residual_sq(y[..., None] * group.atoms) @ group.weights
    s = 2.0 * y * y
    if group.law.kind == "gaussian":
        series = _FOURIER_TAIL - np.expm1(-2.0 * math.pi ** 2 * s[..., None] * _M ** 2) @ _FOURIER
        return np.where(s <= 1.0 / 400.0, s, series)
    a = np.maximum(2.0 * math.sqrt(3.0) * np.abs(y), 0.5)
    x = np.mod(a + 0.5, 1.0)
    return np.where(a <= 0.5, s, 1.0 / 12.0 + (2.0 * (x * (1.0 - x)) ** 2 - 0.125) / (12.0 * a * a))


def _sq_dists(ys: np.ndarray, columns) -> np.ndarray:
    """E dist^2(y * xi_bar, Z^n) for every row y of ys and every column: shape (columns, B).

    ``columns`` holds one tuple of :class:`LawGroup` per column.  Each group
    is evaluated for the whole batch at once, and each column's total adds
    its groups in order, as a per-vector loop would.
    """
    out = np.zeros((len(columns), ys.shape[0]))
    for c, groups in enumerate(columns):
        for g in groups:
            out[c] += np.sum(_expected_residual_sq(g, ys[:, g.rows]), axis=1)
    return out


def expected_sq_dist_to_lattice(y: np.ndarray, laws) -> float:
    """E dist^2(y * xi_bar, Z^n) for xi_bar with independent symmetrized entries.

    ``laws[i]`` is the (unsymmetrized) law of coordinate i.  The squared
    distance splits into per-coordinate terms, each computed exactly.
    """
    y = np.asarray(y, dtype=float)
    laws = tuple(laws)
    if y.size != len(laws):
        raise ValueError(f"vector length {y.size} does not match {len(laws)} laws")
    column = EntryProfile(laws, np.arange(len(laws)).reshape(-1, 1), math.inf)
    return float(_sq_dists(y.reshape(1, -1), column.lattice_plan.groups)[0, 0])


def _column_groups(profile: EntryProfile, column_indices) -> list:
    """The law groups of the given profile columns, for :func:`_sq_dists`.

    A column repeated in ``column_indices`` or in the profile appears once;
    distinct columns keep their order of first appearance.
    """
    plan = profile.lattice_plan
    return [plan.groups[c] for c in dict.fromkeys(plan.column_of[list(column_indices)].tolist())]


def matrix_lattice_distance(x: np.ndarray, profile: EntryProfile, mc_trials: int = 1000,
                            stream: np.random.Generator | None = None):
    """Lattice distance of x against a matrix profile: the best column wins.

    For each column j, computes E dist^2(x * symmetrized column j, Z^n) and
    returns the square root of the minimum over columns.  ``x`` is one
    vector (the result is a float) or an n x B array of column vectors (the
    result is an array of B distances, the same as B single calls).

    Columns with equal laws are evaluated once, so a homogeneous profile
    costs one column.  Every expectation is exact (see
    :func:`expected_sq_dist_to_lattice`); ``mc_trials`` and ``stream`` are
    accepted and not read.
    """
    x = np.asarray(x, dtype=float)
    n = profile.n_rows
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"expected a length-{n} vector or an {n} x B array, got shape {x.shape}")
    ys = np.ascontiguousarray(x.reshape(n, -1).T)
    sq = _sq_dists(ys, _column_groups(profile, range(profile.n_cols)))
    best = np.sqrt(np.maximum(np.min(sq, axis=0), 0.0))
    return float(best[0]) if x.ndim == 1 else best


def log_plus(v: float) -> float:
    """max(0, natural log)."""
    return max(0.0, math.log(v)) if v > 0.0 else 0.0


@dataclass(frozen=True)
class RLCDParams:
    """Search parameters for the log-least-common-denominator estimate.

    Domains (a value outside raises :class:`~rmtlab.errors.ParameterError`): L in
    (0, inf), alpha in (0, 1), radius_cap in (0, inf), resolution in (0, radius_cap),
    mc_trials in [100, inf).  ``mc_trials`` is not read: every lattice expectation is exact.
    """

    L: float
    alpha: float
    radius_cap: float
    resolution: float
    mc_trials: int = 1000

    def __post_init__(self):
        if not self.L > 0.0:
            raise ParameterError("L", "(0, inf)", self.L)
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha", "(0, 1)", self.alpha)
        if not 0.0 < self.radius_cap < math.inf:
            raise ParameterError("radius_cap", "(0, inf)", self.radius_cap)
        if not 0.0 < self.resolution < self.radius_cap:
            raise ParameterError("resolution", f"(0, {self.radius_cap!r})", self.resolution)
        if not self.mc_trials >= 100:
            raise ParameterError("mc_trials", "[100, inf)", self.mc_trials)


@dataclass(frozen=True)
class RLCDEstimate:
    """Interval answer of the denominator search.

    ``lower`` is the largest norm exhaustively cleared at grid resolution,
    ``upper`` the smallest witness norm found (infinite when none), and
    ``witness`` the witnessing coefficient vector when one exists.  ``note``
    flags degenerate searches.
    """

    lower: float
    upper: float
    witness: np.ndarray | None = None
    note: str | None = None

    def __post_init__(self):
        if self.lower < 0.0 or self.lower > self.upper:
            raise ValueError("estimate interval must satisfy 0 <= lower <= upper")
        if (self.witness is None) != math.isinf(self.upper):
            raise ValueError("witness must be present exactly when upper is finite")


def rlcd_estimate(basis: np.ndarray, profile: EntryProfile, column_indices,
                  params: RLCDParams, stream: np.random.Generator,
                  n_directions: int = 32, trace: list | None = None) -> RLCDEstimate:
    """Interval estimate of the least coefficient norm producing lattice correlation.

    ``basis`` is an m x n matrix whose rows span the target (the m candidate
    directions' coordinates, or an orthonormal basis of a subspace, in which
    case coefficient norms equal vector norms).  A coefficient vector theta
    is a witness when, for y = basis^T theta, some profile column j in
    ``column_indices`` satisfies

        E dist^2(y * symmetrized column j, Z^n)  <  L^2 * log_plus(alpha |y| / L).

    The search walks spheres of radius floor, floor + resolution, ... up to
    radius_cap, where floor = L / (alpha * s_max(basis)) is the analytic
    threshold below which the right side vanishes.  On each sphere it tests
    signed axis directions plus ``n_directions`` random ones (none random
    when m = 1, where the axis pair is exhaustive).  When ``trace`` is a
    list, one (radius, lhs, rhs, witness_flag) row per radius is appended
    for the best direction seen at that radius, up to and including the
    first witness.

    All directions of one radius go to the lattice kernel as one batch (see
    :func:`matrix_lattice_distance`): selected columns with equal laws are
    evaluated once, and the first witness in direction order is reported.
    The stream supplies the random directions only.
    """
    v = np.asarray(basis, dtype=float)
    if v.ndim != 2:
        raise ValueError("basis must be a 2-d array (rows spanning the target)")
    m, n = v.shape
    if m == 0:
        raise ValueError("basis has no rows")
    if n != profile.n_rows:
        raise ValueError(f"basis columns {n} do not match profile rows {profile.n_rows}")
    if not np.all(np.isfinite(v)):
        raise ValueError("basis has non-finite entries")
    if not isinstance(n_directions, (int, np.integer)) or n_directions < 0:
        raise ValueError(f"n_directions must be an integer >= 0, got {n_directions!r}")
    cols = list(column_indices)
    if not cols or any(not isinstance(j, (int, np.integer)) or not 0 <= j < profile.n_cols
                       for j in cols):
        raise ValueError("column_indices must be a non-empty subset of profile columns")
    svals = np.linalg.svd(v, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise ValueError("basis rows must be linearly independent")
    floor = params.L / (params.alpha * float(svals[0]))
    if params.radius_cap < floor:
        return RLCDEstimate(lower=params.radius_cap, upper=math.inf, witness=None,
                            note="search exhausted below analytic floor")

    if m == 1:
        fixed_dirs = np.array([[1.0], [-1.0]])
        n_random = 0
    else:
        fixed_dirs = np.concatenate([np.eye(m), -np.eye(m)])
        n_random = n_directions

    n_steps = int(math.floor((params.radius_cap - floor) / params.resolution))
    columns = _column_groups(profile, cols)
    l_sq = params.L ** 2
    cleared = floor
    for step in range(n_steps + 1):
        radius = floor + step * params.resolution
        dirs = fixed_dirs
        if n_random:
            extra = stream.standard_normal((n_random, m))
            extra /= np.linalg.norm(extra, axis=1, keepdims=True)
            dirs = np.concatenate([fixed_dirs, extra])
        thetas = radius * dirs
        # A stacked matmul issues one product per direction, as v.T @ theta does, and the
        # norms are the per-row dot products a 1-d np.linalg.norm takes; the single
        # product thetas @ v rounds differently.
        ys = np.matmul(v.T, thetas[:, :, None])[:, :, 0]
        norms = np.sqrt(ys[:, None, :] @ ys[:, :, None])[:, 0, 0].tolist()
        rhs = [l_sq * log_plus(params.alpha * norm / params.L) for norm in norms]
        lhs = np.min(_sq_dists(ys, columns), axis=0).tolist()
        best = (math.inf, -math.inf)  # (lhs - rhs margin, rhs) of the best direction so far
        hit = None
        for theta, left, right in zip(thetas, lhs, rhs):
            if left - right < best[0]:
                best = (left - right, right)
            if left < right:
                hit = theta
                break
        if trace is not None:
            trace.append((radius, best[0] + best[1], best[1], hit is not None))
        if hit is not None:
            return RLCDEstimate(lower=cleared, upper=radius, witness=hit)
        cleared = radius
    return RLCDEstimate(lower=cleared, upper=math.inf, witness=None)


def levy_estimate(sampler, t: float, mc_trials: int,
                  stream: np.random.Generator) -> tuple[float, float]:
    """Empirical concentration function: max probability mass of a radius-t ball.

    ``sampler(stream, count)`` must return a (count, m) array.  The supremum
    over ball centers is approximated by a finite menu: the origin, the
    componentwise median, and 32 of the observed points (all of them when
    fewer were drawn).
    Returns (probability, binomial standard error).
    """
    if not t >= 0.0:
        raise ValueError("t must be non-negative")
    pts = np.asarray(sampler(stream, mc_trials), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    centers = [np.zeros(pts.shape[1]), np.median(pts, axis=0)]
    centers.extend(pts[stream.choice(mc_trials, size=min(32, mc_trials), replace=False)])
    best = 0.0
    for c in centers:
        mass = float(np.mean(np.linalg.norm(pts - c, axis=1) <= t))
        best = max(best, mass)
    return best, math.sqrt(best * (1.0 - best) / mc_trials)


def esseen_bound_eval(m: int, L: float, alpha: float, det_root: float,
                      rd: float, t: float, C: float) -> float:
    """Small-ball upper bound (C L / (alpha sqrt(m)))^m / det_root * (t + sqrt(m)/rd)^m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not det_root > 0.0:
        raise ValueError("det_root must be positive")
    shift = 0.0 if math.isinf(rd) else math.sqrt(m) / rd
    return (C * L / (alpha * math.sqrt(m))) ** m / det_root * (t + shift) ** m


def count_lattice_points(n: int, radius: float) -> tuple[int, float]:
    """Exact count of integer points in the ball of the given radius, with its bound.

    ``shell[s]`` counts the coordinates v in [-ceil(R), ceil(R)] with
    v^2 = s; its n-fold integer convolution counts the points of the box
    [-ceil(R), ceil(R)]^n with squared norm s, and the count sums those for
    s <= floor(R^2), which an integer s meets exactly when s <= R^2.  The
    companion value is the bound (2 + 3 R / sqrt(n))^n.  The function covers
    n <= 4 and R <= 20 and raises :class:`ResourceLimitError` outside them.
    """
    if not 1 <= n <= 4 or radius > 20.0:
        raise ResourceLimitError(f"enumeration limited to n <= 4 and radius <= 20, "
                                 f"got n={n}, radius={radius}")
    if radius < 0.0:
        raise ValueError("radius must be non-negative")
    top = math.ceil(radius)
    shell = np.bincount(np.arange(-top, top + 1, dtype=np.int64) ** 2)
    by_norm = np.ones(1, dtype=np.int64)
    for _ in range(n):
        by_norm = np.convolve(by_norm, shell)
    count = int(by_norm[:math.floor(radius * radius) + 1].sum())
    bound = (2.0 + 3.0 * radius / math.sqrt(n)) ** n
    return count, bound
