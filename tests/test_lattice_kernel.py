"""The batched lattice-distance kernel against the per-vector, per-column loop.

The reference functions below follow the 0.2.0 implementations: one
``expected_sq_dist_to_lattice`` call per vector and per profile column, with
the laws of the column grouped on every call.  Finitely supported laws must
give bit-identical results through the batched kernel.  Gaussian laws are
checked against an exact reference computed cell by cell, independently of
the kernel's Fourier series, to 1e-12 relative; for them the batch must
still equal per-vector calls bit for bit.
"""

import math
import os

import numpy as np
import pytest
from scipy.special import erf

from rmtlab.arithmetic import (RLCDEstimate, RLCDParams, _sq_dists, expected_sq_dist_to_lattice,
                               log_plus, matrix_lattice_distance, rlcd_estimate)
from rmtlab.cli import parse_campaign, run_campaign
from rmtlab.ensembles import (DistributionLaw, EntryProfile, discrete, gaussian,
                              profile_from_rules, rademacher, sparse_bernoulli, uniform_scaled)
from rmtlab.experiments import KernelEventParams, kernel_tuple_event_check
from rmtlab.rounding import RoundingParams, randomized_round, rounding_report
from rmtlab.sphere import almost_orthogonal_check, sampled_span_incompressible

# --- 0.2.0 reference: one vector, one column at a time ---

_GL_NODES, _GL_WEIGHTS = (t / 2.0 for t in np.polynomial.legendre.leggauss(64))


def ref_gaussian_esd(y):
    """E (w - round w)^2 for w ~ N(0, 2 y^2), from the cells [j - 1/2, j + 1/2).

    Below sigma = 1/2, each cell's first two moments come from erf.  Above
    it, the density is folded onto [-1/2, 1/2) by summing its shifts by every
    integer j, and the folded integral is taken by 64-point Gauss-Legendre.
    """
    sigma = math.sqrt(2.0) * abs(y)
    if sigma == 0.0:
        return 0.0
    top = math.ceil(12.0 * sigma) + 1
    j = np.arange(-top, top + 1)[:, None]
    if sigma >= 0.5:
        folded = np.exp(-(_GL_NODES + j) ** 2 / (2.0 * sigma ** 2)).sum(axis=0)
        return float(np.sum(_GL_WEIGHTS * _GL_NODES ** 2 * folded)
                     / (sigma * math.sqrt(2.0 * math.pi)))
    lo, hi = j - 0.5, j + 0.5
    mass = 0.5 * (erf(hi / (sigma * math.sqrt(2.0))) - erf(lo / (sigma * math.sqrt(2.0))))

    def edge(w):  # sigma^2 times the density at w
        return sigma / math.sqrt(2.0 * math.pi) * np.exp(-w * w / (2.0 * sigma ** 2))

    first = edge(lo) - edge(hi)  # integral of w over the cell
    second = sigma ** 2 * mass - (hi * edge(hi) - lo * edge(lo))  # integral of w^2
    return float(np.sum(second - 2.0 * j * first + j * j * mass))


def ref_esd(y, laws):
    y = np.asarray(y, dtype=float)
    groups = {}
    for i, law in enumerate(laws):
        groups.setdefault(law, []).append(i)
    total = 0.0
    for law, idx in groups.items():
        support = law.symmetrized_support()
        coords = y[idx]
        if support is not None:
            atoms, weights = support
            r = coords[:, None] * np.asarray(atoms)[None, :]
            r = r - np.round(r)
            total += float(np.sum((r * r) @ np.asarray(weights)))
        else:
            assert law.kind == "gaussian"
            total += math.fsum(ref_gaussian_esd(v) for v in coords)
    return total


def ref_mld(x, profile):
    best = min(ref_esd(x, profile.column(j)) for j in range(profile.n_cols))
    return math.sqrt(max(best, 0.0))


def assert_matches(got, want, name):
    """Bit for bit on finite profiles; within 1e-12 relative on the others."""
    if name in FINITE:
        assert got == want
    else:
        assert np.asarray(got, dtype=float) == pytest.approx(np.asarray(want, dtype=float),
                                                             rel=1e-12, abs=0.0)


def ref_rlcd(v, profile, cols, params, stream, n_directions, trace):
    m = v.shape[0]
    floor = params.L / (params.alpha * float(np.linalg.svd(v, compute_uv=False)[0]))
    if m == 1:
        fixed_dirs, n_random = np.array([[1.0], [-1.0]]), 0
    else:
        fixed_dirs, n_random = np.concatenate([np.eye(m), -np.eye(m)]), n_directions
    n_steps = int(math.floor((params.radius_cap - floor) / params.resolution))
    cleared = floor
    for step in range(n_steps + 1):
        radius = floor + step * params.resolution
        dirs = fixed_dirs
        if n_random:
            extra = stream.standard_normal((n_random, m))
            extra /= np.linalg.norm(extra, axis=1, keepdims=True)
            dirs = np.concatenate([fixed_dirs, extra])
        best = (math.inf, -math.inf, None)
        hit = None
        for u in dirs:
            theta = radius * u
            y = v.T @ theta
            rhs = params.L ** 2 * log_plus(params.alpha * float(np.linalg.norm(y)) / params.L)
            lhs = min(ref_esd(y, profile.column(j)) for j in cols)
            if lhs - rhs < best[0]:
                best = (lhs - rhs, rhs, theta)
            if lhs < rhs:
                hit = theta
                break
        trace.append((radius, best[0] + best[1], best[1], hit is not None))
        if hit is not None:
            return RLCDEstimate(lower=cleared, upper=radius, witness=hit)
        cleared = radius
    return RLCDEstimate(lower=cleared, upper=math.inf, witness=None)


def ref_annulus(u, profile, keep_norm, stream, n_samples):
    """Smallest lattice distance over the kept annulus images (inf when none is kept)."""
    l = u.shape[1]
    raw = stream.standard_normal((l, n_samples))
    raw /= np.linalg.norm(raw, axis=0)
    radii = 1.0 / (20.0 * math.sqrt(l)) * stream.random(n_samples) ** (1.0 / l)
    images = u @ (raw * radii)
    measured = math.inf
    for idx in np.flatnonzero(np.linalg.norm(images, axis=0) >= keep_norm):
        measured = min(measured, ref_mld(images[:, idx], profile))
    return measured


# --- profiles ---


def _mixed_finite(n):
    """Rademacher, two equal sparse columns, a discrete row and one odd cell."""
    return profile_from_rules([
        ("*", "*", rademacher()),
        ("*", 2, sparse_bernoulli(0.3)),
        ("*", n - 3, sparse_bernoulli(0.3)),
        (4, "*", discrete([-1.0, 0.0, 2.0], [0.2, 0.5, 0.3])),
        (0, n - 2, discrete([0.0, 1.0, 3.0], [0.5, 0.25, 0.25])),
    ], n, n, 3.0)


def _checkerboard(n):
    """Two distinct columns, each alternating two laws down its rows."""
    return EntryProfile((rademacher(), sparse_bernoulli(0.5)),
                        np.add.outer(np.arange(n), np.arange(n)) % 2, 3.0)


def _gaussian_column(n):
    """Finite laws everywhere except one gaussian column, itself split by a sparse row."""
    return profile_from_rules([
        ("*", "*", rademacher()),
        ("*", 3, gaussian()),
        (1, "*", sparse_bernoulli(0.5)),
    ], n, n, 3.0)


FINITE = {
    "homogeneous": lambda n: EntryProfile.homogeneous(n, n, rademacher(), 2.0),
    "mixed": _mixed_finite,
    "checkerboard": _checkerboard,
}
ALL = dict(FINITE, gaussian_column=_gaussian_column,
           gaussian=lambda n: EntryProfile.homogeneous(n, n, gaussian(), 2.0))


def test_lattice_plan_shares_equal_columns():
    plan = _mixed_finite(9).lattice_plan
    assert plan.column_of.tolist() == [0, 0, 1, 0, 0, 0, 1, 2, 0]
    rows = [[g.rows.tolist() for g in groups] for groups in plan.groups]
    assert rows[0] == [[0, 1, 2, 3, 5, 6, 7, 8], [4]]
    assert rows[2] == [[0], [1, 2, 3, 5, 6, 7, 8], [4]]
    assert len(EntryProfile.homogeneous(5, 5, gaussian(), 2.0).lattice_plan.groups) == 1
    assert [g.rows.tolist() for g in _checkerboard(4).lattice_plan.groups[1]] == [[0, 2], [1, 3]]


@pytest.mark.parametrize("name", sorted(FINITE))
def test_batched_distance_matches_per_vector_loop(name):
    n = 9
    profile = FINITE[name](n)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((n, 12)) * np.array([0.3, 1.0, 7.0, 40.0] * 3)
    want = [ref_mld(x[:, b], profile) for b in range(x.shape[1])]
    got = matrix_lattice_distance(x, profile, 100)
    assert isinstance(got, np.ndarray) and got.tolist() == want
    assert [matrix_lattice_distance(x[:, b], profile, 100) for b in range(x.shape[1])] == want


def test_gaussian_column_matches_per_vector_loop():
    n = 8
    x = np.random.default_rng(6).standard_normal((n, 5)) * 3.0
    stream = np.random.default_rng(1)
    for profile in (_gaussian_column(n), EntryProfile.homogeneous(n, n, gaussian(), 2.0)):
        got = matrix_lattice_distance(x, profile, 150, stream)
        assert got.tolist() == [matrix_lattice_distance(x[:, b], profile) for b in range(5)]
        assert got == pytest.approx([ref_mld(x[:, b], profile) for b in range(5)],
                                    rel=1e-12, abs=0.0)
    column = _gaussian_column(n).column(3)
    assert [expected_sq_dist_to_lattice(x[:, b], column) for b in range(5)] == pytest.approx(
        [ref_esd(x[:, b], column) for b in range(5)], rel=1e-12, abs=0.0)
    assert stream.bit_generator.state == np.random.default_rng(1).bit_generator.state


def test_gaussian_and_uniform_columns_draw_nothing(monkeypatch):
    def refuse(self, stream, size=None):
        raise AssertionError("the lattice kernel drew a sample")

    monkeypatch.setattr(DistributionLaw, "sample", refuse)
    monkeypatch.setattr(DistributionLaw, "sample_symmetrized", refuse)
    n = 5
    x = np.random.default_rng(3).standard_normal((n, 3))
    for law in (gaussian(), uniform_scaled()):
        got = matrix_lattice_distance(x, EntryProfile.homogeneous(n, n, law, 2.0), 100,
                                      np.random.default_rng(9))
        assert got.shape == (3,) and np.all(got > 0.0)


@pytest.mark.parametrize("name", sorted(ALL))
def test_rlcd_matches_per_direction_loop(name):
    n = 8
    profile = ALL[name](n)
    rng = np.random.default_rng(12)
    # A random row first and the all-ones row second, so witnesses can land
    # inside a batch rather than on its first direction.
    ones = np.full(n, 1.0 / math.sqrt(n))
    other = rng.standard_normal(n)
    other -= (other @ ones) * ones
    basis = np.vstack([other / np.linalg.norm(other), ones])
    cols = [5, 0, 3, 2, 6]
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=6.0, resolution=0.25, mc_trials=120)
    trace, ref_trace = [], []
    est = rlcd_estimate(basis, profile, cols, params, np.random.default_rng(7),
                        n_directions=5, trace=trace)
    want = ref_rlcd(basis, profile, cols, params, np.random.default_rng(7), 5, ref_trace)
    assert (est.lower, est.upper) == (want.lower, want.upper)
    assert est.witness is not None and np.array_equal(est.witness, want.witness)
    assert_matches(trace, ref_trace, name)


# --- 0.20.0 reference: the denominator search with one product and one norm per direction ---


def ref_rlcd_0_20_0(basis, profile, column_indices, params, stream, n_directions=32, trace=None):
    v = np.asarray(basis, dtype=float)
    m = v.shape[0]
    cols = list(column_indices)
    svals = np.linalg.svd(v, compute_uv=False)
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
    cleared = floor
    for step in range(n_steps + 1):
        radius = floor + step * params.resolution
        dirs = fixed_dirs
        if n_random:
            extra = stream.standard_normal((n_random, m))
            extra /= np.linalg.norm(extra, axis=1, keepdims=True)
            dirs = np.concatenate([fixed_dirs, extra])
        thetas = radius * dirs
        ys = np.stack([v.T @ theta for theta in thetas])
        rhs = [params.L ** 2 * log_plus(params.alpha * float(np.linalg.norm(y)) / params.L)
               for y in ys]
        plan = profile.lattice_plan
        distinct = dict.fromkeys(int(plan.column_of[j]) for j in cols)
        lhs = np.min(_sq_dists(ys, [plan.groups[c] for c in distinct]), axis=0).tolist()
        best = (math.inf, -math.inf)
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


RLCD_PROFILES = {
    "rademacher": lambda n: EntryProfile.homogeneous(n, n, rademacher(), 2.0),
    "mixed": _gaussian_column,
    "uniform": lambda n: EntryProfile.homogeneous(n, n, uniform_scaled(), 2.0),
    "discrete": lambda n: EntryProfile.homogeneous(
        n, n, discrete([-1.0, 0.0, 2.0], [0.2, 0.5, 0.3]), 3.0),
}


def _rlcd_basis(m, n, ones, rng):
    """m orthonormal rows; with ``ones`` the last one is the all-ones direction."""
    raw = rng.standard_normal((n, m))
    if ones:
        raw[:, -1] = 1.0
    q = np.linalg.qr(raw)[0]
    return q.T[::-1] if ones else q.T


@pytest.mark.parametrize("profile_name", sorted(RLCD_PROFILES))
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n_directions", [0, 8])
@pytest.mark.parametrize("ending", ["witness", "none", "floor"])
def test_rlcd_matches_the_0_20_0_per_direction_loop(profile_name, m, n_directions, ending):
    n = 8
    profile = RLCD_PROFILES[profile_name](n)
    rng = np.random.default_rng(100 * m + n_directions)
    basis = _rlcd_basis(m, n, ending == "witness", rng)
    cap = {"witness": 8.0, "none": 2.25, "floor": 1.5}[ending]
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=cap, resolution=0.125, mc_trials=100)
    cols = [5, 0, 3, 5, 0, 7]  # repeats, and column 3 is the mixed profile's gaussian one
    got_stream, want_stream = np.random.default_rng(4), np.random.default_rng(4)
    got_trace, want_trace = [], []
    got = rlcd_estimate(basis, profile, cols, params, got_stream, n_directions, got_trace)
    want = ref_rlcd_0_20_0(basis, profile, cols, params, want_stream, n_directions, want_trace)
    assert (got.lower, got.upper, got.note) == (want.lower, want.upper, want.note)
    assert (got.witness is None) == (want.witness is None) == (ending != "witness")
    if want.witness is not None:
        assert got.witness.tobytes() == want.witness.tobytes()
    assert got_trace == want_trace
    assert (len(want_trace) == 0) == (ending == "floor")
    assert got_stream.bit_generator.state == want_stream.bit_generator.state


@pytest.mark.parametrize("name", sorted(ALL))
def test_rounding_report_lattice_rows_match_loop(name):
    n, l = 12, 2
    profile = ALL[name](n)
    rng = np.random.default_rng(21)
    v = rng.standard_normal((n, l))
    v *= 150.0 / np.linalg.norm(v, axis=0)
    params = RoundingParams(delta=0.05, rho=0.3, tau=0.5, K=3.0, r=0.05)
    u = np.column_stack([randomized_round(v[:, j], params.delta, rng) for j in range(l)])
    b = rng.standard_normal((n, n))
    report = rounding_report(v, u, profile, b, params, np.random.default_rng(5),
                             n_span_samples=100, n_annulus_samples=60, mc_trials=150)

    stream = np.random.default_rng(5)
    sampled_span_incompressible(u, params.tau ** 2, params.tau ** 4 / 2.0, stream, 100)
    dist = max(ref_mld(u[:, j], profile) for j in range(l))
    annulus = ref_annulus(u, profile, 8.0 * params.r * math.sqrt(n), stream, 60)
    assert math.isfinite(annulus)
    assert_matches((report.lattice_dist.measured, report.annulus.measured), (dist, annulus), name)
    assert report.lattice_dist.passed == (dist < 2.0 * params.rho * math.sqrt(n))
    assert report.annulus.passed == (annulus > params.rho / 2.0 * math.sqrt(n))


@pytest.mark.parametrize("name, rho", [(name, rho) for name in sorted(FINITE)
                                       for rho in (0.1, 0.5)]
                         + [("gaussian_column", 0.5), ("gaussian", 0.5)])
def test_kernel_event_flags_match_loop(name, rho):
    n, l = 12, 2
    profile = ALL[name](n)
    rng = np.random.default_rng(30)
    b = rng.standard_normal((n - l, n))
    v = np.linalg.svd(b)[2][n - l:].T * 60.0
    params = KernelEventParams(tau=0.5, rho=rho, r=0.05, L=1.0)
    ok, flags = kernel_tuple_event_check(v, b, profile, params, np.random.default_rng(8),
                                         n_span_samples=100, n_annulus_samples=40,
                                         mc_trials=150)

    stream = np.random.default_rng(8)
    sqrt_n = math.sqrt(n)
    col_norms = np.linalg.norm(v, axis=0)
    want = {
        "norm_window": bool(np.all(col_norms >= 2.0 * params.r * sqrt_n)
                            and np.all(col_norms <= math.exp(rho ** 2 * n / 4.0))),
        "span_incomp": sampled_span_incompressible(v, 0.25, 0.0625, stream, 100)[0],
        "almost_orth": almost_orthogonal_check(v, 0.125)[0],
        "lattice_dist": all(ref_mld(v[:, j], profile) <= rho * sqrt_n for j in range(l)),
    }
    want["annulus"] = ref_annulus(v, profile, 2.0 * params.r * sqrt_n, stream, 40) > rho * sqrt_n
    assert flags == want
    assert ok == all(want.values())


# 0.2.0 output of a round campaign on the rademacher profile.
ROUND_REPORT_0_2_0 = """\
name,measured,threshold,pass
sup_norm,0.03893798892968192,0.05,True
op_norm,0.11318988397212333,0.8215838362577493,True
almost_orth,0.0195243840444137,0.25,True
span_incomp,0.48640542529835945,0.03125,True
lattice_dist,1.002496882788171,3.2863353450309964,True
annulus,0.8318116033766154,0.8215838362577491,True
image_norm,1260.7498007138452,6.0,False
"""


def test_round_campaign_report_bytes_match_0_2_0(tmp_path):
    cfg = parse_campaign("kind = round\nid = r1\nseed = 7\nn = 30\nl = 2\ndelta = 0.05\n"
                         "rho = 0.3\nvector_scale = 200\nprofile = rademacher\n")
    assert run_campaign(cfg, out_dir=str(tmp_path)) == 0
    with open(os.path.join(tmp_path, "r1.rounding_report.csv"), newline="") as fh:
        assert fh.read() == ROUND_REPORT_0_2_0
