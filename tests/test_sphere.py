import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab.experiments import compressible_event_check
from rmtlab.rounding import sample_lattice_shell
from rmtlab.sphere import (
    SphereParams,
    almost_orthogonal_check,
    classify_vector,
    dist_to_sparse,
    sampled_span_incompressible,
    spread_coordinates,
)


def brute_force_sparse_distance(x: np.ndarray, budget: int) -> float:
    """Minimum distance to any vector supported on at most `budget` coordinates."""
    n = len(x)
    if budget >= n:
        return 0.0
    best = np.linalg.norm(x)
    for size in range(1, budget + 1):
        for support in itertools.combinations(range(n), size):
            kept = np.zeros(n)
            kept[list(support)] = x[list(support)]
            best = min(best, np.linalg.norm(x - kept))
    return float(best)


def test_params_validate_open_interval():
    SphereParams(0.1, 0.2)
    for field in ("delta", "rho", "tau"):
        with pytest.raises(ValueError):
            SphereParams(**{"delta": 0.1, "rho": 0.2, field: 0.0})
        with pytest.raises(ValueError):
            SphereParams(**{"delta": 0.1, "rho": 0.2, field: 1.0})


def test_sparse_distance_zero_when_supported():
    x = np.zeros(10)
    x[3] = 0.6
    x[7] = 0.8
    assert dist_to_sparse(x, 0.2) == 0.0  # budget 2, support 2


def test_sparse_distance_drops_smallest_tail():
    x = np.full(4, 0.5)
    # budget floor(0.5 * 4) = 2: two coordinates survive, two are cut
    assert dist_to_sparse(x, 0.5) == pytest.approx(math.sqrt(0.5))
    assert dist_to_sparse(np.array([0.8, 0.6]), 0.5) == pytest.approx(0.6)


def test_sparse_distance_zero_budget_gives_norm():
    x = np.array([0.6, -0.8])
    assert dist_to_sparse(x, 0.3) == pytest.approx(1.0)  # floor(0.6) = 0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_sparse_distance_matches_brute_force(seed):
    stream = np.random.default_rng(seed)
    n = int(stream.integers(2, 9))
    x = stream.standard_normal(n)
    delta = float(stream.uniform(0.05, 0.95))
    budget = int(delta * n)
    assert dist_to_sparse(x, delta) == pytest.approx(
        brute_force_sparse_distance(x, budget), abs=1e-12
    )


def test_classify_basis_vector_compressible():
    params = SphereParams(0.5, 0.1)
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert classify_vector(e1, params) == "compressible"


def test_classify_flat_vector_incompressible():
    n = 100
    params = SphereParams(0.1, 0.1)
    x = np.full(n, 1.0 / math.sqrt(n))
    assert classify_vector(x, params) == "incompressible"


def test_classify_boundary_is_compressible():
    # distance to the sparse set exactly rho
    params = SphereParams(0.5, 0.6)
    x = np.array([0.8, 0.6])
    assert dist_to_sparse(x, params.delta) == pytest.approx(params.rho)
    assert classify_vector(x, params) == "compressible"


def test_classify_requires_unit_vector():
    params = SphereParams(0.5, 0.1)
    with pytest.raises(ValueError):
        classify_vector(np.array([1.0, 1.0]), params)


def test_spread_flat_vector_keeps_everything():
    n = 16
    u = np.full(n, 1.0 / math.sqrt(n))
    idx, ok = spread_coordinates(u, 0.25, 0.3)
    assert ok
    assert len(idx) == n


def test_spread_window_is_inclusive():
    # magnitude exactly at the upper bound 1/sqrt(delta*n) stays in
    n, delta, rho = 4, 0.25, 0.5
    u = np.array([1.0, 0.0, 0.0, 0.0])
    idx, ok = spread_coordinates(u, delta, rho)
    assert list(idx) == [0]
    assert ok  # 1 >= rho^2 * delta * n / 2 = 0.125


def test_spread_fails_for_spiky_vector():
    # one huge coordinate above the window, the rest below it
    n = 100
    u = np.zeros(n)
    u[0] = 0.999
    rest = math.sqrt((1.0 - u[0] ** 2) / (n - 1))
    u[1:] = rest
    delta, rho = 0.9, 0.9
    lo = rho / math.sqrt(2.0 * n)
    hi = 1.0 / math.sqrt(delta * n)
    assert rest < lo and u[0] > hi
    idx, ok = spread_coordinates(u, delta, rho)
    assert len(idx) == 0
    assert not ok


def test_incompressible_vectors_always_spread(rng):
    # guaranteed relationship between the two notions, checked empirically
    n = 50
    params = SphereParams(0.2, 0.3)
    for _ in range(300):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        if classify_vector(x, params) == "incompressible":
            _, ok = spread_coordinates(x, params.delta, params.rho)
            assert ok


def test_almost_orthogonal_exact_orthonormal(rng):
    q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    ok, s_min, s_max = almost_orthogonal_check(q, 0.01)
    assert ok
    assert s_min == pytest.approx(1.0, abs=1e-10)
    assert s_max == pytest.approx(1.0, abs=1e-10)


def test_almost_orthogonal_repeated_vector_fails(rng):
    v = rng.standard_normal(6)
    v /= np.linalg.norm(v)
    ok, s_min, _ = almost_orthogonal_check(np.column_stack([v, v]), 0.125)
    assert not ok
    assert s_min == pytest.approx(0.0, abs=1e-10)


def test_almost_orthogonal_known_pair():
    # e1 and (e1+e2)/sqrt(2): gram eigenvalues 1 +/- 1/sqrt(2)
    cols = np.array([[1.0, 1.0 / math.sqrt(2)], [0.0, 1.0 / math.sqrt(2)]])
    ok, s_min, s_max = almost_orthogonal_check(cols, 0.125)
    assert not ok
    assert s_min == pytest.approx(math.sqrt(1.0 - 1.0 / math.sqrt(2.0)), abs=1e-10)
    assert s_max == pytest.approx(math.sqrt(1.0 + 1.0 / math.sqrt(2.0)), abs=1e-10)


def test_almost_orthogonal_monotone_in_nu(rng):
    cols = rng.standard_normal((12, 3))
    cols /= np.linalg.norm(cols, axis=0)
    results = [almost_orthogonal_check(cols, nu)[0] for nu in (0.01, 0.1, 0.5, 0.9)]
    # once a tolerance accepts, every looser tolerance must accept
    for earlier, later in zip(results, results[1:]):
        assert later or not earlier


def test_almost_orthogonal_rejects_zero_column():
    cols = np.zeros((4, 2))
    cols[0, 0] = 1.0
    with pytest.raises(ValueError):
        almost_orthogonal_check(cols, 0.125)


def test_sampled_span_of_basis_vector_fails(rng):
    # every unit vector in span{e1} is 1-sparse, so never incompressible
    v = np.zeros((10, 1))
    v[0, 0] = 1.0
    ok, worst = sampled_span_incompressible(v, 0.2, 0.3, rng, n_samples=200)
    assert not ok
    assert worst == pytest.approx(0.0, abs=1e-12)


def test_sampled_span_of_generic_plane_passes(rng):
    n = 60
    vecs = rng.standard_normal((n, 2))
    ok, worst = sampled_span_incompressible(vecs, 0.05, 0.05, rng, n_samples=500)
    assert ok
    assert worst > 0.05


def test_sampled_span_refuses_zero_samples(rng):
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        sampled_span_incompressible(np.eye(4)[:, :2], 0.2, 0.3, rng, n_samples=0)


# --- the batched sparse distance against the 0.7.0 one-vector-per-call loop ---


def ref_dist_to_sparse(x: np.ndarray, delta: float) -> float:
    """The 0.7.0 single-vector dist_to_sparse, kept as the bit-exact reference."""
    x = np.asarray(x, dtype=float)
    n = x.size
    budget = int(delta * n)
    if budget <= 0:
        return float(np.linalg.norm(x))
    if budget >= n:
        return 0.0
    mags = np.sort(np.abs(x))
    return float(np.linalg.norm(mags[: n - budget]))


def _test_columns(stream, n, b):
    kind = int(stream.integers(3))
    x = stream.standard_normal((n, b))
    if kind == 1:  # many exact ties
        x = np.round(x, 1)
    elif kind == 2:  # magnitudes spread over many octaves
        x *= 10.0 ** stream.integers(-6, 7, size=(n, 1))
    return x / np.maximum(np.linalg.norm(x, axis=0), 1e-300)


@pytest.mark.parametrize("delta", [0.01, 0.3, 0.77, 1.0, 2.5],
                         ids=["budget0", "budget-low", "budget-high", "budget-n", "budget-over-n"])
@pytest.mark.parametrize("width", [1, 37])
def test_batched_sparse_distance_matches_per_column_loop(delta, width):
    stream = np.random.default_rng(int(delta * 100) + width)
    for _ in range(40):
        n = int(stream.integers(1, 90))
        x = _test_columns(stream, n, width)
        got = dist_to_sparse(x, delta)
        assert got.shape == (width,)
        assert got.tolist() == [ref_dist_to_sparse(x[:, j], delta) for j in range(width)]
        assert dist_to_sparse(x[:, 0], delta) == ref_dist_to_sparse(x[:, 0], delta)
        assert type(dist_to_sparse(x[:, 0], delta)) is float


def test_batched_sparse_distance_rejects_three_dimensional_input():
    with pytest.raises(ValueError, match="n x B array"):
        dist_to_sparse(np.zeros((2, 2, 2)), 0.5)


def ref_sample_lattice_shell(delta, d_j, n, tau, stream):
    """The 0.7.0 shell sampler, one dist_to_sparse call per in-window proposal."""
    top = int(math.floor(4.0 * d_j / delta))
    lo, hi = d_j / 2.0, 4.0 * d_j
    while True:
        pts = stream.integers(-top, top + 1, size=(1024, n)) * delta
        norms = np.linalg.norm(pts, axis=1)
        for i in np.flatnonzero((norms >= lo) & (norms <= hi)):
            if ref_dist_to_sparse(pts[i] / norms[i], tau ** 2) > tau ** 4 / 2.0:
                return pts[i]


@pytest.mark.parametrize("delta, d_j, n, tau", [(0.5, 2.0, 2, 0.5), (0.1, 1.0, 6, 0.9),
                                                (0.25, 1.5, 9, 0.7)])
def test_shell_sampler_matches_per_proposal_loop(delta, d_j, n, tau):
    params = SphereParams(0.2, 0.3, tau=tau)
    new, ref = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(40):
        got = sample_lattice_shell(delta, d_j, n, params, new)
        assert got.tolist() == ref_sample_lattice_shell(delta, d_j, n, tau, ref).tolist()
    assert new.integers(2 ** 62) == ref.integers(2 ** 62)


def test_compressible_event_matches_per_column_loop():
    stream = np.random.default_rng(21)
    tau, outcomes = 0.5, set()
    for _ in range(300):
        n, l = int(stream.integers(8, 40)), int(stream.integers(1, 4))
        x = np.eye(n)[:, stream.choice(n, l, replace=False)]
        x = x + stream.uniform(0.0, 0.06) * stream.standard_normal((n, l))
        x /= np.linalg.norm(x, axis=0)
        b = np.zeros((3, n))
        want = (almost_orthogonal_check(x, 0.25)[0]
                and all(ref_dist_to_sparse(x[:, j], tau ** 2) <= tau ** 4 for j in range(l)))
        assert compressible_event_check(b, x, tau) == want
        outcomes.add(want)
    assert outcomes == {True, False}
