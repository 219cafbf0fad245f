import itertools
import math

import numpy as np
import pytest

from rmtlab.ensembles import EntryProfile, rademacher
from rmtlab.errors import ResourceLimitError
from rmtlab.rounding import (
    RoundingParams,
    annulus_check,
    in_rounding_net,
    randomized_round,
    rounding_report,
    sample_lattice_shell,
)
from rmtlab.sphere import SphereParams, dist_to_sparse


def test_params_validation():
    RoundingParams(delta=0.1, rho=0.2, tau=0.5, K=1.3, r=0.05)
    with pytest.raises(ValueError):
        RoundingParams(delta=0.0, rho=0.2, tau=0.5, K=1.3, r=0.05)
    with pytest.raises(ValueError):
        RoundingParams(delta=0.1, rho=1.2, tau=0.5, K=1.3, r=0.05)
    with pytest.raises(ValueError):
        RoundingParams(delta=0.1, rho=0.2, tau=0.5, K=0.5, r=0.05)
    with pytest.raises(ValueError):
        RoundingParams(delta=0.1, rho=0.2, tau=0.5, K=1.3, r=-1.0)


def test_round_keeps_grid_points_fixed(rng):
    # dyadic grid step, so grid membership is exact in floating point
    v = np.array([0.75, -1.25, 0.0, 2.0])
    for _ in range(50):
        np.testing.assert_array_equal(randomized_round(v, 0.25, rng), v)


def test_round_moves_at_most_one_step(rng):
    for _ in range(200):
        v = rng.uniform(-3.0, 3.0, size=8)
        u = randomized_round(v, 0.1, rng)
        assert np.max(np.abs(u - v)) <= 0.1 + 1e-12


def test_round_hits_neighbouring_grid_points(rng):
    v = np.array([0.37])
    draws = np.array([randomized_round(v, 0.1, rng)[0] for _ in range(4000)])
    values = set(np.round(draws, 10))
    assert values == {0.3, 0.4}
    p_up = np.mean(np.isclose(draws, 0.4))
    assert p_up == pytest.approx(0.7, abs=0.03)


def test_round_is_unbiased(rng):
    v = np.array([0.37])
    n = 20_000
    draws = np.array([randomized_round(v, 0.1, rng)[0] for _ in range(n)])
    se = 0.1 * math.sqrt(0.7 * 0.3 / n)
    assert abs(draws.mean() - 0.37) <= 4 * se


def test_round_midpoint_is_fair(rng):
    v = np.array([0.05])
    draws = np.array([randomized_round(v, 0.1, rng)[0] for _ in range(20_000)])
    assert np.mean(np.isclose(draws, 0.1)) == pytest.approx(0.5, abs=0.015)


def test_round_operator_norm_drift(rng):
    n, l, delta = 200, 3, 0.02
    v = rng.standard_normal((n, l))
    v /= np.linalg.norm(v, axis=0)
    for _ in range(20):
        u = randomized_round(v, delta, rng)
        drift = np.linalg.svd(u - v, compute_uv=False)[0]
        assert drift <= 3.0 * delta * math.sqrt(n)


def test_round_rejects_bad_delta(rng):
    with pytest.raises(ValueError):
        randomized_round(np.ones(3), 0.0, rng)


# --- the seven-guarantee report ---


def _kernel_tuple(stream, n, l):
    b = stream.standard_normal((n - l, n))
    _, _, vt = np.linalg.svd(b)
    v = vt[n - l:].T  # orthonormal kernel basis
    return b, v


def test_report_identity_rounding_passes_deterministic_checks(rng):
    n, l = 20, 2
    b, v = _kernel_tuple(rng, n, l)
    params = RoundingParams(delta=0.25, rho=0.3, tau=0.5, K=1.3, r=0.01)
    u = np.round(v / params.delta) * params.delta  # nearest grid tuple
    report = rounding_report(v, u, EntryProfile.homogeneous(n, n, rademacher(), 2.0),
                             b, params, rng)
    assert report.sup_norm.passed
    assert report.sup_norm.measured <= params.delta
    assert report.op_norm.passed


def test_report_majority_passes_for_kernel_tuples():
    n, l = 40, 3
    delta = 0.05
    prof = EntryProfile.homogeneous(n, n, rademacher(), 2.0)
    params = RoundingParams(delta=delta, rho=0.3, tau=0.5, K=1.3, r=0.01)
    stream = np.random.default_rng(11)
    hits = {"sup_norm": 0, "op_norm": 0, "image_norm": 0}
    n_draws = 30
    for _ in range(n_draws):
        b, v = _kernel_tuple(stream, n, l)
        u = randomized_round(v, delta, stream)
        report = rounding_report(v, u, prof, b, params, stream,
                                 n_span_samples=200, n_annulus_samples=200,
                                 mc_trials=200)
        for check in report.checks:
            if check.name in hits and check.passed:
                hits[check.name] += 1
    for name, count in hits.items():
        assert count > n_draws // 2, f"{name} passed only {count}/{n_draws}"


def test_report_detects_forged_rounding(rng):
    n, l = 12, 2
    b, v = _kernel_tuple(rng, n, l)
    params = RoundingParams(delta=0.1, rho=0.3, tau=0.5, K=1.3, r=0.01)
    u = np.round(v / params.delta) * params.delta
    u[0, 0] += 3 * params.delta  # push one coordinate well off its source
    report = rounding_report(v, u, EntryProfile.homogeneous(n, n, rademacher(), 2.0),
                             b, params, rng)
    assert not report.sup_norm.passed
    assert not report.all_passed


def test_report_csv_rows_shape(rng):
    n, l = 10, 2
    b, v = _kernel_tuple(rng, n, l)
    params = RoundingParams(delta=0.2, rho=0.3, tau=0.5, K=1.3, r=0.01)
    u = np.round(v / 0.2) * 0.2
    report = rounding_report(v, u, EntryProfile.homogeneous(n, n, rademacher(), 2.0),
                             b, params, rng, n_span_samples=100, n_annulus_samples=100,
                             mc_trials=100)
    rows = report.csv_rows()
    assert len(rows) == 7
    names = [r.split(",")[0] for r in rows]
    assert names == ["sup_norm", "op_norm", "almost_orth", "span_incomp",
                     "lattice_dist", "annulus", "image_norm"]
    for row in rows:
        assert row.split(",")[3] in ("True", "False")


def test_report_refuses_zero_span_samples(rng):
    n = 10
    b, v = _kernel_tuple(rng, n, 2)
    params = RoundingParams(delta=0.2, rho=0.3, tau=0.5, K=1.3, r=0.01)
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        rounding_report(v, np.round(v / 0.2) * 0.2,
                        EntryProfile.homogeneous(n, n, rademacher(), 2.0), b, params, rng,
                        n_span_samples=0, n_annulus_samples=10, mc_trials=10)


def test_annulus_without_kept_samples_passes_vacuously(rng):
    prof = EntryProfile.homogeneous(4, 4, rademacher(), 2.0)
    check = annulus_check(np.eye(4)[:, :2], prof, 1e6, 0.5, rng, n_samples=50)
    assert (check.measured, check.passed) == (math.inf, True)
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        annulus_check(np.eye(4)[:, :2], prof, 1e6, 0.5, rng, n_samples=0)


def test_report_shape_mismatch(rng):
    params = RoundingParams(delta=0.1, rho=0.3, tau=0.5, K=1.3, r=0.01)
    prof = EntryProfile.homogeneous(4, 4, rademacher(), 2.0)
    with pytest.raises(ValueError):
        rounding_report(np.ones((4, 2)), np.ones((4, 3)), prof, np.ones((2, 4)),
                        params, rng)
    with pytest.raises(ValueError):
        rounding_report(np.ones((5, 2)), np.ones((5, 2)), prof, np.ones((2, 5)),
                        params, rng)


# --- net membership ---


def _net_params(delta=0.5, rho=0.9):
    return RoundingParams(delta=delta, rho=rho, tau=0.5, K=1.3, r=0.01)


def test_net_accepts_boundary_norm(rng):
    # norm exactly d/2: the window is inclusive
    prof = EntryProfile.homogeneous(2, 2, rademacher(), 2.0)
    u = np.array([[1.5], [2.0]])
    assert np.linalg.norm(u) == pytest.approx(2.5)
    assert in_rounding_net(u, [5.0], prof, _net_params(), rng)


def test_net_rejects_norm_outside_window(rng):
    prof = EntryProfile.homogeneous(2, 2, rademacher(), 2.0)
    u = np.array([[1.5], [2.0]])
    assert not in_rounding_net(u, [0.5], prof, _net_params(), rng)  # above 4d
    assert not in_rounding_net(u, [20.0], prof, _net_params(), rng)  # below d/2


def test_net_rejects_lattice_far_point(rng):
    # coordinates at delta/2 of the half-integer grid: expected squared
    # distance 0.125 per coordinate, well above the threshold at small rho
    prof = EntryProfile.homogeneous(2, 2, rademacher(), 2.0)
    params = RoundingParams(delta=0.25, rho=0.15, tau=0.5, K=1.3, r=0.01)
    u = np.array([[0.25], [0.25]])
    assert not in_rounding_net(u, [0.5], prof, params, rng)


def test_net_rejects_off_grid_input(rng):
    prof = EntryProfile.homogeneous(2, 2, rademacher(), 2.0)
    with pytest.raises(ValueError):
        in_rounding_net(np.array([[0.3], [2.0]]), [2.0], prof, _net_params(), rng)


def test_net_radii_length_mismatch(rng):
    prof = EntryProfile.homogeneous(2, 2, rademacher(), 2.0)
    with pytest.raises(ValueError):
        in_rounding_net(np.array([[1.5], [2.0]]), [2.0, 3.0], prof, _net_params(), rng)


# --- shell sampler ---


def test_shell_sample_properties(rng):
    sphere = SphereParams(0.2, 0.3, tau=0.5)
    for _ in range(50):
        pt = sample_lattice_shell(0.5, 2.0, 2, sphere, rng)
        coords = pt / 0.5
        np.testing.assert_allclose(coords, np.round(coords), atol=1e-9)
        norm = np.linalg.norm(pt)
        assert 1.0 <= norm <= 8.0
        assert dist_to_sparse(pt / norm, 0.25) > 0.5**4 / 2.0


def test_shell_sample_is_uniform():
    # small enough instance to enumerate the target set exactly
    from scipy.stats import chi2

    delta, d_j, n = 0.5, 2.0, 2
    sphere = SphereParams(0.2, 0.3, tau=0.5)
    feasible = []
    for a, b in itertools.product(range(-16, 17), repeat=2):
        q = a * a + b * b
        if 4 <= q <= 256:
            feasible.append((a, b))
    index = {pt: i for i, pt in enumerate(feasible)}

    stream = np.random.default_rng(3)
    per_cell = 20
    n_draws = per_cell * len(feasible)
    counts = np.zeros(len(feasible))
    for _ in range(n_draws):
        pt = sample_lattice_shell(delta, d_j, n, sphere, stream)
        key = (int(round(pt[0] / delta)), int(round(pt[1] / delta)))
        counts[index[key]] += 1

    expected = n_draws / len(feasible)
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.99, df=len(feasible) - 1)


def test_shell_sample_rejects_infeasible_radius(rng):
    with pytest.raises(ValueError):
        sample_lattice_shell(0.5, 0.2, 4, SphereParams(0.2, 0.3, tau=0.5), rng)


def test_shell_sample_resource_error(rng):
    with pytest.raises(ResourceLimitError) as info:
        sample_lattice_shell(0.5, 2.0, 2, SphereParams(0.2, 0.3, tau=0.5), rng,
                             max_proposals=0)
    assert "proposals" in str(info.value)
