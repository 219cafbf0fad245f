import bisect
import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab.arithmetic import (
    RLCDEstimate,
    RLCDParams,
    count_lattice_points,
    dist_to_lattice,
    esseen_bound_eval,
    expected_sq_dist_to_lattice,
    levy_estimate,
    log_plus,
    matrix_lattice_distance,
    rlcd_estimate,
)
from rmtlab.ensembles import EntryProfile, gaussian, rademacher, uniform_scaled
from rmtlab.errors import ResourceLimitError


def brute_force_lattice_distance(y: np.ndarray, window: int = 2) -> float:
    """Minimum distance to an integer vector, by box enumeration around y."""
    ranges = [
        range(math.floor(v) - window, math.ceil(v) + window + 1) for v in y
    ]
    return min(
        math.sqrt(sum((a - b) ** 2 for a, b in zip(y, pt)))
        for pt in itertools.product(*ranges)
    )


def test_lattice_distance_basics():
    assert dist_to_lattice(np.array([1.0, -4.0, 0.0])) == 0.0
    assert dist_to_lattice(np.full(4, 0.5)) == pytest.approx(1.0)
    assert dist_to_lattice(np.array([2.25])) == pytest.approx(0.25)


def test_lattice_distance_rejects_non_finite():
    with pytest.raises(ValueError):
        dist_to_lattice(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        dist_to_lattice(np.array([np.nan]))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_lattice_distance_matches_brute_force(seed):
    stream = np.random.default_rng(seed)
    n = int(stream.integers(1, 5))
    y = stream.uniform(-3.0, 3.0, size=n)
    assert dist_to_lattice(y) == pytest.approx(brute_force_lattice_distance(y), abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_lattice_distance_periodic(seed):
    stream = np.random.default_rng(seed)
    # dyadic coordinates keep y + shift exactly representable
    y = np.round(stream.uniform(-4.0, 4.0, size=4) * 1024.0) / 1024.0
    shift = stream.integers(-100, 100, size=4).astype(float)
    assert dist_to_lattice(y + shift) == dist_to_lattice(y)


def test_log_plus():
    assert log_plus(1.0) == 0.0
    assert log_plus(0.3) == 0.0
    assert log_plus(0.0) == 0.0
    assert log_plus(math.e) == pytest.approx(1.0)


# --- expected squared distance, exact path ---


def test_expected_distance_rademacher_exact():
    # symmetrized rademacher is -2/0/2 with weights 1/4, 1/2, 1/4
    law = rademacher()
    val = expected_sq_dist_to_lattice(np.array([0.1]), [law])
    assert val == pytest.approx(0.5 * 0.2**2, abs=1e-15)
    assert expected_sq_dist_to_lattice(np.array([0.5]), [law]) == pytest.approx(0.0)
    assert expected_sq_dist_to_lattice(np.array([0.0]), [law]) == 0.0


def test_expected_distance_is_additive_across_coordinates():
    law = rademacher()
    one = expected_sq_dist_to_lattice(np.array([0.3]), [law])
    two = expected_sq_dist_to_lattice(np.array([0.3, 0.3]), [law, law])
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def quad_esd(law, y):
    """E (w - round w)^2 for w = y (X - X'), by quadrature on each cell [j - 1/2, j + 1/2).

    For the gaussian, w ~ N(0, 2 y^2), cut at 12 standard deviations; for the
    uniform, w is triangular on [-a, a] with a = 2 sqrt(3) |y|, split at its
    kink w = 0.
    """
    from scipy.integrate import quad

    if law.kind == "gaussian":
        sigma = math.sqrt(2.0) * abs(y)
        reach = 12.0 * sigma

        def density(w):
            return math.exp(-w * w / (2.0 * sigma * sigma)) / (sigma * math.sqrt(2.0 * math.pi))
    else:
        reach = 2.0 * math.sqrt(3.0) * abs(y)

        def density(w):
            return (reach - abs(w)) / (reach * reach)
    if reach == 0.0:
        return 0.0
    total = []
    for j in range(-math.ceil(reach + 0.5), math.ceil(reach + 0.5) + 1):
        lo, hi = max(j - 0.5, -reach), min(j + 0.5, reach)
        if lo < hi:
            total.append(quad(lambda w: (w - j) ** 2 * density(w), lo, hi,
                              points=[0.0] if lo < 0.0 < hi else None,
                              epsabs=0.0, epsrel=1e-13, limit=200)[0])
    return math.fsum(total)


def test_expected_distance_mc_matches_quadrature():
    # gaussian symmetrized coordinate: X - X' ~ N(0, 2)
    est = expected_sq_dist_to_lattice(np.array([0.5]), [gaussian()])
    assert est == pytest.approx(quad_esd(gaussian(), 0.5), rel=1e-12, abs=0.0)


# sigma = sqrt(2) y crosses 1/20, and a = 2 sqrt(3) y crosses 1/2, inside this grid
_SIGMA_EDGE = 1.0 / (20.0 * math.sqrt(2.0))
_TRIANGLE_EDGE = 1.0 / (4.0 * math.sqrt(3.0))
ORACLE_YS = [0.0, 1e-8, 1e-3, 0.02, _SIGMA_EDGE * 0.999, _SIGMA_EDGE, _SIGMA_EDGE * 1.001,
             0.05, 0.1, _TRIANGLE_EDGE * 0.999, _TRIANGLE_EDGE, _TRIANGLE_EDGE * 1.001,
             0.3, 0.77, 2.5, 9.0, 50.0]


@pytest.mark.parametrize("law", [gaussian(), uniform_scaled()], ids=lambda law: law.kind)
def test_closed_forms_match_quadrature(law):
    got = [expected_sq_dist_to_lattice(np.array([y]), [law]) for y in ORACLE_YS]
    assert got == pytest.approx([quad_esd(law, y) for y in ORACLE_YS], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("law", [gaussian(), uniform_scaled()], ids=lambda law: law.kind)
def test_closed_forms_are_even_and_tend_to_one_twelfth(law):
    for y in ORACLE_YS + [1e3, 1e6]:
        value = expected_sq_dist_to_lattice(np.array([y]), [law])
        assert expected_sq_dist_to_lattice(np.array([-y]), [law]) == value
        if y >= 2.5:
            # the uniform form is 1/12 + c / (12 a^2) with |c| <= 1/8, a = 2 sqrt(3) y
            assert abs(value - 1.0 / 12.0) <= 1.0 / (1152.0 * y * y)


@pytest.mark.parametrize("law", [gaussian(), uniform_scaled()], ids=lambda law: law.kind)
@pytest.mark.parametrize("y", [0.04, 0.3, 1.7])
def test_closed_forms_match_symmetrized_draws(law, y):
    r = y * law.sample_symmetrized(np.random.default_rng(17), 200_000)
    r = (r - np.round(r)) ** 2
    exact = expected_sq_dist_to_lattice(np.array([y]), [law])
    assert abs(float(np.mean(r)) - exact) <= 5.0 * float(np.std(r)) / math.sqrt(r.size)


def test_matrix_lattice_distance_known_values():
    prof = EntryProfile.homogeneous(1, 1, rademacher(), 2.0)
    assert matrix_lattice_distance(np.array([0.1]), prof) == pytest.approx(
        math.sqrt(0.02), abs=1e-12
    )
    assert matrix_lattice_distance(np.array([0.5]), prof) == pytest.approx(0.0)
    assert matrix_lattice_distance(np.zeros(1), prof) == 0.0


def test_matrix_lattice_distance_takes_best_column(rng):
    # second column gaussian: continuous smearing produces a strictly
    # positive value, so the exact rademacher column must win at x = 0.5
    from rmtlab.ensembles import profile_from_rules

    rules = [("*", 0, rademacher()), ("*", 1, gaussian())]
    prof = profile_from_rules(rules, 1, 2, k_cap=2.0)
    val = matrix_lattice_distance(np.array([0.5]), prof, mc_trials=2000, stream=rng)
    assert val == pytest.approx(0.0)


@pytest.mark.parametrize("mc_trials", [0, -5, 200])
def test_matrix_lattice_distance_does_not_read_mc_trials(mc_trials, rng):
    x = np.array([0.3, -1.1, 2.0, 0.05])
    for law in (gaussian(), uniform_scaled(), rademacher()):
        prof = EntryProfile.homogeneous(4, 4, law, 2.0)
        state = rng.bit_generator.state
        assert (matrix_lattice_distance(x, prof, mc_trials, rng)
                == matrix_lattice_distance(x, prof, 1000, None))
        assert rng.bit_generator.state == state


# --- correlation-radius estimation ---


def _scalar_profile():
    return EntryProfile.homogeneous(1, 1, rademacher(), 2.0)


def test_rlcd_params_validation():
    RLCDParams(L=1.0, alpha=0.5, radius_cap=3.0, resolution=1e-3)
    with pytest.raises(ValueError):
        RLCDParams(L=0.0, alpha=0.5, radius_cap=3.0, resolution=1e-3)
    with pytest.raises(ValueError):
        RLCDParams(L=1.0, alpha=1.5, radius_cap=3.0, resolution=1e-3)
    with pytest.raises(ValueError):
        RLCDParams(L=1.0, alpha=0.5, radius_cap=1.0, resolution=2.0)
    with pytest.raises(ValueError):
        RLCDParams(L=1.0, alpha=0.5, radius_cap=3.0, resolution=1e-3, mc_trials=10)


def test_rlcd_estimate_invariants():
    with pytest.raises(ValueError):
        RLCDEstimate(lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        RLCDEstimate(lower=1.0, upper=math.inf, witness=np.ones(1))
    with pytest.raises(ValueError):
        RLCDEstimate(lower=1.0, upper=2.0, witness=None)


def test_rlcd_scalar_rademacher_brackets_two(rng):
    # exact one-dimensional landscape: first witness just above radius 2
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=3.0, resolution=1e-3)
    est = rlcd_estimate(np.array([[1.0]]), _scalar_profile(), [0], params, rng)
    assert est.lower == pytest.approx(2.0, abs=1e-9)
    assert est.upper == pytest.approx(2.001, abs=1e-9)
    assert est.lower <= 2.0 <= est.upper
    assert est.witness is not None


def test_rlcd_witness_satisfies_inequality(rng):
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=3.0, resolution=1e-3)
    prof = _scalar_profile()
    est = rlcd_estimate(np.array([[1.0]]), prof, [0], params, rng)
    y = np.array([[1.0]]).T @ est.witness
    lhs = expected_sq_dist_to_lattice(y, prof.column(0))
    rhs = params.L**2 * log_plus(params.alpha * float(np.linalg.norm(y)) / params.L)
    assert lhs < rhs


def test_rlcd_analytic_floor_respected(rng):
    # radius cap below L / (alpha * s_max): nothing to scan
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=1.5, resolution=1e-3)
    est = rlcd_estimate(np.array([[1.0]]), _scalar_profile(), [0], params, rng)
    assert est.lower == pytest.approx(1.5)
    assert est.upper == math.inf
    assert est.witness is None
    assert "floor" in est.note


def test_rlcd_no_witness_in_window(rng):
    # smeared continuous law keeps the expected distance well above the
    # logarithmic threshold across a short scan window
    prof = EntryProfile.homogeneous(1, 1, uniform_scaled(), 2.0)
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=2.05, resolution=1e-2, mc_trials=2000)
    est = rlcd_estimate(np.array([[1.0]]), prof, [0], params, rng)
    assert est.upper == math.inf
    assert est.witness is None
    assert est.lower >= 2.0


def test_rlcd_trace_rows(rng):
    trace = []
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=2.055, resolution=1e-2, mc_trials=500)
    prof = EntryProfile.homogeneous(1, 1, uniform_scaled(), 2.0)
    rlcd_estimate(np.array([[1.0]]), prof, [0], params, rng, trace=trace)
    assert len(trace) == 6  # radii 2.00 .. 2.05
    radii = [row[0] for row in trace]
    assert radii == sorted(radii)
    for _, lhs, rhs, flag in trace:
        assert lhs >= 0.0 and rhs >= 0.0 and flag in (True, False)


def test_rlcd_rejects_degenerate_basis(rng):
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=3.0, resolution=1e-2)
    prof = EntryProfile.homogeneous(2, 2, rademacher(), 2.0)
    bad = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        rlcd_estimate(bad, prof, [0], params, rng)
    for cols in ([5], [-1], [0.5], []):
        with pytest.raises(ValueError, match="column_indices must be a non-empty subset"):
            rlcd_estimate(np.eye(2), prof, cols, params, rng)
    with pytest.raises(ValueError, match="basis has no rows"):
        rlcd_estimate(np.zeros((0, 2)), prof, [0], params, rng)


@pytest.mark.parametrize("basis, n_directions, message", [
    (np.array([[1.0, np.nan]]), 8, "basis has non-finite entries"),
    (np.array([[1.0, 0.0], [0.0, np.inf]]), 8, "basis has non-finite entries"),
    (np.eye(2), -1, "n_directions must be an integer >= 0, got -1"),
    (np.eye(2), 2.5, "n_directions must be an integer >= 0, got 2.5"),
    (np.eye(1, 2), -1, "n_directions must be an integer >= 0, got -1"),
], ids=["nan", "inf", "negative", "fractional", "negative-one-row"])
def test_rlcd_refuses_non_finite_basis_and_bad_direction_counts(basis, n_directions, message):
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=3.0, resolution=1e-1)
    prof = EntryProfile.homogeneous(2, 2, rademacher(), 2.0)
    stream = np.random.default_rng(3)
    with pytest.raises(ValueError, match=re.escape(message)):
        rlcd_estimate(basis, prof, [0], params, stream, n_directions=n_directions)
    assert stream.bit_generator.state == np.random.default_rng(3).bit_generator.state


def test_rlcd_multirow_basis_runs(rng):
    prof = EntryProfile.homogeneous(3, 3, rademacher(), 2.0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=2.3, resolution=5e-2)
    est = rlcd_estimate(q.T, prof, [0, 1, 2], params, rng, n_directions=8)
    assert est.lower >= params.L / params.alpha - 1e-9


# --- concentration function ---


def test_levy_constant_sampler(rng):
    def sampler(stream, count):
        return np.full((count, 1), 7.3)

    prob, se = levy_estimate(sampler, 0.0, 500, rng)
    assert prob == 1.0
    assert se == 0.0


def test_levy_two_atom_sampler(rng):
    def sampler(stream, count):
        return (stream.integers(0, 2, size=(count, 1)) * 2.0 - 1.0)

    prob_half, se = levy_estimate(sampler, 0.5, 20_000, rng)
    assert prob_half == pytest.approx(0.5, abs=4 * 0.0036 + 1e-9)
    prob_one, _ = levy_estimate(sampler, 1.0, 2000, rng)
    assert prob_one == 1.0


def test_levy_bounds_and_validation(rng):
    def sampler(stream, count):
        return stream.standard_normal((count, 2))

    prob, se = levy_estimate(sampler, 0.7, 4000, rng)
    assert 0.0 <= prob <= 1.0
    assert se == pytest.approx(math.sqrt(prob * (1 - prob) / 4000))
    with pytest.raises(ValueError):
        levy_estimate(sampler, -0.1, 100, rng)


def test_levy_arithmetic_spikes_vs_generic_direction():
    # structured direction: all coordinates equal, so the image law lives on
    # a lattice of spacing 2/5 and the concentration function grows in jumps
    # separated by flat stretches; a generic direction smooths this out.
    n = 25
    structured = np.full(n, 1.0 / math.sqrt(n))
    generic_stream = np.random.default_rng(77)
    generic = generic_stream.standard_normal(n)
    generic /= np.linalg.norm(generic)

    def make_sampler(u):
        def sampler(stream, count):
            signs = stream.integers(0, 2, size=(count, n)) * 2.0 - 1.0
            return signs @ u

        return sampler

    trials = 20_000

    def increment(u, t_lo, t_hi, seed):
        lo, _ = levy_estimate(make_sampler(u), t_lo, trials, np.random.default_rng(seed))
        hi, _ = levy_estimate(make_sampler(u), t_hi, trials, np.random.default_rng(seed))
        return hi - lo

    # atoms sit at odd multiples of 1/5; the best-window mass jumps each time
    # 2t crosses a multiple of the spacing 2/5, i.e. at t = 0.2, 0.4, 0.6, ...
    flat_structured = increment(structured, 0.42, 0.58, seed=1)
    flat_generic = increment(generic, 0.42, 0.58, seed=2)
    assert flat_structured < 0.03  # plateau: no new atom fits in the window
    assert flat_generic > 0.08  # steady mass growth

    spike_structured = increment(structured, 0.58, 0.62, seed=3)
    spike_generic = increment(generic, 0.58, 0.62, seed=4)
    assert spike_structured > 0.08  # a fourth atom enters at t = 0.6
    assert spike_generic < 0.04


# --- closed-form bound ---


def test_esseen_bound_simple_values():
    assert esseen_bound_eval(1, 1.0, 1.0, 1.0, math.inf, 0.1, 1.0) == pytest.approx(0.1)
    assert esseen_bound_eval(1, 1.0, 1.0, 1.0, math.inf, 0.2, 1.0) == pytest.approx(0.2)
    # finite rd adds sqrt(m)/rd to the radius term
    assert esseen_bound_eval(1, 1.0, 1.0, 1.0, 10.0, 0.1, 1.0) == pytest.approx(0.2)


def test_esseen_bound_formula_identity():
    m, L, alpha, det_root, rd, t, c = 3, 1.4, 0.3, 2.0, 9.0, 0.25, 0.8
    expected = (c * L / (alpha * math.sqrt(m))) ** m / det_root * (
        t + math.sqrt(m) / rd
    ) ** m
    assert esseen_bound_eval(m, L, alpha, det_root, rd, t, c) == pytest.approx(expected)


def test_esseen_bound_scales_inversely_with_det_root():
    a = esseen_bound_eval(2, 1.0, 0.5, 1.0, math.inf, 0.3, 1.0)
    b = esseen_bound_eval(2, 1.0, 0.5, 4.0, math.inf, 0.3, 1.0)
    assert a == pytest.approx(4.0 * b)


def test_esseen_bound_validation():
    with pytest.raises(ValueError):
        esseen_bound_eval(0, 1.0, 0.5, 1.0, math.inf, 0.1, 1.0)
    with pytest.raises(ValueError):
        esseen_bound_eval(1, 1.0, 0.5, 0.0, math.inf, 0.1, 1.0)


# --- integer point counting ---


def test_count_lattice_points_known_values():
    assert count_lattice_points(1, 2.5)[0] == 5
    assert count_lattice_points(2, 1.0)[0] == 5
    assert count_lattice_points(2, 2.0)[0] == 13
    assert count_lattice_points(3, 1.0)[0] == 7


def test_count_lattice_points_bound_holds():
    for n in (1, 2, 3, 4):
        for radius in np.arange(0.5, 10.5, 0.5):
            exact, bound = count_lattice_points(n, float(radius))
            assert exact <= bound


@functools.cache
def _box_sq_norms(n, top):
    """Sorted squared norms of the box [-top, top]^n, enumerated point by point as in 0.6.0."""
    return sorted(sum(v * v for v in pt)
                  for pt in itertools.product(range(-top, top + 1), repeat=n))


def ref_count_lattice_points(n, radius, c=3.0):
    """The 0.6.0 count: the box points whose squared norm is at most radius * radius.

    Python compares the integer norms with the float r2 exactly, as the 0.6.0
    filter ``sum(v * v for v in pt) <= r2`` did; the box is enumerated once per
    (n, ceil(R)) so that 200 radii per dimension stay affordable.
    """
    count = bisect.bisect_right(_box_sq_norms(n, math.ceil(radius)), radius * radius)
    return count, (2.0 + c * radius / math.sqrt(n)) ** n


def test_count_lattice_points_matches_box_enumeration():
    radii = ([0.0] + [math.sqrt(k) for k in range(151)]
             + [float(r) for r in np.random.default_rng(2024).uniform(0.0, 12.0, 60)])
    for n in (1, 2, 3, 4):
        for radius in radii + ([20.0] if n <= 3 else []):
            got = count_lattice_points(n, radius)
            assert type(got[0]) is int
            assert got == ref_count_lattice_points(n, radius), (n, radius)


def test_count_lattice_points_limits():
    with pytest.raises(ResourceLimitError):
        count_lattice_points(5, 1.0)
    with pytest.raises(ResourceLimitError):
        count_lattice_points(2, 25.0)
    with pytest.raises(ValueError):
        count_lattice_points(2, -1.0)
