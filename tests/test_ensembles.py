import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab.ensembles import (
    GAUSSIAN_PSI2,
    RADEMACHER_PSI2,
    UNIFORM_PSI2,
    DistributionLaw,
    EntryProfile,
    EstimationError,
    _finite_psi2,
    discrete,
    gaussian,
    paley_zygmund_floor,
    parse_law_spec,
    profile_from_rules,
    psi2_estimate,
    rademacher,
    sample_matrix,
    sparse_bernoulli,
    uniform_scaled,
)


class ConstantZero:
    """Degenerate stand-in with a sample method; not a valid law."""

    def sample(self, stream, size=None):
        if size is None:
            return 0.0
        return np.zeros(size)


def test_rademacher_values_and_frequency(rng):
    draws = rademacher().sample(rng, size=100_000)
    assert set(np.unique(draws)) == {-1.0, 1.0}
    assert abs(np.mean(draws == 1.0) - 0.5) < 0.01


def test_gaussian_moments(rng):
    n = 100_000
    draws = gaussian().sample(rng, size=n)
    # 4 standard errors for the mean, generous band for the variance
    assert abs(draws.mean()) < 4.0 / math.sqrt(n)
    assert abs(draws.var() - 1.0) < 0.05


def test_uniform_support_and_moments(rng):
    law = uniform_scaled()
    draws = law.sample(rng, size=100_000)
    half = math.sqrt(3.0)
    assert np.all(np.abs(draws) <= half + 1e-12)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.02


def test_sparse_bernoulli_moments(rng):
    law = sparse_bernoulli(0.1)
    draws = law.sample(rng, size=200_000)
    assert abs(np.mean(draws == 0.0) - 0.9) < 0.01
    assert abs(draws.var() - 1.0) < 0.05


def test_every_builtin_is_standardized(rng):
    for law in (rademacher(), gaussian(), uniform_scaled(), sparse_bernoulli(0.25)):
        draws = law.sample(rng, size=100_000)
        assert abs(draws.mean()) < 0.03
        assert abs(draws.var() - 1.0) < 0.05


# --- declared subgaussian constants ---


def test_rademacher_psi2_closed_form():
    assert RADEMACHER_PSI2 == pytest.approx(1.0 / math.sqrt(math.log(2.0)), abs=1e-12)
    assert rademacher().declared_psi2 == RADEMACHER_PSI2


def test_gaussian_psi2_closed_form():
    assert GAUSSIAN_PSI2 == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)


def test_psi2_defining_inequality_at_declared_value():
    # E exp((X/t)^2) <= 2 must hold at t = declared and fail slightly below.
    for law in (rademacher(), sparse_bernoulli(0.5)):
        assert law.finite_support
        atoms = np.asarray(law.atoms)
        weights = np.asarray(law.weights)

        def mgf(t):
            return float(np.sum(weights * np.exp((atoms / t) ** 2)))

        t = law.declared_psi2
        assert mgf(t) <= 2.0 + 1e-9
        assert mgf(t * 0.999) > 2.0


def test_uniform_psi2_against_quadrature():
    from scipy.integrate import quad

    half = math.sqrt(3.0)

    def mgf(t):
        val, _ = quad(lambda x: math.exp((x / t) ** 2) / (2 * half), -half, half)
        return val

    t = uniform_scaled().declared_psi2
    assert mgf(t) == pytest.approx(2.0, abs=1e-6)


def _bisect_to_collapse(above_two, lo, hi):
    """Halve [lo, hi] until its midpoint is one of its ends; return hi."""
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if above_two(mid):
            lo = mid
        else:
            hi = mid
    return hi


def test_uniform_psi2_sits_just_above_the_moment_series_root():
    # X uniform on [-sqrt3, sqrt3]: E exp((X/t)^2) = sum_k (3/t^2)^k / (k! (2k+1))
    def mgf(t):
        return sum((3.0 / t**2) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(60))

    root = _bisect_to_collapse(lambda t: mgf(t) > 2.0, 1.0, 3.0)
    assert root < UNIFORM_PSI2 <= root + 1e-9
    assert uniform_scaled().declared_psi2 == UNIFORM_PSI2 == 1.3383691564309084


def _finite_psi2_200_steps(atoms, weights):
    """The 200-halving bisection that _finite_psi2 ran before it stopped at collapse."""
    a2 = np.asarray(atoms, dtype=float) ** 2
    w = np.asarray(weights, dtype=float)
    peak = float(np.max(a2))

    def avg(t):
        return float(np.sum(w * np.exp(a2 / (t * t))))

    lo = math.sqrt(peak / (math.log(2.0 / max(np.min(w[a2 == peak]), 1e-300)) + 1.0))
    hi = math.sqrt(peak / math.log(2.0)) + 1e-9
    if avg(hi) > 2.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if avg(mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("spec", [
    "discrete(-1:0.25,0:0.5,2:0.25)",  # tests/identity/sample-rows.campaign
    "discrete(-1:0.4,0:0.2,1:0.4)",  # tests/identity/singular-tail-mixed-n128.campaign
    "discrete(-1:0.4999999,1:0.5,100:0.0000001)",  # one large atom of tiny weight
    # a weightless largest atom: the bracket's low end fails, so the last step moves hi
    "discrete(-1:0.5,1:0.5,40:0)",
    "discrete(0:0.9,1:0.1)",
    "discrete(-3:0.1,-1:0.2,0:0.3,2:0.4)",
    "discrete(-2:0.5,1:0.25,3:0.25)",
])
def test_finite_psi2_matches_the_200_step_bisection(spec):
    law = parse_law_spec(spec)
    assert law.declared_psi2 == _finite_psi2_200_steps(law.atoms, law.weights)
    assert _finite_psi2(law.atoms, law.weights) == law.declared_psi2


def test_sparse_bernoulli_psi2_closed_form():
    p = 0.1
    expected = 1.0 / math.sqrt(p * math.log(1.0 + 1.0 / p))
    assert sparse_bernoulli(p).declared_psi2 == pytest.approx(expected, rel=1e-12)


def test_sparse_bernoulli_p_one_matches_rademacher():
    law = sparse_bernoulli(1.0)
    assert sorted(law.atoms) == pytest.approx([-1.0, 1.0])
    assert list(law.weights) == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.5])
def test_sparse_bernoulli_rejects_bad_p(bad):
    with pytest.raises(ValueError):
        sparse_bernoulli(bad)


# --- discrete construction ---


def test_discrete_normalizes_raw_atoms():
    # raw atoms -1, 3 with weights 3/4, 1/4: mean 0, variance 3
    law = discrete([-1.0, 3.0], [0.75, 0.25])
    arr = np.asarray(law.atoms)
    w = np.asarray(law.weights)
    assert abs(np.dot(w, arr)) < 1e-12
    assert np.dot(w, arr**2) == pytest.approx(1.0, abs=1e-12)
    assert arr[1] / arr[0] == pytest.approx(-3.0)


def test_discrete_rejects_bad_weights():
    with pytest.raises(ValueError):
        discrete([-1.0, 1.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        discrete([-1.0, 1.0], [1.1, -0.1])


@pytest.mark.parametrize("spec, bad", [
    ("discrete(nan:0.5,1:0.5)", "atom nan"),
    ("discrete(1:nan,-1:nan)", "weight nan"),
    ("discrete(inf:0.5,-inf:0.5)", "atom inf"),
])
def test_discrete_names_a_non_finite_atom_or_weight(spec, bad):
    with pytest.raises(ValueError, match=f"needs finite atoms and weights, got {bad}$"):
        parse_law_spec(spec)


def test_discrete_rejects_degenerate_support():
    with pytest.raises(ValueError):
        discrete([2.0], [1.0])


@given(
    atoms=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2,
        max_size=6,
        unique=True,
    )
)
@settings(max_examples=60, deadline=None)
def test_discrete_standardization_property(atoms):
    weights = [1.0 / len(atoms)] * len(atoms)
    spread = max(atoms) - min(atoms)
    if spread < 1e-3:
        return
    law = discrete(atoms, weights)
    support = np.asarray(law.atoms)
    w = np.asarray(law.weights)
    assert abs(np.dot(w, support)) < 1e-9
    assert np.dot(w, support**2) == pytest.approx(1.0, abs=1e-9)


# --- symmetrization ---


def test_rademacher_symmetrized_support():
    atoms, weights = rademacher().symmetrized_support()
    table = dict(zip(atoms, weights))
    assert set(table) == {-2.0, 0.0, 2.0}
    assert table[0.0] == pytest.approx(0.5)
    assert table[2.0] == pytest.approx(0.25)
    assert table[-2.0] == pytest.approx(0.25)


def test_symmetrized_draws_match_support(rng):
    law = rademacher()
    draws = law.sample_symmetrized(rng, 40_000)
    assert set(np.unique(draws)) <= {-2.0, 0.0, 2.0}
    assert abs(np.mean(draws == 0.0) - 0.5) < 0.01
    assert abs(draws.var() - 2.0) < 0.05


def test_symmetrized_variance_is_doubled(rng):
    draws = uniform_scaled().sample_symmetrized(rng, 50_000)
    assert abs(draws.mean()) < 0.03
    assert abs(draws.var() - 2.0) < 0.06


# --- spec strings and profiles ---


@pytest.mark.parametrize(
    "text",
    ["rademacher", "gaussian", "uniform", "uniform-scaled", "sparse-bernoulli(0.3)"],
)
def test_parse_law_spec_round_trip(text):
    law = parse_law_spec(text)
    again = parse_law_spec(law.spec_string())
    assert again.spec_string() == law.spec_string()


def test_parse_law_spec_rejects_unknown():
    with pytest.raises(ValueError):
        parse_law_spec("cauchy")
    with pytest.raises(ValueError):
        parse_law_spec("sparse-bernoulli(2)")


def test_homogeneous_profile_basics():
    prof = EntryProfile.homogeneous(3, 4, rademacher(), 2.0)
    assert prof.n_rows == 3 and prof.n_cols == 4
    assert prof.is_homogeneous
    assert prof.law(2, 3).kind == "rademacher"
    assert len(prof.column(1)) == 3


def test_profile_rejects_psi2_above_cap():
    with pytest.raises(ValueError):
        EntryProfile.homogeneous(2, 2, sparse_bernoulli(0.01), 2.0)


def test_profile_rules_with_wildcards():
    rules = [("*", "*", rademacher()), (1, "*", gaussian()), (1, 0, uniform_scaled())]
    prof = profile_from_rules(rules, 2, 2, k_cap=2.0)
    assert prof.law(0, 0).kind == "rademacher"
    assert prof.law(1, 1).kind == "gaussian"
    assert prof.law(1, 0).kind == "uniform"
    assert not prof.is_homogeneous


def test_profile_constructor_merges_and_renumbers_laws():
    codes = np.array([[2, 0, 2], [1, 3, 0]])
    prof = EntryProfile((gaussian(), rademacher(), sparse_bernoulli(0.5), gaussian()), codes, 2.5)
    assert [law.kind for law in prof.laws] == ["sparse-bernoulli", "gaussian", "rademacher"]
    assert prof.codes.tolist() == [[0, 1, 0], [2, 1, 1]]
    assert (prof.n_rows, prof.n_cols) == (2, 3)
    assert prof.column(1) == (gaussian(), gaussian())
    with pytest.raises(ValueError):
        prof.codes[0, 0] = 1
    assert codes[0, 0] == 2  # the caller's array is left alone


@pytest.mark.parametrize("codes, message", [
    (np.zeros(3, dtype=int), "non-empty 2-d integer"),
    (np.zeros((2, 2)), "non-empty 2-d integer"),
    (np.zeros((2, 2), dtype=bool), "non-empty 2-d integer"),
    (np.zeros((0, 2), dtype=int), "non-empty 2-d integer"),
    (np.array([[0, 2], [1, 0]]), "codes must lie in \\[0, 2\\)"),
    (np.array([[0, -1], [1, 0]]), "codes must lie in \\[0, 2\\)"),
])
def test_profile_constructor_rejects_bad_codes(codes, message):
    with pytest.raises(ValueError, match=message):
        EntryProfile((rademacher(), gaussian()), codes, 2.0)


def test_profile_equality_ignores_overwritten_rules():
    rules = [("*", "*", gaussian()), (0, "*", uniform_scaled()), ("*", "*", rademacher())]
    prof = profile_from_rules(rules, 3, 4, k_cap=2.0)
    same = EntryProfile.homogeneous(3, 4, rademacher(), 2.0)
    assert prof == same and hash(prof) == hash(same)
    assert prof.is_homogeneous and prof.laws == (rademacher(),)
    assert prof != EntryProfile.homogeneous(4, 3, rademacher(), 2.0)
    assert prof != EntryProfile.homogeneous(3, 4, rademacher(), 2.5)


def test_profile_rules_reject_gaps_and_bad_indices():
    rules = [(0, 0, rademacher())]
    with pytest.raises(ValueError):
        profile_from_rules(rules, 2, 2, k_cap=2.0)
    with pytest.raises(ValueError):
        profile_from_rules([(3, 0, gaussian())], 1, 1, k_cap=2.0)


@pytest.mark.parametrize("rules", [
    [("*", "*", gaussian())],
    [("*", "*", uniform_scaled())],
    [("*", "*", discrete([-1, 1], [0.5, 0.5]))],  # sign atoms, but a discrete law
    [("*", "*", rademacher()), (0, 0, gaussian())],
    [("*", "*", rademacher()), (0, 0, sparse_bernoulli(0.3))],  # neither rows nor columns
], ids=["gaussian", "uniform", "discrete", "one-gaussian-cell", "one-sparse-cell"])
def test_integer_scale_is_none_without_a_sign_pattern(rules):
    prof = profile_from_rules(rules, 4, 4, k_cap=3.0)
    assert prof.integer_scale is None


@pytest.mark.parametrize("rules, shape", [
    ([("*", "*", rademacher())], (4, 1)),
    ([("*", "*", rademacher()), (1, "*", sparse_bernoulli(0.3)),
      (3, "*", sparse_bernoulli(0.1))], (4, 1)),
    ([("*", "*", rademacher()), (0, 2, sparse_bernoulli(1))], (4, 1)),  # equal magnitudes
    ([("*", "*", rademacher()), ("*", 1, sparse_bernoulli(0.3)),
      ("*", 2, sparse_bernoulli(0.5))], (1, 4)),  # only columns share a magnitude
], ids=["rademacher", "mixed-rows", "sparse-p1", "mixed-columns"])
def test_integer_scale_maps_samples_to_their_sign_patterns(rules, shape, rng):
    prof = profile_from_rules(rules, 4, 4, k_cap=3.0)
    scale = prof.integer_scale
    assert scale.shape == shape and not scale.flags.writeable
    assert prof.integer_scale is scale  # built once
    mats = sample_matrix(prof, rng, 50)
    pattern = np.rint(mats * scale)
    assert set(np.unique(pattern)) <= {-1.0, 0.0, 1.0}
    magnitude = np.array([[max(prof.law(i, j).atoms) for j in range(4)] for i in range(4)])
    np.testing.assert_array_equal(pattern * magnitude, mats)
    np.testing.assert_allclose(scale * magnitude, 1.0, rtol=1e-15)


# --- matrix sampling ---


def test_sample_matrix_homogeneous_entries(rng):
    prof = EntryProfile.homogeneous(4, 5, rademacher(), 2.0)
    mat = sample_matrix(prof, rng)
    assert mat.shape == (4, 5)
    assert set(np.unique(mat)) <= {-1.0, 1.0}


def test_sample_matrix_mixed_rows_have_right_marginals():
    rules = [(0, "*", rademacher()), (1, "*", gaussian())]
    prof = profile_from_rules(rules, 2, 400, k_cap=2.0)
    stream = np.random.default_rng(7)
    rows = np.stack([sample_matrix(prof, stream) for _ in range(50)])
    top = rows[:, 0, :].ravel()
    bottom = rows[:, 1, :].ravel()
    assert set(np.unique(top)) <= {-1.0, 1.0}
    assert np.unique(bottom).size > 1000  # continuous marginal
    assert abs(bottom.var() - 1.0) < 0.05


def test_sample_matrix_deterministic_under_seed():
    prof = EntryProfile.homogeneous(6, 6, gaussian(), 2.0)
    a = sample_matrix(prof, np.random.default_rng(42))
    b = sample_matrix(prof, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)

    rules = [("*", "*", rademacher()), (2, 2, gaussian())]
    prof2 = profile_from_rules(rules, 5, 5, k_cap=2.0)
    c = sample_matrix(prof2, np.random.default_rng(9))
    d = sample_matrix(prof2, np.random.default_rng(9))
    np.testing.assert_array_equal(c, d)


def _sample_matrix_per_cell(profile, stream):
    """Reference: group cells by law in row-major order and place draws one by one."""
    out = np.empty((profile.n_rows, profile.n_cols))
    groups = {}
    for i in range(profile.n_rows):
        for j in range(profile.n_cols):
            groups.setdefault(profile.law(i, j), []).append((i, j))
    for law, cells in groups.items():
        for (i, j), v in zip(cells, law.sample(stream, len(cells))):
            out[i, j] = v
    return out


def _mixed_profile(n_rows=5, n_cols=7):
    rules = [("*", "*", rademacher()), ("*", 2, gaussian()), (1, "*", sparse_bernoulli(0.5)),
             (3, 4, uniform_scaled()), (4, "*", rademacher())]
    return profile_from_rules(rules, n_rows, n_cols, k_cap=2.5)


def test_sample_matrix_mixed_matches_per_cell_reference():
    prof = _mixed_profile()
    assert not prof.is_homogeneous
    assert [law.kind for law in prof.laws] == [
        "rademacher", "gaussian", "sparse-bernoulli", "uniform"]
    a = sample_matrix(prof, np.random.default_rng(3))
    np.testing.assert_array_equal(a, _sample_matrix_per_cell(prof, np.random.default_rng(3)))


def test_sample_matrix_count_one_equals_single_draw():
    prof = _mixed_profile()
    batch = sample_matrix(prof, np.random.default_rng(11), 1)
    assert batch.shape == (1, 5, 7)
    np.testing.assert_array_equal(batch[0], sample_matrix(prof, np.random.default_rng(11)))


@pytest.mark.parametrize("law", [rademacher(), gaussian(), uniform_scaled(),
                                 sparse_bernoulli(0.3)], ids=lambda law: law.kind)
def test_sample_matrix_homogeneous_batch_equals_repeated_draws(law):
    prof = EntryProfile.homogeneous(3, 4, law, 2.5)
    stream = np.random.default_rng(5)
    loop = np.stack([sample_matrix(prof, stream) for _ in range(6)])
    np.testing.assert_array_equal(sample_matrix(prof, np.random.default_rng(5), 6), loop)


@pytest.mark.parametrize("law", [rademacher(), gaussian(), uniform_scaled(),
                                 sparse_bernoulli(0.3), discrete([-1.0, 0.0, 2.0],
                                                                 [0.25, 0.5, 0.25])],
                         ids=lambda law: law.kind)
@pytest.mark.parametrize("count", [None, 1, 256])
def test_one_law_profile_draw_equals_scatter_path(law, count):
    prof = EntryProfile.homogeneous(6, 9, law, 10.0)
    lead = () if count is None else (count,)
    stream = np.random.default_rng(17)
    scatter = np.empty(lead + (prof.codes.size,))
    for cells_law, cells in zip(prof.laws, prof.cells):
        scatter[..., cells] = cells_law.sample(stream, lead + (cells.size,))
    drawn = sample_matrix(prof, np.random.default_rng(17), count)
    assert drawn.shape == lead + (6, 9) and drawn.dtype == np.float64
    assert drawn.tobytes() == scatter.tobytes()


_FINITE_LAWS = [
    sparse_bernoulli(0.3), sparse_bernoulli(0.5), sparse_bernoulli(1.0),
    discrete([-1.0, 2.0], [2 / 3, 1 / 3]),
    discrete([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]),
    discrete([5.0, -2.0, 0.0, 1.0], [0.0, 0.25, 0.5, 0.25]),
    discrete([-2.0, 0.0, 1.0, 4.0, 9.0], [0.3, 0.3, 0.2, 0.2, 0.0]),
]


@pytest.mark.parametrize("law", _FINITE_LAWS, ids=lambda law: law.spec_string())
@pytest.mark.parametrize("size", [None, 7, (12, 30), (3, 4, 5)], ids=str)
def test_finite_draw_equals_generator_choice(law, size):
    for seed in range(25):
        stream, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = law.sample(stream, size)
        want = ref.choice(np.asarray(law.atoms), size, p=np.asarray(law.weights))
        if size is None:
            assert type(draw) is float and np.float64(draw).tobytes() == want.tobytes()
        else:
            assert draw.dtype == want.dtype and draw.shape == want.shape
            assert draw.tobytes() == want.tobytes()
        assert stream.bit_generator.state == ref.bit_generator.state


def _renumbered_by_unique(laws, codes):
    """Reference: the np.unique renumbering that EntryProfile's one-pass scatter replaced."""
    merged = {}
    codes = np.array([merged.setdefault(law, len(merged)) for law in laws], dtype=np.intp)[codes]
    used, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    distinct = list(merged)
    return tuple(distinct[c] for c in used[order]), np.argsort(order)[inverse].reshape(codes.shape)


def _renumbering_cases():
    stream = np.random.default_rng(2024)
    # Equal laws built separately, repeated objects, and laws no cell uses.
    pool = (gaussian(), rademacher(), gaussian(), sparse_bernoulli(0.5), sparse_bernoulli(0.5),
            uniform_scaled(), discrete([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]),
            discrete([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]), rademacher())
    for _ in range(30):
        shape = tuple(int(v) for v in stream.integers(1, 12, size=2))
        used = stream.choice(len(pool), size=int(stream.integers(1, len(pool) + 1)), replace=False)
        yield pool, stream.choice(used, size=shape)
    # 128 laws, one per column; then with cells recoded to duplicate entries of laws 0..4.
    wide = tuple(discrete([0.0, 1.0, j + 2.0], [0.3, 0.3, 0.4]) for j in range(128))
    columns = np.tile(stream.permutation(128), (128, 1))
    yield wide, columns
    yield wide + wide[:5], np.where(stream.random((128, 128)) < 0.3, columns % 5 + 128, columns)


def test_profile_renumbering_matches_unique_reference():
    for laws, codes in _renumbering_cases():
        prof = EntryProfile(laws, codes, 10.0)
        want_laws, want_codes = _renumbered_by_unique(laws, codes)
        assert prof.laws == want_laws
        assert prof.codes.dtype == want_codes.dtype
        assert prof.codes.tobytes() == want_codes.tobytes()


def test_sample_matrix_batch_places_each_law_on_its_cells():
    prof = _mixed_profile()
    batch = sample_matrix(prof, np.random.default_rng(2), 300)
    assert batch.shape == (300, 5, 7)
    for i in range(5):
        for j in range(7):
            cell = batch[:, i, j]
            law = prof.law(i, j)
            if law.finite_support:
                assert set(np.unique(cell)) == set(law.atoms)
            else:
                assert np.unique(cell).size == 300


def test_sample_matrix_hs_norm_scaling(rng):
    prof = EntryProfile.homogeneous(50, 50, gaussian(), 2.0)
    mat = sample_matrix(prof, rng)
    # sum of 2500 unit-variance squares concentrates near 2500
    assert abs(np.sum(mat**2) / 2500.0 - 1.0) < 0.15


# --- small-ball floor ---


def test_paley_zygmund_floor_values():
    assert paley_zygmund_floor(1.0) == pytest.approx(0.1)
    assert paley_zygmund_floor(math.sqrt(2.0)) == pytest.approx(1.0 / 22.0)


def test_paley_zygmund_floor_monotone():
    ks = np.linspace(1.0, 4.0, 40)
    floors = [paley_zygmund_floor(k) for k in ks]
    assert all(a > b for a, b in zip(floors, floors[1:]))


def test_paley_zygmund_floor_rejects_small_k():
    with pytest.raises(ValueError):
        paley_zygmund_floor(0.9)


@pytest.mark.parametrize(
    "law",
    [rademacher(), gaussian(), uniform_scaled(), sparse_bernoulli(0.2)],
    ids=lambda law: law.kind,
)
def test_symmetrized_small_ball_beats_floor(law, rng):
    n = 100_000
    draws = np.abs(
        law.sample(rng, size=n) - law.sample(rng, size=n)
    )
    phat = np.mean(draws >= 1.0)
    floor = paley_zygmund_floor(max(law.declared_psi2, 1.0))
    se = math.sqrt(phat * (1.0 - phat) / n)
    assert phat >= floor - 3.0 * se


# --- psi2 estimation ---


def test_psi2_estimate_recovers_rademacher(rng):
    est = psi2_estimate(rademacher(), n_samples=50_000, stream=rng)
    assert est == pytest.approx(RADEMACHER_PSI2, rel=0.02)


def test_psi2_estimate_recovers_gaussian(rng):
    est = psi2_estimate(gaussian(), n_samples=200_000, stream=rng)
    assert est == pytest.approx(GAUSSIAN_PSI2, rel=0.05)


def test_psi2_estimate_zero_for_constant(rng):
    assert psi2_estimate(ConstantZero(), n_samples=2000, stream=rng) == 0.0


def test_psi2_estimate_rejects_heavy_tail(rng):
    class Heavy:
        def sample(self, stream, size=None):
            draws = stream.standard_cauchy(size if size is not None else 1) * 100.0
            return draws if size is not None else float(draws[0])

    with pytest.raises(EstimationError):
        psi2_estimate(Heavy(), n_samples=5000, stream=rng)


def test_psi2_estimate_validates_sample_count(rng):
    with pytest.raises(ValueError):
        psi2_estimate(rademacher(), n_samples=10, stream=rng)
