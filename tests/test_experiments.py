import itertools
import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rmtlab import cli, experiments, linalg
from rmtlab.arithmetic import RLCDParams, esseen_bound_eval, levy_estimate
from rmtlab.ensembles import (EntryProfile, check_psi2_cap, discrete, gaussian,
                              paley_zygmund_floor, parse_law_spec, profile_from_rules,
                              rademacher, sample_matrix, sparse_bernoulli, uniform_scaled)
from rmtlab.errors import ResourceLimitError
from rmtlab.experiments import (
    DET_RANK_MAX_N,
    ExperimentConfig,
    KernelEventParams,
    TRIAL_BLOCK,
    compressible_event_check,
    kernel_complement_basis,
    kernel_rlcd_probe,
    kernel_tuple_event_check,
    norm_concentration_mc,
    rank_histogram_rademacher,
    rank_tail_exact_rademacher,
    rank_tail_counts,
    rank_tail_from_table,
    rank_tail_mc,
    run_trials,
    scaling_fit,
    singular_tail_from_table,
    singular_tail_mc,
    tensorization_check,
    trial_matrix,
)
from rmtlab.linalg import numerical_rank, singular_spectrum
from rmtlab.rounding import RoundingParams, randomized_round


def _config(n, k, law=None, **kwargs):
    """Config on a homogeneous n x n profile, rademacher unless another law is given."""
    prof = EntryProfile.homogeneous(n, n, law or rademacher(), 2.0)
    return ExperimentConfig(prof, n, k, **kwargs)


def enumerate_sign_matrix_rank_tail(n: int, k: int) -> Fraction:
    """Second route: batched SVD over all sign matrices, counting rank <= n - k."""
    total = 2 ** (n * n)
    bits = ((np.arange(total)[:, None] >> np.arange(n * n)) & 1) * 2.0 - 1.0
    mats = bits.reshape(total, n, n)
    svals = np.linalg.svd(mats, compute_uv=False)
    tol = n * np.finfo(float).eps * svals[:, 0]
    ranks = np.sum(svals > tol[:, None], axis=1)
    return Fraction(int(np.sum(ranks <= n - k)), total)


# --- configuration ---


def test_config_validates_shapes_and_ranges():
    prof = EntryProfile.homogeneous(3, 3, rademacher(), 2.0)
    with pytest.raises(ValueError):
        ExperimentConfig(prof, 4, 1)
    with pytest.raises(ValueError):
        ExperimentConfig(prof, 3, 5)
    with pytest.raises(ValueError):
        ExperimentConfig(prof, 3, -1)
    with pytest.raises(ValueError):
        ExperimentConfig(prof, 3, 3, epsilon_grid=(0.5, 0.1))
    with pytest.raises(ValueError):
        ExperimentConfig(prof, 3, 3, epsilon_grid=(-0.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(prof, 3, 3, gamma=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(prof, 3, 3, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(prof, 3, 3, master_seed=2**64)


@pytest.mark.parametrize("grid", [(math.nan,), (0.1, math.nan), (math.nan, 0.1)])
def test_config_refuses_nan_in_epsilon_grid(grid):
    prof = EntryProfile.homogeneous(3, 3, rademacher(), 2.0)
    with pytest.raises(ValueError, match="epsilon grid entries must be non-negative"):
        ExperimentConfig(prof, 3, 3, epsilon_grid=grid)


def test_singular_tail_warns_below_tail_regime():
    prof = EntryProfile.homogeneous(10, 10, rademacher(), 2.0)

    def tail(k):
        return singular_tail_mc(ExperimentConfig(prof, 10, k, epsilon_grid=(0.5,), trials=8))

    with pytest.warns(UserWarning, match="k = 1 is below log") as record:
        tail(1)
    assert record[0].filename == __file__  # points at the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ExperimentConfig(prof, 10, 1)  # a config alone never warns
        tail(5)  # above log(10): no warning
        with pytest.raises(ValueError, match="k >= 1"):
            tail(0)  # rank-only degenerate case: an error, no warning


# --- trial tables ---


def _mixed_config(n, k, **kwargs):
    rules = [("*", "*", rademacher()), ("*", 1, gaussian()), (2, "*", sparse_bernoulli(0.5))]
    prof = profile_from_rules(rules, n, n, k_cap=2.5)
    return ExperimentConfig(prof, n, k, **kwargs)


def test_run_trials_deterministic_across_partitioning():
    cfg = _config(6, 3, trials=3 * TRIAL_BLOCK + 17, master_seed=5)
    base = run_trials(cfg)
    threaded = run_trials(cfg, n_threads=3)
    for field in base.dtype.names:
        np.testing.assert_array_equal(base[field], threaded[field])


@pytest.mark.parametrize("trials", [1, TRIAL_BLOCK, TRIAL_BLOCK + 1, 600])
def test_thread_count_does_not_change_tables_or_counts(trials):
    gauss = _config(6, 2, law=gaussian(), trials=trials, master_seed=51)  # run_trials route
    signs = _config(6, 2, trials=trials, master_seed=52)  # determinant route
    table = run_trials(gauss)
    counts = {tuple(ks): rank_tail_counts(signs, ks).tolist() for ks in ([0, 1], [1, 2])}
    for threads in (2, 3):
        assert run_trials(gauss, n_threads=threads).tobytes() == table.tobytes()
        for ks, want in counts.items():
            assert rank_tail_counts(signs, ks, n_threads=threads).tolist() == want, ks


def test_one_block_or_one_thread_starts_no_pool(monkeypatch, tmp_path):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
    run_trials(_config(6, 2, law=gaussian(), trials=TRIAL_BLOCK, master_seed=53), n_threads=3)
    rank_tail_counts(_config(6, 2, trials=TRIAL_BLOCK, master_seed=54), [1, 2], n_threads=3)
    # Four blocks at the default n_threads = 1, through every route and the CLI.
    many = 3 * TRIAL_BLOCK + 1
    run_trials(_config(6, 2, law=gaussian(), trials=many, master_seed=56))
    signs = _config(6, 2, trials=many, master_seed=57)
    assert experiments._det_route_scale(signs) is not None
    for ks in ([1], [1, 2]):
        rank_tail_counts(signs, ks)
    gauss = _config(6, 2, law=gaussian(), trials=many, master_seed=58)
    assert experiments._det_route_scale(gauss) is None
    rank_tail_counts(gauss, [1, 2])
    for kind, keys in (("rank-tail", "k = 1,2\n"), ("singular-tail", "k = 2\nepsilon = 0.5,1\n")):
        campaign = cli.parse_campaign(f"kind = {kind}\nseed = 59\nn = 6\ntrials = {many}\n"
                                      f"profile = rademacher\n{keys}")
        assert cli.run_campaign(campaign, out_dir=str(tmp_path / kind)) == 0
    with pytest.raises(AssertionError, match="thread pool"):
        run_trials(_config(6, 2, trials=TRIAL_BLOCK + 1, master_seed=55), n_threads=2)


def _blas_threads():
    return linalg._openblas()[0]()


@pytest.fixture
def blas_at_two():
    """numpy's OpenBLAS on two threads for the test, then back at the caller's count."""
    blas = linalg._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS was not found; the BLAS pin is a no-op")
    caller = blas[0]()
    blas[1](2)
    yield
    blas[1](caller)


@pytest.mark.parametrize("n", [100, 128])
def test_large_n_tables_match_unpinned_svd_at_any_thread_count(n):
    # At these sizes OpenBLAS splits one SVD over threads; n = 6 never reaches that path.
    cfg = _config(n, 2, law=gaussian(), trials=TRIAL_BLOCK + 1, master_seed=60 + n)
    table = run_trials(cfg)
    assert run_trials(cfg, n_threads=2).tobytes() == table.tobytes()
    svals = np.concatenate([np.linalg.svd(experiments._block_matrices(cfg, b), compute_uv=False)
                            for b in (0, 1)])
    np.testing.assert_array_equal(table["s_largest"], svals[:, 0])
    np.testing.assert_array_equal(table["s_bottom"], svals[:, ::-1][:, :2])
    np.testing.assert_array_equal(table["rank_at_tol"],
                                  np.sum(svals > n * np.finfo(float).eps * svals[:, :1], axis=1))


def test_blas_runs_on_one_thread_inside_blocks_and_is_restored(blas_at_two):
    seen = []

    def record(start, mats):
        seen.append(_blas_threads())

    def fail(start, mats):
        raise RuntimeError("reduction failed")

    cfg = _config(4, 1, trials=3 * TRIAL_BLOCK, master_seed=61)
    for n_threads in (1, 2):
        experiments._map_blocks(cfg, record, n_threads)
        assert _blas_threads() == 2
        with pytest.raises(RuntimeError, match="reduction failed"):
            experiments._map_blocks(cfg, fail, n_threads)
        assert _blas_threads() == 2
    assert seen == [1] * 6


def test_overlapping_pins_restore_the_count_once(blas_at_two):
    entered, release = threading.Event(), threading.Event()

    def hold():
        with linalg._one_blas_thread():
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=hold)
    try:
        with linalg._one_blas_thread():
            worker.start()
            assert entered.wait(10)
        assert _blas_threads() == 1  # the worker's block is still open
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive()
    assert _blas_threads() == 2


def test_many_threads_pinning_at_once_leave_the_count_restored(blas_at_two):
    inside = []

    def churn():
        for _ in range(1000):
            with linalg._one_blas_thread():
                inside.append(_blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert inside == [1] * 8000
    assert _blas_threads() == 2 and linalg._blas_depth == 0


def test_norm_check_svd_runs_on_one_blas_thread(blas_at_two, monkeypatch):
    svd, seen = np.linalg.svd, []

    def recording_svd(*args, **kwargs):
        seen.append(_blas_threads())
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for n in (3, 5):
        norm_concentration_mc(_config(n, 0, trials=40))
    assert seen == [1, 1]
    assert _blas_threads() == 2


def test_run_trials_table_contents():
    cfg = _config(5, 2, trials=64, master_seed=9)
    table = run_trials(cfg)
    assert table["s_bottom"].shape == (64, 2)
    assert np.all(table["s_largest"] >= table["s_bottom"][:, 1])
    assert np.all(table["s_bottom"][:, 1] >= table["s_bottom"][:, 0])
    assert np.all(table["s_bottom"][:, 0] >= 0.0)
    assert np.all(table["rank_at_tol"] <= 5)
    # k = 0 answers rank tails only, and still keeps the smallest singular value
    assert run_trials(_config(5, 0, trials=64, master_seed=9))["s_bottom"].shape == (64, 1)


@pytest.mark.parametrize("make_config", [_config, _mixed_config],
                         ids=["homogeneous", "mixed"])
def test_trial_matrix_replays_table_rows(make_config):
    trials = 2 * TRIAL_BLOCK + 40  # first, middle and partial last block
    cfg = make_config(4, 2, trials=trials, master_seed=21)
    table = run_trials(cfg)
    for i in (0, 3, TRIAL_BLOCK + 100, trials - 1):
        s = np.linalg.svd(trial_matrix(cfg, i), compute_uv=False)
        assert s[::-1][:2].tolist() == table["s_bottom"][i].tolist()
        assert np.sum(s > 4 * np.finfo(float).eps * s[0]) == table["rank_at_tol"][i]
    with pytest.raises(IndexError):
        trial_matrix(cfg, trials)


@pytest.mark.parametrize("law", [rademacher(), gaussian()], ids=["rademacher", "gaussian"])
def test_trial_table_rank_is_numerical_rank(law):
    cfg = _config(3, 1, law=law, trials=TRIAL_BLOCK + 40, master_seed=8)
    table = run_trials(cfg)
    ranks = [numerical_rank(singular_spectrum(trial_matrix(cfg, i))) for i in range(cfg.trials)]
    assert table["rank_at_tol"].tolist() == ranks
    if law == rademacher():
        assert min(ranks) < 3  # singular sign matrices are among the trials


# --- exact enumeration oracle ---


def test_exact_rank_tail_frozen_values():
    assert rank_tail_exact_rademacher(2, 1) == Fraction(1, 2)
    assert rank_tail_exact_rademacher(2, 2) == Fraction(0)
    assert rank_tail_exact_rademacher(3, 1) == Fraction(5, 8)
    assert rank_tail_exact_rademacher(3, 2) == Fraction(1, 16)
    assert rank_tail_exact_rademacher(3, 3) == Fraction(0)
    assert rank_tail_exact_rademacher(1, 0) == Fraction(1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_rank_tail_matches_float_enumeration(n):
    for k in range(0, n + 1):
        exact = rank_tail_exact_rademacher(n, k)
        assert exact == enumerate_sign_matrix_rank_tail(n, k)


def test_exact_rank_tail_limits():
    with pytest.raises(ResourceLimitError):
        rank_tail_exact_rademacher(7, 1)
    with pytest.raises(ValueError):
        rank_tail_exact_rademacher(3, 4)
    with pytest.raises(ValueError):
        rank_tail_exact_rademacher(0, 0)


# singular n x n sign matrices for n = 1..6 (OEIS A046747)
A046747 = (0, 8, 320, 43264, 22003712, 43090149376)


@pytest.fixture(scope="module")
def sign_rank_histograms():
    return {n: rank_histogram_rademacher(n) for n in range(1, 7)}


def test_rank_histogram_counts_every_sign_matrix(sign_rank_histograms):
    for n, hist in sign_rank_histograms.items():
        assert len(hist) == n + 1 and all(type(c) is int for c in hist)
        assert sum(hist) == 2 ** (n * n)
        assert sum(hist[:n]) == A046747[n - 1]
    with pytest.raises(ResourceLimitError):
        rank_histogram_rademacher(7)
    with pytest.raises(ValueError):
        rank_histogram_rademacher(0)


def test_rank_histogram_n6_tails_match_gf251_elimination(sign_rank_histograms):
    # values from an independent batched Gaussian elimination over GF(251)
    want = [Fraction(1315007, 2097152), Fraction(409939, 4194304), Fraction(59881, 16777216),
            Fraction(481, 16777216), Fraction(1, 2 ** 25)]
    hist = sign_rank_histograms[6]
    assert [Fraction(sum(hist[:7 - k]), 2 ** 36) for k in range(1, 6)] == want


@pytest.mark.parametrize("n, seed", [(5, 51), (6, 61)])
def test_rank_tail_mc_matches_exact_histogram(sign_rank_histograms, n, seed):
    table = run_trials(_config(n, 1, trials=200_000, master_seed=seed), n_threads=2)
    hist = sign_rank_histograms[n]
    for k in (1, 2, 3):
        est, se = rank_tail_from_table(table, n, k)
        exact = sum(hist[:n - k + 1]) / 2 ** (n * n)
        assert abs(est - exact) <= 4 * se, (k, est, se, exact)


# --- Monte Carlo tails ---


def test_rank_tail_mc_degenerate_k_zero():
    est, se = rank_tail_mc(_config(3, 0, trials=50, master_seed=2))
    assert est == 1.0
    assert se == 0.0


def test_rank_tail_mc_gaussian_full_rank():
    est, _ = rank_tail_mc(_config(8, 1, law=gaussian(), trials=500, master_seed=4))
    assert est == 0.0


def test_rank_tail_mc_matches_exact_oracle():
    cfg = _config(2, 1, trials=20_000, master_seed=8)
    est, se = rank_tail_mc(cfg)
    assert abs(est - 0.5) <= 4 * se


# --- rank by determinant ---


def _alternating_config(n, k, p=0.1, k_cap=3.0, **kwargs):
    """Rows alternate rademacher and sparse-bernoulli(p), starting with rademacher."""
    rules = [("*", "*", rademacher())] + [(i, "*", sparse_bernoulli(p)) for i in range(1, n, 2)]
    prof = profile_from_rules(rules, n, n, k_cap=k_cap)
    return ExperimentConfig(prof, n, k, **kwargs)


def _table_counts(table, n, ks):
    return [int(np.sum(table["rank_at_tol"] <= n - k)) for k in ks]


def _det_error_bound(n):
    """The rank_tail_counts bound on |computed det - det M| for M in {-1, 0, 1}^(n x n)."""
    u = 2.0 ** -53
    gamma = n * u / (1.0 - n * u)
    eta = 1.01 * math.sqrt(n) * gamma * 2.0 ** n
    top = (math.sqrt(n) + eta) ** n
    theta = math.expm1((2.0 * u + gamma) * 745.0 * n) + 2.0 * u  # logs, sum and exp
    return top - n ** (n / 2) + theta * top, theta


def test_det_rank_max_n_is_where_the_error_bound_stops():
    bound, theta = _det_error_bound(DET_RANK_MAX_N)
    assert bound < 0.05 and theta < 2e-11
    assert _det_error_bound(DET_RANK_MAX_N + 1)[0] > 0.5


def test_det_route_splits_every_n6_sign_class_like_the_svd():
    # the classes of rank_histogram_rademacher: first row and column +1, rows 2..n a
    # multiset of the 2^(n-1) patterns
    n = 6
    patterns = 1.0 - 2.0 * ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    classes = itertools.combinations_with_replacement(range(patterns.shape[0]), n - 1)
    seen = disagree = 0
    while chunk := list(itertools.islice(classes, 16_384)):
        mats = np.concatenate([np.ones((len(chunk), 1, n)), patterns[np.array(chunk)]], axis=1)
        by_det = experiments._integer_ranks(mats, np.ones((n, 1)), svd_singular=False) == n
        svals = np.linalg.svd(mats, compute_uv=False)
        by_svd = np.sum(svals > n * np.finfo(float).eps * svals[:, :1], axis=1) == n
        disagree += int(np.sum(by_det != by_svd))
        seen += len(chunk)
    assert seen == 376_992
    assert disagree == 0


@pytest.mark.parametrize("law", ["rademacher", "sparse-bernoulli(0.3)",
                                 "sparse-bernoulli(0.5)", "alternating", "column"])
@pytest.mark.parametrize("n", range(6, 13))
def test_rank_tail_counts_equal_the_trial_table(n, law):
    kwargs = dict(trials=5 * TRIAL_BLOCK + 77, master_seed=1000 + n)
    if law == "alternating":
        cfg = _alternating_config(n, 1, **kwargs)
    elif law == "column":  # one scale per column
        rules = [("*", "*", rademacher()), ("*", 1, sparse_bernoulli(0.3))]
        cfg = ExperimentConfig(profile_from_rules(rules, n, n, k_cap=3.0), n, 1, **kwargs)
    else:
        cfg = _config(n, 1, law=parse_law_spec(law), **kwargs)
    assert experiments._det_route_scale(cfg) is not None
    table = run_trials(cfg)
    for ks in ([1], [1, 2], [1, 2, 3]):
        want = _table_counts(table, n, ks)
        for threads in (1, 2):
            assert rank_tail_counts(cfg, ks, n_threads=threads).tolist() == want, (ks, threads)
    assert rank_tail_mc(cfg) == rank_tail_from_table(table, n, 1)


@pytest.mark.parametrize("make_config", [
    lambda: _config(6, 2, law=gaussian(), trials=700, master_seed=32),
    lambda: _config(6, 2, law=discrete([-1.0, 1.0], [0.5, 0.5]), trials=700, master_seed=33),
    lambda: _config(DET_RANK_MAX_N + 1, 2, trials=700, master_seed=34),
    lambda: _alternating_config(DET_RANK_MAX_N, 2, p=1e-6, k_cap=300.0, trials=700,
                                master_seed=35),
], ids=["gaussian", "discrete", "above-range", "ill-scaled-rows"])
def test_rank_tail_counts_fall_back_to_the_trial_table(make_config, monkeypatch):
    cfg = make_config()
    table = run_trials(cfg)

    def no_det_route(*args):
        raise AssertionError("the determinant route ran")

    monkeypatch.setattr(experiments, "_integer_ranks", no_det_route)
    for ks in ([1], [0, 1, 2]):
        assert rank_tail_counts(cfg, ks, n_threads=2).tolist() == _table_counts(table, cfg.n, ks)
    assert rank_tail_mc(cfg) == rank_tail_from_table(table, cfg.n, 2)


def test_rank_tail_counts_skip_the_svd_when_every_k_is_at_most_one(monkeypatch):
    cfg = _alternating_config(8, 1, trials=3 * TRIAL_BLOCK, master_seed=41)
    table = run_trials(cfg)

    def no_svd(*args, **kwargs):
        raise AssertionError("the SVD ran")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert rank_tail_counts(cfg, [0, 1]).tolist() == _table_counts(table, 8, [0, 1])
    with pytest.raises(AssertionError, match="the SVD ran"):
        rank_tail_counts(cfg, [1, 2])
    with pytest.raises(ValueError, match="every k must lie in"):
        rank_tail_counts(cfg, [9])


def test_tail_monotonicity_on_shared_table():
    cfg = _config(4, 2, epsilon_grid=(0.0, 0.3, 0.8, 1.5), trials=3000, master_seed=6)
    table = run_trials(cfg)
    rank_estimates = [rank_tail_from_table(table, 4, k)[0] for k in range(0, 5)]
    assert all(a >= b for a, b in zip(rank_estimates, rank_estimates[1:]))
    tail_estimates = [singular_tail_from_table(table, 4, 2, e)[0]
                      for e in cfg.epsilon_grid]
    assert all(a <= b for a, b in zip(tail_estimates, tail_estimates[1:]))


@pytest.mark.parametrize("law", [rademacher(), gaussian()], ids=["rademacher", "gaussian"])
def test_singular_tail_is_non_increasing_in_k_on_one_table(law):
    n = 5
    cfg = _config(n, n, law=law, trials=3000, master_seed=18)
    table = run_trials(cfg)
    for eps in (0.0, 0.1, 0.3, 0.8, 1.5, 3.0):
        tails = [singular_tail_from_table(table, n, k, eps)[0] for k in range(1, n + 1)]
        assert all(a >= b for a, b in zip(tails, tails[1:])), (eps, tails)
    assert tails[0] > tails[1] > tails[2] > 0.0  # at eps = 3 the check is not vacuous


@pytest.mark.parametrize("k", [0, 3])
def test_singular_tail_from_table_refuses_k_outside_the_table(k):
    table = run_trials(_config(4, 2, trials=10, master_seed=19))
    with pytest.raises(ValueError, match=rf"k must lie in \[1, 2\], .* got {k}$"):
        singular_tail_from_table(table, 4, k, 0.5)


@pytest.mark.parametrize("law", [rademacher(), gaussian()], ids=["rademacher", "gaussian"])
def test_rank_at_threshold_is_the_singular_tail_at_tau_sqrt_n(law):
    # rank at a threshold tau above the cutoff, from replayed trials, is the
    # singular-value tail at epsilon = tau sqrt(n) on the trial table
    n, trials = 6, 300
    cfg = _config(n, 3, law=law, trials=trials, master_seed=17)
    svals = np.array([np.linalg.svd(trial_matrix(cfg, i), compute_uv=False)
                      for i in range(trials)])
    table = run_trials(cfg)  # one table answers k = 1, 2, 3
    inside = 0
    for k in (1, 2, 3):
        for tau in (1e-3, 0.05, 0.2, 0.5, 1.0):
            assert np.all(tau > n * np.finfo(float).eps * table["s_largest"])
            hits = int(np.sum(np.sum(svals > tau, axis=1) <= n - k))
            inside += 0 < hits < trials
            est, _ = singular_tail_from_table(table, n, k, tau * math.sqrt(n))
            assert est == hits / trials, (k, tau)
    assert inside >= 5


def test_tail_at_zero_equals_rank_event():
    cfg = _config(4, 4, epsilon_grid=(0.0,), trials=2000, master_seed=7)
    table = run_trials(cfg)
    for k in range(1, 5):
        assert singular_tail_from_table(table, 4, k, 0.0) == rank_tail_from_table(table, 4, k)
    assert rank_tail_from_table(table, 4, 2)[0] > 0.0  # the k = 2 event occurs


def test_singular_tail_mc_rows():
    cfg = _config(4, 2, epsilon_grid=(0.1, 0.5, 1.0), gamma=0.25, trials=1500,
                  master_seed=10)
    rows = singular_tail_mc(cfg, comparison_c=1.5)
    assert list(rows["epsilon"]) == [0.1, 0.5, 1.0]
    assert all(0.0 <= p <= 1.0 for p in rows["estimate"])
    assert all(rows["estimate"][i] <= rows["estimate"][i + 1] for i in range(2))
    for row in rows:
        expected = (1.5 * row["epsilon"] / 2) ** (0.25 * 4)
        assert row["bound"] == pytest.approx(expected)


def test_singular_tail_meets_the_edelman_limit():
    """Gaussian entries, k = 1: P(sqrt(n) s_min <= eps) -> 1 - exp(-eps^2/2 - eps).

    Edelman (1988).  The 0.03 allowance for the bias at n = 30 is the one perfbench
    uses; it is recorded, not calibrated.
    """
    trials = 4000
    cfg = _config(30, 1, law=gaussian(), epsilon_grid=(0.25, 0.5, 1.0), trials=trials,
                  master_seed=20261019)
    with pytest.warns(UserWarning, match="below log"):
        rows = singular_tail_mc(cfg)
    for row in rows:
        eps = float(row["epsilon"])
        p0 = 1.0 - math.exp(-eps * eps / 2.0 - eps)
        assert abs(row["estimate"] - p0) <= 5.0 * math.sqrt(p0 * (1.0 - p0) / trials) + 0.03, eps


def test_singular_tail_mc_validation():
    with pytest.raises(ValueError):
        singular_tail_mc(_config(3, 0, epsilon_grid=(0.5,), trials=10))
    with pytest.raises(ValueError):
        singular_tail_mc(_config(3, 3, trials=10))


# --- mean of uniforms ---


def test_tensorization_exact_values():
    prob, bound = tensorization_check(2, 0.25)
    assert prob == 0.125
    assert bound == pytest.approx((math.e * 0.25) ** 2)
    prob1, bound1 = tensorization_check(1, 0.3)
    assert prob1 == pytest.approx(0.3)
    assert bound1 == pytest.approx(math.e * 0.3)


def test_tensorization_mc_against_closed_form():
    # n = 2, t = 0.8: P(U1 + U2 <= 1.6) = 1 - (2 - 1.6)^2 / 2 = 0.92
    prob, _ = tensorization_check(2, 0.8)
    assert abs(prob - 0.92) <= math.ulp(0.92)


def test_tensorization_probability_below_bound():
    for n in (1, 2, 3, 5, 8):
        for t in (0.05, 0.1, 0.2, 0.4):
            prob, bound = tensorization_check(n, t)
            assert prob <= bound


def test_tensorization_is_symmetric_and_monotone():
    # the mean of n uniforms is symmetric about 1/2 and at most 1
    for n in range(1, 21):
        assert tensorization_check(n, 0.5)[0] == 0.5
        assert tensorization_check(n, 1.0)[0] == 1.0
        probs = [tensorization_check(n, float(t))[0] for t in np.arange(0.05, 1.0, 0.05)]
        assert probs == sorted(probs)


def test_tensorization_validation():
    with pytest.raises(ValueError):
        tensorization_check(0, 0.5)
    with pytest.raises(ValueError):
        tensorization_check(21, 0.5)
    with pytest.raises(ValueError):
        tensorization_check(3, 0.0)
    with pytest.raises(ValueError):
        tensorization_check(3, 1.5)


# --- norm thresholds ---


def test_norm_check_refuses_zero_trials():
    with pytest.raises(ValueError, match="trials must be at least 1"):
        norm_concentration_mc(_config(3, 0, trials=0))


def test_norm_concentration_rejects_unbounded():
    for rules in ([("*", "*", gaussian())], [("*", "*", rademacher()), (2, 1, gaussian())]):
        config = ExperimentConfig(profile_from_rules(rules, 4, 4, 2.0), 4, 0, trials=10)
        with pytest.raises(ValueError, match="needs bounded entry laws"):
            norm_concentration_mc(config)


def test_norm_concentration_single_entry():
    op, op_se, hs, hs_se = norm_concentration_mc(_config(1, 0, trials=200, master_seed=3))
    assert (op, op_se) == (0.0, 0.0)  # |entry| = 1 < 3
    assert (hs, hs_se) == (0.0, 0.0)  # 1 < 2


def _norm_concentration_loop(config, c_op=3.0, c_hs=1.0):
    """Reference: one trial_matrix replay per trial."""
    mats = np.stack([trial_matrix(config, i) for i in range(config.trials)])
    op = np.linalg.svd(mats, compute_uv=False)[:, 0] >= c_op * math.sqrt(config.n)
    hs = np.sqrt(np.sum(mats * mats, axis=(1, 2))) >= 2.0 * c_hs * config.n
    return (*experiments._binomial(int(op.sum()), config.trials),
            *experiments._binomial(int(hs.sum()), config.trials))


@pytest.mark.parametrize("law", [rademacher(), uniform_scaled(), sparse_bernoulli(0.3)],
                         ids=lambda law: law.kind)
def test_norm_concentration_matches_per_trial_loop(law):
    for n in (3, 5):
        config = _config(n, 0, law, trials=TRIAL_BLOCK + 40, master_seed=8)
        got = norm_concentration_mc(config, c_op=1.5, c_hs=0.5)
        assert got == _norm_concentration_loop(config, 1.5, 0.5)


def test_norm_check_draws_one_block_at_a_time(monkeypatch):
    sample, counts = experiments.sample_matrix, []

    def recording_sample(profile, stream, count=None):
        counts.append(count)
        return sample(profile, stream, count)

    monkeypatch.setattr(experiments, "sample_matrix", recording_sample)
    norm_concentration_mc(_config(4, 0, trials=3 * TRIAL_BLOCK + 1))
    assert counts == [TRIAL_BLOCK] * 3 + [1]


def test_norm_concentration_decays():
    ops, hss = zip(*(norm_concentration_mc(_config(n, 0, trials=300, master_seed=n))[::2]
                     for n in (10, 20, 40)))
    assert all(a >= b for a, b in zip(ops, ops[1:]))
    assert all(hs < 0.05 for hs in hss)


# --- structured events ---


def test_compressible_event_accepts_sparse_orthonormal():
    n = 16
    x = np.zeros((n, 2))
    x[0, 0] = 1.0
    x[1, 1] = 1.0
    assert compressible_event_check(np.zeros((8, n)), x, tau=0.5)


def test_compressible_event_rejects_large_images():
    n = 16
    x = np.zeros((n, 2))
    x[0, 0] = 1.0
    x[1, 1] = 1.0
    b = 10.0 * np.eye(n)[:8]
    assert not compressible_event_check(b, x, tau=0.5)


def test_compressible_event_rejects_spread_vector():
    n = 16
    x = np.full((n, 1), 0.25)
    assert not compressible_event_check(np.zeros((8, n)), x, tau=0.5)


def test_compressible_event_validation():
    x = np.zeros((4, 1))
    x[0, 0] = 2.0
    with pytest.raises(ValueError):
        compressible_event_check(np.zeros((2, 4)), x, tau=0.5)
    x[0, 0] = 1.0
    with pytest.raises(ValueError):
        compressible_event_check(np.zeros((2, 4)), x, tau=1.5)


def test_kernel_event_params_validation():
    KernelEventParams(tau=0.4, rho=0.3, r=0.01, L=1.0)
    with pytest.raises(ValueError):
        KernelEventParams(tau=1.0, rho=0.3, r=0.01, L=1.0)
    with pytest.raises(ValueError):
        KernelEventParams(tau=0.4, rho=0.3, r=0.0, L=1.0)


_RLCD = dict(L=1.0, alpha=0.5, radius_cap=3.0, resolution=0.5)
_ROUND = dict(delta=0.1, rho=0.3, tau=0.5, K=2.0, r=0.05, c_op=3.0)


@pytest.mark.parametrize("build", [
    lambda: EntryProfile.homogeneous(3, 3, sparse_bernoulli(0.01), math.nan),
    lambda: check_psi2_cap(sparse_bernoulli(0.01), math.nan),
    lambda: RLCDParams(**dict(_RLCD, L=math.nan)),
    lambda: RLCDParams(**dict(_RLCD, resolution=math.nan)),
    lambda: RLCDParams(**dict(_RLCD, radius_cap=math.inf)),
    lambda: RoundingParams(**dict(_ROUND, delta=math.nan)),
    lambda: RoundingParams(**dict(_ROUND, r=math.nan)),
    lambda: RoundingParams(**dict(_ROUND, c_op=math.nan)),
    lambda: RoundingParams(**dict(_ROUND, K=math.nan)),
    lambda: KernelEventParams(tau=0.4, rho=0.3, r=math.nan, L=1.0),
    lambda: randomized_round(np.array([0.3]), math.nan, np.random.default_rng(0)),
    lambda: levy_estimate(lambda s, c: s.standard_normal(c), math.nan, 200,
                          np.random.default_rng(0)),
    lambda: paley_zygmund_floor(math.nan),
    lambda: esseen_bound_eval(1, 1.0, 0.5, math.nan, 2.0, 0.1, 1.0),
    lambda: parse_law_spec("discrete(nan:0.5,1:0.5)"),
    lambda: parse_law_spec("discrete(1:nan,-1:nan)"),
    lambda: parse_law_spec("discrete(inf:0.5,-inf:0.5)"),
], ids=["profile-k_cap", "psi2-cap", "rlcd-L", "rlcd-resolution", "rlcd-radius_cap-inf",
        "round-delta", "round-r", "round-c_op", "round-K", "kernel-r", "randomized-round-delta",
        "levy-t", "paley-zygmund-K", "esseen-det-root", "discrete-atom-nan",
        "discrete-weights-nan", "discrete-atoms-inf"])
def test_parameter_checks_refuse_nan_and_inf(build):
    with pytest.raises(ValueError):
        build()


def _kernel_fixture(stream, n=30, l=3, scale=None, r=0.01):
    b = stream.standard_normal((n - l, n))
    _, _, vt = np.linalg.svd(b)
    basis = vt[n - l:].T
    if scale is None:
        scale = 3.0 * r * math.sqrt(n)
    return b, basis * scale


def test_kernel_event_all_conditions_hold(rng):
    n, l = 30, 3
    params = KernelEventParams(tau=0.4, rho=0.3, r=0.01, L=1.0)
    b, v = _kernel_fixture(rng, n, l, r=params.r)
    prof = EntryProfile.homogeneous(n, n, rademacher(), 2.0)
    ok, flags = kernel_tuple_event_check(v, b, prof, params, rng,
                                         n_span_samples=300, n_annulus_samples=300,
                                         mc_trials=200)
    assert ok
    assert set(flags) == {"norm_window", "span_incomp", "almost_orth",
                          "lattice_dist", "annulus"}
    assert all(flags.values())


def test_kernel_event_flags_norm_violation(rng):
    n, l = 30, 3
    params = KernelEventParams(tau=0.4, rho=0.3, r=0.01, L=1.0)
    b, v = _kernel_fixture(rng, n, l, scale=0.5 * params.r * math.sqrt(n))
    prof = EntryProfile.homogeneous(n, n, rademacher(), 2.0)
    ok, flags = kernel_tuple_event_check(v, b, prof, params, rng,
                                         n_span_samples=200, n_annulus_samples=200,
                                         mc_trials=200)
    assert not ok
    assert not flags["norm_window"]


def test_kernel_event_refuses_zero_annulus_samples(rng):
    n = 20
    params = KernelEventParams(tau=0.4, rho=0.3, r=0.01, L=1.0)
    b, v = _kernel_fixture(rng, n, 2)
    prof = EntryProfile.homogeneous(n, n, rademacher(), 2.0)
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        kernel_tuple_event_check(v, b, prof, params, rng, n_span_samples=10,
                                 n_annulus_samples=0, mc_trials=10)


def test_kernel_event_rejects_non_kernel_tuple(rng):
    n, l = 20, 2
    params = KernelEventParams(tau=0.4, rho=0.3, r=0.01, L=1.0)
    b, v = _kernel_fixture(rng, n, l)
    v = v + 0.5
    prof = EntryProfile.homogeneous(n, n, rademacher(), 2.0)
    with pytest.raises(ValueError):
        kernel_tuple_event_check(v, b, prof, params, rng)


def test_kernel_complement_basis_properties(rng):
    a = rng.standard_normal((12, 12))
    subset = list(range(8))
    basis = kernel_complement_basis(a, subset, 4)
    assert basis.shape == (12, 4)
    np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(basis.T @ a[:, subset], np.zeros((4, 8)), atol=1e-8)


def test_kernel_complement_basis_degenerate(rng):
    a = rng.standard_normal((6, 6))
    with pytest.raises(ValueError):
        kernel_complement_basis(a, list(range(5)), 3)


def test_kernel_rlcd_probe_respects_floor(rng):
    n = 12
    prof = EntryProfile.homogeneous(n, n, gaussian(), 2.0)
    a = sample_matrix(prof, rng)
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=2.1, resolution=5e-2,
                        mc_trials=100)
    est = kernel_rlcd_probe(a, prof, list(range(8)), params, rng, n_directions=4)
    # the probe basis is orthonormal, so the analytic floor is exactly L/alpha
    assert est.lower >= params.L / params.alpha - 1e-9


def test_kernel_rlcd_probe_validates_subset(rng):
    n = 6
    prof = EntryProfile.homogeneous(n, n, rademacher(), 2.0)
    a = sample_matrix(prof, rng)
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=2.1, resolution=5e-2)
    with pytest.raises(ValueError):
        kernel_rlcd_probe(a, prof, list(range(6)), params, rng)


# --- scaling fit ---


def test_scaling_fit_recovers_exact_slope():
    points = [(n, k, math.exp(-2.0 * k * n)) for n, k in [(4, 1), (6, 1), (6, 2), (8, 2)]]
    c_hat, residuals = scaling_fit(points)
    assert c_hat == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(residuals, 0.0, atol=1e-9)


def test_scaling_fit_positive_on_exact_oracle():
    points = [(2, 1, 0.5), (3, 1, 0.625)]
    c_hat, _ = scaling_fit(points)
    assert c_hat > 0.0


def test_scaling_fit_drops_degenerate_points():
    points = [(2, 1, 0.5), (3, 1, 0.625), (4, 4, 0.0), (5, 1, 1.0)]
    with pytest.warns(UserWarning):
        c_hat, residuals = scaling_fit(points)
    assert c_hat > 0.0
    assert residuals.size == 2


def test_scaling_fit_needs_two_points():
    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            scaling_fit([(2, 1, 0.5), (3, 1, 0.0)])
