"""Acceptance gate: thirteen end-to-end checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each criterion is also a separate test so ``pytest -v`` shows the same
pass/fail breakdown by name.
"""

import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np

import rmtlab
from rmtlab.arithmetic import (
    RLCDParams,
    count_lattice_points,
    dist_to_lattice,
    rlcd_estimate,
)
from rmtlab.cli import parse_campaign, run_campaign
from rmtlab.ensembles import (
    EntryProfile,
    gaussian,
    paley_zygmund_floor,
    rademacher,
    sparse_bernoulli,
    uniform_scaled,
)
from rmtlab.experiments import (
    ExperimentConfig,
    rank_tail_exact_rademacher,
    rank_tail_from_table,
    rank_tail_mc,
    run_trials,
    scaling_fit,
    singular_tail_from_table,
    tensorization_check,
)
from rmtlab.linalg import minmax_kth_smallest, singular_spectrum
from rmtlab.rounding import randomized_round
from rmtlab.selection import ri_select


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def _mc_config(n, trials, seed):
    prof = EntryProfile.homogeneous(n, n, rademacher(), 2.0)
    return ExperimentConfig(prof, trials, seed)


def test_criterion_01_exact_oracle_n2():
    t0 = time.perf_counter()
    exact_ok = rank_tail_exact_rademacher(2, 1) == Fraction(1, 2)
    est, se = rank_tail_mc(_mc_config(2, 100_000, seed=101), 1)
    mc_ok = abs(est - 0.5) <= 3 * se
    elapsed = time.perf_counter() - t0
    _verdict(1, "exact and Monte Carlo rank tails agree at n = 2",
             exact_ok and mc_ok and elapsed < 30.0,
             f"est {est:.4f} +/- {se:.4f}, {elapsed:.1f}s")


def test_criterion_02_enumeration_oracle_n3():
    t0 = time.perf_counter()
    exact = rank_tail_exact_rademacher(3, 1)
    # independent second route over the same 512 matrices
    bits = ((np.arange(512)[:, None] >> np.arange(9)) & 1) * 2.0 - 1.0
    svals = np.linalg.svd(bits.reshape(512, 3, 3), compute_uv=False)
    tol = 3 * np.finfo(float).eps * svals[:, 0]
    ranks = np.sum(svals > tol[:, None], axis=1)
    second_route = Fraction(int(np.sum(ranks <= 2)), 512)
    est, se = rank_tail_mc(_mc_config(3, 100_000, seed=102), 1)
    elapsed = time.perf_counter() - t0
    ok = exact == Fraction(5, 8) == second_route and abs(est - 0.625) <= 3 * se
    _verdict(2, "512-matrix enumeration and Monte Carlo agree at n = 3",
             ok and elapsed < 120.0,
             f"exact {exact}, est {est:.4f} +/- {se:.4f}, {elapsed:.1f}s")


def test_criterion_03_lattice_distance_brute_force():
    stream = np.random.default_rng(103)
    offsets = np.array(list(itertools.product(range(-2, 3), repeat=5)))
    worst = 0.0
    for _ in range(1000):
        y = stream.uniform(-3.0, 3.0, size=5)
        candidates = np.round(y) + offsets
        brute = float(np.min(np.linalg.norm(candidates - y, axis=1)))
        worst = max(worst, abs(dist_to_lattice(y) - brute))
    _verdict(3, "lattice distance matches brute-force search on 1000 points in R^5",
             worst <= 1e-12, f"worst gap {worst:.2e}")


def test_criterion_04_lattice_counting():
    thirteen = count_lattice_points(2, 2.0)[0] == 13
    sweep_ok = True
    for n in (1, 2, 3, 4):
        for radius in np.arange(0.5, 10.5, 0.5):
            exact, bound = count_lattice_points(n, float(radius))
            if exact > bound:
                sweep_ok = False
    _verdict(4, "integer-point counts stay below the closed-form bound",
             thirteen and sweep_ok)


def test_criterion_05_rounding_guarantees():
    t0 = time.perf_counter()
    n, delta, draws = 50, 0.1, 10_000
    stream = np.random.default_rng(105)
    v = stream.uniform(-1.0, 1.0, size=n)
    outputs = np.empty((draws, n))
    for i in range(draws):
        outputs[i] = randomized_round(v, delta, stream)

    grid_offsets = np.abs(outputs - delta * np.round(outputs / delta))
    on_grid = float(np.max(grid_offsets)) <= 1e-12
    sup_ok = float(np.max(np.abs(outputs - v))) <= delta + 1e-12

    frac = v / delta - np.floor(v / delta)
    se = delta * np.sqrt(frac * (1.0 - frac) / draws)
    means_ok = bool(np.all(np.abs(outputs.mean(axis=0) - v) <= 4 * se + 1e-12))
    elapsed = time.perf_counter() - t0
    _verdict(5, "rounded draws are on-grid, one step away, and unbiased",
             on_grid and sup_ok and means_ok and elapsed < 60.0,
             f"{elapsed:.1f}s")


def test_criterion_06_minmax_identity():
    stream = np.random.default_rng(106)
    identity_ok = True
    for _ in range(100):
        a = stream.standard_normal((20, 20))
        spec = singular_spectrum(a)
        for k in (1, 2, 5):
            value, _ = minmax_kth_smallest(a, k)
            if abs(value - spec.kth_smallest(k)) > 1e-8:
                identity_ok = False

    subspace_ok = True
    for k in (1, 2, 5):
        a = stream.standard_normal((20, 20))
        value, _ = minmax_kth_smallest(a, k)
        for _ in range(1000):
            q, _ = np.linalg.qr(stream.standard_normal((20, k)))
            if np.linalg.svd(a @ q, compute_uv=False)[0] < value - 1e-10:
                subspace_ok = False
    _verdict(6, "min-max value matches the SVD and no random subspace beats it",
             identity_ok and subspace_ok)


def test_criterion_07_small_ball_floor():
    stream = np.random.default_rng(107)
    n = 100_000
    ok = True
    details = []
    for law in (rademacher(), gaussian(), uniform_scaled(), sparse_bernoulli(0.1)):
        draws = np.abs(law.sample(stream, size=n) - law.sample(stream, size=n))
        phat = float(np.mean(draws >= 1.0))
        floor = paley_zygmund_floor(max(law.declared_psi2, 1.0))
        se = math.sqrt(phat * (1.0 - phat) / n)
        if phat < floor - 3 * se:
            ok = False
        details.append(f"{law.kind} {phat:.3f}>={floor:.3f}")
    _verdict(7, "symmetrized unit-ball exit beats the subgaussian floor",
             ok, "; ".join(details))


def test_criterion_08_rlcd_scalar_oracle():
    stream = np.random.default_rng(108)
    prof = EntryProfile.homogeneous(1, 1, rademacher(), 2.0)
    params = RLCDParams(L=1.0, alpha=0.5, radius_cap=3.0, resolution=1e-3)
    est = rlcd_estimate(np.array([[1.0]]), prof, [0], params, stream)
    width = est.upper - est.lower
    ok = est.lower <= 2.0 <= est.upper and width <= 5e-3
    _verdict(8, "scalar correlation search brackets the two-atom oracle value 2",
             ok, f"[{est.lower:.4f}, {est.upper:.4f}]")


def test_criterion_09_tensorization():
    prob, bound = tensorization_check(2, 0.25)
    point_ok = prob == 0.125 and bound >= 0.125
    sweep_ok = True
    for n in range(1, 21):
        for t in np.arange(0.05, 1.0, 0.05):
            p, b = tensorization_check(n, float(t))
            if p > b:
                sweep_ok = False
    _verdict(9, "mean-of-uniforms probability never exceeds the product bound",
             point_ok and sweep_ok, f"prob {prob}, bound {bound:.4f}")


def test_criterion_10_restricted_invertibility():
    t0 = time.perf_counter()
    stream = np.random.default_rng(110)
    ok = True
    worst_ratio = 0.0
    for _ in range(100):
        m = stream.standard_normal((5, 12))
        ex = ri_select(m, 2, mode="exhaustive")
        gr = ri_select(m, 2, mode="greedy")
        worst_ratio = max(worst_ratio, ex.ratio)
        if ex.ratio > 10.0 or ex.s_l_selected < gr.s_l_selected - 1e-10:
            ok = False
    elapsed = time.perf_counter() - t0
    _verdict(10, "exhaustive selections beat greedy and stay within ratio 10",
             ok and elapsed < 300.0,
             f"worst ratio {worst_ratio:.2f}, {elapsed:.1f}s")


def test_criterion_11_shared_seed_monotonicity():
    ok = True
    for seed in (1, 2, 3):
        table = run_trials(_mc_config(5, 4000, seed=seed), 5)
        ranks = [rank_tail_from_table(table, 5, k)[0] for k in range(0, 6)]
        if any(a < b for a, b in zip(ranks, ranks[1:])):
            ok = False
        tails = np.array([[singular_tail_from_table(table, 5, k, e)[0]
                           for e in (0.0, 0.25, 0.5, 1.0, 2.0)] for k in range(1, 6)])
        if np.any(np.diff(tails, axis=1) < 0) or np.any(np.diff(tails, axis=0) > 0):
            ok = False
    _verdict(11, "coupled estimates are monotone in k and epsilon on every run", ok)


def test_criterion_12_tail_scaling_slope():
    t0 = time.perf_counter()
    points = []
    stderrs = {}
    for n in (6, 8, 10):
        est, stderrs[n] = rank_tail_mc(_mc_config(n, 1_000_000, seed=112), 1, n_threads=2)
        points.append((n, 1, est))
    c_hat, _ = scaling_fit(points)
    elapsed = time.perf_counter() - t0
    probs = ", ".join(f"n={n}: {p:.4f}" for n, _, p in points)
    _verdict(12, "fitted tail-decay slope is positive (recorded, not calibrated)",
             c_hat > 0.0 and elapsed < 900.0,
             f"c_hat {c_hat:.4f}; {probs}; {elapsed:.0f}s")
    exact = float(rank_tail_exact_rademacher(6, 1))
    assert abs(points[0][2] - exact) <= 4 * stderrs[6], (points[0][2], stderrs[6], exact)


def test_criterion_13_manifest_determinism(tmp_path):
    campaigns = [
        "kind = rank-tail\nseed = 13\nn = 2\nk = 1\ntrials = 3000\nprofile = rademacher\n",
        "kind = singular-tail\nseed = 14\nn = 4\nk = 2\nepsilon = 0.0,0.5,1.0\n"
        "trials = 1500\nprofile = rademacher\n",
    ]
    ok = True
    for idx, text in enumerate(campaigns):
        first = str(tmp_path / f"first{idx}")
        second = str(tmp_path / f"second{idx}")
        run_campaign(parse_campaign(text), out_dir=first)
        with open(os.path.join(first, "manifest.txt")) as fh:
            manifest = fh.read()
        run_campaign(parse_campaign(manifest), out_dir=second)
        for name in sorted(os.listdir(first)):
            with open(os.path.join(first, name), "rb") as f1, \
                    open(os.path.join(second, name), "rb") as f2:
                if f1.read() != f2.read():
                    ok = False
    _verdict(13, "campaigns re-run from their manifests byte-identically", ok)
