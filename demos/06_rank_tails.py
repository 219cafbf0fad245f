"""
Rank deficiency of random sign matrices
=======================================

How often does an n x n matrix of independent signs drop rank?  Up to
n = 6 there are exact answers: the rank histogram of all 2^(n^2) matrices
is counted over symmetry classes (sign flips of rows and columns, row
permutations), about 3.8 * 10^5 of them at n = 6.  Monte Carlo, with one
seeded stream per block of trials, scales the question up and stays exactly
reproducible.
"""

import numpy as np

from rmtlab.ensembles import EntryProfile, rademacher
from rmtlab.experiments import (ExperimentConfig, rank_tail_exact_rademacher,
                                rank_tail_from_table, rank_tail_mc, run_trials,
                                scaling_fit)


def config(n, trials, seed):
    prof = EntryProfile.homogeneous(n, n, rademacher(), 2.0)
    return ExperimentConfig(prof, trials, seed)


print("exact rank-drop probabilities (from the rank histogram):")
for n, k in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1)):
    p = rank_tail_exact_rademacher(n, k)
    print(f"  P(rank({n}x{n}) <= {n - k}) = {p} = {float(p):.6f}")

# Monte Carlo reproduces the exact values within binomial noise
for n, k in ((2, 1), (3, 1)):
    est, se = rank_tail_mc(config(n, 50_000, seed=1), k)
    exact = float(rank_tail_exact_rademacher(n, k))
    print(f"mc n={n}, k={k}: {est:.4f} +/- {se:.4f} (exact {exact:.4f})")

# one shared trial table serves every k at once, and the resulting tail
# curve is monotone by construction, not just in expectation
table = run_trials(config(6, 20_000, seed=2), 1)
print("\nshared-table tail curve at n=6:")
for k in range(0, 4):
    p, se = rank_tail_from_table(table, 6, k)
    print(f"  P(rank <= {6 - k}) = {p:.4f} +/- {se:.4f}")

# decay with n: fit the slope of -log p against k n (recorded, not a
# claim about the true constant)
points = []
for n in (6, 8, 10):
    est, _ = rank_tail_mc(config(n, 100_000, seed=3), 1)
    points.append((n, 1, est))
c_hat, residuals = scaling_fit(points)
print(f"\nfitted decay slope: {c_hat:.4f} (residuals {np.round(residuals, 3)})")
