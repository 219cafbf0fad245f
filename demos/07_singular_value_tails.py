#!/usr/bin/env python3
# Tails of the k-th smallest singular value, with the bound they sit under.
#
# The same trial tables that answer rank questions answer quantitative
# ones: how likely is s_{n-k+1} to fall below epsilon / sqrt(n)?  The
# comparison curve is (C epsilon)^(k^2) + exp(-c n), evaluated alongside.

import warnings

from rmtlab.ensembles import EntryProfile, rademacher, uniform_scaled
from rmtlab.experiments import (ExperimentConfig, norm_concentration_mc,
                                rank_tail_from_table, run_trials, singular_tail_from_table,
                                singular_tail_mc, tensorization_check)

prof = EntryProfile.homogeneous(8, 8, rademacher(), 2.0)
cfg = ExperimentConfig(prof, 8, 2, epsilon_grid=(0.0, 0.1, 0.3, 1.0),
                       trials=20_000, master_seed=5)

with warnings.catch_warnings():
    # k = 2 sits just below log(8) = 2.08, where singular_tail_mc warns
    warnings.simplefilter("ignore")
    rows = singular_tail_mc(cfg, comparison_c=1.0)
print("epsilon   P(s_{n-k+1} <= eps/sqrt(n))   comparison")
for row in rows:
    print(f"{row['epsilon']:7.2f}   {row['estimate']:12.4f} +/- {row['stderr']:.4f}"
          f"   {row['bound']:10.4f}")

# one trial table answers every k <= cfg.k on the same samples, so the tails
# are ordered in k exactly; at epsilon = 0 each is exactly the rank event
table = run_trials(cfg)
print("\nepsilon   k = 1    k = 2   (one trial table)")
for eps in cfg.epsilon_grid:
    p1, p2 = (singular_tail_from_table(table, 8, k, eps)[0] for k in (1, 2))
    print(f"{eps:7.2f}   {p1:.4f}   {p2:.4f}")
for k in (1, 2):
    p0, _ = rank_tail_from_table(table, 8, k)
    print(f"rank <= n - {k} frequency: {p0:.6f}, the k = {k} tail at epsilon = 0")

# the bound's product structure comes from tensorization: the mean of n
# independent uniforms is below t with probability at most (e t)^n; the
# probability printed is exact (the Irwin-Hall law), for n t above 1 too
print("\ntensorization of the mean of uniforms:")
for n, t in ((2, 0.25), (4, 0.2), (8, 0.3)):
    prob, bound = tensorization_check(n, t)
    print(f"  n={n}, t={t}: probability {prob:.6f}, product bound {bound:.6f}")

# norm concentration supplies the exp(-c n) additive term: both matrix
# norms stay within constant factors of their typical scale (bounded laws)
print("\noperator/frobenius norm exceedance frequencies:")
for n, seed in ((10, 9), (20, 10), (40, 11)):
    norm_cfg = ExperimentConfig(EntryProfile.homogeneous(n, n, uniform_scaled(), 2.0), n, 0,
                                trials=2000, master_seed=seed)
    op, _, hs, _ = norm_concentration_mc(norm_cfg)
    print(f"  n={n}: op {op:.4f}, hs {hs:.4f}")
