"""Monte Carlo campaigns and exact oracles for rank and singular-value tails.

An :class:`ExperimentConfig` names the sample (profile, trials, master seed) and
nothing else; each estimator takes its own question (k, the epsilon grid) as
arguments.  The heart of the module is a trial table: one row per sampled
matrix with s_1, its k smallest singular values and its rank at
:func:`~rmtlab.linalg.rank_cutoff`, n eps s_1, so one ``run_trials(config, k)``
table answers every k' <= k.  Block b of ``TRIAL_BLOCK`` trials draws all of its
matrices in one vectorized call from a stream spawned off the master seed with
spawn key (b,), so the matrices depend only on the config, never on k or the
thread count, and :func:`trial_matrix` replays any single trial by regenerating
its block.  All tail estimates are computed from trial tables, so different
thresholds (k values, epsilon values) share the same samples and the nesting of
the underlying events holds exactly in the estimates, not just in expectation.

Rank tails of rademacher and sparse-bernoulli profiles skip most of the SVD
work: :func:`rank_tail_counts` classifies each block by one batched
determinant of its integer patterns and returns the counts the trial table
would give.

Exact oracles anchor the Monte Carlo machinery: the rank histogram of all
n x n sign matrices for n <= 6 (symmetry classes, one batched SVD per chunk
of them, a cutoff that provably separates zero singular values) and
the Irwin-Hall law behind tensorization.
"""

from __future__ import annotations

import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arithmetic import RLCDEstimate, RLCDParams, matrix_lattice_distance, rlcd_estimate
from .ensembles import EntryProfile, sample_matrix
from .errors import ParameterError, ResourceLimitError
from .linalg import _one_blas_thread, rank_cutoff
from .rounding import annulus_check
from .sphere import almost_orthogonal_check, dist_to_sparse, sampled_span_incompressible

__all__ = [
    "ExperimentConfig",
    "TRIAL_BLOCK",
    "KernelEventParams",
    "run_trials",
    "trial_matrix",
    "rank_tail_from_table",
    "singular_tail_from_table",
    "rank_histogram_rademacher",
    "rank_tail_exact_rademacher",
    "DET_RANK_MAX_N",
    "rank_tail_counts",
    "rank_tail_mc",
    "singular_tail_mc",
    "tensorization_check",
    "norm_concentration_mc",
    "compressible_event_check",
    "kernel_tuple_event_check",
    "kernel_complement_basis",
    "kernel_rlcd_probe",
    "scaling_fit",
]

#: Trials per block: the unit of random stream, vectorized draw and batched SVD.
TRIAL_BLOCK = 256

#: Symmetry classes per batched SVD in :func:`rank_histogram_rademacher`.
EXACT_CHUNK = 16_384

#: Largest n at which :func:`rank_tail_counts` may classify by determinant (see its proof).
DET_RANK_MAX_N = 14

TAIL_DTYPE = np.dtype([
    ("epsilon", np.float64),
    ("estimate", np.float64),
    ("stderr", np.float64),
    ("bound", np.float64),
])


@dataclass(frozen=True)
class ExperimentConfig:
    """The sample of one Monte Carlo campaign: a square profile, a trial count, a seed.

    Two equal configs draw the same matrices.  ``n`` is the profile's size; k and
    the epsilon grid are arguments of the estimators that read them.
    """

    profile: EntryProfile
    trials: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.profile.n_rows != self.profile.n_cols:
            raise ValueError(f"profile shape {self.profile.n_rows}x{self.profile.n_cols} "
                             "is not square")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")

    @property
    def n(self) -> int:
        return self.profile.n_rows


def _block_matrices(config: ExperimentConfig, block: int) -> np.ndarray:
    """All matrices of one block, drawn from the block's own stream."""
    stream = np.random.default_rng(
        np.random.SeedSequence(entropy=config.master_seed, spawn_key=(block,)))
    count = min(TRIAL_BLOCK, config.trials - block * TRIAL_BLOCK)
    return sample_matrix(config.profile, stream, count)


def trial_matrix(config: ExperimentConfig, i: int) -> np.ndarray:
    """The matrix of trial i, replayed by regenerating its block."""
    if not 0 <= i < config.trials:
        raise IndexError(f"trial index {i} outside [0, {config.trials})")
    return _block_matrices(config, i // TRIAL_BLOCK)[i % TRIAL_BLOCK]


def _map_blocks(config: ExperimentConfig, reduce, n_threads: int) -> None:
    """Call reduce(start, mats) with every block's first trial and matrices.

    At most one thread per block; a single block runs on the calling thread, since a
    pool would only add its start-up.  numpy's OpenBLAS runs on one thread meanwhile
    (:func:`~rmtlab.linalg._one_blas_thread`): the threads here own the cores.
    """
    def do_block(block: int) -> None:
        reduce(block * TRIAL_BLOCK, _block_matrices(config, block))

    blocks = range(-(-config.trials // TRIAL_BLOCK))
    n_threads = min(n_threads, len(blocks))
    with _one_blas_thread():
        if n_threads > 1:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                list(pool.map(do_block, blocks))
        else:
            for block in blocks:
                do_block(block)


def run_trials(config: ExperimentConfig, k: int, n_threads: int = 1) -> np.ndarray:
    """Sample config.trials matrices and record their spectrum summaries.

    Fields: ``s_largest``; ``s_bottom``, whose column j - 1 is the j-th smallest
    singular value for j <= k, with k in [1, n]; ``rank_at_tol``.  Each block is
    reduced with one batched SVD.  Threads map over whole blocks, so the table
    is identical for any thread count; :func:`trial_matrix` replays one trial.
    """
    n = config.n
    if not 1 <= k <= n:
        raise ParameterError("k", f"[1, {n}]", k)
    out = np.empty(config.trials, [("s_largest", np.float64), ("s_bottom", np.float64, (k,)),
                                   ("rank_at_tol", np.int64)])

    def reduce(start: int, mats: np.ndarray) -> None:
        svals = np.linalg.svd(mats, compute_uv=False)
        rows = out[start:start + svals.shape[0]]
        rows["s_largest"] = svals[:, 0]
        rows["s_bottom"] = svals[:, ::-1][:, :k]
        rows["rank_at_tol"] = np.sum(svals > rank_cutoff(n, svals[:, :1]), axis=1)

    _map_blocks(config, reduce, n_threads)
    return out


def _binomial(hits: int, trials: int) -> tuple[float, float]:
    p = hits / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


def rank_tail_from_table(table: np.ndarray, n: int, k: int) -> tuple[float, float]:
    """Fraction of recorded trials with rank at the cutoff <= n - k."""
    hits = int(np.sum(table["rank_at_tol"] <= n - k))
    return _binomial(hits, table.size)


def singular_tail_from_table(table: np.ndarray, n: int, k: int,
                             epsilon: float) -> tuple[float, float]:
    """Fraction of trials with the k-th smallest singular value <= epsilon/sqrt(n).

    k may run from 1 to the width of the table's ``s_bottom``.  The threshold is
    clamped from below at each trial's rank cutoff, so the epsilon = 0 column
    coincides exactly with the rank-tail event on the same table.  A threshold
    tau above the cutoff is epsilon = tau sqrt(n).
    """
    width = table["s_bottom"].shape[1]
    if not 1 <= k <= width:
        raise ValueError(f"k must lie in [1, {width}], the table's s_bottom width, got {k}")
    thresh = np.maximum(epsilon / math.sqrt(n), rank_cutoff(n, table["s_largest"]))
    hits = int(np.sum(table["s_bottom"][:, k - 1] <= thresh))
    return _binomial(hits, table.size)


def _integer_ranks(mats: np.ndarray, scale: np.ndarray, svd_singular: bool) -> np.ndarray:
    """Ranks at the cutoff of matrices whose entries times scale are -1, 0 or 1.

    A matrix whose pattern rint(scale A) has |det| >= 1/2 gets rank n.  The others get
    the rank run_trials gives them, from one batched SVD of the matrices themselves,
    when ``svd_singular``, and n - 1 otherwise.  :func:`rank_tail_counts` proves it.
    """
    n = mats.shape[-1]
    singular = np.abs(np.linalg.det(np.rint(mats * scale))) < 0.5
    ranks = np.where(singular, n - 1, n)
    if svd_singular and singular.any():
        svals = np.linalg.svd(mats[singular], compute_uv=False)
        ranks[singular] = np.sum(svals > rank_cutoff(n, svals[:, :1]), axis=1)
    return ranks


def _det_route_scale(config: ExperimentConfig) -> np.ndarray | None:
    """The profile's integer scale where :func:`rank_tail_counts` proves its route, else None."""
    n, scale = config.n, config.profile.integer_scale
    if n > DET_RANK_MAX_N or scale is None:
        return None
    kappa = scale.max() / scale.min()
    if kappa * 2 ** 10 * n * n * np.finfo(float).eps > ((n - 1) / n ** 2) ** ((n - 1) / 2):
        return None
    return scale


def rank_tail_counts(config: ExperimentConfig, ks, n_threads: int = 1) -> np.ndarray:
    """For each k in ``ks``, the number of trials with rank at the cutoff <= n - k.

    The counts are those of ``run_trials(config, 1, n_threads)["rank_at_tol"]``, from the
    same blocks and streams.  The determinant route skips the SVD where it can.  It
    runs when the profile has an :attr:`~rmtlab.ensembles.EntryProfile.integer_scale`
    d, n <= ``DET_RANK_MAX_N`` and kappa = max(d)/min(d) satisfies
    kappa 2^10 n^2 eps <= ((n-1)/n^2)^((n-1)/2).  It then takes one batched
    ``np.linalg.det`` per block of the patterns M = rint(d A).  A trial with
    |det M| >= 1/2 has rank n.  The other trials get the batched SVD with run_trials'
    cutoff, or, when every k is at most 1, count as rank below n without one.  Such
    det-only blocks run on one thread whatever ``n_threads`` says: they are too little
    work to gain from threads.  Every other case runs run_trials.  The route is exact:
    write A = D M with D the diagonal of the atoms' magnitudes 1/d (A = M D for column
    scales), exact because every sampled entry is an atom, and M in {-1, 0, 1}^(n x n).

    - The determinant decides whether M is singular.  numpy's det is LU with partial
      pivoting, then sign * exp(sum log|u_ii|).  The computed factors satisfy
      L U = P M + E with |E| <= gamma_n |L||U| (Higham, Accuracy and Stability of
      Numerical Algorithms, Thm 9.3, for any order of the elimination).  With
      |l_ij| <= 1 and row k of U at most 2^(k-1) (1 + gamma_n)^k, every row of E has
      norm at most eta = 1.01 sqrt(n) gamma_n 2^n.  det is linear in each row, and
      Hadamard's inequality bounds every term of that expansion, so
      |det(P M + E) - det(P M)| <= (sqrt(n) + eta)^n - n^(n/2).  The logs and the exp
      add a relative error below 2e-11, since each |log|u_ii|| <= 745.  The total is
      below 0.05 at n = 14 and above 1/2 at n = 15, where the proof stops.  det M is an
      integer, so the computed |det| is at least 1/2 exactly when M, and hence A, is
      nonsingular.
    - A nonsingular M gives SVD rank n.  |det M| >= 1 and the sigma_i(M)^2 sum to at
      most n^2, so by AM-GM sigma_n(M) >= ((n-1)/n^2)^((n-1)/2).  With
      sigma_1(M) <= n, sigma_n(A)/sigma_1(A) >= sigma_n(M)/(n kappa) >= 2^10 n eps.
      Any SVD whose singular values lie within 1000 n eps sigma_1 of the exact ones
      (LAPACK's bound is a modest multiple of eps sigma_1) then leaves sigma_n above
      n eps times its sigma_1, the run_trials cutoff.
    - A singular M gives sigma_n(A) = 0, so the route counts exactly the trials with
      rank A < n.  The SVD counts the same trials as long as its error on a zero
      singular value stays below n eps sigma_1, the premise of any SVD rank at that
      cutoff.  That side is checked, on every n = 6 sign-matrix class and on
      samples at n = 6..12, not proven.
    """
    n, ks = config.n, list(ks)
    if any(not 0 <= k <= n for k in ks):
        raise ValueError(f"every k must lie in [0, {n}], got {ks}")
    scale = _det_route_scale(config)
    if scale is None:
        ranks = run_trials(config, 1, n_threads)["rank_at_tol"]
    else:
        ranks = np.empty(config.trials, np.int64)
        svd_singular = any(k > 1 for k in ks)

        def reduce(start: int, mats: np.ndarray) -> None:
            ranks[start:start + mats.shape[0]] = _integer_ranks(mats, scale, svd_singular)

        _map_blocks(config, reduce, n_threads if svd_singular else 1)
    return np.array([int(np.sum(ranks <= n - k)) for k in ks], dtype=np.int64)


def rank_tail_mc(config: ExperimentConfig, k: int, n_threads: int = 1) -> tuple[float, float]:
    """Monte Carlo estimate of P(rank <= n - k) with binomial standard error.

    The hits are ``rank_tail_counts(config, [k])``: for a rademacher or
    sparse-bernoulli profile with n <= ``DET_RANK_MAX_N``, trials are
    classified by one batched determinant per block, and only singular ones see an SVD
    (none when k <= 1).  The estimate equals the one :func:`run_trials` gives.
    """
    return _binomial(int(rank_tail_counts(config, [k], n_threads)[0]), config.trials)


def singular_tail_mc(config: ExperimentConfig, k: int, epsilon_grid, comparison_c: float = 1.0,
                     gamma: float = 0.25, n_threads: int = 1) -> np.ndarray:
    """Tail estimates of s_{n-k+1} over the epsilon grid, with the comparison curve attached.

    Domains: k in [1, n], ``epsilon_grid`` a non-empty ascending sequence in
    [0, inf), ``comparison_c`` in (0, inf) and gamma in (0, 1/2); a value outside
    raises :class:`~rmtlab.errors.ParameterError`.  Returns a structured array over
    the grid with fields (epsilon, estimate, stderr, bound) where bound is the
    reference shape (C epsilon / k)^(gamma k^2) at C = ``comparison_c``.  That shape is the
    bound of Jain, Sah and Sawhney, "Rank deficiency of random matrices"; with C
    and gamma chosen by the caller the curve is a shape to compare against, not a
    certificate.  All epsilons share one trial table, so estimates are
    non-decreasing exactly.  A k below log(n) leaves the regime that shape assumes
    and triggers a warning, not an error.
    """
    eps = [float(e) for e in epsilon_grid]
    if not eps:
        raise ValueError("epsilon grid is empty")
    for e in eps:
        if not e >= 0.0:
            raise ParameterError("epsilon_grid", "[0, inf)", e)
    if any(a > b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon grid must be sorted ascending")
    if not 0.0 < gamma < 0.5:
        raise ParameterError("gamma", "(0, 1/2)", gamma)
    if not comparison_c > 0.0:
        raise ParameterError("comparison_c", "(0, inf)", comparison_c)
    table = run_trials(config, k, n_threads)
    if k < math.log(config.n):
        warnings.warn(f"k = {k} is below log(n) = {math.log(config.n):.2f}; "
                      "the singular-value tail regime assumes k >= log(n)", stacklevel=2)
    rows = np.empty(len(eps), TAIL_DTYPE)
    for i, e in enumerate(eps):
        est, se = singular_tail_from_table(table, config.n, k, e)
        rows[i] = (e, est, se, (comparison_c * e / k) ** (gamma * k ** 2))
    return rows


def rank_histogram_rademacher(n: int) -> tuple[int, ...]:
    """Entry r is the number of n x n sign matrices of rank r, for 1 <= n <= 6.

    Negating rows or columns and permuting rows keep the rank, so only
    matrices with first row and column +1 are visited, each standing for
    2^(2n-1) sign matrices; rows 2..n run over multisets of the 2^(n-1) row
    patterns, weighted by their multinomial counts.  The rank counts the
    batched-SVD singular values above n^(1-n)/2, and that is exact:

    - by Cauchy-Binet, the product of the nonzero sigma_i^2 of an integer
      matrix is the sum of its squared r x r minors, a positive integer;
    - with sigma_1 <= |A|_F = n, that gives sigma_r >= n^(1-r) >= n^(1-n),
      which is 1.3e-4 at n = 6;
    - LAPACK's error is about n eps sigma_1 ~ 1e-14, so the cutoff parts zero
      from nonzero singular values with about ten orders of magnitude to spare.

    The cutoff is not :func:`~rmtlab.linalg.rank_cutoff` because integer entries
    give the proven gap above, which the rule for general real matrices cannot use.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 6:
        raise ResourceLimitError(f"rank histogram of {n} x {n} sign matrices is infeasible")
    patterns = 1.0 - 2.0 * ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    factorials = np.array([math.factorial(m) for m in range(n)])
    classes = itertools.combinations_with_replacement(range(patterns.shape[0]), n - 1)
    hist = np.zeros(n + 1, dtype=np.int64)
    while chunk := list(itertools.islice(classes, EXACT_CHUNK)):
        rows = np.array(chunk, dtype=np.intp).reshape(len(chunk), n - 1)
        mats = np.concatenate([np.ones((len(chunk), 1, n)), patterns[rows]], axis=1)
        ranks = np.sum(np.linalg.svd(mats, compute_uv=False) > n ** (1.0 - n) / 2, axis=1)
        repeats = np.sum(rows[:, :, None] == np.arange(patterns.shape[0]), axis=1)
        np.add.at(hist, ranks, factorials[n - 1] // np.prod(factorials[repeats], axis=1))
    return tuple(int(c) << (2 * n - 1) for c in hist)


def rank_tail_exact_rademacher(n: int, k: int) -> Fraction:
    """Exact P(rank <= n - k) for the n x n sign ensemble, read off the rank histogram."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n = {n}, k = {k}")
    return Fraction(sum(rank_histogram_rademacher(n)[:n - k + 1]), 2 ** (n * n))


def tensorization_check(n: int, t: float) -> tuple[float, float]:
    """P(mean of n uniform[0,1] variables <= t) against the product bound (e t)^n.

    The probability is the Irwin-Hall distribution function at x = n t,
    (1/n!) sum_{j <= floor(x)} (-1)^j C(n, j) (x - j)^n, summed exactly in
    rationals from the float x and rounded once.  Returns (probability, bound).
    """
    if not 1 <= n <= 20:
        raise ParameterError("n", "[1, 20]", n)
    if not 0.0 < t <= 1.0:
        raise ParameterError("t", "(0, 1]", t)
    x = Fraction(n * t)
    volume = sum((-1) ** j * math.comb(n, j) * (x - j) ** n for j in range(math.floor(x) + 1))
    return float(volume / math.factorial(n)), (math.e * t) ** n


def norm_concentration_mc(config: ExperimentConfig, c_op: float = 3.0,
                          c_hs: float = 1.0) -> tuple[float, float, float, float]:
    """P(op norm >= c_op sqrt(n)) and P(HS norm >= 2 c_hs n) over config.trials matrices.

    c_op and c_hs outside (0, inf) raise :class:`~rmtlab.errors.ParameterError`.
    Returns (op, op stderr, hs, hs stderr).  One reduction over the trial blocks: each
    block's batched SVD gives its operator norms and its entries its Hilbert-Schmidt
    norms.  The operator-norm statement assumes bounded entries, so a profile with an
    unbounded law is refused.  The defaults read 0 for the bounded named laws: since
    |A|_HS <= n max|a|, c_hs = 1 cannot be crossed when max|a| < 2 (rademacher, uniform,
    sparse-bernoulli(p) for p > 1/4), and c_op = 3 read 0 in 300 trials at n = 4, 8 and
    40.  c_op = 1.5, c_hs = 0.5 give exceedances inside (0, 1) for the uniform law.
    """
    for name, c in (("c_op", c_op), ("c_hs", c_hs)):
        if not c > 0.0:
            raise ParameterError(name, "(0, inf)", c)
    if any(math.isinf(law.support_bound()) for law in config.profile.laws):
        raise ValueError("the operator-norm check needs bounded entry laws")
    n, hits = config.n, np.zeros(2, np.int64)

    def reduce(start: int, mats: np.ndarray) -> None:
        op = np.linalg.svd(mats, compute_uv=False)[:, 0]
        hs = np.sqrt(np.sum(mats * mats, axis=(1, 2)))
        hits[:] += (np.sum(op >= c_op * math.sqrt(n)), np.sum(hs >= 2.0 * c_hs * n))

    _map_blocks(config, reduce, 1)
    return (*_binomial(int(hits[0]), config.trials), *_binomial(int(hits[1]), config.trials))


def compressible_event_check(b_matrix: np.ndarray, x_tuple: np.ndarray, tau: float) -> bool:
    """Whether a unit tuple is almost orthogonal, compressible, and B-contracted.

    True iff the columns form a (1/4)-almost orthogonal system, each sits
    within tau^4 of the (tau^2)-sparse set, and every image norm |B x_j| is
    at most tau sqrt(n).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    x = np.asarray(x_tuple, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    norms = np.linalg.norm(x, axis=0)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("expected unit columns")
    ok, _, _ = almost_orthogonal_check(x, 0.25)
    if not ok:
        return False
    if np.any(dist_to_sparse(x, tau ** 2) > tau ** 4):
        return False
    b = np.asarray(b_matrix, dtype=float)
    images = np.linalg.norm(b @ x, axis=0)
    return bool(np.all(images <= tau * math.sqrt(x.shape[0])))


@dataclass(frozen=True)
class KernelEventParams:
    """Parameters of the kernel-tuple event: spread level, lattice radius, scales."""

    tau: float
    rho: float
    r: float
    L: float

    def __post_init__(self):
        for name in ("tau", "rho"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        if not (self.r > 0.0 and self.L > 0.0):
            raise ValueError(f"r and L must be positive, got r = {self.r}, L = {self.L}")


def kernel_tuple_event_check(v_tuple: np.ndarray, b_matrix: np.ndarray,
                             a_profile: EntryProfile, params: KernelEventParams,
                             stream: np.random.Generator, n_span_samples: int = 1000,
                             n_annulus_samples: int = 1000,
                             mc_trials: int = 1000) -> tuple[bool, dict]:
    """The five-condition event for a tuple in the kernel of B.

    Conditions: norms inside [2 r sqrt(n), exp(rho^2 n / (4 L^2))]; sampled
    span incompressibility at (tau^2, tau^4); (1/8)-almost orthogonality;
    per-vector lattice distance at most rho sqrt(n); and the annulus
    condition that combinations V theta with |theta| <= 1/(20 sqrt(l)) and
    |V theta| >= 2 r sqrt(n) keep lattice distance above rho sqrt(n)
    (sampled).  Kernel membership is a checked precondition, not a flag.
    ``mc_trials`` is accepted and not read: every lattice expectation is exact.
    Returns (all true, per-condition flag dict).
    """
    v = np.asarray(v_tuple, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    n = v.shape[0]
    b = np.asarray(b_matrix, dtype=float)
    if b.shape[1] != n:
        raise ValueError(f"b_matrix must have {n} columns")
    b_top = float(np.linalg.svd(b, compute_uv=False)[0]) if b.size else 0.0
    col_norms = np.linalg.norm(v, axis=0)
    kernel_residual = np.linalg.norm(b @ v, axis=0)
    if np.any(kernel_residual > 1e-8 * np.maximum(1.0, b_top * col_norms)):
        raise ValueError("tuple is not in the kernel of B within 1e-8")

    sqrt_n = math.sqrt(n)
    big_r = math.exp(params.rho ** 2 * n / (4.0 * params.L ** 2))
    flags = {}
    flags["norm_window"] = bool(np.all(col_norms >= 2.0 * params.r * sqrt_n)
                                and np.all(col_norms <= big_r))
    span_ok, _ = sampled_span_incompressible(v, params.tau ** 2, params.tau ** 4,
                                             stream, n_span_samples)
    flags["span_incomp"] = span_ok
    orth_ok, _, _ = almost_orthogonal_check(v, 0.125)
    flags["almost_orth"] = orth_ok
    flags["lattice_dist"] = bool(np.all(
        matrix_lattice_distance(v, a_profile) <= params.rho * sqrt_n))
    flags["annulus"] = annulus_check(v, a_profile, 2.0 * params.r * sqrt_n, params.rho * sqrt_n,
                                     stream, n_annulus_samples).passed
    return all(flags.values()), flags


def _checked_columns(column_subset, n_cols: int) -> list:
    """The column indices as ints, refusing any that is not an integer in [0, n_cols)."""
    cols = list(column_subset)
    for j in cols:
        if not isinstance(j, (int, np.integer)) or not 0 <= j < n_cols:
            raise ValueError(f"column index {j} is not an integer in [0, {n_cols})")
    return [int(j) for j in cols]


def kernel_complement_basis(a_sample: np.ndarray, column_subset, dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of a dim-dimensional piece of span(selected columns)^perp.

    Takes the trailing left singular directions of the selected columns, so
    the result spans directions orthogonal to all of them.  Fails when the
    orthogonal complement is smaller than ``dim``.
    """
    a = np.asarray(a_sample, dtype=float)
    cols = a[:, _checked_columns(column_subset, a.shape[1])]
    u, s, _ = np.linalg.svd(cols, full_matrices=True)
    rank = int(np.sum(s > rank_cutoff(max(cols.shape), s[:1])))
    avail = a.shape[0] - rank
    if avail < dim:
        raise ValueError(f"degenerate instance: complement dimension {avail} < {dim}")
    return u[:, a.shape[0] - dim:]


def kernel_rlcd_probe(a_sample: np.ndarray, a_profile: EntryProfile, column_subset,
                      params: RLCDParams, stream: np.random.Generator,
                      dim: int | None = None, n_directions: int = 32) -> RLCDEstimate:
    """Denominator estimate on a half-k-dimensional slice of a column complement.

    ``column_subset`` selects n - k columns of the sample; the probe spans
    ceil(k/2) trailing complement directions (or ``dim`` when given) and runs
    the denominator search against the laws of the remaining columns.
    ``a_profile`` must have the sample's shape.
    """
    a = np.asarray(a_sample, dtype=float)
    n = a.shape[0]
    if a_profile.codes.shape != a.shape:
        raise ValueError(f"a_profile shape {a_profile.codes.shape} does not match the sample "
                         f"shape {a.shape}")
    chosen = set(_checked_columns(column_subset, a.shape[1]))
    subset = sorted(chosen)
    k = n - len(subset)
    if k < 1:
        raise ValueError("column subset leaves no complement directions")
    if dim is None:
        dim = (k + 1) // 2
    basis = kernel_complement_basis(a, subset, dim)
    remaining = [j for j in range(a_profile.n_cols) if j not in chosen]
    return rlcd_estimate(basis.T, a_profile, remaining, params, stream,
                         n_directions=n_directions)


def scaling_fit(results) -> tuple[float, np.ndarray]:
    """Least-squares slope of -log p against k*n through the origin.

    ``results`` is a sequence of (n, k, probability) triples.  Probabilities
    outside (0, 1) have no usable log and are dropped with a warning; fewer
    than two usable points is a domain error.  Returns (slope, residuals of
    the usable points in input order).
    """
    xs, ys = [], []
    dropped = 0
    for n, k, p in results:
        if not 0.0 < p < 1.0:
            dropped += 1
            continue
        xs.append(float(k) * float(n))
        ys.append(-math.log(p))
    if dropped:
        warnings.warn(f"scaling_fit dropped {dropped} point(s) with probability "
                      "outside (0, 1)", stacklevel=2)
    if len(xs) < 2:
        raise ValueError("scaling_fit needs at least 2 usable points")
    x = np.asarray(xs)
    y = np.asarray(ys)
    c_hat = float(np.dot(x, y) / np.dot(x, x))
    return c_hat, y - c_hat * x
