"""Seeded workloads: generated inputs, the operations that feed them to rmtlab,
and the output checks that decide whether each operation failed.

Every workload is built from its seed alone.  The seed chooses campaign seeds,
law parameters, which rows and columns carry which law, vectors, subspaces and
the order of operations; the sizes and the mix of operation kinds are fixed
per workload, so runs under different seeds do the same amount of work.

No check depends on the random stream: each compares against an exact value,
a closed form, a recomputation, a limit law with a standard-error band, or an
identity that holds for any draw.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

# OEIS A046747: number of singular n x n (+1,-1)-matrices, n = 1..5.
A046747 = {1: 0, 2: 8, 3: 320, 4: 43264, 5: 22003712}

# Edelman (1988): P(sqrt(n) s_min <= x) -> 1 - exp(-x^2/2 - x) for gaussian
# entries.  The finite-n bias at n = 100 is not bounded by any theorem used
# here; this allowance is recorded, not calibrated.
EDELMAN_ALLOWANCE = 0.03

SE_BAND = 5.0


@dataclass
class Op:
    """One operation: a call into rmtlab and the check of what it produced."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # failure message, or None when correct
    trials: int = 0  # Monte Carlo matrices sampled and reduced by the call


@dataclass
class Workload:
    ops: list                      # one pass; the timed loop cycles through it
    replay: Callable[[], str | None]
    oracle: Op | None = None       # exact-oracles: the call that sets oracle_s
    svd_shapes: list = field(default_factory=list)  # warm-up shapes


# -- helpers -----------------------------------------------------------------

def _read_results(out_dir: str) -> list:
    with open(os.path.join(out_dir, "results.csv"), newline="") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "experiment_id,n,k,epsilon,estimate,stderr,trials,master_seed":
        raise ValueError(f"unexpected results header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        exp_id, n, k, eps, est, se, trials, seed = line.split(",")
        rows.append({"n": int(n), "k": int(k) if k else None,
                     "epsilon": float(eps) if eps else None, "estimate": float(est),
                     "stderr": float(se) if se else None, "trials": int(trials)})
    return rows


def _se_mismatch(rows) -> str | None:
    for r in rows:
        p, t = r["estimate"], r["trials"]
        want = math.sqrt(p * (1.0 - p) / t)
        if not math.isclose(r["stderr"], want, rel_tol=1e-12, abs_tol=1e-300):
            return f"stderr {r['stderr']!r} != sqrt(p(1-p)/trials) = {want!r}"
    return None


def _band(p0: float, trials: int) -> float:
    return SE_BAND * math.sqrt(p0 * (1.0 - p0) / trials)


def _campaign_text(lines: dict, rules=()) -> str:
    # Experiment ids use only [A-Za-z0-9._-]: the CLI does not validate them.
    body = "".join(f"{k} = {v}\n" for k, v in lines.items())
    return body + "".join(f"{k} = {v}\n" for k, v in rules)


def _campaign_op(lib, label, text, out_dir, check, trials=0) -> Op:
    campaign = lib.cli.parse_campaign(text)

    def call():
        return lib.cli.run_campaign(campaign, out_dir=out_dir)

    def check_status(status):
        if status != 0:
            return f"run_campaign returned status {status}"
        return check(out_dir)

    return Op(label, call, check_status, trials)


def _replay(lib, out_dir: str, replay_dir: str) -> Callable[[], str | None]:
    """Re-run a campaign from its manifest.txt; every output file must match."""

    def replay():
        with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
            status = lib.cli.run_campaign(lib.cli.parse_campaign(fh.read()), out_dir=replay_dir)
        if status != 0:
            return f"replay returned status {status}"
        first, second = sorted(os.listdir(out_dir)), sorted(os.listdir(replay_dir))
        if first != second:
            return f"replay wrote {second}, original {first}"
        for name in first:
            with open(os.path.join(out_dir, name), "rb") as f1, \
                    open(os.path.join(replay_dir, name), "rb") as f2:
                if f1.read() != f2.read():
                    return f"replayed {name} differs"
        return None

    return replay


def _seed_of(rng) -> int:
    return int(rng.integers(0, 2 ** 63))


def _sign_matrix_rank_counts(n: int) -> np.ndarray:
    """counts[r] = number of n x n sign matrices of rank r, by numpy enumeration."""
    bits = (np.arange(2 ** (n * n))[:, None] >> np.arange(n * n)) & 1
    mats = (2.0 * bits - 1.0).reshape(-1, n, n)
    return np.bincount(np.linalg.matrix_rank(mats), minlength=n + 1)


def exact_esd(y, laws) -> float:
    """E dist^2(y * (X - X'), Z^n) by enumerating atom pairs of each finite law."""
    total = 0.0
    for yi, law in zip(np.asarray(y, dtype=float), laws):
        a = np.asarray(law.atoms)
        w = np.asarray(law.weights)
        z = yi * (a[:, None] - a[None, :])
        r = z - np.round(z)
        total += float(np.sum(w[:, None] * w[None, :] * r * r))
    return total


# -- mc-small -------------------------------------------------------------------

def _mc_check(law: str, n: int, kind: str):
    def check(out_dir):
        rows = _read_results(out_dir)
        bad = _se_mismatch(rows)
        if bad:
            return bad
        est = [r["estimate"] for r in rows]
        if kind == "rank-tail":
            # {rank <= n - k} shrinks as k grows
            if any(a < b for a, b in zip(est, est[1:])):
                return f"rank tail increases in k: {est}"
            if law == "rademacher" and n in (3, 4, 5):
                p0 = A046747[n] / 2 ** (n * n)
                r1 = next(r for r in rows if r["k"] == 1)
                if abs(r1["estimate"] - p0) > _band(p0, r1["trials"]):
                    return f"n={n} k=1 rank tail {r1['estimate']} vs A046747 {p0}"
        else:
            if any(a > b for a, b in zip(est, est[1:])):
                return f"singular tail decreases in epsilon: {est}"
            if law == "gaussian" and rows[0]["k"] == 1 and n >= 100:
                for r in rows:
                    x = r["epsilon"]
                    p0 = 1.0 - math.exp(-x * x / 2.0 - x)
                    if abs(r["estimate"] - p0) > _band(p0, r["trials"]) + EDELMAN_ALLOWANCE:
                        return (f"n={n} eps={x} gaussian tail {r['estimate']} vs "
                                f"Edelman limit {p0:.4f}")
        return None

    return check


def build_mc_small(lib, seed: int, work: str, tiny: bool) -> Workload:
    rng = np.random.default_rng([seed, 1])
    trials = 60 if tiny else 800
    p_sparse = float(rng.choice([0.3, 0.5, 0.7]))
    slots = ([("rank-tail", "rademacher", n) for n in (3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 8, 10)]
             + [("singular-tail", "rademacher", n) for n in (4, 6, 8, 10)]
             + [("rank-tail", f"sparse-bernoulli({p_sparse:g})", n) for n in (5, 7)]
             + [("singular-tail", f"sparse-bernoulli({p_sparse:g})", n) for n in (6, 9)]
             + [("singular-tail", "gaussian", n) for n in (3, 5, 7, 9, 10)])
    if tiny:
        slots = slots[::5]
    ops = []
    for i, (kind, law, n) in enumerate(slots):
        exp_id = f"mcs{i:02d}.{kind}.n{n}"
        lines = {"kind": kind, "id": exp_id, "seed": _seed_of(rng), "n": n,
                 "trials": trials, "profile": law}
        if kind == "rank-tail":
            lines["k"] = ",".join(str(k) for k in range(1, int(rng.integers(2, 4))))
        else:
            lines["k"] = int(rng.integers(1, 3))
            lines["epsilon"] = "0,0.1,0.5,1,2"
        out = os.path.join(work, exp_id)
        ops.append(_campaign_op(lib, exp_id, _campaign_text(lines), out,
                                _mc_check(law.split("(")[0], n, kind), trials))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    first = ops[0].label
    return Workload(ops, _replay(lib, os.path.join(work, first), os.path.join(work, "replay")),
                    svd_shapes=sorted({(trials, n, n) for _, _, n in slots}
                                      | {(n, n) for _, _, n in slots}))


# -- mc-wide --------------------------------------------------------------------

def _mixed_rules(rng, n: int, p: float) -> list:
    """Rademacher base, a fifth of the columns gaussian, a fifth of the rows sparse."""
    cols = sorted(rng.choice(n, size=n // 5, replace=False))
    rows = sorted(rng.choice(n, size=n // 5, replace=False))
    return ([(f"law.*.{c}", "gaussian") for c in cols]
            + [(f"law.{r}.*", f"sparse-bernoulli({p:g})") for r in rows])


def build_mc_wide(lib, seed: int, work: str, tiny: bool) -> Workload:
    rng = np.random.default_rng([seed, 2])
    trials = 4 if tiny else 12
    # 15 operations a pass.  Percentiles are taken per pass (see run.timed_loop):
    # the median (7th of 0..14) falls among the n = 60 campaigns and the 90th
    # percentile (12.6th) among the three mixed n = 100 ones.
    sizes = [20, 30] if tiny else [40] * 3 + [60] * 7 + [100] * 3
    ops = []
    shapes = set()
    for i, n in enumerate(sizes + sizes[-1:] * (1 if tiny else 2)):
        homogeneous = i >= len(sizes)
        exp_id = f"mcw{i:02d}.n{n}" + (".gaussian" if homogeneous else ".mixed")
        k = 1 if homogeneous else int(rng.integers(1, 4))
        lines = {"kind": "singular-tail", "id": exp_id, "seed": _seed_of(rng), "n": n,
                 "k": k, "epsilon": "0.25,0.5,1,2", "trials": trials,
                 "profile": "gaussian" if homogeneous else "rademacher"}
        rules = () if homogeneous else _mixed_rules(rng, n, float(rng.choice([0.3, 0.5])))
        out = os.path.join(work, exp_id)
        ops.append(_campaign_op(lib, exp_id, _campaign_text(lines, rules), out,
                                _mc_check("gaussian" if homogeneous else "mixed", n,
                                          "singular-tail"), trials))
        shapes |= {(trials, n, n), (n, n)}
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    return Workload(ops, _replay(lib, os.path.join(work, ops[0].label),
                                 os.path.join(work, "replay")),
                    svd_shapes=sorted(shapes))


# -- lattice-diag -----------------------------------------------------------------

def _profile(lib, n: int, mixed: bool, rng) -> object:
    """Homogeneous rademacher, or rademacher with one gaussian column and sparse rows."""
    ens = lib.ensembles
    rules = [("*", "*", ens.rademacher())]
    if mixed:
        rules.append(("*", int(rng.integers(n)), ens.gaussian()))
        for r in rng.choice(n, size=max(1, n // 4), replace=False):
            rules.append((int(r), "*", ens.sparse_bernoulli(0.5)))
    return ens.profile_from_rules(rules, n, n, 2.5)


def _unit_columns(rng, n: int, l: int, scale: float) -> np.ndarray:
    v = rng.standard_normal((n, l))
    return v / np.linalg.norm(v, axis=0) * scale


def _witness_check(lib, profile, cols, params):
    """A witness must satisfy lhs < rhs again when recomputed exactly (finite laws)."""
    finite = all(law.finite_support for j in cols for law in profile.column(j))

    def check(est, basis_rows):
        if est.witness is None or not finite:
            return None
        y = basis_rows.T @ est.witness
        lhs = min(exact_esd(y, profile.column(j)) for j in cols)
        rhs = params.L ** 2 * lib.arithmetic.log_plus(
            params.alpha * float(np.linalg.norm(y)) / params.L)
        if not lhs < rhs * (1.0 + 1e-9):
            return f"witness fails on recomputation: lhs {lhs!r} >= rhs {rhs!r}"
        return None

    return check


def build_lattice_diag(lib, seed: int, work: str, tiny: bool) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ar, ro, ex = lib.arithmetic, lib.rounding, lib.experiments
    scale_n = (lambda n: max(6, n // 3)) if tiny else (lambda n: n)
    ops = []

    def add_round(mixed):
        n, l = scale_n(24), 2
        profile = _profile(lib, n, mixed, rng)
        v = _unit_columns(rng, n, l, 2000.0)  # every annulus sample is kept
        b = rng.standard_normal((n, n))
        params = ro.RoundingParams(delta=0.02, rho=0.3, tau=0.5, K=2.5, r=0.05)
        s = _seed_of(rng)

        def call():
            stream = np.random.default_rng(s)
            u = np.column_stack([lib.rounding.randomized_round(v[:, j], params.delta, stream)
                                 for j in range(l)])
            return lib.rounding.rounding_report(v, u, profile, b, params, stream,
                                                n_span_samples=200, n_annulus_samples=80,
                                                mc_trials=200)

        def check(report):
            if not report.sup_norm.passed:
                return f"sup_norm failed: {report.sup_norm}"
            return None

        ops.append(Op(f"rounding_report.{'mixed' if mixed else 'hom'}", call, check))

    def add_rlcd():
        n = scale_n(16)
        profile = _profile(lib, n, False, rng)
        # The first basis row is the all-ones direction and the second is
        # random.  With alpha = 0.6 the radii are 5/3, 13/6, ...: at the first
        # the right side is 0, at the second the all-ones direction, tested
        # first, is a witness.  Every search therefore visits two radii.
        ones = np.full(n, 1.0 / math.sqrt(n))
        other = rng.standard_normal(n)
        other -= (other @ ones) * ones
        basis = np.vstack([ones, other / np.linalg.norm(other)])
        cols = list(range(n))
        params = ar.RLCDParams(L=1.0, alpha=0.6, radius_cap=12.0, resolution=0.5, mc_trials=200)
        s = _seed_of(rng)
        witness_ok = _witness_check(lib, profile, cols, params)

        def call():
            trace: list = []
            est = lib.arithmetic.rlcd_estimate(basis, profile, cols, params,
                                               np.random.default_rng(s), n_directions=6,
                                               trace=trace)
            return est, trace

        ops.append(Op("rlcd_estimate.hom", call,
                      lambda out: witness_ok(out[0], basis)))

    def add_probe():
        n = scale_n(16)
        profile = _profile(lib, n, False, rng)
        a = rng.choice([-1.0, 1.0], size=(n, n))
        subset = sorted(rng.choice(n, size=n - 4, replace=False).tolist())
        remaining = [j for j in range(n) if j not in subset]
        # A short search (radii 2 and 2.5, below where witnesses appear) keeps
        # the cost of a probe independent of the seed.
        params = ar.RLCDParams(L=1.0, alpha=0.5, radius_cap=2.5, resolution=0.5, mc_trials=200)
        s = _seed_of(rng)
        witness_ok = _witness_check(lib, profile, remaining, params)

        def call():
            return lib.experiments.kernel_rlcd_probe(a, profile, subset, params,
                                                     np.random.default_rng(s), dim=2,
                                                     n_directions=6)

        def check(est):
            basis = lib.experiments.kernel_complement_basis(a, subset, 2)
            return witness_ok(est, basis.T)

        ops.append(Op("kernel_rlcd_probe.hom", call, check))

    def add_kernel_event():
        n, l = scale_n(20), 2
        profile = _profile(lib, n, True, rng)
        b = rng.standard_normal((n - l, n))
        # Kernel of b, scaled so that every annulus sample is kept and the
        # number of lattice distances evaluated does not depend on the seed.
        v = np.linalg.svd(b)[2][n - l:].T * 500.0
        params = ex.KernelEventParams(tau=0.5, rho=0.05, r=0.05, L=1.0)
        s = _seed_of(rng)

        def call():
            return lib.experiments.kernel_tuple_event_check(
                v, b, profile, params, np.random.default_rng(s), n_span_samples=200,
                n_annulus_samples=30, mc_trials=200)

        def check(out):
            ok, flags = out
            if set(flags) != {"norm_window", "span_incomp", "almost_orth", "lattice_dist",
                              "annulus"} or ok != all(flags.values()):
                return f"inconsistent kernel event result {out}"
            return None

        ops.append(Op("kernel_tuple_event_check.mixed", call, check))

    def add_distance(mixed):
        n = scale_n(30)
        profile = _profile(lib, n, mixed, rng)
        x = rng.standard_normal(n) * rng.uniform(1.0, 50.0)
        s = _seed_of(rng)

        def call():
            return lib.arithmetic.matrix_lattice_distance(x, profile, 200,
                                                          np.random.default_rng(s))

        def check(d):
            finite = [j for j in range(n)
                      if all(law.finite_support for law in profile.column(j))]
            want = math.sqrt(min(exact_esd(x, profile.column(j)) for j in finite))
            if not mixed:  # rademacher: sum_i (1/2) dist^2(2 x_i, Z), every column alike
                closed = math.sqrt(sum(0.5 * (2 * xi - round(2 * xi)) ** 2 for xi in x))
                if not math.isclose(d, closed, rel_tol=1e-9):
                    return f"lattice distance {d!r} != closed form {closed!r}"
            elif not d <= want * (1.0 + 1e-9):
                return f"lattice distance {d!r} above the exact finite-column value {want!r}"
            return None

        ops.append(Op(f"matrix_lattice_distance.{'mixed' if mixed else 'hom'}", call, check))

    # 15 operations a pass, grouped by cost so that the per-pass median (7th of
    # 0..14) falls among the probes and the 90th percentile (12.6th) among the
    # rounding reports: four lattice distances, five probes, two searches and a
    # kernel event, three rounding reports.
    for mixed in (False, False, False, True):
        add_distance(mixed)
    for _ in range(2 if tiny else 5):
        add_probe()
    add_rlcd()
    add_rlcd()
    add_kernel_event()
    for mixed in (False, False, True):
        add_round(mixed)
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]

    replay_out = os.path.join(work, "ld.round")
    replay_text = _campaign_text({
        "kind": "round", "id": "ld.round", "seed": _seed_of(rng), "n": 12, "l": 2,
        "delta": 0.02, "rho": 0.3, "vector_scale": 50, "mc_trials": 200,
        "profile": "rademacher"})
    replay_campaign = lib.cli.parse_campaign(replay_text)
    check_replay = _replay(lib, replay_out, os.path.join(work, "replay"))

    def replay():
        status = lib.cli.run_campaign(replay_campaign, out_dir=replay_out)
        return f"round campaign returned status {status}" if status else check_replay()

    sizes = sorted({scale_n(m) for m in (16, 20, 24, 30)} | {12})
    return Workload(ops, replay, svd_shapes=[(n, n) for n in sizes])


# -- exact-oracles ----------------------------------------------------------------

def _certificate(out_dir: str, exp_id: str) -> tuple:
    with open(os.path.join(out_dir, f"{exp_id}.certificates.csv"), newline="") as fh:
        lines = fh.read().splitlines()
    idx, s_l, rhs, ratio = lines[1].split(",")
    return tuple(int(i) for i in idx.split()), float(s_l), float(rhs), float(ratio)


def _csv_matrix(path: str) -> np.ndarray:
    """Independent reader for the rows,cols CSV format."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    rows, cols = (int(v) for v in lines[0].split(","))
    mat = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if mat.shape != (rows, cols):
        raise ValueError(f"{path}: shape {mat.shape} does not match header {rows},{cols}")
    return mat


def build_exact_oracles(lib, seed: int, work: str, tiny: bool) -> Workload:
    rng = np.random.default_rng([seed, 4])
    ex, ar = lib.experiments, lib.arithmetic
    rank_counts = {n: _sign_matrix_rank_counts(n) for n in (1, 2, 3)}
    ops = []

    def add_exact(n, k):
        want = Fraction(int(rank_counts[n][:n - k + 1].sum()), 2 ** (n * n))

        def check(p):
            if k == 1 and p != Fraction(A046747[n], 2 ** (n * n)):
                return f"exact rank tail n={n} k=1 is {p}, A046747 gives {A046747[n]}/2^{n * n}"
            if p != want:
                return f"exact rank tail n={n} k={k} is {p}, enumeration gives {want}"
            return None

        ops.append(Op(f"rank_tail_exact.n{n}.k{k}",
                      lambda: lib.experiments.rank_tail_exact_rademacher(n, k), check))

    def add_count(n, radius):
        top = math.ceil(radius)
        axis = np.arange(-top, top + 1) ** 2
        sq = axis
        for _ in range(n - 1):
            sq = np.add.outer(sq, axis)
        want = int(np.count_nonzero(sq <= radius * radius))
        want_bound = (2.0 + 3.0 * radius / math.sqrt(n)) ** n

        def check(out):
            count, bound = out
            if count != want or not math.isclose(bound, want_bound, rel_tol=1e-12):
                return f"count_lattice_points({n}, {radius}) = {out}, expected {want}"
            return None

        ops.append(Op(f"count_lattice_points.n{n}",
                      lambda: lib.arithmetic.count_lattice_points(n, radius), check))

    def add_roundtrip(i):
        rows, cols = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
        m.flat[rng.integers(m.size)] = -0.0
        m.flat[rng.integers(m.size)] = 5e-324
        path = os.path.join(work, f"roundtrip{i}.csv")

        def call():
            lib.linalg.write_matrix(path, m)
            return lib.linalg.read_matrix(path)

        def check(back):
            if back.shape != m.shape or back.tobytes() != m.tobytes():
                return "read_matrix(write_matrix(m)) is not m bit for bit"
            return None

        ops.append(Op(f"matrix_roundtrip{i}", call, check))

    def add_selection(i):
        rows, cols, l = (3, 6, 2) if tiny else (4, 10, 2)
        law = ("gaussian", "uniform")[i % 2]
        sample_id = f"eo{i}.sample"
        sample_dir = os.path.join(work, sample_id)
        matrix_file = os.path.join(sample_dir, f"{sample_id}.matrix.csv")
        sample_text = _campaign_text({"kind": "sample", "id": sample_id, "seed": _seed_of(rng),
                                      "rows": rows, "cols": cols, "profile": law})

        def sample_check(out_dir):
            m = _csv_matrix(matrix_file)
            if lib.linalg.read_matrix(matrix_file).tobytes() != m.tobytes():
                return "read_matrix disagrees with the CSV text"
            return None

        ops.append(_campaign_op(lib, sample_id, sample_text, sample_dir, sample_check))
        certs = {}
        for mode in ("exhaustive", "greedy"):
            sel_id = f"eo{i}.select.{mode}"
            sel_dir = os.path.join(work, sel_id)
            text = _campaign_text({"kind": "ri-select", "id": sel_id, "seed": _seed_of(rng),
                                   "l": l, "mode": mode, "matrix_file": matrix_file})

            def check(out_dir, sel_id=sel_id, mode=mode):
                idx, s_l, rhs, ratio = _certificate(out_dir, sel_id)
                m = _csv_matrix(matrix_file)
                fresh = float(np.linalg.svd(m[:, list(idx)], compute_uv=False)[-1])
                if len(idx) != l or not math.isclose(s_l, fresh, rel_tol=1e-12):
                    return f"{mode} certificate s_l {s_l!r} != fresh SVD {fresh!r}"
                if not math.isclose(ratio, (1.0 / s_l) / rhs, rel_tol=1e-12):
                    return f"{mode} certificate ratio {ratio!r} inconsistent"
                certs[mode] = s_l
                if mode == "greedy" and certs.get("exhaustive", math.inf) < s_l * (1 - 1e-12):
                    return f"exhaustive s_l {certs['exhaustive']!r} below greedy {s_l!r}"
                return None

            ops.append(_campaign_op(lib, sel_id, text, sel_dir, check))

    # 15 operations a pass in cost tiers, so that the per-pass median (7th of
    # 0..14) falls among five equal-cost lattice-point counts and the 90th
    # percentile (12.6th) among the three n = 3 enumerations: five calls of a
    # millisecond or less (an n = 2 enumeration, the CSV round trip, one
    # selection group), five counts in a 9^4 box, two in an 11^4 box, three
    # n = 3 enumerations.  count_lattice_points enumerates the whole box
    # [-ceil(R), ceil(R)]^n, so its cost depends on ceil(R) alone.
    for n, k in ((2, 1), (3, 1), (3, 2), (3, 3)):
        add_exact(n, k)
    add_roundtrip(0)
    for _ in range(1 if tiny else 5):
        add_count(4, float(rng.uniform(2.05, 3.0) if tiny else rng.uniform(3.05, 4.0)))
    for _ in range(0 if tiny else 2):
        add_count(4, float(rng.uniform(4.05, 5.0)))
    # A selection group is sample -> exhaustive -> greedy, in that order.
    groups = [[op] for op in ops]
    start = len(ops)
    add_selection(0)
    groups.append(ops[start:])
    order = rng.permutation(len(groups))
    ops = [op for g in order for op in groups[g]]

    oracle_n = 3 if tiny else 4
    want = Fraction(A046747[oracle_n], 2 ** (oracle_n * oracle_n))
    oracle = Op(f"rank_tail_exact.n{oracle_n}.k1",
                lambda: lib.experiments.rank_tail_exact_rademacher(oracle_n, 1),
                lambda p: None if p == want else f"n={oracle_n} exact tail {p} != {want}")
    select_dir = os.path.join(work, "eo0.select.exhaustive")
    return Workload(ops, _replay(lib, select_dir, os.path.join(work, "replay")),
                    oracle=oracle, svd_shapes=[(rows, l) for rows in (3, 5) for l in (1, 2, 3)])


BUILDERS = {
    "mc-small": build_mc_small,
    "mc-wide": build_mc_wide,
    "lattice-diag": build_lattice_diag,
    "exact-oracles": build_exact_oracles,
}
