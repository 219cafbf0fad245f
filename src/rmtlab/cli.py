"""Command-line interface: campaign files in, reproducible result files out.

Campaign grammar: one ``key = value`` assignment per line, ``#`` starts a
comment, blank lines ignored.  Later assignments override earlier ones,
except ``law.<i>.<j>`` rules, which accumulate in order (``*`` selects a
whole row or column; ``profile = <law>`` is shorthand for ``law.*.* =
<law>`` applied first).  Law specs: ``rademacher``, ``gaussian``,
``uniform``, ``sparse-bernoulli(p)``, ``discrete(a1:w1,a2:w2,...)``.
The ``id`` names output files, so it may use only ``[A-Za-z0-9._-]`` and
may not contain ``..``.  Every campaign needs ``kind`` and ``seed``;
list-valued keys (``k``, ``epsilon``, ``t``, ``n`` for norm sweeps) take
comma-separated ascending values.  Besides ``kind``, ``id`` and ``seed``,
each kind takes only the keys it reads (``law`` for ``law.<i>.<j>`` rules,
P for ``k_cap, profile, law``); any other key or rule fails with its line:

- sample: n, P; with rows: rows, cols, P
- rank-tail: n, k, method, trials, P; with method = exact: n, k, method,
  profile (rademacher only)
- singular-tail: n, k, epsilon, trials, gamma, comparison_c, P
- rlcd: n, L, alpha, radius_cap, resolution, mc_trials, basis, columns,
  directions, P
- round: n, l, delta, rho, tau, r, c_op, mc_trials, vector_scale, P; with
  vectors_file: n, vectors_file, delta, rho, tau, r, c_op, mc_trials, P
- ri-select: rows, cols, l, mode, P; with matrix_file: matrix_file, l, mode
- tensorize: n, t
- norms: n, trials, c_op, c_hs, profile (one law); the defaults c_op = 3,
  c_hs = 1 read 0 for bounded named laws, c_op = 1.5, c_hs = 0.5 do not

Each run writes into the output directory:

- ``results.csv`` with the fixed header
  ``experiment_id,n,k,epsilon,estimate,stderr,trials,master_seed``
  (the epsilon column carries the row's threshold parameter where one
  applies; cells that do not apply stay empty);
- ``manifest.txt``, a normalized campaign file (plus version comment) that
  reproduces the run byte-for-byte when passed back as ``--config``;
- kind-specific artifacts (sampled matrices, rounding reports, selection
  certificates, denominator traces) and two-column tab-separated plot data
  named ``<experiment_id>.<series>.tsv``.  Before the manifest is written,
  the artifact names of the campaign's kind and id are removed, so a run
  that fails leaves none of an earlier run's artifacts beside its manifest.

Every output is replaced, not rewritten: whatever is at its path is removed
and the file is created anew, so a link planted in the output directory is
replaced and never written through.  All randomness derives from the
campaign seed; reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import __version__
from .arithmetic import RLCDParams, rlcd_estimate
from .ensembles import (EntryProfile, check_psi2_cap, parse_law_spec, parse_rule_key,
                        profile_from_rules, sample_matrix)
from .errors import CampaignError, ParameterError, ResourceLimitError
from .experiments import (ExperimentConfig, _binomial, rank_histogram_rademacher,
                          rank_tail_counts, singular_tail_mc, norm_concentration_mc,
                          tensorization_check)
from .linalg import _create, _remove, read_matrix, singular_spectrum, write_matrix
from .rounding import RoundingParams, randomized_round, rounding_report
from .selection import ri_select

RESULTS_HEADER = "experiment_id,n,k,epsilon,estimate,stderr,trials,master_seed"

# Ids name output files and fill the first results.csv field.
_ID_PATTERN = re.compile(r"[A-Za-z0-9._-]+")

# The keys each campaign kind reads besides kind, id and seed; "law" stands for
# law.<i>.<j> rules.  Where a runner branches on a key, each branch has its own
# row: (kind, "key") applies when the campaign sets key, (kind, "key = value")
# when it sets key to value, and (kind, "") otherwise.  Any other key is refused.
_KIND_KEYS = {
    ("sample", ""): "n k_cap profile law",
    ("sample", "rows"): "rows cols k_cap profile law",
    ("rank-tail", ""): "n k method trials k_cap profile law",
    ("rank-tail", "method = exact"): "n k method profile",
    ("singular-tail", ""): "n k epsilon trials gamma comparison_c k_cap profile law",
    ("rlcd", ""): "n L alpha radius_cap resolution mc_trials basis columns directions "
                  "k_cap profile law",
    ("round", ""): "n l delta rho tau r c_op mc_trials vector_scale k_cap profile law",
    ("round", "vectors_file"): "n vectors_file delta rho tau r c_op mc_trials k_cap profile law",
    ("ri-select", ""): "rows cols l mode k_cap profile law",
    ("ri-select", "matrix_file"): "matrix_file l mode",
    ("tensorize", ""): "n t",
    ("norms", ""): "n trials c_op c_hs profile",
}
# The files each kind writes besides manifest.txt and results.csv, named "<id>.<suffix>".
# The runners take their paths from here, and run_campaign removes these names before
# a run, so a run that fails leaves none of an earlier run's artifacts behind.
_KIND_ARTIFACTS = {
    "sample": "matrix.csv",
    "rank-tail": "ranktail.tsv",
    "singular-tail": "tail.tsv bound.tsv",
    "rlcd": "rlcd.csv trace.tsv threshold.tsv",
    "round": "rounding_report.csv",
    "ri-select": "certificates.csv",
    "tensorize": "exact.tsv bound.tsv",
    "norms": "opnorm.tsv hsnorm.tsv",
}
# Library argument names that differ from the campaign key that supplies them.
_ARGUMENT_KEYS = {"epsilon_grid": "epsilon", "K": "k_cap"}
_KINDS = tuple(dict.fromkeys(kind for kind, _ in _KIND_KEYS))
_BRANCHES = {kind: branch for kind, branch in _KIND_KEYS if branch}
_ROW_KEYS = {row: frozenset(keys.split()) | {"kind", "id", "seed"}
             for row, keys in _KIND_KEYS.items()}
_KNOWN_KEYS = frozenset().union(*_ROW_KEYS.values()) - {"law"}


@dataclass
class CampaignFile:
    """A parsed campaign: the kind, its keyed values, and the law rules."""

    kind: str
    experiment_id: str
    seed: int
    values: dict  # key -> (raw value, line number)
    law_rules: list  # (line number, raw "law.<i>.<j>" key, raw value, (row, col) selectors)

    def get(self, key: str, default=None):
        if key in self.values:
            return self.values[key][0]
        return default


def parse_campaign(text: str) -> CampaignFile:
    """Parse and validate campaign text; errors name the offending line."""
    values: dict = {}
    law_rules: list = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CampaignError(f"line {line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("law."):
            try:
                law_rules.append((line_no, key, value, parse_rule_key(key)))
            except ValueError as exc:
                raise CampaignError(f"line {line_no}: {exc}")
            continue
        if key not in _KNOWN_KEYS:
            raise CampaignError(f"line {line_no}: unknown key {key!r}")
        if not value:
            raise CampaignError(f"line {line_no}: key {key!r} has no value")
        values[key] = (value, line_no)

    if "kind" not in values:
        raise CampaignError("campaign is missing the kind key")
    kind = values["kind"][0]
    if kind not in _KINDS:
        raise CampaignError(f"line {values['kind'][1]}: unknown kind {kind!r} "
                            f"(expected one of {', '.join(_KINDS)})")
    branch = _BRANCHES.get(kind, "")
    selector, _, want = branch.partition(" = ")
    taken = selector in values and want in ("", values[selector][0])
    allowed = _ROW_KEYS[kind, branch if taken else ""]
    refused = [(line_no, f"{key} key") for key, (_, line_no) in values.items()
               if key not in allowed]
    if "law" not in allowed:
        refused += [(line_no, "law.<i>.<j> rule") for line_no, *_ in law_rules]
    if refused:
        line_no, what = min(refused)
        label = (branch if taken and want else f"kind = {kind}"
                 + (f" {'with' if taken else 'without'} {branch}" if branch and not want else ""))
        raise CampaignError(f"line {line_no}: {label} takes no {what}")
    if "seed" not in values:
        raise CampaignError("campaign is missing the seed key")
    seed_raw, seed_line = values["seed"]
    try:
        seed = int(seed_raw)
    except ValueError:
        raise CampaignError(f"line {seed_line}: seed must be an integer, got {seed_raw!r}")
    if not 0 <= seed < 2 ** 64:
        raise CampaignError(f"line {seed_line}: seed must fit in 64 bits")
    experiment_id = kind
    if "id" in values:
        experiment_id, id_line = values["id"]
        if not _ID_PATTERN.fullmatch(experiment_id) or ".." in experiment_id:
            raise CampaignError(f"line {id_line}: id must use only [A-Za-z0-9._-] "
                                f"and no '..', got {experiment_id!r}")
    return CampaignFile(kind, experiment_id, seed, values, law_rules)


def normalize_campaign(campaign: CampaignFile, seed: int) -> str:
    """Canonical campaign text embedding the effective seed; parseable as-is."""
    lines = [f"# generated by rmtlab {__version__}",
             f"kind = {campaign.kind}",
             f"id = {campaign.experiment_id}",
             f"seed = {seed}"]
    lines += [f"{key} = {value}" for key, (value, _) in sorted(campaign.values.items())
              if key not in ("kind", "id", "seed")]
    lines += [f"{key} = {value}" for _, key, value, _ in campaign.law_rules]
    return "\n".join(lines) + "\n"


def _c_num(campaign, key, cast=float, default=None, low=None):
    if key not in campaign.values:
        if default is None:
            raise CampaignError(f"{campaign.kind} campaign is missing the {key} key")
        return default
    raw, line = campaign.values[key]
    try:
        value = cast(raw)
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise CampaignError(f"line {line}: key {key!r} must be {what}, got {raw!r}")
    if low is not None and not value >= low:
        raise CampaignError(f"line {line}: key {key!r} must be at least {low}, got {raw!r}")
    return value


def _c_grid(campaign, key, cast=float):
    if key not in campaign.values:
        raise CampaignError(f"{campaign.kind} campaign is missing the {key} key")
    raw, line = campaign.values[key]
    try:
        items = [cast(v.strip()) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise CampaignError(f"line {line}: key {key!r} must be a comma list, got {raw!r}")
    if not items:
        raise CampaignError(f"line {line}: key {key!r} lists no values")
    if any(items[i] > items[i + 1] for i in range(len(items) - 1)):
        raise CampaignError(f"line {line}: grid {key!r} must be sorted ascending")
    return items


def _build_profile(campaign, n_rows: int, n_cols: int) -> EntryProfile:
    k_cap = _c_num(campaign, "k_cap", default=2.0)
    if not k_cap > 0.0:
        raise CampaignError(f"line {campaign.values['k_cap'][1]}: k_cap must be positive, "
                            f"got {k_cap!r}")
    specs = list(campaign.law_rules)
    if "profile" in campaign.values:
        value, line_no = campaign.values["profile"]
        specs.insert(0, (line_no, "law.*.*", value, ("*", "*")))
    if not specs:
        raise CampaignError(f"{campaign.kind} campaign needs a profile "
                            "(profile = <law> or law.<i>.<j> rules)")
    laws = {}  # spec text -> law: each distinct spec is parsed and capped once
    rules = []
    for line_no, _, value, (row, col) in specs:
        for name, sel, size in (("row", row, n_rows), ("column", col, n_cols)):
            if sel != "*" and not 0 <= sel < size:
                raise CampaignError(f"line {line_no}: profile rule {name} {sel} "
                                    f"out of range for {size} {name}s")
        if value not in laws:
            try:
                law = parse_law_spec(value)
                check_psi2_cap(law, k_cap)
            except ValueError as exc:
                raise CampaignError(f"line {line_no}: {exc}")
            laws[value] = law
        rules.append((row, col, laws[value]))
    try:
        return profile_from_rules(rules, n_rows, n_cols, k_cap)
    except ValueError as exc:
        raise CampaignError(str(exc))


def _master_stream(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _row(experiment_id, n, k, epsilon, estimate, stderr, trials, seed) -> str:
    return ",".join(_fmt(v) for v in (experiment_id, n, k, epsilon, estimate,
                                      stderr, trials, seed))


def _write_tsv(path: str, xs, ys) -> None:
    with _create(path) as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{_fmt(float(x))}\t{_fmt(float(y))}\n")


def _run_sample(campaign, paths, rows, n_threads):
    if campaign.get("rows") is not None:
        n_rows = _c_num(campaign, "rows", int, low=1)
        n_cols = _c_num(campaign, "cols", int, n_rows, low=1)
    else:
        n_rows = n_cols = _c_num(campaign, "n", int, low=1)
    profile = _build_profile(campaign, n_rows, n_cols)
    mat = sample_matrix(profile, _master_stream(campaign.seed))
    write_matrix(paths[0], mat)
    spec = singular_spectrum(mat)
    rows.append(_row(campaign.experiment_id, n_rows, None, None, spec.smallest,
                     None, 1, campaign.seed))


def _run_rank_tail(campaign, paths, rows, n_threads):
    n = _c_num(campaign, "n", int, low=1)
    ks = _c_grid(campaign, "k", int)
    bad = [k for k in ks if not 0 <= k <= n]
    if bad:
        raise CampaignError(f"line {campaign.values['k'][1]}: k = {bad[0]} lies outside "
                            f"[0, {n}]")
    method = campaign.get("method", "mc")
    if method == "exact":
        if campaign.get("profile", "rademacher") != "rademacher":
            raise CampaignError(f"line {campaign.values['profile'][1]}: method = exact "
                                "enumerates rademacher sign matrices and takes no other profile")
        try:
            hist = rank_histogram_rademacher(n)
        except ResourceLimitError as exc:
            raise CampaignError(f"line {campaign.values['n'][1]}: {exc}")
        exact = [sum(hist[:n - k + 1]) / 2 ** (n * n) for k in ks]
        for k, p in zip(ks, exact):
            rows.append(_row(campaign.experiment_id, n, k, None, p, 0.0,
                             2 ** (n * n), campaign.seed))
        _write_tsv(paths[0], ks, exact)
        return
    if method != "mc":
        raise CampaignError(f"line {campaign.values['method'][1]}: method must be mc or "
                            f"exact, got {method!r}")
    trials = _c_num(campaign, "trials", int, low=1)
    profile = _build_profile(campaign, n, n)
    config = ExperimentConfig(profile, trials, campaign.seed)
    estimates = []
    for k, hits in zip(ks, rank_tail_counts(config, ks, n_threads)):
        est, se = _binomial(int(hits), trials)
        estimates.append(est)
        rows.append(_row(campaign.experiment_id, n, k, None, est, se, trials,
                         campaign.seed))
    _write_tsv(paths[0], ks, estimates)


def _run_singular_tail(campaign, paths, rows, n_threads):
    n = _c_num(campaign, "n", int, low=1)
    k = _c_num(campaign, "k", int)
    eps = _c_grid(campaign, "epsilon", float)
    gamma = _c_num(campaign, "gamma", default=0.25)
    comparison_c = _c_num(campaign, "comparison_c", default=1.0)
    trials = _c_num(campaign, "trials", int, low=1)
    profile = _build_profile(campaign, n, n)
    config = ExperimentConfig(profile, trials, campaign.seed)
    tail = singular_tail_mc(config, k, eps, comparison_c, gamma, n_threads)
    for entry in tail:
        rows.append(_row(campaign.experiment_id, n, k, float(entry["epsilon"]),
                         float(entry["estimate"]), float(entry["stderr"]),
                         trials, campaign.seed))
    _write_tsv(paths[0], tail["epsilon"], tail["estimate"])
    _write_tsv(paths[1], tail["epsilon"], tail["bound"])


def _read_finite(path, label, line):
    """read_matrix, refusing inf and nan entries with the line of the key that names the file."""
    mat = read_matrix(path)
    if not np.all(np.isfinite(mat)):
        raise CampaignError(f"line {line}: {label} {path!r} has non-finite entries")
    return mat


def _run_rlcd(campaign, paths, rows, n_threads):
    n = _c_num(campaign, "n", int, low=1)
    profile = _build_profile(campaign, n, n)
    params = RLCDParams(*(_c_num(campaign, k) for k in ("L", "alpha", "radius_cap", "resolution")),
                        mc_trials=_c_num(campaign, "mc_trials", int, 1000))
    basis_spec, basis_line = campaign.values.get("basis", ("axis 1", None))
    parts = basis_spec.split()
    if parts[0] == "axis" and len(parts) == 2:
        try:
            m = int(parts[1])
        except ValueError:
            m = 0
        if not 1 <= m <= n:
            raise CampaignError(f"line {basis_line}: basis 'axis <m>' needs an integer m "
                                f"in [1, {n}], got {parts[1]!r}")
        basis = np.eye(n)[:m]
    elif parts[0] == "file" and len(parts) == 2:
        basis = _read_finite(parts[1], "basis file", basis_line)
        if basis.shape[1] != n:
            raise CampaignError(f"line {basis_line}: basis file {parts[1]!r} has "
                                f"{basis.shape[1]} columns, expected n = {n}")
        if basis.shape[0] == 0:
            raise CampaignError(f"line {basis_line}: basis file {parts[1]!r} has no rows")
    else:
        raise CampaignError(f"line {basis_line}: basis must be 'axis <m>' or 'file <path>', "
                            f"got {basis_spec!r}")
    columns = campaign.get("columns")
    if columns is None:
        col_idx = list(range(profile.n_cols))
    else:
        try:
            col_idx = [int(v) for v in columns.split(",")]
        except ValueError:
            raise CampaignError(f"line {campaign.values['columns'][1]}: key 'columns' must be "
                                f"a comma list of integers, got {columns!r}")
        bad = [j for j in col_idx if not 0 <= j < n]
        if bad:
            raise CampaignError(f"line {campaign.values['columns'][1]}: column index {bad[0]} "
                                f"out of range for n = {n}")
    trace: list = []
    est = rlcd_estimate(basis, profile, col_idx, params, _master_stream(campaign.seed),
                        n_directions=_c_num(campaign, "directions", int, 32, low=0), trace=trace)
    rows.append(_row(campaign.experiment_id, n, None, None,
                     est.upper if math.isfinite(est.upper) else math.inf,
                     None, params.mc_trials, campaign.seed))
    with _create(paths[0]) as fh:
        fh.write("lower,upper,note\n")
        fh.write(f"{_fmt(est.lower)},{_fmt(est.upper)},{est.note or ''}\n")
    if trace:
        radii = [t[0] for t in trace]
        _write_tsv(paths[1], radii, [t[1] for t in trace])
        _write_tsv(paths[2], radii, [t[2] for t in trace])


def _run_round(campaign, paths, rows, n_threads):
    n = _c_num(campaign, "n", int, low=1)
    profile = _build_profile(campaign, n, n)
    params = RoundingParams(*(_c_num(campaign, key, default=value) for key, value in (
        ("delta", None), ("rho", None), ("tau", 0.5), ("k_cap", 2.0), ("r", 0.05), ("c_op", 3.0))))
    stream = _master_stream(campaign.seed)
    vectors_file = campaign.get("vectors_file")
    if vectors_file is not None:
        v = _read_finite(vectors_file, "vectors_file", campaign.values['vectors_file'][1])
        if v.shape[0] != n:
            raise CampaignError(f"line {campaign.values['vectors_file'][1]}: vectors_file "
                                f"{vectors_file!r} has {v.shape[0]} rows, expected n = {n}")
        if v.shape[1] == 0:
            raise CampaignError(f"line {campaign.values['vectors_file'][1]}: vectors_file "
                                f"{vectors_file!r} has no columns")
    else:
        v = stream.standard_normal((n, _c_num(campaign, "l", int, 1, low=1)))
        v /= np.linalg.norm(v, axis=0)
        scale = _c_num(campaign, "vector_scale", default=1.0)
        if scale == 0.0 or not math.isfinite(scale):
            raise CampaignError(f"line {campaign.values['vector_scale'][1]}: key 'vector_scale' "
                                f"must be finite and nonzero, got {campaign.get('vector_scale')!r}")
        v *= scale
    u = np.column_stack([randomized_round(v[:, j], params.delta, stream)
                         for j in range(v.shape[1])])
    b = sample_matrix(profile, stream)
    report = rounding_report(v, u, profile, b, params, stream,
                             mc_trials=_c_num(campaign, "mc_trials", int, 1000, low=1))
    with _create(paths[0]) as fh:
        fh.write("name,measured,threshold,pass\n")
        for line in report.csv_rows():
            fh.write(line + "\n")
    passed = sum(1 for c in report.checks if c.passed)
    rows.append(_row(campaign.experiment_id, n, None, None, passed / len(report.checks), None, 1,
                     campaign.seed))


def _run_ri_select(campaign, paths, rows, n_threads):
    matrix_file = campaign.get("matrix_file")
    if matrix_file is not None:
        mat = _read_finite(matrix_file, "matrix_file", campaign.values['matrix_file'][1])
        if mat.shape[0] == 0:
            raise CampaignError(f"line {campaign.values['matrix_file'][1]}: matrix_file "
                                f"{matrix_file!r} has no rows")
        if mat.shape[0] > mat.shape[1]:
            raise CampaignError(f"line {campaign.values['matrix_file'][1]}: matrix_file "
                                f"{matrix_file!r} has {mat.shape[0]} rows and "
                                f"{mat.shape[1]} columns, expected rows <= columns")
    else:
        n_rows = _c_num(campaign, "rows", int, low=1)
        n_cols = _c_num(campaign, "cols", int, low=1)
        if n_cols < n_rows:
            raise CampaignError(f"line {campaign.values['cols'][1]}: key 'cols' must lie in "
                                f"[{n_rows}, inf), got {campaign.get('cols')!r}")
        profile = _build_profile(campaign, n_rows, n_cols)
        mat = sample_matrix(profile, _master_stream(campaign.seed))
    l = _c_num(campaign, "l", int)
    mode = campaign.get("mode", "exhaustive")
    if mode not in ("exhaustive", "greedy"):
        raise CampaignError(f"line {campaign.values['mode'][1]}: mode must be 'exhaustive' or "
                            f"'greedy', got {mode!r}")
    try:
        cert = ri_select(mat, l, mode)
    except ResourceLimitError as exc:  # an exhaustive search over too many subsets
        raise CampaignError(f"line {campaign.values['l'][1]}: {exc}")
    with _create(paths[0]) as fh:
        fh.write("indices,s_l,rhs,ratio\n")
        fh.write(cert.csv_row() + "\n")
    rows.append(_row(campaign.experiment_id, mat.shape[0], l, None, cert.ratio,
                     None, 1, campaign.seed))


def _run_tensorize(campaign, paths, rows, n_threads):
    n = _c_num(campaign, "n", int, low=1)
    ts = _c_grid(campaign, "t", float)
    probs, bounds = zip(*(tensorization_check(n, t) for t in ts))
    rows.extend(_row(campaign.experiment_id, n, None, t, prob, None, 1, campaign.seed)
                for t, prob in zip(ts, probs))
    _write_tsv(paths[0], ts, probs)
    _write_tsv(paths[1], ts, bounds)


def _run_norms(campaign, paths, rows, n_threads):
    law_spec = campaign.get("profile")
    if law_spec is None:
        raise CampaignError("norms campaigns take a single homogeneous law via profile =")
    try:
        law = parse_law_spec(law_spec)
    except ValueError as exc:
        raise CampaignError(f"line {campaign.values['profile'][1]}: {exc}")
    n_grid = _c_grid(campaign, "n", int)
    if n_grid[0] < 1:
        raise CampaignError(f"line {campaign.values['n'][1]}: key 'n' must list sizes of "
                            f"at least 1, got {n_grid[0]}")
    trials = _c_num(campaign, "trials", int, low=1)
    c_op = _c_num(campaign, "c_op", default=3.0)
    c_hs = _c_num(campaign, "c_hs", default=1.0)
    ops, hss = [], []
    # each size draws from its own master seed, so no two sizes share a stream
    seeds = _master_stream(campaign.seed).integers(2 ** 64, size=len(n_grid), dtype=np.uint64)
    for n, seed in zip(n_grid, seeds):
        profile = EntryProfile.homogeneous(n, n, law, max(law.declared_psi2, 1.0))
        try:
            op, op_se, hs, hs_se = norm_concentration_mc(
                ExperimentConfig(profile, trials, int(seed)), c_op, c_hs)
        except ParameterError:
            raise
        except ValueError as exc:  # the law is unbounded
            raise CampaignError(f"line {campaign.values['profile'][1]}: {exc}")
        rows.append(_row(f"{campaign.experiment_id}.op", n, None, None, op, op_se,
                         trials, campaign.seed))
        rows.append(_row(f"{campaign.experiment_id}.hs", n, None, None, hs, hs_se,
                         trials, campaign.seed))
        ops.append(op)
        hss.append(hs)
    _write_tsv(paths[0], n_grid, ops)
    _write_tsv(paths[1], n_grid, hss)


_RUNNERS = {
    "sample": _run_sample,
    "rank-tail": _run_rank_tail,
    "singular-tail": _run_singular_tail,
    "rlcd": _run_rlcd,
    "round": _run_round,
    "ri-select": _run_ri_select,
    "tensorize": _run_tensorize,
    "norms": _run_norms,
}


def _artifact_names(campaign: CampaignFile) -> list:
    """The files a campaign writes besides manifest.txt and results.csv."""
    return [f"{campaign.experiment_id}.{suffix}"
            for suffix in _KIND_ARTIFACTS[campaign.kind].split()]


def run_campaign(campaign: CampaignFile, out_dir: str = ".", n_threads: int = 1) -> int:
    """Execute one campaign; returns the process exit status.

    The manifest and any partial results are flushed even when a module
    raises, so failed runs leave a reproducible record behind.  First the
    artifacts its kind writes for this id are removed, so that record holds
    none of an earlier run's; no other file in out_dir is removed.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in _artifact_names(campaign)]
    for path in paths:
        _remove(path)
    with _create(os.path.join(out_dir, "manifest.txt")) as fh:
        fh.write(normalize_campaign(campaign, campaign.seed))
    rows: list = []
    status = 0
    try:
        _RUNNERS[campaign.kind](campaign, paths, rows, n_threads)
    except (CampaignError, ValueError, RuntimeError, OSError) as exc:
        # a ParameterError names the argument; report it on the line of the key that set it
        key = _ARGUMENT_KEYS.get(exc.name, exc.name) if isinstance(exc, ParameterError) else None
        if key in campaign.values:
            exc = (f"line {campaign.values[key][1]}: key {key!r} must lie in {exc.span}, "
                   f"got {campaign.get(key)!r}")
        print(f"rmtlab: {exc}", file=sys.stderr)
        status = 2
    with _create(os.path.join(out_dir, "results.csv")) as fh:
        fh.write(RESULTS_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    return status


def _report(out_dir: str) -> int:
    results = os.path.join(out_dir, "results.csv")
    if not os.path.exists(results):
        print(f"rmtlab: no results.csv under {out_dir}", file=sys.stderr)
        return 2
    with open(results, newline="") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        print(f"rmtlab: {results} is empty", file=sys.stderr)
        return 2
    header, data = lines[0], lines[1:]
    if not data:
        print(f"rmtlab: {results} has a header but no data row", file=sys.stderr)
        return 2
    counts = Counter(line.split(",", 1)[0] for line in data)
    print(f"results: {len(data)} row(s), header {header}")
    for exp_id in sorted(counts):
        print(f"  {exp_id}: {counts[exp_id]} row(s)")
    manifest = os.path.join(out_dir, "manifest.txt")
    try:
        with open(manifest, encoding="utf-8") as fh:
            campaign = parse_campaign(fh.read())
    except (OSError, ValueError) as exc:
        print(f"rmtlab: {manifest}: {exc}", file=sys.stderr)
        return 2
    print("manifest: present")
    foreign = sorted(set(os.listdir(out_dir)) - {"manifest.txt", "results.csv"}
                     - set(_artifact_names(campaign)))
    for name in foreign:
        print(f"rmtlab: {os.path.join(out_dir, name)} is not written by the {campaign.kind} "
              f"campaign {campaign.experiment_id!r} of {manifest}", file=sys.stderr)
    return 1 if foreign else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rmtlab",
        description="Random-matrix laboratory: tail estimation, lattice rounding, "
                    "and arithmetic-structure diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} campaign")
        p.add_argument("--config", required=True, help="campaign file path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the campaign seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for trials (read by rank-tail and singular-tail)")
    rep = sub.add_parser("report", help="summarize an output directory and name every "
                                        "file its manifest's campaign does not write")
    rep.add_argument("--out", default=".", help="output directory to summarize")
    args = parser.parse_args(argv)

    if args.command == "report":
        return _report(args.out)
    try:
        with open(args.config, encoding="utf-8") as fh:
            campaign = parse_campaign(fh.read())
        if campaign.kind != args.command:
            raise CampaignError(f"campaign kind {campaign.kind!r} does not match "
                                f"subcommand {args.command!r}")
        if args.seed is not None:
            if not 0 <= args.seed < 2 ** 64:
                raise CampaignError("--seed must fit in 64 bits")
            campaign.seed = args.seed
        if args.threads < 1:
            raise CampaignError(f"--threads must be at least 1, got {args.threads}")
    except (OSError, CampaignError) as exc:
        print(f"rmtlab: {exc}", file=sys.stderr)
        return 2
    return run_campaign(campaign, out_dir=args.out, n_threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
