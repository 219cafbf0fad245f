"""Span recorder for the traced benchmark run.

The tracer wraps public rmtlab functions (and ``numpy.linalg.svd``) at every
name other modules import them by, so calls between modules are seen without
editing the library.  Each wrapper is a pure pass-through: it forwards the
same arguments, returns the same object and draws nothing from any stream.

Spans are recorded only inside a root span that the harness opens around one
timed operation, so checks and set-up never appear.  Spans are kept in memory
with (name, start, end, parent) and written out when the run ends.  Times are
integer nanoseconds, so the self times of all spans add up exactly to the
root durations: a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import gzip
import inspect
import math
import os
import sys
from time import perf_counter_ns as clock

import numpy as np

ROOT = "bench.op"

# (module, attribute, span name).  Functions are replaced wherever a module
# of the rmtlab package holds the same object under that attribute name.
SPAN_TARGETS = (
    ("rmtlab.cli", "run_campaign", "cli.run_campaign"),
    ("rmtlab.experiments", "run_trials", "experiments.run_trials"),
    ("rmtlab.experiments", "rank_tail_from_table", "experiments.tail_from_table"),
    ("rmtlab.experiments", "singular_tail_from_table", "experiments.tail_from_table"),
    ("rmtlab.experiments", "singular_tail_mc", "experiments.tail_from_table"),
    ("rmtlab.experiments", "rank_tail_exact_rademacher",
     "experiments.rank_tail_exact_rademacher"),
    ("rmtlab.experiments", "kernel_tuple_event_check", "experiments.kernel_tuple_event_check"),
    ("rmtlab.experiments", "kernel_rlcd_probe", "experiments.kernel_rlcd_probe"),
    ("rmtlab.ensembles", "sample_matrix", "ensembles.sample_matrix"),
    ("rmtlab.ensembles", "profile_from_rules", "ensembles.profile_build"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("rmtlab.linalg", "singular_spectrum", "linalg.singular_spectrum"),
    ("rmtlab.linalg", "write_matrix", "linalg.write_matrix"),
    ("rmtlab.linalg", "read_matrix", "linalg.read_matrix"),
    ("rmtlab.sphere", "sampled_span_incompressible", "sphere.sampled_span_incompressible"),
    ("rmtlab.sphere", "dist_to_sparse", "sphere.dist_to_sparse"),
    ("rmtlab.sphere", "almost_orthogonal_check", "sphere.almost_orthogonal_check"),
    ("rmtlab.arithmetic", "expected_sq_dist_to_lattice",
     "arithmetic.expected_sq_dist_to_lattice"),
    ("rmtlab.arithmetic", "matrix_lattice_distance", "arithmetic.matrix_lattice_distance"),
    ("rmtlab.arithmetic", "rlcd_estimate", "arithmetic.rlcd_estimate"),
    ("rmtlab.rounding", "rounding_report", "rounding.rounding_report"),
    ("rmtlab.rounding", "randomized_round", "rounding.randomized_round"),
    ("rmtlab.selection", "ri_select", "selection.ri_select"),
)

# Per-layer metrics, in the order BENCHMARK.json lists them, with units.
LAYER_METRICS = (
    ("cli.run_campaign.calls", "count"),
    ("cli.run_campaign.self_s", "s"),
    ("experiments.run_trials.calls", "count"),
    ("experiments.run_trials.trials", "count"),
    ("experiments.run_trials.self_s", "s"),
    ("experiments.run_trials.self_us_per_trial", "us"),
    ("experiments.tail_from_table.self_s", "s"),
    ("experiments.rank_tail_exact_rademacher.calls", "count"),
    ("experiments.rank_tail_exact_rademacher.self_s", "s"),
    ("experiments.exact.matrices", "count"),
    ("experiments.kernel_tuple_event_check.calls", "count"),
    ("experiments.kernel_tuple_event_check.self_s", "s"),
    ("experiments.kernel_rlcd_probe.calls", "count"),
    ("experiments.kernel_rlcd_probe.self_s", "s"),
    ("ensembles.sample_matrix.calls", "count"),
    ("ensembles.sample_matrix.self_s", "s"),
    ("ensembles.sample_matrix.self_us_per_call", "us"),
    ("ensembles.law_sample.calls", "count"),
    ("ensembles.law_sample.per_matrix", "ratio"),
    ("ensembles.profile_build.self_s", "s"),
    ("linalg.svd.calls", "count"),
    ("linalg.svd.matrices", "count"),
    ("linalg.svd.self_s", "s"),
    ("linalg.svd.bytes_computed", "B"),
    ("linalg.singular_spectrum.calls", "count"),
    ("linalg.singular_spectrum.self_s", "s"),
    ("linalg.write_matrix.calls", "count"),
    ("linalg.write_matrix.bytes", "B"),
    ("linalg.write_matrix.self_s", "s"),
    ("linalg.read_matrix.calls", "count"),
    ("linalg.read_matrix.bytes", "B"),
    ("linalg.read_matrix.self_s", "s"),
    ("sphere.sampled_span_incompressible.calls", "count"),
    ("sphere.sampled_span_incompressible.samples", "count"),
    ("sphere.sampled_span_incompressible.self_s", "s"),
    ("sphere.dist_to_sparse.calls", "count"),
    ("sphere.dist_to_sparse.self_s", "s"),
    ("sphere.almost_orthogonal_check.calls", "count"),
    ("sphere.almost_orthogonal_check.self_s", "s"),
    ("arithmetic.expected_sq_dist_to_lattice.calls", "count"),
    ("arithmetic.expected_sq_dist_to_lattice.self_s", "s"),
    ("arithmetic.expected_sq_dist_to_lattice.self_us_per_call", "us"),
    ("arithmetic.column_evals_per_distinct", "ratio"),
    ("arithmetic.mc_symmetrized_draws", "count"),
    ("arithmetic.matrix_lattice_distance.calls", "count"),
    ("arithmetic.matrix_lattice_distance.self_s", "s"),
    ("arithmetic.rlcd_estimate.calls", "count"),
    ("arithmetic.rlcd_estimate.self_s", "s"),
    ("arithmetic.rlcd_estimate.radii", "count"),
    ("rounding.rounding_report.calls", "count"),
    ("rounding.rounding_report.self_s", "s"),
    ("rounding.annulus_evaluations", "count"),
    ("rounding.randomized_round.calls", "count"),
    ("rounding.randomized_round.self_s", "s"),
    ("selection.ri_select.calls", "count"),
    ("selection.ri_select.self_s", "s"),
    ("selection.subsets", "count"),
    ("selection.self_us_per_subset", "us"),
    ("trace.overhead_frac", "ratio"),
)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _distinct_columns(profile) -> int:
    return len({profile.column(j) for j in range(profile.n_cols)})


class Tracer:
    """In-memory span and counter store; one per traced pass."""

    def __init__(self):
        self.spans: list = []       # [name, start_ns, end_ns, parent index or -1]
        self._child_ns: list = []   # summed durations of each span's direct children
        self._stack: list = []
        self.calls: dict = {}
        self.self_ns: dict = {}
        self.counts: dict = {}
        self._distinct: dict = {}   # id(profile) -> (profile, distinct column count)
        self._patches: list = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str, now: int) -> int:
        idx = len(self.spans)
        self.spans.append([name, now, 0, self._stack[-1] if self._stack else -1])
        self._child_ns.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, now: int) -> int:
        span = self.spans[idx]
        span[2] = now
        self._stack.pop()
        dur = now - span[1]
        name = span[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - self._child_ns[idx]
        if span[3] >= 0:
            self._child_ns[span[3]] += dur
        return dur

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrapping --------------------------------------------------------------
    def _span_wrapper(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer.open(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx, clock())
            if hook is not None:
                hook(tracer, fn, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter_wrapper(self, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._stack:
                hook(tracer, args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at every name it is imported by."""
        rmt_modules = [m for name, m in sorted(sys.modules.items())
                       if m is not None and (name == "rmtlab" or name.startswith("rmtlab."))]
        for module_name, attr, span in SPAN_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._span_wrapper(original, span, _HOOKS.get(span))
            owners = [sys.modules[module_name]] + rmt_modules
            for owner in dict.fromkeys(owners):
                if getattr(owner, attr, None) is original:
                    self._set(owner, attr, wrapper)
        law_cls = sys.modules["rmtlab.ensembles"].DistributionLaw
        self._set(law_cls, "sample", self._counter_wrapper(law_cls.sample, _count_law_sample))
        self._set(law_cls, "sample_symmetrized",
                  self._counter_wrapper(law_cls.sample_symmetrized, _count_symmetrized))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------
    def distinct_columns(self, profile) -> int:
        hit = self._distinct.get(id(profile))
        if hit is None or hit[0] is not profile:
            hit = (profile, _distinct_columns(profile))
            self._distinct[id(profile)] = hit
        return hit[1]

    def self_ns_by_root(self) -> list:
        """For each root span in order: span name -> self time (ns) of the spans under it."""
        root_of, out = [], []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                root_of.append(len(out))
                out.append({})
            else:
                root_of.append(root_of[parent])
            d = out[root_of[i]]
            d[name] = d.get(name, 0) + end - start - self._child_ns[i]
        return out

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def layer_metrics(self, overhead_frac: float) -> dict:
        """The per-layer metrics of BENCHMARK.json, computed from spans and counters."""
        calls = self.calls.get
        count = self.counts.get

        def self_s(name):
            return self.self_ns.get(name, 0) / 1e9

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        out = {}
        for name, _ in LAYER_METRICS:
            if name.endswith(".calls"):
                out[name] = calls(name[:-len(".calls")], 0)
            elif name.endswith(".self_s"):
                out[name] = self_s(name[:-len(".self_s")])
        law_calls = count("law_sample.calls", 0)
        out.update({
            "experiments.run_trials.trials": count("run_trials.trials", 0),
            "experiments.run_trials.self_us_per_trial": per(
                self_s("experiments.run_trials"), count("run_trials.trials", 0), 1e6),
            "experiments.exact.matrices": count("exact.matrices", 0),
            "ensembles.sample_matrix.self_us_per_call": per(
                self_s("ensembles.sample_matrix"), calls("ensembles.sample_matrix", 0), 1e6),
            "ensembles.law_sample.calls": law_calls,
            "ensembles.law_sample.per_matrix": per(
                count("law_sample.in_sample_matrix", 0), calls("ensembles.sample_matrix", 0)),
            "linalg.svd.matrices": count("svd.matrices", 0),
            "linalg.svd.bytes_computed": count("svd.bytes", 0),
            "linalg.write_matrix.bytes": count("write_matrix.bytes", 0),
            "linalg.read_matrix.bytes": count("read_matrix.bytes", 0),
            "sphere.sampled_span_incompressible.samples": count("span.samples", 0),
            "arithmetic.expected_sq_dist_to_lattice.self_us_per_call": per(
                self_s("arithmetic.expected_sq_dist_to_lattice"),
                calls("arithmetic.expected_sq_dist_to_lattice", 0), 1e6),
            "arithmetic.column_evals_per_distinct": per(
                count("esd.under_mld", 0), count("mld.distinct_columns", 0)),
            "arithmetic.mc_symmetrized_draws": count("symmetrized.draws", 0),
            "arithmetic.rlcd_estimate.radii": count("rlcd.radii", 0),
            "rounding.annulus_evaluations": (count("mld.under_report", 0)
                                             - count("report.tuple_width", 0)),
            "selection.subsets": count("select.subsets", 0),
            "selection.self_us_per_subset": per(
                self_s("selection.ri_select"), count("select.subsets", 0), 1e6),
            "trace.overhead_frac": overhead_frac,
        })
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as CSV rows name,start_ns,end_ns,parent (gzip)."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")


# -- hooks: run after the wrapped call returns, inside the enclosing span ------
def _hook_run_trials(tracer, fn, args, kwargs):
    tracer.add("run_trials.trials", _bound(fn, args, kwargs)["config"].trials)


def _hook_exact(tracer, fn, args, kwargs):
    n = _bound(fn, args, kwargs)["n"]
    tracer.add("exact.matrices", 2 ** (n * n))


def _hook_svd(tracer, fn, args, kwargs):
    shape = np.shape(args[0])
    matrices = math.prod(shape[:-2])
    tracer.add("svd.matrices", matrices)
    tracer.add("svd.bytes", 8 * shape[-2] * shape[-1] * matrices)


def _hook_read_matrix(tracer, fn, args, kwargs):
    tracer.add("read_matrix.bytes", os.path.getsize(_bound(fn, args, kwargs)["path"]))


def _hook_write_matrix(tracer, fn, args, kwargs):
    tracer.add("write_matrix.bytes", os.path.getsize(_bound(fn, args, kwargs)["path"]))


def _hook_span_incomp(tracer, fn, args, kwargs):
    tracer.add("span.samples", _bound(fn, args, kwargs)["n_samples"])


def _hook_esd(tracer, fn, args, kwargs):
    if tracer.parent_name() == "arithmetic.matrix_lattice_distance":
        tracer.add("esd.under_mld", 1)


def _hook_mld(tracer, fn, args, kwargs):
    profile = args[1] if len(args) > 1 else kwargs["profile"]
    tracer.add("mld.distinct_columns", tracer.distinct_columns(profile))
    if tracer.parent_name() == "rounding.rounding_report":
        tracer.add("mld.under_report", 1)


def _hook_rlcd(tracer, fn, args, kwargs):
    # Radii visited are the rows the call appended to the public trace list.
    # Callers that pass no list (kernel_rlcd_probe) contribute none.
    trace = _bound(fn, args, kwargs)["trace"]
    if trace is not None:
        tracer.add("rlcd.radii", len(trace))


def _hook_report(tracer, fn, args, kwargs):
    u = np.asarray(_bound(fn, args, kwargs)["u_tuple"])
    tracer.add("report.tuple_width", 1 if u.ndim == 1 else u.shape[1])


def _hook_ri_select(tracer, fn, args, kwargs):
    bound = _bound(fn, args, kwargs)
    d, l = np.shape(bound["m"])[1], bound["l"]
    if bound["mode"] == "exhaustive":
        subsets = math.comb(d, l)
    else:  # greedy: every candidate column at each step, then the final selection
        subsets = sum(d - t for t in range(l)) + 1
    tracer.add("select.subsets", subsets)


def _count_law_sample(tracer, args, kwargs):
    tracer.add("law_sample.calls", 1)
    if tracer.parent_name() == "ensembles.sample_matrix":
        tracer.add("law_sample.in_sample_matrix", 1)


def _count_symmetrized(tracer, args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    tracer.add("symmetrized.draws", 1 if size is None else math.prod(np.atleast_1d(size)))


_HOOKS = {
    "experiments.run_trials": _hook_run_trials,
    "experiments.rank_tail_exact_rademacher": _hook_exact,
    "linalg.svd": _hook_svd,
    "linalg.read_matrix": _hook_read_matrix,
    "linalg.write_matrix": _hook_write_matrix,
    "sphere.sampled_span_incompressible": _hook_span_incomp,
    "arithmetic.expected_sq_dist_to_lattice": _hook_esd,
    "arithmetic.matrix_lattice_distance": _hook_mld,
    "arithmetic.rlcd_estimate": _hook_rlcd,
    "rounding.rounding_report": _hook_report,
    "selection.ri_select": _hook_ri_select,
}
