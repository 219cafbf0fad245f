"""rmtlab benchmark: one seeded workload per run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client in one process.  The next operation
starts only when the previous one has returned; no worker threads are started
and BLAS keeps its default thread count.  The library is imported from the
checkout's ``src/`` directory; without it the run exits with status 2.

``--trace 0`` measures the end-to-end metrics, with every time scaled to a
reference kernel timed beside it (see REFERENCE_S).  ``--trace 1`` runs one
pass of the workload untraced and then the same pass traced, checks that both
produced identical outputs, and prints the per-layer metrics.  Human-readable
lines go to stdout first; the last line is the JSON result.  A record with the
environment goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np

import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("cli", "experiments", "ensembles", "linalg", "sphere", "arithmetic",
           "rounding", "selection")

# Gated end-to-end metrics: every workload reports each of them (BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Printed and recorded, not gated: each exists on some workloads only.
WORKLOAD_METRICS = {
    "mc-small": (("trials_per_s", "matrices/s"),),
    "mc-wide": (("trials_per_s", "matrices/s"),),
    "exact-oracles": (("oracle_s", "s"),),
}
# On a shared VM the same code runs 20 to 50% slower for seconds at a time, and
# a fixed reference kernel slows by the same share.  Every reported time is
# therefore scaled by REFERENCE_S / (mean kernel time just before and after
# it): the time it takes on a machine where the kernel takes REFERENCE_S.  Raw
# wall times are printed and recorded beside the scaled ones.
REFERENCE_S = 0.004
SETUP_REPS = 11       # timed set-ups, after one discarded warm-up set-up
ORACLE_REPS = 3       # exact-oracles: n = 4 oracle calls per run
MIN_TIMED_OPS = 100   # leaves at least 10 samples beyond the 90th percentile


def import_rmtlab(src: str) -> SimpleNamespace:
    """A fresh import of the rmtlab package from ``src``."""
    for name in [m for m in sys.modules if m == "rmtlab" or m.startswith("rmtlab.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    lib = SimpleNamespace(**{m: importlib.import_module(f"rmtlab.{m}") for m in MODULES})
    if not os.path.abspath(lib.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"rmtlab was imported from {lib.cli.__file__}, not {src}")
    return lib


def set_up(name: str, seed: int, work: str, tiny: bool, src: str):
    """Import, generate and parse the inputs, build the profiles, and warm up."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    lib = import_rmtlab(src)
    workload = workloads.BUILDERS[name](lib, seed, work, tiny)
    warm = np.random.default_rng(0)
    for shape in workload.svd_shapes:
        np.linalg.svd(warm.standard_normal(shape), compute_uv=False)
    lib.ensembles.uniform_scaled()  # fills the lazy psi2 cache
    return workload


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and small-numpy work."""
    t0 = time.perf_counter()
    counts: dict = {}
    total = 0
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += i * i
    a = np.ones((8, 8))
    for _ in range(300):
        a = a @ a * 0.125
    return time.perf_counter() - t0


def _scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """A time measured between two kernel runs, scaled to the reference speed."""
    return seconds * 2.0 * REFERENCE_S / (ref_before + ref_after)


def timed_set_up(name, seed, work, tiny, src, reps):
    """Set-up time over ``reps`` set-ups after a discarded cold one.

    Returns the workload, the median raw time and the median scaled time.
    """
    set_up(name, seed, work, tiny, src)
    times, scaled = [], []
    for _ in range(reps):
        gc.collect()
        before = reference_kernel()
        t0 = time.perf_counter()
        workload = set_up(name, seed, work, tiny, src)
        times.append(time.perf_counter() - t0)
        scaled.append(_scale(times[-1], before, reference_kernel()))
    return workload, statistics.median(times), statistics.median(scaled)


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def run(self, op):
        """Call and check one operation; returns (seconds, output or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising operation is a failed operation
            elapsed = time.perf_counter() - t0
            self.failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = time.perf_counter() - t0
        self.judge(op.label, op.check, out)
        return elapsed, out

    def judge(self, label, check, out) -> None:
        try:
            problem = check(out)
        except Exception as exc:  # an unreadable output fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{label}: {problem}")

    def extra(self, label, fn) -> None:
        """A check that is itself a program call, such as a manifest replay."""
        self.attempted += 1
        self.judge(label, lambda _: fn(), None)

    @property
    def failed(self) -> int:
        return len(self.failures)


def bracketed_pass(ops, tally: Tally) -> tuple:
    """One pass, each operation between two kernel runs.

    Returns raw latencies, scaled latencies, outputs and kernel times.
    """
    raw, scaled, outs, refs = [], [], [], [reference_kernel()]
    for op in ops:
        elapsed, out = tally.run(op)
        refs.append(reference_kernel())
        raw.append(elapsed)
        scaled.append(_scale(elapsed, refs[-2], refs[-1]))
        outs.append(out)
    return raw, scaled, outs, refs


def _pass_stats(passes, trials: int) -> dict:
    """Per-pass throughputs and percentiles, each reported as its median over passes."""
    every = [t for lat in passes for t in lat]
    p90 = statistics.median(float(np.percentile(lat, 90)) for lat in passes)
    return {"ops_per_s": statistics.median(len(lat) / sum(lat) for lat in passes),
            "trials_per_s": statistics.median(trials / sum(lat) for lat in passes),
            "op_p50_ms": 1e3 * statistics.median(statistics.median(lat) for lat in passes),
            "op_p90_ms": 1e3 * p90, "beyond_p90": sum(1 for t in every if t > p90)}


def timed_loop(ops, seconds: float, min_ops: int, tally: Tally) -> dict:
    """Whole passes over ``ops`` until ``seconds`` have passed and ``min_ops`` ran.

    Stopping only at the end of a pass keeps the mix of operation kinds the
    same in every run.  The reference kernel runs before and after every
    operation, and each latency is scaled by the mean of the two.  Each metric
    is computed per pass and the median over passes is reported, so a burst
    of load that slows a few passes moves it little.
    """
    passes, scaled, refs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(passes) * len(ops) < min_ops or time.perf_counter() < deadline:
        raw, fair, _, ref = bracketed_pass(ops, tally)
        passes.append(raw)
        scaled.append(fair)
        refs += ref
    trials = sum(op.trials for op in ops)
    return dict(_pass_stats(scaled, trials), raw=_pass_stats(passes, trials),
                ops=len(passes) * len(ops), passes=len(passes),
                reference_s=statistics.median(refs))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> str:
    """Thread count of numpy's bundled OpenBLAS, or why it is unknown."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown (no bundled OpenBLAS found)"


def commit_id(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(root, ".git", ref[5:])
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    return f"unknown ({ref[5:]} is packed)"


def source_digest(src: str) -> str:
    """sha256 over the library sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "rmtlab", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(root: str, src: str, seed: int) -> dict:
    return {"commit": commit_id(root), "source_sha256": source_digest(src),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "workload_seed": seed}


def snapshot(work: str) -> dict:
    """Every file under the work directory, by relative path, as bytes."""
    files = {}
    for base, _, names in os.walk(work):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, work)] = fh.read()
    return files


def fingerprint(obj) -> str:
    """Exact text form of an operation's output, for traced/untraced comparison."""
    if isinstance(obj, np.ndarray):
        return f"nd{obj.dtype}{obj.shape}{obj.tobytes().hex()}"
    if isinstance(obj, float):
        return float(obj).hex()
    if hasattr(obj, "__dataclass_fields__"):
        return type(obj).__name__ + fingerprint([getattr(obj, f) for f in obj.__dataclass_fields__])
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(fingerprint(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k!r}:{fingerprint(v)}" for k, v in obj.items()) + "}"
    return repr(obj)


def measure(workload, seconds: float, tiny: bool, tally: Tally) -> dict:
    """End-to-end metrics of one untraced run (set-up time is added by the caller)."""
    stats = timed_loop(workload.ops, seconds, len(workload.ops) if tiny else MIN_TIMED_OPS,
                       tally)
    if workload.oracle is not None:
        times, scaled = [], []
        for _ in range(1 if tiny else ORACLE_REPS):
            before = reference_kernel()
            times.append(tally.run(workload.oracle)[0])
            scaled.append(_scale(times[-1], before, reference_kernel()))
        stats["raw"]["oracle_s"] = statistics.median(times)
        stats["oracle_s"] = statistics.median(scaled)
    tally.extra("manifest replay", workload.replay)
    return stats


def traced(workload, work: str, tally: Tally) -> tuple[dict, tracing.Tracer, int]:
    """A warm-up pass, then one untraced and one traced pass of the same operations.

    Returns the per-layer metrics, the tracer, and the summed root-span time
    in nanoseconds.  Differences between the passes count as failures.
    """
    for op in workload.ops:  # discarded pass: creates output directories, fills caches
        tally.run(op)
    ops = list(workload.ops) + ([workload.oracle] if workload.oracle else [])
    _, plain, outs, _ = bracketed_pass(ops, tally)
    plain_out = [fingerprint(out) for out in outs]
    files_plain = snapshot(work)

    tr = tracing.Tracer()
    roots = []

    def rooted(op):
        def call():
            idx = tr.open(tracing.ROOT, tracing.clock())
            try:
                return op.call()
            finally:
                roots.append(tr.close(idx, tracing.clock()))
        return workloads.Op(op.label, call, op.check)

    tr.install()
    try:
        _, traced_times, outs, _ = bracketed_pass([rooted(op) for op in ops], tally)
    finally:
        tr.uninstall()
    traced_out = [fingerprint(out) for out in outs]
    files_traced = snapshot(work)

    problems = []
    if traced_out != plain_out:
        diff = [op.label for op, a, b in zip(ops, plain_out, traced_out) if a != b]
        problems.append(f"traced outputs differ from untraced ones: {diff}")
    if files_traced != files_plain:
        diff = sorted(k for k in files_plain.keys() | files_traced.keys()
                      if files_plain.get(k) != files_traced.get(k))
        problems.append(f"traced output files differ from untraced ones: {diff}")
    if tr.total_self_ns() != sum(roots):
        problems.append(f"span self times sum to {tr.total_self_ns()} ns, "
                        f"root spans to {sum(roots)} ns")
    for problem in problems:
        tally.attempted += 1
        tally.failures.append(problem)
    tally.extra("manifest replay", workload.replay)
    overhead = sum(traced_times) / sum(plain) - 1.0
    return tr.layer_metrics(overhead), tr, sum(roots)


def _number(v):
    return v.item() if isinstance(v, np.generic) else v


def _traced_record(workload, work: str, tally: Tally, spans_path: str) -> dict:
    layer, tr, root_ns = traced(workload, work, tally)
    labels = [op.label for op in workload.ops] + (
        [workload.oracle.label] if workload.oracle else [])
    by_op: dict = {}
    for label, spans in zip(labels, tr.self_ns_by_root()):
        entry = by_op.setdefault(label, {})
        for span, ns in spans.items():
            entry[span] = entry.get(span, 0.0) + ns / 1e9
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tr.write_spans(spans_path)
    return {"metrics": {k: {"value": _number(layer[k]), "unit": u}
                        for k, u in tracing.LAYER_METRICS},
            "traced_op_s": root_ns / 1e9, "self_s_sum": tr.total_self_ns() / 1e9,
            "self_s_by_span": {k: v / 1e9 for k, v in sorted(tr.self_ns.items())},
            "calls_by_span": dict(sorted(tr.calls.items())), "self_s_by_op": by_op}


def _timed_record(name: str, workload, seconds: float, tiny: bool, tally: Tally,
                  setup: tuple) -> dict:
    stats = measure(workload, seconds, tiny, tally)
    stats["raw"]["setup_s"], stats["setup_s"] = setup
    stats["peak_rss_mb"] = stats["raw"]["peak_rss_mb"] = peak_rss_mb()
    shown = END_TO_END + WORKLOAD_METRICS.get(name, ())
    return {"metrics": {k: {"value": stats[k], "unit": u} for k, u in END_TO_END},
            "workload_metrics": {k: {"value": stats[k], "unit": u}
                                 for k, u in WORKLOAD_METRICS.get(name, ())},
            "raw_metrics": {k: {"value": stats["raw"][k], "unit": u} for k, u in shown},
            "reference_s": stats["reference_s"], "timed_ops": stats["ops"],
            "passes": stats["passes"], "beyond_p90": stats["beyond_p90"]}


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, root: str = ROOT,
                  tiny: bool = False, out_dir: str | None = None) -> dict:
    """Run one workload and return its result record (the JSON line plus context).

    ``tiny`` shrinks every operation for the benchmark's own tests.
    """
    src = os.path.join(root, "src")
    work_root = os.path.join(root, ".perfbench_work")
    work = os.path.join(work_root, f"{name}-{seed}-{os.getpid()}")
    out_dir = out_dir or os.path.join(root, ".perfbench_out")
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(root, src, seed)}
    tally = Tally()
    try:
        with warnings.catch_warnings():
            # ExperimentConfig warns for k < log(n), which the k = 1 campaigns ask for.
            warnings.filterwarnings("ignore", message=r"k = \d+ is below log\(n\)")
            workload, *setup = timed_set_up(name, seed, work, tiny, src,
                                            1 if tiny else SETUP_REPS)
            if trace:
                record.update(_traced_record(workload, work, tally, stem + ".spans.csv.gz"))
            else:
                record.update(_timed_record(name, workload, seconds, tiny, tally, setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)
    record.update({"attempted": tally.attempted, "failed": tally.failed,
                   "failed_frac": tally.failed / tally.attempted,
                   "failures": tally.failures[:20]})
    os.makedirs(out_dir, exist_ok=True)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report_lines(rec: dict) -> list:
    """Human-readable lines: the environment, every metric with its unit, failures."""
    env = rec["environment"]
    lines = [f"perfbench {rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
             + " ".join(f"{k}={v}" for k, v in env.items())]
    shown = dict(rec["metrics"], **rec.get("workload_metrics", {}))
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in shown.items()]
    lines.append(f"  failed_frac = {rec['failed_frac']:.6g} ratio "
                 f"({rec['failed']} failed of {rec['attempted']} attempted)")
    if rec["trace"]:
        lines.append(f"  span self times sum to {rec['self_s_sum']:.9f} s; traced operations "
                     f"took {rec['traced_op_s']:.9f} s")
    else:
        lines.append(f"  op_p90_ms from {rec['timed_ops']} timed operations in {rec['passes']} "
                     f"passes, {rec['beyond_p90']} beyond the 90th percentile")
        lines.append(f"  times above are scaled to a {REFERENCE_S * 1e3:g} ms reference kernel, "
                     f"which took {rec['reference_s'] * 1e3:.4g} ms in this run; raw:")
        lines += [f"    raw {name} = {m['value']:.6g} {m['unit']}"
                  for name, m in rec["raw_metrics"].items()]
    lines += [f"  FAILED {failure}" for failure in rec["failures"]]
    return lines


def result_line(rec: dict) -> str:
    return json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": rec["metrics"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rmtlab", "__init__.py")):
        print(f"perfbench: no rmtlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    rec = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(rec):
        print(line)
    print(result_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
