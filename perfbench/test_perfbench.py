"""The benchmark's own tests: run with ``python3 -m pytest perfbench``.

Every workload runs at tiny size, so the whole file takes well under a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = sorted(workloads.BUILDERS)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_pass_prints_every_metric_with_unit(name, trace, tmp_path):
    rec = run.run_benchmark(name, 5, 0.05, bool(trace), tiny=True, out_dir=str(tmp_path))
    lines = run.report_lines(rec)
    result = json.loads(run.result_line(rec))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, rec["failures"]
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    printed = list(spec)
    if not trace:
        printed += [{"name": k, "unit": u} for k, u in run.WORKLOAD_METRICS.get(name, ())]
    for m in printed:
        assert any(line.startswith(f"  {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("  failed_frac = ") for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    env = json.load(open(tmp_path / f"{name}-seed5-trace{trace}.json"))["environment"]
    assert {"commit", "python", "numpy", "nproc", "blas_threads", "workload_seed"} <= set(env)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(name, tmp_path):
    first = run.run_benchmark(name, 9, 0.05, True, tiny=True, out_dir=str(tmp_path))
    second = run.run_benchmark(name, 9, 0.05, True, tiny=True, out_dir=str(tmp_path))
    assert first["failed"] == 0 and second["failed"] == 0, first["failures"] + second["failures"]
    for rec in (first, second):
        assert rec["self_s_sum"] == rec["traced_op_s"]
    counts = [k for k, unit in tracer.LAYER_METRICS if unit in ("count", "B")]
    assert counts
    assert ({k: first["metrics"][k]["value"] for k in counts}
            == {k: second["metrics"][k]["value"] for k in counts})
    assert first["calls_by_span"] == second["calls_by_span"]


@pytest.mark.filterwarnings("ignore:k = 1 is below log")
def test_corrupted_estimate_counts_as_failed(tmp_path):
    lib = run.import_rmtlab(os.path.join(ROOT, "src"))
    wl = workloads.build_mc_small(lib, 3, str(tmp_path), tiny=False)
    target = next(op for op in wl.ops if op.label.endswith(".rank-tail.n3"))
    out_dir = str(tmp_path / target.label)
    p0 = workloads.A046747[3] / 2 ** 9

    def corrupted():
        status = target.call()
        path = os.path.join(out_dir, "results.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        cells = lines[1].split(",")  # the k = 1 row
        trials = int(cells[6])
        shifted = float(cells[4]) + 10.0 * math.sqrt(p0 * (1.0 - p0) / trials)
        cells[4] = repr(shifted)
        cells[5] = repr(math.sqrt(shifted * (1.0 - shifted) / trials))  # stderr stays consistent
        lines[1] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return status

    bad = workloads.Op(target.label, corrupted, target.check, target.trials)
    tally = run.Tally()
    run.timed_loop([target, bad, target], 0.0, 3, tally)
    assert tally.attempted == 3 and tally.failed == 1
    assert "A046747" in tally.failures[0]


def test_raising_operation_counts_as_failed():
    tally = run.Tally()
    run.timed_loop([workloads.Op("boom", lambda: 1 / 0, lambda out: None)], 0.0, 2, tally)
    assert tally.attempted == 2 and tally.failed == 2


def test_independent_rank_oracle_matches_a046747():
    for n in (1, 2, 3):
        counts = workloads._sign_matrix_rank_counts(n)
        assert counts[:n].sum() == workloads.A046747[n]
        assert counts.sum() == 2 ** (n * n)


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
