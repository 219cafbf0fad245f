"""Smoke test: the bit-identity digest runs committed campaigns at both thread counts."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDENTITY = os.path.join(ROOT, "tests", "identity")


def test_digest_prints_one_hash_per_output_file():
    # 600 trials each through run_trials: three blocks, so --threads 2 starts a pool;
    # the second campaign draws every entry from the uniform law; the third runs the
    # denominator search on a basis file (m = 2, 8 random directions, mixed profile)
    names = ["rank-tail-mixed", "singular-tail-uniform", "rlcd-basis-file"]
    proc = subprocess.run([sys.executable, os.path.join(IDENTITY, "digest.py")]
                          + [os.path.join(IDENTITY, f"{name}.campaign") for name in names],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "rank-tail-mixed manifest.txt", "rank-tail-mixed rank-tail.ranktail.tsv",
        "rank-tail-mixed results.csv",
        "singular-tail-uniform manifest.txt", "singular-tail-uniform results.csv",
        "singular-tail-uniform singular-tail.bound.tsv",
        "singular-tail-uniform singular-tail.tail.tsv",
        "rlcd-basis-file manifest.txt", "rlcd-basis-file results.csv",
        "rlcd-basis-file rlcd.rlcd.csv", "rlcd-basis-file rlcd.threshold.tsv",
        "rlcd-basis-file rlcd.trace.tsv"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in lines)
