"""Smoke test: the bit-identity digest runs a committed campaign at both thread counts."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDENTITY = os.path.join(ROOT, "tests", "identity")


def test_digest_prints_one_hash_per_output_file():
    # 600 trials through run_trials: three blocks, so --threads 2 starts a pool
    proc = subprocess.run([sys.executable, os.path.join(IDENTITY, "digest.py"),
                           os.path.join(IDENTITY, "rank-tail-mixed.campaign")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "rank-tail-mixed manifest.txt", "rank-tail-mixed rank-tail.ranktail.tsv",
        "rank-tail-mixed results.csv"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in lines)
