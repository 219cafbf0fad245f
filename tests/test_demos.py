"""Smoke test: the fast demos run to completion against the installed package."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_entry_laws.py", "02_sphere_decomposition.py",
                                  "03_lattice_arithmetic.py", "04_randomized_rounding.py",
                                  "05_restricted_invertibility.py", "06_rank_tails.py",
                                  "07_singular_value_tails.py", "08_campaign_files.py"])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
