#!/usr/bin/env python3
# Campaign files: declarative experiment runs with byte-exact reruns.
#
# A campaign is a tiny key = value file.  Running one writes a results
# table plus a normalized manifest; running the manifest reproduces the
# results byte for byte, whatever machine or thread count.

import os
import tempfile
from pathlib import Path

from rmtlab.cli import main

CAMPAIGN = """\
# rank deficiency of random sign matrices, small scale
kind = rank-tail
id = demo
seed = 2024
n = 3
k = 2
trials = 20000
profile = rademacher
"""

with tempfile.TemporaryDirectory() as work:
    cfg = os.path.join(work, "demo.campaign")
    with open(cfg, "w") as fh:
        fh.write(CAMPAIGN)

    first = os.path.join(work, "first")
    second = os.path.join(work, "second")
    main(["rank-tail", "--config", cfg, "--out", first])

    print("\nfiles written:")
    for name in sorted(os.listdir(first)):
        print(f"  {name}")

    with open(os.path.join(first, "results.csv")) as fh:
        print("\nresults.csv:")
        print(fh.read().strip())

    # the manifest is itself a campaign file; rerunning it reproduces
    # every output exactly
    main(["rank-tail", "--config", os.path.join(first, "manifest.txt"),
          "--out", second])
    same = all(Path(first, n).read_bytes() == Path(second, n).read_bytes()
               for n in sorted(os.listdir(first)))
    print(f"\nmanifest rerun byte-identical: {same}")
