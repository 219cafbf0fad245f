#!/usr/bin/env python3
"""Digest the bit-identity campaign set: one sha256 per output file.

Usage: python tests/identity/digest.py [CAMPAIGN ...]

Runs every ``*.campaign`` file beside this script (or only the ones named) with
the rmtlab of the checkout this script sits in, at ``--threads`` 1 and 2, and
prints one ``<campaign> <file> <sha256>`` line per output file.  The manifest is
hashed without its ``# generated by rmtlab <version>`` line, so two versions
that write the same bytes print the same digest.  Campaigns run from this
directory, so the matrix files they name are the committed CSVs here.

To check that a change keeps every stream, copy this directory into a checkout
of the parent commit and diff the two outputs.  Exits 1 when a campaign fails
or when the two thread counts write different bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from rmtlab.cli import main, parse_campaign  # noqa: E402


def run(path: str, out: str, threads: int) -> dict:
    """Run one campaign into ``out``; return its output files' bytes by name."""
    with open(path, encoding="utf-8") as fh:
        kind = parse_campaign(fh.read()).kind
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main([kind, "--config", path, "--out", out, "--threads", str(threads)])
    if status != 0:
        raise SystemExit(f"{os.path.basename(path)} exited {status}: {err.getvalue().strip()}")
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


def digest(name: str, data: bytes) -> str:
    if name == "manifest.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"# generated by rmtlab"))
    return hashlib.sha256(data).hexdigest()


def main_digest(argv: list) -> int:
    paths = [os.path.abspath(p) for p in argv] or sorted(
        os.path.join(HERE, name) for name in os.listdir(HERE) if name.endswith(".campaign"))
    status = 0
    os.chdir(HERE)
    with tempfile.TemporaryDirectory() as work:
        for path in paths:
            stem = os.path.basename(path).removesuffix(".campaign")
            one, two = (run(path, os.path.join(work, f"{stem}.{t}"), t) for t in (1, 2))
            if one != two:
                print(f"{stem}: --threads 1 and 2 write different files", file=sys.stderr)
                status = 1
            for name, data in one.items():
                print(f"{stem} {name} {digest(name, data)}")
    return status


if __name__ == "__main__":
    sys.exit(main_digest(sys.argv[1:]))
