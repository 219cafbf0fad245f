"""The per-kind key lists of the cli docstring and the README table match _KIND_KEYS."""

import os
import re

from rmtlab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KIND_KEYS = {row: keys.split() for row, keys in cli._KIND_KEYS.items()}


def _keys(text: str, shorthand: dict) -> list:
    """Comma-separated keys with parenthetical remarks dropped and shorthands expanded."""
    keys = re.sub(r"\([^)]*\)", "", text).replace(",", " ").split()
    return [key for name in keys for key in shorthand.get(name, [name])]


def docstring_rows() -> dict:
    doc = cli.__doc__
    shorthand = {"P": re.search(r"P for ``([^`]*)``", doc).group(1).replace(",", " ").split()}
    block = doc.split("fails with its line:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for item in re.split(r"\n- ", "\n" + block.strip())[1:]:
        kind, _, rest = " ".join(item.split()).partition(": ")
        default, *branches = rest.split("; ")
        rows[kind, ""] = _keys(default, shorthand)
        for part in branches:
            if not part.startswith("with "):
                break  # a remark about the row, not a branch
            branch, _, keys = part.removeprefix("with ").partition(": ")
            rows[kind, branch] = _keys(keys, shorthand)
    return rows


def readme_rows() -> dict:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        table = fh.read().split("| kind, branch | keys |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        head, keys = line.strip("|").split("|")
        kind, *branch = re.findall(r"`([^`]+)`", head)
        rows[kind, "".join(branch)] = re.findall(r"`([^`]+)`", keys)
    return rows


def test_cli_docstring_lists_the_kind_keys():
    assert docstring_rows() == KIND_KEYS


def test_readme_table_lists_the_kind_keys():
    assert readme_rows() == KIND_KEYS
