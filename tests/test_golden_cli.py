"""Rendered CLI output over the catalog, compared byte for byte with the
transcript in tests/data/catalog_cli.txt: `list` and `--json list`, `check`
on every catalog characteristic in text and `--json`, the chiral `bt-apply`
success and failure seeds, and kdv's `structconsts`.

After a change that is meant to alter rendered output, regenerate the
transcript from the repository root with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/data/catalog_cli.txt

and review the diff."""
from __future__ import annotations

import shlex
import sys
from pathlib import Path

from jetsym import catalog

from helpers import invoke

GOLDEN = Path(__file__).parent / "data" / "catalog_cli.txt"

BT_SEEDS = ("M", "g_x", "x*inv(g)*g_t - t*inv(g)*g_x", "comm(X, M)")


def invocations() -> list[list[str]]:
    out = [["list"], ["--json", "list"]]
    for name in catalog.CATALOG_NAMES:
        for c in catalog.get_pde(name).characteristics:
            out += [["--pde", name, "check", "--q", c.name],
                    ["--json", "--pde", name, "check", "--q", c.name]]
    for phi in BT_SEEDS:
        out += [["--pde", "chiral", "bt-apply", "--phi", phi],
                ["--json", "--pde", "chiral", "bt-apply", "--phi", phi]]
    out += [["--pde", "kdv", "structconsts"],
            ["--json", "--pde", "kdv", "structconsts"]]
    return out


def transcript() -> str:
    """Each invocation's command line, its stdout and its exit status."""
    parts = []
    for args in invocations():
        result = invoke(*args)
        parts.append(f"$ jetsym {shlex.join(args)}\n{result.stdout}"
                     f"[exit {result.code}]\n")
    return "".join(parts)


def test_catalog_cli_output_matches_the_transcript(monkeypatch):
    monkeypatch.setattr(catalog, "_cache", {})  # entries no test has touched
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(transcript())
