"""Rendered output does not depend on the process that computes it.

Atoms hash by identity, so a set of atoms iterates in address order, which
PYTHONHASHSEED does not fix.  One CLI `batch` over the catalog (check with
certificate search, certify with the catalog certificates, every bracket
pair, structure constants and the chiral Backlund seeds) runs in two fresh
interpreters with different hash seeds; one of them first builds unrelated
atoms, so that the atoms of the batch sit at other addresses.  Their stdout
must agree byte for byte.
"""
from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from jetsym import catalog
from jetsym.printing import render_operator

from helpers import catalog_fixtures

SRC = Path(__file__).resolve().parent.parent / "src"

BT_SEEDS = ("M", "g_x", "inv(g)*g_x", "x*inv(g)*g_t - t*inv(g)*g_x",
            "comm(X, M)")

RUN = """
import sys
from jetsym import cli
from jetsym.core import Base, Dependent, Jet, Sym
if sys.argv[2] == "clutter":
    keep = [Jet(Dependent(f"w{i}"), (i % 3,) * (i % 4)) for i in range(300)]
    keep += [Sym(f"s{i}") for i in range(300)]
    keep += [Base(f"b{i}", bool(i % 2), (0,) * (i % 3)) for i in range(300)]
sys.argv = ["jetsym", "batch", sys.argv[1]]
cli.run()
"""


def batch_lines() -> list[str]:
    lines = []
    for name in catalog.CATALOG_NAMES:
        entry = catalog.get_pde(name)
        names = [c.name for c in entry.characteristics]
        certificates = catalog_fixtures(entry).certificates
        for c in entry.characteristics:
            lines.append(f"--json --pde {name} check --q {c.name}")
            if c.name in certificates:
                lhat = render_operator(certificates[c.name], entry.problem)
                lines.append(f'--pde {name} certify --q {c.name} '
                             f'--lhat "{lhat}"')
        for a, b in combinations(names, 2):
            lines.append(f"--pde {name} bracket --q1 {a} --q2 {b}")
        if entry.structure_basis:
            lines.append(f"--json --pde {name} structconsts")
    for phi in BT_SEEDS:
        lines.append(f'--json --pde chiral bt-apply --phi "{phi}"')
    return lines


def _run(path: Path, hash_seed: str, mode: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(
               [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", RUN, str(path), mode],
                          capture_output=True, env=env, timeout=300)


def test_batch_output_is_the_same_in_two_processes(tmp_path):
    path = tmp_path / "catalog.batch"
    path.write_text("\n".join(batch_lines()) + "\n")
    first = _run(path, "0", "plain")
    second = _run(path, "4242", "clutter")
    assert first.stderr == b"" and second.stderr == b""
    assert first.returncode == second.returncode == 1  # the failing seeds
    assert first.stdout.count(b"\n") > 60
    assert first.stdout == second.stdout
