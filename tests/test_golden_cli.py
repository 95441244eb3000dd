"""Rendered CLI output over the catalog, compared byte for byte with the
transcript in tests/data/catalog_cli.txt: `list` and `--json list`, `check`
on every catalog characteristic in text and `--json`, the chiral `bt-apply`
success and failure seeds, and in text and `--json` every other command on
a catalog entry: `parse`, `reduce`, `bracket`, `certify` with a catalog
certificate and with a wrong one, `check --phi`, kdv's and chiral's
`structconsts`, and `structconsts --basis` on an independent and a
dependent basis; and `check`, `reduce` and `parse` on custom declarations
(constants, a base function, sin(u), a multi-letter coordinate), whose
answers carry fractional and negative coefficients.  An invocation's stderr, when it writes any, is recorded
after its stdout.

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

# a custom PDE with declared constants, a base function and sin(u), whose
# answers carry fractional and negative coefficients and base partials
CUSTOM = ["--constants", "a,b", "--basefuncs", "f",
          "--f", "u_t - a*u_xx - f*u_x + 1/2*sin(u)",
          "--solved", "u_t = a*u_xx + f*u_x - 1/2*sin(u)"]

COMMANDS = (
    ["--pde", "kdv", "parse", "u_x*u + 2*u*u_x"],
    ["--pde", "chiral", "parse", "comm(X, M) + inv(g)*g_x*inv(g)"],
    ["--pde", "kdv", "reduce", "u_tx"],
    ["--pde", "chiral", "reduce", "g_tt*X"],
    ["--pde", "kdv", "bracket", "--q1", "q2", "--q2", "q3"],
    ["--pde", "chiral", "bracket", "--q1", "phi1", "--q2", "phi3"],
    ["--pde", "kdv", "certify", "--q", "q4",
     "--lhat", "5*F + x*D_x*F + 3*t*D_t*F"],
    ["--pde", "kdv", "certify", "--q", "q3", "--lhat", "D_x*F"],
    ["--pde", "chiral", "certify", "--phi", "M", "--lhat", "F*M - M*F"],
    ["--pde", "chiral", "check", "--phi", "x*inv(g)*g_x + t*inv(g)*g_t"],
    ["--pde", "chiral", "check", "--phi", "g_x"],
    ["--pde", "chiral", "structconsts"],
    ["--pde", "kdv", "structconsts", "--basis", "q1,q2"],
    ["--pde", "kdv", "structconsts", "--basis", "q1,q1"],
    [*CUSTOM, "check", "--q", "u_x - 2/3*b*u"],
    [*CUSTOM, "reduce", "u_tx - 1/2*b*u_t*u_t"],
    ["--constants", "a", "--f", "u_t - a*u_xx", "--solved", "u_t = a*u_xx",
     "check", "--q", "-1/2*u + 2*u_x"],
    ["--coords", "x1,t", "--invertible", "--constants", "a", "--basefuncs",
     "f", "parse", "-u*D(f, x1) - 1/2*a*sin(u) + 3*D(u, x1)*inv(u)*inv(u)"
     " - exp(u_t) - 2*t*u"],
)


def invocations() -> list[list[str]]:
    out = [["list"], ["--json", "list"]]
    for name in catalog.CATALOG_NAMES:
        for c in catalog.get_pde(name).characteristics:
            out += [["--pde", name, "check", "--q", c.name],
                    ["--json", "--pde", name, "check", "--q", c.name]]
    for phi in BT_SEEDS:
        out += [["--pde", "chiral", "bt-apply", "--phi", phi],
                ["--json", "--pde", "chiral", "bt-apply", "--phi", phi]]
    for args in (["--pde", "kdv", "structconsts"], *COMMANDS):
        out += [args, ["--json", *args]]
    return out


def transcript() -> str:
    """Each invocation's command line, its stdout, its stderr (each line
    marked `stderr: `) and its exit status."""
    parts = []
    for args in invocations():
        result = invoke(*args)
        err = "".join(f"stderr: {line}\n"
                      for line in result.stderr.splitlines())
        parts.append(f"$ jetsym {shlex.join(args)}\n{result.stdout}{err}"
                     f"[exit {result.code}]\n")
    return "".join(parts)


def test_catalog_cli_output_matches_the_transcript():
    catalog.get_pde.cache_clear()  # entries no test has touched
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(transcript())
