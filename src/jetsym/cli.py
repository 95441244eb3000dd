"""Command-line front end.

Exit status: 0 on Symmetry/success, 1 on NotSymmetry (or a failed
certificate / unintegrable seed), 2 on error.  `--json` switches every
command to a single deterministic JSON document on stdout.  An answer the
engine computes as a normal form (check, reduce, parse, bracket, bt-apply)
is printed straight from it (`printing.render_nf`), with no tree built.
A command answers from a `catalog.CatalogEntry`: the catalog's for --pde,
which excludes the declaration flags, else one built from them, whose
comma-separated options are read by one rule (`_names`).
"""
from __future__ import annotations

import argparse
import json
import shlex
import sys
from typing import Callable, Iterable, Iterator

from .core import DeclarationError, Dependent, JetsymError, Problem
from .calculus import Characteristic, bracket_nf
from .catalog import CATALOG_NAMES, CatalogEntry, get_pde, load_catalog
from .normalize import nf
from .parsing import parse_expr, parse_operator
from .printing import (pretty_nf, render, render_nf, render_number,
                       render_operator)
from .symmetry import (certify_operator, check_symmetry, make_pde,
                       reduce_nf, structure_constants)
from .backlund import bt_apply, bt_seed_check, phi_characteristic


class UsageError(JetsymError):
    """A command line the CLI cannot read (exit 2, as every JetsymError)."""


def characteristic(entry: CatalogEntry, text: str, name="Q") -> Characteristic:
    """The entry's characteristic named text, else text parsed as Q."""
    try:
        return entry.characteristic(text)
    except DeclarationError:
        return Characteristic(name, parse_expr(text, entry.problem),
                              entry.problem.dependent)


def question(entry: CatalogEntry, q: str | None,
             phi: str | None) -> Characteristic:
    """The characteristic of exactly one of --q / --phi (Q = g*Phi)."""
    if (q is None) == (phi is None):
        raise UsageError("pass exactly one of --q / --phi")
    if phi is None:
        return characteristic(entry, q)
    return phi_characteristic(parse_expr(phi, entry.problem), entry.problem)


def _emit(args, text_lines: Callable[[], Iterable[str]], **fields):
    """Print the JSON document of fields, or else the lines text_lines makes
    (only text is pretty-printed), flushed to keep order with batch errors."""
    doc = {"command": args.command, "inputs": {}, "verdict": None,
           "remainder": None, "certificate": None, "values": {}, **fields}
    for line in [json.dumps(doc, sort_keys=True)] if args.json else text_lines():
        print(line, flush=True)


def _names(option: str, text: str | None) -> list[str]:
    """The entries of a comma-separated option (its default when None),
    each stripped: an empty entry exits 2, and an empty text is no names
    only where that is the option's default."""
    text = DEFAULTS[option] if text is None else text
    if not text and DEFAULTS.get(option) == "":
        return []
    names = [s.strip() for s in text.split(",")]
    if not all(names):
        raise UsageError(f"an entry of {option} is empty")
    return names


def _session(args) -> CatalogEntry:
    """The catalog entry of --pde, else one for the declaration flags."""
    given = [f for f in DEFAULTS if getattr(args, f[2:]) not in (None, False)]
    if args.pde is not None:
        if given:
            raise UsageError(f"--pde cannot be combined with {', '.join(given)}"
                             ": a catalog PDE declares its own problem")
        return get_pde(args.pde)
    if args.solved is not None and not args.f:
        raise UsageError("--solved requires --f")
    dep = Dependent(DEFAULTS["--dependent"] if args.dependent is None
                    else args.dependent, "matrix" if args.matrix else "scalar",
                    args.invertible)
    problem = Problem(coords=_names("--coords", args.coords), dependent=dep,
                      constants=_names("--constants", args.constants),
                      matrices=[(s, False)
                                for s in _names("--matrices", args.matrices)],
                      base_functions=[(s, dep.kind == "matrix") for s in
                                      _names("--basefuncs", args.basefuncs)])
    pde = None
    if args.f:
        if not args.solved:
            raise UsageError("--f requires --solved \"lead = rhs\"")
        sides = [s.strip() for s in args.solved.split("=")]
        if len(sides) != 2 or not all(sides):
            raise UsageError('--solved needs "lead = rhs"')
        pde = make_pde("custom", parse_expr(args.f, problem),
                       *(parse_expr(s, problem) for s in sides), problem)
    return CatalogEntry("custom", "", problem, pde, ())


def cmd_parse(args, entry: CatalogEntry):
    """Parse an expression and print its normal form."""
    p = entry.problem
    n = nf(parse_expr(args.expression, p))
    _emit(args, lambda: [pretty_nf(n, p)],
          inputs={"expression": args.expression},
          values={"normal_form": render_nf(n, p)})


def cmd_check(args, entry: CatalogEntry):
    """Check the symmetry condition D_Q F = 0 mod F."""
    pde, p = entry.pde, entry.problem
    report = check_symmetry(pde, question(entry, args.q, args.phi), p,
                            search_certificate=args.find)
    cert = (render_operator(report.certificate, p)
            if report.certificate is not None else None)
    _emit(args, lambda: [f"verdict: {report.verdict.value}",
                         f"remainder: {pretty_nf(report.remainder_nf, p)}"]
          + ([f"certificate: {cert}"] if cert is not None else []),
          inputs={"pde": pde.name, "q": args.q, "phi": args.phi},
          verdict=report.verdict.value,
          remainder=render_nf(report.remainder_nf, p), certificate=cert,
          values={"raw": render_nf(report.raw_nf, p)})
    return 0 if report.is_symmetry else 1


def cmd_certify(args, entry: CatalogEntry):
    """Verify D_Q F = L-hat F identically."""
    pde, p = entry.pde, entry.problem
    ok = certify_operator(pde, question(entry, args.q, args.phi),
                          parse_operator(args.lhat, p), p)
    _emit(args, lambda: [f"certified: {ok}"],
          inputs={"pde": pde.name, "q": args.q, "phi": args.phi, "lhat": args.lhat},
          verdict="Certified" if ok else "NotCertified",
          certificate=args.lhat if ok else None)
    return 0 if ok else 1


def cmd_bracket(args, entry: CatalogEntry):
    """Lie bracket of two characteristics."""
    p = entry.problem
    br = bracket_nf(characteristic(entry, args.q1, "Q1"),
                    characteristic(entry, args.q2, "Q2"), p)
    _emit(args, lambda: [pretty_nf(br, p)], inputs={"q1": args.q1, "q2": args.q2},
          values={"bracket": render_nf(br, p)})


def cmd_structconsts(args, entry: CatalogEntry):
    """Structure constants of a symmetry basis."""
    pde, p = entry.pde, entry.problem
    if args.basis is None:
        if not entry.structure_basis:
            raise UsageError("--basis required for this PDE")
        names = list(entry.structure_basis)
    else:
        names = _names("--basis", args.basis)
    qs = [characteristic(entry, n, n) for n in names]
    sc = structure_constants(pde, qs, p)
    entries = {f"c[{qs[i].name},{qs[j].name}]^{qs[k].name}": render_number(v)
               for (i, j, k), v in sc.c.items()}
    lines = [f"basis: {', '.join(q.name for q in qs)}"]
    lines += [f"{k} = {v}" for k, v in sorted(entries.items())] or ["all zero"]
    _emit(args, lambda: lines, inputs={"pde": pde.name, "basis": names},
          values={"nonzero": entries})


def cmd_reduce(args, entry: CatalogEntry):
    """Reduce an expression mod the PDE's solved form."""
    pde, p = entry.pde, entry.problem
    out = reduce_nf(nf(parse_expr(args.expression, p)), pde, p)
    _emit(args, lambda: [pretty_nf(out, p)],
          inputs={"pde": pde.name, "expression": args.expression},
          remainder=render_nf(out, p))


def cmd_bt_apply(args, entry: CatalogEntry):
    """Integrate the chiral Backlund transformation for a new symmetry."""
    pde, p = entry.pde, entry.problem
    phi_e = parse_expr(args.phi, p)
    out = bt_apply(phi_e, pde, p)
    if out is None:  # an image certifies its seed: check only without one
        report = bt_seed_check(phi_e, pde, p)
        verdict = "NoIntegral" if report.is_symmetry else "NotSymmetry"

        def lines() -> list[str]:
            if report.is_symmetry:
                return [f"verdict: {verdict}", "Phi satisfies the symmetry "
                        "condition, but no integral lies inside the "
                        "candidate basis (basis insufficiency)"]
            return [f"verdict: {verdict}",
                    "Phi fails the symmetry condition D_{g*Phi} F = 0 mod F",
                    f"remainder: {pretty_nf(report.remainder_nf, p)}"]

        _emit(args, lines, inputs={"pde": pde.name, "phi": args.phi},
              verdict=verdict, remainder=None if report.is_symmetry
              else render_nf(report.remainder_nf, p))
        return 1
    phi_prime, q_prime = nf(out), nf(phi_characteristic(out, p).q)
    _emit(args, lambda: [f"phi' = {pretty_nf(phi_prime, p)}",
                         f"Q' = {pretty_nf(q_prime, p)}"],
          inputs={"pde": pde.name, "phi": args.phi}, verdict="Integrated",
          values={"phi_prime": render_nf(phi_prime, p),
                  "q_prime": render_nf(q_prime, p)})


def cmd_list(args, _):
    """List the catalog."""
    cat = load_catalog()
    values = {name: {"doc": e.doc,
                     "characteristics": [c.name for c in e.characteristics]}
              for name, e in cat.items()}

    def lines() -> Iterator[str]:
        for name, e in cat.items():
            yield f"{name}: {e.doc}"
            for c in e.characteristics:
                yield (f"  {c.name}: Q = {render(c.q, e.problem)}" +
                       (f"  ({c.doc})" if c.doc else ""))

    _emit(args, lines, values=values)


def cmd_batch(args, _):
    """Run commands from a file: one CLI argument vector per line, '#'
    comments allowed; each line is parsed into a copy of this invocation's
    options, so its global flags apply unless the line gives its own.  A
    line that fails (a NotSymmetry verdict, or an error, which is reported
    on stderr) counts as a failure and the lines after it still run.  A
    line cannot run batch itself, so no file runs itself or another one
    that runs it."""
    if "batch_line" in args:
        raise UsageError("a batch file cannot run batch")
    try:
        with open(args.path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not text
        raise UsageError(f"cannot read {args.path}: {exc}") from exc
    failed = False
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            try:
                argv = shlex.split(line)
            except ValueError as exc:  # unbalanced quotes
                raise UsageError(exc) from exc
            line_args = argparse.Namespace(**vars(args), batch_line=lineno)
            failed |= main(argv, line_args) != 0
        except JetsymError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


# what a command needs resolved before its handler runs
NOTHING, PROBLEM, PDE = "nothing", "problem", "pde"
# add_argument's keywords per option; a handler returns its exit status, None for 0
GLOBAL_OPTIONS = {
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--pde": {"choices": CATALOG_NAMES, "metavar": "PDE",
              "help": f"catalog PDE ({', '.join(CATALOG_NAMES)})"},
    "--coords": {"help": "comma-separated coordinates"},
    "--dependent": {"help": "dependent variable name"},
    "--matrix": {"action": "store_true", "help": "dependent is matrix-valued"},
    "--invertible": {"action": "store_true", "help": "dependent is invertible"},
    "--constants": {"help": "comma-separated opaque constants"},
    "--matrices": {"help": "comma-separated constant matrices"},
    "--basefuncs": {"help": "comma-separated base functions"},
    "--f": {"help": "custom PDE expression F"},
    "--solved": {"help": 'custom solved form "lead = rhs"'},
}
# each declaration flag, which --pde excludes, and its value when left out
DEFAULTS = {"--coords": "x,t", "--dependent": "u", "--matrix": False,
            "--invertible": False, "--constants": "", "--matrices": "",
            "--basefuncs": "", "--f": None, "--solved": None}
PHI = {"help": "Phi-form seed: Q = g*Phi, for an invertible matrix g"}
# name -> (handler, what it needs, its options); a handler takes the parsed
# arguments and the entry that main resolves for it, None for NOTHING
COMMANDS = {
    "parse": (cmd_parse, PROBLEM, {"expression": {}}),
    "check": (cmd_check, PDE, {
        "--q": {"help": "characteristic Q (expression or catalog name)"}, "--phi": PHI,
        "--find": {"action": argparse.BooleanOptionalAction, "default": True,
                   "help": "search for an operator certificate"}}),
    "certify": (cmd_certify, PDE, {"--q": {}, "--phi": PHI, "--lhat": {
        "required": True, "help": 'operator spec, e.g. "t*D_x*F"'}}),
    "bracket": (cmd_bracket, PROBLEM,
                {"--q1": {"required": True}, "--q2": {"required": True}}),
    "structconsts": (cmd_structconsts, PDE, {"--basis": {
        "help": "comma-separated characteristics (default: catalog basis)"}}),
    "reduce": (cmd_reduce, PDE, {"expression": {}}),
    "bt-apply": (cmd_bt_apply, PDE, {"--phi": {
        "required": True, "help": "seed Phi for the Backlund system"}}),
    "list": (cmd_list, NOTHING, {}),
    "batch": (cmd_batch, NOTHING, {"path": {}}),
}
TAKES_VALUE = {flag for *_, opts in [(GLOBAL_OPTIONS,), *COMMANDS.values()]
               for flag, spec in opts.items()
               if flag[0] == "-" and "action" not in spec}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise where argparse would exit
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jetsym", allow_abbrev=False, description=(
        "Symbolic symmetry engine for (matrix-valued) jet-space PDEs."))
    for flag, spec in GLOBAL_OPTIONS.items():
        parser.add_argument(flag, **spec)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, _, options) in COMMANDS.items():
        sub = commands.add_parser(name, help=handler.__doc__.partition(".")[0],
                                  description=handler.__doc__, allow_abbrev=False)
        for flag, spec in options.items():
            sub.add_argument(flag, **spec)
    return parser


PARSER = _build_parser()


def main(argv: list[str], namespace: argparse.Namespace | None = None) -> int:
    """Run one command line (no program name) and return its exit status.
    An option the line does not give keeps its value in `namespace`, when
    given (`cmd_batch` passes a copy of its own), else takes its default.
    The command's entry, and for a PDE command its PDE, is resolved
    here, once, before the handler runs.  Raises UsageError or another
    JetsymError on error, never SystemExit."""
    # glue each value to its option, --q=-3*u_x: alone, -3*u_x reads as an
    # option; but not "--", which argparse drops from --q=--, leaving [], and
    # reports as a missing value when it stands alone
    glued, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in TAKES_VALUE else None
        glued += ([token, value] if value == "--" else
                  [token if value is None else f"{token}={value}"])
    try:
        args = PARSER.parse_args(glued, namespace)
    except SystemExit as exc:  # only --help exits, once it has printed
        return exc.code
    handler, needs, _ = COMMANDS[args.command]
    entry = None if needs == NOTHING else _session(args)
    if needs == PDE and entry.pde is None:
        raise UsageError("this command needs --pde or --f/--solved")
    return handler(args, entry) or 0


main.main = lambda args, **_: main(args)  # click's call, kept for perfbench/client.py


def run():  # console entry point: an error is reported on stderr, exit 2
    try:
        sys.exit(main(sys.argv[1:]))
    except JetsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    run()
