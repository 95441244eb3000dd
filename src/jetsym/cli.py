"""Command-line front end.

Exit status: 0 on Symmetry/success, 1 on NotSymmetry (or a failed
certificate / unintegrable seed), 2 on error.  `--json` switches every
command to a single deterministic JSON document on stdout.  An answer the
engine computes as a normal form (check, reduce, parse, bracket, bt-apply)
is printed straight from it (`printing.render_nf`), with no tree built.
"""
from __future__ import annotations

import argparse
import json
import shlex
import sys
from typing import Callable, Iterable, Iterator

from .core import Dependent, JetsymError, Problem
from .calculus import Characteristic, bracket_nf
from .catalog import CATALOG_NAMES, get_pde, load_catalog
from .normalize import nf
from .parsing import parse_expr, parse_operator
from .printing import pretty_nf, render, render_nf, render_operator
from .symmetry import (certify_operator, check_symmetry, make_pde,
                       reduce_nf, structure_constants)
from .backlund import _phi_q, bt_apply, bt_seed_check


class UsageError(JetsymError):
    """A command line the CLI cannot read (exit 2, as every JetsymError)."""


class Session:
    """A problem + PDE resolved from the catalog or from declaration flags."""

    def __init__(self, entry=None, problem=None, pde=None):
        self.entry = entry
        self.problem = problem if problem is not None else entry.problem
        self.pde = pde if pde is not None else (entry.pde if entry else None)

    def characteristic(self, text: str, name: str = "Q") -> Characteristic:
        if self.entry is not None:
            for c in self.entry.characteristics:
                if c.name == text:
                    return c.q
        return Characteristic(name, parse_expr(text, self.problem),
                              self.problem.dependent)

    def question(self, q: str | None, phi: str | None) -> Characteristic:
        """The characteristic of exactly one of --q / --phi (Q = g*Phi)."""
        if (q is None) == (phi is None):
            raise UsageError("pass exactly one of --q / --phi")
        if phi is None:
            return self.characteristic(q)
        return _phi_q(parse_expr(phi, self.problem), self.problem)


def _emit(args, text_lines: Callable[[], Iterable[str]], **fields):
    """Print the JSON document of fields, or else the lines text_lines makes
    (only text is pretty-printed), flushed to keep order with batch errors."""
    doc = {"command": args.command, "inputs": {}, "verdict": None,
           "remainder": None, "certificate": None, "values": {}, **fields}
    for line in [json.dumps(doc, sort_keys=True)] if args.json else text_lines():
        print(line, flush=True)


def _session(args) -> Session:
    if args.pde is not None:
        return Session(entry=get_pde(args.pde))
    dep = Dependent(args.dependent, "matrix" if args.matrix else "scalar",
                    args.invertible)
    problem = Problem(coords=args.coords.split(","), dependent=dep,
                      constants=[s for s in args.constants.split(",") if s],
                      matrices=[(s, False) for s in args.matrices.split(",") if s],
                      base_functions=[(s, dep.kind == "matrix")
                                      for s in args.basefuncs.split(",") if s])
    pde = None
    if args.f:
        if not args.solved:
            raise UsageError("--f requires --solved \"lead = rhs\"")
        lead, _, rhs = args.solved.partition("=")
        pde = make_pde("custom", parse_expr(args.f, problem),
                       parse_expr(lead.strip(), problem),
                       parse_expr(rhs.strip(), problem), problem)
    return Session(problem=problem, pde=pde)


def cmd_parse(args, sess: Session):
    """Parse an expression and print its normal form."""
    p = sess.problem
    n = nf(parse_expr(args.expression, p))
    _emit(args, lambda: [pretty_nf(n, p)],
          inputs={"expression": args.expression},
          values={"normal_form": render_nf(n, p)})


def cmd_check(args, sess: Session):
    """Check the symmetry condition D_Q F = 0 mod F."""
    pde, p = sess.pde, sess.problem
    report = check_symmetry(pde, sess.question(args.q, args.phi), p,
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


def cmd_certify(args, sess: Session):
    """Verify D_Q F = L-hat F identically."""
    pde, p = sess.pde, sess.problem
    ok = certify_operator(pde, sess.question(args.q, args.phi),
                          parse_operator(args.lhat, p), p)
    _emit(args, lambda: [f"certified: {ok}"],
          inputs={"pde": pde.name, "q": args.q, "phi": args.phi, "lhat": args.lhat},
          verdict="Certified" if ok else "NotCertified",
          certificate=args.lhat if ok else None)
    return 0 if ok else 1


def cmd_bracket(args, sess: Session):
    """Lie bracket of two characteristics."""
    p = sess.problem
    br = bracket_nf(sess.characteristic(args.q1, "Q1"),
                    sess.characteristic(args.q2, "Q2"), p)
    _emit(args, lambda: [pretty_nf(br, p)], inputs={"q1": args.q1, "q2": args.q2},
          values={"bracket": render_nf(br, p)})


def cmd_structconsts(args, sess: Session):
    """Structure constants of a symmetry basis."""
    pde, p = sess.pde, sess.problem
    if args.basis is None:
        if sess.entry is None or not sess.entry.structure_basis:
            raise UsageError("--basis required for this PDE")
        names = list(sess.entry.structure_basis)
    else:
        names = [s.strip() for s in args.basis.split(",")]
    qs = [sess.characteristic(n, n) for n in names]
    sc = structure_constants(pde, qs, p)
    entries = {f"c[{qs[i].name},{qs[j].name}]^{qs[k].name}": str(v)
               for (i, j, k), v in sc.c.items()}
    lines = [f"basis: {', '.join(q.name for q in qs)}"]
    lines += [f"{k} = {v}" for k, v in sorted(entries.items())] or ["all zero"]
    _emit(args, lambda: lines, inputs={"pde": pde.name, "basis": names},
          values={"nonzero": entries})


def cmd_reduce(args, sess: Session):
    """Reduce an expression mod the PDE's solved form."""
    pde, p = sess.pde, sess.problem
    out = reduce_nf(nf(parse_expr(args.expression, p)), pde, p)
    _emit(args, lambda: [pretty_nf(out, p)],
          inputs={"pde": pde.name, "expression": args.expression},
          remainder=render_nf(out, p))


def cmd_bt_apply(args, sess: Session):
    """Integrate the chiral Backlund transformation for a new symmetry."""
    pde, p = sess.pde, sess.problem
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
    phi_prime, q_prime = nf(out), nf(_phi_q(out, p).q)
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
                yield (f"  {c.name}: Q = {render(c.q.q, e.problem)}" +
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
    "--coords": {"default": "x,t", "help": "comma-separated coordinates"},
    "--dependent": {"default": "u", "help": "dependent variable name"},
    "--matrix": {"action": "store_true", "help": "dependent is matrix-valued"},
    "--invertible": {"action": "store_true", "help": "dependent is invertible"},
    "--constants": {"default": "", "help": "comma-separated opaque constants"},
    "--matrices": {"default": "", "help": "comma-separated constant matrices"},
    "--basefuncs": {"default": "", "help": "comma-separated base functions"},
    "--f": {"help": "custom PDE expression F"},
    "--solved": {"help": 'custom solved form "lead = rhs"'},
}
PHI = {"help": "Phi-form seed: Q = g*Phi, for an invertible matrix g"}
# name -> (handler, what it needs, its options); a handler takes the parsed
# arguments and the Session that main resolves for it, None for NOTHING
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
    The command's Session, and for a PDE command its PDE, is resolved
    here, once, before the handler runs.  Raises UsageError or another
    JetsymError on error, never SystemExit."""
    # glue each value to its option, --q=-3*u_x: alone, -3*u_x reads as an option
    glued, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in TAKES_VALUE else None
        glued.append(token if value is None else f"{token}={value}")
    try:
        args = PARSER.parse_args(glued, namespace)
    except SystemExit as exc:  # only --help exits, once it has printed
        return exc.code
    handler, needs, _ = COMMANDS[args.command]
    sess = None if needs == NOTHING else _session(args)
    if needs == PDE and sess.pde is None:
        raise UsageError("this command needs --pde or --f/--solved")
    return handler(args, sess) or 0


main.main = lambda args, **_: main(args)  # click's call, kept for perfbench/client.py


def run():  # console entry point: an error is reported on stderr, exit 2
    try:
        sys.exit(main(sys.argv[1:]))
    except JetsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    run()
