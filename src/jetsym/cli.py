"""Command-line front end.

Exit status: 0 on Symmetry/success, 1 on NotSymmetry (or a failed
certificate / unintegrable seed), 2 on error.  `--json` switches every
command to a single deterministic JSON document on stdout.
"""
from __future__ import annotations

import argparse
import json
import shlex
import sys
from typing import Callable

from .core import (Dependent, JetsymError, Jet, Problem)
from .calculus import Characteristic, bracket_characteristic
from .catalog import CATALOG_NAMES, get_pde, load_catalog
from .normalize import normal_form
from .parsing import parse_expr, parse_operator
from .printing import pretty, render, render_operator
from .symmetry import (certify_operator, check_symmetry, make_pde,
                       reduce_mod_pde, structure_constants)
from .backlund import bt_integrate, bt_seed_check, phi_characteristic


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
        q = parse_expr(text, self.problem)
        return Characteristic(name, normal_form(q), self.problem.dependent)

    def question(self, q: str | None, phi: str | None) -> Characteristic:
        """The characteristic of exactly one of --q / --phi (Q = g*Phi)."""
        if (q is None) == (phi is None):
            raise UsageError("pass exactly one of --q / --phi")
        if phi is None:
            return self.characteristic(q)
        return phi_characteristic(parse_expr(phi, self.problem), self.problem)


def _emit(args, text_lines: Callable[[], list[str]], **fields):
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
        lead_txt, _, rhs_txt = args.solved.partition("=")
        lead = parse_expr(lead_txt.strip(), problem)
        if not isinstance(lead, Jet):
            raise UsageError("--solved left side must be a jet coordinate")
        pde = make_pde("custom", parse_expr(args.f, problem), lead,
                       parse_expr(rhs_txt.strip(), problem), problem)
    return Session(problem=problem, pde=pde)


def _need_pde(sess: Session):
    if sess.pde is None:
        raise UsageError("this command needs --pde or --f/--solved")
    return sess.pde


def cmd_parse(args):
    """Parse an expression and print its normal form."""
    sess = _session(args)
    e = normal_form(parse_expr(args.expression, sess.problem))
    _emit(args, lambda: [pretty(e, sess.problem)],
          inputs={"expression": args.expression},
          values={"normal_form": render(e, sess.problem)})


def cmd_check(args):
    """Check the symmetry condition D_Q F = 0 mod F."""
    sess = _session(args)
    pde = _need_pde(sess)
    p = sess.problem
    report = check_symmetry(pde, sess.question(args.q, args.phi), p,
                            search_certificate=args.find)
    cert = (render_operator(report.certificate, p)
            if report.certificate is not None else None)
    _emit(args, lambda: [f"verdict: {report.verdict.value}",
                         f"remainder: {pretty(report.remainder, p)}"]
          + ([f"certificate: {cert}"] if cert is not None else []),
          inputs={"pde": pde.name, "q": args.q, "phi": args.phi},
          verdict=report.verdict.value, remainder=render(report.remainder, p),
          certificate=cert, values={"raw": render(report.raw, p)})
    return 0 if report.is_symmetry else 1


def cmd_certify(args):
    """Verify D_Q F = L-hat F identically."""
    sess = _session(args)
    pde = _need_pde(sess)
    p = sess.problem
    ok = certify_operator(pde, sess.question(args.q, args.phi),
                          parse_operator(args.lhat, p), p)
    _emit(args, lambda: [f"certified: {ok}"],
          inputs={"pde": pde.name, "q": args.q, "phi": args.phi, "lhat": args.lhat},
          verdict="Certified" if ok else "NotCertified",
          certificate=args.lhat if ok else None)
    return 0 if ok else 1


def cmd_bracket(args):
    """Lie bracket of two characteristics."""
    sess = _session(args)
    p = sess.problem
    br = bracket_characteristic(sess.characteristic(args.q1, "Q1"),
                                sess.characteristic(args.q2, "Q2"), p)
    _emit(args, lambda: [pretty(br.q, p)], inputs={"q1": args.q1, "q2": args.q2},
          values={"bracket": render(br.q, p)})


def cmd_structconsts(args):
    """Structure constants of a symmetry basis."""
    sess = _session(args)
    pde = _need_pde(sess)
    p = sess.problem
    if args.basis is None:
        if sess.entry is None or not sess.entry.structure_basis:
            raise UsageError("--basis required for this PDE")
        names = list(sess.entry.structure_basis)
    else:
        names = [s.strip() for s in args.basis.split(",")]
    qs = [sess.characteristic(n, n) for n in names]
    sc = structure_constants(pde, qs, p)
    n = len(qs)
    entries = {f"c[{qs[i].name},{qs[j].name}]^{qs[k].name}": str(sc[i, j, k])
               for i in range(n) for j in range(n) for k in range(n)
               if sc[i, j, k]}
    lines = [f"basis: {', '.join(q.name for q in qs)}"]
    lines += [f"{k} = {v}" for k, v in sorted(entries.items())] or ["all zero"]
    _emit(args, lambda: lines, inputs={"pde": pde.name, "basis": names},
          values={"nonzero": entries})


def cmd_reduce(args):
    """Reduce an expression mod the PDE's solved form."""
    sess = _session(args)
    pde = _need_pde(sess)
    p = sess.problem
    out = reduce_mod_pde(parse_expr(args.expression, p), pde, p)
    _emit(args, lambda: [pretty(out, p)],
          inputs={"pde": pde.name, "expression": args.expression},
          remainder=render(out, p))


def cmd_bt_apply(args):
    """Integrate the chiral Backlund transformation for a new symmetry."""
    sess = _session(args)
    pde = _need_pde(sess)
    p = sess.problem
    phi_e = parse_expr(args.phi, p)
    out = bt_integrate(phi_e, pde, p)
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
                    f"remainder: {pretty(report.remainder, p)}"]

        _emit(args, lines, inputs={"pde": pde.name, "phi": args.phi},
              verdict=verdict, remainder=None if report.is_symmetry
              else render(report.remainder, p))
        return 1
    qprime = phi_characteristic(out, p).q
    _emit(args, lambda: [f"phi' = {pretty(out, p)}",
                         f"Q' = {pretty(qprime, p)}"],
          inputs={"pde": pde.name, "phi": args.phi}, verdict="Integrated",
          values={"phi_prime": render(out, p), "q_prime": render(qprime, p)})


def cmd_list(args):
    """List the catalog."""
    cat = load_catalog()
    values = {name: {"doc": e.doc,
                     "characteristics": [c.name for c in e.characteristics]}
              for name, e in cat.items()}
    lines = []
    for name, e in cat.items():
        lines.append(f"{name}: {e.doc}")
        for c in e.characteristics:
            q_txt = render(c.q.q, e.problem)
            lines.append(f"  {c.name}: Q = {q_txt}" +
                         (f"  ({c.doc})" if c.doc else ""))
    _emit(args, lambda: lines, values=values)


def cmd_batch(args):
    """Run commands from a file: one CLI argument vector per line, '#'
    comments allowed; global flags from this invocation apply to each.  A
    line that fails (a NotSymmetry verdict, or an error, which is reported
    on stderr) counts as a failure and the lines after it still run."""
    base = []  # this invocation's global flags, as a command line
    for flag in GLOBAL_OPTIONS:
        value = getattr(args, flag[2:])  # a flag's is a bool, an option's a str
        if value not in (None, False):
            base += [flag] if value is True else [flag, value]
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
                argv = base + shlex.split(line)
            except ValueError as exc:  # unbalanced quotes
                raise UsageError(exc) from exc
            failed |= main(argv) != 0
        except JetsymError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


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
COMMANDS = {
    "parse": (cmd_parse, {"expression": {}}),
    "check": (cmd_check, {
        "--q": {"help": "characteristic Q (expression or catalog name)"}, "--phi": PHI,
        "--find": {"action": argparse.BooleanOptionalAction, "default": True,
                   "help": "search for an operator certificate"}}),
    "certify": (cmd_certify, {"--q": {}, "--phi": PHI, "--lhat": {
        "required": True, "help": 'operator spec, e.g. "t*D_x*F"'}}),
    "bracket": (cmd_bracket, {"--q1": {"required": True}, "--q2": {"required": True}}),
    "structconsts": (cmd_structconsts, {"--basis": {
        "help": "comma-separated characteristics (default: catalog basis)"}}),
    "reduce": (cmd_reduce, {"expression": {}}),
    "bt-apply": (cmd_bt_apply, {"--phi": {
        "required": True, "help": "seed Phi for the Backlund system"}}),
    "list": (cmd_list, {}),
    "batch": (cmd_batch, {"path": {}}),
}
TAKES_VALUE = {flag for _, opts in [(None, GLOBAL_OPTIONS), *COMMANDS.values()]
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
    for name, (handler, options) in COMMANDS.items():
        sub = commands.add_parser(name, help=handler.__doc__.partition(".")[0],
                                  description=handler.__doc__, allow_abbrev=False)
        for flag, spec in options.items():
            sub.add_argument(flag, **spec)
    return parser


PARSER = _build_parser()


def main(argv: list[str]) -> int:
    """Run one command line (no program name) and return its exit status.
    Raises UsageError or another JetsymError on error, never SystemExit."""
    # glue each value to its option, --q=-3*u_x: alone, -3*u_x reads as an option
    glued, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in TAKES_VALUE else None
        glued.append(token if value is None else f"{token}={value}")
    try:
        args = PARSER.parse_args(glued)
    except SystemExit as exc:  # only --help exits, once it has printed
        return exc.code
    return COMMANDS[args.command][0](args) or 0


main.main = lambda args, **_: main(args)  # click's call, kept for perfbench/client.py


def run():  # console entry point: an error is reported on stderr, exit 2
    try:
        sys.exit(main(sys.argv[1:]))
    except JetsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    run()
