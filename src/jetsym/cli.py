"""Command-line front end.

Exit status: 0 on Symmetry/success, 1 on NotSymmetry (or a failed
certificate / unintegrable seed), 2 on error.  `--json` switches every
command to a single deterministic JSON document on stdout.
"""
from __future__ import annotations

import json
import shlex
import sys
from typing import Callable

import click

from .core import (Dependent, JetsymError, Jet, Problem)
from .calculus import Characteristic, bracket_characteristic
from .catalog import CATALOG_NAMES, get_pde, load_catalog
from .normalize import normal_form
from .parsing import parse_expr, parse_operator
from .printing import pretty, render, render_operator
from .symmetry import (certify_operator, check_symmetry, make_pde,
                       reduce_mod_pde, structure_constants)
from .backlund import bt_integrate, bt_seed_check, phi_characteristic


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
            raise click.UsageError("pass exactly one of --q / --phi")
        if phi is None:
            return self.characteristic(q)
        return phi_characteristic(parse_expr(phi, self.problem), self.problem)


def _emit(ctx, text_lines: Callable[[], list[str]], **fields):
    """Print the JSON document of fields, or else the lines that text_lines
    makes: text only is pretty-printed, so it is made only when asked for."""
    # every echo names its stream: for the default one, click caches a
    # wrapper per sys.stdout that keeps a redirected buffer alive
    if ctx.obj["json"]:
        doc = {"command": ctx.command.name, "inputs": {}, "verdict": None,
               "remainder": None, "certificate": None, "values": {}}
        click.echo(json.dumps({**doc, **fields}, sort_keys=True),
                   file=sys.stdout)
    else:
        for line in text_lines():
            click.echo(line, file=sys.stdout)


def _session(ctx) -> Session:
    opts = ctx.obj
    if opts["pde"] in CATALOG_NAMES:
        return Session(entry=get_pde(opts["pde"]))
    if opts["pde"] is not None:
        raise click.UsageError(
            f"unknown catalog PDE {opts['pde']!r}; for a custom PDE pass "
            "--coords/--dependent/--f/--solved instead")
    dep = Dependent(opts["dependent"], "matrix" if opts["matrix"] else "scalar",
                    opts["invertible"])
    problem = Problem(coords=opts["coords"].split(","), dependent=dep,
                      constants=[s for s in opts["constants"].split(",") if s],
                      matrices=[(s, False) for s in opts["matrices"].split(",") if s],
                      base_functions=[(s, dep.kind == "matrix")
                                      for s in opts["basefuncs"].split(",") if s])
    pde = None
    if opts["f"]:
        if not opts["solved"]:
            raise click.UsageError("--f requires --solved \"lead = rhs\"")
        lead_txt, _, rhs_txt = opts["solved"].partition("=")
        lead = parse_expr(lead_txt.strip(), problem)
        if not isinstance(lead, Jet):
            raise click.UsageError("--solved left side must be a jet coordinate")
        pde = make_pde("custom", parse_expr(opts["f"], problem), lead,
                       parse_expr(rhs_txt.strip(), problem), problem)
    return Session(problem=problem, pde=pde)


def _need_pde(sess: Session):
    if sess.pde is None:
        raise click.UsageError("this command needs --pde or --f/--solved")
    return sess.pde


@click.group()
@click.option("--json", "json_out", is_flag=True, help="machine-readable output")
@click.option("--pde", default=None, help=f"catalog PDE ({', '.join(CATALOG_NAMES)})")
@click.option("--coords", default="x,t", help="comma-separated coordinates")
@click.option("--dependent", default="u", help="dependent variable name")
@click.option("--matrix", is_flag=True, help="dependent is matrix-valued")
@click.option("--invertible", is_flag=True, help="dependent is invertible")
@click.option("--constants", default="", help="comma-separated opaque constants")
@click.option("--matrices", default="", help="comma-separated constant matrices")
@click.option("--basefuncs", default="", help="comma-separated base functions")
@click.option("--f", default=None, help="custom PDE expression F")
@click.option("--solved", default=None, help='custom solved form "lead = rhs"')
@click.pass_context
def main(ctx, json_out, **opts):
    """Symbolic symmetry engine for (matrix-valued) jet-space PDEs."""
    ctx.ensure_object(dict)
    ctx.obj = dict(opts)
    ctx.obj["json"] = json_out


@main.command("parse")
@click.argument("expression")
@click.pass_context
def cmd_parse(ctx, expression):
    """Parse an expression and print its normal form."""
    sess = _session(ctx)
    e = normal_form(parse_expr(expression, sess.problem))
    _emit(ctx, lambda: [pretty(e, sess.problem)],
          inputs={"expression": expression},
          values={"normal_form": render(e, sess.problem)})


@main.command("check")
@click.option("--q", default=None, help="characteristic Q (expression or catalog name)")
@click.option("--phi", default=None,
              help="Phi-form seed: Q = g*Phi, for an invertible matrix g")
@click.option("--find/--no-find", "find", default=True,
              help="search for an operator certificate")
@click.pass_context
def cmd_check(ctx, q, phi, find):
    """Check the symmetry condition D_Q F = 0 mod F."""
    sess = _session(ctx)
    pde = _need_pde(sess)
    p = sess.problem
    report = check_symmetry(pde, sess.question(q, phi), p,
                            search_certificate=find)
    cert = (render_operator(report.certificate, p)
            if report.certificate is not None else None)
    _emit(ctx, lambda: [f"verdict: {report.verdict.value}",
                        f"remainder: {pretty(report.remainder, p)}"]
          + ([f"certificate: {cert}"] if cert is not None else []),
          inputs={"pde": pde.name, "q": q, "phi": phi},
          verdict=report.verdict.value, remainder=render(report.remainder, p),
          certificate=cert, values={"raw": render(report.raw, p)})
    ctx.exit(0 if report.is_symmetry else 1)


@main.command("certify")
@click.option("--q", required=False, default=None)
@click.option("--phi", default=None,
              help="Phi-form seed: Q = g*Phi, for an invertible matrix g")
@click.option("--lhat", required=True, help='operator spec, e.g. "t*D_x*F"')
@click.pass_context
def cmd_certify(ctx, q, phi, lhat):
    """Verify D_Q F = L-hat F identically."""
    sess = _session(ctx)
    pde = _need_pde(sess)
    p = sess.problem
    ok = certify_operator(pde, sess.question(q, phi),
                          parse_operator(lhat, p), p)
    _emit(ctx, lambda: [f"certified: {ok}"],
          inputs={"pde": pde.name, "q": q, "phi": phi, "lhat": lhat},
          verdict="Certified" if ok else "NotCertified",
          certificate=lhat if ok else None)
    ctx.exit(0 if ok else 1)


@main.command("bracket")
@click.option("--q1", required=True)
@click.option("--q2", required=True)
@click.pass_context
def cmd_bracket(ctx, q1, q2):
    """Lie bracket of two characteristics."""
    sess = _session(ctx)
    p = sess.problem
    br = bracket_characteristic(sess.characteristic(q1, "Q1"),
                                sess.characteristic(q2, "Q2"), p)
    _emit(ctx, lambda: [pretty(br.q, p)], inputs={"q1": q1, "q2": q2},
          values={"bracket": render(br.q, p)})


@main.command("structconsts")
@click.option("--basis", default=None,
              help="comma-separated characteristics (default: catalog basis)")
@click.pass_context
def cmd_structconsts(ctx, basis):
    """Structure constants of a symmetry basis."""
    sess = _session(ctx)
    pde = _need_pde(sess)
    p = sess.problem
    if basis is None:
        if sess.entry is None or not sess.entry.structure_basis:
            raise click.UsageError("--basis required for this PDE")
        names = list(sess.entry.structure_basis)
    else:
        names = [s.strip() for s in basis.split(",")]
    qs = [sess.characteristic(n, n) for n in names]
    sc = structure_constants(pde, qs, p)
    n = len(qs)
    entries = {f"c[{qs[i].name},{qs[j].name}]^{qs[k].name}": str(sc[i, j, k])
               for i in range(n) for j in range(n) for k in range(n)
               if sc[i, j, k]}
    lines = [f"basis: {', '.join(q.name for q in qs)}"]
    lines += [f"{k} = {v}" for k, v in sorted(entries.items())] or ["all zero"]
    _emit(ctx, lambda: lines, inputs={"pde": pde.name, "basis": names},
          values={"nonzero": entries})


@main.command("reduce")
@click.argument("expression")
@click.pass_context
def cmd_reduce(ctx, expression):
    """Reduce an expression mod the PDE's solved form."""
    sess = _session(ctx)
    pde = _need_pde(sess)
    p = sess.problem
    out = reduce_mod_pde(parse_expr(expression, p), pde, p)
    _emit(ctx, lambda: [pretty(out, p)],
          inputs={"pde": pde.name, "expression": expression},
          remainder=render(out, p))


@main.command("bt-apply")
@click.option("--phi", required=True, help="seed Phi for the Backlund system")
@click.pass_context
def cmd_bt_apply(ctx, phi):
    """Integrate the chiral Backlund transformation for a new symmetry."""
    sess = _session(ctx)
    pde = _need_pde(sess)
    p = sess.problem
    phi_e = parse_expr(phi, p)
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

        _emit(ctx, lines, inputs={"pde": pde.name, "phi": phi},
              verdict=verdict, remainder=None if report.is_symmetry
              else render(report.remainder, p))
        ctx.exit(1)
    qprime = phi_characteristic(out, p).q
    _emit(ctx, lambda: [f"phi' = {pretty(out, p)}",
                        f"Q' = {pretty(qprime, p)}"],
          inputs={"pde": pde.name, "phi": phi}, verdict="Integrated",
          values={"phi_prime": render(out, p), "q_prime": render(qprime, p)})


@main.command("list")
@click.pass_context
def cmd_list(ctx):
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
    _emit(ctx, lambda: lines, values=values)


@main.command("batch")
@click.argument("path", type=click.Path(exists=True))
@click.pass_context
def cmd_batch(ctx, path):
    """Run commands from a file: one CLI argument vector per line, '#'
    comments allowed; global flags from this invocation apply to each.  A
    line that fails (a NotSymmetry verdict, or an error, which is reported
    on stderr) counts as a failure and the lines after it still run."""
    base = []  # this invocation's global flags, as a command line
    for param in main.params:
        value = ctx.parent.params[param.name]
        if param.is_flag:
            base += [param.opts[0]] if value else []
        elif value is not None:
            base += [param.opts[0], value]
    failures = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                args = base + shlex.split(line)
            except ValueError as exc:  # unbalanced quotes
                click.echo(f"error: line {lineno}: {exc}", file=sys.stderr)
                failures += 1
                continue
            try:
                rv = main.main(args=args, standalone_mode=False,
                               prog_name="jetsym")
                if isinstance(rv, int) and rv:
                    failures += 1
            except click.exceptions.Exit as exc:
                if exc.exit_code:
                    failures += 1
            except (click.UsageError, JetsymError) as exc:
                msg = (exc.format_message()
                       if isinstance(exc, click.UsageError) else str(exc))
                click.echo(f"error: line {lineno}: {msg}", file=sys.stderr)
                failures += 1
    ctx.exit(1 if failures else 0)


def run():  # console entry point with error-to-exit-code-2 mapping
    try:
        rv = main(standalone_mode=False)
        sys.exit(rv if isinstance(rv, int) else 0)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", file=sys.stderr)
        sys.exit(2)
    except JetsymError as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except click.Abort:
        sys.exit(2)


if __name__ == "__main__":
    run()
