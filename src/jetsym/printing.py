"""Plain-text rendering of expressions in the CLI grammar.

The output of `render` parses back (with the same problem declarations) to
an expression with the same normal form.  Commutator re-sugaring is applied
to normalized two-factor word pairs a*b - b*a when requested.
"""
from __future__ import annotations

from .core import (Add, Base, CMat, Comm, Coord, Expr, Fn, Inv, Jet, Mul, ONE,
                   Pot, Problem, Rat, Sym, ZERO)
from .normalize import _term_sort_key, nf, normal_form, rebuild


def _coord_names(problem: Problem, idx) -> list[str]:
    return [problem.coordinates[i].name for i in idx]


def _render_jet(e: Jet, p: Problem) -> str:
    if not e.idx:
        return e.dep.name
    subs = _coord_names(p, e.idx)
    if all(len(s) == 1 for s in subs):
        return e.dep.name + "_" + "".join(subs)
    out = e.dep.name
    for s in subs:
        out = f"D({out}, {s})"
    return out


def _render_base(e: Base, p: Problem) -> str:
    out = e.name
    for s in _coord_names(p, e.partials):
        out = f"D({out}, {s})"
    return out


def _render_factor(e: Expr, p: Problem) -> str:
    if isinstance(e, (Add,)):
        return "(" + render(e, p) + ")"
    if isinstance(e, Rat) and (type(e.value) is not int or e.value < 0):
        return "(" + render(e, p) + ")"
    return render(e, p)


def render(e: Expr, problem: Problem) -> str:
    if isinstance(e, Rat):
        return str(e.value)  # an int, or a Fraction as "n/d"
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Jet):
        return _render_jet(e, problem)
    if isinstance(e, Base):
        return _render_base(e, problem)
    if isinstance(e, (CMat, Pot)):
        return e.name
    if isinstance(e, Inv):
        return f"inv({render(e.base, problem)})"
    if isinstance(e, Comm):
        return f"comm({render(e.lhs, problem)}, {render(e.rhs, problem)})"
    if isinstance(e, Fn):
        return f"{e.fname}({render(e.arg, problem)})"
    if isinstance(e, Mul):
        factors = list(e.factors)
        sign = ""
        if factors and isinstance(factors[0], Rat) and factors[0].value == -1 \
                and len(factors) > 1:
            sign = "-"
            factors = factors[1:]
        return sign + "*".join(_render_factor(f, problem) for f in factors)
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            s = render(t, problem)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        return "".join(parts)
    raise TypeError(f"cannot render node {type(e).__name__}")


def resugar_commutators(e: Expr, problem: Problem) -> Expr:
    """Fold normalized term pairs  c*a*b - c*b*a  (two-factor words) back
    into  c*comm(a, b).  Purely cosmetic; used by the pretty printer.  The
    normal form of e is read, never changed: a tree that carries it and
    folds no pair is returned as it is."""
    n = nf(e)
    pieces: list[Expr] = []
    folded: set[tuple] = set()
    for (cmono, word), coeff in sorted(
            (t for t in n.items() if len(t[0][1]) == 2), key=_term_sort_key):
        a, b = word
        rev = (cmono, (b, a))
        if a != b and rev not in folded and n.get(rev) == -coeff:
            folded.update(((cmono, word), rev))
            scal = rebuild({(cmono, ()): coeff})
            com = Comm(a, b)
            pieces.append(com if scal == ONE else Mul((scal, com)))
    if not pieces:
        return e if getattr(e, "form", None) is n else rebuild(n)
    rest = rebuild({k: v for k, v in n.items() if k not in folded})
    terms = pieces + (list(rest.terms) if isinstance(rest, Add)
                      else ([] if rest == ZERO else [rest]))
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def pretty(e: Expr, problem: Problem) -> str:
    return render(resugar_commutators(e, problem), problem)


def render_operator(ansatz, problem: Problem) -> str:
    """A linear operator ansatz in the grammar `certify --lhat` reads."""
    parts = []
    for left, j, right in ansatz.terms:
        bits = []
        ls = render(normal_form(left), problem)
        if ls != "1":
            bits.append(ls if "+" not in ls and "-" not in ls[1:] else f"({ls})")
        for i in j:
            bits.append(f"D_{problem.coordinates[i].name}")
        bits.append("F")
        rs = render(normal_form(right), problem)
        if rs != "1":
            bits.append(rs)
        parts.append("*".join(bits))
    return " + ".join(parts) if parts else "0"
