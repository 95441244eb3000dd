"""Plain-text rendering of expressions in the CLI grammar.

The output of `render` parses back (with the same problem declarations) to
an expression with the same normal form.

A normal form is printed by one term printer (`_term_texts`), term by term
and with no tree built, as `render` prints the tree `rebuild` makes of it.
`render_nf` prints the terms in `rebuild`'s order.  `pretty_nf` first folds
each pair of two-factor words  c*a*b - c*b*a  into the one term
c*comm(a, b), whose word is the single factor comm(a, b), and prints the
folded terms before the others.  The CLI prints every answer it holds as a
normal form this way, `pretty` prints from the normal form of its tree,
and `render_operator` prints each side of an operator term from its normal
form.  `render` of a tree walks the tree, also a tree that carries its
form.
"""
from __future__ import annotations

import sys

from .core import (Add, Base, CMat, Coeff, Comm, Coord, Expr, Fn, Inv, Jet,
                   JetsymError, Mul, Pot, Problem, Rat, Sym)
from .normalize import NF, _term_sort_key, nf


def render_number(c: Coeff) -> str:
    """The text of a rational: "n", or "n/d" for a Fraction.  The one place
    a coefficient becomes text, so a number longer than Python's limit on
    int-to-text conversion is a JetsymError, never a ValueError."""
    try:
        return str(c)
    except ValueError:  # over sys.get_int_max_str_digits(), Python 3.11+
        raise JetsymError("cannot print a number longer than Python's int "
                          f"conversion limit of {sys.get_int_max_str_digits()}"
                          " digits") from None


def _coord_names(problem: Problem, idx) -> list[str]:
    return [problem.coordinates[i].name for i in idx]


def _render_partials(name: str, subs: list[str]) -> str:
    """name differentiated by the coordinates named in subs: D(D(a, x), t)."""
    for s in subs:
        name = f"D({name}, {s})"
    return name


def _render_factor(e: Expr, p: Problem) -> str:
    if isinstance(e, (Add,)):
        return "(" + render(e, p) + ")"
    if isinstance(e, Rat) and (type(e.value) is not int or e.value < 0):
        return "(" + render(e, p) + ")"
    return render(e, p)


def render(e: Expr, problem: Problem) -> str:
    if isinstance(e, Rat):
        return render_number(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Jet):
        subs = _coord_names(problem, e.idx)
        if subs and all(len(s) == 1 for s in subs):  # u_xt
            return e.dep.name + "_" + "".join(subs)
        return _render_partials(e.dep.name, subs)
    if isinstance(e, Base):
        return _render_partials(e.name, _coord_names(problem, e.partials))
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
        return _join_terms([render(t, problem) for t in e.terms])
    raise TypeError(f"cannot render node {type(e).__name__}")


def _join_terms(parts: list[str]) -> str:
    """The text of a sum of terms with these texts (of none, "0"): a term
    that opens with a minus sign is subtracted."""
    if not parts:
        return "0"
    out = [parts[0]]
    for s in parts[1:]:
        out.append(" - " + s[1:] if s[:1] == "-" else " + " + s)
    return "".join(out)


def _term_texts(items, problem: Problem) -> list[str]:
    """The text of each (term key, coefficient) item, in the order given,
    as `render` prints that term of a rebuilt tree; each factor's text is
    made once."""
    names: dict[Expr, str] = {}
    parts = []
    for (cmono, word), c in items:
        factors = []
        for a, e in cmono:
            s = names.get(a)
            if s is None:
                s = names[a] = render(a, problem)
            if e > 0:
                factors += [s] * e
            else:  # rebuild lays a^e, e < 0, out as inv(a)^-e
                factors += [f"inv({s})"] * -e
        for a in word:
            s = names.get(a)
            if s is None:
                s = names[a] = render(a, problem)
            factors.append(s)
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        if not factors:
            parts.append(render_number(c))
            continue
        text = "*".join(factors)
        if type(c) is not int or c < -1:  # bracketed, as `render` does
            parts.append(f"({render_number(c)})*{text}")
        elif c == 1:
            parts.append(text)
        elif c == -1:
            parts.append("-" + text)
        else:
            parts.append(f"{render_number(c)}*{text}")
    return parts


def render_nf(n: NF, problem: Problem) -> str:
    """render(rebuild(n), problem), printed from the normal form n term by
    term in `rebuild`'s order, with no tree built."""
    return _join_terms(_term_texts(sorted(n.items(), key=_term_sort_key),
                                   problem))


def pretty_nf(n: NF, problem: Problem) -> str:
    """render_nf(n), with each pair of terms  c*a*b - c*b*a  (two-factor
    words) folded into the one term  c*comm(a, b), whose word is the
    factor comm(a, b): the folded terms first, then the other terms of n,
    each in `rebuild`'s order."""
    folded, rest, gone = [], [], set()
    for (cmono, word), c in sorted(n.items(), key=_term_sort_key):
        if len(word) == 2 and word[0] != word[1]:
            if (cmono, word) in gone:
                continue
            a, b = word
            if n.get((cmono, (b, a))) == -c:
                gone.add((cmono, (b, a)))
                folded.append(((cmono, (Comm(a, b),)), c))
                continue
        rest.append(((cmono, word), c))
    return _join_terms(_term_texts(folded + rest, problem))


def pretty(e: Expr, problem: Problem) -> str:
    return pretty_nf(nf(e), problem)


def render_operator(ansatz, problem: Problem) -> str:
    """A linear operator ansatz in the grammar `certify --lhat` reads."""
    parts = []
    for left, j, right in ansatz.terms:
        bits = []
        ls = render_nf(nf(left), problem)
        if ls != "1":
            bits.append(ls if "+" not in ls and "-" not in ls[1:] else f"({ls})")
        for i in j:
            bits.append(f"D_{problem.coordinates[i].name}")
        bits.append("F")
        rs = render_nf(nf(right), problem)
        if rs != "1":
            bits.append(rs)
        parts.append("*".join(bits))
    return " + ".join(parts) if parts else "0"
