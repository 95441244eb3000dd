"""Plain-text rendering of expressions in the CLI grammar.

The output of `render` parses back (with the same problem declarations) to
an expression with the same normal form.  Commutator re-sugaring is applied
to normalized two-factor word pairs a*b - b*a when requested.

`render_nf` prints a normal form straight from its terms, in the order
`rebuild` lays them out, and gives the same text as `render` of the rebuilt
tree with no tree built.  The CLI prints every answer it holds as a normal
form this way, and `pretty` prints from the normal form of its tree.
`render` of a tree still walks the tree, also a tree that carries its
form.
"""
from __future__ import annotations

from .core import (Add, Base, CMat, Comm, Coord, Expr, Fn, Inv, Jet, Mul, ONE,
                   Pot, Problem, Rat, Sym)
from .normalize import NF, _term_sort_key, nf, normal_form, rebuild


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


def _term_texts(n: NF, problem: Problem) -> list[str]:
    """The text of each term of rebuild(n), in rebuild's order, as `render`
    prints that term; each atom's text is made once."""
    names: dict[Expr, str] = {}
    parts = []
    for (cmono, word), c in sorted(n.items(), key=_term_sort_key):
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
            parts.append(str(c))
            continue
        text = "*".join(factors)
        if type(c) is not int or c < -1:  # bracketed, as `render` does
            parts.append(f"({c})*{text}")
        elif c == 1:
            parts.append(text)
        elif c == -1:
            parts.append("-" + text)
        else:
            parts.append(f"{c}*{text}")
    return parts


def render_nf(n: NF, problem: Problem) -> str:
    """render(rebuild(n), problem), printed from the normal form n term by
    term with no tree built."""
    return _join_terms(_term_texts(n, problem))


def _commutator_pairs(n: NF) -> tuple[list[Expr], set]:
    """The commutator terms c*comm(a, b) that fold the term pairs
    c*a*b - c*b*a of n (two-factor words), and the keys of the terms they
    fold."""
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
    return pieces, folded


def pretty_nf(n: NF, problem: Problem) -> str:
    """render_nf(n), with each pair of terms  c*a*b - c*b*a  (two-factor
    words) folded into  c*comm(a, b): the folded commutators first, then
    the other terms of n."""
    pieces, folded = _commutator_pairs(n)
    if not pieces:
        return render_nf(n, problem)
    rest = {k: v for k, v in n.items() if k not in folded}
    return _join_terms([render(t, problem) for t in pieces]
                       + _term_texts(rest, problem))


def pretty(e: Expr, problem: Problem) -> str:
    return pretty_nf(nf(e), problem)


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
