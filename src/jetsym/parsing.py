"""Recursive-descent parser for the textual expression language.

Grammar:
    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | primary
    primary := NUMBER | NAME | NAME '(' args ')' | '(' expr ')'
    NUMBER  := INT ('/' INT)?

Multiplication is explicit and order-preserving; juxtaposition is a parse
error.  Jets use underscore subscripts of single-letter coordinates
(u_xt, order-insensitive); multi-character coordinates need the explicit
form D(u, x1).  Builtins: inv(E), comm(A, B), D(E, coord), sin/cos/exp(E).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .core import (DeclarationError, Expr, FUNC_DERIVATIVES, JetsymError,
                   Problem, Rat, add, commutator, func, inverse, mul, neg)

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<op>[+\-*/(),]))")

_BUILTINS = ("inv", "comm", "D") + tuple(FUNC_DERIVATIVES)


class ParseError(JetsymError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


@dataclass
class _Tok:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    pos: int


def _lex(text: str) -> list[_Tok]:
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            rest = text[i:]
            stripped = rest.lstrip()
            if stripped:
                raise ParseError(f"unexpected character {stripped[0]!r}",
                                 i + len(rest) - len(stripped))
            break
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                toks.append(_Tok(kind, m.group(kind), m.start(kind)))
        i = m.end()
    toks.append(_Tok("end", "", len(text)))
    return toks


class Parser:
    def __init__(self, text: str, problem: Problem):
        self.text = text
        self.problem = problem
        self.toks = _lex(text)
        self.i = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.i]

    def _advance(self) -> _Tok:
        t = self.cur
        self.i += 1
        return t

    def _expect(self, text: str):
        if self.cur.kind != "op" or self.cur.text != text:
            raise ParseError(f"expected {text!r}, got {self.cur.text!r}",
                             self.cur.pos)
        return self._advance()

    def parse(self) -> Expr:
        e = self._expr()
        if self.cur.kind != "end":
            raise ParseError(f"trailing input {self.cur.text!r}", self.cur.pos)
        return e

    def _expr(self) -> Expr:
        terms = [self._term()]
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self._advance().text
            t = self._term()
            terms.append(t if op == "+" else neg(t))
        return add(*terms)

    def _term(self) -> Expr:
        factors = [self._factor()]
        while self.cur.kind == "op" and self.cur.text == "*":
            self._advance()
            factors.append(self._factor())
        return mul(*factors)

    def _factor(self) -> Expr:
        if self.cur.kind == "op" and self.cur.text == "-":
            self._advance()
            return neg(self._factor())
        return self._primary()

    def _primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            self._advance()
            num = int(tok.text)
            if self.cur.kind == "op" and self.cur.text == "/":
                self._advance()
                den = self.cur
                if den.kind != "num":
                    raise ParseError("expected integer denominator", den.pos)
                self._advance()
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos)
                return Rat(Fraction(num, int(den.text)))
            return Rat(Fraction(num))
        if tok.kind == "op" and tok.text == "(":
            self._advance()
            e = self._expr()
            self._expect(")")
            return e
        if tok.kind == "name":
            self._advance()
            if self.cur.kind == "op" and self.cur.text == "(":
                return self._call(tok)
            return self._resolve(tok)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _call(self, tok: _Tok) -> Expr:
        name = tok.text
        if name not in _BUILTINS:
            raise ParseError(f"unknown function {name!r}", tok.pos)
        self._expect("(")
        args = [self._expr()]
        while self.cur.kind == "op" and self.cur.text == ",":
            self._advance()
            # the second argument of D is a coordinate name, not an expression
            if name == "D" and len(args) == 1 and self.cur.kind == "name":
                args.append(self._advance())
            else:
                args.append(self._expr())
        self._expect(")")
        try:
            return self._apply(name, args, tok)
        except JetsymError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), tok.pos) from exc

    def _apply(self, name: str, args: list, tok: _Tok) -> Expr:
        if name == "inv":
            if len(args) != 1:
                raise ParseError("inv takes one argument", tok.pos)
            return inverse(args[0])
        if name == "comm":
            if len(args) != 2:
                raise ParseError("comm takes two arguments", tok.pos)
            return commutator(args[0], args[1])
        if name == "D":
            if len(args) != 2 or not isinstance(args[1], _Tok):
                raise ParseError("D takes an expression and a coordinate name",
                                 tok.pos)
            from .calculus import total_derivative
            coord = self.problem.coordinate(args[1].text)
            return total_derivative(args[0], coord, self.problem)
        if len(args) != 1:
            raise ParseError(f"{name} takes one argument", tok.pos)
        return func(name, args[0])

    def _resolve(self, tok: _Tok) -> Expr:
        name = tok.text
        p = self.problem
        if "_" in name:
            head, _, subs = name.partition("_")
            if head != p.dependent.name:
                raise ParseError(f"unknown jet head {head!r}", tok.pos)
            try:
                return p.jet(subs)
            except DeclarationError as exc:
                raise ParseError(str(exc), tok.pos) from exc
        if name == p.dependent.name:
            return p.u
        if name in p._coord_by_name:
            return p.coord(name)
        if name in p.constants:
            return p.const(name)
        if name in p.matrices:
            return p.cmat(name)
        if name in p.base_functions:
            return p.base(name)
        if name in p.potentials:
            return p.potential(name)
        raise ParseError(f"undeclared symbol {name!r}", tok.pos)


def parse_expr(text: str, problem: Problem) -> Expr:
    return Parser(text, problem).parse()


def _split_factors(text: str, offset: int) -> list[tuple[int, str]]:
    """(position, text) of the '*'-separated pieces of `text` outside
    brackets."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "*" and depth == 0:
            pieces.append((offset + start, text[start:i]))
            start = i + 1
    pieces.append((offset + start, text[start:]))
    return pieces


def _split_terms(text: str) -> list[tuple[int, int, str]]:
    """(sign, position, text) of the terms of an operator spec: split at
    '+'/'-' outside brackets, except a sign right after '*' or '/', which
    belongs to the factor it precedes.  Consecutive signs multiply."""
    terms, depth, sign, start, last = [], 0, 1, 0, ""
    for i, ch in enumerate(text):
        if ch in "+-" and depth == 0 and last not in ("*", "/"):
            if last:
                terms.append((sign, start, text[start:i]))
                sign = 1
            if ch == "-":
                sign = -sign
            start, last = i + 1, ""
            continue
        depth += (ch == "(") - (ch == ")")
        if not ch.isspace():
            last = ch
    if text[start:].strip():
        terms.append((sign, start, text[start:]))
    elif terms or start:
        raise ParseError("operator spec ends with a sign", len(text))
    return terms


def parse_operator(text: str, problem: Problem):
    """Linear-operator specs like "D_x*F", "t*D_x*F", "5*F + x*D_x*F",
    "F*M - M*F", "((-2)*t)*D_x*F".  Each term is a product of scalar
    coefficients, D_<coord> factors and constant-matrix names around an
    optional F placeholder; factors after F multiply from the right.  Terms
    and factors split only outside brackets, so bracketed coefficients may
    hold sums and signs.  "0" denotes the zero operator.
    """
    from .symmetry import LinearOperatorAnsatz

    terms = []
    for sgn, tpos, chunk in _split_terms(text):
        left: list[Expr] = [Rat(Fraction(sgn))]
        right: list[Expr] = []
        deriv: list[int] = []
        seen_f = False
        for pos, factor in _split_factors(chunk, tpos):
            pos += len(factor) - len(factor.lstrip())
            factor = factor.strip()
            if not factor:
                raise ParseError("empty factor in operator spec", pos)
            if factor == "F":
                if seen_f:
                    raise ParseError("duplicate F in operator term", pos)
                seen_f = True
                continue
            if factor.startswith("D_") and factor[2:] in problem._coord_by_name:
                deriv.append(problem.coordinate(factor[2:]).index)
                continue
            try:
                e = parse_expr(factor, problem)
            except ParseError as exc:
                raise ParseError(exc.message, pos + exc.pos) from exc
            (right if seen_f else left).append(e)
        terms.append((mul(*left), tuple(sorted(deriv)),
                      mul(*right) if right else Rat(Fraction(1))))
    return LinearOperatorAnsatz(tuple(terms))
