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

from .core import (Coord, DeclarationError, Expr, FUNC_DERIVATIVES,
                   JetsymError, ONE, Problem, Rat, add, commutator, func,
                   inverse, mul, neg)

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<op>[+\-*/(),]))")

_BUILTINS = ("inv", "comm", "D") + tuple(FUNC_DERIVATIVES)

#: deepest nesting of factors (brackets, calls, signs) the parser accepts
MAX_DEPTH = 100


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

    def __str__(self) -> str:  # as an error message names the token
        return "end of input" if self.kind == "end" else repr(self.text)


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
        self.depth = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.i]

    def _advance(self) -> _Tok:
        t = self.cur
        self.i += 1
        return t

    def _expect(self, text: str):
        if self.cur.kind != "op" or self.cur.text != text:
            raise ParseError(f"expected {text!r}, got {self.cur}",
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
        # every recursive production passes through here, so this depth
        # bounds the Python stack the parser and the tree walkers need
        if self.depth >= MAX_DEPTH:
            raise ParseError("expression nested too deeply", self.cur.pos)
        self.depth += 1
        try:
            if self.cur.kind == "op" and self.cur.text == "-":
                self._advance()
                return neg(self._factor())
            return self._primary()
        finally:
            self.depth -= 1

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
            return Rat(num)
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
        what = "end of input" if tok.kind == "end" else f"token {tok}"
        raise ParseError(f"unexpected {what}", tok.pos)

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
            if not subs:
                raise ParseError(f"empty jet subscript in {name!r}", tok.pos)
            try:
                return p.jet(subs)
            except DeclarationError as exc:
                raise ParseError(str(exc), tok.pos) from exc
        atom = p.declared(name)
        if atom is None:
            raise ParseError(f"undeclared symbol {name!r}", tok.pos)
        return atom


def parse_expr(text: str, problem: Problem) -> Expr:
    return Parser(text, problem).parse()


class _OperatorParser(Parser):
    """Operator specs in the expression grammar, where a term's factors may
    also be the placeholder F and total derivatives D_<coord>, and signs may
    open any factor."""

    def parse(self) -> list:
        terms = [self._op_term()]
        while self.cur.kind == "op" and self.cur.text in "+-":
            terms.append(self._op_term())
        if self.cur.kind != "end":
            raise ParseError(f"trailing input {self.cur.text!r}", self.cur.pos)
        return terms

    def _op_term(self) -> tuple:
        sign, left, right, deriv, seen_f = 1, [], [], [], False
        while True:
            while self.cur.kind == "op" and self.cur.text in "+-":
                sign *= -1 if self._advance().text == "-" else 1
            name = self.cur.text if self.cur.kind == "name" else ""
            coord = self.problem.declared(name[2:]) if name[:2] == "D_" else None
            if name == "F":
                if seen_f:
                    raise ParseError("duplicate F in operator term",
                                     self.cur.pos)
                seen_f = True
                self._advance()
            elif isinstance(coord, Coord):
                deriv.append(coord.index)
                self._advance()
            elif name[:2] == "D_" and self.problem.dependent.name != "D":
                raise ParseError(f"unknown coordinate {name[2:]!r}",
                                 self.cur.pos)
            else:
                (right if seen_f else left).append(self._factor())
            if not (self.cur.kind == "op" and self.cur.text == "*"):
                break
            self._advance()
        return (mul(Rat(sign), *left), tuple(sorted(deriv)),
                mul(*right) if right else ONE)


def parse_operator(text: str, problem: Problem):
    """Linear-operator specs like "D_x*F", "t*D_x*F", "5*F + x*D_x*F",
    "F*M - M*F", "((-2)*t)*D_x*F", "2*-D_x*F".  Each term is a product of
    scalar coefficients, D_<coord> factors and constant-matrix names around
    an optional F placeholder; factors after F multiply from the right.
    "0" denotes the zero operator.
    """
    from .symmetry import LinearOperatorAnsatz

    return LinearOperatorAnsatz(tuple(_OperatorParser(text, problem).parse()))
