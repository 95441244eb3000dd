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

The input is lexed by one scan of one regular expression into plain
(kind, text, position) tuples, and a bad character is reported before any
parse error.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction

from .core import (Coord, DeclarationError, Expr, FUNC_DERIVATIVES,
                   JetsymError, ONE, Problem, Rat, add, commutator, func,
                   inverse, mul)
from .calculus import total_derivative
from .symmetry import LinearOperatorAnsatz

# one alternative per token kind; whitespace is skipped, and any other
# character is an error
_TOKEN = re.compile(r"(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<op>[+\-*/(),])|(?P<space>\s+)|(?P<bad>.)", re.S)

_BUILTINS = ("inv", "comm", "D") + tuple(FUNC_DERIVATIVES)

#: deepest nesting of factors (brackets, calls, signs) the parser accepts
MAX_DEPTH = 100

_MINUS_ONE = Rat(-1)


class ParseError(JetsymError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


#: a token: its kind ('num', 'name', 'end', or the operator character
#: itself), its text and its position in the input
_Token = tuple[str, str, int]


def _lex(text: str) -> list[_Token]:
    """The tokens of text by one scan, ending with an 'end' token."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        word = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", m.start())
        toks.append((word if kind == "op" else kind, word, m.start()))
    toks.append(("end", "", len(text)))
    return toks


def _integer(digits: str, pos: int) -> int:
    """The int that a NUMBER token spells; one longer than Python's limit
    on int-from-text conversion is a ParseError."""
    try:
        return int(digits)
    except ValueError:  # over sys.get_int_max_str_digits(), Python 3.11+
        raise ParseError("number longer than Python's int conversion limit "
                         f"of {sys.get_int_max_str_digits()} digits",
                         pos) from None


class Parser:
    """Recursive descent over the tokens of one text.  The current token
    is held in three plain attributes, its kind, its text (`word`) and its
    position, which `_advance` moves on."""

    def __init__(self, text: str, problem: Problem):
        self.problem = problem
        self.toks = _lex(text)
        self.i = 0
        self.kind, self.word, self.pos = self.toks[0]
        self.depth = 0

    def _advance(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        self.kind, self.word, self.pos = self.toks[self.i]
        return tok

    def _expect(self, op: str):
        if self.kind != op:
            got = "end of input" if self.kind == "end" else repr(self.word)
            raise ParseError(f"expected {op!r}, got {got}", self.pos)
        return self._advance()

    def parse(self) -> Expr:
        e = self._expr()
        if self.kind != "end":
            raise ParseError(f"trailing input {self.word!r}", self.pos)
        return e

    def _expr(self) -> Expr:
        t = self._term()
        if self.kind != "+" and self.kind != "-":
            return t
        terms = [t]
        while self.kind == "+" or self.kind == "-":
            op = self._advance()[0]
            t = self._term()
            terms.append(t if op == "+" else mul(_MINUS_ONE, t))
        return add(*terms)

    def _term(self) -> Expr:
        f = self._factor()
        if self.kind != "*":
            return f
        factors = [f]
        while self.kind == "*":
            self._advance()
            factors.append(self._factor())
        return mul(*factors)

    def _factor(self) -> Expr:
        # every recursive production passes through here, so this depth
        # bounds the Python stack the parser and the tree walkers need
        if self.depth >= MAX_DEPTH:
            raise ParseError("expression nested too deeply", self.pos)
        kind = self.kind
        if kind == "num" or (kind == "name"
                             and self.toks[self.i + 1][0] != "("):
            return self._primary()  # a leaf: nothing nests below it
        self.depth += 1
        try:
            if kind == "-":
                self._advance()
                return mul(_MINUS_ONE, self._factor())
            return self._primary()
        finally:
            self.depth -= 1

    def _primary(self) -> Expr:
        kind, word, pos = self.kind, self.word, self.pos
        if kind != "num" and kind != "name" and kind != "(":
            what = "end of input" if kind == "end" else f"token {word!r}"
            raise ParseError(f"unexpected {what}", pos)
        tok = self._advance()
        if kind == "num":
            num = _integer(word, pos)
            if self.kind != "/":
                return Rat(num)
            self._advance()
            if self.kind != "num":
                raise ParseError("expected integer denominator", self.pos)
            den = _integer(self.word, self.pos)
            if den == 0:
                raise ParseError("zero denominator", self.pos)
            self._advance()
            return Rat(Fraction(num, den))
        if kind == "name":
            if self.kind == "(":
                return self._call(tok)
            return self._resolve(word, pos)
        e = self._expr()
        self._expect(")")
        return e

    def _call(self, tok: _Token) -> Expr:
        _, name, pos = tok
        if name not in _BUILTINS:
            raise ParseError(f"unknown function {name!r}", pos)
        self._expect("(")
        args = [self._expr()]
        while self.kind == ",":
            self._advance()
            # the second argument of D is a coordinate name, not an expression
            if name == "D" and len(args) == 1 and self.kind == "name":
                args.append(self._advance())
            else:
                args.append(self._expr())
        self._expect(")")
        try:
            return self._apply(name, args, pos)
        except JetsymError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), pos) from exc

    def _apply(self, name: str, args: list, pos: int) -> Expr:
        if name == "D":
            if len(args) != 2 or not isinstance(args[1], tuple):
                raise ParseError("D takes an expression and a coordinate name",
                                 pos)
            _, word, at = args[1]
            try:
                coord = self.problem.coordinate(word)
            except DeclarationError as exc:  # at the coordinate, not the D
                raise ParseError(str(exc), at) from exc
            return total_derivative(args[0], coord, self.problem)
        if len(args) != (2 if name == "comm" else 1):
            what = "two arguments" if name == "comm" else "one argument"
            raise ParseError(f"{name} takes {what}", pos)
        if name == "comm":
            return commutator(*args)
        return inverse(args[0]) if name == "inv" else func(name, args[0])

    def _resolve(self, name: str, pos: int) -> Expr:
        p = self.problem
        if "_" in name:
            head, _, subs = name.partition("_")
            if head != p.dependent.name:
                raise ParseError(f"unknown jet head {head!r}", pos)
            if not subs:
                raise ParseError(f"empty jet subscript in {name!r}", pos)
            try:
                return p.jet(subs)
            except DeclarationError as exc:
                raise ParseError(str(exc), pos) from exc
        atom = p.declared(name)
        if atom is None:
            raise ParseError(f"undeclared symbol {name!r}", pos)
        return atom


def parse_expr(text: str, problem: Problem) -> Expr:
    return Parser(text, problem).parse()


class _OperatorParser(Parser):
    """Operator specs in the expression grammar, where a term's factors may
    also be the placeholder F and total derivatives D_<coord>, and signs may
    open any factor."""

    def parse(self) -> list:
        terms = [self._op_term()]
        while self.kind == "+" or self.kind == "-":
            terms.append(self._op_term())
        if self.kind != "end":
            raise ParseError(f"trailing input {self.word!r}", self.pos)
        return terms

    def _op_term(self) -> tuple:
        sign, left, right, deriv, seen_f = 1, [], [], [], False
        while True:
            while self.kind == "+" or self.kind == "-":
                sign *= -1 if self._advance()[0] == "-" else 1
            name = self.word if self.kind == "name" else ""
            coord = self.problem.declared(name[2:]) if name[:2] == "D_" else None
            if name == "F":
                if seen_f:
                    raise ParseError("duplicate F in operator term",
                                     self.pos)
                seen_f = True
                self._advance()
            elif isinstance(coord, Coord):
                deriv.append(coord.index)
                self._advance()
            elif name[:2] == "D_" and self.problem.dependent.name != "D":
                raise ParseError(f"unknown coordinate {name[2:]!r}",
                                 self.pos)
            else:
                (right if seen_f else left).append(self._factor())
            if self.kind != "*":
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
    return LinearOperatorAnsatz(tuple(_OperatorParser(text, problem).parse()))
