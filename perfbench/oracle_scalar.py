"""Oracle for the scalar equations, built on sympy and not on jetsym.

Two independent computations:

* Reduction mod F over the free jets.  Jets that do not contain the
  leading multi-index are free coordinates.  The total derivative of a free
  jet is either the next free jet or a principal jet, and a principal jet
  u_{J+L} equals D_J of the equation's own right-hand side.  This gives the
  unique representative of any jet expression on the equation.
* The Gateaux derivative d/d(eps) F[u + eps*Q[u]] at eps = 0, taken by
  the chain rule in jet space and compared on a concrete seeded polynomial
  u0(x, t): an exact polynomial identity in x and t that checks raw
  characteristic derivatives, certificates and brackets.
"""
from __future__ import annotations

import random
import re

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

X, T, C = sp.symbols("x t c")
_LOCALS = {"x": X, "t": T, "c": C, "sin": sp.sin, "cos": sp.cos,
           "exp": sp.exp, "u": sp.Symbol("u")}
_JET = re.compile(r"u(?:_([xt]+))?")


def parse(text: str) -> sp.Expr:
    return sp.sympify(text, locals=_LOCALS)


def jet_index(sym) -> tuple[int, int] | None:
    m = _JET.fullmatch(sym.name)
    if not m:
        return None
    subs = m.group(1) or ""
    return subs.count("x"), subs.count("t")


def jet_symbol(i: int, j: int) -> sp.Symbol:
    return sp.Symbol("u" if i == j == 0 else "u_" + "x" * i + "t" * j)


def jets(expr) -> dict:
    return {s: jet_index(s) for s in expr.free_symbols
            if jet_index(s) is not None}


def same(a, b) -> bool:
    return sp.expand(a - b, power_exp=False) == 0


class ScalarPde:
    """One scalar equation: F, its leading jet and right-hand side."""

    def __init__(self, spec: dict):
        self.f = parse(spec["f"])
        self.rhs = parse(spec["rhs"])
        self.lead = jet_index(sp.Symbol(spec["lead"]))
        self._principal: dict = {}

    def is_free(self, idx) -> bool:
        return not (idx[0] >= self.lead[0] and idx[1] >= self.lead[1])

    def principal(self, idx) -> sp.Expr:
        """u_idx on the equation, in free jets."""
        if self.is_free(idx):
            return jet_symbol(*idx)
        if idx not in self._principal:
            e = self.rhs
            for _ in range(idx[0] - self.lead[0]):
                e = self.total(e, "x")
            for _ in range(idx[1] - self.lead[1]):
                e = self.total(e, "t")
            self._principal[idx] = sp.expand(e, power_exp=False)
        return self._principal[idx]

    def total(self, expr, coord: str) -> sp.Expr:
        """Total derivative of an expression in free jets, on the equation."""
        out = sp.diff(expr, X if coord == "x" else T)
        for s, (i, j) in jets(expr).items():
            out += sp.diff(expr, s) * self.principal(
                (i + (coord == "x"), j + (coord == "t")))
        return out

    def reduce(self, expr) -> sp.Expr:
        return sp.expand(expr.xreplace(
            {s: self.principal(idx) for s, idx in jets(expr).items()}),
            power_exp=False)

    def reduced_delta(self, q) -> sp.Expr:
        """Delta_Q F mod F = sum_J R(dF/du_J) * D_J R(Q)."""
        rq = self.reduce(q)
        out = 0
        for s, (i, j) in jets(self.f).items():
            d = rq
            for _ in range(i):
                d = self.total(d, "x")
            for _ in range(j):
                d = self.total(d, "t")
            out += self.reduce(sp.diff(self.f, s)) * d
        return sp.expand(out, power_exp=False)

    def has_principal(self, expr) -> bool:
        return any(not self.is_free(idx) for idx in jets(expr).values())


def seeded_u0(seed: int) -> dict:
    """A sparse polynomial of degree 6 in x and 2 in t, with one monomial of
    each degree in x, so that no derivative up to the fifth vanishes;
    returned as {(x power, t power): coefficient}."""
    rng = random.Random(f"u0:{seed}")
    return {(i, rng.randint(0, 2 if i < 6 else 0)):
            rng.choice([-3, -2, -1, 1, 2, 3]) for i in range(7)}


def total(expr, coord: str) -> sp.Expr:
    """Total derivative in jet space (off the equation)."""
    out = sp.diff(expr, X if coord == "x" else T)
    for s, (i, j) in jets(expr).items():
        out += sp.diff(expr, s) * jet_symbol(i + (coord == "x"),
                                             j + (coord == "t"))
    return out


def total_j(expr, i: int, j: int) -> sp.Expr:
    for _ in range(i):
        expr = total(expr, "x")
    for _ in range(j):
        expr = total(expr, "t")
    return expr


def gateaux(expr, q) -> sp.Expr:
    """d/d(eps) expr[u + eps*Q[u]] at eps = 0, by the chain rule: the sum
    over jets u_J of (d expr/d u_J) * D_J Q."""
    return sum((sp.diff(expr, s) * total_j(q, *idx)
                for s, idx in jets(expr).items()), sp.Integer(0))


def apply_operator(terms, f) -> sp.Expr:
    """sum of coefficient * left * D_J F for scalar certificate terms
    (coefficient, left text, derivative coordinates)."""
    return sum((sp.Rational(coeff) * (parse(left) if left else 1)
                * total_j(f, derivs.count("x"), derivs.count("t"))
                for coeff, left, derivs in terms), sp.Integer(0))


_RING, *_GENS = ring("x,t,c," + ",".join(f"f{k}" for k in range(12)), QQ)


class AtU0:
    """Evaluates jet expressions at the concrete u0(x, t), exactly, as
    polynomials in x, t and c.  Function atoms such as sin(u) or exp(-u)
    become opaque generators, one per atom (neither side of a compared
    identity uses relations between them)."""

    def __init__(self, u0: dict):
        x, t = _GENS[0], _GENS[1]
        self.u0 = sum((c * x ** i * t ** j for (i, j), c in u0.items()),
                      _RING.zero)
        self.leaves = {X: x, T: t, C: _GENS[2]}
        self.funcs: dict = {}

    def __call__(self, expr):
        if expr in self.leaves:
            return self.leaves[expr]
        if expr.is_Rational:
            return _RING(QQ(int(expr.p), int(expr.q)))
        if expr.is_Symbol:
            i, j = jet_index(expr)
            d = self.u0
            for _ in range(i):
                d = d.diff(_GENS[0])
            for _ in range(j):
                d = d.diff(_GENS[1])
            self.leaves[expr] = d
            return d
        if expr.is_Add:
            return sum((self(a) for a in expr.args), _RING.zero)
        if expr.is_Mul:
            out = _RING.one
            for a in expr.args:
                out *= self(a)
            return out
        if expr.is_Pow and expr.exp.is_Integer and expr.exp >= 0:
            return self(expr.base) ** int(expr.exp)
        if expr not in self.funcs:
            self.funcs[expr] = _GENS[3 + len(self.funcs)]
        return self.funcs[expr]


def split_top(text: str, sep: str) -> list[str]:
    """Split at `sep` outside brackets."""
    out, depth, cur, i = [], 0, "", 0
    while i < len(text):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text.startswith(sep, i):
            out.append(cur)
            cur, i = "", i + len(sep)
            continue
        cur += ch
        i += 1
    return out + [cur]


def read_printed_operator(text: str) -> list:
    """Terms of a certificate as `check` prints it: 'coef*D_x*F + ...'."""
    terms = []
    for term in split_top(text, " + "):
        left, derivs = "", ""
        for factor in split_top(term, "*"):
            if factor == "F":
                continue
            if factor in ("D_x", "D_t"):
                derivs += factor[2]
            else:
                left = f"{left}*({factor})" if left else f"({factor})"
        terms.append((1, left, derivs))
    return terms
