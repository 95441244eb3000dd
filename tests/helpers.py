"""Shared fixtures: sample problems and a seeded random expression builder
used by both the hypothesis strategies and the acceptance property loops,
and reference substitution and reduction that share no code with the
engine's jet map (`normalize.nf(e, values)`)."""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from random import Random

from jetsym import (Characteristic, Dependent, Problem, Rat, Sym, add,
                    as_expr, commutator, func, inverse, iterated_total, mul,
                    normal_form)
from jetsym.core import Add, Comm, Expr, Fn, Inv, Jet, Mul
from jetsym.normalize import collect_jets


def scalar_problem() -> Problem:
    return Problem(coords=["x", "t"],
                   dependent=Dependent("u", "scalar", invertible=True),
                   constants=["lam"],
                   base_functions=["f", "h"])


def matrix_problem() -> Problem:
    return Problem(coords=["x", "t"],
                   dependent=Dependent("u", "matrix", invertible=True),
                   constants=["lam"],
                   matrices=[("A", False), ("B", True)],
                   base_functions=[("a", True), ("b", True), ("f", False)])


def _leaf(rng: Random, p: Problem, scalar_only: bool) -> Expr:
    choices = ["rat", "sym", "coord", "jet", "base"]
    if p.dependent.invertible and (p.dependent.kind == "scalar"
                                   or not scalar_only):
        choices.append("inv_u")
    if p.matrices and not scalar_only:
        choices.append("cmat")
    kind = rng.choice(choices)
    if kind == "rat":
        return Rat(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])))
    if kind == "sym":
        return Sym(p.constants[0])
    if kind == "coord":
        return p.coord(rng.choice([c.name for c in p.coordinates]))
    if kind == "jet":
        if scalar_only and p.dependent.kind != "scalar":
            return p.coord("x")
        order = rng.randint(0, 2)
        subs = "".join(rng.choice("xt") for _ in range(order))
        return p.jet(subs)
    if kind == "base":
        scalars = [n for n, b in p.base_functions.items() if not b.matrix]
        names = scalars if scalar_only else list(p.base_functions)
        return p.base(rng.choice(names)) if names else p.coord("t")
    if kind == "inv_u":
        return inverse(p.u)
    return p.cmat(rng.choice(list(p.matrices)))


def random_expr(rng: Random, p: Problem, depth: int = 4,
                scalar_only: bool = False) -> Expr:
    if depth <= 0 or rng.random() < 0.35:
        return _leaf(rng, p, scalar_only)
    kind = rng.choice(["add", "add", "mul", "mul", "comm", "fn"])
    if kind == "add":
        return add(*(random_expr(rng, p, depth - 1, scalar_only)
                     for _ in range(rng.randint(2, 3))))
    if kind == "mul":
        return mul(*(random_expr(rng, p, depth - 1, scalar_only)
                     for _ in range(rng.randint(2, 3))))
    if kind == "comm":
        return commutator(random_expr(rng, p, depth - 1, scalar_only),
                          random_expr(rng, p, depth - 1, scalar_only))
    return func(rng.choice(["sin", "cos", "exp"]),
                random_expr(rng, p, min(depth - 1, 2), scalar_only=True))


def random_characteristic(rng: Random, p: Problem, depth: int = 2
                          ) -> Characteristic:
    q = random_expr(rng, p, depth,
                    scalar_only=p.dependent.kind == "scalar")
    return Characteristic(f"Q{rng.randint(0, 10**6)}", q, p.dependent)


def reference_substitute(e: Expr, target: Jet, replacement: Expr) -> Expr:
    """Replace every occurrence of the jet `target` by a tree walk that
    rebuilds e (function arguments and inverses included), then normalize:
    the reference for `jetsym.substitute`."""
    def walk(x: Expr) -> Expr:
        if isinstance(x, Jet):
            return replacement if x == target else x
        if isinstance(x, Add):
            return Add(tuple(walk(t) for t in x.terms))
        if isinstance(x, Mul):
            return Mul(tuple(walk(f) for f in x.factors))
        if isinstance(x, Inv):
            inner = walk(x.base)
            return x if inner == x.base else inverse(inner)
        if isinstance(x, Comm):
            return Comm(walk(x.lhs), walk(x.rhs))
        if isinstance(x, Fn):
            return Fn(x.fname, walk(x.arg))
        return x

    return normal_form(walk(e))


def reference_reduce(e: Expr, pde, problem: Problem) -> Expr:
    """Reduction mod F one principal jet at a time, the highest first, each
    replaced by the total derivative of the unreduced solved form: the
    reference that the engine's table reducer must agree with exactly."""
    lead = Counter(pde.leading.idx)
    out = normal_form(as_expr(e))
    while True:
        reducible = [j for j in collect_jets(out)
                     if j.dep == pde.leading.dep
                     and not (lead - Counter(j.idx))]
        if not reducible:
            return out
        j = max(reducible, key=lambda j: (j.order, j.idx))
        extra = Counter(j.idx) - lead
        repl = iterated_total(pde.rhs, tuple(extra.elements()), problem)
        out = reference_substitute(out, j, repl)
