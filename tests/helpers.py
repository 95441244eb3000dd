"""Shared fixtures: sample problems and a seeded random expression builder
used by both the hypothesis strategies and the acceptance property loops;
reference substitution and reduction that share no code with the engine's
jet map (`normalize.nf(e, values)`); and reference total and
characteristic derivatives that walk the expression tree instead of
acting on normal forms (`calculus.derive_nf`)."""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from random import Random

from jetsym import (Characteristic, Dependent, Problem, Rat, Sym, add,
                    as_expr, commutator, func, inverse, iterated_total, mul,
                    normal_form)
from jetsym.core import (Add, Base, CMat, Comm, Coord, Expr, Fn,
                         FUNC_DERIVATIVES, Inv, Jet, KindError, Mul,
                         NonlocalActionError, Pot, ZERO, neg)
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


def _reference_derive(e: Expr, atom) -> Expr:
    """The derivation whose value on each coordinate, jet, base-function or
    potential atom a is atom(a), by a walk over the whole tree: zero on
    constants, Leibniz on products, -w^-1 (Dw) w^-1 on inverses, both
    sides of a commutator, the chain rule through analytic functions."""
    if isinstance(e, (Rat, Sym, CMat)):
        return ZERO
    if isinstance(e, (Coord, Jet, Base, Pot)):
        return atom(e)
    if isinstance(e, Add):
        return add(*(_reference_derive(t, atom) for t in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return add(*(mul(*fs[:i], _reference_derive(fs[i], atom), *fs[i + 1:])
                     for i in range(len(fs))))
    if isinstance(e, Inv):
        return neg(mul(e, _reference_derive(e.base, atom), e))
    if isinstance(e, Comm):
        return add(commutator(_reference_derive(e.lhs, atom), e.rhs),
                   commutator(e.lhs, _reference_derive(e.rhs, atom)))
    if isinstance(e, Fn):
        coeff, newname = FUNC_DERIVATIVES[e.fname]
        return mul(Rat(coeff), Fn(newname, e.arg),
                   _reference_derive(e.arg, atom))
    raise TypeError(f"cannot differentiate node {type(e).__name__}")


def reference_total(e: Expr, coord, problem: Problem) -> Expr:
    """D_i e by the tree walk, normalized: the reference for
    `jetsym.total_derivative`."""
    def atom(a: Expr) -> Expr:
        if isinstance(a, Coord):
            return Rat(1) if a.coordinate == coord else ZERO
        if isinstance(a, Jet):
            return Jet(a.dep, a.idx + (coord.index,))
        if isinstance(a, Base):
            return Base(a.name, a.matrix, a.partials + (coord.index,))
        return problem.potentials[a.name].derivatives[coord.name]

    return normal_form(_reference_derive(as_expr(e), atom))


def reference_char(e: Expr, Q: Characteristic, problem: Problem) -> Expr:
    """D_Q e by the tree walk, with D_J Q from `reference_total`,
    normalized: the reference for `jetsym.char_derivative`."""
    def atom(a: Expr) -> Expr:
        if isinstance(a, (Coord, Base)):
            return ZERO
        if isinstance(a, Jet):
            if a.dep != Q.dependent:
                raise KindError("characteristic of another dependent")
            out = as_expr(Q.q)
            for i in a.idx:
                out = reference_total(out, problem.coordinates[i], problem)
            return out
        images = problem.potentials[a.name].char_images
        if Q.name not in images:
            raise NonlocalActionError(f"no image of {a.name} under {Q.name}")
        return images[Q.name]

    return normal_form(_reference_derive(as_expr(e), atom))
