"""Shared fixtures: sample problems and a seeded random expression builder
used by both the hypothesis strategies and the acceptance property loops;
reference substitution and reduction by a tree walk that shares no code
with the engine's jet map (`normalize.map_nf`), for `substitute`,
`reduce_mod_pde` and the term-by-term `reduce_nf`;
reference total and characteristic derivatives that walk the expression
tree instead of acting on normal forms (`calculus.derive_nf`), and the
scalar prolongation formula built on them; the commutator folding that
`printing.pretty_nf` prints, by its own fold of the tree; an operator
ansatz applied to an expression, and compared with another as a sum of
like terms; the order key computed by a walk
over the tree, for the key each interned atom carries; a dense
elimination in Fractions only, for `linsolve`; and an in-process run of
the command line, for the CLI tests."""
from __future__ import annotations

import io
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from math import prod
from random import Random
from typing import NamedTuple

from jetsym import (Characteristic, Dependent, Problem, Rat, Sym, add,
                    as_expr, commutator, func, inverse, mul, normal_form,
                    total_derivative)
from jetsym.cli import main
from jetsym.core import (Add, Base, CMat, Comm, Coord, Expr, Fn,
                         FUNC_DERIVATIVES, Inv, Jet, JetsymError, KindError,
                         Mul, NonlocalActionError, Pot, ZERO,
                         is_commuting_atom, neg)
from jetsym.normalize import (_nf_add, clear_denominators, collect_jets, nf,
                              nf_divide, rebuild)
from jetsym.symmetry import LinearOperatorAnsatz, reduce_nf


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
    if p.atoms(CMat) and not scalar_only:
        choices.append("cmat")
    kind = rng.choice(choices)
    if kind == "rat":
        return Rat(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])))
    if kind == "sym":
        return p.atoms(Sym)[0]
    if kind == "coord":
        return p.coordinate(rng.choice([c.name for c in p.coordinates]))
    if kind == "jet":
        if scalar_only and p.dependent.kind != "scalar":
            return p.coordinate("x")
        order = rng.randint(0, 2)
        subs = "".join(rng.choice("xt") for _ in range(order))
        return p.jet(subs)
    if kind == "base":
        bases = [b for b in p.atoms(Base) if not (scalar_only and b.matrix)]
        return rng.choice(bases) if bases else p.coordinate("t")
    if kind == "inv_u":
        return inverse(p.u)
    return rng.choice(p.atoms(CMat))


def term_bound(e: Expr) -> int:
    """An upper bound, read off the tree, on the terms of nf(e) and of
    every product that `normalize.nf` forms on the way: a sum adds its
    terms' bounds, a product multiplies its factors' bounds, a commutator
    is twice the product of its sides', and an atom or a number is 1.  An
    analytic function's argument is normalized on its own; `random_expr`
    draws it at depth 2 at most, where its bound is at most 27."""
    if isinstance(e, Add):
        return sum(term_bound(t) for t in e.terms)
    if isinstance(e, Mul):
        return prod(term_bound(f) for f in e.factors)
    if isinstance(e, Comm):
        return 2 * term_bound(e.lhs) * term_bound(e.rhs)
    return 1


#: the most terms a drawn expression may form, as its `term_bound`
DRAW_TERMS = 20_000


def _capped(make, parts: list[Expr]) -> Expr:
    """make(*parts), with trailing parts dropped while its term bound
    exceeds DRAW_TERMS; the first part alone is within it.  No draw is
    made here, so an expression within the bound is drawn as before."""
    e = make(*parts)
    while term_bound(e) > DRAW_TERMS:
        parts = parts[:-1]
        e = make(*parts) if len(parts) > 1 else parts[0]
    return e


def random_expr(rng: Random, p: Problem, depth: int = 4,
                scalar_only: bool = False) -> Expr:
    """A seeded random expression whose `term_bound` is at most
    DRAW_TERMS, so that normalizing it forms no product above
    `normalize.MAX_TERMS`."""
    if depth <= 0 or rng.random() < 0.35:
        return _leaf(rng, p, scalar_only)
    kind = rng.choice(["add", "add", "mul", "mul", "comm", "fn"])
    if kind == "add":
        return _capped(add, [random_expr(rng, p, depth - 1, scalar_only)
                             for _ in range(rng.randint(2, 3))])
    if kind == "mul":
        return _capped(mul, [random_expr(rng, p, depth - 1, scalar_only)
                             for _ in range(rng.randint(2, 3))])
    if kind == "comm":
        return _capped(commutator,
                       [random_expr(rng, p, depth - 1, scalar_only),
                        random_expr(rng, p, depth - 1, scalar_only)])
    return func(rng.choice(["sin", "cos", "exp"]),
                random_expr(rng, p, min(depth - 1, 2), scalar_only=True))


def random_characteristic(rng: Random, p: Problem, depth: int = 2
                          ) -> Characteristic:
    q = random_expr(rng, p, depth,
                    scalar_only=p.dependent.kind == "scalar")
    return Characteristic(f"Q{rng.randint(0, 10**6)}", q, p.dependent)


def fresh_copy(e: Expr) -> Expr:
    """e copied node by node, with no normal form carried on any Add or
    Mul (`normalize.rebuild` gives its trees one, which `nf` returns), so
    that normalizing the copy walks the tree: the oracle for a normal
    form read off an engine output.  Atoms are interned and come back as
    they are, an analytic function's argument included."""
    if isinstance(e, Add):
        return Add(tuple(fresh_copy(t) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(fresh_copy(f) for f in e.factors))
    if isinstance(e, Comm):
        return Comm(fresh_copy(e.lhs), fresh_copy(e.rhs))
    return e


def _reference_map(e: Expr, image) -> Expr:
    """e rebuilt by a tree walk with each jet j for which image(j) is not
    None replaced by that tree, function arguments and inverses included;
    an inverse whose base changed is taken again with `inverse`."""
    def walk(x: Expr) -> Expr:
        if isinstance(x, Jet):
            r = image(x)
            return x if r is None else r
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

    return walk(e)


def reference_substitute(e: Expr, target: Jet, replacement: Expr) -> Expr:
    """Replace every occurrence of the jet `target` by a tree walk that
    rebuilds e (function arguments and inverses included), then normalize:
    the reference for `jetsym.substitute`."""
    return normal_form(_reference_map(
        e, lambda j: replacement if j == target else None))


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
        repl = pde.rhs
        for i in extra.elements():
            repl = total_derivative(repl, problem.coordinates[i], problem)
        out = reference_substitute(out, j, repl)


def reference_reduce_nf(n: dict, pde, problem: Problem) -> dict:
    """reduce_nf by a tree walk: n, cleared of denominators, is rebuilt as
    a tree, each principal jet in it is replaced by the tree of its table
    value (`_reference_map`), and the tree is normalized and divided back.
    A table value is read after reducing its principal jet on its own,
    which `test_principal_jets_match_reference` checks against
    `reference_reduce`; how the terms of n combine the values is found
    with no engine jet map."""
    lead = Counter(pde.leading.idx)
    values = {}

    def image(j: Jet):
        if j.dep != pde.leading.dep or lead - Counter(j.idx):
            return None
        if j not in values:
            reduce_nf(nf(j), pde, problem)
            values[j] = rebuild(pde.stores[problem].table[j.idx])
        return values[j]

    n, d = clear_denominators(n)
    return nf_divide(nf(_reference_map(rebuild(n), image)), d)


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
            return Rat(1) if a is coord else ZERO
        if isinstance(a, Jet):
            return Jet(a.dep, a.idx + (coord.index,))
        if isinstance(a, Base):
            return Base(a.name, a.matrix, a.partials + (coord.index,))
        return problem.potentials[a.name].derivatives[coord.name]

    return normal_form(_reference_derive(as_expr(e), atom))


def _reference_jet_total(Q: Characteristic, j: Jet, problem: Problem
                         ) -> Expr:
    """D_J Q for the jet j = u_J, one `reference_total` at a time."""
    out = as_expr(Q.q)
    for i in j.idx:
        out = reference_total(out, problem.coordinates[i], problem)
    return out


def reference_char(e: Expr, Q: Characteristic, problem: Problem) -> Expr:
    """D_Q e by the tree walk, with D_J Q from `reference_total`,
    normalized: the reference for `jetsym.char_derivative`."""
    def atom(a: Expr) -> Expr:
        if isinstance(a, (Coord, Base)):
            return ZERO
        if isinstance(a, Jet):
            if a.dep != Q.dependent:
                raise KindError("characteristic of another dependent")
            return _reference_jet_total(Q, a, problem)
        raise NonlocalActionError(f"no image of {a.name} under {Q.name}")

    return normal_form(_reference_derive(as_expr(e), atom))


def reference_prolongation(e: Expr, Q: Characteristic, problem: Problem
                           ) -> Expr:
    """D_Q e for a scalar dependent by the prolongation formula (Olver,
    Applications of Lie Groups to Differential Equations, ch. 5): the sum
    over the jets u_J of e of (D_J Q) * de/du_J, with D_J Q from
    `reference_total` and de/du_J by the tree walk that is 1 on u_J and 0
    on every other atom, normalized.  It calls nothing in
    `jetsym.calculus`: a reference for `jetsym.char_derivative` in the
    representation the paper claims for it."""
    if problem.dependent.kind != "scalar":
        raise KindError("the differential-operator representation holds "
                        "only for a scalar dependent")
    e = as_expr(e)
    terms = []
    for j in collect_jets(e):
        if j.dep == problem.dependent:
            de = _reference_derive(e, lambda a: Rat(1) if a is j else ZERO)
            terms.append(mul(_reference_jet_total(Q, j, problem), de))
    return normal_form(add(*terms))


def _commutes(f: Expr) -> bool:
    """True for a factor of a rebuilt term that belongs to its commuting
    part: a number, a scalar atom or the inverse of one."""
    return isinstance(f, Rat) or is_commuting_atom(
        f.base if isinstance(f, Inv) else f)


def resugar_commutators(e: Expr, problem: Problem) -> Expr:
    """Fold term pairs  c*a*b - c*b*a  of the normalized tree, a and b
    the two noncommuting factors that end each term, back into
    c*comm(a, b): the folded terms first, in the tree's order, then the
    others.  Purely cosmetic: `pretty` prints the same text from the
    normal form (`pretty_nf`), which this fold of the tree is the
    reference for.  The normal form of e is read, never changed: a tree
    that carries it and folds no pair is returned as it is."""
    n = nf(e)
    tree = rebuild(n)
    terms = list(tree.terms) if isinstance(tree, Add) else [tree]
    split = {}  # term index -> (coefficient, commuting factors, word)
    for i, t in enumerate(terms):
        fs = list(t.factors) if isinstance(t, Mul) else [t]
        c = fs.pop(0).value if isinstance(fs[0], Rat) else 1
        k = len(fs)
        while k and not _commutes(fs[k - 1]):
            k -= 1
        split[i] = c, tuple(fs[:k]), tuple(fs[k:])
    index = {(rest, word): i for i, (_, rest, word) in split.items()}
    pieces, folded = [], set()
    for i, (c, rest, word) in split.items():
        if len(word) != 2 or word[0] == word[1] or i in folded:
            continue
        a, b = word
        j = index.get((rest, (b, a)))
        if j is not None and split[j][0] == -c:
            folded.update((i, j))
            pieces.append(mul(*([Rat(c)] if c != 1 else []), *rest,
                              Comm(a, b)))
    if not pieces:
        return e if getattr(e, "form", None) is n else tree
    out = pieces + [t for i, t in enumerate(terms) if i not in folded]
    return out[0] if len(out) == 1 else Add(tuple(out))


def apply_operator(op: LinearOperatorAnsatz, e: Expr, problem: Problem
                   ) -> Expr:
    """The operator op applied to e: the sum of its columns on the normal
    form of e, the sum `certify_operator` compares D_Q F with."""
    return rebuild(reduce(_nf_add, op.columns(nf(as_expr(e)), problem), {}))


def canonical(op: LinearOperatorAnsatz) -> tuple:
    """Order-independent fingerprint for comparing operators: the
    coefficient of each (left term, J, right term), like terms collected
    and zeros dropped."""
    coeffs: dict[tuple, Fraction] = {}
    for left, j, right in op.terms:
        j = tuple(sorted(j))
        for lk, lv in nf(left).items():
            for rk, rv in nf(right).items():
                key = (lk, j, rk)
                coeffs[key] = coeffs.get(key, 0) + lv * rv
    return tuple(sorted((k, v) for k, v in coeffs.items() if v))


def same_operator(a: LinearOperatorAnsatz, b: LinearOperatorAnsatz) -> bool:
    return canonical(a) == canonical(b)


def reference_expr_key(e: Expr) -> tuple:
    """The order key of e by a walk over the whole tree: the reference for
    the key an atom is interned with (`core.expr_key`)."""
    if isinstance(e, Rat):
        return (0, e.value.numerator, e.value.denominator)
    if isinstance(e, Coord):
        return (1, e.index)
    if isinstance(e, Sym):
        return (2, e.name)
    if isinstance(e, Jet):
        return (3, e.dep.name, len(e.idx), e.idx)
    if isinstance(e, Base):
        return (4, e.name, e.partials)
    if isinstance(e, Fn):
        return (5, e.fname, reference_expr_key(e.arg))
    if isinstance(e, CMat):
        return (6, e.name)
    if isinstance(e, Pot):
        return (7, e.name)
    if isinstance(e, Inv):
        return reference_expr_key(e.base) + (("inv",),)
    if isinstance(e, Mul):
        return (8, tuple(reference_expr_key(f) for f in e.factors))
    if isinstance(e, Add):
        return (9, tuple(reference_expr_key(t) for t in e.terms))
    if isinstance(e, Comm):
        return (10, reference_expr_key(e.lhs), reference_expr_key(e.rhs))
    raise TypeError(f"unknown node {type(e).__name__}")


def _reference_echelon(columns: list[dict], rows: list
                       ) -> tuple[list[list[Fraction]], list[int]]:
    """Dense reduced row echelon form, in Fractions only, of the matrix
    whose j-th column is columns[j] over `rows`; and its pivot columns."""
    m = [[Fraction(c.get(r, 0)) for c in columns] for r in rows]
    pivots: list[int] = []
    for j in range(len(columns)):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][j] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][j] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][j] != 0:
                f = m[i][j]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(j)
    return m, pivots


def reference_solve(columns: list[dict], target: dict):
    """The solution of sum_j x[j] * columns[j] = target with x[j] = 0 for
    every column that depends on the columns before it, by dense
    Gauss-Jordan elimination in Fractions; None when inconsistent: the
    reference for `linsolve.solve`, in its shape, {j: x[j]} for the
    nonzero x[j] in column order, an int where x[j] is integral."""
    rows = list(dict.fromkeys(k for c in (*columns, target) for k in c))
    m, pivots = _reference_echelon([*columns, target], rows)
    if len(columns) in pivots:
        return None
    x = {j: m[r][-1] for r, j in enumerate(pivots) if m[r][-1]}
    return {j: v.numerator if v.denominator == 1 else v
            for j, v in x.items()}


def reference_rank(columns: list[dict]) -> int:
    """The rank by dense elimination in Fractions: the reference for
    `linsolve.Echelon.rank`."""
    rows = list(dict.fromkeys(k for c in columns for k in c))
    return len(_reference_echelon(columns, rows)[1])


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def invoke(*args: str) -> CliResult:
    """Run `jetsym.cli.main` in-process on args, as the console entry point
    does: an error is exit status 2 with its message on stderr.  Any other
    exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(args))
        except JetsymError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    return CliResult(code, out.getvalue(), err.getvalue())
