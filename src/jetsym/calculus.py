"""Total and characteristic derivative operators on jet-space expressions.

Both operators are derivations: they satisfy the Leibniz rule, act on
inverses through -w^-1 (Dw) w^-1, and distribute over commutators.  The
characteristic derivative acts only in the fiber space: it annihilates
base-space functions and constants, sends the dependent to the
characteristic Q, and commutes with every total derivative.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (Add, Base, CMat, Comm, Coord, Coordinate, Dependent, Expr,
                   Fn, FUNC_DERIVATIVES, Inv, Jet, KindError, Mul,
                   NonlocalActionError, Pot, Problem, Rat, SCALAR, Sym, ZERO,
                   add, as_expr, commutator, mul, neg, rat)
from .normalize import collect_jets, normal_form


@dataclass(frozen=True)
class Characteristic:
    """Named characteristic function Q[u] generating the derivative D_Q."""

    name: str
    q: Expr
    dependent: Dependent


def _fn_derivative(e: Fn, darg: Expr) -> Expr:
    coeff, newname = FUNC_DERIVATIVES[e.fname]
    return mul(Rat(coeff), Fn(newname, e.arg), darg)


def _derive(e: Expr, atom) -> Expr:
    """The derivation whose value on each coordinate, jet, base-function or
    potential atom a is atom(a): zero on constants, Leibniz on products,
    -w^-1 (Dw) w^-1 on inverses, the chain rule through analytic functions."""
    if isinstance(e, (Rat, Sym, CMat)):
        return ZERO
    if isinstance(e, (Coord, Jet, Base, Pot)):
        return atom(e)
    if isinstance(e, Add):
        return add(*(_derive(t, atom) for t in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return add(*(mul(*fs[:i], _derive(fs[i], atom), *fs[i + 1:])
                     for i in range(len(fs))))
    if isinstance(e, Inv):
        return neg(mul(e, _derive(e.base, atom), e))
    if isinstance(e, Comm):
        return add(commutator(_derive(e.lhs, atom), e.rhs),
                   commutator(e.lhs, _derive(e.rhs, atom)))
    if isinstance(e, Fn):
        return _fn_derivative(e, _derive(e.arg, atom))
    raise TypeError(f"cannot differentiate node {type(e).__name__}")


def total_derivative(e: Expr, coord: Coordinate, problem: Problem) -> Expr:
    """D_i e, returned in normal form."""
    def atom(a: Expr) -> Expr:
        if isinstance(a, Coord):
            return rat(1) if a.coordinate == coord else ZERO
        if isinstance(a, Jet):
            return Jet(a.dep, a.idx + (coord.index,))
        if isinstance(a, Base):
            return Base(a.name, a.matrix, a.partials + (coord.index,))
        return problem.potentials[a.name].derivatives[coord.name]

    return normal_form(_derive(as_expr(e), atom))


def iterated_total(e: Expr, idx, problem: Problem) -> Expr:
    """D_J e for a multi-index of coordinate indices, applied in sorted
    order (totals commute, so the order is immaterial)."""
    out = as_expr(e)
    for i in sorted(i.index if isinstance(i, Coordinate) else i for i in idx):
        out = total_derivative(out, problem.coordinates[i], problem)
    return out


def char_derivative(e: Expr, Q: Characteristic, problem: Problem) -> Expr:
    """D_Q e, returned in normal form."""
    totals = {(): as_expr(Q.q)}  # D_J Q by sorted J, each taken once per call
    def atom(a: Expr) -> Expr:
        if isinstance(a, (Coord, Base)):
            return ZERO
        if isinstance(a, Jet):
            if a.dep != Q.dependent:
                raise KindError(
                    "characteristic declared for a different dependent")
            idx = tuple(sorted(a.idx))
            for n in range(len(idx)):  # D_J Q = D_{J[n]} D_{J[:n]} Q
                if idx[:n + 1] not in totals:
                    totals[idx[:n + 1]] = total_derivative(
                        totals[idx[:n]], problem.coordinates[idx[n]], problem)
            return totals[idx]
        images = problem.potentials[a.name].char_images
        if Q.name not in images:
            raise NonlocalActionError(
                f"nonlocal action undefined: no image of potential "
                f"{a.name!r} under characteristic {Q.name!r}")
        return images[Q.name]

    return normal_form(_derive(as_expr(e), atom))


def bracket_characteristic(Q1: Characteristic, Q2: Characteristic,
                           problem: Problem) -> Characteristic:
    """Characteristic of the Lie bracket: D_1 Q2 - D_2 Q1."""
    if Q1.dependent != Q2.dependent:
        raise KindError("bracket of characteristics over different dependents")
    q = normal_form(char_derivative(Q2.q, Q1, problem)
                    - char_derivative(Q1.q, Q2, problem))
    return Characteristic(f"[{Q1.name},{Q2.name}]", q, Q1.dependent)


def scale_characteristic(Q: Characteristic, lam) -> Characteristic:
    """lam * Q for a constant lam (rational or declared symbol); scaling by
    non-constant base functions would break commutation with the totals."""
    if isinstance(lam, (int, Fraction)):
        factor: Expr = Rat(Fraction(lam))
    elif isinstance(lam, Sym):
        factor = lam
    else:
        raise KindError("characteristics scale only by declared constants")
    return Characteristic(f"{lam}*{Q.name}", normal_form(mul(factor, Q.q)),
                          Q.dependent)


def formal_jet_partial(e: Expr, target: Jet) -> Expr:
    """Formal commutative partial derivative with respect to a jet atom;
    only meaningful for scalar dependents."""
    if isinstance(e, Jet):
        return rat(1) if e == target else ZERO
    if isinstance(e, (Rat, Sym, Coord, Base, CMat, Pot)):
        return ZERO
    if isinstance(e, Add):
        return add(*(formal_jet_partial(t, target) for t in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return add(*(mul(*fs[:i], formal_jet_partial(fs[i], target), *fs[i + 1:])
                     for i in range(len(fs))))
    if isinstance(e, Inv):
        return neg(mul(e, formal_jet_partial(e.base, target), e))
    if isinstance(e, Comm):
        return add(commutator(formal_jet_partial(e.lhs, target), e.rhs),
                   commutator(e.lhs, formal_jet_partial(e.rhs, target)))
    if isinstance(e, Fn):
        return _fn_derivative(e, formal_jet_partial(e.arg, target))
    raise TypeError(f"cannot differentiate node {type(e).__name__}")


def scalar_prolongation_apply(e: Expr, Q: Characteristic, problem: Problem,
                              max_order: int | None = None) -> Expr:
    """Differential-operator representation of D_Q for scalar dependents:
    sum over jets u_J of (D_J Q) * (de/du_J).  Cross-check oracle for
    char_derivative."""
    if problem.dependent.kind != SCALAR:
        raise KindError("the differential-operator representation is only "
                        "valid for a scalar dependent")
    e = as_expr(e)
    jets = {j for j in collect_jets(e) if j.dep == problem.dependent}
    if max_order is not None:
        too_high = [j for j in jets if j.order > max_order]
        if too_high:
            raise ValueError(f"expression contains jets above order {max_order}")
    out = ZERO
    for j in sorted(jets, key=lambda j: (j.order, j.idx)):
        part = formal_jet_partial(e, j)
        out = add(out, mul(iterated_total(Q.q, j.idx, problem), part))
    return normal_form(out)
