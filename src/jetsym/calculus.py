"""Total and characteristic derivative operators on jet-space expressions.

Both operators are derivations: they satisfy the Leibniz rule, act on
inverses through -w^-1 (Dw) w^-1, and distribute over commutators.  The
characteristic derivative acts only in the fiber space: it annihilates
base-space functions and constants, sends the dependent to the
characteristic Q, and commutes with every total derivative.

A derivation is fixed by its value on the atoms, and it acts on normal
forms (`normalize.nf`) term by term: `derive_nf` applies the Leibniz rule
to each factor of each term, and `derivation` gives the image of each
factor (an atom, the inverse of one, or an analytic function), taken once
per call and held in a dict local to that call.  Every derivative is taken
there: D_i, D_Q, D_J (`jet_totals`) and the formal partial d/du_J.  The
`_nf` functions take and return normal forms; an `Expr` tree is built only
where a public function returns a result.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .core import (Base, CMat, Coord, Coordinate, Dependent, Expr, Fn,
                   FUNC_DERIVATIVES, Inv, Jet, KindError, NonlocalActionError,
                   Pot, Problem, Rat, SCALAR, Sym, as_expr, mul)
from .normalize import (NF, _join, _merge_cmono, _nf_add, _nf_mul, _nf_scale,
                        clear_denominators, collect_jets, nf, nf_divide,
                        normal_form, rebuild)

# a normal form n cleared of denominators: (d*n, d), int coefficients
# (`normalize.clear_denominators`)
Cleared = tuple[NF, int]
# image of a factor of a normal form under a derivation, cleared
Image = Callable[[Expr], Cleared]


@dataclass(frozen=True)
class Characteristic:
    """Named characteristic function Q[u] generating the derivative D_Q."""

    name: str
    q: Expr
    dependent: Dependent


def derive_nf(n: NF, image: Image) -> NF:
    """The derivation with `image` on each factor, applied to the normal
    form n by the Leibniz rule: a commuting atom a^e of a term's monomial
    gives e*a^(e-1)*image(a), and word position i gives
    w[:i]*image(w_i)*w[i+1:]."""
    return nf_divide(*derive_cleared(n, image))


def derive_cleared(n: NF, image: Image) -> Cleared:
    """(d * derive_nf(n, image), d) with int coefficients, for a linear
    caller that would clear the value of denominators again.

    It multiplies ints only: n is cleared of denominators, each factor's
    image comes cleared (a potential's gradient may hold Fractions), and
    the products are collected apart for each image denominator, which
    are brought to one denominator at the end."""
    [n], dn = clear_denominators([n])
    outs: dict[int, NF] = {}  # image denominator -> int products

    def put(out: NF, key, v):
        s = out.get(key)
        if s is None:
            out[key] = v
        else:
            s += v
            if s:
                out[key] = s
            else:
                del out[key]

    for (cmono, word), c in n.items():
        for i, (a, e) in enumerate(cmono):
            da, d = image(a)
            if not da:
                continue
            out = outs.get(d)
            if out is None:
                out = outs[d] = {}
            rest = cmono[:i] + ((a, e - 1),) + cmono[i + 1:] if e != 1 \
                else cmono[:i] + cmono[i + 1:]
            for (dc, dw), dv in da.items():
                put(out, (_merge_cmono(rest, dc), _join(dw, word)), c * e * dv)
        for i, f in enumerate(word):
            da, d = image(f)
            if not da:
                continue
            out = outs.get(d)
            if out is None:
                out = outs[d] = {}
            left, right = word[:i], word[i + 1:]
            for (dc, dw), dv in da.items():
                put(out, (_merge_cmono(cmono, dc),
                          _join(_join(left, dw), right)), c * dv)
    outs = {d: out for d, out in outs.items() if out}
    if len(outs) < 2:
        for d, out in outs.items():
            return out, d * dn
        return {}, 1
    common = lcm(*outs)
    result: NF = {}
    for d, out in outs.items():
        _nf_add(result, _nf_scale(out, common // d))
    return result, common * dn


def _derive(f: Expr, atom: Callable[[Expr], NF], image: Image) -> Cleared:
    """The image of one factor of a normal form, cleared of denominators,
    under the derivation whose value on each coordinate, jet, base-function
    or potential atom a is the normal form atom(a): zero on constants,
    -w^-1 (Dw) w^-1 on inverses, the chain rule through analytic
    functions."""
    if isinstance(f, (Sym, CMat)):
        return {}, 1
    if isinstance(f, (Coord, Jet, Base, Pot)):
        [n], d = clear_denominators([atom(f)])
        return n, d
    if isinstance(f, Inv):
        db, d = image(f.base)
        if not db:
            return {}, 1
        w = nf(f)  # one term, coefficient 1
        return _nf_scale(_nf_mul(_nf_mul(w, db), w), -1), d
    if isinstance(f, Fn):
        coeff, newname = FUNC_DERIVATIVES[f.fname]
        [n], d = clear_denominators([_nf_mul(
            {(((Fn(newname, f.arg), 1),), ()): coeff},
            derive_nf(nf(f.arg), image))])
        return n, d
    raise TypeError(f"cannot differentiate factor {type(f).__name__}")


def derivation(atom: Callable[[Expr], NF]) -> Image:
    """The image map of the derivation whose value on each atom a is the
    normal form atom(a).  It holds each factor's image once taken and
    cleared, so one map serves one call and is dropped with it."""
    images: dict[Expr, Cleared] = {}

    def image(f: Expr) -> Cleared:
        d = images.get(f)
        if d is None:
            d = images[f] = _derive(f, atom, image)
        return d

    return image


def total_atoms(coord: Coordinate, problem: Problem) -> Callable[[Expr], NF]:
    """The value of D_i on each atom, as a normal form."""
    def atom(a: Expr) -> NF:
        if isinstance(a, Coord):
            return {((), ()): 1} if a.coordinate == coord else {}
        if isinstance(a, Jet):
            return nf(Jet(a.dep, a.idx + (coord.index,)))
        if isinstance(a, Base):
            return nf(Base(a.name, a.matrix, a.partials + (coord.index,)))
        return nf(problem.potentials[a.name].derivatives[coord.name])

    return atom


def total_derivative(e: Expr, coord: Coordinate, problem: Problem) -> Expr:
    """D_i e, returned in normal form."""
    return rebuild(jet_totals(nf(as_expr(e)), problem)((coord.index,)))


def total_images(problem: Problem) -> list[Image]:
    """The D_i image map of each coordinate, by coordinate index."""
    return [derivation(total_atoms(c, problem)) for c in problem.coordinates]


def jet_totals(n: NF, problem: Problem) -> Callable[[tuple[int, ...]], NF]:
    """The map J -> D_J n on multi-indices of coordinate indices.  Totals
    commute, so J is sorted; each sorted J is taken once, by one D_i from
    its longest prefix already taken, and held in a dict local to the map."""
    total = total_images(problem)
    taken: dict[tuple[int, ...], NF] = {(): n}

    def totals(idx: tuple[int, ...]) -> NF:
        idx = tuple(sorted(idx))
        if idx not in taken:
            taken[idx] = derive_nf(totals(idx[:-1]), total[idx[-1]])
        return taken[idx]

    return totals


def iterated_total(e: Expr, idx, problem: Problem) -> Expr:
    """D_J e for a multi-index of coordinates or coordinate indices, in
    normal form."""
    return rebuild(jet_totals(nf(as_expr(e)), problem)(
        tuple(i.index if isinstance(i, Coordinate) else i for i in idx)))


def char_nf(n: NF, Q: Characteristic, problem: Problem) -> NF:
    """D_Q n for a normal form n, as a normal form.  D_Q is linear in Q, so
    it is taken along d*Q, cleared of denominators, and divided by d."""
    [q], d = clear_denominators([nf(as_expr(Q.q))])
    totals = jet_totals(q, problem)  # D_J (d*Q)

    def atom(a: Expr) -> NF:
        if isinstance(a, (Coord, Base)):
            return {}
        if isinstance(a, Jet):
            if a.dep != Q.dependent:
                raise KindError(
                    "characteristic declared for a different dependent")
            return totals(a.idx)
        images = problem.potentials[a.name].char_images
        if Q.name not in images:
            raise NonlocalActionError(
                f"nonlocal action undefined: no image of potential "
                f"{a.name!r} under characteristic {Q.name!r}")
        return _nf_scale(nf(images[Q.name]), d)

    return nf_divide(derive_nf(n, derivation(atom)), d)


def char_derivative(e: Expr, Q: Characteristic, problem: Problem) -> Expr:
    """D_Q e, returned in normal form."""
    return rebuild(char_nf(nf(as_expr(e)), Q, problem))


def bracket_characteristic(Q1: Characteristic, Q2: Characteristic,
                           problem: Problem) -> Characteristic:
    """Characteristic of the Lie bracket: D_1 Q2 - D_2 Q1."""
    if Q1.dependent != Q2.dependent:
        raise KindError("bracket of characteristics over different dependents")
    q = _nf_add(char_nf(nf(as_expr(Q2.q)), Q1, problem),
                _nf_scale(char_nf(nf(as_expr(Q1.q)), Q2, problem), -1))
    return Characteristic(f"[{Q1.name},{Q2.name}]", rebuild(q), Q1.dependent)


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


def jet_partial(target: Jet) -> Image:
    """The image map of the formal partial derivative d/d(target): 1 on the
    jet atom `target`, 0 on every other atom."""
    one = {((), ()): 1}
    return derivation(lambda a: one if a == target else {})


def formal_jet_partial(e: Expr, target: Jet) -> Expr:
    """Formal commutative partial derivative with respect to a jet atom;
    only meaningful for scalar dependents."""
    return rebuild(derive_nf(nf(as_expr(e)), jet_partial(target)))


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
    n, totals = nf(e), jet_totals(nf(as_expr(Q.q)), problem)
    out: NF = {}
    for j in sorted(jets, key=lambda j: (j.order, j.idx)):
        _nf_add(out, _nf_mul(totals(j.idx), derive_nf(n, jet_partial(j))))
    return rebuild(out)
