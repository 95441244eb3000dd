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
from typing import Callable

from .core import (Base, CMat, Coord, Coordinate, Dependent, Expr, Fn,
                   FUNC_DERIVATIVES, Inv, Jet, KindError, NonlocalActionError,
                   Pot, Problem, Rat, SCALAR, Sym, as_expr, mul)
from .normalize import (NF, _cancel_word, _merge_cmono, _nf_add, _nf_mul,
                        _nf_scale, collect_jets, nf, normal_form, rebuild)

# image of a factor of a normal form under a derivation, as a normal form
Image = Callable[[Expr], NF]


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
    out: NF = {}

    def put(key, v):
        s = out.get(key, 0) + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    for (cmono, word), c in n.items():
        for i, (a, e) in enumerate(cmono):
            da = image(a)
            if not da:
                continue
            rest = cmono[:i] + ((a, e - 1),) + cmono[i + 1:] if e != 1 \
                else cmono[:i] + cmono[i + 1:]
            for (dc, dw), dv in da.items():
                put((_merge_cmono(rest, dc) if dc else rest,
                     _cancel_word(dw + word) if dw else word), c * e * dv)
        for i, f in enumerate(word):
            da = image(f)
            if not da:
                continue
            left, right = word[:i], word[i + 1:]
            for (dc, dw), dv in da.items():
                put((_merge_cmono(cmono, dc) if dc else cmono,
                     _cancel_word(left + dw + right)), c * dv)
    return out


def _derive(f: Expr, atom: Callable[[Expr], NF], image: Image) -> NF:
    """The image of one factor of a normal form under the derivation whose
    value on each coordinate, jet, base-function or potential atom a is the
    normal form atom(a): zero on constants, -w^-1 (Dw) w^-1 on inverses,
    the chain rule through analytic functions."""
    if isinstance(f, (Sym, CMat)):
        return {}
    if isinstance(f, (Coord, Jet, Base, Pot)):
        return atom(f)
    if isinstance(f, Inv):
        db = image(f.base)
        if not db:
            return {}
        w = nf(f)
        return _nf_scale(_nf_mul(_nf_mul(w, db), w), Fraction(-1))
    if isinstance(f, Fn):
        coeff, newname = FUNC_DERIVATIVES[f.fname]
        return _nf_mul({(((Fn(newname, f.arg), 1),), ()): coeff},
                       derive_nf(nf(f.arg), image))
    raise TypeError(f"cannot differentiate factor {type(f).__name__}")


def derivation(atom: Callable[[Expr], NF]) -> Image:
    """The image map of the derivation whose value on each atom a is the
    normal form atom(a).  It holds each factor's image once taken, so one
    map serves one call and is dropped with it."""
    images: dict[Expr, NF] = {}

    def image(f: Expr) -> NF:
        d = images.get(f)
        if d is None:
            d = images[f] = _derive(f, atom, image)
        return d

    return image


def total_atoms(coord: Coordinate, problem: Problem) -> Callable[[Expr], NF]:
    """The value of D_i on each atom, as a normal form."""
    def atom(a: Expr) -> NF:
        if isinstance(a, Coord):
            return {((), ()): Fraction(1)} if a.coordinate == coord else {}
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
    """D_Q n for a normal form n, as a normal form."""
    totals = jet_totals(nf(as_expr(Q.q)), problem)  # D_J Q

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
        return nf(images[Q.name])

    return derive_nf(n, derivation(atom))


def char_derivative(e: Expr, Q: Characteristic, problem: Problem) -> Expr:
    """D_Q e, returned in normal form."""
    return rebuild(char_nf(nf(as_expr(e)), Q, problem))


def bracket_characteristic(Q1: Characteristic, Q2: Characteristic,
                           problem: Problem) -> Characteristic:
    """Characteristic of the Lie bracket: D_1 Q2 - D_2 Q1."""
    if Q1.dependent != Q2.dependent:
        raise KindError("bracket of characteristics over different dependents")
    q = _nf_add(char_nf(nf(as_expr(Q2.q)), Q1, problem),
                _nf_scale(char_nf(nf(as_expr(Q1.q)), Q2, problem),
                          Fraction(-1)))
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
    one = {((), ()): Fraction(1)}
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
