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
and held, cleared, in a dict: kept per problem for D_i (`total_images`)
and per (pde, problem) for R o D_i (`symmetry.reduction`), local to the
call for D_Q.  Every derivative is taken there: D_i, D_Q and D_J
(`jet_totals`).  The `_nf` functions take and return normal forms; an
`Expr` tree is built only where a public function returns a result.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Callable
from weakref import WeakKeyDictionary

from .core import (Base, CMat, Coord, Dependent, Expr, Fn, FUNC_DERIVATIVES,
                   Inv, Jet, KindError, NonlocalActionError, Pot, Problem, Sym,
                   as_expr)
from .normalize import (NF, _join, _merge_cmono, _nf_add, _nf_mul, _nf_scale,
                        clear_denominators, nf, nf_divide, rebuild)

# a normal form n as (d*n, d) with d*n's coefficients ints
# (`normalize.clear_denominators`, `derive_cleared`)
Cleared = tuple[NF, int]
# image of a factor of a normal form under a derivation, cleared
Image = Callable[[Expr], Cleared]


@dataclass(frozen=True)
class Characteristic:
    """Named characteristic function Q[u] generating the derivative D_Q."""

    name: str
    q: Expr
    dependent: Dependent
    doc: str = field(default="", compare=False)  # a catalog note, for `list`


def derive_nf(n: NF, image: Image) -> NF:
    """The derivation with `image` on each factor, applied to the normal
    form n by the Leibniz rule: a commuting atom a^e of a term's monomial
    gives e*a^(e-1)*image(a), and word position i gives
    w[:i]*image(w_i)*w[i+1:]."""
    return nf_divide(*derive_cleared(n, image))


def derive_cleared(n: NF, image: Image) -> Cleared:
    """(d * derive_nf(n, image), d) with int coefficients, for a linear
    caller that would clear the value of denominators again.

    It multiplies ints only: n is cleared of denominators, and each
    factor's image comes cleared (a potential's gradient may hold
    Fractions).  The products are collected in one dict over a running
    common denominator d, which is raised, and what the dict holds
    rescaled, only when an image's denominator does not divide it."""
    n, dn = clear_denominators(n)
    out: NF = {}  # d times the derivative of the terms taken so far
    d = 1

    def to_common(di: int) -> int:
        """The factor that brings an image of denominator di to d."""
        nonlocal d
        if d % di:
            m = lcm(d, di) // d
            for k in out:
                out[k] *= m
            d *= m
        return d // di

    for (cmono, word), c in n.items():
        for i, (a, e) in enumerate(cmono):
            da, di = image(a)
            if not da:
                continue
            m = c * e * to_common(di)
            rest = cmono[:i] + ((a, e - 1),) + cmono[i + 1:] if e != 1 \
                else cmono[:i] + cmono[i + 1:]
            for (dc, dw), dv in da.items():
                key = (_merge_cmono(rest, dc) if rest and dc else rest or dc,
                       _join(dw, word) if dw and word else dw or word)
                out[key] = v = out.get(key, 0) + m * dv  # `_nf_put` in line
                if not v:
                    del out[key]
        for i, f in enumerate(word):
            da, di = image(f)
            if not da:
                continue
            m = c * to_common(di)
            left, right = word[:i], word[i + 1:]
            for (dc, dw), dv in da.items():
                if left:
                    dw = _join(left, dw) if dw else left
                if right:
                    dw = _join(dw, right) if dw else right
                key = (_merge_cmono(cmono, dc) if cmono and dc
                       else cmono or dc, dw)
                out[key] = v = out.get(key, 0) + m * dv
                if not v:
                    del out[key]
    return out, d * dn


def _image(f: Expr, atom: Callable[[Expr], NF],
           images: dict[Expr, Cleared]) -> Cleared:
    """images[f], taken by `_derive` and held there when missing."""
    d = images.get(f)
    if d is None:
        d = images[f] = _derive(f, atom, images)
    return d


def _derive(f: Expr, atom: Callable[[Expr], NF],
            images: dict[Expr, Cleared]) -> Cleared:
    """The image of one factor of a normal form, cleared of denominators,
    under the derivation whose value on each coordinate, jet, base-function
    or potential atom a is the normal form atom(a): zero on constants,
    -w^-1 (Dw) w^-1 on inverses, the chain rule through analytic
    functions.  The images of the factors inside it are read from and held
    in `images`."""
    if isinstance(f, (Sym, CMat)):
        return {}, 1
    if isinstance(f, (Coord, Jet, Base, Pot)):
        return clear_denominators(atom(f))
    if isinstance(f, Inv):
        db, d = _image(f.base, atom, images)
        if not db:
            return {}, 1
        w = nf(f)  # one term, coefficient 1
        return _nf_scale(_nf_mul(_nf_mul(w, db), w), -1), d
    if isinstance(f, Fn):
        coeff, newname = FUNC_DERIVATIVES[f.fname]
        da, d = derive_cleared(nf(f.arg),
                               lambda g: _image(g, atom, images))
        return _nf_mul({(((Fn(newname, f.arg), 1),), ()): coeff}, da), d
    raise TypeError(f"cannot differentiate factor {type(f).__name__}")


def derivation(atom: Callable[[Expr], NF],
               images: dict[Expr, Cleared]) -> Image:
    """The image map of the derivation whose value on each atom a is the
    normal form atom(a).  It holds each factor's image once taken and
    cleared in `images`: a fresh dict, dropped with the map, or one kept
    for every later map of the same derivation.  The map does not refer to
    itself, so it leaves no reference cycle behind."""

    def image(f: Expr) -> Cleared:
        return images.get(f) or _image(f, atom, images)  # a pair is true

    return image


def total_atoms(coord: Coord, problem: Problem) -> Callable[[Expr], NF]:
    """The value of D_i on each atom, as a normal form."""
    def atom(a: Expr) -> NF:
        if isinstance(a, Coord):
            return {((), ()): 1} if a is coord else {}
        if isinstance(a, Jet):
            return nf(Jet(a.dep, a.idx + (coord.index,)))
        if isinstance(a, Base):
            return nf(Base(a.name, a.matrix, a.partials + (coord.index,)))
        return nf(problem.potentials[a.name].derivatives[coord.name])

    return atom


def total_derivative(e: Expr, coord: Coord, problem: Problem) -> Expr:
    """D_i e, returned in normal form."""
    return rebuild(jet_totals(nf(as_expr(e)), problem)((coord.index,)))


# problem -> the images of D_i by coordinate index (`total_images`)
_TOTALS: WeakKeyDictionary = WeakKeyDictionary()


def total_images(problem: Problem) -> list[Image]:
    """The D_i image map of each coordinate, by coordinate index, on the
    images kept for the problem.  They cannot go stale: a Problem changes
    only by `register_potential`, which fixes the new potential's gradient."""
    kept = _TOTALS.get(problem)
    if kept is None:
        kept = _TOTALS[problem] = [{} for _ in problem.coordinates]
    return [derivation(total_atoms(c, problem), images)
            for c, images in zip(problem.coordinates, kept)]


def jet_totals(n: NF, problem: Problem) -> Callable[[tuple[int, ...]], NF]:
    """The map J -> D_J n on multi-indices of coordinate indices.  Totals
    commute, so J is sorted; each sorted J is taken once, by one D_i at a
    time from its longest prefix already taken, and held in a dict local
    to the map."""
    total = total_images(problem)
    taken: dict[tuple[int, ...], NF] = {(): n}

    def totals(idx: tuple[int, ...]) -> NF:
        idx = tuple(sorted(idx))
        k = len(idx)
        while idx[:k] not in taken:
            k -= 1
        n = taken[idx[:k]]
        for m in range(k + 1, len(idx) + 1):
            n = taken[idx[:m]] = derive_nf(n, total[idx[m - 1]])
        return n

    return totals


def char_nf(n: NF, Q: Characteristic, problem: Problem) -> NF:
    """D_Q n for a normal form n, as a normal form.  D_Q is linear in Q, so
    it is taken on ints along d*Q, cleared, and divided back once."""
    q, d = clear_denominators(nf(as_expr(Q.q)))
    totals = jet_totals(q, problem)  # D_J (d*Q)

    def atom(a: Expr) -> NF:
        if isinstance(a, (Coord, Base)):
            return {}
        if isinstance(a, Jet):
            if a.dep != Q.dependent:
                raise KindError(
                    "characteristic declared for a different dependent")
            return totals(a.idx)
        raise NonlocalActionError(
            f"nonlocal action undefined: no image of potential "
            f"{a.name!r} under characteristic {Q.name!r}")

    r, dr = derive_cleared(n, derivation(atom, {}))
    return nf_divide(r, dr * d)


def char_derivative(e: Expr, Q: Characteristic, problem: Problem) -> Expr:
    """D_Q e, returned in normal form."""
    return rebuild(char_nf(nf(as_expr(e)), Q, problem))


def bracket_nf(Q1: Characteristic, Q2: Characteristic,
               problem: Problem) -> NF:
    """The Lie bracket D_1 Q2 - D_2 Q1 as a normal form."""
    if Q1.dependent != Q2.dependent:
        raise KindError("bracket of characteristics over different dependents")
    return _nf_add(char_nf(nf(as_expr(Q2.q)), Q1, problem),
                   _nf_scale(char_nf(nf(as_expr(Q1.q)), Q2, problem), -1))


def bracket_characteristic(Q1: Characteristic, Q2: Characteristic,
                           problem: Problem) -> Characteristic:
    """Characteristic of the Lie bracket: D_1 Q2 - D_2 Q1."""
    return Characteristic(f"[{Q1.name},{Q2.name}]",
                          rebuild(bracket_nf(Q1, Q2, problem)), Q1.dependent)

