"""Canonical form for noncommutative jet-space expressions.

A normal form is a sum of terms (rational coefficient, commuting monomial,
noncommutative word).  A coefficient follows the rule of a `Rat` value: an
`int` while it is integral and a `Fraction` otherwise, never a float
(arithmetic with Fractions may leave an integral Fraction, which compares
and hashes as the int).  Fraction arithmetic costs many times int
arithmetic, so a map linear over the rationals runs on ints:
`clear_denominators`, the one clearing primitive, gives (d*n, d) with int
coefficients, and a value is divided back once (`nf_divide`, by the one
exact `core.quotient`) where a caller needs it over the rationals.  Then the
cost does not depend on whether the coefficients happen to be integral.
The commuting monomial collects scalar-class atoms with integer
exponents, sorted by their `key`; the word is the ordered tuple of
matrix-class factors.  Atoms are interned, so term keys hash by
identity, and they order by their `key` (`core.Atom`), so terms sort on
their words and monomials as they are.
Rewrites applied: distribute products over sums, flatten, extract
scalars, cancel adjacent w*inv(w) pairs, expand commutators, collect like
terms, and evaluate sin, cos and exp at 0 (at any other constant they
stay atoms, so no float enters).
Commutators between scalar-class expressions therefore collapse to zero,
and fully commuting words reorder into the canonical monomial.  An
inverse enters as its base's negative power when the base commutes, and
as a word factor otherwise; `core.Inv` has checked the base when it was
built, so no step here checks it again.

The product kernel takes fast paths: an empty monomial or word is the
other side as it is, a one-atom monomial goes into the other by key, and
words join in one piece unless their meeting pair cancels.  No path
returns an input dict: a caller adds into a result it owns.  A product
runs over its sides' terms in their order, so with one side a single
constant term it keeps the other side's order: a value kept in `rebuild`'s
order (`symmetry.reduction`'s table) stays in it when only rescaled, and
`rebuild` sorts it in n - 1 comparisons.

A normal form is a value that no caller mutates, so it is shared, never
copied.  `rebuild` hands each Add or Mul it returns the normal form that
`nf` would compute from that tree (the same terms in the same order, each
integral coefficient an int), and `nf` returns it, also where the tree sits
in a larger one: an engine output fed back in is not normalized again.
A tree is built only where a library caller asks for an `Expr`: the CLI
prints a normal form term by term, with no tree built, by the one term
printer of `printing` (`render_nf` in `rebuild`'s order, `pretty_nf` with
its commutator pairs folded first), while `printing.render` of a tree
still walks it.

A map of jets to normal forms extends to one ring homomorphism on normal
forms, `map_nf`, which maps a normal form term by term with no tree built.
It is the one place a jet map is applied: `substitute` maps one jet, and
the reduction mod F (`symmetry.reduce_nf`) maps every principal jet.
"""
from __future__ import annotations

from math import lcm
from typing import Callable, Optional

from .core import (Add, Base, CMat, Coeff, Comm, Coord, Expr, Fn,
                   FUNC_AT_ZERO, Inv, Jet, JetsymError, Mul, Pot, Rat, Sym,
                   ZERO, inverse, is_commuting_atom, nodes, quotient)

# cmono: tuple[(atom, int exponent)] sorted by atom.key; word: tuple[factor]
Key = tuple[tuple, tuple]
NF = dict[Key, Coeff]

#: most terms a product may form, as the product of its factors' term counts
MAX_TERMS = 250_000


class TermBudgetError(JetsymError):
    """A product of normal forms would exceed MAX_TERMS terms."""


def _atom_order(item: tuple) -> tuple:
    return item[0].key


def _merge_cmono(a: tuple, b: tuple) -> tuple:
    """The product of two commuting monomials.  A one-atom monomial goes
    into the other by key, with no dict built and no sort run."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((atom, e),) = b
        key = atom.key
        for i, (x, f) in enumerate(a):
            if x is atom:
                s = e + f
                return a[:i] + ((x, s),) + a[i + 1:] if s else \
                    a[:i] + a[i + 1:]
            if key < x.key:
                return a[:i] + b + a[i:]
        return a + b
    exps = dict(a)
    for atom, e in b:
        s = exps.get(atom, 0) + e
        if s:
            exps[atom] = s
        else:
            del exps[atom]
    return tuple(sorted(exps.items(), key=_atom_order))


def _inverse_pair(a: Expr, b: Expr) -> bool:
    """True when a*b is w*inv(w) or inv(w)*w (atoms are interned)."""
    return (type(a) is Inv and a.base is b) or (type(b) is Inv and b.base is a)


def _join(u: tuple, v: tuple) -> tuple:
    """The reduced word of u*v for reduced words u and v (every word of a
    normal form is reduced): w*inv(w) -> 1 is confluent, so pairs cancel
    only where the two meet, and only when the meeting pair does."""
    if not u:
        return v
    if not v:
        return u
    a, b = u[-1], v[0]
    if not ((type(a) is Inv and a.base is b)
            or (type(b) is Inv and b.base is a)):
        return u + v
    i, n = 1, min(len(u), len(v))
    while i < n and _inverse_pair(u[-1 - i], v[i]):
        i += 1
    return u[:len(u) - i] + v[i:]


def _nf_put(a: NF, k: Key, c: Coeff) -> None:
    """Add the term c*k into a, which the caller owns."""
    s = a.get(k)
    if s is None:
        a[k] = c
    else:
        s += c
        if s:
            a[k] = s
        else:
            del a[k]


def _nf_add(a: NF, b: NF) -> NF:
    """a + b, added into a, which the caller owns; returns a."""
    for k, c in b.items():
        _nf_put(a, k, c)
    return a


def _nf_scale(a: NF, c: Coeff) -> NF:
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def _nf_mul(a: NF, b: NF) -> NF:
    if len(a) * len(b) > MAX_TERMS:
        raise TermBudgetError(f"a product of {len(a)} by {len(b)} terms "
                              f"exceeds the budget of {MAX_TERMS} terms")
    out: NF = {}
    for (ca, wa), va in a.items():
        for (cb, wb), vb in b.items():
            key = (_merge_cmono(ca, cb) if ca and cb else ca or cb,
                   _join(wa, wb) if wa and wb else wa or wb)
            s = out.get(key)  # `_nf_put` in line: the hottest loop
            if s is None:
                out[key] = va * vb
            else:
                s += va * vb
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def clear_denominators(n: NF) -> tuple[NF, int]:
    """(d*n, d) for the least common denominator d of n's coefficients:
    d*n has int coefficients (n itself is returned when all of its are
    ints already).  A map linear over the rationals then runs on ints
    only, and its value on n is its value on d*n divided by d
    (`nf_divide`)."""
    dens = [v.denominator for v in n.values() if type(v) is not int]
    if not dens:
        return n, 1
    d = lcm(*dens)
    return {k: v * d if type(v) is int else v.numerator * (d // v.denominator)
            for k, v in n.items()}, d


def nf_divide(n: NF, d: int) -> NF:
    """n / d, coefficient by coefficient (`quotient`)."""
    return n if d == 1 else {k: quotient(v, d) for k, v in n.items()}


def _atom_nf(atom: Expr, exp: int = 1) -> NF:
    if is_commuting_atom(atom):
        return {(((atom, exp),), ()): 1}
    return {((), (atom,)): 1}


def nf(e: Expr) -> NF:
    """The normal form of e.  An Add or Mul that `rebuild` returned answers
    with the normal form it carries: no caller mutates a normal form."""
    if isinstance(e, Rat):
        return {((), ()): e.value} if e.value else {}
    if isinstance(e, (Jet, Coord, Sym, CMat, Pot, Base)):
        return _atom_nf(e)
    if isinstance(e, Fn):
        arg = nf(e.arg)
        if not arg:  # a nonzero constant argument stays symbolic: no floats
            v = FUNC_AT_ZERO[e.fname]
            return {((), ()): v} if v else {}
        return _atom_nf(Fn(e.fname, rebuild(arg)))
    if type(e) in (Add, Mul) and e.form is not None:
        return e.form
    if isinstance(e, Add):
        out: NF = {}
        for t in e.terms:
            _nf_add(out, nf(t))
        return out
    if isinstance(e, Mul):
        # rational factors multiply into one coefficient, applied once
        out, c = {((), ()): 1}, 1
        for f in e.factors:
            if isinstance(f, Rat):
                c *= f.value
            else:
                out = _nf_mul(out, nf(f))
        return out if c == 1 else _nf_scale(out, c)
    if isinstance(e, Inv):  # its base is an invertible atom (`Inv`)
        if is_commuting_atom(e.base):
            return _atom_nf(e.base, -1)
        return _atom_nf(e)  # matrix atom inverse: opaque word factor
    if isinstance(e, Comm):
        lhs, rhs = nf(e.lhs), nf(e.rhs)
        return _nf_add(_nf_mul(lhs, rhs), _nf_scale(_nf_mul(rhs, lhs), -1))
    raise TypeError(f"cannot normalize node {type(e).__name__}")


def map_nf(n: NF, values: Callable[[Jet], Optional[NF]]) -> NF:
    """The image of n under the ring homomorphism that sends each jet j
    with values(j) not None to that normal form and fixes every other
    atom; an inverse or an analytic function maps through what it holds.
    A term with no mapped factor passes through; any other is the product
    of its coefficient, the rest of its monomial and each mapped factor's
    image, in the order `rebuild` lays the term out, taken on ints.  An
    integral coefficient comes back an int."""
    images: dict[Expr, Optional[NF]] = {}  # factor -> image, None if fixed

    def image(f: Expr) -> Optional[NF]:
        if f not in images:
            im = values(f) if type(f) is Jet else None
            if type(f) is Inv:  # its base is an atom
                im = values(f.base) if type(f.base) is Jet else None
                im = None if im is None else nf(inverse(rebuild(im)))
            elif type(f) is Fn:  # nf folds a function at 0
                arg = nf(f.arg)
                im = map_nf(arg, values)
                im = None if im == arg else nf(Fn(f.fname, rebuild(im)))
            images[f] = im
        return images[f]

    out: NF = {}  # the terms that the map fixes
    mapped: NF = {}
    for key, c in n.items():
        if type(c) is not int and c.denominator == 1:
            c = c.numerator  # as `nf` reads a coefficient
        if any(image(a if e > 0 else Inv(a)) is not None for a, e in key[0]) \
                or any(image(f) is not None for f in key[1]):
            mapped[key] = c
        else:
            out[key] = c
    if not mapped:
        return out
    mapped, d = clear_denominators(mapped)  # the map is linear
    total: Optional[NF] = None  # d times the image of the mapped terms
    for (cmono, word), c in mapped.items():
        fixed, factors = [], []
        for a, e in cmono:  # a^e, e < 0, is laid out as inv(a)^-e
            im = image(a if e > 0 else Inv(a))
            if im is None:
                fixed.append((a, e))
            else:
                factors += [im] * abs(e)
        p = {(tuple(fixed), ()): c}
        for im in factors:
            p = _nf_mul(p, im)
        start = 0  # the fixed factors of the word from here go in as one
        for i, f in enumerate(word):
            im = image(f)
            if im is not None:
                if start < i:
                    p = _nf_mul(p, {((), word[start:i]): 1})
                p = _nf_mul(p, im)
                start = i + 1
        if start < len(word):
            p = _nf_mul(p, {((), word[start:]): 1})
        if total is None:  # p is made here: taken, not copied term by term
            total = p
        else:
            _nf_add(total, p)
    return _nf_add(nf_divide(total, d), out)


def _term_sort_key(item):
    """The order of a (term key, coefficient) item: word length, then the
    word, then the commuting monomial.  Every factor of a term key is an
    interned atom, and atoms order by their key (`core.Atom`)."""
    cmono, word = item[0]
    return len(word), word, cmono


def rebuild(n: NF) -> Expr:
    """Deterministic canonical expression from an internal normal form.
    An Add or Mul it returns carries, as its `form`, the normal form that
    `nf` would compute from the tree: the terms in the tree's order, each
    integral coefficient an int."""
    terms, form = [], {}
    for (cmono, word), coeff in sorted(n.items(), key=_term_sort_key):
        if type(coeff) is not int and coeff.denominator == 1:
            coeff = coeff.numerator
        form[cmono, word] = coeff
        factors: list[Expr] = [] if coeff == 1 else [Rat(coeff)]
        for atom, exp in cmono:
            if exp == 1:
                factors.append(atom)
            elif exp > 0:
                factors.extend([atom] * exp)
            else:
                factors.extend([Inv(atom)] * -exp)
        factors.extend(word)
        if not factors:
            factors.append(Rat(1))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    if not terms:
        return ZERO
    e = terms[0] if len(terms) == 1 else Add(tuple(terms))
    if type(e) in (Add, Mul):
        object.__setattr__(e, "form", form)
    return e


def normal_form(e: Expr) -> Expr:
    return rebuild(nf(e))


def is_zero(e: Expr) -> bool:
    return not nf(e)


def substitute(e: Expr, target: Jet, replacement: Expr) -> Expr:
    """Replace every occurrence of exactly the jet coordinate `target` and
    normalize.  An inverse of the target raises as the replacement's
    inverse does, also where the normal form of e cancels it."""
    if not isinstance(target, Jet):
        raise TypeError("substitution target must be a jet coordinate")
    r = nf(replacement)
    if any(type(x) is Inv and x.base is target for x in nodes(e)):
        inverse(rebuild(r))
    return rebuild(map_nf(nf(e), lambda j: r if j is target else None))


def collect_jets(e: Expr) -> set[Jet]:
    """All jet atoms occurring anywhere in e (including function arguments)."""
    return {x for x in nodes(e) if type(x) is Jet}
