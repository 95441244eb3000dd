"""Canonical form for noncommutative jet-space expressions.

A normal form is a sum of terms (rational coefficient, commuting monomial,
noncommutative word).  A coefficient is an `int` while it is integral and
a `Fraction` otherwise (an integral value that arithmetic with a Fraction
produced may stay a Fraction); it is never a float, and the two compare
and hash alike.  Fraction arithmetic costs many times int arithmetic, so
a map linear over the rationals runs on its input cleared of denominators
(`clear_denominators`) and divides its value back once (`nf_divide`);
then its cost does not depend on whether the input's coefficients happen
to be integral.  The commuting monomial collects scalar-class atoms with
integer exponents, sorted by their `key`; the word is the ordered tuple of
matrix-class factors.  Atoms are interned, so term keys hash by identity.
Rewrites applied: distribute products over sums, flatten, extract scalars,
cancel adjacent w*inv(w) pairs, expand commutators, collect like terms.
Commutators between scalar-class expressions therefore collapse to zero,
and fully commuting words reorder into the canonical monomial.

The normaliser is also the one walk that substitutes: `nf(e, values)` takes
a map from jets to normal forms and uses the mapped normal form for each
mapped jet as it goes, so `substitute` and the reduction mod F
(`symmetry.reduce_mod_pde`) add no tree walk of their own, and a mapped
value is never normalized again.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

from .core import (Add, Base, CMat, Comm, Coord, Expr, Fn, Inv, InversionError,
                   Jet, JetsymError, Mul, Pot, Rat, Sym, ZERO, children,
                   expr_key, inverse, is_commuting_atom)

# cmono: tuple[(atom, int exponent)] sorted by atom.key; word: tuple[factor]
Key = tuple[tuple, tuple]
Coeff = Union[int, Fraction]
NF = dict[Key, Coeff]

#: most terms a product may form, as the product of its factors' term counts
MAX_TERMS = 250_000


class TermBudgetError(JetsymError):
    """A product of normal forms would exceed MAX_TERMS terms."""


def _atom_order(item: tuple) -> tuple:
    return item[0].key


def _merge_cmono(a: tuple, b: tuple) -> tuple:
    """The product of two commuting monomials."""
    if not a:
        return b
    if not b:
        return a
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
    only where the two meet."""
    if not u:
        return v
    if not v:
        return u
    i, n = 0, min(len(u), len(v))
    while i < n and _inverse_pair(u[-1 - i], v[i]):
        i += 1
    return u[:len(u) - i] + v[i:] if i else u + v


def _nf_add(a: NF, b: NF) -> NF:
    """a + b, added into a, which the caller owns; returns a."""
    for k, c in b.items():
        s = a.get(k)
        if s is None:
            a[k] = c
        else:
            s += c
            if s:
                a[k] = s
            else:
                del a[k]
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
            key = (_merge_cmono(ca, cb), _join(wa, wb))
            s = out.get(key)
            if s is None:
                out[key] = va * vb
            else:
                s += va * vb
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def clear_denominators(ns: list[NF]) -> tuple[list[NF], int]:
    """([d*n for n in ns], d) for the least common denominator d of all
    their coefficients: every d*n has int coefficients, and d is 1 (and the
    normal forms are returned as they are) when none holds a Fraction.  A
    map linear over the rationals then runs on ints only, and its value
    on ns is its value on the d*n divided by d (`nf_divide`)."""
    d = 1
    for n in ns:
        for v in n.values():
            if type(v) is not int:
                d = lcm(d, v.denominator)
    if d == 1:
        return ns, 1
    return [{k: v * d if type(v) is int else v.numerator * (d // v.denominator)
             for k, v in n.items()} for n in ns], d


def nf_divide(n: NF, d: int) -> NF:
    """n / d, exactly: an int coefficient stays an int when d divides it."""
    if d == 1:
        return n
    out: NF = {}
    for k, v in n.items():
        if type(v) is int:
            q, r = divmod(v, d)
            out[k] = Fraction(v, d) if r else q
        else:
            out[k] = v / d
    return out


def _atom_nf(atom: Expr, exp: int = 1) -> NF:
    if is_commuting_atom(atom):
        return {(((atom, exp),), ()): 1}
    return {((), (atom,)): 1}


def nf(e: Expr, values: dict[Jet, NF] | None = None) -> NF:
    """The normal form of e with every jet that `values` maps replaced by
    its mapped normal form, everywhere in e (function arguments, inverses
    and commutators included).  The returned dict may be a value of
    `values`; no caller mutates a normal form."""
    if isinstance(e, Rat):
        v = e.value
        if not v:
            return {}
        return {((), ()): v.numerator if v.denominator == 1 else v}
    if isinstance(e, Jet):
        if values is not None and e in values:
            return values[e]
        return _atom_nf(e)
    if isinstance(e, (Coord, Sym, CMat, Pot, Base)):
        return _atom_nf(e)
    if isinstance(e, Fn):
        return _atom_nf(Fn(e.fname, rebuild(nf(e.arg, values))))
    if isinstance(e, Add):
        out: NF = {}
        for t in e.terms:
            _nf_add(out, nf(t, values))
        return out
    if isinstance(e, Mul):
        # rational factors multiply into one coefficient, applied once
        out, c = {((), ()): 1}, 1
        for f in e.factors:
            if isinstance(f, Rat):
                v = f.value
                c *= v.numerator if v.denominator == 1 else v
            else:
                out = _nf_mul(out, nf(f, values))
        if c == 1:
            return out
        return _nf_scale(out, c.numerator if c.denominator == 1 else c)
    if isinstance(e, Inv):
        base = e.base
        if values is not None and base in values:
            return nf(inverse(rebuild(values[base])))
        if isinstance(base, Rat):
            return nf(inverse(base))
        if is_commuting_atom(base):
            if not (isinstance(base, Jet) and not base.idx
                    and base.dep.invertible):
                raise InversionError(
                    f"scalar inverse only for the declared-nonzero dependent")
            return _atom_nf(base, -1)
        return _atom_nf(e)  # matrix atom inverse: opaque word factor
    if isinstance(e, Comm):
        lhs, rhs = nf(e.lhs, values), nf(e.rhs, values)
        return _nf_add(_nf_mul(lhs, rhs), _nf_scale(_nf_mul(rhs, lhs), -1))
    raise TypeError(f"cannot normalize node {type(e).__name__}")


def key_sort_key(key: Key) -> tuple:
    """Sortable surrogate for an internal term key (word length, then word
    factor keys, then commuting-monomial keys)."""
    cmono, word = key
    wkeys = tuple(expr_key(f) for f in word)
    ckeys = tuple((expr_key(a), e) for a, e in cmono)
    return (len(word), wkeys, ckeys)


def _term_sort_key(item):
    return key_sort_key(item[0])


def rebuild(n: NF) -> Expr:
    """Deterministic canonical expression from an internal normal form."""
    terms = []
    for (cmono, word), coeff in sorted(n.items(), key=_term_sort_key):
        factors: list[Expr] = []
        for atom, exp in cmono:
            if exp >= 0:
                factors.extend([atom] * exp)
            else:
                factors.extend([Inv(atom)] * (-exp))
        factors.extend(word)
        if coeff != 1 or not factors:
            factors.insert(0, Rat(coeff))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def normal_form(e: Expr) -> Expr:
    return rebuild(nf(e))


def is_zero(e: Expr) -> bool:
    return not nf(e)


def substitute(e: Expr, target: Jet, replacement: Expr) -> Expr:
    """Replace every occurrence of exactly the jet coordinate `target`;
    the result is normalized."""
    if not isinstance(target, Jet):
        raise TypeError("substitution target must be a jet coordinate")
    return rebuild(nf(e, {target: nf(replacement)}))


def collect_jets(e: Expr) -> set[Jet]:
    """All jet atoms occurring anywhere in e (including function arguments)."""
    return _jets([e])


def nf_jets(n: NF) -> set[Jet]:
    """All jet atoms occurring anywhere in the normal form n (including
    function arguments)."""
    return _jets([f for cmono, word in n
                  for f in (*(a for a, _ in cmono), *word)])


def _jets(stack: list[Expr]) -> set[Jet]:
    out: set[Jet] = set()
    while stack:
        x = stack.pop()
        if isinstance(x, Jet):
            out.add(x)
        else:
            stack.extend(children(x))
    return out
