"""Canonical form for noncommutative jet-space expressions.

A normal form is a sum of terms (rational coefficient, commuting monomial,
noncommutative word).  The commuting monomial collects scalar-class atoms
with integer exponents; the word is the ordered tuple of matrix-class
factors.  Rewrites applied: distribute products over sums, flatten, extract
scalars, cancel adjacent w*inv(w) pairs, expand commutators, collect like
terms.  Commutators between scalar-class expressions therefore collapse to
zero, and fully commuting words reorder into the canonical monomial.

The normaliser is also the one walk that substitutes: `nf(e, values)` takes
a map from jets to normal forms and uses the mapped normal form for each
mapped jet as it goes, so `substitute` and the reduction mod F
(`symmetry.reduce_mod_pde`) add no tree walk of their own, and a mapped
value is never normalized again.
"""
from __future__ import annotations

from fractions import Fraction

from .core import (Add, Base, CMat, Comm, Coord, Expr, Fn, Inv, InversionError,
                   Jet, JetsymError, Mul, Pot, Rat, Sym, ZERO, children,
                   expr_key, inverse, is_commuting_atom)

# cmono: tuple[(atom, int exponent)] sorted by expr_key; word: tuple[factor]
Key = tuple[tuple, tuple]
NF = dict[Key, Fraction]

#: most terms a product may form, as the product of its factors' term counts
MAX_TERMS = 250_000


class TermBudgetError(JetsymError):
    """A product of normal forms would exceed MAX_TERMS terms."""


def _merge_cmono(a: tuple, b: tuple) -> tuple:
    exps: dict[Expr, Fraction] = {}
    order: dict[Expr, tuple] = {}
    for atom, e in a + b:
        exps[atom] = exps.get(atom, 0) + e
        order.setdefault(atom, expr_key(atom))
    items = [(atom, e) for atom, e in exps.items() if e != 0]
    items.sort(key=lambda it: order[it[0]])
    return tuple(items)


def _cancel_word(word: tuple) -> tuple:
    """The reduced word: one stack pass, since w*inv(w) -> 1 is confluent."""
    kept: list = []
    for b in word:
        a = kept[-1] if kept else None
        if (isinstance(a, Inv) and a.base == b) or \
           (isinstance(b, Inv) and b.base == a):
            kept.pop()
        else:
            kept.append(b)
    return tuple(kept)


def _nf_add(a: NF, b: NF) -> NF:
    """a + b, added into a, which the caller owns; returns a."""
    for k, c in b.items():
        s = a.get(k, 0) + c
        if s:
            a[k] = s
        else:
            a.pop(k, None)
    return a


def _nf_scale(a: NF, c: Fraction) -> NF:
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
            key = (_merge_cmono(ca, cb), _cancel_word(wa + wb))
            s = out.get(key, 0) + va * vb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _atom_nf(atom: Expr, exp: int = 1) -> NF:
    if is_commuting_atom(atom):
        return {(((atom, exp),), ()): Fraction(1)}
    return {((), (atom,)): Fraction(1)}


def nf(e: Expr, values: dict[Jet, NF] | None = None) -> NF:
    """The normal form of e with every jet that `values` maps replaced by
    its mapped normal form, everywhere in e (function arguments, inverses
    and commutators included).  The returned dict may be a value of
    `values`; no caller mutates a normal form."""
    if isinstance(e, Rat):
        return {((), ()): e.value} if e.value else {}
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
        out = {((), ()): Fraction(1)}
        for f in e.factors:
            out = _nf_mul(out, nf(f, values))
        return out
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
        return _nf_add(_nf_mul(lhs, rhs), _nf_scale(_nf_mul(rhs, lhs),
                                                     Fraction(-1)))
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
