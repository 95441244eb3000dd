"""Exact rational elimination over sparse columns (no pivot tolerances: no
floats).

A column is a dict from row key to a nonzero rational, an `int` or a
`Fraction` (normal-form coefficients are ints while they are integral);
keys need only be hashable.  Columns are taken in order, and each is
reduced against the pivots found before it.  A nonzero remainder makes it
a pivot, so the pivot columns are exactly the columns independent of the
columns before them, whatever the row order and whichever key is chosen as
a pivot.

Elimination runs on ints (`_eliminate`): each column is cleared of
denominators, and the pivots are primitive int vectors.  Only the factors
that express a column in the pivots are rationals.  Every quotient goes
through `_div`, which gives an int when the division is exact and a
Fraction otherwise, never through int / int, which would give a float.
`solve` returns Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Optional, Union

Rational = Union[int, Fraction]
Column = dict[Hashable, Rational]


def _div(a: Rational, b: Rational) -> Rational:
    """a / b exactly: an int when both are ints and b divides a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b  # one side is a Fraction, so the quotient is one too


def _renumber(columns: list[Column]) -> list[Column]:
    """The same columns keyed by small ints: row keys such as normal-form
    terms are hashed once here instead of at every elimination step."""
    index: dict[Hashable, int] = {}
    return [{index.setdefault(k, len(index)): v for k, v in c.items()}
            for c in columns]


def _cleared(column: Column) -> tuple[dict[int, int], int]:
    """(d*column, d) for the least common denominator d of its entries, so
    that d*column has int entries; zero entries are dropped."""
    d = 1
    for v in column.values():
        if type(v) is not int:
            d = lcm(d, v.denominator)
    return {k: v * d if type(v) is int else v.numerator * (d // v.denominator)
            for k, v in column.items() if v}, d


def _eliminate(columns: list[Column]
               ) -> list[tuple[dict[int, Rational], Optional[Rational]]]:
    """Greedy column echelon form, fraction-free: pivot i is a primitive int
    vector (its entries have no common factor) that is 0 at the key of
    every pivot before it and nonzero at its own key.  For each column,
    (factors, scale) with

        column = sum_i factors[i] * pivot_i + scale * (the new pivot),

    where scale is None when the column depends on the columns before it
    (its remainder is zero) and no pivot is added.

    A column is cleared of denominators and reduced on ints: the remainder
    `rest` is kept as s*column - sum_i a[i]*pivot_i with int s and a[i];
    removing pivot i multiplies rest by lead_i/g and subtracts
    rest[key_i]/g times pivot i, with g their gcd.  Only the factors
    a[i]/s and the scale are rationals, so the cost of a system does not
    depend on how many of its entries are integral."""
    keys: list[int] = []
    pivots: list[dict[int, int]] = []
    out = []
    for column in columns:
        rest, s = _cleared(column)
        a: dict[int, int] = {}
        for i, key in enumerate(keys):
            f = rest.get(key)
            if not f:
                continue
            pivot = pivots[i]
            lead = pivot[key]
            g = gcd(f, lead)
            m, f = lead // g, f // g
            if m != 1:
                s *= m
                for j in a:
                    a[j] *= m
                for k in rest:
                    rest[k] *= m
            a[i] = f
            for k, w in pivot.items():
                v = rest.get(k, 0) - f * w
                if v:
                    rest[k] = v
                else:
                    del rest[k]
        factors = {i: _div(v, s) for i, v in a.items()}
        scale = None
        if rest:
            c = gcd(*rest.values())
            keys.append(next(iter(rest)))
            pivots.append({k: v // c for k, v in rest.items()})
            scale = _div(c, s)
        out.append((factors, scale))
    return out


def solve(columns: list[Column], target: Column) -> Optional[list[Fraction]]:
    """A particular solution x of  sum_j x[j] * columns[j] = target  over the
    rationals, with every non-pivot x[j] fixed to zero (which makes it
    unique); None when the system is inconsistent."""
    *steps, (coeffs, outside) = _eliminate(_renumber([*columns, target]))
    if outside is not None:
        return None
    # target = sum_i coeffs[i] * pivot_i; rewrite the pivots in terms of their
    # columns, last pivot first (pivot i only involves pivots before it).
    pivot_steps = [(j, scale, factors)
                   for j, (factors, scale) in enumerate(steps)
                   if scale is not None]
    x: list[Rational] = [0] * len(steps)
    for i in range(len(pivot_steps) - 1, -1, -1):
        j, scale, factors = pivot_steps[i]
        c = coeffs.pop(i, 0)
        if not c:
            continue
        x[j] = _div(c, scale)
        for p, f in factors.items():
            coeffs[p] = coeffs.get(p, 0) - x[j] * f
    return [Fraction(v) for v in x]


def rank(columns: list[Column]) -> int:
    return sum(scale is not None for _, scale in _eliminate(_renumber(columns)))
