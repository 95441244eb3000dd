"""Exact rational elimination over sparse columns (no pivot tolerances: no
floats).

A column is a dict from row key to a nonzero Fraction; keys need only be
hashable.  Columns are taken in order, and each is reduced against the
pivots found before it.  A nonzero remainder makes it a pivot, so the pivot
columns are exactly the columns independent of the columns before them,
whatever the row order and whichever key is chosen as a pivot.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Optional

Column = dict[Hashable, Fraction]


def _renumber(columns: list[Column]) -> list[Column]:
    """The same columns keyed by small ints: row keys such as normal-form
    terms are hashed once here instead of at every elimination step."""
    index: dict[Hashable, int] = {}
    return [{index.setdefault(k, len(index)): v for k, v in c.items()}
            for c in columns]


def _eliminate(columns: list[Column]
               ) -> list[tuple[dict[int, Fraction], Optional[Fraction]]]:
    """Greedy column echelon form.  Pivot i is 1 at its key and 0 at the key
    of every pivot before it.  For each column, (factors, scale) with

        column = sum_i factors[i] * pivot_i + scale * (the new pivot),

    where scale is None when the column depends on the columns before it
    (its remainder is zero) and no pivot is added."""
    keys: list[int] = []
    pivots: list[Column] = []
    out = []
    for column in columns:
        rest = {k: Fraction(v) for k, v in column.items() if v}
        factors: dict[int, Fraction] = {}
        for i, key in enumerate(keys):
            f = rest.get(key)
            if not f:
                continue
            factors[i] = f
            for k, w in pivots[i].items():
                s = rest.get(k, 0) - f * w
                if s:
                    rest[k] = s
                else:
                    del rest[k]
        scale = None
        if rest:
            key = next(iter(rest))
            scale = rest[key]
            keys.append(key)
            pivots.append({k: v / scale for k, v in rest.items()})
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
    x = [Fraction(0)] * len(steps)
    for i in range(len(pivot_steps) - 1, -1, -1):
        j, scale, factors = pivot_steps[i]
        c = coeffs.pop(i, 0)
        if not c:
            continue
        x[j] = c / scale
        for p, f in factors.items():
            coeffs[p] = coeffs.get(p, 0) - x[j] * f
    return x


def rank(columns: list[Column]) -> int:
    return sum(scale is not None for _, scale in _eliminate(_renumber(columns)))
