"""Exact rational elimination over sparse columns (no pivot tolerances: no
floats).

A column is a dict from row key to a nonzero rational, an `int` or a
`Fraction` (normal-form coefficients are ints while they are integral);
keys need only be hashable.  `Echelon(columns)` factors a list of columns
once and then solves any number of targets against it.  Columns are taken
in order, and each is reduced against the pivots found before it.  A
nonzero remainder makes it a pivot, so the pivot columns are exactly the
columns independent of the columns before them, whatever the row order and
whichever key is chosen as a pivot.  `Echelon.extend(columns)` appends
columns to an echelon, each reduced against the pivots found so far, and
`Echelon(columns)` is `extend` on an empty one: extending chunk by chunk
gives the echelon built at once on the same columns in the same order, so
a system that only grows (a Backlund chain's basis) is factored once
across its growth, and a solve between two extends answers for the
columns taken so far.

Elimination runs on ints, in one loop (`_reduce`): each column is cleared
of denominators with `normalize.clear_denominators`, the one clearing
primitive, as its keys are renumbered, and the pivots are primitive int
vectors.  Only the factors that express a column in the pivots are
rationals.  `Echelon.solve` reduces a target with the same loop against
the stored pivots, which it does not change, so one echelon answers many
targets, in any order.  Every quotient goes through `core.quotient`,
the one exact quotient, which gives an int when the quotient is integral
and a Fraction otherwise, never a float.  A solution has the shape of a
column: `solve` returns {column index: coefficient} with the nonzero
coefficients only, in column order, each following the normal-form
coefficient rule (an int while it is integral).
"""
from __future__ import annotations

from math import gcd
from typing import Hashable, Optional

from .core import Coeff, quotient
from .normalize import clear_denominators, nf_divide

Column = dict[Hashable, Coeff]


def _reduce(rest: dict[int, int], s: int, keys: list[int],
            pivots: list[dict[int, int]]) -> tuple[dict[int, int], int]:
    """Reduce rest = s*column, an int vector (s an int), against the pivots
    in place, fraction-free: rest is kept as s*column - sum_i a[i]*pivot_i
    with int s and a[i]; removing pivot i multiplies rest by lead_i/g and
    subtracts rest[key_i]/g times pivot i, with g their gcd.  Returns (a, s),
    so that

        column = sum_i (a[i]/s) * pivot_i + rest/s,

    where rest is now 0 at every pivot's key.  Only the quotients a[i]/s are
    rationals, so the cost of a system does not depend on how many of its
    entries are integral."""
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
    return a, s


class Echelon:
    """Greedy column echelon form of a list of columns, fraction-free:
    pivot i is a primitive int vector (its entries have no common factor)
    that is 0 at the key of every pivot before it and nonzero at its own
    key.  Pivot i comes from column j_i, with

        column j_i = sum_{i' < i} factors_i[i'] * pivot_i' + scale_i * pivot_i,

    and it is kept as (j_i, scale_i, factors_i) for `solve`; a column that
    depends on the columns before it adds no pivot and is not kept.  Keys
    are renumbered by small ints on the way in (`_index`), so that row keys
    such as normal-form terms are hashed once, not at every elimination
    step.  `rank` is the number of pivots and `nonzeros` the number of
    their nonzero entries."""

    def __init__(self, columns: list[Column]):
        self._size = 0
        self._index: dict[Hashable, int] = {}
        self._keys: list[int] = []
        self._pivots: list[dict[int, int]] = []
        self._steps: list[tuple[int, Coeff, dict[int, Coeff]]] = []
        self.nonzeros = 0
        self.extend(columns)

    def extend(self, columns: list[Column]) -> None:
        """Append columns after those taken so far, each reduced against
        the pivots found before it: the echelon equals the one built at
        once on all the columns in the same order."""
        for j, column in enumerate(columns, self._size):
            self._size = j + 1
            column, s = clear_denominators(column)
            rest = {self._index.setdefault(k, len(self._index)): v
                    for k, v in column.items() if v}
            a, s = _reduce(rest, s, self._keys, self._pivots)
            if rest:
                c = gcd(*rest.values())
                self._keys.append(next(iter(rest)))
                self._pivots.append({k: v // c for k, v in rest.items()})
                self.nonzeros += len(rest)
                self._steps.append((j, quotient(c, s),
                                    nf_divide(a, s)))
        self.rank = len(self._pivots)

    def solve(self, target: Column) -> Optional[dict[int, Coeff]]:
        """A particular solution x of  sum_j x[j] * columns[j] = target  over
        the rationals, with every non-pivot x[j] fixed to zero (which makes
        it unique), as {j: x[j]} for the nonzero x[j] only, in column order;
        None when the system is inconsistent, at once when the target has a
        key that no column holds."""
        target, s = clear_denominators(target)
        rest: dict[int, int] = {}
        for k, v in target.items():
            if v:
                i = self._index.get(k)
                if i is None:
                    return None
                rest[i] = v
        a, s = _reduce(rest, s, self._keys, self._pivots)
        if rest:
            return None
        coeffs = nf_divide(a, s)
        # target = sum_i coeffs[i] * pivot_i; rewrite the pivots in terms of
        # their columns, last pivot first (pivot i only involves pivots
        # before it).
        x: dict[int, Coeff] = {}
        for i in range(len(self._steps) - 1, -1, -1):
            c = coeffs.pop(i, 0)
            if not c:
                continue
            j, scale, factors = self._steps[i]
            x[j] = v = quotient(c, scale)
            for p, f in factors.items():
                coeffs[p] = coeffs.get(p, 0) - v * f
        return dict(reversed(x.items()))


def solve(columns: list[Column], target: Column
          ) -> Optional[dict[int, Coeff]]:
    """`Echelon.solve` of target against the columns."""
    return Echelon(columns).solve(target)
