"""Sparse exact elimination checked against sympy's dense rational matrices
on seeded random systems: full-rank, rank-deficient (columns that are
combinations of earlier or later ones), consistent and inconsistent."""
from fractions import Fraction
from random import Random

import pytest

from jetsym.linsolve import rank, solve

from helpers import reference_rank, reference_solve

sympy = pytest.importorskip("sympy")

CASES = 300


def _rat(rng: Random) -> Fraction:
    num = 0
    while not num:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.choice([1, 1, 2, 3, 7]))


def _combine(rng: Random, cols: list[dict]) -> dict:
    out: dict = {}
    for col in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
        c = _rat(rng)
        for k, v in col.items():
            s = out.get(k, 0) + c * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def random_system(seed: int):
    """(keys, columns, target): sparse columns over hashable keys, some of
    them dependent on the others; the target is in their span or not."""
    rng = Random(seed)
    keys = [("row", i, rng.choice("abc")) for i in range(rng.randint(1, 12))]
    cols: list[dict] = []
    for _ in range(rng.randint(1, 12)):
        if cols and rng.random() < 0.3:
            cols.insert(rng.randint(0, len(cols)), _combine(rng, cols))
        elif rng.random() < 0.05:
            cols.append({})
        else:
            chosen = rng.sample(keys, rng.randint(1, min(3, len(keys))))
            cols.append({k: _rat(rng) for k in chosen})
    kind = rng.random()
    if kind < 0.45:
        target = _combine(rng, cols)
    elif kind < 0.55:
        target = {}
    else:
        chosen = rng.sample(keys, rng.randint(1, min(4, len(keys))))
        target = {k: _rat(rng) for k in chosen}
    order = list(keys)
    rng.shuffle(order)  # row order must not matter
    return order, cols, target


def dense(keys, cols, target):
    a = sympy.Matrix([[sympy.Rational(c.get(k, 0)) for c in cols]
                      for k in keys])
    b = sympy.Matrix([sympy.Rational(target.get(k, 0)) for k in keys])
    return a, b


@pytest.mark.parametrize("seed", range(CASES))
def test_solve_and_rank_match_sympy(seed):
    keys, cols, target = random_system(seed)
    a, b = dense(keys, cols, target)
    consistent = a.rank() == a.row_join(b).rank()
    x = solve(cols, target)
    assert (x is not None) == consistent
    assert rank(cols) == a.rank()
    if x is None:
        return
    assert len(x) == len(cols)
    assert all(isinstance(v, Fraction) for v in x)
    got: dict = {}
    for xj, col in zip(x, cols):
        for k, v in col.items():
            got[k] = got.get(k, 0) + xj * v
    assert {k: v for k, v in got.items() if v} == target
    _, pivots = a.rref()
    assert all(not x[j] for j in range(len(cols)) if j not in pivots)


def test_empty_system():
    assert solve([], {}) == []
    assert solve([], {"k": Fraction(1)}) is None
    assert rank([]) == 0


def test_solution_is_exact():
    cols = [{"a": Fraction(3), "b": Fraction(1)}, {"a": Fraction(1)}]
    assert solve(cols, {"a": Fraction(1), "b": Fraction(1, 3)}) == [
        Fraction(1, 3), Fraction(0)]


def test_integer_system_with_a_fractional_solution():
    """Integer entries, as normal forms give them, whose solution is not
    integral: 2a + b = 1, a + 3b = 0."""
    cols, target = [{0: 2, 1: 1}, {0: 1, 1: 3}], {0: 1}
    x = solve(cols, target)
    assert x == reference_solve(cols, target) == [Fraction(3, 5),
                                                  Fraction(-1, 5)]
    assert all(type(v) is Fraction for v in x)
    assert rank(cols) == reference_rank(cols) == 2
    assert solve(cols, {0: 4, 1: 7}) == [1, 2]
    assert all(type(v) is Fraction for v in solve(cols, {0: 4, 1: 7}))


@pytest.mark.parametrize("seed", range(100))
def test_integer_systems_match_the_fraction_only_elimination(seed):
    """Seeded integer systems, with dependent columns and pivots other than
    +-1, against a dense elimination that uses Fractions only."""
    rng = Random(seed)
    keys = list(range(rng.randint(1, 6)))
    cols: list[dict] = []
    for _ in range(rng.randint(1, 6)):
        if cols and rng.random() < 0.3:
            a, b = rng.choice(cols), rng.choice(cols)
            col = {k: 2 * a.get(k, 0) - 3 * b.get(k, 0) for k in keys}
        else:
            col = {k: rng.randint(-6, 6)
                   for k in rng.sample(keys, min(2, len(keys)))}
        cols.append({k: v for k, v in col.items() if v})
    target = {k: rng.randint(-6, 6) for k in keys}
    target = {k: v for k, v in target.items() if v}
    x = solve(cols, target)
    assert x == reference_solve(cols, target), seed
    assert x is None or all(type(v) is Fraction for v in x)
    assert rank(cols) == reference_rank(cols)


@pytest.mark.parametrize("seed", range(100))
def test_solution_scales_with_columns_and_target(seed):
    """Scaling column j by a[j] and the target by b scales x[j] by
    b / a[j]: the pivot columns stay the same, so the particular solution
    does too.  Elimination clears every column of denominators, so this
    holds only if that clearing is exact."""
    keys, cols, target = random_system(seed)
    rng = Random(f"scale-{seed}")
    a = [_rat(rng) for _ in cols]
    b = _rat(rng)
    x = solve(cols, target)
    y = solve([{k: aj * v for k, v in c.items()} for aj, c in zip(a, cols)],
              {k: b * v for k, v in target.items()})
    assert rank(cols) == rank([{k: aj * v for k, v in c.items()}
                               for aj, c in zip(a, cols)])
    if x is None:
        assert y is None
    else:
        assert y == [b * xj / aj for xj, aj in zip(x, a)]
