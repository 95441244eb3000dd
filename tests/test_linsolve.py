"""Sparse exact elimination checked against sympy's dense rational matrices
on seeded random systems: full-rank, rank-deficient (columns that are
combinations of earlier or later ones), consistent and inconsistent."""
from fractions import Fraction
from random import Random

import pytest

from jetsym.linsolve import rank, solve

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
