"""Sparse exact elimination checked against sympy's dense rational matrices
on seeded random systems: full-rank, rank-deficient (columns that are
combinations of earlier or later ones), consistent and inconsistent; and
one Echelon solving many targets against the dense references.  A solution
is sparse, {column index: coefficient}, like a column (`assert_sparse`)."""
from fractions import Fraction
from random import Random

import pytest

from jetsym.linsolve import Echelon, solve

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


def assert_sparse(x: dict, columns: int) -> None:
    """The shape of a solution: column indices in column order, only
    nonzero coefficients, each an int while it is integral."""
    assert list(x) == sorted(x)
    assert all(0 <= j < columns for j in x)
    assert all(v for v in x.values())
    assert all(type(v) is int if Fraction(v).denominator == 1
               else type(v) is Fraction for v in x.values())


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
    assert Echelon(cols).rank == a.rank()
    if x is None:
        return
    assert_sparse(x, len(cols))
    got: dict = {}
    for j, xj in x.items():
        for k, v in cols[j].items():
            got[k] = got.get(k, 0) + xj * v
    assert {k: v for k, v in got.items() if v} == target
    _, pivots = a.rref()
    assert set(x) <= set(pivots)


def test_solution_is_sparse_in_column_order():
    """Echelon.solve returns {column index: coefficient} for the nonzero
    coefficients only, in column order, an int where one is integral:
    the dependent columns 1 and 3 and the unused column 5 are absent."""
    cols = [{"a": 2}, {"a": 4}, {"b": 3}, {"a": 1, "b": 1},
            {"c": Fraction(1, 2)}, {"d": 1}]
    target = {"a": 1, "b": 6, "c": 1}
    x = Echelon(cols).solve(target)
    assert x == reference_solve(cols, target) == {0: Fraction(1, 2), 2: 2,
                                                  4: 2}
    assert list(x) == [0, 2, 4]
    assert [type(v) for v in x.values()] == [Fraction, int, int]


def test_empty_system():
    assert solve([], {}) == {}
    assert solve([], {"k": Fraction(1)}) is None
    assert Echelon([]).rank == 0


def test_nonzeros_counts_the_entries_of_the_pivots():
    """A dependent column adds no pivot and no entries; a reduced column
    adds its pivot's nonzero entries: {0: 1, 1: 1} less a multiple of the
    first pivot is nonzero at two keys, whichever key that pivot has."""
    e = Echelon([{0: 4, 1: 1, 2: 3}, {0: 8, 1: 2, 2: 6}])
    assert (e.rank, e.nonzeros) == (1, 3)
    e.extend([{0: 1, 1: 1}])
    assert (e.rank, e.nonzeros) == (2, 5)
    assert Echelon([]).nonzeros == 0


def test_solution_is_exact():
    cols = [{"a": Fraction(3), "b": Fraction(1)}, {"a": Fraction(1)}]
    assert solve(cols, {"a": Fraction(1), "b": Fraction(1, 3)}) == {
        0: Fraction(1, 3)}


def test_integer_system_with_a_fractional_solution():
    """Integer entries, as normal forms give them, whose solution is not
    integral: 2a + b = 1, a + 3b = 0."""
    cols, target = [{0: 2, 1: 1}, {0: 1, 1: 3}], {0: 1}
    x = solve(cols, target)
    assert x == reference_solve(cols, target) == {0: Fraction(3, 5),
                                                  1: Fraction(-1, 5)}
    assert all(type(v) is Fraction for v in x.values())
    assert Echelon(cols).rank == reference_rank(cols) == 2
    assert solve(cols, {0: 4, 1: 7}) == {0: 1, 1: 2}
    assert all(type(v) is int for v in solve(cols, {0: 4, 1: 7}).values())
    # Fraction entries whose solution is integral: ints come out
    x = solve([{0: Fraction(1, 2)}, {1: Fraction(2, 3)}], {0: 1, 1: 2})
    assert x == {0: 2, 1: 3}
    assert all(type(v) is int for v in x.values())


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
    if x is not None:
        assert_sparse(x, len(cols))
    assert Echelon(cols).rank == reference_rank(cols)


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
    assert Echelon(cols).rank == Echelon([{k: aj * v for k, v in c.items()}
                                          for aj, c in zip(a, cols)]).rank
    if x is None:
        assert y is None
    else:
        assert y == {j: b * xj / a[j] for j, xj in x.items()}


@pytest.mark.parametrize("seed", range(CASES))
def test_one_echelon_solves_many_targets(seed):
    """Targets A, B, A against one echelon, each answered as the dense
    reference answers it: A gets the same answer both times, so a solve
    leaves the echelon as it found it."""
    keys, cols, a = random_system(seed)
    rng = Random(f"targets-{seed}")
    b = (_combine(rng, cols) if rng.random() < 0.5 else
         {k: _rat(rng) for k in rng.sample(keys, min(3, len(keys)))})
    echelon = Echelon(cols)
    first = echelon.solve(a)
    assert first == reference_solve(cols, a)
    assert echelon.solve(b) == reference_solve(cols, b)
    assert echelon.solve(a) == first
    assert echelon.rank == reference_rank(cols)


def test_a_key_that_no_column_holds_is_inconsistent():
    echelon = Echelon([{"a": 1, "b": 2}, {"b": Fraction(1, 3)}])
    assert echelon.solve({"c": 1}) is None
    assert echelon.solve({"a": 1, "c": 1}) is None
    assert echelon.solve({"a": 1, "b": 2}) == {0: 1}  # no key was added
    assert Echelon([]).solve({"a": 1}) is None


def test_dependent_columns_keep_coefficient_zero():
    c0, c1 = {"a": 2, "b": 1}, {"b": 3, "c": Fraction(-1, 2)}
    cols = [c0, {k: 2 * v for k, v in c0.items()}, c1,
            {k: c0.get(k, 0) + c1.get(k, 0) for k in {*c0, *c1}}, {}]
    echelon = Echelon(cols)
    assert echelon.rank == 2
    target = {"a": 4, "b": 5, "c": Fraction(-1, 2)}  # 2*c0 + c1
    assert echelon.solve(target) == {0: 2, 2: 1}
    assert echelon.solve(target) == reference_solve(cols, target)


def _other_target(rng: Random, keys: list, cols: list[dict]) -> dict:
    return (_combine(rng, cols) if cols and rng.random() < 0.5 else
            {k: _rat(rng) for k in rng.sample(keys, min(3, len(keys)))})


@pytest.mark.parametrize("seed", range(CASES))
def test_extending_chunk_by_chunk_gives_the_one_shot_echelon(seed):
    """The columns split at random points (empty chunks included) and
    appended chunk by chunk, with a solve against the columns taken so far
    between two extends: every partial solve, the rank and the solve of
    several targets at the end equal those of the one-shot Echelon and
    the dense reference."""
    keys, cols, a = random_system(seed)
    rng = Random(f"extend-{seed}")
    targets = [a, _other_target(rng, keys, cols), {}]
    cuts = sorted(rng.choices(range(len(cols) + 1), k=rng.randint(0, 3)))
    bounds = [0, *cuts, len(cols)]
    echelon = Echelon([])
    for lo, hi in zip(bounds, bounds[1:]):
        echelon.extend(cols[lo:hi])
        assert echelon.solve(a) == reference_solve(cols[:hi], a)
        assert echelon.rank == reference_rank(cols[:hi])
    one_shot = Echelon(cols)
    assert echelon.rank == one_shot.rank == reference_rank(cols)
    for target in targets:
        assert (echelon.solve(target) == one_shot.solve(target)
                == reference_solve(cols, target))


def test_extend_with_no_columns_is_a_no_op():
    cols = [{"a": 2, "b": 1}, {"b": 3}, {"a": 4, "b": 2}]
    echelon = Echelon(cols)
    target = {"a": 2, "b": 4}
    before = echelon.solve(target)
    echelon.extend([])
    assert echelon.rank == 2
    assert echelon.solve(target) == before == reference_solve(cols, target)
    empty = Echelon([])
    empty.extend([])
    assert empty.rank == 0 and empty.solve({}) == {}
    assert empty.solve({"a": 1}) is None
