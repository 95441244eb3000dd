"""total_derivative, char_derivative and the formal partial d/du_J (as
`calculus.derive_nf` with the atom map 1 on u_J and 0 elsewhere) checked
against sympy's chain rule in jet space, on seeded random scalar expressions:
polynomials in the jets and coordinates, times sin and exp of such
polynomials.  The sympy side shares no code with the engine's derivation:
jets are plain symbols and

    D_i f = df/dx^i + sum_J u_{J+i} df/du_J,    D_Q f = sum_J (D_J Q) df/du_J.

normal_form itself is checked against sympy.expand on products and sums
with integral and non-integral rational coefficients and inv(u).
"""
from fractions import Fraction
from random import Random

import pytest

from jetsym import (Characteristic, Dependent, Problem, add, char_derivative,
                    func, inverse, mul, normal_form, total_derivative)
from jetsym.calculus import derivation, derive_nf
from jetsym.core import Add, Coord, Fn, Inv, Jet, Mul, Rat
from jetsym.normalize import nf, rebuild

sympy = pytest.importorskip("sympy")

CASES = 100

P = Problem(coords=["x", "t"], dependent=Dependent("u"))
COORDS = [sympy.Symbol(c.name) for c in P.coordinates]
LEAVES = [P.coordinate("x"), P.coordinate("t")] + [
    P.jet(s) for s in ("", "x", "t", "xx", "xt", "tt")]


def _jet(idx: tuple) -> sympy.Symbol:
    names = "".join(P.coordinates[i].name for i in sorted(idx))
    return sympy.Symbol(f"u_{names}" if names else "u")


def _jet_index(s: sympy.Symbol):
    """The multi-index of a jet symbol (u, u_x, u_xt, ...), else None."""
    if s.name == "u" or s.name.startswith("u_"):
        return tuple(P.coordinate(c).index for c in s.name[2:])
    return None


def to_sympy(e):
    if isinstance(e, Rat):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Coord):
        return COORDS[e.index]
    if isinstance(e, Jet):
        return _jet(e.idx)
    if isinstance(e, Add):
        return sympy.Add(*(to_sympy(t) for t in e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*(to_sympy(f) for f in e.factors))
    if isinstance(e, Fn):
        return getattr(sympy, e.fname)(to_sympy(e.arg))
    if isinstance(e, Inv):
        return 1 / to_sympy(e.base)
    raise TypeError(type(e).__name__)


def sympy_total(f, i: int):
    out = sympy.diff(f, COORDS[i])
    for s in f.free_symbols:
        idx = _jet_index(s)
        if idx is not None:
            out += _jet(idx + (i,)) * sympy.diff(f, s)
    return out


def sympy_char(f, q):
    out = 0
    for s in f.free_symbols:
        idx = _jet_index(s)
        if idx is not None:
            dq = q
            for i in idx:
                dq = sympy_total(dq, i)
            out += dq * sympy.diff(f, s)
    return out


def _poly(rng: Random, terms: int, degree: int):
    return add(*(mul(Rat(Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
                     *(rng.choice(LEAVES)
                       for _ in range(rng.randint(0, degree))))
                 for _ in range(rng.randint(1, terms))))


def random_scalar(rng: Random):
    """A sum of polynomials, some times sin or exp of a polynomial."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [_poly(rng, 3, 3)]
        if rng.random() < 0.6:
            factors.append(func(rng.choice(["sin", "exp"]),
                                _poly(rng, 2, 2)))
        terms.append(mul(*factors))
    return add(*terms)


def _same(jetsym_result, sympy_result) -> bool:
    return sympy.expand(to_sympy(jetsym_result) - sympy_result) == 0


@pytest.mark.parametrize("seed", range(CASES))
def test_total_derivative_matches_sympy(seed):
    rng = Random(seed)
    e = random_scalar(rng)
    for c in P.coordinates:
        assert _same(total_derivative(e, c, P),
                     sympy_total(to_sympy(e), c.index)), (seed, c.name)


@pytest.mark.parametrize("seed", range(CASES))
def test_char_derivative_matches_sympy(seed):
    rng = Random(10**6 + seed)
    e = random_scalar(rng)
    q = _poly(rng, 3, 2)
    got = char_derivative(e, Characteristic("Q", q, P.dependent), P)
    assert _same(got, sympy_char(to_sympy(e), to_sympy(q))), seed


@pytest.mark.parametrize("seed", range(CASES))
def test_formal_jet_partial_matches_sympy(seed):
    e = random_scalar(Random(seed))
    f = to_sympy(e)
    one = {((), ()): 1}
    for j in LEAVES:
        if isinstance(j, Jet):
            got = derive_nf(nf(e), derivation(
                lambda a: one if a is j else {}, {}))
            assert _same(rebuild(got), sympy.diff(f, _jet(j.idx))), \
                (seed, j.idx)


# the same coordinates and jet names, with u declared nonzero for inv(u)
PI = Problem(coords=["x", "t"], dependent=Dependent("u", invertible=True))


def random_rational_product(rng: Random, zero_args: bool = False):
    """A sum of products of sums whose leaves are coordinates, jets and
    inv(u) with integral or non-integral rational coefficients, and at
    times sin or exp of a monomial plus a constant (sympy would evaluate a
    function of a constant, and the engine keeps it an atom).  With
    zero_args, half of the functions are instead sin, cos or exp of a
    monomial minus itself, which both evaluate at 0."""
    jets = [PI.coordinate("x"), PI.coordinate("t")] + [
        PI.jet(s) for s in ("", "x", "t", "xt")]
    leaves = jets + [inverse(PI.u)]

    def coefficient(lo=-6):
        return Rat(Fraction(rng.randint(lo, 6), rng.choice([1, 1, 2, 3, 4])))

    def summand():
        return mul(coefficient(), *(rng.choice(leaves)
                                    for _ in range(rng.randint(0, 3))))

    def factor():
        if rng.random() < 0.2:
            arg = mul(coefficient(1), *(rng.choice(jets)
                                        for _ in range(rng.randint(1, 2))))
            if zero_args and rng.random() < 0.5:
                return func(rng.choice(["sin", "cos", "exp"]), add(arg, -arg))
            return func(rng.choice(["sin", "exp"]), add(arg, coefficient()))
        return add(*(summand() for _ in range(rng.randint(1, 3))))

    return add(*(mul(*(factor() for _ in range(rng.randint(1, 3))))
                 for _ in range(rng.randint(1, 3))))


def _check_normal_form(e, seed):
    n = normal_form(e)
    assert sympy.expand(to_sympy(n) - to_sympy(e)) == 0, seed
    # like terms collected: one term per monomial, as in sympy's expansion
    want = sympy.expand(to_sympy(e))
    terms = len(n.terms) if isinstance(n, Add) else int(n != Rat(0))
    assert terms == (len(want.args) if isinstance(want, sympy.Add)
                     else int(want != 0)), seed


@pytest.mark.parametrize("seed", range(CASES))
def test_normal_form_matches_sympy(seed):
    _check_normal_form(random_rational_product(Random(2 * 10**6 + seed)), seed)


@pytest.mark.parametrize("seed", range(CASES // 2))
def test_normal_form_matches_sympy_at_zero_arguments(seed):
    """sin, cos and exp of an argument whose normal form is 0 evaluate, as
    in sympy, so like terms still collect."""
    e = random_rational_product(Random(3 * 10**6 + seed), zero_args=True)
    _check_normal_form(e, seed)
