import copy
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings

from fractions import Fraction

from jetsym import (commutator, get_pde, inverse, is_zero, normal_form,
                    parse_expr, substitute)
from jetsym.calculus import char_nf, jet_totals
from jetsym.core import Comm, Fn, Inv, InversionError, Rat, children, rat
from jetsym.normalize import (_join, _nf_mul, clear_denominators,
                              collect_jets, nf, nf_divide)
from jetsym.symmetry import reduce_nf

from conftest import seeded_exprs
from helpers import (matrix_problem, random_characteristic, random_expr,
                     reference_substitute, scalar_problem)

SP = scalar_problem()
MP = matrix_problem()


def test_inverse_cancellation(mp):
    assert normal_form(mp.u * inverse(mp.u)) == rat(1)
    assert normal_form(inverse(mp.u) * mp.u) == rat(1)


def test_inverse_cancellation_cascades(mp):
    A, B, u = mp.cmat("A"), mp.cmat("B"), mp.u
    assert normal_form(B * u * inverse(u) * inverse(B) * A) == A
    assert normal_form(inverse(u) * u * inverse(u)) == inverse(u)
    # two reduced words, where one cancellation exposes the next
    assert _join((B, u), (inverse(u), inverse(B), A)) == (A,)
    assert _join((inverse(u),), (u, inverse(B))) == (inverse(B),)
    assert _join((A, u), (inverse(u),)) == (A,)


def _cancels(a, b) -> bool:
    return (isinstance(a, Inv) and a.base == b) or \
        (isinstance(b, Inv) and b.base == a)


def reference_cancel_word(word: tuple) -> tuple:
    """Delete the leftmost adjacent w*inv(w) pair until none is left."""
    w = list(word)
    while True:
        pairs = [i for i in range(len(w) - 1) if _cancels(w[i], w[i + 1])]
        if not pairs:
            return tuple(w)
        del w[pairs[0]:pairs[0] + 2]


def test_cancel_word_matches_repeated_pair_deletion(mp):
    """Any word, reduced by joining its letters one at a time."""
    u, A, B = mp.u, mp.cmat("A"), mp.cmat("B")
    letters = [u, inverse(u), A, B, inverse(B)]
    for seed in range(400):
        rng = Random(seed)
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
        reduced = ()
        for letter in word:
            reduced = _join(reduced, (letter,))
        assert reduced == reference_cancel_word(word), word


def test_join_of_reduced_words_matches_repeated_pair_deletion(mp):
    u, A, B = mp.u, mp.cmat("A"), mp.cmat("B")
    letters = [u, inverse(u), A, B, inverse(B)]
    for seed in range(400):
        rng = Random(seed)
        left, right = (reference_cancel_word(tuple(
            rng.choice(letters) for _ in range(rng.randint(0, 8))))
            for _ in range(2))
        assert _join(left, right) == reference_cancel_word(left + right)


def test_like_terms_collect(sp):
    assert normal_form(2 * sp.u + 3 * sp.u) == normal_form(5 * sp.u)


def test_commutativity_class(sp, mp):
    assert is_zero(sp.jet("x") * sp.u - sp.u * sp.jet("x"))
    e = mp.jet("x") * mp.u - mp.u * mp.jet("x")
    nf = normal_form(e)
    assert not is_zero(nf)
    assert len(nf.terms) == 2


def test_two_word_sum_survives(mp):
    # a(x,t)(Qu + uQ)b(x,t) with everything matrix-class keeps both words
    a, b = mp.base("a"), mp.base("b")
    q = mp.base("b")  # any matrix factor as a stand-in characteristic value
    e = normal_form(a * (q * mp.u + mp.u * q) * b)
    assert len(e.terms) == 2


def test_total_derivatives_commute_zero(sp):
    assert is_zero(sp.jet("xt") - sp.jet("tx"))


def test_substitute_heat(sp):
    ut, uxx = sp.jet("t"), sp.jet("xx")
    assert is_zero(substitute(ut - uxx, ut, uxx))
    assert substitute(ut * ut, ut, uxx) == normal_form(uxx * uxx)


def test_substitute_chiral_solved_form():
    from jetsym.catalog import get_pde
    entry = get_pde("chiral")
    p = entry.problem
    gtt = p.jet("tt")
    rhs = parse_expr("g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx", p)
    assert substitute(gtt, gtt, rhs) == normal_form(rhs)
    assert is_zero(substitute(entry.pde.f, gtt, rhs))


def _outcome(fn):
    try:
        return fn()
    except InversionError:
        return InversionError


def _enclosing_kinds(e, target) -> set:
    """The node kinds among Fn, Inv and Comm with `target` inside them."""
    kinds, stack = set(), [e]
    while stack:
        x = stack.pop()
        if isinstance(x, (Fn, Inv, Comm)) and target in collect_jets(x):
            kinds.add(type(x))
        stack.extend(children(x))
    return kinds


@pytest.mark.parametrize("problem", [SP, MP], ids=["scalar", "matrix"])
def test_substitute_matches_reference_walker(problem):
    """substitute, which substitutes inside the normaliser, agrees with a
    tree walk that rebuilds the expression first, on seeded random
    expressions; replacements are normal forms, so both invert the same
    expression under inv() and raise InversionError on the same inputs."""
    p = problem
    rng = Random(f"substitute-{p.dependent.kind}")
    special = [inverse(p.u), p.jet("x"), Rat(0), Rat(2)] + \
        [p.cmat(m) for m in p.matrices]
    seen = {Fn: 0, Inv: 0, Comm: 0, InversionError: 0, "value": 0}
    for _ in range(300):
        e = random_expr(rng, p, 4)
        jets = sorted(collect_jets(e), key=lambda j: j.idx)
        target = rng.choice(jets) if jets and rng.random() < 0.6 else p.u
        if rng.random() < 0.5:
            repl = rng.choice(special)
        else:
            repl = normal_form(random_expr(rng, p, 2))
        got = _outcome(lambda: substitute(e, target, repl))
        want = _outcome(lambda: reference_substitute(e, target, repl))
        assert got == want, (e, target, repl)
        for kind in _enclosing_kinds(e, target):
            seen[kind] += 1
        seen[InversionError if got is InversionError else "value"] += 1
    if p.dependent.kind == "matrix":  # analytic functions take scalars
        del seen[Fn]
    assert min(seen.values()) >= 5, seen


@settings(max_examples=120, deadline=None)
@given(seeded_exprs(SP, depth=6))
def test_idempotent_scalar(e):
    n = normal_form(e)
    assert normal_form(n) == n


@settings(max_examples=120, deadline=None)
@given(seeded_exprs(MP, depth=6))
def test_idempotent_matrix(e):
    n = normal_form(e)
    assert normal_form(n) == n


@settings(max_examples=100, deadline=None)
@given(seeded_exprs(MP, depth=5))
def test_deterministic(e):
    assert normal_form(copy.deepcopy(e)) == normal_form(e)


@settings(max_examples=100, deadline=None)
@given(seeded_exprs(MP, depth=3), seeded_exprs(MP, depth=3),
       seeded_exprs(MP, depth=3))
def test_distributivity(a, b, c):
    assert normal_form(a * (b + c)) == normal_form(a * b + a * c)


@settings(max_examples=100, deadline=None)
@given(seeded_exprs(MP, depth=4))
def test_inverse_cancellation_random(e):
    u = MP.u
    assert normal_form(u * inverse(u) * e) == normal_form(e)


@settings(max_examples=100, deadline=None)
@given(seeded_exprs(MP, depth=3), seeded_exprs(MP, depth=3))
def test_commutator_antisymmetry(a, b):
    assert is_zero(commutator(a, b) + commutator(b, a))


def test_an_integral_rational_normalizes_to_an_int():
    assert nf(Rat(Fraction(4, 2))) == {((), ()): 2}
    assert type(nf(Rat(Fraction(-3)))[((), ())]) is int
    assert type(nf(Rat(Fraction(1, 2)))[((), ())]) is Fraction
    assert nf(Rat(Fraction(0))) == {}


@pytest.mark.parametrize("seed", range(40))
def test_no_coefficient_is_ever_a_float(seed):
    """Normal forms, their products, D_i, D_Q and reduction mod F keep
    every coefficient an int or a Fraction, for random expressions with
    integral and non-integral rational coefficients."""
    rng = Random(seed)
    wave = get_pde("wave")
    for p, pde in ((SP, None), (MP, None), (wave.problem, wave.pde)):
        scalar = p.dependent.kind == "scalar"
        n = nf(random_expr(rng, p, 4, scalar_only=scalar))
        q = random_characteristic(rng, p, 2)
        forms = [n, _nf_mul(n, nf(random_expr(rng, p, 2, scalar))),
                 jet_totals(n, p)((0, 1)), char_nf(n, q, p)]
        if pde is not None:
            forms += [reduce_nf(f, pde, p) for f in forms]
        for f in forms:
            assert {type(v) for v in f.values()} <= {int, Fraction}, seed


def test_clear_denominators_and_divide_round_trip():
    """clear_denominators scales normal forms by the least common
    denominator of their coefficients to int coefficients, and nf_divide
    by it gives them back, an integral value as an int."""
    rng = Random("clear-denominators")
    for _ in range(200):
        ns = [nf(random_expr(rng, SP, 3)) for _ in range(rng.randint(1, 3))]
        cleared, d = clear_denominators(ns)
        assert d == lcm(1, *(Fraction(v).denominator
                             for n in ns for v in n.values()))
        for n, m in zip(ns, cleared):
            assert all(type(v) is int for v in m.values())
            back = nf_divide(m, d)
            assert back == n
            assert all(type(v) is int for v in back.values()
                       if Fraction(v).denominator == 1)
    n = nf(SP.u * 2 + SP.jet("x"))
    assert clear_denominators([n]) == ([n], 1)
    assert nf_divide(n, 1) is n
