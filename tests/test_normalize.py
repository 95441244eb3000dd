import copy

from hypothesis import given, settings

from jetsym import (commutator, inverse, is_zero, normal_form, parse_expr,
                    substitute)
from jetsym.core import Rat, rat

from conftest import seeded_exprs
from helpers import matrix_problem, scalar_problem

SP = scalar_problem()
MP = matrix_problem()


def test_inverse_cancellation(mp):
    assert normal_form(mp.u * inverse(mp.u)) == rat(1)
    assert normal_form(inverse(mp.u) * mp.u) == rat(1)


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
