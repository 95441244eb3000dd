import dataclasses
import gc
from itertools import combinations_with_replacement
from random import Random

from hypothesis import given, settings

import pytest

from jetsym import (Characteristic, bracket_characteristic,
                    char_derivative, commutator, inverse, is_zero,
                    normal_form, total_derivative)
from jetsym import calculus
from jetsym.calculus import char_nf, derivation, derive_nf, jet_totals
from jetsym.catalog import get_pde
from jetsym.core import (Comm, Fn, Inv, KindError, NonlocalActionError, Pot,
                         PotentialDef, Problem, Rat, ZERO, add, func, nodes)
from jetsym.normalize import collect_jets, nf, rebuild
from jetsym.parsing import parse_expr

from conftest import seeded_characteristics, seeded_exprs
from helpers import (_reference_derive, fresh_copy, matrix_problem,
                     random_characteristic, random_expr, reference_char,
                     reference_prolongation, reference_total, scalar_problem)

SP = scalar_problem()
MP = matrix_problem()


def Q_of(p, e, name="Q"):
    return Characteristic(name, e, p.dependent)


# --- worked examples ------------------------------------------------------

def test_total_derivative_product_example(mp):
    x, t = mp.coordinate("x"), mp.coordinate("t")
    ux, uxt = mp.jet("x"), mp.jet("xt")
    got = total_derivative(x * t * ux * ux, mp.coordinate("t"), mp)
    want = x * ux * ux + x * t * (uxt * ux + ux * uxt)
    assert got == normal_form(want)


def test_total_derivative_base_function(sp):
    f = sp.declared("f")
    got = total_derivative(f, sp.coordinate("x"), sp)
    assert got == normal_form(total_derivative(f, sp.coordinate("x"), sp))
    assert not is_zero(got)
    # partial-derivative markers accumulate as sorted multi-indices
    dxt = total_derivative(got, sp.coordinate("t"), sp)
    dtx = total_derivative(total_derivative(f, sp.coordinate("t"), sp),
                           sp.coordinate("x"), sp)
    assert dxt == dtx


def test_total_derivative_of_identity(mp):
    e = mp.u * inverse(mp.u)
    assert is_zero(total_derivative(e, mp.coordinate("x"), mp))


def test_total_derivative_coordinates(sp):
    x, t = sp.coordinate("x"), sp.coordinate("t")
    assert normal_form(total_derivative(x, x, sp)).value == 1
    assert is_zero(total_derivative(x, t, sp))


def test_potential_gradient_derivative():
    entry = get_pde("chiral")
    p = entry.problem
    X = p.declared("X")
    got = total_derivative(X, p.coordinate("x"), p)
    want = normal_form(inverse(p.u) * p.jet("t"))
    assert got == want


def test_char_derivative_micro_example():
    p = matrix_problem()
    # arbitrary Q represented by an opaque matrix-valued base-space proxy
    p2 = scalar_problem()
    del p2  # only the matrix flavor is exercised here
    pq = matrix_problem()
    q = pq.declared("a")  # opaque matrix proxy for Q
    Q = Q_of(pq, q)
    a, b = pq.declared("a"), pq.declared("b")
    u, ux, ut = pq.u, pq.jet("x"), pq.jet("t")
    got = char_derivative(a * u * u * b + commutator(ux, ut), Q, pq)
    dxq = total_derivative(q, pq.coordinate("x"), pq)
    dtq = total_derivative(q, pq.coordinate("t"), pq)
    want = a * (q * u + u * q) * b + commutator(dxq, ut) + commutator(ux, dtq)
    assert got == normal_form(want)


def test_char_derivative_base_and_constants(sp, mp):
    Q = Q_of(sp, sp.jet("x"))
    assert is_zero(char_derivative(sp.declared("f"), Q, sp))
    assert is_zero(char_derivative(sp.coordinate("x"), Q, sp))
    Qm = Q_of(mp, mp.jet("x"))
    assert is_zero(char_derivative(mp.declared("A"), Qm, mp))


def test_char_derivative_inverse(mp):
    q = mp.declared("a")
    Q = Q_of(mp, q)
    got = char_derivative(inverse(mp.u), Q, mp)
    want = -(inverse(mp.u) * q * inverse(mp.u))
    assert got == normal_form(want)


def test_char_derivative_second_order_jet(sp):
    Q = Q_of(sp, sp.u * sp.jet("x"))
    got = char_derivative(sp.jet("xt"), Q, sp)
    want = total_derivative(total_derivative(Q.q, sp.coordinate("x"), sp),
                            sp.coordinate("t"), sp)
    assert got == want


def test_unregistered_potential_action_errors():
    """A potential's gradient does not fix D_Q of it, so D_Q of the chiral
    potential X raises under every catalog characteristic and any other."""
    entry = get_pde("chiral")
    p = entry.problem
    for Q in [c.q for c in entry.characteristics] + [
            Characteristic("q1", p.jet("x"), p.dependent)]:
        with pytest.raises(NonlocalActionError):
            char_derivative(p.declared("X"), Q, p)


def test_a_registered_gradient_is_fixed():
    """The D_i images kept per problem hold D_i X from X's gradient, so the
    gradient cannot change once registered: the registry and the gradient
    are read-only, and the dict the gradient was given in is copied.  D_i X
    stays what a fresh problem with the same registration gives."""
    p, fresh = Problem(), Problem()
    u, u_t, x = p.u, p.jet("t"), p.coordinate("x")
    gradient = {"x": u_t, "t": u}
    p.register_potential(PotentialDef("X", gradient, matrix=False))
    assert total_derivative(p.declared("X"), x, p) == normal_form(u_t)
    with pytest.raises(TypeError):
        p.potentials["X"].derivatives["x"] = u
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.potentials["X"].derivatives = {"x": u, "t": u}
    with pytest.raises(TypeError):
        p.potentials["Y"] = PotentialDef("Y", gradient, matrix=False)
    gradient["x"] = u
    fresh.register_potential(PotentialDef("X", {"x": u_t, "t": u},
                                          matrix=False))
    assert total_derivative(p.declared("X"), x, p) == total_derivative(
        fresh.declared("X"), x, fresh) == normal_form(u_t)
    assert list(p.potentials) == ["X"]


# --- Example 5.1 brackets -------------------------------------------------

def test_bracket_kdv_examples(sp):
    q1 = Q_of(sp, sp.jet("x"), "q1")
    q2 = Q_of(sp, sp.jet("t"), "q2")
    q3 = Q_of(sp, sp.coordinate("t") * sp.jet("x") - 1, "q3")
    assert is_zero(bracket_characteristic(q1, q2, sp).q)
    br = bracket_characteristic(q2, q3, sp)
    assert br.q == normal_form(-sp.jet("x"))
    assert is_zero(bracket_characteristic(q3, q3, sp).q)


# --- the prolongation formula (scalar dependents) --------------------------

def test_prolongation_simple(sp):
    Q = Q_of(sp, sp.declared("f") * sp.u)
    got = reference_prolongation(sp.u * sp.u, Q, sp)
    assert got == normal_form(2 * sp.u * Q.q)
    assert got == char_derivative(sp.u * sp.u, Q, sp)


def test_prolongation_heat(sp):
    Q = Q_of(sp, sp.u)
    e = sp.jet("t") - sp.jet("xx")
    assert reference_prolongation(e, Q, sp) == normal_form(e)
    assert char_derivative(e, Q, sp) == normal_form(e)


def test_prolongation_kdv_shape(sp):
    Q = Q_of(sp, sp.jet("x"))
    e = sp.jet("t") + sp.u * sp.jet("x") + sp.jet("xxx")
    assert reference_prolongation(e, Q, sp) == char_derivative(e, Q, sp)


def test_prolongation_rejects_matrix(mp):
    Q = Q_of(mp, mp.jet("x"))
    with pytest.raises(KindError):
        reference_prolongation(mp.u, Q, mp)


def jet_partial(e, j):
    """d/du_J e by the engine: `derive_nf` with the atom map 1 on the jet
    j = u_J and 0 on every other atom."""
    one = {((), ()): 1}
    return rebuild(derive_nf(nf(e), derivation(
        lambda a: one if a is j else {}, {})))


@pytest.mark.parametrize("seed", range(40))
def test_formal_jet_partial_matches_the_tree_walk(seed):
    """d/du_J by `derive_nf` against the reference walk with the atom map
    1 on u_J and 0 elsewhere, on scalar expressions with inv(u) and
    function arguments."""
    rng = Random(seed)
    e = random_expr(rng, SP, 4, scalar_only=True) \
        + inverse(SP.u) * random_expr(rng, SP, 3, scalar_only=True)
    for j in sorted(collect_jets(e), key=lambda j: j.idx):
        want = normal_form(_reference_derive(
            e, lambda a: Rat(1) if a == j else ZERO))
        got = normal_form(fresh_copy(jet_partial(e, j)))
        assert got == want, (seed, j.idx)


@pytest.mark.parametrize("p", [SP, MP], ids=["scalar", "matrix"])
@pytest.mark.parametrize("seed", range(3))
def test_jet_totals_take_each_prefix_once(p, seed, monkeypatch):
    """D_J by the one memo equals chained reference totals for every J up
    to order 3, and the memo applies one D_i per distinct nonempty prefix
    (asked longest first, unsorted, and twice over)."""
    js = [j for order in range(4)
          for j in combinations_with_replacement(range(2), order)]
    e = random_expr(Random(seed), p, 3)
    top, calls = [0], []

    def counting(n, image):  # counts the outermost derive_nf calls only
        calls.append(top[0] == 0)
        top[0] += 1
        try:
            return derive_nf(n, image)
        finally:
            top[0] -= 1

    derive_nf = calculus.derive_nf
    monkeypatch.setattr(calculus, "derive_nf", counting)
    totals = jet_totals(nf(e), p)
    got = {j: rebuild(totals(j[::-1])) for j in reversed(js + js)}
    monkeypatch.undo()
    assert sum(calls) == len({j[:k] for j in js for k in range(1, len(j) + 1)})
    for j in js:
        want = normal_form(e)
        for i in j:
            want = reference_total(want, p.coordinates[i], p)
        assert got[j] == want, j


@pytest.mark.parametrize("name", ["kdv", "chiral", "sine-gordon"])
def test_a_warm_char_nf_leaves_no_reference_cycle(name):
    """D_Q of F for every catalog characteristic, once the D_i images are
    kept, leaves no cyclic garbage: neither the D_J map nor an image map
    refers to itself, so each is freed when its call returns."""
    entry = get_pde(name)
    p, f = entry.problem, nf(entry.pde.f)
    qs = [c.q for c in entry.characteristics]
    for q in qs:
        char_nf(f, q, p)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for q in qs:
            char_nf(f, q, p)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# --- randomized properties (full 200-case versions live in acceptance) ----

@settings(max_examples=60, deadline=None)
@given(seeded_exprs(MP, depth=4))
def test_totals_commute(e):
    x, t = MP.coordinates
    ab = total_derivative(total_derivative(e, x, MP), t, MP)
    ba = total_derivative(total_derivative(e, t, MP), x, MP)
    assert ab == ba


@settings(max_examples=60, deadline=None)
@given(seeded_exprs(MP, depth=3), seeded_characteristics(MP))
def test_char_commutes_with_total(e, Q):
    x = MP.coordinates[0]
    lhs = char_derivative(total_derivative(e, x, MP), Q, MP)
    rhs = total_derivative(char_derivative(e, Q, MP), x, MP)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(seeded_exprs(MP, depth=3), seeded_exprs(MP, depth=3),
       seeded_characteristics(MP))
def test_leibniz(a, b, Q):
    x = MP.coordinates[0]
    assert is_zero(total_derivative(a * b, x, MP)
                   - total_derivative(a, x, MP) * b
                   - a * total_derivative(b, x, MP))
    assert is_zero(char_derivative(a * b, Q, MP)
                   - char_derivative(a, Q, MP) * b
                   - a * char_derivative(b, Q, MP))


@settings(max_examples=40, deadline=None)
@given(seeded_characteristics(SP), seeded_characteristics(SP),
       seeded_characteristics(SP))
def test_jacobi_scalar(q1, q2, q3):
    def br(a, b):
        return bracket_characteristic(a, b, SP)
    total = (br(q1, br(q2, q3)).q + br(q2, br(q3, q1)).q
             + br(q3, br(q1, q2)).q)
    assert is_zero(total)


@settings(max_examples=100, deadline=None)
@given(seeded_exprs(SP, depth=3), seeded_characteristics(SP))
def test_oracle_equivalence_sample(e, Q):
    assert char_derivative(e, Q, SP) == reference_prolongation(e, Q, SP)


def _kinds(e) -> set:
    """The node kinds among Fn, Inv, Comm and Pot that occur in e."""
    return {type(x) for x in nodes(e) if isinstance(x, (Fn, Inv, Comm, Pot))}


@pytest.mark.parametrize("make", [scalar_problem, matrix_problem],
                         ids=["scalar", "matrix"])
def test_derivatives_match_reference_walker(make):
    """total_derivative and char_derivative, which act on normal forms,
    agree with a walk over the whole expression tree on seeded random
    expressions with inverses, commutators, analytic functions and a
    registered potential W, and on a random multiple of W.  D_Q of W is
    undefined: char_derivative raises where W survives the normal form,
    and where W cancels it agrees with the walk over the normal form."""
    p = make()
    rng = Random(f"derive-{p.dependent.kind}")
    x, t = p.coordinate("x"), p.coordinate("t")
    matrix = p.dependent.kind == "matrix"
    W = p.register_potential(PotentialDef(
        "W", {"x": inverse(p.u) * p.jet("t") if matrix else p.u * p.jet("t"),
              "t": x * p.jet("x") - t}, matrix=matrix))
    seen = {Fn: 0, Inv: 0, Comm: 0, Pot: 0, NonlocalActionError: 0}
    for _ in range(300):
        e = random_expr(rng, p, 4)
        pick = rng.random()
        if pick < 0.2:
            e = e * W
        elif pick < 0.4:
            e = commutator(W, e) + W * random_expr(rng, p, 2)
        elif pick < 0.5 and not matrix:
            e = e + func("exp", x * W)
        Q = random_characteristic(rng, p)
        for f in (e, random_expr(rng, p, 2) * W):
            for c in p.coordinates:
                assert total_derivative(f, c, p) == reference_total(f, c, p), \
                    (f, c)
            if Pot not in _kinds(f):
                assert char_derivative(f, Q, p) == reference_char(f, Q, p), \
                    (f, Q)
            elif Pot in _kinds(normal_form(f)):
                with pytest.raises(NonlocalActionError):
                    char_derivative(f, Q, p)
                seen[NonlocalActionError] += 1
            else:
                assert char_derivative(f, Q, p) == reference_char(
                    normal_form(f), Q, p), (f, Q)
        for kind in _kinds(e):
            seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def test_potentials_with_coprime_gradient_denominators():
    """derive_cleared collects the products in one dict over a running
    common denominator, raised (and what the dict holds rescaled) only
    when an image's denominator does not divide it: potentials whose
    gradients have denominators 2, 3, 6 and 4 (and integral ones) against
    the tree walk.  Along x the word H*T*S*V brings the denominators in
    the order 2, 3, 6, 4, and in H + T - 3*S the terms of H and S cancel
    after T has raised the denominator from 2 to 6."""
    p = matrix_problem()
    x, t = p.coordinate("x"), p.coordinate("t")
    half = p.register_potential(PotentialDef(
        "H", {"x": parse_expr("1/2*u_t*A", p), "t": parse_expr("x*u_x", p)}))
    third = p.register_potential(PotentialDef(
        "T", {"x": parse_expr("1/3*inv(u)", p),
              "t": parse_expr("2/3*u*B + t", p)}))
    sixth = p.register_potential(PotentialDef(
        "S", {"x": parse_expr("1/6*u_t*A", p), "t": parse_expr("5/6*u", p)}))
    fourth = p.register_potential(PotentialDef(
        "V", {"x": parse_expr("3/4*B", p),
              "t": parse_expr("1/4*inv(u)*u_t", p)}))
    e = add(half * third * p.u, third * half, half + 5 * third,
            x * half * p.jet("x") * third, t * third * p.declared("A"))
    word = half * third * sixth * fourth
    cancelling = add(half, third, -3 * sixth)
    for c in p.coordinates:
        for f in (e, word, cancelling, add(cancelling, word, e)):
            assert total_derivative(f, c, p) == reference_total(f, c, p), \
                (c.name, f)
    dx = calculus.total_images(p)[0]
    assert calculus.derive_cleared(nf(word), dx)[1] == 12
    assert rebuild(calculus.derive_nf(nf(cancelling), dx)) \
        == parse_expr("1/3*inv(u)", p)
