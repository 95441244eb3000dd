from itertools import combinations_with_replacement
from random import Random

from hypothesis import given, settings

import pytest

from jetsym import (Characteristic, Sym, bracket_characteristic,
                    char_derivative, commutator, inverse, is_zero,
                    normal_form, scalar_prolongation_apply,
                    scale_characteristic, total_derivative)
from jetsym import calculus
from jetsym.calculus import formal_jet_partial, jet_totals
from jetsym.core import (Comm, Fn, Inv, KindError, Pot, PotentialDef, Rat,
                         ZERO, add, children, func)
from jetsym.normalize import collect_jets, nf, rebuild
from jetsym.parsing import parse_expr

from conftest import seeded_characteristics, seeded_exprs
from helpers import (_reference_derive, matrix_problem,
                     random_characteristic, random_expr, reference_char,
                     reference_total, scalar_problem)

SP = scalar_problem()
MP = matrix_problem()


def Q_of(p, e, name="Q"):
    return Characteristic(name, e, p.dependent)


# --- worked examples ------------------------------------------------------

def test_total_derivative_product_example(mp):
    x, t = mp.coord("x"), mp.coord("t")
    ux, uxt = mp.jet("x"), mp.jet("xt")
    got = total_derivative(x * t * ux * ux, mp.coordinate("t"), mp)
    want = x * ux * ux + x * t * (uxt * ux + ux * uxt)
    assert got == normal_form(want)


def test_total_derivative_base_function(sp):
    f = sp.base("f")
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
    assert normal_form(total_derivative(sp.coord("x"), sp.coordinate("x"), sp)).value == 1
    assert is_zero(total_derivative(sp.coord("x"), sp.coordinate("t"), sp))


def test_potential_gradient_derivative():
    from jetsym.catalog import get_pde
    entry = get_pde("chiral")
    p = entry.problem
    X = p.potential("X")
    got = total_derivative(X, p.coordinate("x"), p)
    want = normal_form(inverse(p.u) * p.jet("t"))
    assert got == want


def test_char_derivative_micro_example():
    p = matrix_problem()
    # arbitrary Q represented by an opaque matrix-valued base-space proxy
    p2 = scalar_problem()
    del p2  # only the matrix flavor is exercised here
    pq = matrix_problem()
    q = pq.base("a")  # opaque matrix proxy for Q
    Q = Q_of(pq, q)
    a, b = pq.base("a"), pq.base("b")
    u, ux, ut = pq.u, pq.jet("x"), pq.jet("t")
    got = char_derivative(a * u * u * b + commutator(ux, ut), Q, pq)
    dxq = total_derivative(q, pq.coordinate("x"), pq)
    dtq = total_derivative(q, pq.coordinate("t"), pq)
    want = a * (q * u + u * q) * b + commutator(dxq, ut) + commutator(ux, dtq)
    assert got == normal_form(want)


def test_char_derivative_base_and_constants(sp, mp):
    Q = Q_of(sp, sp.jet("x"))
    assert is_zero(char_derivative(sp.base("f"), Q, sp))
    assert is_zero(char_derivative(sp.coord("x"), Q, sp))
    Qm = Q_of(mp, mp.jet("x"))
    assert is_zero(char_derivative(mp.cmat("A"), Qm, mp))


def test_char_derivative_inverse(mp):
    q = mp.base("a")
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
    from jetsym.core import NonlocalActionError
    from jetsym.catalog import get_pde
    entry = get_pde("chiral")
    p = entry.problem
    Q = Characteristic("q1", p.jet("x"), p.dependent)
    with pytest.raises(NonlocalActionError):
        char_derivative(p.potential("X"), Q, p)


def test_registered_potential_image_is_used():
    from jetsym import Problem, Dependent, declare_potential, make_pde, parse_expr
    p = Problem(coords=["x", "t"], dependent=Dependent("g", "matrix", True))
    f = parse_expr("D(inv(g)*g_x, x) + D(inv(g)*g_t, t)", p)
    pde = make_pde("chiral", f, p.jet("tt"),
                   parse_expr("g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx", p),
                   p)
    img = parse_expr("inv(g)*g_t", p)
    pdef = PotentialDef("X", {"x": parse_expr("inv(g)*g_t", p),
                              "t": parse_expr("-(inv(g)*g_x)", p)},
                        char_images={"q": img})
    declare_potential(pdef, pde, p)
    Q = Characteristic("q", p.jet("x"), p.dependent)
    assert char_derivative(p.potential("X"), Q, p) == normal_form(img)
    # D_Q is taken along Q cleared of denominators; the registered image
    # is the image under Q itself, whatever Q's coefficients
    Q = Characteristic("q", parse_expr("1/3*g_x - 5/2*g_t", p), p.dependent)
    assert char_derivative(p.potential("X"), Q, p) == normal_form(img)
    assert char_derivative(p.potential("X") * p.u, Q, p) == normal_form(
        img * p.u + p.potential("X") * Q.q)


# --- Example 5.1 brackets -------------------------------------------------

def test_bracket_kdv_examples(sp):
    q1 = Q_of(sp, sp.jet("x"), "q1")
    q2 = Q_of(sp, sp.jet("t"), "q2")
    q3 = Q_of(sp, sp.coord("t") * sp.jet("x") - 1, "q3")
    assert is_zero(bracket_characteristic(q1, q2, sp).q)
    br = bracket_characteristic(q2, q3, sp)
    assert br.q == normal_form(-sp.jet("x"))
    assert is_zero(bracket_characteristic(q3, q3, sp).q)


def test_scaling_rejects_nonconstants(sp):
    Q = Q_of(sp, sp.jet("x"))
    scale_characteristic(Q, 2)
    scale_characteristic(Q, Sym("lam"))
    with pytest.raises(KindError):
        scale_characteristic(Q, sp.base("f"))


# --- prolongation oracle --------------------------------------------------

def test_prolongation_simple(sp):
    Q = Q_of(sp, sp.base("f") * sp.u)
    got = scalar_prolongation_apply(sp.u * sp.u, Q, sp)
    assert got == normal_form(2 * sp.u * Q.q)


def test_prolongation_heat(sp):
    Q = Q_of(sp, sp.u)
    e = sp.jet("t") - sp.jet("xx")
    assert scalar_prolongation_apply(e, Q, sp) == normal_form(e)


def test_prolongation_kdv_shape(sp):
    Q = Q_of(sp, sp.jet("x"))
    e = sp.jet("t") + sp.u * sp.jet("x") + sp.jet("xxx")
    assert scalar_prolongation_apply(e, Q, sp) == char_derivative(e, Q, sp)


def test_prolongation_rejects_matrix(mp):
    Q = Q_of(mp, mp.jet("x"))
    with pytest.raises(KindError):
        scalar_prolongation_apply(mp.u, Q, mp)


def test_prolongation_max_order_guard(sp):
    Q = Q_of(sp, sp.u)
    with pytest.raises(ValueError):
        scalar_prolongation_apply(sp.jet("xxx"), Q, sp, max_order=2)


@pytest.mark.parametrize("seed", range(40))
def test_formal_jet_partial_matches_the_tree_walk(seed):
    """d/du_J against the reference walk with the atom map 1 on u_J and 0
    elsewhere, on scalar expressions with inv(u) and function arguments."""
    rng = Random(seed)
    e = random_expr(rng, SP, 4, scalar_only=True) \
        + inverse(SP.u) * random_expr(rng, SP, 3, scalar_only=True)
    for j in sorted(collect_jets(e), key=lambda j: j.idx):
        want = normal_form(_reference_derive(
            e, lambda a: Rat(1) if a == j else ZERO))
        assert normal_form(formal_jet_partial(e, j)) == want, (seed, j.idx)


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
    assert char_derivative(e, Q, SP) == scalar_prolongation_apply(e, Q, SP)


def _kinds(e) -> set:
    """The node kinds among Fn, Inv, Comm and Pot that occur in e."""
    kinds, stack = set(), [e]
    while stack:
        x = stack.pop()
        if isinstance(x, (Fn, Inv, Comm, Pot)):
            kinds.add(type(x))
        stack.extend(children(x))
    return kinds


@pytest.mark.parametrize("make", [scalar_problem, matrix_problem],
                         ids=["scalar", "matrix"])
def test_derivatives_match_reference_walker(make):
    """total_derivative and char_derivative, which act on normal forms,
    agree with a walk over the whole expression tree on seeded random
    expressions with inverses, commutators, analytic functions and a
    registered potential W."""
    p = make()
    rng = Random(f"derive-{p.dependent.kind}")
    x, t = p.coord("x"), p.coord("t")
    matrix = p.dependent.kind == "matrix"
    pdef = PotentialDef("W", {"x": inverse(p.u) * p.jet("t") if matrix
                              else p.u * p.jet("t"),
                              "t": x * p.jet("x") - t},
                        matrix=matrix)
    W = p.register_potential(pdef)
    seen = {Fn: 0, Inv: 0, Comm: 0, Pot: 0}
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
        pdef.char_images = {Q.name: random_expr(rng, p, 2) * W}
        for c in p.coordinates:
            assert total_derivative(e, c, p) == reference_total(e, c, p), \
                (e, c)
        assert char_derivative(e, Q, p) == reference_char(e, Q, p), (e, Q)
        for kind in _kinds(e):
            seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def test_potentials_with_coprime_gradient_denominators():
    """derive_nf collects the products of each image denominator apart and
    brings them to one denominator: potentials whose gradients have
    denominators 2 and 3 (and an integral one) against the tree walk."""
    p = matrix_problem()
    x, t = p.coord("x"), p.coord("t")
    half = p.register_potential(PotentialDef(
        "H", {"x": parse_expr("1/2*u_t*A", p), "t": parse_expr("x*u_x", p)}))
    third = p.register_potential(PotentialDef(
        "T", {"x": parse_expr("1/3*inv(u)", p),
              "t": parse_expr("2/3*u*B + t", p)}))
    e = add(half * third * p.u, third * half, half + 5 * third,
            x * half * p.jet("x") * third, t * third * p.cmat("A"))
    for c in p.coordinates:
        assert total_derivative(e, c, p) == reference_total(e, c, p), c.name
