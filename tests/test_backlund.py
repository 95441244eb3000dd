from fractions import Fraction
from random import Random

import pytest

from jetsym import (Characteristic, Rat, add, check_symmetry, commutator,
                    inverse, is_zero, make_pde, mul, normal_form,
                    reduce_mod_pde, total_derivative)
from jetsym.backlund import (PotentialError, bt_apply, bt_integrability_check,
                             bt_rhs, bt_rows, chiral_phi_condition,
                             declare_potential, default_bt_basis, left_current)
from jetsym.catalog import get_pde
from jetsym.core import NonlocalActionError, PotentialDef, Problem, Dependent
from jetsym.normalize import nf
from jetsym.parsing import parse_expr
from jetsym.printing import render


@pytest.fixture()
def ch():
    return get_pde("chiral")


def phi_of(ch, text):
    return parse_expr(text, ch.problem)


# --- divergence identity --------------------------------------------------

def test_divergence_identity_holds_identically(ch):
    # D_x(inv(g)g_t) - D_t(inv(g)g_x) == [inv(g)g_t, inv(g)g_x]
    p = ch.problem
    x, t = p.coordinates
    ax, at = left_current(p, x), left_current(p, t)
    lhs = total_derivative(at, x, p) - total_derivative(ax, t, p)
    assert is_zero(lhs - commutator(at, ax))


def test_left_current_shape(ch):
    p = ch.problem
    x = p.coordinates[0]
    assert (normal_form(left_current(p, x))
            == normal_form(inverse(p.u) * p.jet("x")))


# --- potential declaration ------------------------------------------------

def fresh_chiral():
    from jetsym import make_pde
    p = Problem(coords=["x", "t"], dependent=Dependent("g", "matrix", True))
    f = parse_expr("D(inv(g)*g_x, x) + D(inv(g)*g_t, t)", p)
    pde = make_pde("chiral", f, p.jet("tt"),
                   parse_expr("g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx", p), p)
    return p, pde


def test_declare_potential_accepts_conserved_gradient():
    p, pde = fresh_chiral()
    pdef = PotentialDef("X", {"x": parse_expr("inv(g)*g_t", p),
                              "t": parse_expr("-(inv(g)*g_x)", p)})
    pot = declare_potential(pdef, pde, p)
    assert p.potential("X") == pot


def test_declare_potential_rejects_sign_flip():
    p, pde = fresh_chiral()
    pdef = PotentialDef("Y", {"x": parse_expr("inv(g)*g_t", p),
                              "t": parse_expr("inv(g)*g_x", p)})
    with pytest.raises(PotentialError) as exc:
        declare_potential(pdef, pde, p)
    assert not is_zero(exc.value.residual)


def test_declare_potential_residual_of_a_rational_gradient():
    """The cross-derivative check runs on the gradient cleared of
    denominators; the residual it reports is that of the gradient given."""
    p, pde = fresh_chiral()
    residuals = []
    for name, c in (("Y", "1"), ("Z", "2/3")):
        pdef = PotentialDef(name, {"x": parse_expr(f"{c}*inv(g)*g_t", p),
                                   "t": parse_expr(f"{c}*inv(g)*g_x", p)})
        with pytest.raises(PotentialError) as exc:
            declare_potential(pdef, pde, p)
        residuals.append(exc.value.residual)
    assert residuals[1] == normal_form(mul(Rat(Fraction(2, 3)), residuals[0]))
    half = PotentialDef("W", {"x": parse_expr("1/2*inv(g)*g_t", p),
                              "t": parse_expr("-1/2*inv(g)*g_x", p)})
    assert declare_potential(half, pde, p) == p.potential("W")


def test_declare_potential_missing_coordinate():
    from jetsym.core import JetsymError
    p, pde = fresh_chiral()
    pdef = PotentialDef("Z", {"x": parse_expr("inv(g)*g_t", p)})
    with pytest.raises(JetsymError):
        declare_potential(pdef, pde, p)


def test_unregistered_char_image_raises(ch):
    from jetsym import char_derivative
    p = ch.problem
    Q = Characteristic("q", p.jet("x"), p.dependent)
    with pytest.raises(NonlocalActionError):
        char_derivative(p.potential("X") * p.u, Q, p)


# --- Phi-form condition ---------------------------------------------------

def test_phi_condition_for_currents(ch):
    p, pde = ch.problem, ch.pde
    for text in ("inv(g)*g_x", "inv(g)*g_t"):
        cond = chiral_phi_condition(phi_of(ch, text), pde, p)
        assert is_zero(reduce_mod_pde(cond, pde, p)), text


def textbook_phi_condition(phi, p):
    """D_x(Phi_x + [inv(g)*g_x, Phi]) + D_t(Phi_t + [inv(g)*g_t, Phi]),
    the linearized chiral equation in Phi-form, built term by term."""
    x, t = p.coordinates
    a_x, a_t = inverse(p.u) * p.jet("x"), inverse(p.u) * p.jet("t")
    inner_x = total_derivative(phi, x, p) + commutator(a_x, phi)
    inner_t = total_derivative(phi, t, p) + commutator(a_t, phi)
    return normal_form(total_derivative(inner_x, x, p)
                       + total_derivative(inner_t, t, p))


def random_phi_words(ch, n, seed):
    """Seeded sums of rational multiples of words in g, inv(g), first and
    second jets, x, t, M and the potential X."""
    rng = Random(seed)
    letters = [phi_of(ch, text) for text in ("g", "inv(g)", "g_x", "g_t",
                                             "g_xx", "g_xt", "x", "t", "M",
                                             "X")]
    return [add(*(mul(Rat(Fraction(rng.randint(-3, 3) or 1,
                                    rng.randint(1, 3))),
                      *rng.choices(letters, k=rng.randint(1, 3)))
                  for _ in range(rng.randint(1, 2))))
            for _ in range(n)]


def test_phi_condition_is_the_textbook_formula(ch):
    p, pde = ch.problem, ch.pde
    phis = [c.phi for c in ch.characteristics if c.phi is not None]
    for phi, image in ch.bt_fixtures:
        phis += [phi, image, bt_apply(phi, pde, p)]
    phis += [phi_of(ch, text) for text in ("g", "X", "g_xt*inv(g)",
                                           "comm(X, M)*inv(g)*g_x")]
    phis += random_phi_words(ch, 16, seed=9)
    assert len(phis) == 30
    for phi in phis:
        assert chiral_phi_condition(phi, pde, p) == \
            textbook_phi_condition(phi, p), phi


def test_phi_condition_fails_for_g(ch):
    p, pde = ch.problem, ch.pde
    cond = chiral_phi_condition(p.u, pde, p)
    assert not is_zero(reduce_mod_pde(cond, pde, p))


# --- Backlund system ------------------------------------------------------

def test_bt_rhs_for_constant_matrix(ch):
    p = ch.problem
    M = p.cmat("M")
    pair = bt_rhs(M, p)
    x, t = p.coordinates
    assert pair.rhs_x == normal_form(commutator(left_current(p, t), M))
    assert pair.rhs_t == normal_form(-commutator(left_current(p, x), M))


def test_bt_integrability(ch):
    p, pde = ch.problem, ch.pde
    assert bt_integrability_check(p.cmat("M"), pde, p)
    assert bt_integrability_check(phi_of(ch, "inv(g)*g_x"), pde, p)
    assert not bt_integrability_check(p.u, pde, p)


def test_bt_apply_constant_matrix_gives_commutator_with_potential(ch):
    p, pde = ch.problem, ch.pde
    M = p.cmat("M")
    got = bt_apply(M, pde, p)
    assert got is not None
    want = normal_form(commutator(p.potential("X"), M))
    assert got == want


def test_bt_apply_current_swaps_currents(ch):
    p, pde = ch.problem, ch.pde
    got = bt_apply(phi_of(ch, "inv(g)*g_x"), pde, p)
    assert got is not None
    assert got == normal_form(phi_of(ch, "inv(g)*g_t"))


def test_bt_apply_is_linear_in_a_rational_seed(ch):
    """bt_apply integrates the seed cleared of denominators and divides
    the image back: c*Phi has image c*Phi' for rational c."""
    p, pde = ch.problem, ch.pde
    seed = "M + 2*inv(g)*g_x - inv(g)*g_t"
    base = bt_apply(phi_of(ch, seed), pde, p)
    assert base is not None and not is_zero(base)
    for c in ("1/2", "-5/4", "3", "7/3"):
        got = bt_apply(phi_of(ch, f"{c}*({seed})"), pde, p)
        assert got == normal_form(mul(Rat(Fraction(c)), base)), c
    mixed = bt_apply(phi_of(ch, "1/2*M - 2/3*inv(g)*g_x"), pde, p)
    assert mixed == normal_form(
        add(mul(Rat(Fraction(1, 2)), bt_apply(p.cmat("M"), pde, p)),
            mul(Rat(Fraction(-2, 3)),
                bt_apply(phi_of(ch, "inv(g)*g_x"), pde, p))))


def test_bt_apply_with_a_rational_potential():
    """Candidates made of a potential whose gradient holds Fractions give
    columns with a denominator: with Y = X/2 declared instead of X, the
    image of M is [2Y, M]."""
    p = Problem(coords=["x", "t"], dependent=Dependent("g", "matrix", True),
                matrices=[("M", False)])
    pde = make_pde("chiral",
                   parse_expr("D(inv(g)*g_x, x) + D(inv(g)*g_t, t)", p),
                   p.jet("tt"),
                   parse_expr("g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx", p), p)
    Y = declare_potential(PotentialDef(
        "Y", {"x": parse_expr("1/2*inv(g)*g_t", p),
              "t": parse_expr("-1/2*inv(g)*g_x", p)}), pde, p)
    M = p.cmat("M")
    assert bt_apply(M, pde, p) == normal_form(commutator(mul(Rat(2), Y), M))
    assert bt_apply(parse_expr("1/5*M", p), pde, p) == normal_form(
        commutator(mul(Rat(Fraction(2, 5)), Y), M))


def test_bt_apply_zero_seed(ch):
    p, pde = ch.problem, ch.pde
    got = bt_apply(parse_expr("0", p), pde, p)
    assert got is not None and is_zero(got)


def test_bt_apply_nonintegrable_seed(ch):
    p, pde = ch.problem, ch.pde
    assert bt_apply(p.u, pde, p) is None


def test_bt_apply_tower_insufficiency(ch):
    p, pde = ch.problem, ch.pde
    phi = normal_form(commutator(p.potential("X"), p.cmat("M")))
    assert bt_apply(phi, pde, p) is None


def test_bt_output_satisfies_phi_condition(ch):
    p, pde = ch.problem, ch.pde
    got = bt_apply(p.cmat("M"), pde, p)
    cond = chiral_phi_condition(got, pde, p)
    assert is_zero(reduce_mod_pde(cond, pde, p))


def test_resulting_characteristic_is_symmetry(ch):
    from jetsym import Verdict
    p, pde = ch.problem, ch.pde
    phi2 = bt_apply(phi_of(ch, "inv(g)*g_x"), pde, p)
    Q = Characteristic("q", normal_form(p.u * phi2), p.dependent)
    rep = check_symmetry(pde, Q, p)
    assert rep.verdict is Verdict.SYMMETRY


def test_default_basis_contains_currents_and_potentials(ch):
    p = ch.problem
    basis = default_bt_basis(p)
    nfs = [normal_form(b) for b in basis]
    for text in ("inv(g)*g_x", "inv(g)*g_t", "X", "M"):
        want = normal_form(parse_expr(text, p))
        assert any(b == want for b in nfs), text


# --- the Backlund chain ---------------------------------------------------

CHAIN_SEED = "2*M - inv(g)*g_x + 1/3*inv(g)*g_t"


def chain(before_step=None):
    """Four bt_apply steps on a fresh chiral problem with the constant
    matrix M and the potential X, declaring potential P<k> from the
    Backlund pair of each image before step k, as perfbench's chain does;
    yields each image, rendered.  before_step(p, pde) runs before each
    bt_apply."""
    p = Problem(coords=["x", "t"], dependent=Dependent("g", "matrix", True),
                matrices=[("M", False)])
    pde = make_pde("chiral",
                   parse_expr("D(inv(g)*g_x, x) + D(inv(g)*g_t, t)", p),
                   p.jet("tt"),
                   parse_expr("g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx", p), p)
    declare_potential(PotentialDef("X", {"x": parse_expr("inv(g)*g_t", p),
                                         "t": parse_expr("-(inv(g)*g_x)", p)}),
                      pde, p)
    phi = parse_expr(CHAIN_SEED, p)
    for step in range(4):
        if step:
            pair = bt_rhs(phi, p)
            declare_potential(PotentialDef(f"P{step}", {"x": pair.rhs_x,
                                                        "t": pair.rhs_t}),
                              pde, p)
        if before_step is not None:
            before_step(p, pde)
        phi = bt_apply(phi, pde, p)
        assert phi is not None, step
        yield render(phi, p)


def test_bt_rows_are_reduced_total_derivatives():
    """Every row that bt_apply solves with, taken as the derivation with
    reduced atom images applied to the reduced candidate, equals the
    reduced total derivative of the candidate, along the whole chain."""
    sizes = []

    def check(p, pde):
        basis = default_bt_basis(p)
        sizes.append(len(basis))
        want = [[nf(reduce_mod_pde(total_derivative(b, c, p), pde, p))
                 for c in p.coordinates] for b in basis]
        assert bt_rows(basis, pde, p) == want

    list(chain(check))
    assert sizes == [26, 40, 57, 77]


def test_chain_does_not_depend_on_call_history(ch):
    """Two chains on fresh problems give the same images, step by step,
    with unrelated calls on other problems run between them."""
    kdv = get_pde("kdv")
    p = ch.problem

    def unrelated(*_):
        bt_apply(p.cmat("M"), ch.pde, p)
        bt_apply(phi_of(ch, "inv(g)*g_t"), ch.pde, p)
        reduce_mod_pde(kdv.problem.jet("ttt"), kdv.pde, kdv.problem)
        total_derivative(phi_of(ch, "X*inv(g)*g_x"), p.coordinates[1], p)

    first, second = chain(unrelated), chain()
    for a in first:
        unrelated()
        assert next(second) == a
    assert next(second, None) is None
