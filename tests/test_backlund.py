from fractions import Fraction
from random import Random

import gc
import weakref
from dataclasses import replace
from types import (BuiltinFunctionType, CellType, FunctionType, MethodType,
                   ModuleType)

import pytest
from hypothesis import given, settings, strategies as st

from jetsym import (Characteristic, Rat, add, calculus, check_symmetry,
                    commutator, inverse, is_zero, make_pde, mul, normal_form,
                    reduce_mod_pde, total_derivative)
from jetsym.backlund import (PotentialError, _bt_rows, bt_apply, bt_rhs,
                             bt_seed_check, chiral_phi_condition,
                             declare_potential, default_bt_basis,
                             left_current, phi_characteristic)
from jetsym.calculus import derive_cleared, derive_nf
from jetsym.catalog import get_pde
from jetsym.core import (Comm, JetsymError, NonlocalActionError,
                         PotentialDef, Problem, Dependent)
from jetsym.linsolve import Echelon
from jetsym.normalize import _nf_add, _nf_scale, nf, nf_divide
from jetsym.parsing import parse_expr
from jetsym.printing import render
from jetsym.symmetry import (AnsatzConfig, _row_column, find_operator,
                             reduction)

from helpers import catalog_fixtures, fresh_copy


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
    assert p.declared("X") == pot


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
    assert declare_potential(half, pde, p) == p.declared("W")


def test_declare_potential_missing_coordinate():
    from jetsym.core import JetsymError
    p, pde = fresh_chiral()
    pdef = PotentialDef("Z", {"x": parse_expr("inv(g)*g_t", p)})
    with pytest.raises(JetsymError):
        declare_potential(pdef, pde, p)


@pytest.mark.parametrize("problem, call, message", [
    (Problem(coords=["x", "t", "y"], dependent=Dependent("g", "matrix", True)),
     lambda p: bt_rhs(p.jet("x"), p),
     "the Backlund machinery expects two coordinates"),
    (Problem(), lambda p: left_current(p, p.coordinate("x")),
     "left current needs an invertible matrix dependent"),
], ids=["three-coordinates", "scalar-dependent"])
def test_the_backlund_system_needs_the_chiral_setting(problem, call, message):
    with pytest.raises(JetsymError, match=f"^{message}$"):
        call(problem)


def test_unregistered_char_image_raises(ch):
    from jetsym import char_derivative
    p = ch.problem
    Q = Characteristic("q", p.jet("x"), p.dependent)
    with pytest.raises(NonlocalActionError):
        char_derivative(p.declared("X") * p.u, Q, p)


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
    fx = catalog_fixtures(ch)
    phis = list(fx.phis.values())
    for phi, image in fx.backlund:
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
    M = p.declared("M")
    pair = bt_rhs(M, p)
    x, t = p.coordinates
    assert pair.rhs_x == normal_form(commutator(left_current(p, t), M))
    assert pair.rhs_t == normal_form(-commutator(left_current(p, x), M))


def test_bt_integrability(ch):
    p, pde = ch.problem, ch.pde
    assert bt_seed_check(p.declared("M"), pde, p).is_symmetry
    assert bt_seed_check(phi_of(ch, "inv(g)*g_x"), pde, p).is_symmetry
    assert not bt_seed_check(p.u, pde, p).is_symmetry


CERTIFICATE_WORDS = ("M", "inv(g)*g_x", "inv(g)*g_t", "X", "g_x", "g", "x",
                     "t")


def test_an_image_certifies_its_seed():
    """On a chain problem with P1 declared, for 300 seeded rational
    combinations of words of length <= 2: a seed with a bt_apply image
    passes bt_seed_check, and its image satisfies both equations of its
    pair mod F; a seed that fails the check has no image.  The pair's
    residual R o D_t R(rhs_x) - R o D_x R(rhs_t) is the check's remainder
    for every seed, as the argument for integrating unchecked says."""
    p, pde = chain_problem()
    declare_image_potential(1, bt_apply(parse_expr(CHAIN_SEED, p), pde, p),
                            pde, p)
    x, t = p.coordinates
    letters = [parse_expr(text, p) for text in CERTIFICATE_WORDS]
    rng = Random(25)
    outcomes = {"image": 0, "no integral": 0, "not symmetry": 0}
    for _ in range(300):
        phi = add(*(mul(Rat(Fraction(rng.randint(-3, 3) or 1,
                                     rng.randint(1, 3))),
                        *rng.choices(letters, k=rng.randint(1, 2)))
                    for _ in range(rng.randint(1, 3))))
        got = bt_apply(phi, pde, p)
        report = bt_seed_check(phi, pde, p)
        pair = bt_rhs(phi, p)
        reduce, total = reduction(pde, p)
        residual = derive_nf(reduce(nf(pair.rhs_x)), total(t.index))
        residual = _nf_add(residual, _nf_scale(
            derive_nf(reduce(nf(pair.rhs_t)), total(x.index)), -1))
        assert residual == nf(report.remainder), render(phi, p)
        if got is not None:
            assert report.is_symmetry, render(phi, p)
            for c, rhs in ((x, pair.rhs_x), (t, pair.rhs_t)):
                assert is_zero(reduce_mod_pde(
                    total_derivative(got, c, p) - rhs, pde, p)), render(phi, p)
            outcomes["image"] += 1
        else:
            outcomes["no integral" if report.is_symmetry
                     else "not symmetry"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_bt_apply_accepts_a_rational_multiple_of_chiral(ch):
    """F scaled by -1 keeps the solved form and the reduction mod F, so
    every catalog seed integrates to the catalog's image."""
    p = ch.problem
    pde = make_pde("minus-chiral", mul(Rat(-1), ch.pde.f), ch.pde.leading,
                   ch.pde.rhs, p)
    for phi, image in catalog_fixtures(ch).backlund:
        got = bt_apply(phi, pde, p)
        assert got is not None and is_zero(got - image), render(phi, p)


def test_bt_apply_needs_a_chiral_pde():
    """On a matrix PDE that is not a multiple of the chiral one, no image
    would certify its seed: bt_apply raises, whether or not the seed is a
    symmetry, and leaves the problem's record without letters."""
    p = Problem(coords=["x", "t"], dependent=Dependent("g", "matrix", True),
                matrices=[("M", False)])
    pde = make_pde("group-heat", parse_expr("g_t - g_xx", p), p.jet("t"),
                   p.jet("xx"), p)
    for text in ("M", "inv(g)*g_x", "g_x"):
        with pytest.raises(JetsymError, match="needs the chiral equation"):
            bt_apply(parse_expr(text, p), pde, p)
    assert not pde.stores[p].letters


def test_bt_apply_builds_one_reduction_context_to_integrate(ch, monkeypatch):
    """bt_apply checks no seed: it integrates in one reduction context,
    whose reduction the targets and the rows of every candidate share.
    bt_rhs takes two derivation maps; the context makes its two only when
    it first derives, which the first integration on a (pde, problem)
    does, with two more to check that F is chiral, and a second one, which
    finds every letter's rows and every value kept, does not."""
    from jetsym import backlund, calculus, symmetry
    counts = {"reduction": 0, "derivation": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    new_context = counted("reduction", symmetry.reduction)
    new_map = counted("derivation", calculus.derivation)
    for module in (symmetry, backlund):
        monkeypatch.setattr(module, "reduction", new_context)
    for module in (calculus, symmetry):
        monkeypatch.setattr(module, "derivation", new_map)
    p, pde = ch.problem, replace(ch.pde)  # a Pde with no store yet
    assert bt_apply(p.declared("M"), pde, p) is not None
    assert counts == {"reduction": 1, "derivation": 6}
    counts.update(reduction=0, derivation=0)
    assert bt_apply(p.declared("M"), pde, p) is not None
    assert counts == {"reduction": 1, "derivation": 2}


def test_bt_apply_constant_matrix_gives_commutator_with_potential(ch):
    p, pde = ch.problem, ch.pde
    M = p.declared("M")
    got = bt_apply(M, pde, p)
    assert got is not None
    want = normal_form(commutator(p.declared("X"), M))
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
        add(mul(Rat(Fraction(1, 2)), bt_apply(p.declared("M"), pde, p)),
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
    M = p.declared("M")
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
    phi = normal_form(commutator(p.declared("X"), p.declared("M")))
    assert bt_apply(phi, pde, p) is None


def test_bt_output_satisfies_phi_condition(ch):
    p, pde = ch.problem, ch.pde
    got = bt_apply(p.declared("M"), pde, p)
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


def chain_problem():
    """A fresh chiral problem with the constant matrix M and the potential
    X, as perfbench's chain starts from."""
    p = Problem(coords=["x", "t"], dependent=Dependent("g", "matrix", True),
                matrices=[("M", False)])
    pde = make_pde("chiral",
                   parse_expr("D(inv(g)*g_x, x) + D(inv(g)*g_t, t)", p),
                   p.jet("tt"),
                   parse_expr("g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx", p), p)
    declare_potential(PotentialDef("X", {"x": parse_expr("inv(g)*g_t", p),
                                         "t": parse_expr("-(inv(g)*g_x)", p)}),
                      pde, p)
    return p, pde


def declare_image_potential(step, phi, pde, p):
    """Declare the potential P<step> whose gradient is phi's Backlund
    pair."""
    pair = bt_rhs(phi, p)
    declare_potential(PotentialDef(f"P{step}", {"x": pair.rhs_x,
                                                "t": pair.rhs_t}), pde, p)


def chain(before_step=None):
    """Four bt_apply steps on a fresh `chain_problem`, declaring potential
    P<k> from the Backlund pair of each image before step k, as
    perfbench's chain does; yields each image, rendered.
    before_step(p, pde) runs before each bt_apply."""
    p, pde = chain_problem()
    phi = parse_expr(CHAIN_SEED, p)
    for step in range(4):
        if step:
            declare_image_potential(step, phi, pde, p)
        if before_step is not None:
            before_step(p, pde)
        phi = bt_apply(phi, pde, p)
        assert phi is not None, step
        yield render(phi, p)


def test_bt_rows_are_reduced_total_derivatives(monkeypatch):
    """Every row that bt_apply solves with, a letter's by derivation and a
    product's by the Leibniz rule from its letters' rows, divided by its
    denominator, equals the reduced total derivative of its candidate, at
    every step of the chain.  The columns are the basis without its
    commutators, in order.  CHAIN_SEED's 1/3 puts Fractions in P1's
    gradient, so some product joins letters of different denominators."""
    from jetsym import backlund
    build, leibniz = backlund._bt_columns, backlund._leibniz_rows
    steps, denominators, bases = [], [], []

    def recording(problem, letters, reduce, total):
        new_letters, new = build(problem, letters, reduce, total)
        steps.append(new)
        return new_letters, new

    def products(a, c):
        denominators.append((a[2], c[2]))
        return leibniz(a, c)

    monkeypatch.setattr(backlund, "_bt_columns", recording)
    monkeypatch.setattr(backlund, "_leibniz_rows", products)
    kept = []
    list(chain(lambda p, pde: kept.append((p, pde))))
    p, pde = kept[-1]
    assert [len(new) for new in steps] == [20, 10, 12, 14]
    for new in steps:
        for b, rows, d in new:
            want = [nf(fresh_copy(reduce_mod_pde(total_derivative(b, c, p),
                                                 pde, p)))
                    for c in p.coordinates]
            assert [nf_divide(row, d) for row in rows] == want, b
    basis = default_bt_basis(p)
    assert len(basis) == 77
    assert [b for new in steps for b, _, _ in new] == [
        b for b in basis if not isinstance(b, Comm)]
    assert any(da != dc for da, dc in denominators)


def test_chain_does_not_depend_on_call_history(ch):
    """Two chains on fresh problems give the same images, step by step,
    with unrelated calls on other problems run between them."""
    kdv = get_pde("kdv")
    p = ch.problem

    def unrelated(*_):
        bt_apply(p.declared("M"), ch.pde, p)
        bt_apply(phi_of(ch, "inv(g)*g_t"), ch.pde, p)
        reduce_mod_pde(kdv.problem.jet("ttt"), kdv.pde, kdv.problem)
        total_derivative(phi_of(ch, "X*inv(g)*g_x"), p.coordinates[1], p)

    first, second = chain(unrelated), chain()
    for a in first:
        unrelated()
        assert next(second) == a
    assert next(second, None) is None


def test_kept_chain_store_does_not_depend_on_call_history(ch):
    """The step-3 image of the chain, whose integrations extend one kept
    echelon step by step, equals bt_apply on a fresh problem where X,
    P1, P2 and P3 were all declared before the first Backlund call, and
    the image of a chain run after unrelated bt_apply calls on the catalog
    chiral problem.  The store is per problem: the declares create the
    problem's record with no chain columns, dataclasses.replace starts
    without it, and a private problem's record goes with the problem."""
    p_ch = ch.problem

    def unrelated(*_):
        bt_apply(p_ch.declared("M"), ch.pde, p_ch)
        bt_apply(phi_of(ch, "inv(g)*g_x"), ch.pde, p_ch)

    images = list(chain())
    assert list(chain(unrelated)) == images
    p, pde = chain_problem()
    for step in (1, 2, 3):
        phi = parse_expr(images[step - 1], p)
        declare_image_potential(step, phi, pde, p)
    kept = pde.stores[p]
    assert (kept.letters, kept.columns, kept.echelon.rank) == ([], [], 0)
    assert render(bt_apply(phi, pde, p), p) == images[3]
    assert list(pde.stores.values()) == [kept]
    assert kept.columns and kept.echelon.rank
    assert len(replace(pde).stores) == 0
    del p
    gc.collect()
    assert len(pde.stores) == 0


def test_each_integration_computes_rows_for_new_candidates_only(
        monkeypatch):
    """Along the chain each step's basis is a prefix of the next one's, and
    each bt_apply derives only the letters that the step before did not
    have, 4, then 1, 1 and 1, and assembles rows only for the products
    new since then: 16, then 9, 11 and 13."""
    from jetsym import backlund
    derive, leibniz = backlund._bt_rows, backlund._leibniz_rows
    counts, bases = [], []

    def deriving(b, reduce, total):
        counts[-1][0] += 1
        return derive(b, reduce, total)

    def assembling(a, c):
        counts[-1][1] += 1
        return leibniz(a, c)

    def before_step(p, pde):
        bases.append(default_bt_basis(p))
        counts.append([0, 0])

    monkeypatch.setattr(backlund, "_bt_rows", deriving)
    monkeypatch.setattr(backlund, "_leibniz_rows", assembling)
    list(chain(before_step))
    assert counts == [[4, 16], [1, 9], [1, 11], [1, 13]]
    assert [len(b) for b in bases] == [26, 40, 57, 77]
    for before, after in zip(bases, bases[1:]):
        assert after[:len(before)] == before


def test_a_failed_integration_leaves_the_kept_store_as_it_was(monkeypatch):
    """Rows that raise part way through a step, after its new letter was
    derived, leave the kept letters, the column map and the echelon as
    they were, and the next integration gives the chain's image."""
    from jetsym import backlund
    want = list(chain())[1]
    p, pde = chain_problem()
    phi = bt_apply(parse_expr(CHAIN_SEED, p), pde, p)
    declare_image_potential(1, phi, pde, p)
    kept = pde.stores[p]
    before = (list(kept.letters), list(kept.columns), kept.echelon.rank)
    leibniz, assembled = backlund._leibniz_rows, []

    def failing(a, c):
        if len(assembled) == 3:
            raise RuntimeError(f"stopped after {len(assembled)} products")
        assembled.append(leibniz(a, c))
        return assembled[-1]

    with monkeypatch.context() as m:
        m.setattr(backlund, "_leibniz_rows", failing)
        with pytest.raises(RuntimeError):
            bt_apply(phi, pde, p)
    assert (len(before[0]), len(before[1])) == (4, 20)
    assert (kept.letters, kept.columns, kept.echelon.rank) == before
    assert render(bt_apply(phi, pde, p), p) == want


def test_one_record_per_problem_holds_data_only():
    """A declare, a reduce, a certificate search and a Backlund step on a
    private chiral problem all fill the one record that the Pde keeps for
    it: its table, its images of R o D_i, its ansatz and its chain, and
    the record of D_i's images kept for the problem.  Both records hold
    data only: what they refer to reaches no function, method or cell,
    and not the problem, so no reduction context or derivation map lives
    on in them."""
    p, pde = chain_problem()
    reduce_mod_pde(p.jet("ttt"), pde, p)
    cfg = AnsatzConfig(0, 0)
    assert find_operator(pde, phi_characteristic(p.declared("M"), p), p,
                         cfg) is not None
    assert bt_apply(parse_expr(CHAIN_SEED, p), pde, p) is not None
    kept = pde.stores[p]
    assert list(pde.stores.values()) == [kept]
    assert len(kept.table) > 1 and list(kept.ansatz) == [cfg]
    assert all(kept.images) and len(kept.images) == 2
    assert kept.letters and kept.columns and kept.echelon.rank
    totals = calculus._TOTALS[p]
    assert all(totals) and len(totals) == 2
    seen, todo = {id(kept), id(totals)}, [kept, totals]
    while todo:
        o = todo.pop()
        assert o is not p
        assert not isinstance(o, (FunctionType, MethodType,
                                  BuiltinFunctionType, CellType)), o
        for r in gc.get_referents(o):
            if not isinstance(r, (type, ModuleType)) and id(r) not in seen:
                seen.add(id(r))
                todo.append(r)


def test_a_live_reduction_context_holds_not_its_record():
    """A reduction context refers to the parts of the record that it
    fills, not to the record: while a context lives, its maps of R o D_i
    made, a Pde that is dropped frees its record at once, with no
    collection run."""
    p, pde = chain_problem()
    reduce, total = reduction(pde, p)
    reduce(nf(p.jet("ttt")))
    assert total(0) and pde.stores[p].images[0]
    alive = weakref.ref(pde.stores[p])
    del pde
    assert alive() is None


def test_kept_total_images_go_with_their_problem():
    """The images of D_i kept for a problem refer not back to it: the
    problem is freed, and its record with it, once nothing else holds it."""
    p, _ = chain_problem()
    total_derivative(parse_expr("X*inv(g)*g_x", p), p.coordinates[0], p)
    assert all(calculus._TOTALS[p][:1])
    gc.collect()
    kept, alive = len(calculus._TOTALS), weakref.ref(p)
    del p
    gc.collect()
    assert alive() is None
    assert len(calculus._TOTALS) == kept - 1


# the factors that the kept-image property draws its normal forms from
KEPT_LETTERS = {
    "scalar": ["x", "t", "u", "u_x", "u_t", "u_xx", "u_xt", "sin(u_x)",
               "exp(x*u)", "cos(u*u_t)"],
    "matrix": ["x", "g", "inv(g)", "g_x", "g_t", "g_xx", "g_xt", "M", "X",
               "sin(x)"],
}


@pytest.fixture(scope="module")
def kept_cases():
    """(problem, pde, letters) for the catalog kdv, heat and chiral and for
    a private chain problem with P1 declared."""
    cases = {}
    for name in ("kdv", "heat", "chiral"):
        e = get_pde(name)
        kind = e.problem.dependent.kind
        cases[name] = e.problem, e.pde, [parse_expr(t, e.problem)
                                         for t in KEPT_LETTERS[kind]]
    p, pde = chain_problem()
    declare_image_potential(1, bt_apply(parse_expr(CHAIN_SEED, p), pde, p),
                            pde, p)
    cases["chain"] = p, pde, [parse_expr(t, p)
                              for t in KEPT_LETTERS["matrix"] + ["P1"]]
    return cases


def seeded_nf(seed: int, letters: list) -> dict:
    """A normal form of one to four rational multiples of products of one
    to three letters, drawn from the seed."""
    rng = Random(seed)
    return nf(add(*(mul(Rat(Fraction(rng.randint(-3, 3) or 1,
                                     rng.randint(1, 3))),
                        *rng.choices(letters, k=rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 4)))))


def assert_kept_images_are_fresh(n: dict, i: int, p, pde) -> None:
    """derive_cleared of n, and of R(n), by the maps of D_i and R o D_i on
    the kept images equals derive_cleared by a map on fresh images."""
    total = calculus.total_atoms(p.coordinates[i], p)
    assert derive_cleared(n, calculus.total_images(p)[i]) == \
        derive_cleared(n, calculus.derivation(total, {}))
    reduce, reduced_total = reduction(pde, p)
    r = reduce(n)
    assert derive_cleared(r, reduced_total(i)) == derive_cleared(
        r, calculus.derivation(lambda a: reduce(total(a)), {}))


@pytest.mark.parametrize("name", ["kdv", "heat", "chiral", "chain"])
@settings(max_examples=25, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(0, 2**32), st.integers(0, 1)),
                      min_size=1, max_size=4))
def test_kept_images_equal_fresh_ones_in_every_call_order(kept_cases, name,
                                                          calls):
    """Derivations on the images kept per problem, and per (pde, problem),
    give what a fresh map gives, whatever was derived before: each example
    runs its calls in its own order on images that every earlier example
    on the problem filled."""
    p, pde, letters = kept_cases[name]
    for seed, i in calls:
        assert_kept_images_are_fresh(seeded_nf(seed, letters), i, p, pde)


def test_a_wrong_kept_image_shows():
    """A wrong image planted in either kept record makes the comparison
    of the property above fail."""
    for plant in ("D_i", "R o D_i"):
        p, pde = chain_problem()
        n = nf(parse_expr("X*g_x", p))
        assert_kept_images_are_fresh(n, 0, p, pde)
        kept = (calculus._TOTALS[p] if plant == "D_i"
                else pde.stores[p].images)
        kept[0][p.declared("X")] = nf(p.declared("M")), 1
        with pytest.raises(AssertionError):
            assert_kept_images_are_fresh(n, 0, p, pde)


def test_commutator_candidates_never_take_part(monkeypatch):
    """Each commutator candidate [a, b] has the rows of a*b - b*a, two
    candidates before it.  Derived with every other candidate of the full
    basis into one Echelon, its column adds no pivot at any step of the
    chain, it is never a key of a solution (whose keys are the columns
    with a nonzero coefficient), and each step's targets solved on that
    reference system give the image of the kept store, which never forms
    the commutators."""
    from jetsym import backlund
    references, targets = [], []
    match = backlund._match_linear

    def recording(rows, echelon):
        targets.append(rows)
        return match(rows, echelon)

    monkeypatch.setattr(backlund, "_match_linear", recording)

    def reference(p, pde):
        basis = default_bt_basis(p)
        echelon, scales = Echelon([]), []
        for b in basis:
            _, rows, d = _bt_rows(b, *reduction(pde, p))
            rank = echelon.rank
            echelon.extend([_row_column(rows)])
            scales.append(d)
            if isinstance(b, Comm):
                assert echelon.rank == rank, b
        references.append((p, basis, scales, echelon))

    images = list(chain(reference))
    assert [sum(isinstance(b, Comm) for b in basis)
            for _, basis, _, _ in references] == [6, 10, 15, 21]
    for (p, basis, scales, echelon), rows, image in zip(references, targets,
                                                        images):
        sol = match(rows, echelon)
        assert sol and set(sol) <= set(range(len(basis)))
        assert not any(isinstance(basis[k], Comm) for k in sol)
        got = normal_form(add(*(mul(Rat(c * scales[k]), basis[k])
                                for k, c in sol.items())))
        assert render(got, p) == image
