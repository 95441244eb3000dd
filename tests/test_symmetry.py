import dataclasses
import gc
from fractions import Fraction
from random import Random

from hypothesis import given, settings

import pytest

from jetsym import (Characteristic, Verdict, bracket_characteristic,
                    check_symmetry, certify_operator, find_operator, is_zero,
                    make_pde, normal_form, reduce_mod_pde,
                    structure_constants)
from jetsym import catalog
from jetsym.backlund import declare_potential
from jetsym.catalog import get_pde
from jetsym.core import (CMat, Dependent, ONE, PotentialDef, Problem, Rat,
                         Sym, ZERO, add, mul)
from jetsym.parsing import parse_expr, parse_operator
from jetsym.printing import render
from jetsym.symmetry import (AnsatzConfig, BasisError, LinearOperatorAnsatz,
                             PdeError, SpanError)

from conftest import seeded_characteristics
from helpers import (apply_operator, canonical, same_operator,
                     scalar_problem)

SP = scalar_problem()
HEAT = get_pde("heat")


def Q_of(entry, text, name="Q"):
    p = entry.problem
    return Characteristic(name, parse_expr(text, p), p.dependent)


# --- make_pde validation --------------------------------------------------

def test_make_pde_rejects_inconsistent_solved_form(sp):
    f = sp.jet("t") - sp.jet("xx")
    with pytest.raises(PdeError):
        make_pde("bad", f, sp.jet("t"), sp.jet("x"), sp)


def test_make_pde_rejects_unsolved_rhs(sp):
    f = sp.jet("t") - sp.jet("xt")
    with pytest.raises(PdeError, match=r"no lex or orderly ranking puts the "
                                       r"solved-form rhs jets u_xt below the "
                                       r"leading jet u_t$"):
        make_pde("bad", f, sp.jet("t"), sp.jet("xt"), sp)


@pytest.mark.parametrize("coords", [["x", "t"], ["x", "t", "y"]],
                         ids=["two", "three"])
def test_make_pde_refuses_every_principal_jet_in_the_rhs(coords):
    """A principal jet of the rhs, the leading jet itself included, is
    named by the ranking check: no lex or orderly ranking puts it below
    the leading jet.  Seeded leading jets of order 0 to 3 with principal
    jets up to order 4, next to parametric jets of order up to 4."""
    p = Problem(coords=coords, dependent=Dependent("u"))
    rng = Random(f"principal-rhs-{len(coords)}")

    def draw(order: int) -> str:
        return "".join(sorted(rng.choice(coords) for _ in range(order)))

    for case in range(100):
        lead = draw(rng.randint(0, 3))
        principal = p.jet(lead + draw(rng.randint(0, 4 - len(lead))))
        if case % 5 == 0:
            principal = p.jet(lead)
        others = [p.jet(draw(rng.randint(0, 4))) for _ in range(2)]
        rhs = add(principal, *(mul(Rat(rng.randint(1, 3)), j)
                               for j in others))
        with pytest.raises(PdeError, match=r"^no lex or orderly ranking puts "
                                           r"the solved-form rhs jets ") as exc:
            make_pde("bad", p.jet(lead) - rhs, p.jet(lead), rhs, p)
        named = str(exc.value).partition("rhs jets ")[2]
        named = named.partition(" below the leading jet")[0].split(", ")
        assert render(principal, p) in named, (case, lead, str(exc.value))


def test_make_pde_rejects_unranked_solved_form(sp):
    f = parse_expr("u_xt - u_xx - u_tt", sp)
    with pytest.raises(PdeError, match=r"no lex or orderly ranking puts the "
                                       r"solved-form rhs jets u_xx, u_tt "
                                       r"below the leading jet u_xt$"):
        make_pde("bad", f, sp.jet("xt"), parse_expr("u_xx + u_tt", sp), sp)


@pytest.mark.parametrize("lead", ["u_t + u", "x", "2*u_t", "0"])
def test_make_pde_rejects_a_lead_that_is_not_a_jet(sp, lead):
    f = parse_expr(f"{lead} - u_xx", sp)
    with pytest.raises(PdeError, match=r"which is not a jet of the problem's "
                                       r"dependent$"):
        make_pde("bad", f, parse_expr(lead, sp), sp.jet("xx"), sp)


def test_make_pde_rejects_a_jet_of_another_dependent(sp, mp):
    with pytest.raises(PdeError, match=r"^solved form leads with u_t, which "
                                       r"is not a jet of the problem's "
                                       r"dependent$"):
        make_pde("bad", mp.jet("t"), mp.jet("t"), ZERO, sp)


@pytest.mark.parametrize("lead, rhs", [
    ("u_t", "u_xx + u_xxxxx"),        # lex with t first, not orderly
    ("u_xxtt", "u_xxx + u_ttt"),      # orderly, not lex
    ("u_xt", "u_xx + u_x*u_t"),       # lex with t first and orderly
    ("u_xx", "u_t + u_ttt"),          # lex with x first
])
def test_make_pde_accepts_lex_and_orderly_rankings(sp, lead, rhs):
    f = parse_expr(f"{lead} - ({rhs})", sp)
    make_pde("ranked", f, parse_expr(lead, sp), parse_expr(rhs, sp), sp)


# --- reduce_mod_pde -------------------------------------------------------

def test_reduce_heat_utt():
    p = HEAT.problem
    got = reduce_mod_pde(p.jet("tt"), HEAT.pde, p)
    assert got == normal_form(p.jet("xxxx"))


def test_reduce_heat_mixed():
    p = HEAT.problem
    e = parse_expr("u_xt * u + u_t", p)
    got = reduce_mod_pde(e, HEAT.pde, p)
    want = normal_form(parse_expr("u_xxx * u + u_xx", p))
    assert got == want


def test_reduce_chiral_multiple_of_f():
    entry = get_pde("chiral")
    p = entry.problem
    gf = normal_form(p.u * entry.pde.f)
    assert is_zero(reduce_mod_pde(gf, entry.pde, p))


def test_reduce_leaves_irreducible_alone():
    p = HEAT.problem
    e = normal_form(parse_expr("u_xx + x*u", p))
    assert reduce_mod_pde(e, HEAT.pde, p) == e


# --- check_symmetry -------------------------------------------------------

def test_heat_symmetries_positive():
    for text in ("u_x", "u_t", "u", "x*u_x + 2*t*u_t",
                 "2*t*u_x + x*u", "x"):
        rep = check_symmetry(HEAT.pde, Q_of(HEAT, text), HEAT.problem)
        assert rep.verdict is Verdict.SYMMETRY, text
        assert is_zero(rep.remainder)


def test_heat_negative_control():
    rep = check_symmetry(HEAT.pde, Q_of(HEAT, "x*u_t"), HEAT.problem)
    assert rep.verdict is Verdict.NOT_SYMMETRY
    assert not is_zero(rep.remainder)


def test_sine_gordon_negative_control():
    sg = get_pde("sine-gordon")
    rep = check_symmetry(sg.pde, Q_of(sg, "u"), sg.problem)
    assert rep.verdict is Verdict.NOT_SYMMETRY


def test_chiral_symmetry_left_current():
    ch = get_pde("chiral")
    Q = Characteristic("q", parse_expr("g_x", ch.problem), ch.problem.dependent)
    rep = check_symmetry(ch.pde, Q, ch.problem)
    assert rep.verdict is Verdict.SYMMETRY


# --- certificates ---------------------------------------------------------

def test_certify_heat_ux():
    lhat = parse_operator("D_x*F", HEAT.problem)
    assert certify_operator(HEAT.pde, Q_of(HEAT, "u_x"), lhat, HEAT.problem)


def test_certify_wrong_operator_fails():
    lhat = parse_operator("D_t*F", HEAT.problem)
    assert not certify_operator(HEAT.pde, Q_of(HEAT, "u_x"), lhat, HEAT.problem)


def test_certify_kdv_galilean():
    kdv = get_pde("kdv")
    lhat = parse_operator("t*D_x*F", kdv.problem)
    assert certify_operator(kdv.pde, Q_of(kdv, "t*u_x - 1"), lhat, kdv.problem)


def test_certify_kdv_scaling():
    kdv = get_pde("kdv")
    lhat = parse_operator("5*F + x*D_x*F + 3*t*D_t*F", kdv.problem)
    Q = Q_of(kdv, "x*u_x + 3*t*u_t + 2*u")
    assert certify_operator(kdv.pde, Q, lhat, kdv.problem)


def test_find_operator_heat_scaling():
    Q = Q_of(HEAT, "x*u_x + 2*t*u_t")
    lhat = find_operator(HEAT.pde, Q, HEAT.problem)
    assert lhat is not None
    want = parse_operator("2*F + x*D_x*F + 2*t*D_t*F", HEAT.problem)
    assert same_operator(lhat, want)


def test_find_operator_zero_for_x():
    lhat = find_operator(HEAT.pde, Q_of(HEAT, "x"), HEAT.problem)
    assert lhat is not None
    assert same_operator(lhat, LinearOperatorAnsatz(()))


@pytest.mark.parametrize("name", ["heat", "kdv", "chiral"])
def test_certificate_search_of_check_symmetry(name):
    """check_symmetry hands its normal form of D_Q F to the certificate
    search: the certificate find_operator gives from Q or from the
    reported D_Q F."""
    entry = get_pde(name)
    pde, p = entry.pde, entry.problem
    for c in entry.characteristics:
        report = check_symmetry(pde, c.q, p, search_certificate=True)
        if not report.is_symmetry:
            continue
        assert report.certificate == find_operator(pde, c.q, p), c.name
        assert report.certificate == find_operator(pde, None, p,
                                                   lhs=report.raw), c.name


def test_find_operator_none_for_nonsymmetry():
    assert find_operator(HEAT.pde, Q_of(HEAT, "x*u_t"), HEAT.problem) is None


def test_chiral_constant_conjugation_certificate():
    ch = get_pde("chiral")
    cc = ch.characteristic("phi4")
    assert certify_operator(ch.pde, cc.q, cc.certificate, ch.problem)


def test_identity_operator_applies():
    p = HEAT.problem
    identity = LinearOperatorAnsatz(((ONE, (), ONE),))
    got = apply_operator(identity, p.jet("x"), p)
    assert got == normal_form(p.jet("x"))


# --- structure constants --------------------------------------------------

def test_kdv_structure_constants():
    kdv = get_pde("kdv")
    p = kdv.problem
    basis = [Q_of(kdv, t, n) for n, t in
             [("q1", "u_x"), ("q2", "u_t"), ("q3", "t*u_x - 1"),
              ("q4", "x*u_x + 3*t*u_t + 2*u")]]
    sc = structure_constants(kdv.pde, basis, p)
    n = len(basis)
    # the nonzero entries (upper triangle) and antisymmetric partners
    nonzero = {(0, 3, 0): Fraction(-1), (1, 2, 0): Fraction(-1),
               (1, 3, 1): Fraction(-3), (2, 3, 2): Fraction(2)}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                want = nonzero.get((i, j, k), -nonzero.get((j, i, k), Fraction(0)))
                assert sc[(i, j, k)] == want, (i, j, k)


def test_structure_constants_reject_dependent_basis():
    basis = [Q_of(HEAT, "u_x", "a"), Q_of(HEAT, "2*u_x", "b")]
    with pytest.raises(BasisError):
        structure_constants(HEAT.pde, basis, HEAT.problem)


def test_structure_constants_reject_nonclosed():
    basis = [Q_of(HEAT, "u_x", "a"), Q_of(HEAT, "2*t*u_x + x*u", "b")]
    with pytest.raises(SpanError):
        structure_constants(HEAT.pde, basis, HEAT.problem)


def test_structure_constants_reject_nonsymmetry():
    basis = [Q_of(HEAT, "u_x", "a"), Q_of(HEAT, "x*u_t", "b")]
    with pytest.raises(BasisError):
        structure_constants(HEAT.pde, basis, HEAT.problem)


# --- linearity of the symmetry condition ----------------------------------

@settings(max_examples=40, deadline=None)
@given(seeded_characteristics(SP), seeded_characteristics(SP))
def test_symmetry_condition_is_linear(q1, q2):
    from jetsym import char_derivative
    f = SP.jet("t") - SP.jet("xx")
    qsum = Characteristic("s", q1.q + q2.q, SP.dependent)
    assert is_zero(char_derivative(f, qsum, SP)
                   - char_derivative(f, q1, SP)
                   - char_derivative(f, q2, SP))


def test_bracket_of_symmetries_is_symmetry():
    qs = [Q_of(HEAT, "u_x", "a"), Q_of(HEAT, "2*t*u_x + x*u", "b")]
    br = bracket_characteristic(qs[0], qs[1], HEAT.problem)
    rep = check_symmetry(HEAT.pde, br, HEAT.problem)
    assert rep.verdict is Verdict.SYMMETRY


def test_ansatz_config_bounds():
    Q = Q_of(HEAT, "x*u_x + 2*t*u_t")
    cfg = AnsatzConfig(max_deriv_order=0, coeff_degree=0)
    assert find_operator(HEAT.pde, Q, HEAT.problem, cfg=cfg) is None


# --- the ansatz echelon kept per problem -----------------------------------

# a catalog PDE, its ansatz bounds, and a potential that can be declared on
# it (a new name, with a gradient whose cross derivatives agree mod F)
HISTORY = {"kdv": ((4, 3), "V", {"x": "u", "t": "-(1/2*u*u + u_xx)"}, False),
           "chiral": ((2, 2), "Y", {"x": "inv(g)*g_t", "t": "-(inv(g)*g_x)"},
                      True)}


def private_copy(entry):
    """A Problem declared like the catalog's, and its Pde made anew."""
    p0, pde = entry.problem, entry.pde
    p = Problem(coords=[c.name for c in p0.coordinates],
                dependent=p0.dependent,
                constants=[c.name for c in p0.atoms(Sym)],
                matrices=[(m.name, m.invertible) for m in p0.atoms(CMat)])
    return p, make_pde(pde.name, pde.f, pde.leading, pde.rhs, p)


@pytest.mark.parametrize("name", sorted(HISTORY))
def test_certificate_does_not_depend_on_call_history(name):
    """find_operator gives the same certificate on the first call, on the
    second, after a potential is declared on the problem, and on a private
    problem: the kept echelon changes no answer.  The catalog entry is
    built anew, so that the potential reaches no other test."""
    bounds, pot, gradient, matrix = HISTORY[name]
    cfg = AnsatzConfig(*bounds)
    entry = catalog._build_entry(name, catalog._load_raw()["pdes"][name])
    p, pde = entry.problem, entry.pde
    chars = [c.q for c in entry.characteristics]

    def certificates(pde, p):
        out = [find_operator(pde, q, p, cfg) for q in chars]
        assert all(c is not None for c in out)
        return [canonical(c) for c in out]

    first = certificates(pde, p)
    assert first == certificates(pde, p)
    declare_potential(PotentialDef(pot, {c: parse_expr(g, p)
                                         for c, g in gradient.items()},
                                   matrix=matrix), pde, p)
    assert certificates(pde, p) == first
    private, private_pde = private_copy(entry)
    assert certificates(private_pde, private) == first

    assert len(pde.stores) == 1 == len(private_pde.stores)
    assert list(pde.stores[p].ansatz) == [cfg]
    assert list(private_pde.stores[private].ansatz) == [cfg]
    assert len(dataclasses.replace(pde).stores) == 0
    del private
    gc.collect()
    assert len(private_pde.stores) == 0
