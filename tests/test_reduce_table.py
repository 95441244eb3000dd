"""The principal-jet table behind reduce_mod_pde, checked against the
step-by-step reference reducer in helpers.py: the same output, whatever was
reduced before and in whatever order."""
import gc
from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random

import pytest

from jetsym import (Characteristic, Dependent, PotentialDef, Problem, Rat,
                    add, char_derivative, inverse, make_pde, mul,
                    normal_form, reduce_mod_pde)
from jetsym.backlund import chiral_phi_condition
from jetsym.catalog import CATALOG_NAMES, get_pde
from jetsym.core import Jet
from jetsym.normalize import nf
from jetsym.parsing import parse_expr
from jetsym.symmetry import PdeError, reduce_nf

from helpers import reference_reduce

MAX_ORDER = 5
MAX_KDV_T = 4  # kdv's u_t...t grows fastest; the reference takes seconds at 5


def fresh_pde(entry):
    """A Pde equal to the catalog's, with an empty table."""
    pde = entry.pde
    return make_pde(pde.name, pde.f, pde.leading, pde.rhs, entry.problem)


def principal_jets(entry) -> list[Jet]:
    p, lead = entry.problem, entry.pde.leading
    out = []
    for order in range(lead.order, MAX_ORDER + 1):
        for idx in combinations_with_replacement(range(len(p.coordinates)),
                                                 order):
            if any(idx.count(c) < lead.idx.count(c) for c in set(lead.idx)):
                continue
            if entry.name == "kdv" and idx.count(1) > MAX_KDV_T:
                continue
            out.append(Jet(p.dependent, idx))
    return out


def random_jet_polynomial(rng: Random, p: Problem):
    """A sum of products of jets up to order 4 (with inv(g) for an
    invertible dependent), coordinates and rational coefficients."""
    def jet():
        order = rng.randint(0, 4)
        return p.jet([rng.choice("xt") for _ in range(order)])

    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [Rat(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)))]
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.15:
                factors.append(p.coord(rng.choice("xt")))
            elif kind < 0.3 and p.dependent.invertible:
                factors.append(inverse(p.u))
            else:
                factors.append(jet())
        terms.append(mul(*factors))
    return add(*terms)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_principal_jets_match_reference(name):
    entry = get_pde(name)
    p, pde = entry.problem, fresh_pde(entry)
    for j in principal_jets(entry):
        e = mul(Rat(Fraction(-3, 2)), j)
        assert reduce_mod_pde(e, pde, p) == reference_reduce(e, pde, p), j


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_random_polynomials_match_reference(name):
    entry = get_pde(name)
    p, pde = entry.problem, entry.pde
    rng = Random(f"reduce-{name}")
    for _ in range(12):
        e = random_jet_polynomial(rng, p)
        assert reduce_mod_pde(e, pde, p) == reference_reduce(e, pde, p), e


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_characteristic_conditions_match_reference(name):
    entry = get_pde(name)
    p, pde = entry.problem, entry.pde
    raws = []
    for c in entry.characteristics:
        raws.append(char_derivative(pde.f, c.q, p))
        perturbed = Characteristic(c.name, add(c.q.q, p.jet("xx")),
                                   c.q.dependent)
        raws.append(char_derivative(pde.f, perturbed, p))
        if c.phi is not None:
            raws.append(chiral_phi_condition(c.phi, pde, p))
    for raw in raws:
        assert reduce_mod_pde(raw, pde, p) == reference_reduce(raw, pde, p)


@pytest.mark.parametrize("name", ["kdv", "sine-gordon", "chiral"])
def test_result_does_not_depend_on_call_order(name):
    entry = get_pde(name)
    p = entry.problem
    jets = [j for j in principal_jets(entry) if j.order <= 4]
    forward, backward = fresh_pde(entry), fresh_pde(entry)
    ahead = {j: reduce_mod_pde(j, forward, p) for j in jets}
    behind = {j: reduce_mod_pde(j, backward, p) for j in reversed(jets)}
    assert ahead == behind


def test_problems_with_other_coordinates_share_no_entry():
    p1 = Problem(coords=["x", "t"])
    p2 = Problem(coords=["y", "t"])
    pde = make_pde("heat-x", parse_expr("u_t - x*u_xx", p1), p1.jet("t"),
                   parse_expr("x*u_xx", p1), p1)
    # in p2 the coordinate x of the rhs is a constant under D_y
    assert reduce_mod_pde(p2.jet("yt"), pde, p2) == \
        reference_reduce(p2.jet("yt"), pde, p2)
    assert reduce_mod_pde(p1.jet("xt"), pde, p1) == \
        reference_reduce(p1.jet("xt"), pde, p1)
    assert reduce_mod_pde(p1.jet("xt"), pde, p1) != \
        reduce_mod_pde(p2.jet("yt"), pde, p2)


def test_orderly_only_solved_form_matches_reference():
    p = Problem(coords=["x", "t"])
    pde = make_pde("orderly", parse_expr("u_xxtt - u_xxx - u_ttt", p),
                   p.jet("xxtt"), parse_expr("u_xxx + u_ttt", p), p)
    for subs in ("xxtt", "xxxtt", "xxttt", "xxxxtt", "xxxttt"):
        j = p.jet(subs)
        assert reduce_mod_pde(j, pde, p) == reference_reduce(j, pde, p), subs


def _potential_problem(dx: str, dt: str) -> Problem:
    p = Problem(coords=["x", "t"])
    p.register_potential(PotentialDef(
        "X", {"x": parse_expr(dx, p), "t": parse_expr(dt, p)}, matrix=False))
    return p


def test_potential_in_rhs_keeps_a_table_per_problem():
    # the same coordinates and rhs X, but different gradients of X
    p1 = _potential_problem("u", "u_x")
    p2 = _potential_problem("u_x", "u_xx")
    pde = make_pde("nonlocal", parse_expr("u_t - X", p1), p1.jet("t"),
                   p1.potential("X"), p1)
    e = parse_expr("u_tt + u_xt*u_t", p1)
    got1 = reduce_mod_pde(e, pde, p1)
    got2 = reduce_mod_pde(e, pde, p2)
    assert got1 == normal_form(parse_expr("u_x + u*X", p1))
    assert got2 == normal_form(parse_expr("u_xx + u_x*X", p2))
    assert got1 == reference_reduce(e, pde, p1)
    assert got2 == reference_reduce(e, pde, p2)
    assert reduce_mod_pde(e, pde, p1) == got1
    assert len(pde.table) == 2


def test_a_table_goes_with_its_problem():
    entry = get_pde("heat")
    pde = fresh_pde(entry)
    p = Problem(coords=("x", "t"), dependent=entry.problem.dependent)
    reduce_mod_pde(parse_expr("u_tt", p), pde, p)
    assert len(pde.table) == 1
    del p
    gc.collect()
    assert len(pde.table) == 0


def test_jets_that_cancel_fill_no_entries():
    # the input is normalized before its principal jets are collected, so
    # u_t^8 - u_t^8 leaves only u_tt and the entries its value needs
    entry = get_pde("kdv")
    p, pde = entry.problem, fresh_pde(entry)
    ut8 = mul(*[p.jet("t")] * 8)
    assert reduce_mod_pde(add(ut8, -ut8, p.jet("tt")), pde, p) == \
        reduce_mod_pde(p.jet("tt"), fresh_pde(entry), p)
    assert sorted(pde.table[p]) == [(0, 0, 0, 1), (0, 0, 1), (0, 1), (1,),
                                    (1, 1)]


def test_potential_that_leads_back_to_its_jet_is_an_error():
    p = _potential_problem("u_xx", "u_xt")  # X = u_x
    pde = make_pde("cyclic", parse_expr("u_x - X", p), p.jet("x"),
                   p.potential("X"), p)
    with pytest.raises(PdeError, match="u_xx mod F depends on itself"):
        reduce_mod_pde(p.jet("xx"), pde, p)


@pytest.mark.parametrize("name,k", [("heat", 300), ("wave", 400),
                                    ("wave", 1200)])
def test_deep_principal_jets_reduce_on_a_cold_table(name, k):
    # heat u_t = u_xx and wave u_tt = c^2 u_xx: u_t^k reduces to a single
    # term through a chain of about k table entries; at k = 1200 the chain
    # is longer than Python's default recursion limit of 1000 frames
    entry = get_pde(name)
    p = entry.problem
    got = reduce_mod_pde(p.jet("t" * k), fresh_pde(entry), p)
    if name == "heat":
        want = p.jet("x" * 2 * k)
    else:
        want = mul(*[p.declared("c")] * k, p.jet("x" * k))
    assert got == normal_form(want)


@pytest.mark.parametrize("name", ["kdv", "burgers", "chiral"])
def test_reduction_of_a_rational_multiple(name):
    """reduce_nf reduces a normal form cleared of denominators and divides
    the value back: exact, and an integral coefficient comes back as an
    int."""
    entry = get_pde(name)
    p, pde = entry.problem, entry.pde
    jet = "g_ttt" if name == "chiral" else "u_ttt"
    n = nf(parse_expr(f"{jet} + x*{jet}*{jet}", p))
    base = reduce_nf(n, pde, p)
    assert all(type(v) is int for v in base.values())
    for c in (Fraction(1, 2), Fraction(-7, 3), Fraction(4), 3):
        got = reduce_nf({k: v * c for k, v in n.items()}, pde, p)
        assert got == {k: v * c for k, v in base.items()}, c
        assert all(type(v) is int for v in got.values()
                   if Fraction(v).denominator == 1), c


def test_rational_solved_form_with_an_inverse_matches_reference():
    """A solved form with non-integral coefficients and inv(g): the image
    of g under R o D_t, and so that of inv(g), holds Fractions, which the
    derivation carries as a denominator."""
    p = Problem(coords=("x", "t"), dependent=Dependent("g", "matrix", True))
    rhs = parse_expr("1/2*g_xx + 1/3*g_x*inv(g)*g_x", p)
    pde = make_pde("rational", p.jet("t") - rhs, p.jet("t"), rhs, p)
    for text in ("g_tt", "g_xtt", "inv(g)*g_t", "2/5*g_ttt*inv(g)"):
        e = parse_expr(text, p)
        assert reduce_mod_pde(e, pde, p) == reference_reduce(e, pde, p), text
