"""The normal form a rebuilt tree carries (`normalize.rebuild`).

`nf` of a tree that `rebuild` returned answers from the form the tree
carries, so that form must be exactly what a walk of the tree computes:
the same terms in the same order, each coefficient of the same type; it
must not change the tree's value; and no engine entry point may change a
form it is given."""
import copy
import json
import pickle
import sys
from random import Random

import pytest

from jetsym import (Characteristic, Dependent, PotentialDef, Problem, add,
                    func, mul, parse_expr, pretty)
from jetsym.backlund import (bt_apply, bt_rhs, bt_seed_check,
                             chiral_phi_condition, declare_potential)
from jetsym.calculus import char_derivative
from jetsym.catalog import CATALOG_NAMES, get_pde
from jetsym.cli import main
from jetsym import normalize
from jetsym.core import Add, Mul
from jetsym.normalize import nf, rebuild
from jetsym.printing import render
from jetsym.symmetry import (check_symmetry, find_operator, make_pde,
                             reduce_mod_pde, reduce_nf, structure_constants)

from helpers import fresh_copy, matrix_problem, random_expr, scalar_problem
from test_reduce_table import COEFFICIENTS, random_jet_polynomial


def walked(n: dict) -> list:
    """The terms of a normal form with the type of each coefficient."""
    return [(k, v, type(v)) for k, v in n.items()]


def assert_carried(n: dict, note) -> None:
    """rebuild(n) carries exactly the normal form a walk of it computes."""
    e = rebuild(n)
    want = nf(fresh_copy(e))
    assert want == n, note
    if isinstance(e, (Add, Mul)):
        assert nf(e) is e.form, note
    assert walked(nf(e)) == walked(want), note


def redrawn(rng: Random, n: dict, case: int) -> dict:
    """n with its coefficients drawn again as ints, integral Fractions or
    Fractions, its terms kept in the order `nf` left them."""
    draws = COEFFICIENTS[case % 3]
    return {k: rng.choice(draws) for k in n}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_carried_form_equals_the_tree_walk_on_catalog_pdes(name):
    entry = get_pde(name)
    p, pde = entry.problem, entry.pde
    rng = Random(f"carried-{name}")
    for case in range(24):
        e = random_jet_polynomial(rng, p)
        if p.dependent.kind == "scalar" and rng.random() < 0.5:
            e = add(e, mul(func("sin", p.jet("x")), p.jet("t")))
        n = redrawn(rng, nf(e), case)
        assert_carried(n, (case, e))
        assert_carried(reduce_nf(n, pde, p), (case, e, "reduced"))


@pytest.mark.parametrize("problem", [scalar_problem(), matrix_problem()],
                         ids=["scalar", "matrix"])
def test_carried_form_equals_the_tree_walk_on_random_forms(problem):
    rng = Random(f"carried-{problem.dependent.kind}")
    for case in range(60):
        n = nf(random_expr(rng, problem, 4))
        assert_carried(n, case)
        assert_carried(redrawn(rng, n, case), case)


def test_a_carried_form_is_not_part_of_the_value():
    p = matrix_problem()
    rng = Random("carried-value")
    for case in range(30):
        n = {k: v for k, v in nf(random_expr(rng, p, 4)).items()}
        e = rebuild(n)
        c = fresh_copy(e)
        assert e == c and hash(e) == hash(c) and repr(e) == repr(c), case
        for back in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert back == e, case
            assert walked(nf(back)) == walked(nf(c)), case


def test_rebuilt_tree_inside_a_larger_tree_answers_from_its_form():
    """A factor, a term or a function argument that carries its form gives
    the normal form, in the same order, that a walk of it gives."""
    for p, text in ((scalar_problem(), "u_x*u + 2/4*x*u_t + 3 + sin(u)"),
                    (matrix_problem(), "u_x*A - 2*A*u_t*inv(u) + 3*x*u")):
        inner = rebuild(nf(parse_expr(text, p)))
        outers = [mul(p.jet("t"), inner, p.coordinate("x"), inner),
                  add(p.jet("t"), mul(-1, inner))]
        if p.dependent.kind == "scalar":
            outers.append(mul(func("sin", inner), inner))
        for outer in outers:
            assert walked(nf(outer)) == walked(nf(fresh_copy(outer))), outer


def _snapshot(trees) -> list:
    """The terms of the form each input carries (an atom carries none)."""
    out = [(t, list(nf(t).items())) for t in trees
           if isinstance(t, (Add, Mul))]
    assert out and all(nf(t) is t.form for t, _ in out)
    return out


def test_no_entry_point_changes_a_form_it_is_given():
    """Each public entry point, on rebuilt inputs: the form that each input
    carries is the same, in the same order, afterwards."""
    kdv = get_pde("kdv")
    p, pde = kdv.problem, kdv.pde
    basis = [Characteristic(c.name, rebuild(nf(c.q)), p.dependent)
             for c in kdv.characteristics if c.name in kdv.structure_basis]
    Q = basis[-1]
    cond = char_derivative(pde.f, Q, p)
    poly = rebuild(nf(parse_expr("u_xxt*u + 3*u_t*u_x - 1/2*u_xxxxx", p)))
    calls = [
        ("char_derivative", lambda: char_derivative(poly, Q, p), [poly, Q.q]),
        ("reduce_mod_pde", lambda: reduce_mod_pde(cond, pde, p), [cond]),
        ("find_operator", lambda: find_operator(pde, None, p, lhs=cond),
         [cond]),
        ("structure_constants", lambda: structure_constants(pde, basis, p),
         [b.q for b in basis]),
        ("pretty", lambda: pretty(poly, p), [poly]),
    ]
    # a private chiral problem: declaring a potential changes the problem
    cp = Problem(coords=("x", "t"), dependent=Dependent("g", "matrix", True),
                 matrices=[("M", False)])
    cpde = make_pde("chiral", parse_expr(
        "D(inv(g)*g_x, x) + D(inv(g)*g_t, t)", cp), cp.jet("tt"), parse_expr(
        "g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx", cp), cp)
    phi = rebuild(nf(parse_expr("1/3*M + 2*inv(g)*g_x - inv(g)*g_t", cp)))
    pair = bt_rhs(phi, cp)
    folds = rebuild(nf(parse_expr("g_x*M - M*g_x + 2*g_t*M", cp)))
    chiral = get_pde("chiral")
    cli_phi = ["--json", "--pde", "chiral", "check", "--phi",
               "1/3*M + 2*inv(g)*g_x - inv(g)*g_t"]
    calls += [
        ("chiral_phi_condition",
         lambda: chiral_phi_condition(phi, cpde, cp), [phi, cpde.f]),
        ("bt_seed_check", lambda: bt_seed_check(phi, cpde, cp),
         [phi, cpde.f, cpde.rhs]),
        ("cli check --phi", lambda: main(cli_phi),
         [chiral.pde.f, chiral.pde.rhs]),
        ("bt_rhs", lambda: bt_rhs(phi, cp), [phi]),
        ("declare_potential", lambda: declare_potential(
            PotentialDef("P", {"x": pair.rhs_x, "t": pair.rhs_t}), cpde, cp),
         [pair.rhs_x, pair.rhs_t]),
        ("bt_apply", lambda: bt_apply(phi, cpde, cp), [phi]),
        ("pretty, folding pairs", lambda: pretty(folds, cp), [folds]),
    ]
    for what, call, inputs in calls:
        snapshot = _snapshot(inputs)
        call()
        for t, items in snapshot:
            assert nf(t) is t.form and list(t.form.items()) == items, what


def _questions(name: str) -> list[Characteristic]:
    """The catalog characteristics of one PDE, and each plus u*u (u*g for
    chiral), which is a symmetry of none of them."""
    entry = get_pde(name)
    p = entry.problem
    extra = parse_expr("u*u" if p.dependent.kind == "scalar" else "g*g", p)
    qs = list(entry.characteristics)
    return qs + [Characteristic(q.name + "+", add(q.q, extra), q.dependent)
                 for q in qs]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_report_trees_are_the_rebuilt_forms(name):
    """A report holds the normal forms of D_Q F and of its remainder; its
    `raw` and `remainder` are those forms rebuilt, built once, and reading
    them changes neither the report's value nor its hash."""
    entry = get_pde(name)
    p, pde = entry.problem, entry.pde
    verdicts = set()
    for q in _questions(name):
        rep = check_symmetry(pde, q, p)
        again = check_symmetry(pde, q, p)
        assert rep == again and hash(rep) == hash(again), q.name
        assert rep.raw == rebuild(rep.raw_nf), q.name
        assert rep.remainder == rebuild(rep.remainder_nf), q.name
        assert nf(rep.raw) == rep.raw_nf, q.name
        assert nf(rep.remainder) == rep.remainder_nf, q.name
        assert rep.raw is rep.raw and rep.remainder is rep.remainder
        assert rep == again and hash(rep) == hash(again), q.name
        assert rep.is_symmetry == (not rep.remainder_nf), q.name
        verdicts.add(rep.verdict)
    assert len(verdicts) == 2
    first, *rest = [check_symmetry(pde, q, p) for q in _questions(name)]
    assert all(first != r for r in rest if r.raw_nf != first.raw_nf)


@pytest.mark.parametrize("args", [
    ["--pde", "kdv", "check", "--no-find", "--q", "x*u_x + u*u"],
    ["--pde", "sine-gordon", "check", "--no-find", "--q", "u_x - 1/2*u*u"],
    ["--pde", "chiral", "check", "--no-find", "--phi", "g_x - 2/3*inv(g)"],
    ["--pde", "kdv", "check", "--q", "t*u_x - 1"],
])
def test_cli_check_rebuilds_neither_raw_nor_remainder(monkeypatch, capsys,
                                                      args):
    """`check` prints raw and remainder from the normal forms its report
    holds: `rebuild`, counted wherever a module binds it, sees neither."""
    original = normalize.rebuild
    seen = []

    def counted(n):
        seen.append(n)
        return original(n)

    for mod in [m for k, m in sys.modules.items() if k.startswith("jetsym")]:
        if getattr(mod, "rebuild", None) is original:
            monkeypatch.setattr(mod, "rebuild", counted)
    main(["--json", *args])
    doc = json.loads(capsys.readouterr().out)
    printed = [doc["values"]["raw"], doc["remainder"]]
    monkeypatch.undo()
    entry = get_pde(args[1])
    p = entry.problem
    flag, text = args[-2:]
    q = parse_expr(text, p)
    if flag == "--phi":
        q = mul(p.u, q)
    rep = check_symmetry(entry.pde, Characteristic("Q", q, p.dependent), p)
    assert rep.raw_nf
    assert printed == [render(rep.raw, p), render(rep.remainder, p)]
    assert all(n != rep.raw_nf for n in seen)
    assert all(n != rep.remainder_nf for n in seen) or not rep.remainder_nf
