"""Printing from the normal form (`printing.render_nf`, `pretty_nf`).

`render_nf(n)` must give, byte for byte, what `render` gives on the tree
`rebuild(n)`: the CLI prints every answer it holds as a normal form this
way.  The property runs on seeded normal forms whose coefficients are
drawn as ints, integral Fractions and Fractions; the table below pins the
shapes the two printers could part on."""
from fractions import Fraction
from random import Random

import pytest

from jetsym import Dependent, Problem, parse_expr, pretty
from jetsym.catalog import CATALOG_NAMES, get_pde
from jetsym.normalize import nf, rebuild
from jetsym.printing import pretty_nf, render, render_nf

from helpers import (matrix_problem, random_expr, resugar_commutators,
                     scalar_problem)
from test_reduce_table import COEFFICIENTS, random_jet_polynomial


def assert_same_text(n: dict, p: Problem, note) -> None:
    tree = rebuild(n)
    assert render_nf(n, p) == render(tree, p), note
    assert pretty_nf(n, p) == render(resugar_commutators(tree, p), p), note


@pytest.mark.parametrize("problem", [scalar_problem(), matrix_problem()],
                         ids=["scalar", "matrix"])
def test_render_nf_equals_the_tree_walk_on_random_forms(problem):
    rng = Random(f"render-nf-{problem.dependent.kind}")
    for case in range(80):
        n = nf(random_expr(rng, problem, 4))
        assert_same_text(n, problem, case)
        draws = COEFFICIENTS[case % 3]
        assert_same_text({k: rng.choice(draws) for k in n}, problem, case)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_render_nf_equals_the_tree_walk_on_catalog_pdes(name):
    p = get_pde(name).problem
    rng = Random(f"render-nf-{name}")
    for case in range(30):
        n = nf(random_jet_polynomial(rng, p))
        assert_same_text(n, p, case)
        draws = COEFFICIENTS[case % 3]
        assert_same_text({k: rng.choice(draws) for k in n}, p, case)


SP = scalar_problem()
MP = matrix_problem()
X1 = Problem(coords=["x1", "t"], dependent=Dependent("u", "scalar", True),
             constants=["lam"], base_functions=["f"])

# (problem, normal form given as text or as terms, its printed text)
EDGE_CASES = [
    (SP, {}, "0"),
    (SP, "-3", "-3"),
    (SP, "-1/2", "-1/2"),
    (SP, {((), ()): Fraction(6, 2)}, "3"),
    (SP, "-u_x", "-u_x"),
    (SP, "-u_x - u_t", "-u_x - u_t"),
    (SP, "u_t - 2*x", "(-2)*x + u_t"),
    (SP, "-1/2*lam*u", "(-1/2)*lam*u"),
    (SP, "u - 1/2", "-1/2 + u"),
    (SP, "u_x*u_x - 3", "-3 + u_x*u_x"),
    (SP, "2*inv(u)*inv(u)*u_x", "2*inv(u)*inv(u)*u_x"),
    (SP, "-inv(u)", "-inv(u)"),
    (SP, "sin(u)*exp(u_x) - D(f, x)*D(D(f, t), x)",
     "-D(f, x)*D(D(f, x), t) + exp(u_x)*sin(u)"),
    (MP, "-inv(u)*u_x*inv(B)", "-inv(u)*u_x*inv(B)"),
    (MP, "B*inv(B)*u - 2*inv(u)*A", "u + (-2)*inv(u)*A"),
    (MP, "x*inv(u)*u_t - 1/2*u*inv(u)*B", "(-1/2)*B + x*inv(u)*u_t"),
    (X1, "-D(u, x1)*inv(u) + 2*D(f, x1) - lam*D(D(u, x1), t)",
     "-lam*D(D(u, x1), t) - inv(u)*D(u, x1) + 2*D(f, x1)"),
]


@pytest.mark.parametrize("p, given, text", EDGE_CASES,
                         ids=[str(i) for i in range(len(EDGE_CASES))])
def test_render_nf_edge_cases(p, given, text):
    """The empty form, lone negative and fractional constants, leading
    coefficients -1, -2 and -1/2, scalar inv(u) powers, matrix words with
    inv(u) and inv(B), analytic functions, base partials and a
    multi-letter coordinate."""
    n = nf(parse_expr(given, p)) if isinstance(given, str) else given
    assert render_nf(n, p) == text
    assert render(rebuild(n), p) == text


def test_pretty_nf_folds_commutators_before_the_other_terms():
    p = get_pde("chiral").problem
    for text, want in (
            ("g_x*M - M*g_x + g_t", "comm(g_x, M) + g_t"),
            ("2*x*M*g - 2*x*g*M - g_t", "(-2)*x*comm(g, M) - g_t"),
            ("g*M - M*g", "comm(g, M)")):
        n = nf(parse_expr(text, p))
        assert pretty_nf(n, p) == want
        assert render(resugar_commutators(rebuild(n), p), p) == want


def test_resugar_returns_a_carrying_tree_that_folds_no_pair():
    """The reference fold reads the normal form a tree carries and returns
    the tree itself when no pair folds; `pretty` folds from the form."""
    p = get_pde("chiral").problem
    e = rebuild(nf(parse_expr("g_x*M + inv(g)*g_t*x", p)))
    assert resugar_commutators(e, p) is e
    folds = rebuild(nf(parse_expr("g_x*M - M*g_x + g_t", p)))
    assert pretty(folds, p) == "comm(g_x, M) + g_t"
