import re
import sys
from fractions import Fraction
from random import Random

from hypothesis import given, settings

import pytest

from jetsym import (Problem, Rat, Sym, add, is_zero, mul, normal_form,
                    total_derivative)
from jetsym.core import neg
from jetsym.parsing import MAX_DEPTH, ParseError, parse_expr, parse_operator
from jetsym.printing import pretty, render

from conftest import seeded_exprs
from helpers import (INT_DIGITS, NEEDS_INT_DIGITS, apply_operator,
                     matrix_problem, random_expr, same_operator,
                     scalar_problem)

SP = scalar_problem()
MP = matrix_problem()


# --- grammar --------------------------------------------------------------

def test_numbers_and_rationals(sp):
    assert parse_expr("3", sp) == Rat(Fraction(3))
    assert (normal_form(parse_expr("-2/6 * u", sp))
            == normal_form(Rat(Fraction(-1, 3)) * sp.u))


def test_jets_by_subscript(sp):
    assert parse_expr("u_x", sp) == sp.jet("x")
    assert parse_expr("u_xxt", sp) == sp.jet("xxt")
    assert parse_expr("u_tx", sp) == sp.jet("xt")  # order-insensitive


def test_precedence_and_parens(sp):
    e = parse_expr("u + 2*u_x*u_t", sp)
    want = sp.u + 2 * sp.jet("x") * sp.jet("t")
    assert is_zero(e - want)
    e2 = parse_expr("(u + 2*u_x)*u_t", sp)
    want2 = (sp.u + 2 * sp.jet("x")) * sp.jet("t")
    assert is_zero(e2 - want2)


def test_unary_minus(sp):
    assert is_zero(parse_expr("-u_x + u_x", sp))
    assert is_zero(parse_expr("-(u + u_t) + u + u_t", sp))


def test_inv_and_comm(mp):
    from jetsym import commutator, inverse
    assert (normal_form(parse_expr("inv(u)*u_x", mp))
            == normal_form(inverse(mp.u) * mp.jet("x")))
    assert is_zero(parse_expr("comm(u_x, u_t)", mp)
                   - (mp.jet("x") * mp.jet("t") - mp.jet("t") * mp.jet("x")))


def test_functions_scalar_only(sp, mp):
    from jetsym import func
    assert parse_expr("sin(u)", sp) == func("sin", sp.u)
    with pytest.raises(Exception):
        parse_expr("sin(u)", mp)


def test_total_derivative_builtin(sp):
    got = parse_expr("D(u*u_x, x)", sp)
    want = total_derivative(sp.u * sp.jet("x"), sp.coordinate("x"), sp)
    assert normal_form(got) == want


def test_constants_and_matrices(sp, mp):
    assert parse_expr("lam", sp) == Sym("lam")
    assert parse_expr("A", mp) == mp.declared("A")


# --- errors ---------------------------------------------------------------

def test_unknown_name(sp):
    with pytest.raises(ParseError):
        parse_expr("v_x", sp)


def test_unknown_jet_coordinate(sp):
    with pytest.raises(Exception):
        parse_expr("u_y", sp)


def test_empty_jet_subscript(sp, mp):
    """u_ names no jet: the dependent itself is u, and Problem.jet(())
    is the library's way to it."""
    for p, text in ((sp, "u_"), (sp, "u_ + u"), (mp, "inv(u)*u_")):
        with pytest.raises(ParseError, match="empty jet subscript") as exc:
            parse_expr(text, p)
        assert exc.value.pos == text.index("_") - 1
    assert sp.jet(()) is sp.u


def test_error_positions(sp):
    with pytest.raises(ParseError) as exc:
        parse_expr("u_x + ", sp)
    assert exc.value.pos == 6
    with pytest.raises(ParseError) as exc:
        parse_expr("u_x + %", sp)
    assert exc.value.pos == 6


def test_unbalanced_parens(sp):
    with pytest.raises(ParseError):
        parse_expr("(u + u_x", sp)


def test_empty_input(sp):
    with pytest.raises(ParseError):
        parse_expr("", sp)


@pytest.mark.parametrize("text, message", [
    ("1/0", "zero denominator"),
    ("inv(u, u)", "inv takes one argument"),
    ("comm(u)", "comm takes two arguments"),
    ("comm(u, u_x, u_t)", "comm takes two arguments"),
    ("D(u)", "D takes an expression and a coordinate name"),
    ("D(u, x, t)", "D takes an expression and a coordinate name"),
    ("D(u, 1)", "D takes an expression and a coordinate name"),
    ("sin(x, t)", "sin takes one argument"),
    ("", "unexpected end of input"),
    ("2*", "unexpected end of input"),
    ("(u", "expected ')', got end of input"),
])
def test_zero_denominator_and_wrong_arity(mp, text, message):
    with pytest.raises(ParseError,
                       match=rf"^{re.escape(message)} \(at position \d+\)$"):
        parse_expr(text, mp)


TOO_LONG = ("number longer than Python's int conversion limit of "
            f"{INT_DIGITS} digits")

# messages and positions the lexer and parser give on bad characters (a
# digit outside ASCII among them), on runs of tab, newline and
# non-breaking-space whitespace, on input that ends mid-expression, on
# D(...) of an unknown coordinate, which is placed at the coordinate, and
# on a number too long to convert; parse_expr and parse_operator give the
# same
LEXER_ERRORS = [
    ("u $ u_x", "unexpected character '$'", 2),
    ("$", "unexpected character '$'", 0),
    ("u_x*@", "unexpected character '@'", 4),
    ("2*\u00fc", "unexpected character '\u00fc'", 2),
    ("\u00fcu", "unexpected character '\u00fc'", 0),
    ("u\t\xa0$", "unexpected character '$'", 3),
    ("\xa0\xa0@", "unexpected character '@'", 2),
    ("u_x u $", "unexpected character '$'", 6),
    ("\t\n\xa0", "unexpected end of input", 3),
    ("u_x +\t\n", "unexpected end of input", 7),
    ("u_x*\xa0", "unexpected end of input", 5),
    ("u +\xa0-", "unexpected end of input", 5),
    ("(u + u_x", "expected ')', got end of input", 8),
    ("sin(u", "expected ')', got end of input", 5),
    ("inv(", "unexpected end of input", 4),
    ("comm(u,", "unexpected end of input", 7),
    ("D(u,", "unexpected end of input", 4),
    ("2/", "expected integer denominator", 2),
    ("2/\t", "expected integer denominator", 3),
    ("3/\n0", "zero denominator", 3),
    ("u_x u", "trailing input 'u'", 4),
    ("u_x\n)", "trailing input ')'", 4),
    ("u + D(u_x, y)", "unknown coordinate 'y'", 11),
    ("\u0663*u", "unexpected character '\u0663'", 0),
    ("2*u_x + \u0663", "unexpected character '\u0663'", 8),
    pytest.param("9" * (INT_DIGITS + 1), TOO_LONG, 0, id="long-number",
                 marks=NEEDS_INT_DIGITS),
    pytest.param("u + 1/" + "7" * (INT_DIGITS + 1), TOO_LONG, 6,
                 id="long-denominator", marks=NEEDS_INT_DIGITS),
]


@pytest.mark.parametrize("text, message, pos", LEXER_ERRORS)
def test_lexer_error_table(sp, text, message, pos):
    for parse in (parse_expr, parse_operator):
        with pytest.raises(ParseError) as exc:
            parse(text, sp)
        assert (exc.value.message, exc.value.pos) == (message, pos)


@pytest.mark.parametrize("text", ["u\t\t+\t u_x", "u\n\n+\nu_x",
                                  "u\xa0+\xa0\xa0u_x", "\t u\n+ u_x\xa0"])
def test_runs_of_whitespace_separate_tokens(sp, text):
    assert parse_expr(text, sp) == parse_expr("u + u_x", sp)


# --- operator mini-grammar ------------------------------------------------

def test_parse_operator_terms(sp):
    op = parse_operator("2*F + x*D_x*F + 2*t*D_t*F", sp)
    op2 = parse_operator("x*D_x*F + 2*t*D_t*F + 2*F", sp)
    assert same_operator(op, op2)


def test_parse_operator_zero(sp):
    from jetsym.symmetry import LinearOperatorAnsatz
    assert same_operator(parse_operator("0", sp), LinearOperatorAnsatz(()))


def test_same_operator_collects_like_terms(sp):
    from jetsym.symmetry import LinearOperatorAnsatz

    def same(a, b):
        return same_operator(parse_operator(a, sp), parse_operator(b, sp))

    assert same("2*D_x*F + D_x*F", "3*D_x*F")
    assert same("2*-D_x*F", "-2*D_x*F")
    assert not same("2*D_x*F", "3*D_x*F")
    assert same_operator(parse_operator("D_x*F - D_x*F", sp),
                         LinearOperatorAnsatz(()))


def test_parse_operator_matrix_sides():
    from jetsym.catalog import get_pde
    ch = get_pde("chiral")
    op = parse_operator("F*M - M*F", ch.problem)
    got = apply_operator(op, ch.problem.declared("M"), ch.problem)
    assert is_zero(got)


def test_parse_operator_plain_term_is_multiplication(sp):
    op = parse_operator("u_x + 2", sp)
    got = apply_operator(op, sp.u, sp)
    want = normal_form((sp.jet("x") + 2) * sp.u)
    assert got == want


def test_parse_operator_folds_consecutive_signs():
    from jetsym.catalog import get_pde
    p = get_pde("kdv").problem

    def same_action(a, b):
        return is_zero(apply_operator(parse_operator(a, p), p.u, p)
                       - apply_operator(parse_operator(b, p), p.u, p))

    assert same_action("2*D_x*F - -D_x*F", "3*D_x*F")
    assert same_action("x*F + -(t)*F", "x*F - t*F")
    assert same_action("-+-F", "F")
    assert same_action("2*-D_x*F", "-2*D_x*F")


def test_parse_operator_splits_outside_brackets_only(sp):
    op = parse_operator("((-2)*t)*D_x*F + (x - t)*F", sp)
    got = apply_operator(op, sp.u, sp)
    want = normal_form(-2 * sp.coordinate("t") * sp.jet("x")
                       + (sp.coordinate("x") - sp.coordinate("t")) * sp.u)
    assert is_zero(got - want)


@pytest.mark.parametrize("text", ["D_x*F +", "-", "D_x*F + * F"])
def test_parse_operator_rejects_dangling_pieces(sp, text):
    with pytest.raises(ParseError):
        parse_operator(text, sp)


OPERATOR_ERRORS = {"D_x*F + x*D_y*F": "unknown coordinate 'y'",
                   "F + (x + )*F": "unexpected token ')'",
                   "2*F + F*F": "duplicate F in operator term",
                   "x*F - (t*%)*F": "unexpected character '%'",
                   "F)": "trailing input ')'",
                   "D_x*F +": "unexpected end of input"}


@pytest.mark.parametrize("text,pos", [("D_x*F + x*D_y*F", 10),
                                      ("F + (x + )*F", 9),
                                      ("2*F + F*F", 8),
                                      ("x*F - (t*%)*F", 9),
                                      ("F)", 1), ("D_x*F +", 7)])
def test_parse_operator_error_positions(sp, text, pos):
    with pytest.raises(ParseError) as exc:
        parse_operator(text, sp)
    assert exc.value.pos == pos
    assert exc.value.message == OPERATOR_ERRORS[text]


@pytest.mark.parametrize("pde,q", [("kdv", "u_x - 2*t*u_x + 2"),
                                   ("heat", "-1/2*x*u_x - t*u_t")])
def test_found_certificate_render_parse_round_trip(pde, q):
    from jetsym.calculus import Characteristic
    from jetsym.catalog import get_pde
    from jetsym.printing import render_operator
    from jetsym.symmetry import find_operator
    entry = get_pde(pde)
    p = entry.problem
    op = find_operator(entry.pde,
                       Characteristic("Q", parse_expr(q, p), p.dependent), p)
    text = render_operator(op, p)
    assert "((-" in text  # a bracketed negative coefficient
    assert same_operator(parse_operator(text, p), op)


# --- nesting bound --------------------------------------------------------

@pytest.mark.parametrize("text", ["(" * 3000 + "u" + ")" * 3000,
                                  "-" * 3000 + "u",
                                  "sin(" * 3000 + "u" + ")" * 3000],
                         ids=["brackets", "signs", "calls"])
def test_deep_nesting_exits_two(monkeypatch, capsys, text):
    from jetsym.cli import run
    monkeypatch.setattr(sys, "argv",
                        ["jetsym", "--pde", "heat", "parse", "--", text])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(
        "error: expression nested too deeply")


def test_deepest_allowed_nesting_goes_through(monkeypatch, capsys):
    from jetsym.cli import run
    k = MAX_DEPTH - 1  # the innermost u is one factor deeper than the sin(
    text = "sin(" * k + "u" + ")" * k
    monkeypatch.setattr(sys, "argv", ["jetsym", "--pde", "heat", "parse", text])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 0
    assert capsys.readouterr().out == text + "\n"
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expr("sin(" + text + ")", SP)


# --- round trips ----------------------------------------------------------

def test_render_examples(sp, mp):
    for text in ("u_x", "sin(u)", "x*u_x + 2*t*u_t"):
        e = normal_form(parse_expr(text, sp))
        assert normal_form(parse_expr(render(e, sp), sp)) == e
    for text in ("inv(u)*u_x", "comm(u_x, A)"):
        e = normal_form(parse_expr(text, mp))
        assert normal_form(parse_expr(render(e, mp), mp)) == e


@pytest.mark.parametrize("text", [
    "D(D(u, x1), t)", "D(f, x1)", "D(D(f, x1), t)", "u_t",
    "D(D(f, x1), x1)*D(u, x1) - 2*u_tt*D(f, t)"])
def test_multi_letter_coordinates_round_trip(text):
    """A jet or base-function partial with a multi-letter coordinate has
    no subscript form: it renders as nested D(...), which parses back."""
    p = Problem(coords=("x1", "t"), base_functions=["f"])
    e = normal_form(parse_expr(text, p))
    assert normal_form(parse_expr(render(e, p), p)) == e
    if "*" not in text:  # one atom renders as it was written
        assert render(e, p) == text


def test_a_sum_inside_a_library_built_product_is_bracketed(sp):
    """A product built without normalizing may hold a sum or a negative
    number as a factor; each renders in brackets and parses back."""
    x, u, ux = sp.coordinate("x"), sp.u, sp.jet("x")
    for e, text in [(mul(x, add(u, ux)), "x*(u + u_x)"),
                    (mul(Rat(-1), add(u, x)), "-(u + x)"),
                    (mul(add(u, neg(x)), u, Rat(-1)), "(u - x)*u*(-1)")]:
        assert render(e, sp) == text
        assert normal_form(parse_expr(text, sp)) == normal_form(e)


def test_pretty_resugars_commutators():
    from jetsym.catalog import get_pde
    ch = get_pde("chiral")
    p = ch.problem
    e = normal_form(parse_expr("comm(g_x, M)", p))
    assert "comm(" in pretty(e, p)


def test_pretty_prints_the_normal_form_of_any_tree():
    """pretty normalizes what it is given, not only rebuilt normal forms."""
    from jetsym.catalog import get_pde
    from jetsym.core import Inv, InversionError, Mul
    ch, heat = get_pde("chiral").problem, get_pde("heat").problem
    assert pretty(parse_expr("g*inv(g)", ch), ch) == "1"
    assert pretty(parse_expr("sin(x - x)", heat), heat) == "0"
    assert pretty(parse_expr("sin(x + x)", heat), heat) == "sin(2*x)"
    with pytest.raises(InversionError):
        pretty(Mul((heat.u, Inv(heat.jet("x")))), heat)


@settings(max_examples=80, deadline=None)
@given(seeded_exprs(SP, depth=5, scalar_only=True))
def test_roundtrip_scalar(e):
    n = normal_form(e)
    back = parse_expr(render(n, SP), SP)
    assert normal_form(back) == n


@settings(max_examples=80, deadline=None)
@given(seeded_exprs(MP, depth=5))
def test_roundtrip_matrix(e):
    n = normal_form(e)
    back = parse_expr(render(n, MP), MP)
    assert normal_form(back) == n
