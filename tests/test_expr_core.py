import dataclasses
from itertools import permutations

import pytest

from jetsym import (Dependent, PotentialDef, Problem, commutator, inverse,
                    is_zero, mk_jet, normal_form, parse_expr)
from jetsym.core import DeclarationError, InversionError, Jet, KindError, func


def test_jet_indices_canonicalize(sp):
    x, t = 0, 1
    assert mk_jet(sp.dependent, [t, x]) == mk_jet(sp.dependent, [x, t])
    assert mk_jet(sp.dependent, []) == sp.u
    assert mk_jet(sp.dependent, [x, x]).idx == (x, x)


def test_jet_permutation_invariance(sp):
    for idx in [(0, 1, 1), (1, 0, 0, 1)]:
        base = mk_jet(sp.dependent, idx)
        for perm in permutations(idx):
            assert mk_jet(sp.dependent, perm) == base


def test_unknown_coordinate_rejected(sp):
    with pytest.raises(DeclarationError):
        sp.jet("y")


def test_structural_eq_is_order_sensitive(mp):
    ux, u = mp.jet("x"), mp.u
    assert ux * u == ux * u
    assert ux * u != u * ux
    assert mp.jet("xt") == mp.jet("tx")


def test_commutator_basics(sp, mp):
    ux, ut = mp.jet("x"), mp.jet("t")
    kept = normal_form(commutator(ux, ut))
    assert not is_zero(kept)
    a = mp.cmat("A")
    assert is_zero(commutator(a, a))
    assert is_zero(commutator(sp.jet("x"), sp.jet("t")))  # scalars commute


def test_nodes_are_immutable(sp):
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.u.idx = (0,)


def test_inverse_validation(sp, mp):
    assert inverse(inverse(mp.u)) == mp.u
    with pytest.raises(InversionError):
        inverse(mp.jet("x"))  # only the zero-order jet is invertible
    with pytest.raises(InversionError):
        inverse(mp.cmat("A"))  # not declared invertible
    inverse(mp.cmat("B"))
    with pytest.raises(InversionError):
        inverse(sp.u + sp.jet("x"))  # never a sum


def test_non_invertible_dependent():
    p = Problem(coords=["x", "t"], dependent=Dependent("v"))
    with pytest.raises(InversionError):
        inverse(p.u)


def test_func_requires_scalar_argument(sp, mp):
    func("sin", sp.u)
    with pytest.raises(KindError):
        func("sin", mp.u)
    with pytest.raises(DeclarationError):
        func("tan", sp.u)


def test_duplicate_declarations_rejected():
    with pytest.raises(DeclarationError):
        Problem(coords=["x", "x"])
    with pytest.raises(DeclarationError):
        Problem(coords=["x", "t"], dependent=Dependent("x"))
    for declaration in ({"constants": ["c", "c"]},
                        {"constants": ["c"], "matrices": ["c"]},
                        {"matrices": ["M", ("M", True)]},
                        {"matrices": ["M"], "base_functions": [("M", True)]},
                        {"base_functions": ["f", "f"]},
                        {"base_functions": ["u"]}):
        with pytest.raises(DeclarationError,
                           match="'.' declared more than once"):
            Problem(coords=["x", "t"], **declaration)


def _declare(kind: str, name: str):
    if kind == "coordinate":
        return Problem(coords=["x", name])
    if kind == "dependent":
        return Problem(dependent=Dependent(name))
    if kind == "constant":
        return Problem(constants=[name])
    if kind == "matrix":
        return Problem(matrices=[name])
    if kind == "base-function":
        return Problem(base_functions=[name])
    p = Problem()
    return p.register_potential(
        PotentialDef(name, {"x": p.jet("t"), "t": p.jet("x")}))


@pytest.mark.parametrize("name", ["", "c_1", "1c"])
@pytest.mark.parametrize("kind", ["coordinate", "dependent", "constant",
                                  "matrix", "base-function", "potential"])
def test_a_declared_name_is_one_the_parser_reads(kind, name):
    """Every declared name renders as itself, so it must be an identifier
    of the expression parser: a letter, then letters and digits."""
    with pytest.raises(DeclarationError,
                       match="is not a letter followed by letters and digits"):
        _declare(kind, name)
    _declare(kind, "c1")  # a letter, then letters and digits


def chiral_shaped() -> Problem:
    return Problem(coords=["x", "t"], dependent=Dependent("g", "matrix", True),
                   constants=["c"], matrices=[("M", False)],
                   base_functions=[("f", True)])


@pytest.mark.parametrize("name", ["g", "x", "c", "M", "f", "X"],
                         ids=["dependent", "coordinate", "constant", "matrix",
                              "base-function", "potential"])
def test_a_potential_may_not_reuse_a_declared_name(name):
    p = chiral_shaped()
    gradient = {"x": p.jet("t"), "t": p.jet("x")}
    p.register_potential(PotentialDef("X", gradient))
    declared = parse_expr(name, p)
    with pytest.raises(DeclarationError,
                       match=f"name '{name}' declared more than once"):
        p.register_potential(PotentialDef(name, gradient))
    assert parse_expr(name, p) == declared
    assert list(p.potentials) == ["X"]
