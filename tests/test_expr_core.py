import copy
import dataclasses
import pickle
import re
from fractions import Fraction
from itertools import permutations
from types import MappingProxyType

import pytest

from jetsym import (Dependent, PotentialDef, Problem, commutator, inverse,
                    is_zero, normal_form, parse_expr)
from jetsym.core import (Atom, Base, CMat, Coord, DeclarationError, Fn, Inv,
                         InversionError, Jet, KindError, Mul, Pot, Rat, Sym,
                         as_expr, expr_key, func, is_scalar, nodes)
from jetsym.normalize import collect_jets, nf
from jetsym.printing import render

from helpers import reference_expr_key


def test_jet_indices_canonicalize(sp):
    x, t = 0, 1
    assert Jet(sp.dependent, (t, x)) == Jet(sp.dependent, (x, t))
    assert Jet(sp.dependent, ()) == sp.u
    assert Jet(sp.dependent, (x, x)).idx == (x, x)


def test_jet_permutation_invariance(sp):
    for idx in [(0, 1, 1), (1, 0, 0, 1)]:
        base = Jet(sp.dependent, idx)
        for perm in permutations(idx):
            assert Jet(sp.dependent, perm) == base


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
    a = mp.declared("A")
    assert is_zero(commutator(a, a))
    assert is_zero(commutator(sp.jet("x"), sp.jet("t")))  # scalars commute


def test_nodes_are_immutable(sp):
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.u.idx = (0,)


def test_inverse_validation(sp, mp):
    """Inv refuses what inverse refuses, with the same message, when it is
    built; inverse of an inverse is its base, but Inv of one is refused."""
    assert inverse(inverse(mp.u)) == mp.u
    assert inverse(Inv(mp.u)) is mp.u
    inverse(mp.declared("B"))
    v = Problem(coords=["x", "t"], dependent=Dependent("v")).u
    for x, message in (
            (mp.jet("x"), "a derivative of u is not declared invertible"),
            (mp.declared("A"), "constant matrix A is not invertible"),
            (sp.u + sp.jet("x"),  # never a sum
             "inverse is only defined for invertible atoms, got Add"),
            (v, "dependent v is not declared invertible")):
        for build in (inverse, Inv):
            with pytest.raises(InversionError,
                               match=f"^{re.escape(message)}$"):
                build(x)
    with pytest.raises(InversionError, match="^inverse is only defined for "
                                             "invertible atoms, got Inv$"):
        Inv(Inv(mp.u))


def test_an_unknown_dependent_kind_is_refused():
    with pytest.raises(DeclarationError,
                       match="^unknown dependent kind 'tensor'$"):
        Dependent("u", "tensor")


def test_a_number_left_of_plus_or_minus_builds_the_same_sum(sp):
    """1 + u and 1 - u keep the number first, as Rat(1) + u and
    Rat(1) - u do."""
    u = sp.u
    assert 1 + u == Rat(1) + u
    assert 1 - u == Rat(1) - u
    assert (render(1 + u, sp), render(1 - u, sp)) == ("1 + u", "1 - u")


def test_non_invertible_dependent():
    p = Problem(coords=["x", "t"], dependent=Dependent("v"))
    with pytest.raises(InversionError):
        inverse(p.u)


def test_func_requires_scalar_argument(sp, mp):
    """Fn refuses what func refuses, when it is built: so no sin(u) of a
    matrix u stands in a product as a commuting factor."""
    func("sin", sp.u)
    for build in (func, Fn):
        with pytest.raises(KindError, match="^sin applied to a "
                                            "matrix-valued argument$"):
            build("sin", mp.u)
        with pytest.raises(DeclarationError,
                           match="^unknown analytic function 'tan'$"):
            build("tan", sp.u)


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


@pytest.mark.parametrize("value", [0.1, 2.0, True, "1", 1j],
                         ids=["float", "integral-float", "bool", "str",
                              "complex"])
def test_rat_refuses_what_as_expr_refuses(value):
    """A rational constant is an int or a Fraction: anything else, a float
    or a bool included, is refused, by `Rat` as by `as_expr`."""
    for make in (Rat, as_expr):
        with pytest.raises(TypeError):
            make(value)


def test_a_problem_stores_each_declaration_once():
    """The one table of declared names is a Problem's only record of its
    declarations: every public attribute of a problem with every kind of
    declaration is a tuple, a read-only mapping or a frozen value, and
    `atoms` lists the declared atoms of one kind in order of declaration."""
    p = Problem(coords=["x", "t"], dependent=Dependent("g", "matrix", True),
                constants=["k", "c"], matrices=[("N", True), "M"],
                base_functions=[("f", True), "a"])
    X = p.register_potential(PotentialDef("X", {"x": p.jet("t"),
                                                "t": p.jet("x")}))
    public = {k: v for k, v in vars(p).items() if not k.startswith("_")}
    for name, value in public.items():
        assert isinstance(value, (tuple, MappingProxyType)) or (
            dataclasses.is_dataclass(value)
            and value.__dataclass_params__.frozen), name
    assert set(public) == {"coordinates", "dependent", "potentials"}
    assert p.atoms(Coord) == p.coordinates
    assert p.atoms(Sym) == (p.declared("k"), p.declared("c"))
    assert p.atoms(CMat) == (CMat("N", True), CMat("M"))
    assert p.atoms(Base) == (Base("f", True), Base("a"))
    assert p.atoms(Pot) == (X,)
    assert p.atoms(Jet) == (p.u,)


def every_kind_of_atom(p: Problem) -> list:
    """One atom of each class in a chiral-shaped problem with a potential,
    nested function arguments and inverses included."""
    p.register_potential(PotentialDef("X", {"x": p.jet("t"),
                                            "t": p.jet("x")}))
    x, t, c = p.coordinate("x"), p.coordinate("t"), p.declared("c")
    return [x, t, c, p.u, p.jet("xt"), p.jet("ttx"), p.declared("f"),
            Base("f", True, (1, 0)), p.declared("M"), p.declared("X"),
            inverse(p.u), Fn("sin", c * x + 1), func("exp", x * t - 2),
            Fn("cos", Fn("sin", t) * x)]


def test_equal_atoms_are_one_object():
    dep = Dependent("u")
    assert Jet(dep, (1, 0)) is Jet(dep, (0, 1))
    assert Jet(Dependent("u"), (0, 0, 1)) is Jet(dep, (1, 0, 0))
    assert Base("f", False, (1, 0)) is Base("f", partials=(0, 1))
    p = chiral_shaped()
    assert Inv(p.u) is inverse(p.u)
    x = p.coordinate("x")
    assert Fn("sin", x + 1) is func("sin", x + 1)
    assert Jet(dep) is not Jet(Dependent("u", invertible=True))


def test_atoms_of_two_equal_problems_are_the_same_objects():
    a, b = every_kind_of_atom(chiral_shaped()), every_kind_of_atom(
        chiral_shaped())
    assert all(x is y for x, y in zip(a, b))
    assert len({id(x) for x in a}) == len(a)  # distinct atoms stay distinct


def test_atoms_hash_and_compare_by_identity():
    for atom in every_kind_of_atom(chiral_shaped()):
        assert isinstance(atom, Atom)
        assert hash(atom) == object.__hash__(atom)
        assert atom == atom and not atom != atom


def test_copy_deepcopy_and_pickle_return_the_same_atom():
    atoms = every_kind_of_atom(chiral_shaped())
    for atom in atoms:
        assert copy.copy(atom) is atom
        assert copy.deepcopy(atom) is atom
        assert pickle.loads(pickle.dumps(atom)) is atom
    tree = atoms[4] * atoms[8] + inverse(atoms[3])
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert copy.deepcopy(tree) == tree


def test_the_cached_key_is_the_tree_walk_key():
    for atom in every_kind_of_atom(chiral_shaped()):
        assert atom.key == reference_expr_key(atom)
        assert expr_key(atom) is atom.key


@pytest.mark.parametrize("value, kind", [
    (0, int), (-1, int), (3, int), (Fraction(4, 2), int),
    (Fraction(-3, 2), Fraction)])
def test_a_rat_value_is_an_int_while_integral(value, kind):
    """A Rat's value follows the normal-form coefficient rule, and a Rat
    built from a Fraction equals, hashes and sorts as one built from the
    same value otherwise."""
    r, f = Rat(value), Rat(Fraction(value))
    assert r.value == value and type(r.value) is kind
    assert type(f.value) is kind
    assert f == r and hash(f) == hash(r) and expr_key(f) == expr_key(r)


def test_the_inverse_of_a_rational_is_a_fraction(sp):
    """inverse inverts a rational exactly, never through a float; Inv,
    the inverse of an atom, refuses one."""
    for e, want in ((inverse(Rat(2)), Fraction(1, 2)),
                    (inverse(Rat(3)), Fraction(1, 3)),
                    (inverse(Rat(Fraction(2, 3))), Fraction(3, 2))):
        assert type(e.value) is Fraction and e.value == want
    assert type(inverse(Rat(-1)).value) is int
    for base, want in ((Rat(2), Fraction(1, 2)), (Rat(3), Fraction(1, 3))):
        [v] = nf(parse_expr(f"inv({base.value})", sp)).values()
        assert type(v) is Fraction and v == want
        with pytest.raises(InversionError, match="got Rat$"):
            Inv(base)


def test_rendering_a_rat_does_not_depend_on_how_it_was_built(sp):
    u = sp.u
    for value, alone, times_u in ((Fraction(4, 2), "2", "2*u"),
                                  (Fraction(-1), "-1", "-u"),
                                  (Fraction(-3, 2), "-3/2", "(-3/2)*u"),
                                  (Fraction(1, 2), "1/2", "(1/2)*u")):
        for r in (Rat(value), Rat(Fraction(value))):
            assert render(r, sp) == alone
            assert render(Mul((r, u)), sp) == times_u


def test_a_deep_library_built_tree_is_walked_without_recursion():
    """is_scalar and collect_jets walk with their own stack
    (`core.nodes`): a 3,000-deep commutator chain, deeper than Python's
    recursion limit, gets an answer, and func refuses a deep matrix chain
    with a KindError."""
    depth = 3000
    for p, scalar in ((Problem(), True),
                      (Problem(dependent=Dependent("g", "matrix", True)),
                       False)):
        e = p.u
        for _ in range(depth):
            e = commutator(e, p.jet("x"))
        assert is_scalar(e) is scalar
        assert collect_jets(e) == {p.u, p.jet("x")}
        assert sum(1 for _ in nodes(e)) == 2 * depth + 1
    with pytest.raises(KindError):
        func("sin", e)
