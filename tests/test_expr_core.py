import copy
import dataclasses
import pickle
from itertools import permutations

import pytest

from jetsym import (Dependent, PotentialDef, Problem, commutator, inverse,
                    is_zero, mk_jet, normal_form, parse_expr)
from jetsym.core import (Atom, Base, DeclarationError, Fn, Inv, InversionError,
                         Jet, KindError, expr_key, func)

from helpers import reference_expr_key


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


def every_kind_of_atom(p: Problem) -> list:
    """One atom of each class in a chiral-shaped problem with a potential,
    nested function arguments and inverses included."""
    p.register_potential(PotentialDef("X", {"x": p.jet("t"),
                                            "t": p.jet("x")}))
    x, t, c = p.coord("x"), p.coord("t"), p.const("c")
    return [x, t, c, p.u, p.jet("xt"), p.jet("ttx"), p.base("f"),
            Base("f", True, (1, 0)), p.cmat("M"), p.potential("X"),
            inverse(p.u), Fn("sin", c * x + 1), func("exp", x * t - 2),
            Fn("cos", Fn("sin", t) * x)]


def test_equal_atoms_are_one_object():
    dep = Dependent("u")
    assert Jet(dep, (1, 0)) is Jet(dep, (0, 1))
    assert Jet(Dependent("u"), (0, 0, 1)) is mk_jet(dep, [1, 0, 0])
    assert Base("f", False, (1, 0)) is Base("f", partials=(0, 1))
    p = chiral_shaped()
    assert Inv(p.u) is inverse(p.u)
    assert Fn("sin", p.coord("x") + 1) is func("sin", p.coord("x") + 1)
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
