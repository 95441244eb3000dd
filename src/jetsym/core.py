"""Immutable expression trees over a jet space with a matrix-valued dependent.

Expressions are sums of products of alternating base-space factors (functions
of the coordinates) and fiber factors (the dependent and its derivative
coordinates).  Products are order-preserving: matrix-class factors commute
with nothing except scalar-class factors.

Atoms (coordinates, constants, jets, base functions, constant matrices,
potentials, inverses and analytic-function applications) are interned, that
is hash-consed: building an atom looks its class and its field values up in
one table and returns the object already there, so equal atoms are one
object, and atoms hash and compare by identity.  Each atom carries its
`expr_key` as `key`.  The table is a plain dict that is never emptied: it
holds one entry per distinct atom built in the process, bounded by the
declared names, the jet orders reached and the analytic-function arguments
met (a whole verdict-stream benchmark run builds 48).  Rat, Add, Mul and
Comm stay value nodes, compared and hashed by their fields.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Union

SCALAR = "scalar"
MATRIX = "matrix"


class JetsymError(Exception):
    """Base class for all engine errors."""


class DeclarationError(JetsymError):
    """Undeclared or inconsistently declared symbol."""


class KindError(JetsymError):
    """Scalar/matrix class violation (e.g. an analytic function of a matrix)."""


class InversionError(JetsymError):
    """Inverse requested for something not declared invertible."""


class NonlocalActionError(JetsymError):
    """Characteristic derivative of a potential with no registered image."""


@dataclass(frozen=True)
class Coordinate:
    name: str
    index: int


@dataclass(frozen=True)
class Dependent:
    name: str
    kind: str = SCALAR
    invertible: bool = False

    def __post_init__(self):
        if self.kind not in (SCALAR, MATRIX):
            raise DeclarationError(f"unknown dependent kind {self.kind!r}")


class Expr:
    """Base class of all expression nodes.  Instances are immutable."""

    __hash__ = None  # value nodes hash by their fields, atoms by identity

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __neg__(self):
        return neg(self)


@dataclass(frozen=True)
class Rat(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


#: (atom class, field values) -> the one atom with those values
_ATOMS: dict[tuple, "Atom"] = {}


class _Interned(type):
    """Metaclass of the atoms: calling an atom class returns the atom
    already in the table under its class and field values (after
    __post_init__), and enters the new one, with its key, otherwise."""

    def __call__(cls, *args, **kwargs):
        atom = super().__call__(*args, **kwargs)
        entry = (cls, cls._values(atom))
        found = _ATOMS.get(entry)
        if found is None:
            object.__setattr__(atom, "key", _atom_key(atom))
            found = _ATOMS[entry] = atom
        return found


class Atom(Expr, metaclass=_Interned):
    """An interned leaf of the expression tree (or an inverse or analytic
    function of one expression), hashed and compared by identity."""

    __hash__ = object.__hash__
    __eq__ = object.__eq__
    key: tuple  # expr_key(self), set once when the atom is interned

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):  # unpickling interns again
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


def _atom(cls):
    """Make an atom class a frozen dataclass compared by identity."""
    cls = dataclass(frozen=True, eq=False)(cls)
    cls._values = attrgetter(*cls.__match_args__)
    return cls


@_atom
class Sym(Atom):
    """Declared opaque commuting constant symbol (c, lambda, ...)."""

    name: str


@_atom
class Coord(Atom):
    coordinate: Coordinate


@_atom
class Jet(Atom):
    """Derivative coordinate u_J; idx is the sorted multi-index of coordinate
    indices (empty for the dependent itself)."""

    dep: Dependent
    idx: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "idx", tuple(sorted(self.idx)))

    @property
    def order(self) -> int:
        return len(self.idx)


@_atom
class Base(Atom):
    """Base-space function a(x^k).  `partials` is the sorted multi-index of
    accumulated partial derivatives."""

    name: str
    matrix: bool = False
    partials: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "partials", tuple(sorted(self.partials)))


@_atom
class CMat(Atom):
    """Constant matrix of symbolic dimension."""

    name: str
    invertible: bool = False


@_atom
class Pot(Atom):
    """Nonlocal potential atom; its gradient lives in the problem registry."""

    name: str
    matrix: bool = True


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple[Expr, ...]


@_atom
class Inv(Atom):
    base: Expr


@dataclass(frozen=True)
class Comm(Expr):
    lhs: Expr
    rhs: Expr


@_atom
class Fn(Atom):
    """Analytic scalar function applied to a scalar argument."""

    fname: str
    arg: Expr


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))

#: derivative rules for analytic scalar functions: name -> (coeff, new name)
FUNC_DERIVATIVES = {
    "sin": (1, "cos"),
    "cos": (-1, "sin"),
    "exp": (1, "exp"),
}


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Rat(Fraction(v))
    raise TypeError(f"cannot interpret {v!r} as an expression")


def rat(num, den=1) -> Rat:
    return Rat(Fraction(num, den))


def add(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def neg(e: Expr) -> Expr:
    return mul(Rat(Fraction(-1)), e)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def commutator(a: Expr, b: Expr) -> Expr:
    """[A, B] = AB - BA, kept as a node until normalization."""
    return Comm(as_expr(a), as_expr(b))


def mk_jet(dep: Dependent, idx: Iterable[Union[int, Coordinate]]) -> Jet:
    ints = tuple(i.index if isinstance(i, Coordinate) else int(i) for i in idx)
    return Jet(dep, ints)


def inverse(e: Expr) -> Expr:
    """Inverse of an invertible atom; rejects sums and general monomials."""
    e = as_expr(e)
    if isinstance(e, Rat):
        if e.value == 0:
            raise InversionError("cannot invert zero")
        return Rat(1 / e.value)
    if isinstance(e, Inv):
        return e.base
    if isinstance(e, Jet):
        if e.idx or not e.dep.invertible:
            what = "a derivative of" if e.idx else "dependent"
            raise InversionError(f"{what} {e.dep.name} is not declared "
                                 "invertible")
        return Inv(e)
    if isinstance(e, CMat):
        if not e.invertible:
            raise InversionError(f"constant matrix {e.name} is not invertible")
        return Inv(e)
    raise InversionError(f"inverse is only defined for invertible atoms, got {type(e).__name__}")


def func(fname: str, arg: Expr) -> Fn:
    if fname not in FUNC_DERIVATIVES:
        raise DeclarationError(f"unknown analytic function {fname!r}")
    arg = as_expr(arg)
    if not is_scalar(arg):
        raise KindError(f"{fname} applied to a matrix-valued argument")
    return Fn(fname, arg)


def is_commuting_atom(a: Expr) -> bool:
    """True for an atom of the commuting (scalar) class."""
    if isinstance(a, (Coord, Sym, Fn)):
        return True  # analytic functions take scalar arguments only
    if isinstance(a, Jet):
        return a.dep.kind == SCALAR
    if isinstance(a, (Base, Pot)):
        return not a.matrix
    return False


def children(e: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions of e; an atom has none."""
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Inv):
        return (e.base,)
    if isinstance(e, Comm):
        return (e.lhs, e.rhs)
    if isinstance(e, Fn):
        return (e.arg,)
    return ()


def is_scalar(e: Expr) -> bool:
    """True when every atom in e belongs to the commuting (scalar) class."""
    if isinstance(e, (Add, Mul, Inv, Comm)):
        return all(is_scalar(c) for c in children(e))
    return isinstance(e, Rat) or is_commuting_atom(e)


def expr_key(e: Expr) -> tuple:
    """Deterministic total order key on expression nodes.

    Atoms rank: coordinates < constants < jets (by order, then multi-index)
    < base functions < analytic functions < constant matrices < potentials;
    an inverse sorts directly after the atom it inverts.  An atom's key is
    the one it was interned with.
    """
    if isinstance(e, Atom):
        return e.key
    if isinstance(e, Rat):
        return (0, e.value.numerator, e.value.denominator)
    if isinstance(e, Mul):
        return (8, tuple(expr_key(f) for f in e.factors))
    if isinstance(e, Add):
        return (9, tuple(expr_key(t) for t in e.terms))
    if isinstance(e, Comm):
        return (10, expr_key(e.lhs), expr_key(e.rhs))
    raise TypeError(f"unknown node {type(e).__name__}")


def _atom_key(e: Atom) -> tuple:
    """The key of a new atom, in the rank order that `expr_key` states."""
    if isinstance(e, Coord):
        return (1, e.coordinate.index)
    if isinstance(e, Sym):
        return (2, e.name)
    if isinstance(e, Jet):
        return (3, e.dep.name, e.order, e.idx)
    if isinstance(e, Base):
        return (4, e.name, e.partials)
    if isinstance(e, Fn):
        return (5, e.fname, expr_key(e.arg))
    if isinstance(e, CMat):
        return (6, e.name)
    if isinstance(e, Pot):
        return (7, e.name)
    return expr_key(e.base) + (("inv",),)  # Inv


@dataclass
class PotentialDef:
    """Gradient-defined nonlocal variable: derivatives[coord name] = Expr.

    `char_images` optionally registers the action of a characteristic
    derivative on the potential, keyed by characteristic name."""

    name: str
    derivatives: dict[str, Expr]
    char_images: dict[str, Expr] = field(default_factory=dict)
    matrix: bool = True

    def atom(self) -> Pot:
        return Pot(self.name, self.matrix)


class Problem:
    """Declaration context: coordinates, the single dependent, constants,
    constant matrices, base functions and the potential registry.  One table
    maps each declared name to its atom, and no name is declared twice."""

    def __init__(self, coords: Iterable[str] = ("x", "t"),
                 dependent: Dependent = None,
                 constants: Iterable[str] = (),
                 matrices: Iterable = (),
                 base_functions: Iterable = ()):
        self._atoms: dict[str, Expr] = {}
        self.coordinates = tuple(Coordinate(n, i) for i, n in enumerate(coords))
        for c in self.coordinates:
            self._declare(c.name, Coord(c))
        self.dependent = dependent or Dependent("u")
        self._declare(self.dependent.name, Jet(self.dependent))
        self.constants = tuple(self._declare(n, Sym(n)).name for n in constants)
        self.matrices: dict[str, CMat] = {}
        for m in matrices:  # a name, or (name, invertible)
            name, invertible = m if isinstance(m, tuple) else (m, False)
            self.matrices[name] = self._declare(name,
                                                CMat(name, bool(invertible)))
        self.base_functions: dict[str, Base] = {}
        for b in base_functions:  # a name, or (name, matrix-valued)
            name, matrix = b if isinstance(b, tuple) else (b, False)
            self.base_functions[name] = self._declare(name,
                                                      Base(name, bool(matrix)))
        self.potentials: dict[str, PotentialDef] = {}

    def _declare(self, name: str, atom: Expr) -> Expr:
        """Enter a name in the one table of declared names, exactly once.
        A name is an ASCII letter and then letters and digits, so that the
        parser reads every rendered atom back."""
        if not (name[:1].isalpha() and name.isalnum() and name.isascii()):
            raise DeclarationError(
                f"name {name!r} is not a letter followed by letters and digits")
        if name in self._atoms:
            raise DeclarationError(f"name {name!r} declared more than once")
        self._atoms[name] = atom
        return atom

    # --- lookups -----------------------------------------------------------
    def declared(self, name: str) -> Expr | None:
        """The atom declared under `name`, or None."""
        return self._atoms.get(name)

    def _lookup(self, name: str, kind: type, what: str) -> Expr:
        atom = self._atoms.get(name)
        if not isinstance(atom, kind):
            raise DeclarationError(f"unknown {what} {name!r}")
        return atom

    def coordinate(self, name: str) -> Coordinate:
        return self.coord(name).coordinate

    def coord(self, name: str) -> Coord:
        return self._lookup(name, Coord, "coordinate")

    @property
    def u(self) -> Jet:
        return Jet(self.dependent)

    def jet(self, subscripts: Iterable[str]) -> Jet:
        return Jet(self.dependent,
                   tuple(self.coordinate(s).index for s in subscripts))

    def const(self, name: str) -> Sym:
        return self._lookup(name, Sym, "constant")

    def cmat(self, name: str) -> CMat:
        return self._lookup(name, CMat, "constant matrix")

    def base(self, name: str) -> Base:
        return self._lookup(name, Base, "base function")

    def potential(self, name: str) -> Pot:
        return self._lookup(name, Pot, "potential")

    def register_potential(self, pdef: PotentialDef) -> Pot:
        """Raw registration; `backlund.declare_potential` performs the
        cross-derivative compatibility check first."""
        for c in self.coordinates:
            if c.name not in pdef.derivatives:
                raise DeclarationError(
                    f"potential {pdef.name}: no derivative for {c.name}")
        atom = self._declare(pdef.name, pdef.atom())
        self.potentials[pdef.name] = pdef
        return atom
