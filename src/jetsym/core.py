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

An atom is checked once, when it is built.  `Inv` holds only an atom that
`invertible` accepts, the one statement of which atoms invert, and `Fn`
only a known function of a scalar argument; each raises the error the
parser reports otherwise.  `inverse` and `func` build them, and no later
step checks an atom again.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Union

SCALAR = "scalar"
MATRIX = "matrix"
#: a rational: an int while it is integral, else a Fraction (`Rat`)
Coeff = Union[int, Fraction]


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
    """A rational constant.  Its value follows the coefficient rule of a
    normal form: an `int` while it is integral, a `Fraction` otherwise."""

    value: Coeff

    def __post_init__(self):
        v = self.value
        if type(v) is not int:
            if type(v) is not Fraction:
                raise TypeError(f"cannot interpret {v!r} as a rational")
            object.__setattr__(self, "value",
                               v.numerator if v.denominator == 1 else v)


def quotient(a: Coeff, b: Coeff) -> Coeff:
    """a / b exactly: an int when the quotient is integral, never a float
    (as int / int would give).  The one exact quotient of the engine."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b  # one side is a Fraction, so the quotient is one too
    return q.numerator if q.denominator == 1 else q


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
    function of one expression), hashed and compared by identity and
    ordered by its key; distinct atoms of one problem have distinct keys."""

    __hash__ = object.__hash__
    __eq__ = object.__eq__
    key: tuple  # expr_key(self), set once when the atom is interned

    def __lt__(self, other: "Atom") -> bool:
        return self.key < other.key

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
    """A base coordinate: its declared name and its index, the position in
    `Problem.coordinates` that jet multi-indices and partials refer to."""

    name: str
    index: int


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
    # the normal form of a tree that `normalize.rebuild` built, which `nf`
    # returns; not part of the value: no equality, hash or repr
    form: Optional[dict] = field(default=None, init=False, compare=False,
                                 repr=False)


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple[Expr, ...]
    form: Optional[dict] = field(default=None, init=False, compare=False,
                                 repr=False)  # as Add.form


@_atom
class Inv(Atom):
    base: Expr  # an atom that `invertible` accepts, checked when built

    def __post_init__(self):
        b = self.base
        if invertible(b):
            return
        if isinstance(b, Jet):
            what = "a derivative of" if b.idx else "dependent"
            raise InversionError(f"{what} {b.dep.name} is not declared "
                                 "invertible")
        if isinstance(b, CMat):
            raise InversionError(f"constant matrix {b.name} is not invertible")
        raise InversionError("inverse is only defined for invertible atoms, "
                             f"got {type(b).__name__}")


@dataclass(frozen=True)
class Comm(Expr):
    lhs: Expr
    rhs: Expr


@_atom
class Fn(Atom):
    """A known analytic function (FUNC_DERIVATIVES) of a scalar argument."""

    fname: str
    arg: Expr

    def __post_init__(self):
        if self.fname not in FUNC_DERIVATIVES:
            raise DeclarationError(f"unknown analytic function {self.fname!r}")
        if not is_scalar(self.arg):
            raise KindError(
                f"{self.fname} applied to a matrix-valued argument")


ZERO = Rat(0)
ONE = Rat(1)

#: derivative rules for analytic scalar functions: name -> (coeff, new name)
FUNC_DERIVATIVES = {
    "sin": (1, "cos"),
    "cos": (-1, "sin"),
    "exp": (1, "exp"),
}
#: value of each analytic function at 0, the one argument it is evaluated at
FUNC_AT_ZERO = {"sin": 0, "cos": 1, "exp": 1}


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Rat(v)
    raise TypeError(f"cannot interpret {v!r} as an expression")


def _flat(kind: type, parts, unit: Expr) -> Expr:
    """The sum (kind Add) or product (kind Mul) of parts, with each part of
    that kind spliced in; unit when there are none, the one part alone."""
    flat: list[Expr] = []
    for part in parts:
        part = as_expr(part)
        if isinstance(part, kind):
            flat.extend(children(part))
        else:
            flat.append(part)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return kind(tuple(flat))


def add(*terms: Expr) -> Expr:
    return _flat(Add, terms, ZERO)


def mul(*factors: Expr) -> Expr:
    return _flat(Mul, factors, ONE)


def neg(e: Expr) -> Expr:
    return mul(Rat(-1), e)


def commutator(a: Expr, b: Expr) -> Expr:
    """[A, B] = AB - BA, kept as a node until normalization."""
    return Comm(as_expr(a), as_expr(b))


def invertible(a: Expr) -> bool:
    """True for an atom that has an inverse: the dependent declared
    invertible (order 0) or an invertible constant matrix."""
    return (type(a) is Jet and not a.idx and a.dep.invertible) or (
        type(a) is CMat and a.invertible)


def inverse(e: Expr) -> Expr:
    """Inverse of a rational, of an inverse, or (Inv) of an invertible atom."""
    e = as_expr(e)
    if isinstance(e, Rat):
        if e.value == 0:
            raise InversionError("cannot invert zero")
        return Rat(quotient(1, e.value))
    if isinstance(e, Inv):
        return e.base
    return Inv(e)


def func(fname: str, arg: Expr) -> Fn:
    return Fn(fname, as_expr(arg))


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


def nodes(e: Expr) -> Iterator[Expr]:
    """Every node of e, e first, by a walk that keeps its own stack, so a
    deep tree raises no RecursionError."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(children(x))


def is_scalar(e: Expr) -> bool:
    """True when every atom in e belongs to the commuting (scalar) class."""
    return all(isinstance(x, (Add, Mul, Inv, Comm, Rat))
               or is_commuting_atom(x) for x in nodes(e))


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
        return (1, e.index)
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
    return e.base.key + (("inv",),)  # Inv


@dataclass(frozen=True)
class PotentialDef:
    """Gradient-defined nonlocal variable: derivatives[coord name] = Expr,
    held as a read-only copy.  A declaration is fixed once made: the D_i
    images kept per problem (`calculus.total_images`) and mod F
    (`symmetry.Store`) depend on the gradient, and D_Q of the potential is
    not defined by it (`calculus.char_nf` refuses it)."""

    name: str
    derivatives: Mapping[str, Expr]
    matrix: bool = True

    def __post_init__(self):
        object.__setattr__(self, "derivatives",
                           MappingProxyType(dict(self.derivatives)))

    def gradient(self, coordinates: tuple[Coord, ...]) -> list[Expr]:
        """The derivative for each coordinate, in their order."""
        for c in coordinates:
            if c.name not in self.derivatives:
                raise DeclarationError(
                    f"potential {self.name}: no derivative for {c.name}")
        return [self.derivatives[c.name] for c in coordinates]


class Problem:
    """Declaration context: coordinates, the single dependent, constants,
    constant matrices, base functions and the potential registry.  One table
    maps each declared name to its atom, and no name is declared twice; only
    `register_potential` adds to it later, and no public value is mutable."""

    def __init__(self, coords: Iterable[str] = ("x", "t"),
                 dependent: Dependent = None,
                 constants: Iterable[str] = (),
                 matrices: Iterable = (),
                 base_functions: Iterable = ()):
        self._atoms: dict[str, Expr] = {}
        self.coordinates = tuple(self._declare(n, Coord(n, i))
                                 for i, n in enumerate(coords))
        self.dependent = dependent or Dependent("u")
        self._declare(self.dependent.name, Jet(self.dependent))
        for n in constants:
            self._declare(n, Sym(n))
        for kind, names in ((CMat, matrices), (Base, base_functions)):
            for n in names:  # a name, or (name, invertible / matrix-valued)
                name, flag = n if isinstance(n, tuple) else (n, False)
                self._declare(name, kind(name, bool(flag)))
        self._potentials: dict[str, PotentialDef] = {}
        # read-only: `register_potential` is the one way to append
        self.potentials: Mapping[str, PotentialDef] = MappingProxyType(
            self._potentials)

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

    def atoms(self, kind: type) -> tuple[Expr, ...]:
        """The declared atoms of one kind, in order of declaration."""
        return tuple(a for a in self._atoms.values() if isinstance(a, kind))

    def coordinate(self, name: str) -> Coord:
        atom = self._atoms.get(name)
        if not isinstance(atom, Coord):
            raise DeclarationError(f"unknown coordinate {name!r}")
        return atom

    @property
    def u(self) -> Jet:
        return Jet(self.dependent)

    def jet(self, subscripts: Iterable[str]) -> Jet:
        return Jet(self.dependent,
                   tuple(self.coordinate(s).index for s in subscripts))

    def register_potential(self, pdef: PotentialDef) -> Pot:
        """Raw registration; `backlund.declare_potential` performs the
        cross-derivative compatibility check first."""
        pdef.gradient(self.coordinates)
        atom = self._declare(pdef.name, Pot(pdef.name, pdef.matrix))
        self._potentials[pdef.name] = pdef
        return atom
