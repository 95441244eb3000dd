"""Chiral-field Backlund-transformation recursion machinery.

The chiral equation F = (inv(g)*g_x)_x + (inv(g)*g_t)_t = 0 admits an
auto-Backlund transformation between solutions Phi, Phi' of its linearized
symmetry condition D_{g*Phi} F = 0 (the Phi-form of D_Q F, Q = g*Phi):

    Phi'_x = Phi_t + [inv(g)*g_t, Phi]
   -Phi'_t = Phi_x + [inv(g)*g_x, Phi]

Integrating it sends symmetry characteristics Q = g*Phi to new, generally
nonlocal, characteristics Q' = g*Phi'.  `phi_characteristic` is the one
way a Phi becomes its Q = g*Phi: the CLI, the catalog,
`chiral_phi_condition` and `bt_seed_check` all take it.

A chain of such steps declares a potential from each image, and each
potential grows the candidate basis of the next step.  The basis is built
from letters, the left currents, the constant matrices and the potentials
in order of declaration, and lists each letter's candidates after those of
the letters before it (`_basis_order`), so that a step's basis is a prefix
of the next one's.  A letter's rows R(D_x c), R(D_t c) depend only on F
and the potentials' fixed gradients, and they are the only rows derived:
as R (reduction mod F) is a ring homomorphism and R o D_i a derivation, a
product's rows follow from its letters' by the Leibniz rule,
R o D_i(a*c) = R o D_i(a) R(c) + R(a) R o D_i(c).  The commutators [a, c]
are listed in the basis but never formed: their rows are those of
a*c - c*a, two candidates before them, so their columns would never add a
pivot, and leaving them out changes neither the pivots nor the solution.
The problem's `symmetry.Store` keeps the letters' rows, the candidate and
denominator of each column and one `linsolve.Echelon` of the columns; each
integration derives the new letters only and extends that echelon with the
products they bring, which gives the echelon built at once on the same
letters.

`bt_apply` forms the pair of right-hand sides once, as normal forms, and
reduces them as they are; `bt_rhs` rebuilds the pair as trees for a
caller.  An image certifies its seed, so `bt_apply` integrates without
checking the seed first.  A solution Phi' of the system has
R o D_x R(Phi') = R(rhs_x) and R o D_t R(Phi') = R(rhs_t), and R o D_x,
R o D_t commute: on jets always, on a potential because
`declare_potential` checked its cross derivatives.  So
R(D_t rhs_x - D_x rhs_t) = 0, and D_t rhs_x - D_x rhs_t is D_{g*Phi} C
for the chiral operator C = D_x(inv(g)g_x) + D_t(inv(g)g_t):
a seed with an image passes `bt_seed_check` whenever F is a nonzero
rational multiple of C, which `bt_apply` checks once per problem.  A
seed that fails the check has no image, and the CLI asks `bt_seed_check`
only then, to tell a failed seed from an insufficient basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterator, Optional

from .core import (CMat, Coord, Expr, JetsymError, Jet, MATRIX, Pot,
                   PotentialDef, Problem, Rat, add, as_expr, commutator,
                   inverse, mul, quotient)
from .calculus import (Characteristic, Image, char_derivative,
                       derive_cleared, derive_nf, total_images)
from .linsolve import Echelon
from .normalize import (NF, _nf_add, _nf_mul, _nf_scale, nf, nf_divide,
                        normal_form, rebuild)
from .symmetry import (Pde, SymmetryReport, _match_linear, _row_column,
                       check_symmetry, reduction, store)


class PotentialError(JetsymError):
    """Cross-derivative compatibility failure."""

    def __init__(self, message: str, residual: Expr):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class BtPair:
    """Right-hand sides of the Backlund system for a seed Phi."""

    rhs_x: Expr  # candidate Phi'_x
    rhs_t: Expr  # candidate Phi'_t (sign already folded in)


def _xt(problem: Problem) -> tuple[Coord, Coord]:
    if len(problem.coordinates) != 2:
        raise JetsymError("the Backlund machinery expects two coordinates")
    return problem.coordinates[0], problem.coordinates[1]


def _needs_invertible_matrix(problem: Problem, what: str) -> None:
    """Raise "<what> needs an invertible matrix dependent" unless the
    problem's dependent is one."""
    if problem.dependent.kind != MATRIX or not problem.dependent.invertible:
        raise JetsymError(f"{what} needs an invertible matrix dependent")


def left_current(problem: Problem, coord: Coord) -> Expr:
    """inv(g) * g_i for the problem's invertible matrix dependent."""
    _needs_invertible_matrix(problem, "left current")
    return mul(inverse(problem.u), Jet(problem.dependent, (coord.index,)))


def phi_characteristic(phi: Expr, problem: Problem) -> Characteristic:
    """The characteristic Q = g*Phi of a Phi-form seed, normalized, for any
    invertible matrix dependent g: the one way a Phi-form becomes a Q."""
    _needs_invertible_matrix(problem, "the Phi-form")
    return Characteristic("Q", normal_form(mul(problem.u, as_expr(phi))),
                          problem.dependent)


def declare_potential(pdef: PotentialDef, pde: Pde, problem: Problem) -> Pot:
    """Register a gradient-defined potential after checking that its mixed
    second derivatives agree mod the PDE: R(D_j g_i) = R(D_i g_j) for its
    gradient g, computed as (R o D_j) R(g_i) (`symmetry.reduction`).  Each
    side is taken on ints, as (r, d) with the side equal to r/d
    (`calculus.derive_cleared`), and ri/di = rj/dj is tested as
    dj*ri = di*rj; the residual is divided out only for the error."""
    coords = problem.coordinates
    gradient = pdef.gradient(coords)  # before any reduction work
    reduce, total = reduction(pde, problem)
    grad = [reduce(nf(as_expr(g))) for g in gradient]
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            ri, di = derive_cleared(grad[i], total(j))
            rj, dj = derive_cleared(grad[j], total(i))
            if _nf_scale(ri, dj) == _nf_scale(rj, di):
                continue
            ci, cj = coords[i], coords[j]
            raise PotentialError(
                f"potential {pdef.name}: D_{cj.name}({pdef.name}_{ci.name})"
                f" != D_{ci.name}({pdef.name}_{cj.name}) mod {pde.name}",
                rebuild(_nf_add(nf_divide(ri, di),
                                _nf_scale(nf_divide(rj, dj), -1))))
    return problem.register_potential(pdef)


def _bt_pair(phi: Expr, problem: Problem) -> tuple[NF, NF]:
    """The normal forms of the pair of `bt_rhs`."""
    x, t = _xt(problem)
    n = nf(as_expr(phi))
    totals = total_images(problem)

    def side(c: Coord) -> NF:  # D_c Phi + [inv(g)g_c, Phi]
        a = nf(left_current(problem, c))
        return _nf_add(_nf_add(derive_nf(n, totals[c.index]), _nf_mul(a, n)),
                       _nf_scale(_nf_mul(n, a), -1))

    return side(t), _nf_scale(side(x), -1)


def bt_rhs(phi: Expr, problem: Problem) -> BtPair:
    """The pair of right-hand sides defining Phi' up to integration,
    D_t Phi + [inv(g)g_t, Phi] and -(D_x Phi + [inv(g)g_x, Phi])."""
    return BtPair(*map(rebuild, _bt_pair(phi, problem)))


def chiral_phi_condition(phi: Expr, pde: Pde, problem: Problem) -> Expr:
    """Linearized symmetry condition in Phi-form, D_{g*Phi} F, normalized
    (not reduced mod F).  As D_{g*Phi}(inv(g)g_i) = Phi_i + [inv(g)g_i, Phi],
    for chiral it is the cross derivative of the Backlund pair,
    D_x(Phi_x + [inv(g)g_x, Phi]) + D_t(Phi_t + [inv(g)g_t, Phi])."""
    return char_derivative(pde.f, phi_characteristic(phi, problem), problem)


def bt_seed_check(phi: Expr, pde: Pde, problem: Problem) -> SymmetryReport:
    """The report on D_{g*Phi} F = 0 mod F, which for chiral is
    (Phi'_x)_t = (Phi'_t)_x mod F, for two coordinates only.  It is the
    check independent of the integration: every seed with a `bt_apply`
    image passes it, and the CLI and the tests' catalog check run it to
    explain a missing image and to check each image."""
    _xt(problem)
    return check_symmetry(pde, phi_characteristic(phi, problem), problem)


def _check_chiral(pde: Pde, problem: Problem) -> None:
    """Raise unless F is a nonzero rational multiple of the chiral operator
    D_x(inv(g)g_x) + D_t(inv(g)g_t) of the problem, without which an image
    would not certify its seed."""
    x, t = _xt(problem)
    totals = total_images(problem)
    chiral: NF = {}
    for c in (x, t):
        _nf_add(chiral, derive_nf(nf(left_current(problem, c)),
                                  totals[c.index]))
    f = nf(pde.f)
    k = next(iter(chiral))
    if k in f and f == _nf_scale(chiral, quotient(f[k], chiral[k])):
        return
    g = problem.dependent.name
    c_x, c_t = (f"D_{c.name}(inv({g})*{g}_{c.name})" for c in (x, t))
    raise JetsymError(
        f"the Backlund transformation needs the chiral equation: F of "
        f"{pde.name} is not a nonzero rational multiple of {c_x} + {c_t}")


def _alphabet(problem: Problem) -> list[Expr]:
    """The letters of the candidate basis in order of declaration: the left
    currents, then the constant matrices, then the registered potentials."""
    x, t = _xt(problem)
    return [left_current(problem, x), left_current(problem, t),
            *problem.atoms(CMat), *problem.atoms(Pot)]


def _basis_order(letters: int, start: int = 0
                 ) -> Iterator[tuple[str, int, int]]:
    """The candidates that the letters start, ..., letters - 1 bring to the
    basis, in its order, as (kind, a, c) over letter indices: ("letter",
    c, c) is the letter c, ("product", a, c) the product a*c and
    ("commutator", a, c) the commutator [a, c].  Each letter c brings c,
    then a*c and c*a for each earlier letter a, then c*c, then [a, c] for
    each earlier a."""
    for c in range(start, letters):
        yield "letter", c, c
        for a in range(c):
            yield "product", a, c
            yield "product", c, a
        yield "product", c, c
        for a in range(c):
            yield "commutator", a, c


def default_bt_basis(problem: Problem) -> list[Expr]:
    """Candidate alphabet for integrating the Backlund system: the left
    currents, constant matrices and registered potentials, their products
    of two, and single commutators of alphabet pairs, in `_basis_order`.

    Declaring a potential only appends a letter, so a chain step's basis
    is a prefix of the next step's, and `bt_apply` extends the system
    it kept (`symmetry.Store`) instead of building a new one.  The
    commutators are listed but never formed there: [a, c] has the rows of
    a*c - c*a, two candidates before it, so its column would never add a
    pivot and its coefficient is 0 in every image."""
    alphabet = _alphabet(problem)
    form = {"letter": lambda a, c: c, "product": mul,
            "commutator": commutator}
    return [form[kind](alphabet[a], alphabet[c])
            for kind, a, c in _basis_order(len(alphabet))]


Letter = tuple[NF, list[NF], int]


def _bt_rows(b: Expr, reduce: Callable[[NF], NF],
             total: Callable[[int], Image]) -> Letter:
    """(R(b), [d*R(D_x b), d*R(D_t b)], d) for an expression b, where R is
    the reduction mod F of one `symmetry.reduction` context (reduce,
    total): R o D_i applied to R(b), with int coefficients and their one
    denominator d, which a potential's gradient brings in."""
    n = reduce(nf(b))
    rows = [derive_cleared(n, total(i)) for i in (0, 1)]  # x, t
    d = lcm(*(dr for _, dr in rows))
    return n, [_nf_scale(row, d // dr) if dr != d else row
               for row, dr in rows], d


def _leibniz_rows(a: Letter, c: Letter) -> tuple[list[NF], int]:
    """([d*R(D_x(a*c)), d*R(D_t(a*c))], d) from the `_bt_rows` of a and c,
    with d = lcm(d_a, d_c): R is a ring homomorphism and R o D_i a
    derivation, so R o D_i(a*c) = R o D_i(a) R(c) + R(a) R o D_i(c)."""
    (na, ra, da), (nc, rc, dc) = a, c
    d = lcm(da, dc)
    rows = []
    for ri, rj in zip(ra, rc):
        left, right = _nf_mul(ri, nc), _nf_mul(na, rj)
        if d != da:
            left = _nf_scale(left, d // da)
        if d != dc:
            right = _nf_scale(right, d // dc)
        rows.append(_nf_add(left, right))
    return rows, d


def _bt_columns(problem: Problem, letters: list[Letter],
                reduce: Callable[[NF], NF], total: Callable[[int], Image]
                ) -> tuple[list[Letter], list[tuple[Expr, list[NF], int]]]:
    """The `_bt_rows` of the letters after the first len(letters), and (b,
    [d*R(D_x b), d*R(D_t b)], d) for each candidate b that they bring, in
    basis order.  Only a letter is derived; a product's rows come from
    its letters' (`_leibniz_rows`), and a commutator is skipped: its rows
    are those of a*c - c*a, two candidates before it."""
    alphabet = _alphabet(problem)
    taken = list(letters)
    out = []
    for kind, a, c in _basis_order(len(alphabet), len(letters)):
        if kind == "letter":
            taken.append(_bt_rows(alphabet[c], reduce, total))
            _, rows, d = taken[c]
            out.append((alphabet[c], rows, d))
        elif kind == "product":
            rows, d = _leibniz_rows(taken[a], taken[c])
            out.append((mul(alphabet[a], alphabet[c]), rows, d))
    return taken[len(letters):], out


def _bt_system(pde: Pde, problem: Problem, reduce: Callable[[NF], NF],
               total: Callable[[int], Image]
               ) -> tuple[list[tuple[Expr, int]], Echelon]:
    """The candidate b and the denominator d of its cleared rows for each
    column of the Echelon of the Backlund system, and that echelon.  The
    problem's `symmetry.Store` keeps the letters' `_bt_rows`, the columns
    and the echelon of the letters taken so far: only new letters are
    derived, and only the candidates they bring get rows, all of them
    before the store changes.  F is checked to be chiral
    (`_check_chiral`) once, before the store takes its first letters."""
    kept = store(pde, problem)
    if not kept.letters:
        _check_chiral(pde, problem)
    new_letters, new = _bt_columns(problem, kept.letters, reduce, total)
    kept.echelon.extend([_row_column(rows) for _, rows, _ in new])
    kept.letters.extend(new_letters)
    kept.columns.extend((b, d) for b, _, d in new)
    return kept.columns, kept.echelon


def bt_apply(phi: Expr, pde: Pde, problem: Problem) -> Optional[Expr]:
    """Phi' for a seed Phi: the exact rational combination of basis
    candidates, with the rows of each from `_bt_columns` and constants of
    integration zero, that satisfies both equations mod F, in one
    reduction context.  An image certifies that the seed passes
    `bt_seed_check` (module docstring), so a seed that fails it gets
    None, as does one whose integral lies outside the candidate basis
    (basis insufficiency), which is not a proof that no Phi' exists.
    Raises JetsymError unless F is a nonzero rational multiple of the
    chiral operator (`_check_chiral`)."""
    pair = _bt_pair(phi, problem)  # two coordinates: R o D_x, R o D_t
    reduce, total = reduction(pde, problem)
    targets = [reduce(r) for r in pair]
    columns, echelon = _bt_system(pde, problem, reduce, total)
    sol = _match_linear(targets, echelon)
    if sol is None:
        return None
    # column k holds d_k times its candidate's rows, so the candidate's
    # coefficient in Phi' is d_k times the one solved for
    return normal_form(add(*(mul(Rat(x * columns[k][1]), columns[k][0])
                             for k, x in sol.items())))
