"""Chiral-field Backlund-transformation recursion machinery.

The chiral equation F = (inv(g)*g_x)_x + (inv(g)*g_t)_t = 0 admits an
auto-Backlund transformation between solutions Phi, Phi' of its linearized
symmetry condition D_{g*Phi} F = 0 (the Phi-form of D_Q F, Q = g*Phi):

    Phi'_x = Phi_t + [inv(g)*g_t, Phi]
   -Phi'_t = Phi_x + [inv(g)*g_x, Phi]

Integrating it sends symmetry characteristics Q = g*Phi to new, generally
nonlocal, characteristics Q' = g*Phi'.

A chain of such steps declares a potential from each image, and each
potential grows the candidate basis of the next step.  The basis lists its
candidates in order of the alphabet's declaration (`default_bt_basis`), so
that a step's basis is a prefix of the next one's.  A candidate's rows
R(D_x b), R(D_t b) depend only on F and the potentials' fixed gradients,
so each Pde keeps per problem the denominators of the candidates' cleared
rows and one `linsolve.Echelon` of their columns (`Pde.chain`), and each
integration computes rows for the new candidates only and extends that
echelon with them.  A problem only appends potentials, so the extended
echelon is the one built at once on the same basis: the kept store cannot
go stale.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Optional

from .core import (Coordinate, Expr, JetsymError, Jet, MATRIX, Pot,
                   PotentialDef, Problem, Rat, add, as_expr, commutator,
                   inverse, mul)
from .calculus import (Characteristic, Image, char_derivative,
                       derive_cleared, derive_nf, total_images)
from .linsolve import Echelon
from .normalize import (NF, _nf_add, _nf_mul, _nf_scale, nf, nf_divide,
                        normal_form, rebuild)
from .symmetry import (Pde, SymmetryReport, _match_linear, _row_column,
                       check_symmetry, reduction)


class PotentialError(JetsymError):
    """Cross-derivative compatibility failure."""

    def __init__(self, message: str, residual: Expr):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class BtPair:
    """Right-hand sides of the Backlund system for a seed Phi."""

    phi: Expr
    rhs_x: Expr  # candidate Phi'_x
    rhs_t: Expr  # candidate Phi'_t (sign already folded in)


def _xt(problem: Problem) -> tuple[Coordinate, Coordinate]:
    if len(problem.coordinates) != 2:
        raise JetsymError("the Backlund machinery expects two coordinates")
    return problem.coordinates[0], problem.coordinates[1]


def left_current(problem: Problem, coord: Coordinate) -> Expr:
    """inv(g) * g_i for the problem's invertible matrix dependent."""
    if problem.dependent.kind != MATRIX or not problem.dependent.invertible:
        raise JetsymError("left current needs an invertible matrix dependent")
    return mul(inverse(problem.u), Jet(problem.dependent, (coord.index,)))


def phi_characteristic(phi: Expr, problem: Problem) -> Characteristic:
    """The characteristic Q = g*Phi of a Phi-form seed, for any invertible
    matrix dependent g."""
    if problem.dependent.kind != MATRIX or not problem.dependent.invertible:
        raise JetsymError("the Phi-form needs an invertible matrix dependent")
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
    reduce, totals = reduction(pde, problem)
    grad = [reduce(nf(as_expr(g))) for g in gradient]
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            ri, di = derive_cleared(grad[i], totals[j])
            rj, dj = derive_cleared(grad[j], totals[i])
            if _nf_scale(ri, dj) == _nf_scale(rj, di):
                continue
            ci, cj = coords[i], coords[j]
            raise PotentialError(
                f"potential {pdef.name}: D_{cj.name}({pdef.name}_{ci.name})"
                f" != D_{ci.name}({pdef.name}_{cj.name}) mod {pde.name}",
                rebuild(_nf_add(nf_divide(ri, di),
                                _nf_scale(nf_divide(rj, dj), -1))))
    return problem.register_potential(pdef)


def bt_rhs(phi: Expr, problem: Problem) -> BtPair:
    """The pair of right-hand sides defining Phi' up to integration,
    D_t Phi + [inv(g)g_t, Phi] and -(D_x Phi + [inv(g)g_x, Phi]).  Each
    D_c Phi is taken on ints (`calculus.derive_cleared`)."""
    x, t = _xt(problem)
    phi = as_expr(phi)
    n = nf(phi)
    totals = total_images(problem)

    def side(c: Coordinate) -> NF:  # D_c Phi + [inv(g)g_c, Phi]
        a = nf(left_current(problem, c))
        return _nf_add(_nf_add(derive_nf(n, totals[c.index]), _nf_mul(a, n)),
                       _nf_scale(_nf_mul(n, a), -1))

    return BtPair(phi, rebuild(side(t)), rebuild(_nf_scale(side(x), -1)))


def chiral_phi_condition(phi: Expr, pde: Pde, problem: Problem) -> Expr:
    """Linearized symmetry condition in Phi-form, D_{g*Phi} F, normalized
    (not reduced mod F).  As D_{g*Phi}(inv(g)g_i) = Phi_i + [inv(g)g_i, Phi],
    for chiral it is the cross derivative of the Backlund pair,
    D_x(Phi_x + [inv(g)g_x, Phi]) + D_t(Phi_t + [inv(g)g_t, Phi])."""
    return char_derivative(pde.f, phi_characteristic(phi, problem), problem)


def bt_seed_check(phi: Expr, pde: Pde, problem: Problem) -> SymmetryReport:
    """The report on D_{g*Phi} F = 0 mod F, which for chiral is
    (Phi'_x)_t = (Phi'_t)_x mod F, for two coordinates only."""
    _xt(problem)
    return check_symmetry(pde, phi_characteristic(phi, problem), problem)


def default_bt_basis(problem: Problem) -> list[Expr]:
    """Candidate alphabet for integrating the Backlund system: the left
    currents, constant matrices and registered potentials, their products
    of two, and single commutators of alphabet pairs.

    The letters go in order of declaration (currents, then constant
    matrices, then potentials), and each letter c brings its candidates
    after those of the letters before it: c, then a*c and c*a for each
    earlier letter a, then c*c, then [a, c] for each earlier a.  Declaring
    a potential then only appends candidates, so a chain step's basis is a
    prefix of the next step's, and `bt_integrate` extends the echelon it
    kept (`Pde.chain`) instead of building a new one."""
    x, t = _xt(problem)
    alphabet: list[Expr] = [left_current(problem, x), left_current(problem, t)]
    alphabet.extend(problem.matrices.values())
    alphabet.extend(problem.potential(n) for n in problem.potentials)
    basis: list[Expr] = []
    for k, c in enumerate(alphabet):
        basis.append(c)
        for a in alphabet[:k]:
            basis.extend((mul(a, c), mul(c, a)))
        basis.append(mul(c, c))
        basis.extend(commutator(a, c) for a in alphabet[:k])
    return basis


def _bt_columns(basis: list[Expr], reduce: Callable[[NF], NF],
                totals: list[Image]) -> list[tuple[list[NF], int]]:
    """([d*R(D_x b), d*R(D_t b)], d) for every candidate b, where R is the
    reduction mod F of one `symmetry.reduction` context (reduce, totals):
    R o D_i applied to R(b), with int coefficients and their one
    denominator d, which a potential's gradient brings in."""
    out = []
    for b in basis:
        n = reduce(nf(b))
        rows = [derive_cleared(n, total) for total in totals]
        d = lcm(*(dr for _, dr in rows))
        out.append(([_nf_scale(row, d // dr) if dr != d else row
                     for row, dr in rows], d))
    return out


def bt_apply(phi: Expr, pde: Pde, problem: Problem) -> Optional[Expr]:
    """`bt_integrate` for a seed Phi that passes `bt_seed_check`, and None
    for one that fails it."""
    if not bt_seed_check(phi, pde, problem).is_symmetry:
        return None
    return bt_integrate(phi, pde, problem)


def _bt_system(pde: Pde, problem: Problem, reduce: Callable[[NF], NF],
               totals: list[Image]) -> tuple[list[Expr], list[int], Echelon]:
    """The candidates of `default_bt_basis`, the denominator d_k of each
    one's cleared rows and the Echelon of their columns.  pde.chain keeps
    the denominators and the echelon of the candidates taken so far, a
    prefix of the basis: rows are computed for the new candidates only,
    all of them before the store changes."""
    basis = default_bt_basis(problem)
    kept = pde.chain.get(problem)
    if kept is None:
        kept = pde.chain[problem] = ([], Echelon([]))
    scales, echelon = kept
    columns = _bt_columns(basis[len(scales):], reduce, totals)
    echelon.extend([_row_column(rows) for rows, _ in columns])
    scales.extend(d for _, d in columns)
    return basis, scales, echelon


def bt_integrate(phi: Expr, pde: Pde, problem: Problem) -> Optional[Expr]:
    """Phi' for a seed Phi that solves the symmetry condition: the exact
    rational combination of basis candidates, with the rows of each from
    `_bt_columns` and constants of integration zero, that satisfies both
    equations mod F.  None signals that the integration lies outside the
    candidate basis (basis insufficiency), not that no Phi' exists."""
    pair = bt_rhs(phi, problem)  # two coordinates: totals are R o D_x, R o D_t
    reduce, totals = reduction(pde, problem)
    targets = [reduce(nf(r)) for r in (pair.rhs_x, pair.rhs_t)]
    basis, scales, echelon = _bt_system(pde, problem, reduce, totals)
    sol = _match_linear(targets, echelon)
    if sol is None:
        return None
    # candidate k's column holds d_k times its rows, so its coefficient in
    # Phi' is d_k times the one solved for
    return normal_form(add(*(mul(Rat(c * dk), b)
                             for c, dk, b in zip(sol, scales, basis) if c)))
