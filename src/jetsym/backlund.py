"""Chiral-field Backlund-transformation recursion machinery.

The chiral equation F = (inv(g)*g_x)_x + (inv(g)*g_t)_t = 0 admits an
auto-Backlund transformation between solutions Phi, Phi' of its linearized
symmetry condition D_{g*Phi} F = 0 (the Phi-form of D_Q F, Q = g*Phi):

    Phi'_x = Phi_t + [inv(g)*g_t, Phi]
   -Phi'_t = Phi_x + [inv(g)*g_x, Phi]

Integrating it sends symmetry characteristics Q = g*Phi to new, generally
nonlocal, characteristics Q' = g*Phi'.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .core import (Coordinate, Expr, JetsymError, Jet, MATRIX, Pot,
                   PotentialDef, Problem, Rat, add, as_expr, commutator,
                   inverse, mul)
from .calculus import (Characteristic, char_derivative, derive_cleared,
                       derive_nf, total_images)
from .normalize import (NF, _nf_add, _nf_mul, _nf_scale, clear_denominators,
                        nf, nf_divide, normal_form, rebuild)
from .symmetry import (Pde, _match_linear, check_symmetry, reduce_nf,
                       reduction)


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
    gradient g, computed as (R o D_j) R(g_i) (`symmetry.reduction`)."""
    coords = problem.coordinates
    for c in coords:
        if c.name not in pdef.derivatives:
            raise JetsymError(f"potential {pdef.name}: missing derivative "
                              f"for coordinate {c.name}")
    reduce, totals = reduction(pde, problem)
    # the check is homogeneous in the gradient: run it on ints
    grad, d = clear_denominators([nf(as_expr(pdef.derivatives[c.name]))
                                  for c in coords])
    grad = [reduce(g) for g in grad]
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            residual = _nf_add(derive_nf(grad[i], totals[j]),
                               _nf_scale(derive_nf(grad[j], totals[i]), -1))
            if residual:
                ci, cj = coords[i], coords[j]
                raise PotentialError(
                    f"potential {pdef.name}: D_{cj.name}({pdef.name}_{ci.name})"
                    f" != D_{ci.name}({pdef.name}_{cj.name}) mod {pde.name}",
                    rebuild(nf_divide(residual, d)))
    return problem.register_potential(pdef)


def bt_rhs(phi: Expr, problem: Problem) -> BtPair:
    """The pair of right-hand sides defining Phi' up to integration,
    D_t Phi + [inv(g)g_t, Phi] and -(D_x Phi + [inv(g)g_x, Phi]).  Both
    are linear in Phi, so they are taken on Phi cleared of denominators."""
    x, t = _xt(problem)
    phi = as_expr(phi)
    [n], d = clear_denominators([nf(phi)])
    totals = total_images(problem)

    def side(c: Coordinate) -> NF:  # d * (D_c Phi + [inv(g)g_c, Phi])
        a = nf(left_current(problem, c))
        return _nf_add(_nf_add(derive_nf(n, totals[c.index]), _nf_mul(a, n)),
                       _nf_scale(_nf_mul(n, a), -1))

    return BtPair(phi, rebuild(nf_divide(side(t), d)),
                  rebuild(nf_divide(_nf_scale(side(x), -1), d)))


def chiral_phi_condition(phi: Expr, pde: Pde, problem: Problem) -> Expr:
    """Linearized symmetry condition in Phi-form, D_{g*Phi} F, normalized
    (not reduced mod F).  As D_{g*Phi}(inv(g)g_i) = Phi_i + [inv(g)g_i, Phi],
    for chiral it is the cross derivative of the Backlund pair,
    D_x(Phi_x + [inv(g)g_x, Phi]) + D_t(Phi_t + [inv(g)g_t, Phi])."""
    return char_derivative(pde.f, phi_characteristic(phi, problem), problem)


def bt_integrability_check(phi: Expr, pde: Pde, problem: Problem) -> bool:
    """D_{g*Phi} F = 0 mod F: Phi solves the symmetry condition, which for
    chiral is (Phi'_x)_t = (Phi'_t)_x mod F."""
    return check_symmetry(pde, phi_characteristic(phi, problem),
                          problem).is_symmetry


def default_bt_basis(problem: Problem) -> list[Expr]:
    """Candidate alphabet for integrating the Backlund system: the left
    currents, registered potentials and constant matrices, their products
    of two, and single commutators of alphabet pairs."""
    x, t = _xt(problem)
    alphabet: list[Expr] = [left_current(problem, x), left_current(problem, t)]
    alphabet.extend(problem.potential(n) for n in problem.potentials)
    alphabet.extend(problem.matrices.values())
    basis: list[Expr] = list(alphabet)
    basis.extend(mul(a, b) for a in alphabet for b in alphabet)
    basis.extend(commutator(a, b)
                 for i, a in enumerate(alphabet) for b in alphabet[i + 1:])
    return basis


def bt_rows(basis: list[Expr], pde: Pde, problem: Problem
            ) -> list[list[NF]]:
    """[R(D_x b), R(D_t b)] for every candidate b, as normal forms, where R
    is reduction mod F: R o D_i (`symmetry.reduction`) applied to R(b)."""
    return [[nf_divide(row, d) for row in rows]
            for rows, d in _bt_columns(basis, pde, problem)]


def _bt_columns(basis: list[Expr], pde: Pde, problem: Problem
                ) -> list[tuple[list[NF], int]]:
    """([d*R(D_x b), d*R(D_t b)], d) for every candidate b: its `bt_rows`
    with int coefficients and their one denominator d, which a
    potential's gradient brings in."""
    _xt(problem)  # two coordinates, so totals are R o D_x and R o D_t
    reduce, totals = reduction(pde, problem)
    out = []
    for b in basis:
        n = reduce(nf(b))
        rows = [derive_cleared(n, total) for total in totals]
        d = lcm(*(dr for _, dr in rows))
        out.append(([_nf_scale(row, d // dr) if dr != d else row
                     for row, dr in rows], d))
    return out


def bt_apply(phi: Expr, pde: Pde, problem: Problem) -> Optional[Expr]:
    """Integrate the Backlund system for Phi' as an exact rational
    combination of basis candidates satisfying both equations mod F, with
    the rows R(D_x b), R(D_t b) of each candidate b from `bt_rows`.

    Constants of integration are fixed to zero.  None signals either that
    Phi fails the symmetry condition or that the integration lies outside
    the candidate basis (basis insufficiency), not that no Phi' exists."""
    _xt(problem)  # two coordinates, or a JetsymError before any work
    # Phi' is linear in Phi: integrate d*Phi, cleared of denominators
    [n], d = clear_denominators([nf(as_expr(phi))])
    phi = rebuild(n)
    if not bt_integrability_check(phi, pde, problem):
        return None
    basis = default_bt_basis(problem)
    pair = bt_rhs(phi, problem)
    targets = [reduce_nf(nf(r), pde, problem) for r in (pair.rhs_x, pair.rhs_t)]
    columns = _bt_columns(basis, pde, problem)
    sol = _match_linear(targets, [rows for rows, _ in columns])
    if sol is None:
        return None
    # candidate k's rows are d_k times its column, so its coefficient in
    # Phi' is d_k times the one solved for, divided by Phi's d
    return normal_form(add(*(mul(Rat(c * dk / d), b)
                             for c, (_, dk), b in zip(sol, columns, basis)
                             if c)))
