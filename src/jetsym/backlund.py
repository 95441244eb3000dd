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
from fractions import Fraction
from typing import Optional

from .core import (Coordinate, Expr, JetsymError, Jet, MATRIX, Pot,
                   PotentialDef, Problem, Rat, add, as_expr, commutator,
                   inverse, mul, neg)
from .calculus import (Characteristic, Image, char_derivative, derivation,
                       derive_nf, total_atoms, total_derivative, total_images)
from .normalize import NF, _nf_add, _nf_scale, nf, normal_form, rebuild
from .symmetry import Pde, _match_linear, check_symmetry, reduce_nf


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
    second derivatives agree mod the PDE."""
    coords, total = problem.coordinates, total_images(problem)
    for c in coords:
        if c.name not in pdef.derivatives:
            raise JetsymError(f"potential {pdef.name}: missing derivative "
                              f"for coordinate {c.name}")
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            ci, cj = coords[i], coords[j]
            cross = _nf_add(
                derive_nf(nf(as_expr(pdef.derivatives[ci.name])), total[j]),
                _nf_scale(derive_nf(nf(as_expr(pdef.derivatives[cj.name])),
                                    total[i]), Fraction(-1)))
            residual = reduce_nf(cross, pde, problem)
            if residual:
                raise PotentialError(
                    f"potential {pdef.name}: D_{cj.name}({pdef.name}_{ci.name})"
                    f" != D_{ci.name}({pdef.name}_{cj.name}) mod {pde.name}",
                    rebuild(residual))
    return problem.register_potential(pdef)


def bt_rhs(phi: Expr, problem: Problem) -> BtPair:
    """The pair of right-hand sides defining Phi' up to integration."""
    x, t = _xt(problem)
    phi = as_expr(phi)
    rhs_x = add(total_derivative(phi, t, problem),
                commutator(left_current(problem, t), phi))
    rhs_t = neg(add(total_derivative(phi, x, problem),
                    commutator(left_current(problem, x), phi)))
    return BtPair(phi, normal_form(rhs_x), normal_form(rhs_t))


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
    is reduction mod F: the derivation whose image of an atom a is
    R(D_i a), applied to R(b) (`bt_apply` says why that is exact).  Only the
    atoms of the basis are reduced, one image map per coordinate and call."""
    def reduced_total(c: Coordinate) -> Image:
        total = total_atoms(c, problem)
        return derivation(lambda a: reduce_nf(total(a), pde, problem))

    images = [reduced_total(c) for c in _xt(problem)]
    return [[derive_nf(n, image) for image in images]
            for n in (reduce_nf(nf(b), pde, problem) for b in basis)]


def bt_apply(phi: Expr, pde: Pde, problem: Problem) -> Optional[Expr]:
    """Integrate the Backlund system for Phi' as an exact rational
    combination of basis candidates satisfying both equations mod F.

    The rows R(D_x b), R(D_t b) of each candidate b come from `bt_rows`:
    the derivation whose image of an atom a is R(D_i a), applied to R(b).
    That is exact: reduction mod F (R) is a ring homomorphism that vanishes
    exactly on the differential ideal of F, and every D_i preserves that
    ideal, so R(D_i b) = R(D_i R(b)); R(b) has parametric jets only, which
    R fixes, so on it R o D_i is the derivation with image R(D_i a) on each
    atom a.

    Constants of integration are fixed to zero.  None signals either that
    Phi fails the symmetry condition or that the integration lies outside
    the candidate basis (basis insufficiency), not that no Phi' exists."""
    _xt(problem)  # two coordinates, or a JetsymError before any work
    if not bt_integrability_check(phi, pde, problem):
        return None
    basis = default_bt_basis(problem)
    pair = bt_rhs(phi, problem)
    targets = [reduce_nf(nf(r), pde, problem) for r in (pair.rhs_x, pair.rhs_t)]
    sol = _match_linear(targets, bt_rows(basis, pde, problem))
    if sol is None:
        return None
    return normal_form(add(*(mul(Rat(c), b)
                             for c, b in zip(sol, basis) if c)))
