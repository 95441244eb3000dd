"""Symmetry condition D_Q F = 0 mod F, operator certificates, and structure
constants of symmetry bases.

"mod F" is realized through a solved form of the PDE: the leading jet
equals a right-hand side containing no jet at-or-above the leading one, so
repeated substitution of total derivatives of the solved form terminates.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional

from .core import (Add, CMat, Expr, Jet, JetsymError, MATRIX, Mul, Problem,
                   Rat, add, as_expr, mul)
from .calculus import Characteristic, char_derivative, bracket_characteristic, \
    iterated_total
from .linsolve import rank, solve
from .normalize import (NF, _nf_mul, collect_jets, is_zero, key_sort_key, nf,
    normal_form, substitute)
from .printing import render


class PdeError(JetsymError):
    """Invalid solved form."""


class BasisError(JetsymError):
    """Linearly dependent symmetry basis."""


class SpanError(JetsymError):
    """A bracket left the span of the basis (not a subalgebra)."""


@dataclass(frozen=True)
class Pde:
    """F[u] = 0 together with a validated solved form leading = rhs."""

    name: str
    f: Expr
    leading: Jet
    rhs: Expr


def make_pde(name: str, f: Expr, leading: Jet, rhs: Expr,
             problem: Problem) -> Pde:
    if leading.dep != problem.dependent:
        raise PdeError(f"solved form leads with {render(leading, problem)}, "
                       "which is not over the problem's dependent")
    lead = Counter(leading.idx)
    for j in sorted(collect_jets(rhs), key=lambda j: (j.order, j.idx)):
        if j.dep == leading.dep and not (lead - Counter(j.idx)):
            raise PdeError(
                f"solved-form rhs contains {render(j, problem)} at or above "
                f"the leading jet {render(leading, problem)}")
    if not is_zero(substitute(f, leading, rhs)):
        raise PdeError("substituting the solved form into F does not give 0")
    return Pde(name, normal_form(f), leading, normal_form(rhs))


def reduce_mod_pde(e: Expr, pde: Pde, problem: Problem,
                   max_steps: int = 2000) -> Expr:
    """Substitute total derivatives of the solved form until no jet contains
    the leading multi-index; returns the normalized fixed point."""
    lead = Counter(pde.leading.idx)
    out = normal_form(as_expr(e))
    for _ in range(max_steps):
        reducible = [j for j in collect_jets(out)
                     if j.dep == pde.leading.dep
                     and not (lead - Counter(j.idx))]
        if not reducible:
            return out
        j = max(reducible, key=lambda j: (j.order, j.idx))
        extra = Counter(j.idx) - lead
        repl = iterated_total(pde.rhs, tuple(extra.elements()), problem)
        out = substitute(out, j, repl)
    raise RuntimeError("mod-F reduction did not terminate")


class Verdict(Enum):
    SYMMETRY = "Symmetry"
    NOT_SYMMETRY = "NotSymmetry"


@dataclass(frozen=True)
class LinearOperatorAnsatz:
    """Linear operator of the shape  sum_k  left_k * (D_Jk e) * right_k,
    with base-space coefficients (optionally times constant matrices)."""

    terms: tuple[tuple[Expr, tuple[int, ...], Expr], ...]

    def apply(self, e: Expr, problem: Problem) -> Expr:
        out = [mul(left, iterated_total(e, j, problem), right)
               for left, j, right in self.terms]
        return normal_form(add(*out))

    def canonical(self) -> tuple:
        """Order-independent fingerprint for comparing operators: the
        coefficient of each (left term, J, right term), like terms
        collected and zeros dropped."""
        coeffs: dict[tuple, Fraction] = {}
        for left, j, right in self.terms:
            j = tuple(sorted(j))
            for lk, lv in nf(left).items():
                for rk, rv in nf(right).items():
                    key = (key_sort_key(lk), j, key_sort_key(rk))
                    coeffs[key] = coeffs.get(key, 0) + lv * rv
        return tuple(sorted((k, v) for k, v in coeffs.items() if v))

    def same_operator(self, other: "LinearOperatorAnsatz") -> bool:
        return self.canonical() == other.canonical()


ZERO_OPERATOR = LinearOperatorAnsatz(())
IDENTITY_OPERATOR = LinearOperatorAnsatz(((Rat(Fraction(1)), (), Rat(Fraction(1))),))


@dataclass(frozen=True)
class SymmetryReport:
    verdict: Verdict
    raw: Expr
    remainder: Expr
    certificate: Optional[LinearOperatorAnsatz] = None

    @property
    def is_symmetry(self) -> bool:
        return self.verdict is Verdict.SYMMETRY


def check_symmetry(pde: Pde, Q: Characteristic, problem: Problem,
                   raw: Expr | None = None,
                   search_certificate: bool = False,
                   ansatz_config: "AnsatzConfig | None" = None) -> SymmetryReport:
    """Evaluate D_Q F for arbitrary u, then reduce mod F.  `raw` overrides
    the left-hand side (used for the chiral Phi-form condition)."""
    if raw is None:
        raw = char_derivative(pde.f, Q, problem)
    remainder = reduce_mod_pde(raw, pde, problem)
    verdict = Verdict.SYMMETRY if is_zero(remainder) else Verdict.NOT_SYMMETRY
    certificate = None
    if search_certificate and verdict is Verdict.SYMMETRY:
        certificate = find_operator(pde, Q, problem, cfg=ansatz_config, lhs=raw)
    return SymmetryReport(verdict, raw, remainder, certificate)


def certify_operator(pde: Pde, Q: Characteristic | None,
                     lhat: LinearOperatorAnsatz, problem: Problem,
                     lhs: Expr | None = None) -> bool:
    """True iff  D_Q F  equals  lhat F  identically (no mod-F reduction)."""
    if lhs is None:
        lhs = char_derivative(pde.f, Q, problem)
    return is_zero(lhs - lhat.apply(pde.f, problem))


@dataclass(frozen=True)
class AnsatzConfig:
    max_deriv_order: int = 2
    coeff_degree: int = 2
    use_const_matrices: bool = True


def _coordinate_monomials(problem: Problem, degree: int) -> list[Expr]:
    out: list[Expr] = [Rat(Fraction(1))]
    coords = [problem.coord(c.name) for c in problem.coordinates]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(coords, d):
            out.append(mul(*combo))
    return out


def _candidate_terms(problem: Problem, cfg: AnsatzConfig):
    """Candidate ansatz terms (left, J, right): scalar-coefficient terms for
    every derivative multi-index, plus left/right constant-matrix terms at
    derivative order zero for matrix problems."""
    monos = _coordinate_monomials(problem, cfg.coeff_degree)
    ncoords = len(problem.coordinates)
    js: list[tuple[int, ...]] = [()]
    for d in range(1, cfg.max_deriv_order + 1):
        js.extend(combinations_with_replacement(range(ncoords), d))
    one = Rat(Fraction(1))
    terms = [(m, j, one) for j in js for m in monos]
    if problem.dependent.kind == MATRIX and cfg.use_const_matrices:
        for cm in problem.matrices.values():
            for m in monos:
                terms.append((mul(m, cm), (), one))
                terms.append((m, (), cm))
    return terms


def _match_linear(targets: list[NF], candidates: list[list[NF]]
                  ) -> Optional[list[Fraction]]:
    """Solve  sum_k c_k * candidates[k][r] = targets[r]  for every row r,
    by matching the term coefficients of normal forms: the unknowns' columns
    are keyed by (row, normal-form term)."""
    def column(row: list[NF]) -> dict:
        return {(r, key): v for r, n in enumerate(row) for key, v in n.items()}

    return solve([column(row) for row in candidates], column(targets))


def find_operator(pde: Pde, Q: Characteristic | None, problem: Problem,
                  cfg: AnsatzConfig | None = None,
                  lhs: Expr | None = None) -> Optional[LinearOperatorAnsatz]:
    """Search for L-hat with  D_Q F = L-hat F  identically, over rational
    coefficients on the bounded monomial ansatz.  None means no certificate
    inside the bounds, which is not a proof of non-symmetry."""
    cfg = cfg or AnsatzConfig()
    if lhs is None:
        lhs = char_derivative(pde.f, Q, problem)
    terms = _candidate_terms(problem, cfg)
    derivs: dict[tuple[int, ...], NF] = {}
    for _, j, _ in terms:
        if j not in derivs:
            derivs[j] = nf(iterated_total(pde.f, j, problem))
    one = Rat(Fraction(1))
    applied = []
    for left, j, right in terms:
        col = derivs[j] if left == one else _nf_mul(nf(left), derivs[j])
        applied.append(col if right == one else _nf_mul(col, nf(right)))
    sol = _match_linear([nf(lhs)], [[a] for a in applied])
    if sol is None:
        return None
    kept = tuple((mul(Rat(c), left), j, right)
                 for c, (left, j, right) in zip(sol, terms) if c)
    return LinearOperatorAnsatz(kept)


@dataclass(frozen=True)
class StructureConstants:
    basis: tuple[Characteristic, ...]
    c: tuple  # c[i][j][k], antisymmetric in (i, j)

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.c[i][j][k]


def structure_constants(pde: Pde, basis: list[Characteristic],
                        problem: Problem) -> StructureConstants:
    """Expand every pairwise bracket in the basis, solving exactly for the
    coefficients."""
    for q in basis:
        if not check_symmetry(pde, q, problem).is_symmetry:
            raise BasisError(f"{q.name} is not a symmetry of {pde.name}")
    basis_nfs = [nf(q.q) for q in basis]
    if rank(basis_nfs) < len(basis):
        raise BasisError("basis dependent")
    n = len(basis)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            br = bracket_characteristic(basis[i], basis[j], problem)
            coeffs = _match_linear([nf(br.q)], [[b] for b in basis_nfs])
            if coeffs is None:
                raise SpanError(
                    f"bracket not in span: [{basis[i].name}, {basis[j].name}]")
            for k in range(n):
                c[i][j][k] = coeffs[k]
                c[j][i][k] = -coeffs[k]
    return StructureConstants(tuple(basis),
                              tuple(tuple(tuple(row) for row in plane)
                                    for plane in c))
