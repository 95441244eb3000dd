"""Symmetry condition D_Q F = 0 mod F, operator certificates, and structure
constants of symmetry bases.

"mod F" is realized through a solved form of the PDE, leading = rhs.  The
principal jets are the leading jet and its derivatives; every other jet is
parametric.  Reduction mod F (R) is the ring homomorphism that fixes the
parametric jets and sends each principal jet J to its value R[J], which
has parametric jets only.  It vanishes exactly on the differential ideal
of F, which every D_i preserves, so R(D_i b) = R(D_i R(b)); R(b) has
parametric jets only, so on it R o D_i is the derivation whose image of an
atom a is R(D_i a).  Hence the one rule for the values,

    R[leading] = rhs,   R[J] = (R o D_i) R[J - i]

for a coordinate i in J - leading.  `reduction` gives R and every R o D_i
for one call; each Pde keeps one table of the values per Problem, held as
normal forms.  Reducing a normal form (`reduce_nf`) fills the table for
its principal jets and normalizes it once with the table as the jet map
of `normalize.nf`, which puts each value in place of its jet.

The solved form must be ranked: some lex ranking of the jets (over an order
of the coordinates) or orderly one (total order first, then lex) puts every
jet of the rhs strictly below the leading jet.  Such rankings are
well-orders compatible with every D_i, so every jet of R[J] ranks below J,
the values that R[J] needs belong to lower principal jets, and filling the
table terminates.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from typing import Callable, Optional
from weakref import WeakKeyDictionary

from .core import Expr, Jet, JetsymError, MATRIX, Problem, Rat, as_expr, mul
from .calculus import (Characteristic, Image, bracket_characteristic,
                       char_nf, derivation, derive_nf, jet_totals, total_atoms)
from .linsolve import rank, solve
from .normalize import (NF, _nf_add, _nf_mul, clear_denominators,
                        collect_jets, is_zero, key_sort_key, nf, nf_divide,
                        nf_jets, normal_form, rebuild, substitute)
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
    # problem -> {principal multi-index J: normal form of R[J]}, filled by
    # `reduction` as R[J] = (R o D_i) R[J - i] and dropped with its problem;
    # a value depends only on rhs, the coordinates and the potentials'
    # gradients, which a Problem never changes; dataclasses.replace starts
    # an empty table
    table: WeakKeyDictionary = field(default_factory=WeakKeyDictionary,
                                     init=False, compare=False, hash=False,
                                     repr=False)


def _lex_unranked(lead: list[int], jets: list[list[int]]) -> list[list[int]]:
    """The exponent vectors that no lex ranking of the coordinates puts
    below `lead` together with the rest; empty iff one ranking puts all of
    them below.  Greedy: taking next any coordinate in which no unsettled
    jet exceeds the lead never hurts, because it only settles jets, and a
    settled jet no longer restricts the later choices."""
    free = list(range(len(lead)))
    while jets:
        c = next((c for c in free if all(v[c] <= lead[c] for v in jets)),
                 None)
        if c is None:
            return jets
        free.remove(c)
        jets = [v for v in jets if v[c] == lead[c]]
    return jets


def _ranked(lead: list[int], jets: list[list[int]]) -> bool:
    """True iff a lex or an orderly ranking puts every jet below `lead`."""
    order = sum(lead)
    orderly = all(sum(v) <= order for v in jets) and not _lex_unranked(
        lead, [v for v in jets if sum(v) == order])
    return orderly or not _lex_unranked(lead, jets)


def _is_principal(j: Jet, leading: Jet) -> bool:
    """True for the leading jet and its derivatives."""
    return j.dep == leading.dep and not (Counter(leading.idx) - Counter(j.idx))


def make_pde(name: str, f: Expr, leading: Jet, rhs: Expr,
             problem: Problem) -> Pde:
    if leading.dep != problem.dependent:
        raise PdeError(f"solved form leads with {render(leading, problem)}, "
                       "which is not over the problem's dependent")
    jets = sorted((j for j in collect_jets(rhs) if j.dep == leading.dep),
                  key=lambda j: (j.order, j.idx))
    for j in jets:
        if _is_principal(j, leading):
            raise PdeError(
                f"solved-form rhs contains {render(j, problem)} at or above "
                f"the leading jet {render(leading, problem)}")
    n = len(problem.coordinates)

    def exponents(j: Jet) -> list[int]:
        return [j.idx.count(i) for i in range(n)]

    lead, vectors = exponents(leading), [exponents(j) for j in jets]
    if not _ranked(lead, vectors):
        unsettled = _lex_unranked(lead, vectors)
        names = ", ".join(render(j, problem) for j in jets
                          if exponents(j) in unsettled)
        raise PdeError(
            f"no lex or orderly ranking puts the solved-form rhs jets {names} "
            f"below the leading jet {render(leading, problem)}")
    if not is_zero(substitute(f, leading, rhs)):
        raise PdeError("substituting the solved form into F does not give 0")
    return Pde(name, normal_form(f), leading, normal_form(rhs))


def _principal_jets(jets: set[Jet], pde: Pde) -> list[Jet]:
    return [j for j in jets if _is_principal(j, pde.leading)]


def reduction(pde: Pde, problem: Problem
              ) -> tuple[Callable[[NF], NF], list[Image]]:
    """The reduction mod F (R) as a context for one call: reduce(n) puts
    each principal jet's value in place in the normal form n, and totals[i]
    is R o D_i, the derivation whose image of an atom a is R(D_i a): the
    value of u_(K+i) for a jet u_K, R(D_i X) for a potential X and D_i a
    for any other atom.  Its image maps live as long as the context; the
    values go into pde.table, which every call on this problem shares."""
    dep, lead = pde.leading.dep, pde.leading.idx
    table = pde.table.setdefault(problem, {})
    if lead not in table:
        table[lead] = nf(pde.rhs)
    busy: set[tuple[int, ...]] = set()  # entries being filled

    def value(idx: tuple[int, ...]) -> NF:
        """R[J] = (R o D_i) R[J - i] for the principal multi-index J, filled
        in a loop down J - i, J - i - i', ... to an entry in the table; i
        is a coordinate of J - leading that occurs least often in the
        leading jet (D_x keeps u_x...x parametric when u_t leads)."""
        chain = []
        while idx not in table:
            if idx in busy:  # only a potential in rhs can lead back here
                raise PdeError(f"the value of {render(Jet(dep, idx), problem)}"
                               " mod F depends on itself")
            busy.add(idx)
            extra = Counter(idx) - Counter(lead)
            i = min(extra, key=lambda c: (lead.count(c), c))
            chain.append((idx, i))
            k = idx.index(i)
            idx = idx[:k] + idx[k + 1:]
        n = table[idx]
        for idx, i in reversed(chain):
            n = table[idx] = derive_nf(n, totals[i])
            busy.discard(idx)
        return n

    def reduce(n: NF) -> NF:
        principal = _principal_jets(nf_jets(n), pde)
        if not principal:
            return n
        [n], d = clear_denominators([n])  # R is linear over the rationals
        return nf_divide(nf(rebuild(n), {j: value(j.idx) for j in principal}),
                         d)

    totals = [derivation(lambda a, total=total_atoms(c, problem):
                         reduce(total(a))) for c in problem.coordinates]
    return reduce, totals


def reduce_nf(n: NF, pde: Pde, problem: Problem) -> NF:
    """The normal form n with every principal jet replaced by its value mod
    F, which contains parametric jets only."""
    if not _principal_jets(nf_jets(n), pde):
        return n
    return reduction(pde, problem)[0](n)


def reduce_mod_pde(e: Expr, pde: Pde, problem: Problem) -> Expr:
    """The normal form of e reduced mod F (`reduce_nf`)."""
    return rebuild(reduce_nf(nf(as_expr(e)), pde, problem))


class Verdict(Enum):
    SYMMETRY = "Symmetry"
    NOT_SYMMETRY = "NotSymmetry"


@dataclass(frozen=True)
class LinearOperatorAnsatz:
    """Linear operator of the shape  sum_k  left_k * (D_Jk e) * right_k,
    with base-space coefficients (optionally times constant matrices)."""

    terms: tuple[tuple[Expr, tuple[int, ...], Expr], ...]

    def columns(self, n: NF, problem: Problem) -> list[NF]:
        """left * (D_J n) * right for each term, as normal forms."""
        totals, one = jet_totals(n, problem), Rat(Fraction(1))
        out = []
        for left, j, right in self.terms:
            col = totals(j) if left == one else _nf_mul(nf(left), totals(j))
            out.append(col if right == one else _nf_mul(col, nf(right)))
        return out

    def apply(self, e: Expr, problem: Problem) -> Expr:
        return rebuild(reduce(_nf_add, self.columns(nf(as_expr(e)), problem),
                              {}))

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
                   search_certificate: bool = False) -> SymmetryReport:
    """Evaluate D_Q F for arbitrary u, then reduce mod F.  A Phi-form seed
    goes in as its characteristic (`backlund.phi_characteristic`)."""
    raw = char_nf(nf(pde.f), Q, problem)
    remainder = reduce_nf(raw, pde, problem)
    verdict = Verdict.NOT_SYMMETRY if remainder else Verdict.SYMMETRY
    raw, remainder = rebuild(raw), rebuild(remainder)
    certificate = None
    if search_certificate and verdict is Verdict.SYMMETRY:
        certificate = find_operator(pde, Q, problem, lhs=raw)
    return SymmetryReport(verdict, raw, remainder, certificate)


def certify_operator(pde: Pde, Q: Characteristic,
                     lhat: LinearOperatorAnsatz, problem: Problem) -> bool:
    """True iff  D_Q F  equals  lhat F  identically (no mod-F reduction)."""
    f = nf(pde.f)
    return char_nf(f, Q, problem) == reduce(_nf_add,
                                            lhat.columns(f, problem), {})


@dataclass(frozen=True)
class AnsatzConfig:
    max_deriv_order: int = 2
    coeff_degree: int = 2


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
    if problem.dependent.kind == MATRIX:
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
    f = nf(pde.f)
    target = char_nf(f, Q, problem) if lhs is None else nf(lhs)
    terms = _candidate_terms(problem, cfg)
    columns = LinearOperatorAnsatz(tuple(terms)).columns(f, problem)
    sol = _match_linear([target], [[c] for c in columns])
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
