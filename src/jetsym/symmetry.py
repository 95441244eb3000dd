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
for one call; each Pde keeps, per Problem, the values and the images of
each R o D_i, as normal forms, in that problem's `Store`.  R is a ring
homomorphism, so reducing a normal form (`reduce_nf`) is `normalize.map_nf`
with each principal jet sent to its table value: it maps the normal form
term by term, with no tree built.  A value is kept sorted as
`normalize.rebuild` lays it out, and a rational multiple of it keeps
that order (`normalize._nf_mul`), so R(c*u_J) comes out in output order.

The solved form must be ranked: some lex ranking of the jets (over an order
of the coordinates) or orderly one (total order first, then lex) puts every
jet of the rhs strictly below the leading jet.  This one check also
refuses a principal jet in the rhs, which no ranking puts below the
leading jet (`make_pde`).  Such rankings are
well-orders compatible with every D_i, so every jet of R[J] ranks below J,
the values that R[J] needs belong to lower principal jets, and filling the
table terminates.  F itself must be nondegenerate: a rational times
invertible factors times leading - rhs (`make_pde`).

A certificate search (`find_operator`) solves D_Q F = sum_k c_k column_k
for the columns left_k * D_Jk F * right_k of the ansatz, which depend on
F, the problem's coordinates and constant matrices and the ansatz bounds,
and never on Q.  The problem's `Store` keeps, per AnsatzConfig, the ansatz
terms and the `linsolve.Echelon` of their columns, so that every later
search reduces only its target.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from itertools import combinations, combinations_with_replacement
from typing import Callable, Optional
from weakref import WeakKeyDictionary

from .core import (CMat, Expr, Inv, Jet, JetsymError, MATRIX, ONE, Problem,
                   Rat, as_expr, invertible, mul)
from .calculus import (Characteristic, Image, bracket_nf, char_nf,
                       derivation, derive_nf, jet_totals, total_atoms)
from .linsolve import Echelon
from .normalize import (NF, Coeff, _merge_cmono, _nf_add, _nf_mul,
                        _nf_scale, _term_sort_key, collect_jets, map_nf, nf,
                        normal_form, rebuild)
from .printing import render


class PdeError(JetsymError):
    """Invalid solved form."""


class BasisError(JetsymError):
    """Linearly dependent symmetry basis."""


class SpanError(JetsymError):
    """A bracket left the span of the basis (not a subalgebra)."""


@dataclass(eq=False)
class Store:
    """What a Pde keeps for one Problem, as plain data (`store`):
    - table: {principal multi-index J: normal form of R[J]}, seeded with
      leading -> rhs and filled by `reduction`, each value in `rebuild`'s
      order;
    - images: the images of R o D_i, {factor: cleared normal form}, by
      coordinate index, filled by `reduction`'s image maps;
    - ansatz: {AnsatzConfig: (terms, Echelon of their columns on F)},
      filled by `_ansatz`;
    - letters, columns, echelon: the Backlund system of
      `backlund._bt_system`: (R(c), [d*R(D_x c), d*R(D_t c)], d) per
      letter c taken so far, (candidate b, denominator d_b of its cleared
      rows) per echelon column, and the Echelon of the columns.

    Nothing kept goes stale, by construction: an entry depends only on F,
    the ansatz bounds and the problem's declarations, a Pde is immutable,
    and a Problem changes only by `register_potential`, which adds a
    potential with a fixed gradient.  `Pde.stores` holds problems weakly,
    so a record goes with its problem, and dataclasses.replace starts a Pde
    with none.  No closure is kept: the image maps R o D_i, which hold
    their images here, and the guard against a cyclic value belong to each
    `reduction` context, which refers to the record's parts and not to
    the record, so a dropped record is freed at once."""

    table: dict
    images: list
    ansatz: dict = field(default_factory=dict)
    letters: list = field(default_factory=list)
    columns: list = field(default_factory=list)
    echelon: Echelon = field(default_factory=lambda: Echelon([]))


@dataclass(frozen=True)
class Pde:
    """F[u] = 0 together with a validated solved form leading = rhs."""

    name: str
    f: Expr
    leading: Jet
    rhs: Expr
    # problem -> its Store, created by `store`
    stores: WeakKeyDictionary = field(default_factory=WeakKeyDictionary,
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


def _unranked(lead: list[int], jets: list[list[int]]) -> list[list[int]]:
    """The jets no lex ranking settles, or [] if an orderly one ranks all."""
    order = sum(lead)
    orderly = all(sum(v) <= order for v in jets) and not _lex_unranked(
        lead, [v for v in jets if sum(v) == order])
    return [] if orderly else _lex_unranked(lead, jets)


def _principal(j: Jet, leading: Jet) -> bool:
    """True for the leading jet and its derivatives.  Dependents are
    compared by value: equal ones need not be one object."""
    lead = leading.idx
    return j.dep == leading.dep and all(j.idx.count(c) >= lead.count(c)
                                        for c in lead)


def make_pde(name: str, f: Expr, leading: Expr, rhs: Expr,
             problem: Problem) -> Pde:
    """F = 0 with its solved form leading = rhs.  Raises PdeError unless
    leading is a jet of the problem's dependent, a ranking puts every jet
    of rhs below it, and F = r*c*(leading - rhs) for a rational r and a
    product c of invertible atoms (inverses and the atoms that
    `core.invertible` accepts).  No ranking puts a principal jet of rhs
    below the leading jet: its exponents are at least the leading jet's,
    so no lex ranking settles it, and its order is higher unless it is the
    leading jet itself.

    Exactly one term of nf(F) holds the leading jet: r is its coefficient
    and c what stands to the left of the leading jet, with nothing to its
    right (chiral's c is inv(g)).  Such an F is nondegenerate, as the
    symmetry theory assumes (Olver, Applications of Lie Groups to
    Differential Equations, 2nd ed., 1993, ch. 2).  A degenerate F such as
    G*G also vanishes on the solved form, but every Q passes D_Q F = 0 mod
    F for it."""
    if not (isinstance(leading, Jet) and leading.dep == problem.dependent):
        raise PdeError(f"solved form leads with {render(leading, problem)}, "
                       "which is not a jet of the problem's dependent")
    jets = sorted((j for j in collect_jets(rhs) if j.dep == leading.dep),
                  key=lambda j: (j.order, j.idx))
    n = len(problem.coordinates)

    def exponents(j: Jet) -> list[int]:
        return [j.idx.count(i) for i in range(n)]

    lead, vectors = exponents(leading), [exponents(j) for j in jets]
    unsettled = _unranked(lead, vectors)
    if unsettled:
        names = ", ".join(render(j, problem) for j in jets
                          if exponents(j) in unsettled)
        raise PdeError(
            f"no lex or orderly ranking puts the solved-form rhs jets {names} "
            f"below the leading jet {render(leading, problem)}")
    n = nf(f)
    held = [(key, r) for key, r in n.items()
            if leading in key[1] or any(a is leading for a, _ in key[0])]
    if len(held) == 1:
        (cmono, word), r = held[0]
        # c: what stands left of a matrix leading jet (the comparison
        # refuses anything to its right), or the rest of a commuting one's term
        if leading in word:
            word = word[:word.index(leading)]
        else:
            cmono = _merge_cmono(cmono, ((leading, -1),))
        if all(type(a) is Inv or invertible(a)
               for a in [*dict(cmono), *word]) and \
                n == _nf_mul({(cmono, word): r}, _nf_add(
                    _nf_scale(nf(rhs), -1), nf(leading))):
            return Pde(name, rebuild(n), leading, normal_form(rhs))
    raise PdeError(
        f"F is not r*c*({render(leading, problem)} - ({render(rhs, problem)}))"
        " for a rational r and a product c of invertible atoms (a degenerate"
        " F, such as G*G, would make every Q a symmetry)")


def store(pde: Pde, problem: Problem) -> Store:
    """The Store that pde keeps for problem, created on first use."""
    kept = pde.stores.get(problem)
    if kept is None:
        kept = pde.stores[problem] = Store({pde.leading.idx: nf(pde.rhs)},
                                          [{} for _ in problem.coordinates])
    return kept


def reduction(pde: Pde, problem: Problem
              ) -> tuple[Callable[[NF], NF], Callable[[int], Image]]:
    """The reduction mod F (R) as a context for one call: reduce(n) puts
    each principal jet's value in place in the normal form n, and total(i)
    is R o D_i, the derivation whose image of an atom a is R(D_i a): the
    value of u_(K+i) for a jet u_K, R(D_i X) for a potential X and D_i a
    for any other atom.  Its image maps are made when first asked for and
    live as long as the context; the values and the images that they take
    go into the problem's `Store`, which every call on this problem
    shares."""
    leading = pde.leading
    dep, lead = leading.dep, leading.idx
    kept = store(pde, problem)  # no closure holds the record: its parts
    table, images = kept.table, kept.images
    busy: set[tuple[int, ...]] = set()  # entries being filled
    totals: list[Image] = []  # R o D_i by coordinate index

    def total(i: int) -> Image:
        if not totals:
            totals.extend(derivation(lambda a, atom=total_atoms(c, problem):
                                     reduce(atom(a)), kept_images)
                          for c, kept_images in zip(problem.coordinates,
                                                    images))
        return totals[i]

    def value(idx: tuple[int, ...]) -> NF:
        """R[J] = (R o D_i) R[J - i] for the principal multi-index J, filled
        in a loop down J - i, J - i - i', ... to an entry in the table; i
        is a coordinate of J - leading that occurs least often in the
        leading jet (D_x keeps u_x...x parametric when u_t leads).  A value
        goes into the table sorted as `rebuild` lays it out."""
        chain = []
        while idx not in table:
            if idx in busy:  # only a potential in rhs can lead back here
                raise PdeError(f"the value of {render(Jet(dep, idx), problem)}"
                               " mod F depends on itself")
            busy.add(idx)
            i = min(Counter(idx) - Counter(lead),
                    key=lambda c: (lead.count(c), c))
            chain.append((idx, i))
            k = idx.index(i)
            idx = idx[:k] + idx[k + 1:]
        n = table[idx]
        for idx, i in reversed(chain):
            n = table[idx] = dict(sorted(derive_nf(n, total(i)).items(),
                                         key=_term_sort_key))
            busy.discard(idx)
        return n

    def values(j: Jet) -> Optional[NF]:
        return value(j.idx) if _principal(j, leading) else None

    def reduce(n: NF) -> NF:
        return map_nf(n, values)

    return reduce, total


def reduce_nf(n: NF, pde: Pde, problem: Problem) -> NF:
    """The normal form n with every principal jet replaced by its value mod
    F, which contains parametric jets only."""
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
        totals = jet_totals(n, problem)
        out = []
        for left, j, right in self.terms:
            col = totals(j) if left == ONE else _nf_mul(nf(left), totals(j))
            out.append(col if right == ONE else _nf_mul(col, nf(right)))
        return out


@dataclass(frozen=True)
class SymmetryReport:
    """The verdict on D_Q F = 0 mod F, with the normal forms of D_Q F
    (`raw_nf`) and of its reduction mod F (`remainder_nf`).  `raw` and
    `remainder` are their trees, rebuilt when first read; the CLI prints
    from the normal forms and builds neither."""

    verdict: Verdict
    raw_nf: NF = field(hash=False)
    remainder_nf: NF = field(hash=False)
    certificate: Optional[LinearOperatorAnsatz] = None

    @cached_property
    def raw(self) -> Expr:
        return rebuild(self.raw_nf)

    @cached_property
    def remainder(self) -> Expr:
        return rebuild(self.remainder_nf)

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
    certificate = None
    if search_certificate and verdict is Verdict.SYMMETRY:
        certificate = _find_operator_nf(pde, raw, problem, AnsatzConfig())
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
    out: list[Expr] = [ONE]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(problem.coordinates, d):
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
    terms = [(m, j, ONE) for j in js for m in monos]
    if problem.dependent.kind == MATRIX:
        for cm in problem.atoms(CMat):
            for m in monos:
                terms.append((mul(m, cm), (), ONE))
                terms.append((m, (), cm))
    return terms


def _row_column(rows: list[NF]) -> dict:
    """The column of an unknown whose value in row r is rows[r], keyed by
    (row, normal-form term), so that matching term coefficients row by row
    is one linear system."""
    return {(r, key): v for r, n in enumerate(rows) for key, v in n.items()}


def _match_linear(targets: list[NF], echelon: Echelon
                  ) -> Optional[dict[int, Coeff]]:
    """Solve  sum_k c_k * candidates[k][r] = targets[r]  for every row r,
    where the echelon holds each candidate's `_row_column`: {k: c_k} for
    the nonzero c_k (`linsolve.Echelon.solve`)."""
    return echelon.solve(_row_column(targets))


def _ansatz(pde: Pde, problem: Problem,
            cfg: AnsatzConfig) -> tuple[tuple, Echelon]:
    """The candidate terms of the ansatz and the Echelon of their columns
    on F, kept in the problem's `Store` for every later search on it."""
    kept = store(pde, problem).ansatz
    if cfg not in kept:
        terms = tuple(_candidate_terms(problem, cfg))
        columns = LinearOperatorAnsatz(terms).columns(nf(pde.f), problem)
        kept[cfg] = terms, Echelon(columns)
    return kept[cfg]


def find_operator(pde: Pde, Q: Characteristic | None, problem: Problem,
                  cfg: AnsatzConfig | None = None,
                  lhs: Expr | None = None) -> Optional[LinearOperatorAnsatz]:
    """Search for L-hat with  D_Q F = L-hat F  identically, over rational
    coefficients on the bounded monomial ansatz; `lhs`, when given, is
    D_Q F itself and Q is not used.  None means no certificate inside the
    bounds, which is not a proof of non-symmetry."""
    target = char_nf(nf(pde.f), Q, problem) if lhs is None else nf(lhs)
    return _find_operator_nf(pde, target, problem, cfg or AnsatzConfig())


def _find_operator_nf(pde: Pde, target: NF, problem: Problem,
                      cfg: AnsatzConfig) -> Optional[LinearOperatorAnsatz]:
    """`find_operator` for the normal form target of D_Q F: one target
    reduced against the ansatz's Echelon (`_ansatz`)."""
    terms, echelon = _ansatz(pde, problem, cfg)
    sol = echelon.solve(target)
    if sol is None:
        return None
    return LinearOperatorAnsatz(tuple(
        (mul(Rat(c), terms[k][0]), *terms[k][1:]) for k, c in sol.items()))


@dataclass(frozen=True)
class StructureConstants:
    basis: tuple[Characteristic, ...]
    c: dict  # {(i, j, k): c} for the nonzero c only, antisymmetric in (i, j)

    def __getitem__(self, ijk):
        return self.c.get(ijk, 0)


def structure_constants(pde: Pde, basis: list[Characteristic],
                        problem: Problem) -> StructureConstants:
    """Expand every pairwise bracket in the basis, solving exactly for the
    coefficients."""
    for q in basis:
        if not check_symmetry(pde, q, problem).is_symmetry:
            raise BasisError(f"{q.name} is not a symmetry of {pde.name}")
    echelon = Echelon([nf(q.q) for q in basis])
    if echelon.rank < len(basis):
        raise BasisError("basis dependent")
    c = {}
    for i, j in combinations(range(len(basis)), 2):
        coeffs = echelon.solve(bracket_nf(basis[i], basis[j], problem))
        if coeffs is None:
            raise SpanError(
                f"bracket not in span: [{basis[i].name}, {basis[j].name}]")
        for k, v in coeffs.items():
            c[i, j, k], c[j, i, k] = v, -v
    return StructureConstants(tuple(basis), c)
