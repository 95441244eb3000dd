"""Built-in PDE catalog, read from the versioned data file
`data/catalog.json` with the standard library's `json`.

Each entry carries the PDE in solved form, its known symmetry
characteristics with operator certificates, and (for the chiral field) the
potential and Backlund fixtures.  All expressions use the CLI grammar;
certificates use the operator grammar (products of coefficients, D_<coord>
factors and constant matrices around an F placeholder).  The file holds one
characteristic, structure claim or fixture per line.  `validate_entry`
re-runs every fixture through the engine; the test suite keeps the catalog
self-validating.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from typing import Optional

from .core import (DeclarationError, Dependent, Expr, Jet, PotentialDef,
                   Problem)
from .calculus import Characteristic
from .normalize import is_zero
from .parsing import parse_expr, parse_operator
from .printing import render
from .symmetry import (LinearOperatorAnsatz, Pde, certify_operator,
                       check_symmetry, make_pde, structure_constants)
from .backlund import (bt_apply, bt_seed_check, declare_potential,
                       phi_characteristic)

CATALOG_NAMES = ("sine-gordon", "heat", "burgers", "wave", "kdv", "chiral")


@dataclass(frozen=True)
class CatalogCharacteristic:
    name: str
    q: Characteristic
    certificate: Optional[LinearOperatorAnsatz]
    doc: str = ""
    phi: Optional[Expr] = None  # chiral entries carry the Phi-form


@dataclass(frozen=True)
class StructureClaim:
    i: str
    j: str
    coefficients: dict[str, Fraction]  # basis name -> c_{ij}^k; absent = 0


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    doc: str
    problem: Problem
    pde: Pde
    characteristics: tuple[CatalogCharacteristic, ...]
    structure_basis: tuple[str, ...] = ()
    structure_claims: tuple[StructureClaim, ...] = ()
    bt_fixtures: tuple[tuple[Expr, Expr], ...] = ()  # (phi, expected phi')

    def characteristic(self, name: str) -> CatalogCharacteristic:
        for c in self.characteristics:
            if c.name == name:
                return c
        raise DeclarationError(f"{self.name}: no characteristic {name!r}")


@cache
def _load_raw() -> dict:
    """The parsed data file, read once per process; no caller changes it."""
    return json.loads(
        resources.files("jetsym.data").joinpath("catalog.json").read_text())


def _build_entry(name: str, raw: dict) -> CatalogEntry:
    dep_raw = raw["dependent"]
    dep = Dependent(dep_raw["name"], dep_raw.get("kind", "scalar"),
                    dep_raw.get("invertible", False))
    problem = Problem(coords=raw["coordinates"], dependent=dep,
                     constants=raw.get("constants", ()),
                     matrices=[(m["name"], m.get("invertible", False))
                               for m in raw.get("matrices", [])])
    f = parse_expr(raw["f"], problem)
    leading = parse_expr(raw["solved"]["leading"], problem)
    assert isinstance(leading, Jet)
    rhs = parse_expr(raw["solved"]["rhs"], problem)
    pde = make_pde(name, f, leading, rhs, problem)

    for praw in raw.get("potentials", []):
        pdef = PotentialDef(praw["name"],
                            {c: parse_expr(txt, problem)
                             for c, txt in praw["derivatives"].items()})
        declare_potential(pdef, pde, problem)

    chars = []
    for craw in raw.get("characteristics", []):
        phi = None
        if "phi" in craw:
            phi = parse_expr(craw["phi"], problem)
            q_expr = phi_characteristic(phi, problem).q
        else:
            q_expr = parse_expr(craw["q"], problem)
        cert = None
        if "certificate" in craw:
            cert = parse_operator(craw["certificate"], problem)
        chars.append(CatalogCharacteristic(
            craw["name"], Characteristic(craw["name"], q_expr, dep),
            cert, craw.get("doc", ""), phi))

    struct = raw.get("structure", {})
    claims = tuple(
        StructureClaim(c["i"], c["j"],
                       {k: Fraction(v) for k, v in c.get("c", {}).items()})
        for c in struct.get("expected", []))

    fixtures = tuple(
        (parse_expr(b["phi"], problem), parse_expr(b["phi_prime"], problem))
        for b in raw.get("backlund", []))

    return CatalogEntry(name, raw.get("doc", ""), problem, pde, tuple(chars),
                        tuple(struct.get("basis", ())), claims, fixtures)


_cache: dict[str, CatalogEntry] = {}


def get_pde(name: str) -> CatalogEntry:
    if name not in _cache:
        raw = _load_raw()["pdes"]
        if name not in raw:
            raise DeclarationError(
                f"unknown catalog PDE {name!r}; known: {', '.join(CATALOG_NAMES)}")
        _cache[name] = _build_entry(name, raw[name])
    return _cache[name]


def load_catalog() -> dict[str, CatalogEntry]:
    return {name: get_pde(name) for name in CATALOG_NAMES}


def validate_entry(entry: CatalogEntry) -> None:
    """Re-run every fixture; raises AssertionError on any mismatch."""
    problem, pde = entry.problem, entry.pde
    for c in entry.characteristics:
        report = check_symmetry(pde, c.q, problem)
        assert report.is_symmetry, f"{entry.name}/{c.name}: not a symmetry"
        if c.certificate is not None:
            assert certify_operator(pde, c.q, c.certificate, problem), \
                f"{entry.name}/{c.name}: certificate does not certify"
    if entry.structure_basis:
        basis = [entry.characteristic(n).q for n in entry.structure_basis]
        sc = structure_constants(pde, basis, problem)
        index = {n: k for k, n in enumerate(entry.structure_basis)}
        for claim in entry.structure_claims:
            i, j = index[claim.i], index[claim.j]
            for name, k in index.items():
                expected = claim.coefficients.get(name, Fraction(0))
                assert sc[i, j, k] == expected, \
                    f"{entry.name}: c[{claim.i}][{claim.j}]^{name} != {expected}"
    for phi, expected in entry.bt_fixtures:
        got = bt_apply(phi, pde, problem)
        assert got is not None and is_zero(got - expected), \
            f"{entry.name}: BT fixture mismatch for {render(phi, problem)}"
        assert bt_seed_check(got, pde, problem).is_symmetry, \
            f"{entry.name}: BT image fails the symmetry condition"
