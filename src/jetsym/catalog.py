"""Built-in PDE catalog, read from the versioned data file
`data/catalog.json` with the standard library's `json`.

An entry is a PDE in solved form, its known symmetry characteristics (a
chiral one written as its Phi-form, Q = g*Phi), the basis of its structure
constants and, for the chiral field, the potential; every expression uses
the CLI grammar.  Each characteristic is a `calculus.Characteristic` whose
`doc` holds the file's note, and `CatalogEntry.characteristic` is the one
lookup by name (the CLI answers a declared problem from an entry too).
The file also holds an operator certificate for each characteristic,
expected structure constants and Backlund fixtures, one per line: claims
that the test suite re-derives (`tests/helpers.py`) and that no entry
carries.  `get_pde` builds an entry once per process (`functools.cache`),
and every caller shares it, a registered potential included;
`get_pde.__wrapped__(name)` builds an unshared one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .core import DeclarationError, Dependent, PotentialDef, Problem
from .calculus import Characteristic
from .parsing import parse_expr
from .symmetry import Pde, make_pde
from .backlund import declare_potential, phi_characteristic


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    doc: str
    problem: Problem
    pde: Pde | None  # None for a CLI problem declared without --f
    characteristics: tuple[Characteristic, ...]
    structure_basis: tuple[str, ...] = ()

    def characteristic(self, name: str) -> Characteristic:
        for c in self.characteristics:
            if c.name == name:
                return c
        raise DeclarationError(f"{self.name}: no characteristic {name!r}")


@cache
def _load_raw() -> dict:
    """The parsed data file, read once per process; no caller changes it."""
    return json.loads(
        resources.files("jetsym.data").joinpath("catalog.json").read_text())


# the catalog's PDEs, in the data file's order
CATALOG_NAMES = tuple(_load_raw()["pdes"])


def _build_entry(name: str, raw: dict) -> CatalogEntry:
    dep_raw = raw["dependent"]
    dep = Dependent(dep_raw["name"], dep_raw.get("kind", "scalar"),
                    dep_raw.get("invertible", False))
    problem = Problem(coords=raw["coordinates"], dependent=dep,
                     constants=raw.get("constants", ()),
                     matrices=[(m["name"], m.get("invertible", False))
                               for m in raw.get("matrices", [])])
    f = parse_expr(raw["f"], problem)
    pde = make_pde(name, f, parse_expr(raw["solved"]["leading"], problem),
                   parse_expr(raw["solved"]["rhs"], problem), problem)

    for praw in raw.get("potentials", []):
        pdef = PotentialDef(praw["name"],
                            {c: parse_expr(txt, problem)
                             for c, txt in praw["derivatives"].items()})
        declare_potential(pdef, pde, problem)

    chars = []
    for craw in raw.get("characteristics", []):
        if "phi" in craw:
            q_expr = phi_characteristic(parse_expr(craw["phi"], problem),
                                        problem).q
        else:
            q_expr = parse_expr(craw["q"], problem)
        chars.append(Characteristic(craw["name"], q_expr, dep,
                                    craw.get("doc", "")))

    return CatalogEntry(name, raw.get("doc", ""), problem, pde, tuple(chars),
                        tuple(raw.get("structure", {}).get("basis", ())))


@cache
def get_pde(name: str) -> CatalogEntry:
    """The entry of a catalog PDE, built once per process; an unknown name
    raises on every call (`functools.cache` keeps no exception)."""
    raw = _load_raw()["pdes"]
    if name not in raw:
        raise DeclarationError(
            f"unknown catalog PDE {name!r}; known: {', '.join(CATALOG_NAMES)}")
    return _build_entry(name, raw[name])


def load_catalog() -> dict[str, CatalogEntry]:
    return {name: get_pde(name) for name in CATALOG_NAMES}
