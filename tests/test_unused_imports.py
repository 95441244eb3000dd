"""No module of the engine imports a name it does not use, or a module
from outside jetsym and the standard library; none holds an `assert`, an
import below its top level or a second module-level name for a function.

No linter is a dependency, so the check walks each module's syntax tree:
every name bound by an import must occur as a name elsewhere in the module,
in code or in a string annotation.  `__init__.py` imports to re-export and
is skipped there, as are `from __future__` imports.  Every module imported
must be jetsym's own or in `sys.stdlib_module_names`: the engine has no
runtime dependency.  Every import is a statement of the module itself,
not of a function in it, so a module's dependencies show at its top.  An
`assert` vanishes under `python -O`, so a check that must hold raises
instead; and `name = function` at module level gives one function two
names, where one is enough.

Every name the package exports is used outside the module that defines
it: by another engine module, by the benchmark or by a tool, or it is on
a short keep-list with the reason it is public.  So is every public
method, property and class constant of an exported class, read as an
attribute name.  A function that only tests call belongs in the tests."""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jetsym"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.update(m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                            if isinstance(m, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import Optional, Union\n"
              "def f(a: 'Optional[int]') -> int:\n"
              "    return sys.maxsize\n")
    assert unused_imports(source) == ["Union (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def foreign_imports(source: str) -> list[str]:
    """The modules imported that are neither jetsym's nor the standard
    library's."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return sorted(m for m in modules if m.split(".")[0] != "jetsym"
                  and m.split(".")[0] not in sys.stdlib_module_names)


def test_checker_sees_foreign_modules():
    source = ("from __future__ import annotations\n"
              "import os.path, click\n"
              "from yaml import safe_load\n"
              "from . import core\n"
              "from .core import Expr\n"
              "from jetsym.core import Expr\n")
    assert foreign_imports(source) == ["click", "yaml"]


ALL_MODULES = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize("path", ALL_MODULES,
                         ids=[p.stem for p in ALL_MODULES])
def test_only_standard_library_imports(path):
    assert foreign_imports(path.read_text()) == []


def asserts(source: str) -> list[int]:
    """The lines of the module's `assert` statements."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Assert))


def function_aliases(source: str) -> list[str]:
    """The module-level assignments that bind a name to a function the
    module defines or imports under another name."""
    tree = ast.parse(source)
    functions = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            functions.update(alias.asname or alias.name
                             for alias in node.names)
    return [f"{ast.unparse(node).strip()} (line {node.lineno})"
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Name)
            and node.value.id in functions]


def test_checker_sees_asserts_and_function_aliases():
    source = ("from .core import nf\n"
              "def f(x):\n"
              "    assert x\n"
              "    return x\n"
              "g = f\n"
              "h: object = nf\n"
              "f.main = lambda *a: f(*a)\n"
              "N = 3\n"
              "M = N\n"
              "assert N\n")
    assert asserts(source) == [3, 10]
    assert function_aliases(source) == ["g = f (line 5)",
                                        "h: object = nf (line 6)"]


@pytest.mark.parametrize("path", ALL_MODULES,
                         ids=[p.stem for p in ALL_MODULES])
def test_no_asserts_and_no_function_aliases(path):
    source = path.read_text()
    assert asserts(source) == []
    assert function_aliases(source) == []


def nested_imports(source: str) -> list[int]:
    """The lines of the imports that are not statements of the module
    itself: one inside a function or class hides a dependency."""
    tree = ast.parse(source)
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, (ast.Import, ast.ImportFrom))
                  and n not in tree.body)


def test_checker_sees_nested_imports():
    source = ("import re\n"
              "from .core import nf\n"
              "def f(x):\n"
              "    from .calculus import total_derivative\n"
              "    return total_derivative(x)\n"
              "class C:\n"
              "    import json\n"
              "if re:\n"
              "    import os\n")
    assert nested_imports(source) == [4, 7, 9]


@pytest.mark.parametrize("path", ALL_MODULES,
                         ids=[p.stem for p in ALL_MODULES])
def test_imports_only_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """The underscore names a module imports from a jetsym module."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and (
                      node.level or node.module.split(".")[0] == "jetsym")
                  for alias in node.names if alias.name.startswith("_"))


def test_checker_sees_private_engine_imports():
    source = ("from __future__ import annotations\n"
              "from functools import _lru_cache_wrapper\n"
              "from .core import _flat, add\n"
              "from . import _helpers\n"
              "from jetsym.backlund import _bt_pair\n")
    assert private_imports(source) == ["_bt_pair", "_flat", "_helpers"]


@pytest.mark.parametrize("name", ["cli", "catalog"])
def test_the_front_ends_import_no_private_engine_name(name):
    """The CLI and the catalog reach the engine through its public names
    only, as a library caller does."""
    assert private_imports((SRC / f"{name}.py").read_text()) == []


ROOT = SRC.parent.parent
CALLERS = sorted(p for d in ("perfbench", "tools")
                 for p in (ROOT / d).rglob("*.py"))

#: exported names that no other engine module, benchmark file or tool
#: uses, and why each is public
KEEP = {
    "BtPair": "the type bt_rhs returns",
    "CatalogEntry": "the type get_pde returns",
    "ParseError": "the error parse_expr and parse_operator raise",
    "SCALAR": "with MATRIX, a value of Dependent.kind",
    "SymmetryReport.raw": "the report's tree of D_Q F, documented in the "
                          "README",
    "SymmetryReport.remainder": "the report's tree of the remainder mod F, "
                                "documented in the README",
    "Verdict": "the type of SymmetryReport.verdict, compared against",
    "Verdict.NOT_SYMMETRY": "a value of SymmetryReport.verdict",
    "Verdict.SYMMETRY": "a value of SymmetryReport.verdict",
    "bracket_characteristic": "the Lie bracket of characteristics as one "
                              "(Example 5.1); the CLI takes bracket_nf",
    "left_current": "the chiral current inv(g)*g_i, the first letters of "
                    "bt_apply's basis",
}


def exports(source: str) -> dict[str, str]:
    """The names a package `__init__` imports from its own modules, each
    with the module it comes from."""
    return {alias.asname or alias.name: node.module
            for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def names_used(source: str) -> set[str]:
    """The names a module reads, reads as an attribute or imports from a
    module."""
    used = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            used.update(alias.name for alias in n.names)
    return used


def members(source: str, cls: str) -> list[str]:
    """The public methods, properties and class constants of the class
    `cls` that the module defines: the names its body binds by `def` or by
    plain assignment, other than dunder and private names.  A dataclass
    field is annotated, and is not one."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append(item.name)
                elif isinstance(item, ast.Assign):
                    out.extend(t.id for t in item.targets
                               if isinstance(t, ast.Name))
    return [m for m in out if not m.startswith("_")]


def attributes_read(source: str) -> set[str]:
    """The names a module reads as an attribute."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute)}


def unused_exports(init: str, modules: dict[str, str], callers: list[str],
                   keep) -> list[str]:
    """The names `init` exports, and the members ("Class.member") of the
    classes it exports, that are on no keep-list and that neither a
    module other than the defining one (modules: name -> source) nor any
    caller source uses; a member counts as used where it is read as an
    attribute."""
    used = {m: names_used(source) for m, source in modules.items()}
    read = {m: attributes_read(source) for m, source in modules.items()}
    outside = set().union(*map(names_used, callers))
    read_outside = set().union(*map(attributes_read, callers))
    out = []
    for name, module in exports(init).items():
        if name not in keep and name not in outside \
                and not any(name in names for m, names in used.items()
                            if m != module):
            out.append(name)
        for member in members(modules[module], name):
            if f"{name}.{member}" not in keep \
                    and member not in read_outside \
                    and not any(member in names for m, names in read.items()
                                if m != module):
                out.append(f"{name}.{member}")
    return sorted(out)


def test_checker_sees_test_only_exports():
    init = ("from .core import add, neg, Op\n"
            "from .calc import total, scale, Kept\n")
    modules = {"core": "def add(*a): pass\n"
                       "def neg(e): return add(e)\n"
                       "class Op:\n"
                       "    UNIT = 1\n"
                       "    kept = 2\n"
                       "    terms: tuple\n"
                       "    def __init__(self): self._n = self.UNIT\n"
                       "    def apply(self, e): return self.terms\n"
                       "    def _private(self): pass\n"
                       "    @property\n"
                       "    def size(self): return 0\n"
                       "    def columns(self): return self.size\n",
               "calc": "from .core import add\n"
                       "def total(e): return add(e).columns()\n"
                       "def scale(e): pass\n"
                       "class Kept: pass\n"}
    callers = ["import jetsym\njetsym.total(1)\njetsym.Op().apply\n"]
    keep = {"Kept": "public type", "Op.kept": "documented"}
    assert unused_exports(init, modules, callers, keep) \
        == ["Op.UNIT", "Op.size", "neg", "scale"]


def test_every_export_has_a_caller_outside_the_tests():
    init = (SRC / "__init__.py").read_text()
    modules = {p.stem: p.read_text() for p in MODULES}
    exported = exports(init)
    for name in KEEP:  # every entry names an export or one of its members
        cls, _, member = name.partition(".")
        assert cls in exported, name
        assert not member or member in members(modules[exported[cls]], cls)
    callers = [p.read_text() for p in CALLERS]
    assert unused_exports(init, modules, callers, KEEP) == []
