"""No module of the engine imports a name it does not use, or a module
from outside jetsym and the standard library.

No linter is a dependency, so the check walks each module's syntax tree:
every name bound by an import must occur as a name elsewhere in the module,
in code or in a string annotation.  `__init__.py` imports to re-export and
is skipped there, as are `from __future__` imports.  Every module imported
must be jetsym's own or in `sys.stdlib_module_names`: the engine has no
runtime dependency."""
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
