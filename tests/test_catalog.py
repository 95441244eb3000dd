import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetsym
from jetsym import Verdict, check_symmetry
from jetsym.catalog import CATALOG_NAMES, get_pde, load_catalog, validate_entry
from jetsym.parsing import parse_expr
from jetsym.printing import render
from jetsym.core import JetsymError


def test_catalog_names():
    assert set(CATALOG_NAMES) == {"sine-gordon", "heat", "burgers", "wave",
                                  "kdv", "chiral"}


@pytest.mark.parametrize("name", sorted(CATALOG_NAMES))
def test_entry_validates(name):
    validate_entry(get_pde(name))


def test_catalog_needs_no_yaml():
    """With PyYAML unimportable, the CLI imports and every catalog entry
    loads and validates: the catalog is JSON read by the standard library."""
    script = ("import sys; sys.modules['yaml'] = None\n"
              "import jetsym.cli\n"
              "from jetsym.catalog import load_catalog, validate_entry\n"
              "for entry in load_catalog().values():\n"
              "    validate_entry(entry)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(jetsym.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_a_failed_bt_fixture_names_its_seed_as_it_is_written():
    ch = get_pde("chiral")
    phi = ch.bt_fixtures[1][0]
    wrong = dataclasses.replace(ch, characteristics=(), structure_basis=(),
                                bt_fixtures=((phi, phi),))
    with pytest.raises(AssertionError) as exc:
        validate_entry(wrong)
    assert str(exc.value) == ("chiral: BT fixture mismatch for "
                              f"{render(phi, ch.problem)}")
    assert render(phi, ch.problem) == "inv(g)*g_x"


def test_get_pde_unknown():
    with pytest.raises(JetsymError):
        get_pde("laplace")


def test_get_pde_is_cached():
    assert get_pde("heat") is get_pde("heat")


def test_load_catalog_returns_all():
    entries = load_catalog()
    assert sorted(entries) == sorted(CATALOG_NAMES)
    assert all(entries[n].name == n for n in entries)


def test_every_catalog_characteristic_has_doc():
    for entry in load_catalog().values():
        for c in entry.characteristics:
            assert c.doc


def test_wave_extra_symmetries():
    wave = get_pde("wave")
    p = wave.problem
    for text in ("u_x", "u_t", "u", "1", "x*u_x + t*u_t"):
        q = parse_expr(text, p)
        from jetsym import Characteristic
        rep = check_symmetry(wave.pde, Characteristic("q", q, p.dependent), p)
        assert rep.verdict is Verdict.SYMMETRY, text


def test_burgers_negative_control():
    from jetsym import Characteristic
    b = get_pde("burgers")
    p = b.problem
    rep = check_symmetry(b.pde, Characteristic("q", p.u, p.dependent), p)
    assert rep.verdict is Verdict.NOT_SYMMETRY


def test_chiral_characteristics_wrap_phi():
    from jetsym import is_zero, normal_form
    ch = get_pde("chiral")
    p = ch.problem
    for c in ch.characteristics:
        assert c.phi is not None
        assert is_zero(normal_form(c.q.q) - normal_form(p.u * c.phi))


def test_scalar_entries_have_no_phi():
    for name in ("heat", "kdv", "burgers", "wave", "sine-gordon"):
        for c in get_pde(name).characteristics:
            assert c.phi is None
