import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
import jetsym
from jetsym import Characteristic, Verdict, check_symmetry
from jetsym.catalog import CATALOG_NAMES, _load_raw, get_pde, load_catalog
from jetsym.parsing import parse_expr, parse_operator
from jetsym.printing import render
from jetsym.core import DeclarationError, JetsymError

from helpers import catalog_fixtures, validate_entry


def test_catalog_names():
    assert set(CATALOG_NAMES) == {"sine-gordon", "heat", "burgers", "wave",
                                  "kdv", "chiral"}


def fixture_counts(name):
    """How many certificates, structure claims and Backlund fixtures the
    data file gives the entry."""
    raw = _load_raw()["pdes"][name]
    return (sum("certificate" in c for c in raw.get("characteristics", [])),
            len(raw.get("structure", {}).get("expected", [])),
            len(raw.get("backlund", [])))


@pytest.mark.parametrize("name", sorted(CATALOG_NAMES))
def test_entry_validates(name):
    """Every fixture the data file gives the entry is checked, and every
    characteristic has a certificate."""
    entry = get_pde(name)
    counts = validate_entry(entry)
    assert counts == fixture_counts(name)
    assert counts[0] == len(entry.characteristics)


def test_the_data_file_holds_every_fixture():
    """21 certificates, 5 structure claims and 2 Backlund fixtures, which
    test_entry_validates finds checked."""
    totals = [sum(c) for c in zip(*map(fixture_counts, CATALOG_NAMES))]
    assert totals == [21, 5, 2]


def test_catalog_needs_no_yaml():
    """With PyYAML unimportable, the CLI imports and every catalog entry
    loads and validates: the catalog is JSON read by the standard library."""
    script = ("import sys; sys.modules['yaml'] = None\n"
              "import jetsym.cli\n"
              "from jetsym.catalog import load_catalog\n"
              "from helpers import validate_entry\n"
              "for entry in load_catalog().values():\n"
              "    validate_entry(entry)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(jetsym.__file__).parents[1]), str(Path(__file__).parent)])}
    r = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def _without_characteristics(entry):
    return dataclasses.replace(entry, characteristics=(), structure_basis=())


def test_a_failed_bt_fixture_names_its_seed_as_it_is_written():
    ch = get_pde("chiral")
    fx = catalog_fixtures(ch)
    phi = fx.backlund[1][0]
    with pytest.raises(AssertionError) as exc:
        validate_entry(_without_characteristics(ch),
                       fx._replace(backlund=((phi, phi),)))
    assert str(exc.value) == ("chiral: BT fixture mismatch for "
                              f"{render(phi, ch.problem)}")
    assert render(phi, ch.problem) == "inv(g)*g_x"


def _kdv_characteristic(name, make):
    """kdv with its characteristic `name` replaced by make(problem), and
    the data file's fixtures."""
    kdv = get_pde("kdv")
    q = make(kdv.problem)
    return dataclasses.replace(kdv, characteristics=tuple(
        q if c.name == name else c
        for c in kdv.characteristics)), catalog_fixtures(kdv)


def _kdv_fixtures(**changes):
    """kdv with its fixtures' fields replaced, each new value made from the
    problem."""
    kdv = get_pde("kdv")
    fx = catalog_fixtures(kdv)
    return kdv, fx._replace(**{k: make(kdv.problem, fx)
                               for k, make in changes.items()})


def _chiral_image_failing_its_check(monkeypatch):
    """A fixture whose image fails the symmetry condition.  An image that
    `bt_apply` integrates certifies its seed, so the check is reached
    through a stand-in for `bt_apply` that returns the fixture's image."""
    ch = get_pde("chiral")
    g_x = ch.problem.jet("x")
    monkeypatch.setattr(helpers, "bt_apply", lambda phi, pde, problem: g_x)
    fx = catalog_fixtures(ch)
    return (_without_characteristics(ch),
            fx._replace(backlund=((fx.backlund[0][0], g_x),)))


@pytest.mark.parametrize("doctor, message", [
    (lambda mp: _kdv_characteristic(
        "q1", lambda p: Characteristic("q1", p.u, p.dependent)),
     "kdv/q1: not a symmetry"),
    (lambda mp: _kdv_fixtures(certificates=lambda p, fx: {
        **fx.certificates, "q3": parse_operator("D_x*F", p)}),
     "kdv/q3: certificate does not certify"),
    (lambda mp: _kdv_fixtures(structure_claims=lambda p, fx: (
        ("q2", "q3", {"q1": Fraction(1)}),)),
     "kdv: c[q2][q3]^q1 != 1"),
    (_chiral_image_failing_its_check,
     "chiral: BT image fails the symmetry condition"),
], ids=["not-a-symmetry", "certificate", "structure-constant", "bt-image"])
def test_validate_entry_names_each_failed_check(monkeypatch, doctor, message):
    with pytest.raises(AssertionError) as exc:
        validate_entry(*doctor(monkeypatch))
    assert str(exc.value) == message


def test_get_pde_unknown():
    for _ in range(2):  # the cache keeps no exception: each call raises
        with pytest.raises(JetsymError):
            get_pde("laplace")


def test_an_unknown_characteristic_name_raises():
    with pytest.raises(DeclarationError,
                       match="^kdv: no characteristic 'nope'$"):
        get_pde("kdv").characteristic("nope")


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
    phis = catalog_fixtures(ch).phis
    for c in ch.characteristics:
        assert c.name in phis
        assert is_zero(normal_form(c.q) - normal_form(p.u * phis[c.name]))


def test_scalar_entries_have_no_phi():
    for name in ("heat", "kdv", "burgers", "wave", "sine-gordon"):
        assert catalog_fixtures(get_pde(name)).phis == {}
