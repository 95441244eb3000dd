"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest -s tests/test_acceptance.py  to see the per-criterion lines
on a passing run; on failure the line is printed before the traceback.
"""
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from jetsym import (Characteristic, Rat, Verdict, bracket_characteristic,
                    char_derivative, check_symmetry, certify_operator,
                    commutator, find_operator, inverse, is_zero, normal_form,
                    structure_constants, total_derivative)
from jetsym.backlund import (PotentialError, bt_apply, chiral_phi_condition,
                             declare_potential, left_current,
                             phi_characteristic)
from jetsym.catalog import get_pde
from jetsym.core import Dependent, PotentialDef, Problem
from jetsym.parsing import parse_expr, parse_operator

from helpers import (fresh_copy, matrix_problem, random_characteristic,
                     random_expr, reference_prolongation, same_operator,
                     scalar_problem)

SP = scalar_problem()
MP = matrix_problem()
N_PER_FLAVOR = 100  # x 2 flavors = 200 cases per property
MAX_DEPTH = 6


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL - {desc}")
        raise
    print(f"criterion {n}: PASS - {desc}")


def _cases(seed, n=N_PER_FLAVOR):
    for i in range(n):
        yield Random((seed << 20) + i)


def _both_flavors():
    yield SP
    yield MP


# -------------------------------------------------------------------------

def test_criterion_1_micro_examples():
    with criterion(1, "worked micro-examples match exactly"):
        x, t = SP.coordinate("x"), SP.coordinate("t")
        ux = SP.jet("x")
        got = total_derivative(x * t * ux * ux, SP.coordinate("t"), SP)
        uxt = SP.jet("xt")
        want = x * ux * ux + x * t * (uxt * ux + ux * uxt)
        assert got == normal_form(want)

        q = MP.declared("a")  # opaque matrix proxy for an arbitrary Q
        Q = Characteristic("Q", q, MP.dependent)
        a, b = MP.declared("a"), MP.declared("b")
        u, mux, mut = MP.u, MP.jet("x"), MP.jet("t")
        got = char_derivative(a * u * u * b + commutator(mux, mut), Q, MP)
        dxq = total_derivative(q, MP.coordinate("x"), MP)
        dtq = total_derivative(q, MP.coordinate("t"), MP)
        want = (a * (q * u + u * q) * b
                + commutator(dxq, mut) + commutator(mux, dtq))
        assert got == normal_form(want)


FIXTURES = {
    "sine-gordon": [("u_x", "D_x*F")],
    "heat": [("u_x", "D_x*F"), ("u_t", "D_t*F"), ("u", "F")],
    "burgers": [("u_x", "D_x*F"), ("u_t", "D_t*F"), ("1", "0")],
    "kdv": [("u_x", "D_x*F"), ("u_t", "D_t*F"), ("t*u_x - 1", "t*D_x*F"),
            ("x*u_x + 3*t*u_t + 2*u", "5*F + x*D_x*F + 3*t*D_t*F")],
}
CHIRAL_FIXTURES = [
    ("inv(g)*g_x", "D_x*F"),
    ("inv(g)*g_t", "D_t*F"),
    ("x*inv(g)*g_x + t*inv(g)*g_t", "2*F + x*D_x*F + t*D_t*F"),
    ("M", "F*M - M*F"),
]


def test_criterion_2_certificates():
    with criterion(2, "catalog symmetries: given and searched certificates"):
        for name, rows in FIXTURES.items():
            entry = get_pde(name)
            p, pde = entry.problem, entry.pde
            for q_txt, lhat_txt in rows:
                Q = Characteristic("Q", parse_expr(q_txt, p), p.dependent)
                rep = check_symmetry(pde, Q, p)
                assert rep.verdict is Verdict.SYMMETRY, (name, q_txt)
                given = parse_operator(lhat_txt, p)
                assert certify_operator(pde, Q, given, p), (name, q_txt)
                found = find_operator(pde, Q, p)
                assert found is not None, (name, q_txt)
                assert certify_operator(pde, Q, found, p), (name, q_txt)
        entry = get_pde("chiral")
        p, pde = entry.problem, entry.pde
        for phi_txt, lhat_txt in CHIRAL_FIXTURES:
            Q = phi_characteristic(parse_expr(phi_txt, p), p)
            given = parse_operator(lhat_txt, p)
            assert certify_operator(pde, Q, given, p), phi_txt
            found = find_operator(pde, Q, p)
            assert found is not None, phi_txt
            assert certify_operator(pde, Q, found, p), phi_txt


def test_criterion_3_wave_derived_certificate():
    with criterion(3, "wave scaling symmetry with derived certificate"):
        entry = get_pde("wave")
        p, pde = entry.problem, entry.pde
        Q = Characteristic("Q", parse_expr("x*u_x + t*u_t", p), p.dependent)
        rep = check_symmetry(pde, Q, p)
        assert rep.verdict is Verdict.SYMMETRY
        found = find_operator(pde, Q, p)
        assert found is not None
        want = parse_operator("2*F + x*D_x*F + t*D_t*F", p)
        assert same_operator(found, want)
        assert certify_operator(pde, Q, found, p)


def test_criterion_4_structure_constants():
    with criterion(4, "structure constants exact for kdv and chiral"):
        kdv = get_pde("kdv")
        basis = [kdv.characteristic(n).q for n in kdv.structure_basis]
        sc = structure_constants(kdv.pde, basis, kdv.problem)
        n = len(basis)
        assert all(sc[0, 1, k] == 0 for k in range(n))
        assert sc[1, 2, 0] == Fraction(-1)
        assert all(sc[1, 2, k] == 0 for k in range(1, n))

        ch = get_pde("chiral")
        basis = [ch.characteristic(n).q for n in ch.structure_basis]
        sc = structure_constants(ch.pde, basis, ch.problem)
        n = len(basis)
        assert all(sc[0, 1, k] == 0 for k in range(n))
        assert sc[0, 2, 0] == Fraction(-1)
        assert all(sc[0, 2, k] == 0 for k in range(n) if k != 0)
        assert sc[1, 2, 1] == Fraction(-1)
        assert all(sc[1, 2, k] == 0 for k in range(n) if k != 1)


def test_criterion_5_chiral_potential_and_bt():
    with criterion(5, "chiral identity, potential compatibility, BT fixtures"):
        ch = get_pde("chiral")
        p, pde = ch.problem, ch.pde
        x, t = p.coordinates
        ax, at = left_current(p, x), left_current(p, t)
        ident = (total_derivative(at, x, p) - total_derivative(ax, t, p)
                 + commutator(ax, at))
        assert is_zero(ident)  # no mod-F reduction involved

        p2 = Problem(coords=["x", "t"],
                     dependent=Dependent("g", "matrix", True))
        from jetsym import make_pde
        f2 = parse_expr("D(inv(g)*g_x, x) + D(inv(g)*g_t, t)", p2)
        pde2 = make_pde("chiral", f2, p2.jet("tt"),
                        parse_expr("g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx",
                                   p2), p2)
        declare_potential(
            PotentialDef("X", {"x": parse_expr("inv(g)*g_t", p2),
                               "t": parse_expr("-(inv(g)*g_x)", p2)}),
            pde2, p2)

        from jetsym import reduce_mod_pde
        for phi_txt, want_txt in ((
                "M", "comm(X, M)"), ("inv(g)*g_x", "inv(g)*g_t")):
            got = bt_apply(parse_expr(phi_txt, p), pde, p)
            assert got is not None, phi_txt
            want = normal_form(parse_expr(want_txt, p))
            assert got == want, phi_txt
            cond = chiral_phi_condition(got, pde, p)
            assert is_zero(reduce_mod_pde(cond, pde, p)), phi_txt


def test_criterion_6_property_suites():
    with criterion(6, "randomized algebraic-law suites, 200 cases each"):
        for p in _both_flavors():
            x, t = p.coordinates
            # total derivatives commute
            for rng in _cases(1):
                e = random_expr(rng, p, rng.randint(0, MAX_DEPTH))
                ab = total_derivative(total_derivative(e, x, p), t, p)
                ba = total_derivative(total_derivative(e, t, p), x, p)
                assert ab == ba
            # characteristic derivative commutes with totals
            for rng in _cases(2):
                e = random_expr(rng, p, rng.randint(0, 4))
                Q = random_characteristic(rng, p)
                c = x if rng.random() < 0.5 else t
                lhs = char_derivative(total_derivative(e, c, p), Q, p)
                rhs = total_derivative(char_derivative(e, Q, p), c, p)
                assert lhs == rhs
            # Leibniz for both derivations
            for rng in _cases(3):
                a = random_expr(rng, p, rng.randint(0, 3))
                b = random_expr(rng, p, rng.randint(0, 3))
                Q = random_characteristic(rng, p)
                assert is_zero(total_derivative(a * b, x, p)
                               - total_derivative(a, x, p) * b
                               - a * total_derivative(b, x, p))
                assert is_zero(char_derivative(a * b, Q, p)
                               - char_derivative(a, Q, p) * b
                               - a * char_derivative(b, Q, p))
            # commutator compatibility
            for rng in _cases(4):
                a = random_expr(rng, p, rng.randint(0, 3))
                b = random_expr(rng, p, rng.randint(0, 3))
                Q = random_characteristic(rng, p)
                assert is_zero(total_derivative(commutator(a, b), x, p)
                               - commutator(total_derivative(a, x, p), b)
                               - commutator(a, total_derivative(b, x, p)))
                assert is_zero(char_derivative(commutator(a, b), Q, p)
                               - commutator(char_derivative(a, Q, p), b)
                               - commutator(a, char_derivative(b, Q, p)))
            # linearity in the characteristic
            for rng in _cases(5):
                e = random_expr(rng, p, rng.randint(0, 4))
                q1 = random_characteristic(rng, p)
                q2 = random_characteristic(rng, p)
                s = Characteristic("s", q1.q + q2.q, p.dependent)
                assert is_zero(char_derivative(e, s, p)
                               - char_derivative(e, q1, p)
                               - char_derivative(e, q2, p))
                lam = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                scaled = Characteristic("l", Rat(lam) * q1.q, p.dependent)
                assert is_zero(char_derivative(e, scaled, p)
                               - Rat(lam) * char_derivative(e, q1, p))
            # bracket antisymmetry and Jacobi
            for rng in _cases(6):
                q1 = random_characteristic(rng, p)
                q2 = random_characteristic(rng, p)
                q3 = random_characteristic(rng, p)
                assert is_zero(bracket_characteristic(q1, q2, p).q
                               + bracket_characteristic(q2, q1, p).q)

                def br(a, b):
                    return bracket_characteristic(a, b, p)
                assert is_zero(br(q1, br(q2, q3)).q + br(q2, br(q3, q1)).q
                               + br(q3, br(q1, q2)).q)
            # normal form idempotence and determinism
            for rng in _cases(7):
                e = random_expr(rng, p, rng.randint(0, MAX_DEPTH))
                n1 = normal_form(e)
                assert n1 == normal_form(fresh_copy(n1))
                assert n1 == normal_form(e)


def test_criterion_7_oracle_equivalence():
    with criterion(7, "scalar prolongation oracle agrees, 200 cases"):
        for rng in _cases(8, n=200):
            e = random_expr(rng, SP, rng.randint(0, 4), scalar_only=True)
            Q = random_characteristic(rng, SP)
            assert (char_derivative(e, Q, SP)
                    == reference_prolongation(e, Q, SP))


def test_criterion_8_negative_controls():
    with criterion(8, "negative controls rejected"):
        sg = get_pde("sine-gordon")
        Q = Characteristic("Q", sg.problem.u, sg.problem.dependent)
        assert check_symmetry(sg.pde, Q, sg.problem).verdict \
            is Verdict.NOT_SYMMETRY

        heat = get_pde("heat")
        Q = Characteristic("Q", parse_expr("x*u_t", heat.problem),
                           heat.problem.dependent)
        assert check_symmetry(heat.pde, Q, heat.problem).verdict \
            is Verdict.NOT_SYMMETRY
        assert find_operator(heat.pde, Q, heat.problem) is None

        p2 = Problem(coords=["x", "t"],
                     dependent=Dependent("g", "matrix", True))
        from jetsym import make_pde
        f2 = parse_expr("D(inv(g)*g_x, x) + D(inv(g)*g_t, t)", p2)
        pde2 = make_pde("chiral", f2, p2.jet("tt"),
                        parse_expr("g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx",
                                   p2), p2)
        flipped = PotentialDef("X", {"x": parse_expr("inv(g)*g_t", p2),
                                     "t": parse_expr("inv(g)*g_x", p2)})
        try:
            declare_potential(flipped, pde2, p2)
        except PotentialError as exc:
            assert not is_zero(exc.residual)
        else:
            raise AssertionError("sign-flipped potential was accepted")
