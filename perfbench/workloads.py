"""Workload generation: the operations of one round, made from a seed.

This module does not import jetsym.  It holds the benchmark's own copy of
every equation it asks about and of every generator, certificate and
non-symmetry it uses, so that the oracles can check jetsym's answers against
a description made apart from the engine.

Every run repeats one round of operations until its time is up.  A round is
built from the seed alone; its make-up (how many operations of each kind, on
which equation, how many generators in each combination, which higher
symmetry) is fixed, so the share of failing operations is the same for every
seed and every run length, and the seed moves the cost of a round little.
Each round holds an odd number of operations, so that the median operation
of a run is one operation of the round, not the mean of two neighbours.

Sources of the generators and non-symmetries:

* point symmetries of heat, wave, KdV, Burgers and sine-Gordon: Olver,
  *Applications of Lie Groups to Differential Equations*, section 2.4 and
  chapter 5 (characteristic form of the translations, scalings, Galilean
  and Lorentz boosts); Burgers' through the Cole-Hopf map below;
* the 5th-order KdV flow: the KdV hierarchy (Lenard recursion operator),
  Olver chapter 5, rescaled to u_t + u*u_x + u_xxx = 0;
* Burgers: the Cole-Hopf map u = log(w) sends the heat symmetries w_xxx,
  w_xxxx and the solution w = x to the characteristics below;
* sine-Gordon: u_xxx + 1/2*u_x^3 is the potential mKdV flow, the first
  higher symmetry of u_xt = sin(u) (and its x <-> t mirror);
* chiral field: left multiplication g -> (1 + aM) g, the rotation of (x, t)
  and the nonlocal image comm(X, M) of M under the Backlund map;
* non-symmetries: each perturbation P below gives a nonzero reduced
  Delta_P F (the oracles recompute it), and symmetries form a vector space,
  so symmetry + c*P with c != 0 is not a symmetry.
"""
from __future__ import annotations

import random
from fractions import Fraction

# Scalar equations, written as F, the leading jet and its right-hand side.
SCALAR_PDES = {
    "heat": {"f": "u_t - u_xx", "lead": "u_t", "rhs": "u_xx"},
    "burgers": {"f": "u_t - u_xx - u_x*u_x", "lead": "u_t",
                "rhs": "u_xx + u_x*u_x"},
    "kdv": {"f": "u_t + u*u_x + u_xxx", "lead": "u_t",
            "rhs": "-u*u_x - u_xxx"},
    "wave": {"f": "u_tt - c*c*u_xx", "lead": "u_tt", "rhs": "c*c*u_xx"},
    "sine-gordon": {"f": "u_xt - sin(u)", "lead": "u_xt", "rhs": "sin(u)"},
}

# The chiral field equation (inv(g)*g_x)_x + (inv(g)*g_t)_t = 0, solved for
# g_tt, with the potential X of the catalog (X_x = A_t, X_t = -A_x).
CHIRAL = {
    "f": "D(inv(g)*g_x, x) + D(inv(g)*g_t, t)",
    "lead": "g_tt",
    "rhs": "g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx",
    "potential": ("X", "inv(g)*g_t", "-(inv(g)*g_x)"),
}

# A certificate term (coefficient, left factor, derivative coordinates,
# right factor) stands for  coefficient * left * D_J F * right.
def _t(c, left="", derivs=(), right=""):
    return (Fraction(c), left, tuple(derivs), right)


# Point symmetries: generator text -> certificate terms.
POINT = {
    "heat": {
        "u_x": [_t(1, "", "x")], "u_t": [_t(1, "", "t")], "u": [_t(1)],
        "x*u_x + 2*t*u_t": [_t(2), _t(1, "x", "x"), _t(2, "t", "t")],
        "2*t*u_x + x*u": [_t(1, "x"), _t(2, "t", "x")],
    },
    "burgers": {
        "u_x": [_t(1, "", "x")], "u_t": [_t(1, "", "t")], "1": [],
        "2*t*u_x + x": [_t(2, "t", "x")],
        "x*u_x + 2*t*u_t": [_t(2), _t(1, "x", "x"), _t(2, "t", "t")],
    },
    "kdv": {
        "u_x": [_t(1, "", "x")], "u_t": [_t(1, "", "t")],
        "t*u_x - 1": [_t(1, "t", "x")],
        "x*u_x + 3*t*u_t + 2*u": [_t(5), _t(1, "x", "x"), _t(3, "t", "t")],
    },
    "wave": {
        "u_x": [_t(1, "", "x")], "u_t": [_t(1, "", "t")], "u": [_t(1)],
        "1": [], "x*u_x + t*u_t": [_t(2), _t(1, "x", "x"), _t(1, "t", "t")],
        "c*c*t*u_x + x*u_t": [_t(1, "c*c*t", "x"), _t(1, "x", "t")],
    },
    "sine-gordon": {
        "u_x": [_t(1, "", "x")], "u_t": [_t(1, "", "t")],
        "x*u_x - t*u_t": [_t(1, "x", "x"), _t(-1, "t", "t")],
    },
    # chiral generators are Phi-forms: Q = g*Phi
    "chiral": {
        "inv(g)*g_x": [_t(1, "", "x")], "inv(g)*g_t": [_t(1, "", "t")],
        "x*inv(g)*g_x + t*inv(g)*g_t":
            [_t(2), _t(1, "x", "x"), _t(1, "t", "t")],
        "M": [_t(1, "", (), "M"), _t(-1, "M")],
    },
}

# Higher (generalized or nonlocal) symmetries.  For the linear equations
# they are products of point-symmetry operators applied to u: D_J u, the
# squared Galilean boost (x + 2t D_x)^2 u of heat and the squared Lorentz
# boost (c^2 t D_x + x D_t)^2 u of the wave equation.
HIGHER = {
    "heat": ["u_xxxx", "x*x*u + 2*t*u + 4*t*x*u_x + 4*t*t*u_xx"],
    "burgers": ["u_xxx + 3*u_x*u_xx + u_x*u_x*u_x",
                "u_xxxx + 4*u_x*u_xxx + 3*u_xx*u_xx + 6*u_x*u_x*u_xx"
                " + u_x*u_x*u_x*u_x",
                "x*exp(-u)"],
    "kdv": ["u_xxxxx + 5/3*u*u_xxx + 10/3*u_x*u_xx + 5/6*u*u*u_x"],
    "wave": ["u_xxt", "c*c*c*c*t*t*u_xx + c*c*t*u_t + 2*c*c*t*x*u_xt"
             " + c*c*x*u_x + x*x*u_tt"],
    "sine-gordon": ["u_xxx + 1/2*u_x*u_x*u_x", "u_ttt + 1/2*u_t*u_t*u_t"],
    "chiral": ["inv(g)*M*g", "x*inv(g)*g_t - t*inv(g)*g_x", "comm(X, M)"],
}

NON_SYMMETRIES = {
    "heat": ["u*u"], "burgers": ["u*u"], "kdv": ["u*u", "u_xx"],
    "wave": ["u*u"], "sine-gordon": ["u_xxx"], "chiral": ["inv(g)*g_xx", "g"],
}

# Certificate round trips: `check` finds a certificate, `certify` reads it
# back.  Fixed inputs, independent of the seed: the last two print a
# negative coefficient times a monomial, e.g. ((-2)*t)*D_x*F, which the
# operator parser rejects, so they fail every time.
ROUND_TRIPS = [
    ("kdv", "3*t*u_x - 3 + u_x"),
    ("wave", "x*u_x + t*u_t + u"),
    ("kdv", "u_x - 2*t*u_x + 2"),
    ("heat", "-1/2*x*u_x - t*u_t"),
]

# size ladder of principal jets reduced mod F
REDUCE_LADDER = [
    ("kdv", "u_ttt"), ("kdv", "u_tttt"), ("kdv", "u_xxttt"),
    ("kdv", "u_ttttt"),
    ("burgers", "u_ttt"), ("burgers", "u_tttt"), ("burgers", "u_ttttt"),
    ("sine-gordon", "u_xxxxttt"),
    ("chiral", "g_tttt"), ("chiral", "g_xxttt"), ("chiral", "g_ttttt"),
]

SEARCH_LADDER = [(2, 2), (3, 3), (4, 3)]   # kdv ansatz (derivs, degree)

CATALOG_USED = {
    "verdict-stream": ("sine-gordon", "heat", "burgers", "wave", "kdv",
                       "chiral"),
    "deep-reduce": ("kdv", "burgers", "sine-gordon", "chiral"),
    "exact-search": ("sine-gordon", "heat", "burgers", "wave", "kdv",
                     "chiral"),
}

WORKLOADS = tuple(CATALOG_USED)

_COEFFS = [Fraction(n, d) for n, d in
           [(1, 1), (2, 1), (3, 1), (1, 2), (2, 3), (3, 2), (5, 4), (4, 5),
            (7, 3), (1, 3)]]


def frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else \
        f"{c.numerator}/{c.denominator}"


def _coeff(rng: random.Random) -> Fraction:
    c = rng.choice(_COEFFS)
    return c if rng.random() < 0.5 else -c


def combination_text(parts: list[tuple[Fraction, str]]) -> str:
    """sum of c_k*(text_k), written with signs between terms."""
    out = ""
    for c, text in parts:
        mag = abs(c)
        term = f"({text})" if mag == 1 else f"{frac_text(mag)}*({text})"
        if not out:
            out = term if c > 0 else "-" + term
        else:
            out += (" + " if c > 0 else " - ") + term
    return out


def combine_certificates(parts: list[tuple[Fraction, list]]) -> list:
    """Certificate terms of sum c_k*Q_k, by linearity of Delta_Q in Q."""
    out = []
    for c, terms in parts:
        out.extend((c * k, left, derivs, right)
                   for k, left, derivs, right in terms)
    return out


def certificate_text(terms: list) -> str:
    """Operator text in the grammar `certify --lhat` reads: no brackets and
    one sign per term."""
    out = ""
    for c, left, derivs, right in terms:
        if c == 0:
            continue
        factors = [] if abs(c) == 1 else [frac_text(abs(c))]
        factors += [left] if left else []
        factors += [f"D_{d}" for d in derivs] + ["F"]
        factors += [right] if right else []
        body = "*".join(factors)
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += (" + " if c > 0 else " - ") + body
    return out or "0"


# Its certificate has the symbolic constant c in a coefficient, outside the
# rational coordinate-monomial ansatz of find_operator.
OUTSIDE_ANSATZ = {"c*c*t*u_x + x*u_t"}


def _combo(rng, pde, k, higher=None, turn=0, search=False):
    """k generators with seeded coefficients: the given higher symmetry (if
    any) plus point symmetries taken in turn from position `turn` (only
    those find_operator can certify, for a search).  The seed draws only
    the coefficients, so the cost of a round barely depends on it."""
    points = [g for g in sorted(POINT[pde])
              if not (search and g in OUTSIDE_ANSATZ)]
    n = k - (higher is not None)
    picked = ([higher] if higher is not None else []) + \
        [points[(turn + j) % len(points)] for j in range(n)]
    return [(_coeff(rng), g) for g in picked]


def _perturb(rng, pde, parts, i=0):
    nons = NON_SYMMETRIES[pde]
    return parts + [(_coeff(rng), nons[i % len(nons)])]


def _char_flag(pde):
    return "--phi" if pde == "chiral" else "--q"


# --- verdict-stream ---------------------------------------------------------

def _custom_kdv(rng):
    a, b = abs(_coeff(rng)), abs(_coeff(rng))
    r = a / b
    A, B, R = frac_text(a), frac_text(b), frac_text(r)
    R2 = frac_text(r * r)
    pde = {"f": f"u_t + {A}*u*u_x + {B}*u_xxx", "lead": "u_t",
           "rhs": f"-{A}*u*u_x - {B}*u_xxx"}
    gens = ["u_x", "u_t", f"t*u_x - {frac_text(1 / a)}",
            "x*u_x + 3*t*u_t + 2*u",
            f"u_xxxxx + 5/3*{R}*u*u_xxx + 10/3*{R}*u_x*u_xx"
            f" + 5/6*{R2}*u*u*u_x"]
    return pde, gens


def _custom_heat(rng):
    k = frac_text(abs(_coeff(rng)))
    pde = {"f": f"u_t - {k}*u_xx", "lead": "u_t", "rhs": f"{k}*u_xx"}
    gens = ["u_x", "u_t", "u", f"2*{k}*t*u_x + x*u", "x*u_x + 2*t*u_t",
            "u_xxx"]
    return pde, gens


def _verdict_stream(rng):
    ops = []
    for pde in CATALOG_USED["verdict-stream"]:
        flag = _char_flag(pde)
        higher = HIGHER[pde]
        for i in range(4):
            parts = _combo(rng, pde, i + 1, higher[-1 - i % len(higher)], i)
            sym = i % 2 == 0
            if not sym:
                parts = _perturb(rng, pde, parts, i // 2)
            q = combination_text(parts)
            ops.append({"kind": "cli", "type": "check", "pde": pde,
                        "args": ["--json", "--pde", pde, "check", "--no-find",
                                 flag, q],
                        "char": q, "symmetry": sym})
        parts = _combo(rng, pde, 3, turn=1)
        cert = combine_certificates([(c, POINT[pde][g]) for c, g in parts])
        q, lhat = combination_text(parts), certificate_text(cert)
        ops.append({"kind": "cli", "type": "certify", "pde": pde,
                    "args": ["--json", "--pde", pde, "certify", flag, q,
                             "--lhat", lhat],
                    "char": q, "lhat": [[frac_text(c), left, list(d), right]
                                        for c, left, d, right in cert]})
        if pde != "chiral":
            q1 = higher[-1]
            q2 = combination_text(_combo(rng, pde, 3, higher[0], 2))
            ops.append({"kind": "cli", "type": "bracket", "pde": pde,
                        "args": ["--json", "--pde", pde, "bracket",
                                 "--q1", q1, "--q2", q2],
                        "q1": q1, "q2": q2})
    for i, make in enumerate([_custom_kdv, _custom_kdv, _custom_heat,
                              _custom_heat]):
        spec, gens = make(rng)
        parts = [(_coeff(rng), g) for g in [gens[-1]] + gens[i:i + 2]]
        sym = i % 2 == 0
        if not sym:
            parts.append((_coeff(rng), "u*u"))
        q = combination_text(parts)
        ops.append({"kind": "cli", "type": "check", "pde": "custom",
                    "custom": spec,
                    "args": ["--json", "--coords", "x,t", "--f", spec["f"],
                             "--solved", f"{spec['lead']} = {spec['rhs']}",
                             "check", "--no-find", "--q", q],
                    "char": q, "symmetry": sym})
    for pde, q in ROUND_TRIPS:
        ops.append({"kind": "roundtrip", "type": "roundtrip", "pde": pde,
                    "char": q})
    return ops


# --- deep-reduce ------------------------------------------------------------

def _deep_reduce(rng):
    ops = []
    for pde, jet in REDUCE_LADDER:
        c = _coeff(rng)
        ops.append({"kind": "reduce", "type": "reduce-jet", "pde": pde,
                    "jet": jet, "coeff": frac_text(c),
                    "expr": f"{frac_text(c)}*{jet}" if c != 1 else jet})
    for pde in ("kdv", "burgers", "sine-gordon", "chiral"):
        higher = HIGHER[pde]
        for i, sym in enumerate((True, False)):
            parts = _combo(rng, pde, 3, higher[i % len(higher)], i)
            if not sym:
                parts = _perturb(rng, pde, parts)
            ops.append({"kind": "reduce", "type": "reduce-delta", "pde": pde,
                        "char": combination_text(parts), "symmetry": sym})
    return ops


# --- exact-search -----------------------------------------------------------

def _exact_search(rng):
    ops = []
    for i, cfg in enumerate(SEARCH_LADDER):
        parts = _combo(rng, "kdv", 3, turn=i, search=True)
        ops.append({"kind": "find", "type": "find", "pde": "kdv",
                    "char": combination_text(parts), "cfg": list(cfg),
                    "symmetry": True})
    for pde in ("heat", "burgers", "wave", "sine-gordon"):
        parts = _combo(rng, pde, 3, turn=1, search=True)
        ops.append({"kind": "find", "type": "find", "pde": pde,
                    "char": combination_text(parts), "cfg": [3, 2],
                    "symmetry": True})
    for i in range(2):
        parts = _combo(rng, "chiral", 3, turn=i, search=True)
        ops.append({"kind": "find", "type": "find", "pde": "chiral",
                    "char": combination_text(parts), "cfg": [2, 2],
                    "symmetry": True})
    for pde, cfg in (("kdv", (3, 3)), ("heat", (3, 2)), ("wave", (3, 2)),
                     ("sine-gordon", (3, 2)), ("chiral", (2, 2))):
        parts = _perturb(rng, pde, _combo(rng, pde, 2, turn=2, search=True))
        ops.append({"kind": "find", "type": "find", "pde": pde,
                    "char": combination_text(parts), "cfg": list(cfg),
                    "symmetry": False})
    seed = combination_text([(_coeff(rng), "M"), (_coeff(rng), "inv(g)*g_x"),
                             (_coeff(rng), "inv(g)*g_t")])
    ops.append({"kind": "bt", "type": "bt-apply", "pde": "chiral-private",
                "step": 0, "phi": seed})
    for step in range(1, 4):
        ops.append({"kind": "declare", "type": "declare",
                    "pde": "chiral-private", "step": step,
                    "potential": f"P{step}"})
        ops.append({"kind": "bt", "type": "bt-apply", "pde": "chiral-private",
                    "step": step})
    return ops


def make_round(workload: str, seed: int) -> list[dict]:
    """The operations of one round; the same seed gives the same round."""
    rng = random.Random(f"{workload}:{seed}")
    ops = {"verdict-stream": _verdict_stream, "deep-reduce": _deep_reduce,
           "exact-search": _exact_search}[workload](rng)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
