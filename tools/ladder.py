"""Size ladders of the engine's deepest costs, written to BENCH_ladder.json.

    python3 tools/ladder.py

Run it from the root of a checkout; it writes BENCH_ladder.json there.

* reduce: kdv `reduce_mod_pde(u_t^k)` for k = 4..10, with the term count
  of the result.  The cold time is the question on a fresh `Pde`, whose
  principal-jet table is empty; the warm time is the same question asked
  again on the table the first one filled, the case that deep-reduce's
  principal-jet rungs time.
* chain: the chiral Backlund chain on a private problem with the potential
  X declared, once from each of CHAIN_SEEDS: an integral seed, and a
  fractional one whose image and potential gradients carry denominators
  for the derivations and the elimination to clear.  Step 0 applies
  `bt_apply` to the seed; before each later step s, the potential Ps with
  the gradient `bt_rhs` of the image of step s - 1 is declared (`declare`:
  `bt_rhs` plus `declare_potential`), and step s applies `bt_apply` to
  that image, so the candidate basis grows 26 -> 40 -> 57 -> 77.  Each
  step records both times, the image's term count and the lcm of its
  coefficients' denominators, the letters it derived (those new since the
  step before: 4 -> 1 -> 1 -> 1), the products whose rows it assembled
  from its letters' (16 -> 9 -> 11 -> 13), the columns it extended the
  echelon with (letters and products; the commutators get none:
  20 -> 10 -> 12 -> 14), and the rank of that echelon, which the `Pde`
  keeps in the problem's `symmetry.Store` and each step extends, with
  the nonzero entries of its pivots.  Each
  repetition builds the chain afresh, so step 0 is cold.
* fed back: `reduce_mod_pde(char_derivative(F, Q))`, an engine output
  passed back in, on the catalog kdv with Q = (u_x + u_t)^k for k = 1..6
  and on the catalog chiral with Q = g*Phi, Phi = (inv(g)*g_x +
  inv(g)*g_t)^k for k = 1..5, with the term counts of the input and of
  the result.  The first repetition fills the principal-jet table.
* substitute: `substitute(F^k, leading, rhs)`, the solved form put into
  a power of F, on the catalog kdv and chiral for k = 1..5, F^k given as
  its normal form, with the term counts of F^k and of the result (0,
  since F vanishes under its solved form).
* pretty: `pretty` of the normal form of (g + g_x)^k on the catalog
  chiral problem (2^k terms) for k = 8..13, with the term count and the
  length of the printed text.
* parse: `parse_expr` of a combination of k of the catalog kdv's
  generators (PARSE_GENERATORS, taken in turn) with fractional and
  negative coefficients, for each k of PARSE_SIZES, with the length of
  the text and its token count.
* render: the two ways to print the normal form of (g + g_x)^k on the
  catalog chiral problem, for k = 8..13: `render` of the rebuilt tree
  (`rebuild` and the tree walk, both timed) and `printing.render_nf`
  straight from the form, with the term count and the printed length,
  which the two share.
* find: `find_operator` on the catalog kdv's scaling symmetry and the
  catalog chiral's scaling Phi-form at each ansatz bound of FIND_LADDER,
  with the ansatz's columns, their rank and their nonzero entries.  The
  cold time is the first question on a fresh `Pde`, which builds and
  eliminates the columns; the warm time is the same question asked again,
  which solves one target against the echelon the `Pde` kept.
* char_nf: D_Q F (`calculus.char_nf`) on the catalog kdv with Q = (u_x +
  u_t)^k and on the catalog chiral with Q = g*Phi, Phi = (inv(g)*g_x +
  inv(g)*g_t)^k, for each k of CHAR_NF.  The cold time is the first D_Q F
  on a fresh problem, built as the catalog builds it, and the warm time
  the same D_Q F again, which finds every image of D_i that it needs kept
  for the problem.  Each rung records the term counts of Q and of D_Q F
  and the images of D_i kept per coordinate before and after the cold
  call.

Every rung records its operation counts (terms, candidates) next to the
best of REPEATS wall-clock times, so records from noisy machines can still
be compared by their counts.
"""
from __future__ import annotations

import json
import os
import platform
import sys
from fractions import Fraction
from math import lcm
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from jetsym import (backlund, calculus, catalog, parsing, printing,  # noqa: E402
                    symmetry)
from jetsym.core import PotentialDef, Problem, mul  # noqa: E402
from jetsym.normalize import (nf, normal_form, rebuild,  # noqa: E402
                              substitute)

REPEATS = 3
KDV_ORDERS = range(4, 11)
CHAIN_SEEDS = {"integral": "M + 2*inv(g)*g_x - inv(g)*g_t",
               "fractional": "3/2*M + 2/3*inv(g)*g_x - 5/4*inv(g)*g_t"}
CHAIN_STEPS = 4
FED_BACK = {"kdv": ("(u_x + u_t)", "", range(1, 7)),
            "chiral": ("(inv(g)*g_x + inv(g)*g_t)", "g*", range(1, 6))}
SUBSTITUTE = {"kdv": range(1, 6), "chiral": range(1, 6)}
PRETTY_POWERS = range(8, 14)
PARSE_GENERATORS = ("u_x", "u_t", "t*u_x - 1", "x*u_x + 3*t*u_t + 2*u",
                    "u_xxxxx + 5/3*u*u_xxx + 10/3*u_x*u_xx + 5/6*u*u*u_x")
PARSE_SIZES = (1, 2, 4, 8, 16, 32)
RENDER_POWERS = range(8, 14)
FIND_LADDER = {"kdv": ("q4", [(2, 2), (3, 3), (4, 3), (5, 3)]),
               "chiral": ("phi3", [(2, 2), (3, 2)])}
CHAR_NF = {name: (factor, prefix, range(1, 5))
           for name, (factor, prefix, _) in FED_BACK.items()}


def timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return perf_counter() - start, out


def reduce_ladder() -> list[dict]:
    entry = catalog.get_pde("kdv")
    p, pde = entry.problem, entry.pde
    out = []
    for k in KDV_ORDERS:
        jet = p.jet("t" * k)
        cold = []
        for _ in range(REPEATS):
            fresh = symmetry.make_pde(pde.name, pde.f, pde.leading, pde.rhs,
                                      p)
            cold.append(timed(symmetry.reduce_mod_pde, jet, fresh, p)[0])
        warm, r = best_of(symmetry.reduce_mod_pde, jet, fresh, p)
        out.append({"k": k, "terms": len(nf(r)), "cold_best_s": min(cold),
                    "cold_runs_s": cold, "warm_best_s": min(warm),
                    "warm_runs_s": warm})
    return out


def private_chiral() -> tuple[Problem, symmetry.Pde]:
    """The catalog's chiral problem and PDE, built anew, so that the
    potentials a chain declares reach no other rung."""
    raw = catalog._load_raw()["pdes"]["chiral"]
    entry = catalog._build_entry("chiral", raw)
    return entry.problem, entry.pde


def declare(phi, step: int, pde, p) -> None:
    """Declare the potential Ps whose gradient is the Backlund pair of phi."""
    pair = backlund.bt_rhs(phi, p)
    backlund.declare_potential(
        PotentialDef(f"P{step}", {"x": pair.rhs_x, "t": pair.rhs_t}), pde, p)


def chain_once(seed: str) -> list[tuple]:
    """(candidates, image terms, image denominator, bt_apply seconds,
    declare seconds or None at step 0, letters derived, columns extended,
    echelon rank, pivot nonzeros) of each step of one chain."""
    p, pde = private_chiral()
    phi = parsing.parse_expr(seed, p)
    steps = []
    kept = (0, 0)
    for step in range(CHAIN_STEPS):
        declare_s = timed(declare, phi, step, pde, p)[0] if step else None
        candidates = len(backlund.default_bt_basis(p))
        secs, phi = timed(backlund.bt_apply, phi, pde, p)
        if phi is None:
            raise RuntimeError(f"chain step {step}: no image")
        n = nf(phi)
        den = lcm(*(Fraction(v).denominator for v in n.values()))
        chain = pde.stores[p]
        steps.append((candidates, len(n), den, secs, declare_s,
                      len(chain.letters) - kept[0],
                      len(chain.columns) - kept[1], chain.echelon.rank,
                      chain.echelon.nonzeros))
        kept = (len(chain.letters), len(chain.columns))
    return steps


def chain_ladder(seed: str) -> list[dict]:
    chains = [chain_once(seed) for _ in range(REPEATS)]
    out = []
    for step, rungs in enumerate(zip(*chains)):
        (candidates, terms, den, _, _, letters, columns, rank,
         pivot_nonzeros) = rungs[0]
        runs = [r[3] for r in rungs]
        rung = {"step": step, "candidates": candidates, "letters": letters,
                "products": columns - letters, "columns": columns,
                "rank": rank, "pivot_nonzeros": pivot_nonzeros,
                "image_terms": terms,
                "image_denominator": den, "best_s": min(runs), "runs_s": runs}
        if step:
            declares = [r[4] for r in rungs]
            rung.update(declare_best_s=min(declares), declare_runs_s=declares)
        out.append(rung)
    return out


def best_of(fn, *args) -> tuple[list[float], object]:
    """The seconds of each of REPEATS calls, and the last call's result."""
    runs = [timed(fn, *args) for _ in range(REPEATS)]
    return [secs for secs, _ in runs], runs[-1][1]


def fed_back_ladder() -> list[dict]:
    out = []
    for name, (factor, prefix, powers) in FED_BACK.items():
        entry = catalog.get_pde(name)
        p, pde = entry.problem, entry.pde
        for k in powers:
            q = parsing.parse_expr(prefix + "*".join([factor] * k), p)
            cond = calculus.char_derivative(
                pde.f, calculus.Characteristic("Q", q, p.dependent), p)
            runs, r = best_of(symmetry.reduce_mod_pde, cond, pde, p)
            out.append({"pde": name, "k": k, "input_terms": len(nf(cond)),
                        "terms": len(nf(r)), "best_s": min(runs),
                        "runs_s": runs})
    return out


def substitute_ladder() -> list[dict]:
    out = []
    for name, powers in SUBSTITUTE.items():
        pde = catalog.get_pde(name).pde
        for k in powers:
            fk = normal_form(mul(*[pde.f] * k))
            runs, r = best_of(substitute, fk, pde.leading, pde.rhs)
            out.append({"pde": name, "k": k, "input_terms": len(nf(fk)),
                        "terms": len(nf(r)), "best_s": min(runs),
                        "runs_s": runs})
    return out


def pretty_ladder() -> list[dict]:
    p = catalog.get_pde("chiral").problem
    out = []
    for k in PRETTY_POWERS:
        e = normal_form(parsing.parse_expr("*".join(["(g + g_x)"] * k), p))
        runs, text = best_of(printing.pretty, e, p)
        out.append({"k": k, "terms": len(nf(e)), "chars": len(text),
                    "best_s": min(runs), "runs_s": runs})
    return out


def combination(k: int) -> str:
    """k of PARSE_GENERATORS in turn, the i-th times (-1)^i (i+1)/(i+2)."""
    parts = []
    for i in range(k):
        c = Fraction((-1) ** i * (i + 1), i + 2)
        g = PARSE_GENERATORS[i % len(PARSE_GENERATORS)]
        parts.append(f"{'-' if c < 0 else '+'} {abs(c)}*({g})")
    return " ".join(parts).lstrip("+ ")


def parse_ladder() -> list[dict]:
    p = catalog.get_pde("kdv").problem
    out = []
    for k in PARSE_SIZES:
        text = combination(k)
        runs, _ = best_of(parsing.parse_expr, text, p)
        out.append({"k": k, "chars": len(text),
                    "tokens": len(parsing._lex(text)), "best_s": min(runs),
                    "runs_s": runs})
    return out


def render_ladder() -> list[dict]:
    p = catalog.get_pde("chiral").problem
    out = []
    for k in RENDER_POWERS:
        n = nf(parsing.parse_expr("*".join(["(g + g_x)"] * k), p))
        tree, text = best_of(lambda: printing.render(rebuild(n), p))
        form, same = best_of(printing.render_nf, n, p)
        if same != text:
            raise RuntimeError(f"render_nf differs from render at k={k}")
        out.append({"k": k, "terms": len(n), "chars": len(text),
                    "tree_best_s": min(tree), "tree_runs_s": tree,
                    "nf_best_s": min(form), "nf_runs_s": form})
    return out


def find_ladder() -> list[dict]:
    out = []
    for name, (char, cfgs) in FIND_LADDER.items():
        entry = catalog.get_pde(name)
        p, pde, q = entry.problem, entry.pde, entry.characteristic(char).q
        for bounds in cfgs:
            cfg = symmetry.AnsatzConfig(*bounds)
            cold = []
            for _ in range(REPEATS):
                fresh = symmetry.make_pde(pde.name, pde.f, pde.leading,
                                          pde.rhs, p)
                cold.append(timed(symmetry.find_operator, fresh, q, p,
                                  cfg)[0])
            warm = best_of(symmetry.find_operator, fresh, q, p, cfg)[0]
            terms, echelon = fresh.stores[p].ansatz[cfg]
            columns = symmetry.LinearOperatorAnsatz(terms).columns(
                nf(pde.f), p)
            out.append({"pde": name, "q": char, "cfg": list(bounds),
                        "columns": len(columns), "rank": echelon.rank,
                        "nonzeros": sum(map(len, columns)),
                        "cold_best_s": min(cold), "cold_runs_s": cold,
                        "warm_best_s": min(warm), "warm_runs_s": warm})
    return out


def kept_images(p: Problem) -> list[int]:
    """The images of D_i kept for p, per coordinate."""
    kept = calculus._TOTALS.get(p) or [{} for _ in p.coordinates]
    return [len(images) for images in kept]


def char_nf_ladder() -> list[dict]:
    out = []
    raw = catalog._load_raw()["pdes"]
    for name, (factor, prefix, powers) in CHAR_NF.items():
        for k in powers:
            text = prefix + "*".join([factor] * k)
            cold = []
            for _ in range(REPEATS):
                entry = catalog._build_entry(name, raw[name])  # fresh problem
                p, f = entry.problem, nf(entry.pde.f)
                q = calculus.Characteristic("Q", parsing.parse_expr(text, p),
                                            p.dependent)
                before = kept_images(p)
                secs, r = timed(calculus.char_nf, f, q, p)
                cold.append(secs)
            warm = best_of(calculus.char_nf, f, q, p)[0]
            out.append({"pde": name, "k": k, "q_terms": len(nf(q.q)),
                        "terms": len(r), "kept_before": before,
                        "kept": kept_images(p),
                        "cold_best_s": min(cold), "cold_runs_s": cold,
                        "warm_best_s": min(warm), "warm_runs_s": warm})
    return out


def main() -> int:
    record = {
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "processor": platform.machine(),
                    "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "reduce_kdv_u_t_k": reduce_ladder(),
        **{f"bt_apply_chain_{kind}": chain_ladder(seed)
           for kind, seed in CHAIN_SEEDS.items()},
        "reduce_fed_back": fed_back_ladder(),
        "substitute_solved_form_in_f_k": substitute_ladder(),
        "pretty_chiral_g_plus_g_x_k": pretty_ladder(),
        "parse_kdv_combination_k": parse_ladder(),
        "render_chiral_g_plus_g_x_k": render_ladder(),
        "find_operator_ansatz": find_ladder(),
        "char_nf_cold_warm": char_nf_ladder(),
    }
    path = os.path.join(ROOT, "BENCH_ladder.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for r in record["reduce_kdv_u_t_k"]:
        print(f"kdv u_t^{r['k']}: {r['terms']} terms, cold "
              f"{r['cold_best_s']:.4f} s, warm {r['warm_best_s']:.5f} s")
    for kind in CHAIN_SEEDS:
        for r in record[f"bt_apply_chain_{kind}"]:
            declared = (f", declare {r['declare_best_s']:.4f} s"
                        if r["step"] else "")
            print(f"{kind} chain step {r['step']}: {r['candidates']} "
                  f"candidates, {r['letters']} letters derived, "
                  f"{r['products']} products assembled, {r['columns']} "
                  f"columns extended, rank {r['rank']} with "
                  f"{r['pivot_nonzeros']} pivot nonzeros, {r['image_terms']} "
                  f"image terms over "
                  f"{r['image_denominator']}, bt_apply {r['best_s']:.4f} s"
                  f"{declared}")
    for r in record["reduce_fed_back"]:
        print(f"{r['pde']} fed back k={r['k']}: {r['input_terms']} -> "
              f"{r['terms']} terms, {r['best_s']:.4f} s")
    for r in record["substitute_solved_form_in_f_k"]:
        print(f"{r['pde']} substitute into F^{r['k']}: {r['input_terms']} -> "
              f"{r['terms']} terms, {r['best_s']:.4f} s")
    for r in record["pretty_chiral_g_plus_g_x_k"]:
        print(f"pretty (g + g_x)^{r['k']}: {r['terms']} terms, "
              f"{r['chars']} chars, {r['best_s']:.4f} s")
    for r in record["parse_kdv_combination_k"]:
        print(f"parse {r['k']} generators: {r['chars']} chars, "
              f"{r['tokens']} tokens, {r['best_s']:.5f} s")
    for r in record["render_chiral_g_plus_g_x_k"]:
        print(f"render (g + g_x)^{r['k']}: {r['terms']} terms, "
              f"{r['chars']} chars, rebuilt tree {r['tree_best_s']:.4f} s, "
              f"from the form {r['nf_best_s']:.4f} s")
    for r in record["find_operator_ansatz"]:
        print(f"find {r['pde']} {r['q']} at {tuple(r['cfg'])}: "
              f"{r['columns']} columns, rank {r['rank']}, {r['nonzeros']} "
              f"nonzeros, cold {r['cold_best_s']:.4f} s, warm "
              f"{r['warm_best_s']:.4f} s")
    for r in record["char_nf_cold_warm"]:
        print(f"char_nf {r['pde']} k={r['k']}: {r['q_terms']} -> "
              f"{r['terms']} terms, kept images {r['kept_before']} -> "
              f"{r['kept']}, cold {r['cold_best_s']:.5f} s, warm "
              f"{r['warm_best_s']:.5f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
