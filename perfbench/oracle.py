"""Checks every output of a run against the independent oracles.

Runs in the parent process after the timed client has exited, so sympy
never enters the timed process.  Every distinct output of every operation
is checked once (a repeated operation must print the same output; the
client reports any that did not).  Each run also applies negative controls:
a tampered answer (a flipped certificate coefficient, a dropped reduction
term, a wrong verdict, a sign-flipped Backlund image) must be rejected, or
the run is not correct.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

import oracle_chiral as oc
import oracle_scalar as osc
from workloads import SCALAR_PDES

_CHIRAL_JET = re.compile(r"\bg_([xt]+)")
SOL_DEG = 1         # degree of the series compared on the chiral solution
GEN_DEG = 2         # ... and on the generic chiral field
CHAIN_DEG = 3       # degree of Backlund images on the solution


def _chiral_principal(text: str) -> bool:
    return any(m.group(1).count("t") >= 2 for m in _CHIRAL_JET.finditer(text))


class Checker:
    def __init__(self, seed: int):
        self.seed = seed
        self.at_u0 = osc.AtU0(osc.seeded_u0(seed))
        self._pdes: dict = {}
        self._memo: dict = {}
        self._gen = self._sol = self._x = None

    # --- shared oracle data ------------------------------------------------
    def pde(self, op) -> osc.ScalarPde:
        spec = op.get("custom") or SCALAR_PDES[op["pde"]]
        if spec["f"] not in self._pdes:
            self._pdes[spec["f"]] = osc.ScalarPde(spec)
        return self._pdes[spec["f"]]

    def memo(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    @property
    def gen(self) -> oc.Field:
        if self._gen is None:
            self._gen = oc.generic_field(self.seed)
        return self._gen

    @property
    def sol(self) -> oc.Field:
        if self._sol is None:
            self._sol = oc.solution_field(self.seed)
        return self._sol

    def sol_eval(self, deg, extra=None) -> oc.Evaluator:
        """Evaluator on the solution, with the potential X integrated."""
        if self._x is None:
            self._x = oc.potential_x(self.sol, CHAIN_DEG,
                                     oc.seeded_constant(self.seed, "X"))
        return oc.Evaluator(self.sol, deg, {"X": self._x, **(extra or {})})

    # --- scalar pieces -------------------------------------------------------
    def delta_at_u0(self, op, q: str):
        """Delta_Q F at u0 (Gateaux derivative)."""
        pde = self.pde(op)
        return self.memo(("gateaux", pde.f, q), lambda: self.at_u0(
            osc.gateaux(pde.f, osc.parse(q))))

    def reduced_delta(self, op, q: str):
        pde = self.pde(op)
        return self.memo(("reduced", pde.f, q),
                         lambda: pde.reduced_delta(osc.parse(q)))

    def certificate_at_u0(self, op, terms):
        return self.at_u0(osc.apply_operator(terms, self.pde(op).f))

    # --- chiral pieces -------------------------------------------------------
    def phi_on_generic(self, phi: str) -> oc.Series:
        def make():
            ev = oc.Evaluator(self.gen, GEN_DEG + 2)
            return oc.phi_condition(ev, ev.series(phi))
        return self.memo(("L-gen", phi), make)

    def phi_on_solution(self, phi: str) -> oc.Series:
        def make():
            ev = self.sol_eval(SOL_DEG + 2)
            return oc.phi_condition(ev, ev.series(phi))
        return self.memo(("L-sol", phi), make)

    def chiral_certificate(self, terms) -> oc.Series:
        return oc.apply_operator(oc.Evaluator(self.gen, GEN_DEG), terms,
                                 GEN_DEG)

    # --- operations ----------------------------------------------------------
    def check(self, op: dict, out: dict) -> list[str]:
        """Problems found in one operation's output (empty when correct)."""
        kind = op["type"]
        if kind in ("check", "certify", "bracket"):
            if out["exit"] == 2:
                return []                   # failed, counted, not checked
            doc = json.loads(out["stdout"])
            return getattr(self, "_" + kind)(op, doc, out["exit"])
        if kind == "roundtrip":
            return self._roundtrip(op, out)
        if kind == "reduce-jet":
            return self._reduce_jet(op, out["result"])
        if kind == "reduce-delta":
            return self._reduce_delta(op, out["result"])
        if kind == "find":
            return self._find(op, out.get("terms"), "error" in out)
        return []                           # the Backlund chain: see chain()

    def _check(self, op, doc, code):
        sym = op["symmetry"]
        want = "Symmetry" if sym else "NotSymmetry"
        if doc["verdict"] != want or code != (0 if sym else 1):
            return [f"verdict {doc['verdict']} (exit {code}), want {want}"]
        raw, rem = doc["values"]["raw"], doc["remainder"]
        if op["pde"] == "chiral":
            return self._chiral_condition(op["char"], raw, rem, sym)
        problems = []
        q = op["char"]
        if self.at_u0(osc.parse(raw)) != self.delta_at_u0(op, q):
            problems.append("raw Delta_Q F differs from the Gateaux "
                            "derivative at u0")
        expect = self.reduced_delta(op, q)
        if (expect == 0) != sym:
            problems.append("the oracle disagrees with the constructed "
                            "verdict")
        got = osc.parse(rem)
        if self.pde(op).has_principal(got):
            problems.append("remainder keeps a principal jet")
        if not osc.same(got, expect):
            problems.append("remainder differs from the reduced Delta_Q F")
        return problems

    def _chiral_condition(self, phi, raw, rem, sym):
        problems = []
        if "X" in phi:      # X exists only on solutions
            ev = self.sol_eval(SOL_DEG)
            if not ev.series(raw).equal(self.phi_on_solution(phi)):
                problems.append("raw Phi-form condition differs on the "
                                "solution")
        else:
            ev = oc.Evaluator(self.gen, GEN_DEG)
            if not ev.series(raw).equal(self.phi_on_generic(phi)):
                problems.append("raw Phi-form condition differs on the "
                                "generic field")
        expect = self.phi_on_solution(phi)
        if expect.is_zero() != sym:
            problems.append("the oracle disagrees with the constructed "
                            "verdict")
        if _chiral_principal(rem):
            problems.append("remainder keeps a principal jet")
        if not self.sol_eval(SOL_DEG).series(rem).equal(expect):
            problems.append("remainder differs from the condition on the "
                            "solution")
        return problems

    def _certify(self, op, doc, code):
        if doc["verdict"] != "Certified" or code != 0:
            return [f"verdict {doc['verdict']}, want Certified"]
        terms = [(Fraction(c), left, tuple(d), right)
                 for c, left, d, right in op["lhat"]]
        return self._certificate_holds(op, terms)

    def _certificate_holds(self, op, terms):
        if op["pde"] == "chiral":
            ok = self.chiral_certificate(terms).equal(
                self.phi_on_generic(op["char"]))
        else:
            ok = self.delta_at_u0(op, op["char"]) == self.certificate_at_u0(
                op, [(c, left, "".join(d)) for c, left, d, _ in terms])
        return [] if ok else ["certificate does not give Delta_Q F"]

    def _bracket(self, op, doc, code):
        q1, q2 = osc.parse(op["q1"]), osc.parse(op["q2"])
        expect = self.at_u0(osc.gateaux(q2, q1) - osc.gateaux(q1, q2))
        got = self.at_u0(osc.parse(doc["values"]["bracket"]))
        return [] if code == 0 and got == expect else \
            ["bracket differs from the Gateaux commutator at u0"]

    def _roundtrip(self, op, out):
        check = out["check"]
        if check["exit"] != 0:
            return [f"check exited {check['exit']}: {check['error']}"]
        doc = json.loads(check["stdout"])
        if doc["verdict"] != "Symmetry" or doc["certificate"] is None:
            return ["a point symmetry got no certificate"]
        terms = [(c, left, tuple(d), "") for c, left, d in
                 osc.read_printed_operator(doc["certificate"])]
        problems = self._certificate_holds(op, terms)
        certify = out["certify"]
        if certify is not None and certify["exit"] != 2:
            if json.loads(certify["stdout"])["verdict"] != "Certified":
                problems.append("the printed certificate is not certified")
        return problems

    def _reduce_jet(self, op, result):
        c = Fraction(op["coeff"])
        if op["pde"] == "chiral":
            if _chiral_principal(result):
                return ["reduction keeps a principal jet"]
            subs = op["jet"][2:]
            truth = self.sol.jet(subs.count("x"), subs.count("t"), 0)
            got = self.sol_eval(0).series(result)
            return [] if got.equal(truth.scale(c)) else \
                ["reduction differs from the solution's Taylor data"]
        pde = self.pde(op)
        got = osc.parse(result)
        if pde.has_principal(got):
            return ["reduction keeps a principal jet"]
        idx = osc.jet_index(osc.sp.Symbol(op["jet"]))
        expect = osc.sp.Rational(op["coeff"]) * pde.principal(idx)
        return [] if osc.same(got, expect) else \
            ["reduction differs from the oracle's"]

    def _reduce_delta(self, op, result):
        sym = op["symmetry"]
        if op["pde"] == "chiral":
            expect = self.phi_on_solution(op["char"])
            ok = (not _chiral_principal(result)
                  and self.sol_eval(SOL_DEG).series(result).equal(expect)
                  and expect.is_zero() == sym)
        else:
            expect = self.reduced_delta(op, op["char"])
            got = osc.parse(result)
            ok = (not self.pde(op).has_principal(got)
                  and osc.same(got, expect) and (expect == 0) == sym)
        return [] if ok else ["reduced Delta_Q F differs from the oracle's"]

    def _find(self, op, terms, errored):
        if errored:
            return []
        if not op["symmetry"]:
            proof = (self.phi_on_solution(op["char"]).is_zero()
                     if op["pde"] == "chiral"
                     else self.reduced_delta(op, op["char"]) == 0)
            if proof:
                return ["the oracle finds no proof of non-symmetry"]
            return [] if terms is None else \
                ["a certificate was found for a non-symmetry"]
        if terms is None:
            return ["no certificate for a symmetry inside its ansatz"]
        return self._certificate_holds(
            op, [(Fraction(1), left, tuple(d), right if right != "1" else "")
                 for left, d, right in terms])

    def chain(self, ops: list[dict], outputs: dict, tamper=False):
        """The Backlund chain: every image must satisfy the Backlund pair of
        the image before it (the seed for the first), and every declared
        gradient must be closed on the solution."""
        pots: dict = {}
        prev = None
        problems = []
        for op in ops:
            out = outputs[str(op["id"])]
            if "error" in out:
                return problems             # failed, counted
            if op["type"] == "declare":
                if out["potential"] != op["potential"]:
                    problems.append("declared a different potential")
                bx, bt = oc.bt_pair(self.sol, prev)
                p = oc.integrate(bx, bt, oc.seeded_constant(
                    self.seed, op["potential"]))
                if p is None:
                    return problems + [f"gradient of {op['potential']} is "
                                       "not closed on the solution"]
                pots[op["potential"]] = p
                continue
            if op["type"] != "bt-apply":
                continue
            n = 4 + op["step"]          # left currents, potentials, M
            if out["basis"] != n + n * n + n * (n - 1) // 2:
                problems.append(f"step {op['step']}: {out['basis']} basis "
                                "candidates, the private problem is not "
                                "what this round declared")
            ev = self.sol_eval(CHAIN_DEG, pots)
            source = ev.series(op["phi"]) if op["step"] == 0 else prev
            image = ev.series(out["image"])
            if tamper:
                image = -image
            bx, bt = oc.bt_pair(self.sol, source)
            if not (image.d("x").equal(bx) and image.d("t").equal(bt)):
                problems.append(f"image {op['step']} fails the Backlund pair")
            prev = image
        return problems


def _drop_last_term(text: str) -> str | None:
    parts = osc.split_top(text.replace(" - ", " + -"), " + ")
    return " + ".join(parts[:-1]) if len(parts) > 1 else None


def check_run(result: dict) -> tuple[bool, list[str]]:
    """(all outputs correct and every negative control rejected, messages)"""
    checker = Checker(result["seed"])
    ops, outputs = result["ops"], result["outputs"]
    messages = [f"op {i}: output differs between rounds"
                for i in result["mismatched"]]
    for op in ops:
        for p in checker.check(op, outputs[str(op["id"])]):
            messages.append(f"op {op['id']} ({op['type']} {op['pde']}): {p}")
    chain = [op for op in ops if op["pde"] == "chiral-private"]
    if chain:
        messages += [f"chain: {p}" for p in checker.chain(chain, outputs)]
    failed = {i for i, _, f, _ in result["times"] if f}
    messages += [f"negative control accepted: {m}" for m in
                 negative_controls(checker, ops, outputs, chain, failed)]
    return not messages, messages


def negative_controls(checker, ops, outputs, chain, failed) -> list[str]:
    """Tampered copies of real outputs of operations that did not fail;
    returns those the oracles accepted."""
    accepted = []
    seen: set = set()
    for op in ops:
        out = outputs[str(op["id"])]
        kind = (op["type"], op["pde"] == "chiral")
        if kind in seen or op["id"] in failed:
            continue
        tampered = None
        if op["type"] == "reduce-jet":
            dropped = _drop_last_term(out["result"])
            tampered = dropped and {"result": dropped}
            what = "dropped reduction term"
        elif op["type"] == "find" and out.get("terms"):
            terms = [list(t) for t in out["terms"]]
            terms[0][0] = f"(-1)*({terms[0][0]})"
            tampered, what = {"terms": terms}, "flipped certificate coefficient"
        elif op["type"] == "check":
            doc = json.loads(out["stdout"])
            doc["verdict"] = ("NotSymmetry" if doc["verdict"] == "Symmetry"
                              else "Symmetry")
            tampered = dict(out, stdout=json.dumps(doc))
            what = "wrong verdict"
        if tampered:
            seen.add(kind)
            if not checker.check(op, tampered):
                accepted.append(f"{what} on op {op['id']}")
    if chain and not checker.chain(chain, outputs, tamper=True):
        accepted.append("sign-flipped Backlund images")
    return accepted
