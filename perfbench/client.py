"""The timed process: one closed-loop client, one thread.

    python3 perfbench/client.py --workload W --seed N --seconds S --trace 0|1
        --out FILE
    python3 perfbench/client.py --workload W --setup-only

It runs whole rounds of the workload's operations until S seconds have
passed (a traced run does TRACE_ROUNDS rounds, so its counts repeat), and
writes every operation's time and output to FILE.  It never imports the
oracles or sympy, so its peak RSS and its garbage collector see only the
engine.  With --setup-only it measures set-up in this fresh interpreter and
prints it.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))     # the engine

from probe import probe  # noqa: E402
from workloads import CATALOG_USED, CHIRAL, make_round  # noqa: E402

TRACE_ROUNDS = 2
PROBE_EVERY_S = 0.05    # busy seconds between two probes
SAMPLE_EVERY_S = 0.05   # CPU seconds between two probes inside an operation


class Sampler:
    """Probes inside long operations.  The machine's speed changes within
    an operation of a second, so probes between operations alone misjudge
    it.  While an operation runs, a CPU-time interval timer interrupts the
    main thread every SAMPLE_EVERY_S and its handler runs one probe; the
    handler's own time is later taken out of the operation's time."""

    def __init__(self, begin: float, samples: list):
        self.begin, self.samples = begin, samples
        self.spent = 0.0
        signal.signal(signal.SIGPROF, self._handler)

    def _handler(self, signum, frame):
        start = perf_counter()
        secs = probe()
        self.samples.append([start - self.begin, secs])
        self.spent += perf_counter() - start

    def __enter__(self):
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)


def set_up(workload: str) -> dict:
    """Imports plus the catalog entries and private problems the workload
    uses; returns the context the operations run in."""
    import jetsym  # noqa: F401
    from jetsym import catalog, cli  # noqa: F401
    entries = {name: catalog.get_pde(name) for name in CATALOG_USED[workload]}
    ctx = {"entries": entries}
    if workload == "exact-search":
        ctx["private"] = private_chiral()
    return ctx


def private_chiral():
    """A chiral problem of the benchmark's own, with the potential X
    declared (which reduces its cross derivative mod F)."""
    from jetsym import backlund, parsing, symmetry
    from jetsym.core import Dependent, PotentialDef, Problem
    p = Problem(coords=("x", "t"), dependent=Dependent("g", "matrix", True),
                matrices=[("M", False)])
    parse = parsing.parse_expr
    pde = symmetry.make_pde("chiral", parse(CHIRAL["f"], p),
                            parse(CHIRAL["lead"], p), parse(CHIRAL["rhs"], p),
                            p)
    name, dx, dt = CHIRAL["potential"]
    backlund.declare_potential(
        PotentialDef(name, {"x": parse(dx, p), "t": parse(dt, p)}), pde, p)
    return p, pde


# --- operations -------------------------------------------------------------

def _cli(args: list[str], tracer) -> dict:
    from jetsym import cli
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        try:
            call = cli.main.main
            kwargs = {"args": args, "standalone_mode": False,
                      "prog_name": "jetsym"}
            rv = tracer.call("cli", call, **kwargs) if tracer else call(**kwargs)
            code = rv if isinstance(rv, int) else 0
        except Exception as exc:  # the CLI maps every engine error to exit 2
            code, error = 2, f"{type(exc).__name__}: {exc}"
    return {"exit": code, "stdout": buf.getvalue(), "error": error}


class Runner:
    """Prepares a round's inputs once and runs its operations."""

    def __init__(self, workload: str, ops: list[dict], ctx: dict, tracer,
                 sampler: Sampler):
        from jetsym import calculus, parsing, backlund
        self.workload, self.ctx, self.tracer, self.sampler = \
            workload, ctx, tracer, sampler
        self.inputs = {}
        for op in ops:
            if op["kind"] not in ("reduce", "find"):
                continue
            entry = ctx["entries"][op["pde"]]
            p, pde = entry.problem, entry.pde
            if op["type"] == "reduce-jet":
                self.inputs[op["id"]] = parsing.parse_expr(op["expr"], p)
            elif op["pde"] == "chiral":
                phi = parsing.parse_expr(op["char"], p)
                self.inputs[op["id"]] = (
                    backlund.chiral_phi_condition(phi, pde, p)
                    if op["kind"] == "reduce" else phi)
            else:
                q = calculus.Characteristic(
                    "Q", parsing.parse_expr(op["char"], p), p.dependent)
                self.inputs[op["id"]] = (
                    calculus.char_derivative(pde.f, q, p)
                    if op["kind"] == "reduce" else q)
        self.chain = None

    def new_round(self):
        """Every round's Backlund chain starts from a fresh private problem
        (the first round uses the one built during set-up)."""
        if self.workload == "exact-search":
            problem = self.ctx.pop("private", None) or private_chiral()
            self.chain = {"problem": problem, "image": None}

    def timed(self, fn, *args, **kwargs):
        """(seconds, result) of one call, traced when tracing is on; the
        time spent in probes taken during the call is not counted."""
        if self.tracer:
            self.tracer.enabled = True
        spent = self.sampler.spent
        start = perf_counter()
        try:
            with self.sampler:
                result = fn(*args, **kwargs)
        finally:
            secs = perf_counter() - start - (self.sampler.spent - spent)
            if self.tracer:
                self.tracer.enabled = False
        return secs, result

    def run(self, op: dict):
        """Time one operation; returns (seconds, output, failed)."""
        kind = op["kind"]
        if kind == "cli":
            secs, out = self.timed(_cli, op["args"], self.tracer)
            return secs, out, out["exit"] == 2
        if kind == "roundtrip":
            secs, out = self.timed(self._roundtrip, op["pde"], op["char"])
            failed = out["certify"] is None or out["certify"]["exit"] == 2
            return secs, out, failed
        try:
            return self._library(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            return 0.0, {"error": f"{type(exc).__name__}: {exc}"}, True

    def _roundtrip(self, pde: str, q: str) -> dict:
        """`check` with its certificate search, then `certify` of the
        certificate it printed."""
        check = _cli(["--json", "--pde", pde, "check", "--q", q], self.tracer)
        cert = (json.loads(check["stdout"]).get("certificate")
                if check["exit"] == 0 else None)
        certify = None
        if cert is not None:
            certify = _cli(["--json", "--pde", pde, "certify", "--q", q,
                            "--lhat", cert], self.tracer)
        return {"check": check, "certify": certify}

    def _library(self, op: dict):
        from jetsym import backlund, parsing, printing, symmetry
        from jetsym.core import PotentialDef
        render = printing.render
        kind = op["kind"]
        if kind in ("reduce", "find"):
            entry = self.ctx["entries"][op["pde"]]
            p, pde = entry.problem, entry.pde
        else:
            p, pde = self.chain["problem"]
        if kind == "reduce":
            secs, r = self.timed(symmetry.reduce_mod_pde,
                                 self.inputs[op["id"]], pde, p)
            return secs, {"result": render(r, p)}, False
        if kind == "find":
            cfg = symmetry.AnsatzConfig(*op["cfg"])
            if op["pde"] == "chiral":
                def search(phi):
                    lhs = backlund.chiral_phi_condition(phi, pde, p)
                    return symmetry.find_operator(pde, None, p, cfg, lhs=lhs)
            else:
                def search(q):
                    return symmetry.find_operator(pde, q, p, cfg)
            secs, r = self.timed(search, self.inputs[op["id"]])
            terms = None if r is None else [
                [render(left, p), [p.coordinates[i].name for i in j],
                 render(right, p)] for left, j, right in r.terms]
            return secs, {"terms": terms}, False
        if kind == "declare":
            def declare(image):
                pair = backlund.bt_rhs(image, p)
                return backlund.declare_potential(
                    PotentialDef(op["potential"],
                                 {"x": pair.rhs_x, "t": pair.rhs_t}), pde, p)
            secs, pot = self.timed(declare, self.chain["image"])
            return secs, {"potential": pot.name}, False
        if kind == "bt":
            phi = (parsing.parse_expr(op["phi"], p) if op["step"] == 0
                   else self.chain["image"])
            basis = len(backlund.default_bt_basis(p))
            secs, image = self.timed(backlund.bt_apply, phi, pde, p)
            self.chain["image"] = image
            out = {"image": None if image is None else render(image, p),
                   "basis": basis}
            return secs, out, image is None
        raise ValueError(f"unknown operation kind {kind!r}")


def run_workload(workload: str, seed: int, seconds: float, tracer,
                 ctx: dict) -> dict:
    trace = tracer is not None
    if trace:
        tracer.enabled = False
    ops = make_round(workload, seed)
    begin = perf_counter()
    probes = [[perf_counter() - begin, probe()] for _ in range(3)]
    runner = Runner(workload, ops, ctx, tracer, Sampler(begin, probes))
    times: list = []         # [op id, seconds, failed, start]
    outputs: dict = {}
    mismatched: set = set()
    since_probe = 0.0
    rounds = 0
    while True:
        runner.new_round()
        for op in ops:
            at = perf_counter() - begin
            secs, out, failed = runner.run(op)
            times.append([op["id"], secs, failed, at])
            first = outputs.setdefault(op["id"], out)
            if first != out:
                mismatched.add(op["id"])
            since_probe += secs
            if since_probe >= PROBE_EVERY_S:
                probes.append([perf_counter() - begin, probe()])
                since_probe = 0.0
        rounds += 1
        if trace and rounds >= TRACE_ROUNDS:
            break
        if not trace and perf_counter() - begin >= seconds:
            break
    return {
        "workload": workload, "seed": seed, "rounds": rounds, "ops": ops,
        "outputs": {str(k): v for k, v in outputs.items()},
        "mismatched": sorted(mismatched), "times": times,
        "probes": sorted(probes),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.metrics() if tracer else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        begin = perf_counter()
        probes = [[0.0, probe()] for _ in range(3)]
        sampler = Sampler(begin, probes)
        start = perf_counter()
        with sampler:
            set_up(args.workload)
        secs = perf_counter() - start - sampler.spent
        probes += [[0.0, probe()] for _ in range(3)]
        print(json.dumps({"setup_s": secs, "probes": [p for _, p in probes]}))
        return 0
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        # catalog building is traced, so install before set-up
        import jetsym.cli  # noqa: F401  (loads every engine module)
        tracer.install()
    ctx = set_up(args.workload)
    result = run_workload(args.workload, args.seed, args.seconds, tracer, ctx)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
