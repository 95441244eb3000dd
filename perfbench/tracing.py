"""Per-layer spans and counts, taken from outside the engine.

`install()` replaces every binding of the traced public functions in every
loaded jetsym module with a wrapper that records a span.  Functions are
imported by name into several modules (reduce_mod_pde lives in symmetry and
is bound again in backlund, catalog and cli), so replacing only the defining
module would miss most calls.  `render` recurses through its own module
global, so it is wrapped everywhere except in `printing` itself: a wrapper
there would count every node.  The recursive `nf` is never wrapped.

A group's time is the time during which at least one of its functions is
running (nested calls of the same group are not counted twice); its calls
are the calls that enter the group from outside it.  Self time is a span's
duration minus the part its child spans cover.
"""
from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# group -> (module, function names, bound in the defining module too)
GROUPS = {
    "catalog.build": ("catalog", ("get_pde",), True),
    "parsing.parse": ("parsing", ("parse_expr", "parse_operator"), True),
    "printing.render": ("printing", ("render", "pretty"), False),
    "calculus.char_derivative": ("calculus", ("char_derivative",), True),
    "calculus.total_derivative": ("calculus", ("total_derivative",), True),
    "normalize.normal_form": ("normalize", ("normal_form",), True),
    "normalize.is_zero": ("normalize", ("is_zero",), True),
    "normalize.substitute": ("normalize", ("substitute",), True),
    "symmetry.reduce": ("symmetry", ("reduce_mod_pde",), True),
    "symmetry.find_operator": ("symmetry", ("find_operator",), True),
    "symmetry.ansatz": ("symmetry", ("_candidate_terms",), True),
    "symmetry.match_linear": ("symmetry", ("_match_linear",), True),
    "linsolve.solve": ("linsolve", ("solve",), True),
    "backlund.bt_apply": ("backlund", ("bt_apply",), True),
    "backlund.basis": ("backlund", ("default_bt_basis",), True),
    "backlund.declare_potential": ("backlund", ("declare_potential",), True),
}

# per-layer metric -> (unit, source); source is ("ms"|"calls"|"self_ms",
# group) or ("count", counter name)
METRICS = {
    "catalog.build_ms": ("ms", ("ms", "catalog.build")),
    "parsing.parse_calls": ("count", ("calls", "parsing.parse")),
    "parsing.parse_ms": ("ms", ("ms", "parsing.parse")),
    "printing.render_ms": ("ms", ("ms", "printing.render")),
    "cli.self_ms": ("ms", ("self_ms", "cli")),
    "calculus.char_derivative_ms": ("ms", ("ms", "calculus.char_derivative")),
    "calculus.total_derivative_calls":
        ("count", ("calls", "calculus.total_derivative")),
    "calculus.total_derivative_ms":
        ("ms", ("ms", "calculus.total_derivative")),
    "normalize.normal_form_calls":
        ("count", ("calls", "normalize.normal_form")),
    "normalize.normal_form_ms": ("ms", ("ms", "normalize.normal_form")),
    "normalize.normal_form_terms": ("count", ("count", "normal_form_terms")),
    "normalize.is_zero_ms": ("ms", ("ms", "normalize.is_zero")),
    "normalize.substitute_calls": ("count", ("calls", "normalize.substitute")),
    "normalize.substitute_ms": ("ms", ("ms", "normalize.substitute")),
    "symmetry.reduce_calls": ("count", ("calls", "symmetry.reduce")),
    "symmetry.reduce_ms": ("ms", ("ms", "symmetry.reduce")),
    "symmetry.reduce_steps": ("count", ("count", "reduce_steps")),
    "symmetry.reduce_terms_out": ("count", ("count", "reduce_terms_out")),
    "symmetry.find_operator_ms": ("ms", ("ms", "symmetry.find_operator")),
    "symmetry.ansatz_candidates": ("count", ("count", "ansatz_candidates")),
    "symmetry.match_linear_ms": ("ms", ("ms", "symmetry.match_linear")),
    "linsolve.solve_calls": ("count", ("calls", "linsolve.solve")),
    "linsolve.solve_ms": ("ms", ("ms", "linsolve.solve")),
    "linsolve.solve_cells": ("count", ("count", "solve_cells")),
    "backlund.bt_apply_ms": ("ms", ("ms", "backlund.bt_apply")),
    "backlund.basis_candidates": ("count", ("count", "basis_candidates")),
    "backlund.declare_potential_ms":
        ("ms", ("ms", "backlund.declare_potential")),
}


def _terms(e) -> int:
    from jetsym.core import Add, Rat
    if isinstance(e, Add):
        return len(e.terms)
    return 0 if isinstance(e, Rat) and e.value == 0 else 1


class Tracer:
    """Records spans only while `enabled`: during set-up and inside timed
    operations, not while the benchmark prepares inputs or prints outputs."""

    def __init__(self):
        self.enabled = True
        self.stack: list[list] = []      # [group, seconds covered by children]
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def call(self, group: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        outer = self.depth[group] == 0
        if outer:
            self.calls[group] += 1
        self.depth[group] += 1
        frame = [group, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            self.stack.pop()
            self.depth[group] -= 1
            if self.stack:
                self.stack[-1][1] += dur
            if outer:
                self.seconds[group] += dur
            self.self_seconds[group] += dur - frame[1]
        self._count(group, args, result)
        return result

    def _count(self, group, args, result):
        c = self.counts
        if group == "normalize.normal_form":
            c["normal_form_terms"] += _terms(result)
        elif group == "normalize.substitute" and self.depth["symmetry.reduce"]:
            c["reduce_steps"] += 1
        elif group == "symmetry.reduce":
            c["reduce_terms_out"] += _terms(result)
        elif group == "symmetry.ansatz":
            c["ansatz_candidates"] += len(result)
        elif group == "linsolve.solve":
            a = args[0]
            c["solve_cells"] += len(a) * (len(a[0]) if a else 0)
        elif group == "backlund.basis":
            c["basis_candidates"] += len(result)

    def wrap(self, group: str, fn):
        def traced(*args, **kwargs):
            return self.call(group, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "jetsym" or name.startswith("jetsym.")]
        for group, (home, names, in_home) in GROUPS.items():
            home_mod = sys.modules[f"jetsym.{home}"]
            for name in names:
                original = getattr(home_mod, name)
                wrapper = self.wrap(group, original)
                for mod in modules:
                    if mod is home_mod and not in_home:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def metrics(self) -> dict:
        """Raw per-layer figures: ms are wall milliseconds, not yet scaled."""
        out = {}
        for name, (unit, (kind, key)) in METRICS.items():
            if kind == "ms":
                value = self.seconds[key] * 1e3
            elif kind == "self_ms":
                value = self.self_seconds[key] * 1e3
            elif kind == "calls":
                value = self.calls[key]
            else:
                value = self.counts[key]
            out[name] = {"value": value, "unit": unit}
        return out
