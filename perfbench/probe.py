"""A fixed pure-Python speed probe.

The raw speed of a shared machine drifts by more than the bounds this
benchmark enforces, from one process to the next.  The probe does a fixed
amount of the kind of work the engine does (exact rational arithmetic,
hashing of nested tuples and frozen dataclasses, dicts keyed by them,
sorting) and does not import jetsym.  Runs interleave it with their
operations, and every time they report is multiplied by
REFERENCE_S / (median probe time of that run).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# Probe time on the reference machine (2-vCPU x86-64 container, uncontended,
# CPython 3.11).  Scaled figures read as if measured there.
REFERENCE_S = 0.0025


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


def _work() -> int:
    leaves = tuple(_Node(f"a{i % 7}", ()) for i in range(40))
    acc: dict = {}
    h = 0
    for i in range(250):
        node = _Node("mul", (leaves[i % 40], leaves[(i * 7) % 40],
                             _Node("n", (i % 5,))))
        h ^= hash(node)
        key = (i % 61, node.kids[0].tag, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 - 5, 1 + i % 6)
    items = sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))
    return len(items) + (h & 1)


def probe() -> float:
    """Seconds taken by one fixed unit of probe work."""
    start = perf_counter()
    _work()
    return perf_counter() - start
