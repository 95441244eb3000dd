"""Oracle for the chiral field, on exact rational 2x2 matrix Taylor series.

It does not use jetsym.  A series is a truncated Taylor expansion in (x, t)
with Fraction 2x2 matrix coefficients and a degree up to which it is exact.
The benchmark builds two matrix fields g from the seed:

* a generic polynomial g (not a solution), on which identities that hold
  for every g are checked: the Phi-form condition against a certificate
  L-hat F, and jetsym's raw Phi-form condition;
* a solution of (inv(g) g_x)_x + (inv(g) g_t)_t = 0, found order by order
  in t from seeded Cauchy data g(x, 0), g_t(x, 0).  On it, reductions mod F
  must agree with the true Taylor coefficients, the potential X and the
  Backlund potentials exist (their gradients are integrated), and every
  Backlund image must satisfy the Backlund pair.

Expressions printed by jetsym are read with Python's `ast` module and
evaluated on these series.
"""
from __future__ import annotations

import ast
import random
import re
from fractions import Fraction
from math import factorial

ZERO = (Fraction(0),) * 4
IDENT = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def mmul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def madd(a, b):
    return tuple(p + q for p, q in zip(a, b))


def mscale(a, c):
    return tuple(p * c for p in a)


def minv(a):
    det = a[0] * a[3] - a[1] * a[2]
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return (a[3] / det, -a[1] / det, -a[2] / det, a[0] / det)


class Series:
    """Truncated matrix Taylor series, exact up to total degree `deg`."""

    __slots__ = ("c", "deg")

    def __init__(self, coeffs: dict, deg: int):
        self.deg = deg
        self.c = {k: v for k, v in coeffs.items()
                  if k[0] + k[1] <= deg and v != ZERO}

    @staticmethod
    def const(m, deg):
        return Series({(0, 0): m}, deg)

    def get(self, k):
        return self.c.get(k, ZERO)

    def __add__(self, o):
        deg = min(self.deg, o.deg)
        out = dict(self.c)
        for k, v in o.c.items():
            out[k] = madd(out.get(k, ZERO), v)
        return Series(out, deg)

    def scale(self, f):
        return Series({k: mscale(v, f) for k, v in self.c.items()}, self.deg)

    def __neg__(self):
        return self.scale(Fraction(-1))

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        deg = min(self.deg, o.deg)
        out: dict = {}
        for (i, j), a in self.c.items():
            for (k, l), b in o.c.items():
                if i + j + k + l <= deg:
                    key = (i + k, j + l)
                    out[key] = madd(out.get(key, ZERO), mmul(a, b))
        return Series(out, deg)

    def d(self, coord: str):
        if coord == "x":
            return Series({(i - 1, j): mscale(v, Fraction(i))
                           for (i, j), v in self.c.items() if i}, self.deg - 1)
        return Series({(i, j - 1): mscale(v, Fraction(j))
                       for (i, j), v in self.c.items() if j}, self.deg - 1)

    def inv(self):
        s0 = self.get((0, 0))
        w0 = minv(s0)
        w = {(0, 0): w0}
        for n in range(1, self.deg + 1):
            for i in range(n + 1):
                a = (i, n - i)
                acc = ZERO
                for (p, q), s in self.c.items():
                    if (p, q) != (0, 0) and p <= a[0] and q <= a[1]:
                        acc = madd(acc, mmul(s, w.get((a[0] - p, a[1] - q),
                                                      ZERO)))
                w[a] = mscale(mmul(w0, acc), Fraction(-1))
        return Series(w, self.deg)

    def equal(self, o) -> bool:
        """Equal up to the degree both series are exact to."""
        deg = min(self.deg, o.deg)
        keys = {k for k in list(self.c) + list(o.c) if k[0] + k[1] <= deg}
        return all(self.get(k) == o.get(k) for k in keys)

    def is_zero(self) -> bool:
        return not self.c


def comm(a, b):
    return a * b - b * a


_JET = re.compile(r"g(?:_([xt]+))?")


def _mat(rng, lo=-2, hi=2):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(4))


class Field:
    """A matrix field g given by its Taylor coefficients up to degree n."""

    def __init__(self, coeffs: dict, n: int):
        self.g = Series(coeffs, n)
        self.n = n
        self._ginv: dict = {}

    def jet(self, i: int, j: int, deg: int) -> Series:
        """The series of g_{x^i t^j}, exact to min(deg, n - i - j)."""
        deg = min(deg, self.n - i - j)
        out = {}
        for (a, b), v in self.g.c.items():
            if a >= i and b >= j and a + b - i - j <= deg:
                f = Fraction(factorial(a) * factorial(b),
                             factorial(a - i) * factorial(b - j))
                out[(a - i, b - j)] = mscale(v, f)
        return Series(out, deg)

    def ginv(self, deg: int) -> Series:
        if deg not in self._ginv:
            self._ginv[deg] = self.jet(0, 0, deg).inv()
        return self._ginv[deg]

    def current(self, coord: str, deg: int) -> Series:
        """A_i = inv(g)*g_i."""
        return self.ginv(deg) * self.jet(int(coord == "x"),
                                         int(coord == "t"), deg)

    def f(self, deg: int) -> Series:
        """F = (inv(g) g_x)_x + (inv(g) g_t)_t."""
        return (self.current("x", deg + 1).d("x")
                + self.current("t", deg + 1).d("t"))


def generic_field(seed: int, n: int = 7) -> Field:
    rng = random.Random(f"chiral-generic:{seed}")
    coeffs = {(i, j): _mat(rng) for i in range(n + 1) for j in range(n + 1)
              if 0 < i + j <= 4}
    coeffs[(0, 0)] = (Fraction(1), Fraction(rng.randint(-2, 2)),
                      Fraction(0), Fraction(1))
    return Field(coeffs, n)


def solution_field(seed: int, n: int = 8) -> Field:
    """Solve g_tt = g_t inv(g) g_t + g_x inv(g) g_x - g_xx order by order in
    t from seeded data g(x, 0) (degree 2 in x) and g_t(x, 0) (degree 1)."""
    rng = random.Random(f"chiral-solution:{seed}")
    coeffs = {(0, 0): (Fraction(2), Fraction(1), Fraction(1), Fraction(1)),
              (1, 0): _mat(rng), (2, 0): _mat(rng),
              (0, 1): _mat(rng), (1, 1): _mat(rng)}
    for k in range(n - 1):
        fld = Field(coeffs, n)
        gt, gx = fld.jet(0, 1, n - 2), fld.jet(1, 0, n - 2)
        ginv = fld.ginv(n - 2)
        rhs = gt * ginv * gt + gx * ginv * gx - fld.jet(2, 0, n - 2)
        for i in range(n - 1 - k):
            coeffs[(i, k + 2)] = mscale(rhs.get((i, k)),
                                        Fraction(1, (k + 2) * (k + 1)))
    return Field(coeffs, n)


def integrate(px: Series, pt: Series, c0) -> Series | None:
    """The potential P with P_x = px, P_t = pt and P(0, 0) = c0, or None
    when the gradient is not closed (cross derivatives disagree)."""
    deg = min(px.deg, pt.deg) + 1
    out = {(0, 0): c0}
    for n in range(1, deg + 1):
        for i in range(n + 1):
            j = n - i
            if i:
                out[(i, j)] = mscale(px.get((i - 1, j)), Fraction(1, i))
                if j and out[(i, j)] != mscale(pt.get((i, j - 1)),
                                               Fraction(1, j)):
                    return None
            else:
                out[(0, j)] = mscale(pt.get((0, j - 1)), Fraction(1, j))
    return Series(out, deg)


class Evaluator:
    """Evaluates printed expressions on a field, as series of degree `deg`;
    `potentials` maps potential names to their series."""

    def __init__(self, field: Field, deg: int, potentials: dict | None = None):
        self.field, self.deg = field, deg
        self.potentials = potentials or {}
        self.env: dict = {}

    def name(self, n: str) -> Series:
        if n in self.env:
            return self.env[n]
        m = _JET.fullmatch(n)
        if m:
            subs = m.group(1) or ""
            v = self.field.jet(subs.count("x"), subs.count("t"), self.deg)
        elif n in ("x", "t"):
            v = Series({(1, 0) if n == "x" else (0, 1): IDENT}, self.deg)
        elif n == "M":
            v = Series.const(M_MATRIX, self.deg)
        elif n in self.potentials:
            v = self.potentials[n]
        else:
            raise KeyError(f"unknown name {n!r}")
        self.env[n] = v
        return v

    def __call__(self, text: str):
        return self._ev(ast.parse(text.strip(), mode="eval").body)

    def _ev(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return self.name(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            v = self._ev(node.operand)
            return -v
        if isinstance(node, ast.Call):
            args = [self._as_series(self._ev(a)) for a in node.args]
            if node.func.id == "inv":
                return args[0].inv()
            if node.func.id == "comm":
                return comm(*args)
            raise KeyError(f"unknown function {node.func.id!r}")
        if isinstance(node, ast.BinOp):
            a, b = self._ev(node.left), self._ev(node.right)
            if isinstance(node.op, ast.Div):
                return a / b            # only between rationals
            if isinstance(node.op, ast.Mult):
                if isinstance(a, Fraction) and isinstance(b, Fraction):
                    return a * b
                if isinstance(a, Fraction):
                    return b.scale(a)
                if isinstance(b, Fraction):
                    return a.scale(b)
                return a * b
            a, b = self._as_series(a), self._as_series(b)
            return a + b if isinstance(node.op, ast.Add) else a - b
        raise ValueError(f"cannot evaluate {ast.dump(node)}")

    def series(self, text: str) -> Series:
        return self._as_series(self(text))

    def _as_series(self, v):
        if isinstance(v, Fraction):
            return Series.const(mscale(IDENT, v), self.deg)
        return v


# the constant matrix M of the chiral problem takes this value in every field
M_MATRIX = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3))


def phi_condition(ev: Evaluator, phi: Series) -> Series:
    """L(Phi) = D_x(Phi_x + [A_x, Phi]) + D_t(Phi_t + [A_t, Phi])."""
    deg = phi.deg
    ax, at = ev.field.current("x", deg), ev.field.current("t", deg)
    return ((phi.d("x") + comm(ax, phi)).d("x")
            + (phi.d("t") + comm(at, phi)).d("t"))


def bt_pair(field: Field, phi: Series) -> tuple[Series, Series]:
    """Right-hand sides of Phi'_x = Phi_t + [A_t, Phi],
    Phi'_t = -(Phi_x + [A_x, Phi])."""
    deg = phi.deg
    ax, at = field.current("x", deg), field.current("t", deg)
    return phi.d("t") + comm(at, phi), -(phi.d("x") + comm(ax, phi))


def apply_operator(ev: Evaluator, terms, deg: int) -> Series:
    """sum of coefficient * left * D_J F * right, as a series of degree deg."""
    f = ev.field.f(deg + 3)
    out = Series({}, deg)
    for coeff, left, derivs, right in terms:
        df = f
        for c in derivs:
            df = df.d(c)
        lhs = ev.series(left) if left else None
        rhs = ev.series(right) if right else None
        term = df
        if lhs is not None:
            term = lhs * term
        if rhs is not None:
            term = term * rhs
        out = out + term.scale(Fraction(coeff))
    return out


def potential_x(field: Field, deg: int, c0) -> Series:
    """The catalog potential X: X_x = A_t, X_t = -A_x."""
    return integrate(field.current("t", deg - 1), -field.current("x", deg - 1),
                     c0)


def seeded_constant(seed: int, name: str):
    return _mat(random.Random(f"potential:{seed}:{name}"))
