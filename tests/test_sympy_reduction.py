"""reduce_mod_pde checked against sympy on the u_t-solved catalog equations
(kdv, burgers, heat).  The sympy side shares no code with the engine's
calculus or normal form: u is a sympy function u(x, t), u_t = K, and
u_{x^a t^b} is built by differentiating u(x, t) b times in t, each time
replacing every Derivative(u, t, x^k) by diff(K, x, k), and then a times
in x.  Every a + b <= 5 is compared."""
import pytest

from jetsym.catalog import get_pde
from jetsym.core import Add, Jet, Mul, Rat
from jetsym import reduce_mod_pde

sympy = pytest.importorskip("sympy")

X, T = sympy.symbols("x t")
U = sympy.Function("u")(X, T)
MAX_ORDER = 5


def to_sympy(e):
    """An engine expression in x-jets as a sympy expression in u(x, t)."""
    if isinstance(e, Rat):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Jet):
        assert all(i == 0 for i in e.idx), "only x-jets are parametric"
        return sympy.diff(U, X, e.order) if e.idx else U
    if isinstance(e, Add):
        return sympy.Add(*(to_sympy(t) for t in e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*(to_sympy(f) for f in e.factors))
    raise TypeError(type(e).__name__)


def sympy_jet(K, a: int, b: int):
    """u_{x^a t^b} on solutions of u_t = K, in x-derivatives of u only."""
    out = U
    for _ in range(b):
        out = sympy.diff(out, T)
        replace = {}
        for d in out.atoms(sympy.Derivative):
            counts = dict(d.variable_count)
            if counts.get(T):
                replace[d] = sympy.diff(K, X, counts.get(X, 0))
        out = sympy.expand(out.xreplace(replace))
    return sympy.diff(out, X, a)


@pytest.mark.parametrize("name", ["kdv", "burgers", "heat"])
def test_reduction_matches_sympy(name):
    entry = get_pde(name)
    p, pde = entry.problem, entry.pde
    assert pde.leading == p.jet("t")
    K = to_sympy(pde.rhs)
    for b in range(1, MAX_ORDER + 1):
        for a in range(MAX_ORDER + 1 - b):
            got = reduce_mod_pde(p.jet("x" * a + "t" * b), pde, p)
            want = sympy_jet(K, a, b)
            assert sympy.expand(to_sympy(got) - want) == 0, (a, b)
