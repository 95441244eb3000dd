import copy
from collections import Counter
from itertools import combinations_with_replacement
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings

from fractions import Fraction

from jetsym import (commutator, get_pde, inverse, is_zero, mul, normal_form,
                    parse_expr, substitute)
from jetsym.calculus import char_nf, derive_nf, jet_totals, total_images
from jetsym.catalog import CATALOG_NAMES
from jetsym.core import (Atom, CMat, Comm, Fn, Inv, InversionError, Jet, Rat,
                         nodes)
from jetsym.normalize import (MAX_TERMS, _join, _merge_cmono, _nf_add,
                              _nf_mul, clear_denominators, collect_jets,
                              map_nf, nf, nf_divide, rebuild)
from jetsym.symmetry import reduce_nf

from conftest import seeded_exprs
from helpers import (DRAW_TERMS, fresh_copy, matrix_problem,
                     random_characteristic, random_expr, reference_substitute,
                     scalar_problem, term_bound)

SP = scalar_problem()
MP = matrix_problem()


def test_inverse_cancellation(mp):
    assert normal_form(mp.u * inverse(mp.u)) == Rat(1)
    assert normal_form(inverse(mp.u) * mp.u) == Rat(1)


def test_inverse_cancellation_cascades(mp):
    A, B, u = mp.declared("A"), mp.declared("B"), mp.u
    assert normal_form(B * u * inverse(u) * inverse(B) * A) == A
    assert normal_form(inverse(u) * u * inverse(u)) == inverse(u)
    # two reduced words, where one cancellation exposes the next
    assert _join((B, u), (inverse(u), inverse(B), A)) == (A,)
    assert _join((inverse(u),), (u, inverse(B))) == (inverse(B),)
    assert _join((A, u), (inverse(u),)) == (A,)


def _cancels(a, b) -> bool:
    return (isinstance(a, Inv) and a.base == b) or \
        (isinstance(b, Inv) and b.base == a)


def reference_cancel_word(word: tuple) -> tuple:
    """Delete the leftmost adjacent w*inv(w) pair until none is left."""
    w = list(word)
    while True:
        pairs = [i for i in range(len(w) - 1) if _cancels(w[i], w[i + 1])]
        if not pairs:
            return tuple(w)
        del w[pairs[0]:pairs[0] + 2]


def test_cancel_word_matches_repeated_pair_deletion(mp):
    """Any word, reduced by joining its letters one at a time."""
    u, A, B = mp.u, mp.declared("A"), mp.declared("B")
    letters = [u, inverse(u), A, B, inverse(B)]
    for seed in range(400):
        rng = Random(seed)
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
        reduced = ()
        for letter in word:
            reduced = _join(reduced, (letter,))
        assert reduced == reference_cancel_word(word), word


def test_join_of_reduced_words_matches_repeated_pair_deletion(mp):
    u, A, B = mp.u, mp.declared("A"), mp.declared("B")
    letters = [u, inverse(u), A, B, inverse(B)]
    for seed in range(400):
        rng = Random(seed)
        left, right = (reference_cancel_word(tuple(
            rng.choice(letters) for _ in range(rng.randint(0, 8))))
            for _ in range(2))
        assert _join(left, right) == reference_cancel_word(left + right)


def test_like_terms_collect(sp):
    assert normal_form(2 * sp.u + 3 * sp.u) == normal_form(5 * sp.u)


def test_commutativity_class(sp, mp):
    assert is_zero(sp.jet("x") * sp.u - sp.u * sp.jet("x"))
    e = mp.jet("x") * mp.u - mp.u * mp.jet("x")
    nf = normal_form(e)
    assert not is_zero(nf)
    assert len(nf.terms) == 2


def test_two_word_sum_survives(mp):
    # a(x,t)(Qu + uQ)b(x,t) with everything matrix-class keeps both words
    a, b = mp.declared("a"), mp.declared("b")
    q = mp.declared("b")  # any matrix factor stands in for a characteristic
    e = normal_form(a * (q * mp.u + mp.u * q) * b)
    assert len(e.terms) == 2


def test_total_derivatives_commute_zero(sp):
    assert is_zero(sp.jet("xt") - sp.jet("tx"))


def test_substitute_heat(sp):
    ut, uxx = sp.jet("t"), sp.jet("xx")
    assert is_zero(substitute(ut - uxx, ut, uxx))
    assert substitute(ut * ut, ut, uxx) == normal_form(uxx * uxx)


def test_substitute_refuses_a_target_that_is_not_a_jet(sp):
    with pytest.raises(TypeError,
                       match="^substitution target must be a jet coordinate$"):
        substitute(sp.u, sp.coordinate("x"), sp.jet("x"))


def test_substitute_chiral_solved_form():
    from jetsym.catalog import get_pde
    entry = get_pde("chiral")
    p = entry.problem
    gtt = p.jet("tt")
    rhs = parse_expr("g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx", p)
    assert substitute(gtt, gtt, rhs) == normal_form(rhs)
    assert is_zero(substitute(entry.pde.f, gtt, rhs))


def _outcome(fn):
    try:
        return fn()
    except InversionError:
        return InversionError


def _enclosing_kinds(e, target) -> set:
    """The node kinds among Fn, Inv and Comm with `target` inside them."""
    return {type(x) for x in nodes(e)
            if isinstance(x, (Fn, Inv, Comm)) and target in collect_jets(x)}


@pytest.mark.parametrize("problem", [SP, MP], ids=["scalar", "matrix"])
def test_substitute_matches_reference_walker(problem):
    """substitute, which substitutes inside the normaliser, agrees with a
    tree walk that rebuilds the expression first, on seeded random
    expressions; replacements are normal forms, so both invert the same
    expression under inv() and raise InversionError on the same inputs."""
    p = problem
    rng = Random(f"substitute-{p.dependent.kind}")
    special = [inverse(p.u), p.jet("x"), Rat(0), Rat(2), *p.atoms(CMat)]
    seen = {Fn: 0, Inv: 0, Comm: 0, InversionError: 0, "value": 0}
    for _ in range(300):
        e = random_expr(rng, p, 4)
        jets = sorted(collect_jets(e), key=lambda j: j.idx)
        target = rng.choice(jets) if jets and rng.random() < 0.6 else p.u
        if rng.random() < 0.5:
            repl = rng.choice(special)
        else:
            repl = normal_form(random_expr(rng, p, 2))
        got = _outcome(lambda: substitute(e, target, repl))
        want = _outcome(lambda: reference_substitute(e, target, repl))
        assert got == want, (e, target, repl)
        for kind in _enclosing_kinds(e, target):
            seen[kind] += 1
        seen[InversionError if got is InversionError else "value"] += 1
    if p.dependent.kind == "matrix":  # analytic functions take scalars
        del seen[Fn]
    assert min(seen.values()) >= 5, seen


def _jet_map(rng: Random, p) -> dict:
    """A seeded map that sends some jets of order 1 and 2 to normal forms
    (scalar ones on a scalar problem, so that the images commute) and the
    dependent, sometimes, to an invertible normal form."""
    scalar = p.dependent.kind == "scalar"
    values = {}
    for subs in ("x", "t", "xx", "xt", "tt"):
        if rng.random() < 0.7:
            values[p.jet(subs)] = nf(random_expr(rng, p, 2,
                                                 scalar_only=scalar))
    if rng.random() < 0.7:
        values[p.u] = nf(rng.choice([Rat(Fraction(2, 3)), inverse(p.u),
                                     *(m for m in p.atoms(CMat)
                                       if m.invertible)]))
    return values


def _maps_inside(n: dict, values: dict) -> set:
    """The kinds among Fn and Inv of the factors of n that hold a mapped
    jet; a negative exponent of a mapped jet counts as an Inv."""
    kinds = set()
    for cmono, word in n:
        for f in [a for a, _ in cmono] + list(word):
            if type(f) in (Fn, Inv) and collect_jets(f) & values.keys():
                kinds.add(type(f))
        if any(e < 0 and a in values for a, e in cmono):
            kinds.add(Inv)
    return kinds


@pytest.mark.parametrize("problem", [SP, MP], ids=["scalar", "matrix"])
def test_map_nf_is_a_ring_homomorphism(problem):
    """map_nf preserves products and sums on seeded random normal forms
    with analytic functions and inverses among their factors, and a map
    that sends nothing gives back n's terms in n's order, each integral
    coefficient an int."""
    p = problem
    rng = Random(f"map-nf-{p.dependent.kind}")
    seen = {Fn: 0, Inv: 0, "moved": 0}
    for _ in range(100):
        values = _jet_map(rng, p)
        mapped = lambda n: map_nf(n, values.get)  # noqa: E731
        a, b = (nf(random_expr(rng, p, 4)) for _ in range(2))
        seen["moved"] += mapped(a) != a
        assert mapped(_nf_mul(a, b)) == _nf_mul(mapped(a), mapped(b))
        assert mapped(_nf_add(dict(a), b)) == \
            _nf_add(dict(mapped(a)), mapped(b))
        for kind in _maps_inside(a, values) | _maps_inside(b, values):
            seen[kind] += 1
        n = {k: rng.choice([2, Fraction(-6, 3), Fraction(1, 2)]) for k in a}
        fixed = map_nf(n, lambda j: None)
        assert list(fixed) == list(n) and fixed == n
        assert all(type(v) is int for v in fixed.values()
                   if Fraction(v).denominator == 1)
    if p.dependent.kind == "matrix":  # analytic functions take scalars
        del seen[Fn]
    assert min(seen.values()) >= 10, seen


@settings(max_examples=120, deadline=None)
@given(seeded_exprs(SP, depth=6))
def test_idempotent_scalar(e):
    n = normal_form(e)
    assert normal_form(fresh_copy(n)) == n


@settings(max_examples=120, deadline=None)
@given(seeded_exprs(MP, depth=6))
def test_idempotent_matrix(e):
    n = normal_form(e)
    assert normal_form(fresh_copy(n)) == n


def test_drawn_expressions_form_no_product_above_the_budget():
    """`random_expr` keeps the term bound of what it draws, read off the
    tree, within DRAW_TERMS, and so within MAX_TERMS: before that bound,
    depth-6 matrix seed 106157 (as `seeded_exprs` draws it) formed a
    product of 182,968 terms, and about 1 draw in 140,000 exceeded
    MAX_TERMS.  On small draws the bound is checked against `nf`."""
    assert DRAW_TERMS <= MAX_TERMS
    for seed in (106157, *range(3000)):
        for p in (SP, MP):
            assert term_bound(random_expr(Random(seed), p, 6)) <= DRAW_TERMS
    for seed in range(300):
        e = random_expr(Random(seed), MP, 3)
        assert len(nf(e)) <= term_bound(e), seed


@settings(max_examples=100, deadline=None)
@given(seeded_exprs(MP, depth=5))
def test_deterministic(e):
    assert normal_form(copy.deepcopy(e)) == normal_form(e)


@settings(max_examples=100, deadline=None)
@given(seeded_exprs(MP, depth=3), seeded_exprs(MP, depth=3),
       seeded_exprs(MP, depth=3))
def test_distributivity(a, b, c):
    assert normal_form(a * (b + c)) == normal_form(a * b + a * c)


@settings(max_examples=100, deadline=None)
@given(seeded_exprs(MP, depth=4))
def test_inverse_cancellation_random(e):
    u = MP.u
    assert normal_form(u * inverse(u) * e) == normal_form(e)


@settings(max_examples=100, deadline=None)
@given(seeded_exprs(MP, depth=3), seeded_exprs(MP, depth=3))
def test_commutator_antisymmetry(a, b):
    assert is_zero(commutator(a, b) + commutator(b, a))


def test_an_integral_rational_normalizes_to_an_int():
    assert nf(Rat(Fraction(4, 2))) == {((), ()): 2}
    assert type(nf(Rat(Fraction(-3)))[((), ())]) is int
    assert type(nf(Rat(Fraction(1, 2)))[((), ())]) is Fraction
    assert nf(Rat(Fraction(0))) == {}


@pytest.mark.parametrize("seed", range(40))
def test_no_coefficient_is_ever_a_float(seed):
    """Normal forms, their products, D_i, D_Q and reduction mod F keep
    every coefficient an int or a Fraction, for random expressions with
    integral and non-integral rational coefficients."""
    rng = Random(seed)
    wave = get_pde("wave")
    for p, pde in ((SP, None), (MP, None), (wave.problem, wave.pde)):
        scalar = p.dependent.kind == "scalar"
        n = nf(random_expr(rng, p, 4, scalar_only=scalar))
        q = random_characteristic(rng, p, 2)
        forms = [n, _nf_mul(n, nf(random_expr(rng, p, 2, scalar))),
                 jet_totals(n, p)((0, 1)), char_nf(n, q, p)]
        if pde is not None:
            forms += [reduce_nf(f, pde, p) for f in forms]
        for f in forms:
            assert {type(v) for v in f.values()} <= {int, Fraction}, seed


def test_clear_denominators_and_divide_round_trip():
    """clear_denominators scales a normal form by the least common
    denominator of its coefficients to int coefficients, and nf_divide
    by it gives it back, an integral value as an int."""
    rng = Random("clear-denominators")
    for _ in range(200):
        n = nf(random_expr(rng, SP, 3))
        cleared, d = clear_denominators(n)
        assert d == lcm(1, *(Fraction(v).denominator for v in n.values()))
        assert all(type(v) is int for v in cleared.values())
        back = nf_divide(cleared, d)
        assert back == n
        assert all(type(v) is int for v in back.values()
                   if Fraction(v).denominator == 1)
    n = nf(SP.u * 2 + SP.jet("x"))
    assert clear_denominators(n) == (n, 1)
    assert nf_divide(n, 1) is n


def test_clearing_an_integral_fraction_gives_ints():
    """A form whose only non-int coefficient is an integral Fraction (as
    arithmetic with Fractions leaves one) comes back with int coefficients
    and d == 1, and the form given is not changed."""
    n = {**nf(3 * SP.jet("x")),
         **{k: Fraction(4, 2) for k in nf(SP.u)}}
    cleared, d = clear_denominators(n)
    assert d == 1 and cleared == n
    assert all(type(v) is int for v in cleared.values())
    assert any(type(v) is Fraction for v in n.values())


# --- the product kernel against an independent reference ------------------

def reference_mono(a: tuple, b: tuple) -> tuple:
    """The product of two commuting monomials by a Counter merge."""
    exps = Counter(dict(a))
    exps.update(dict(b))
    return tuple(sorted(((x, e) for x, e in exps.items() if e),
                        key=lambda t: t[0].key))


def reference_mul(a: dict, b: dict) -> dict:
    """The product of two normal forms, term by term, each word reduced by
    repeated pair deletion."""
    out = Counter()
    for (ca, wa), va in a.items():
        for (cb, wb), vb in b.items():
            out[reference_mono(ca, cb),
                reference_cancel_word(wa + wb)] += va * vb
    return {k: v for k, v in out.items() if v}


def reference_derive(n: dict, image) -> dict:
    """The derivation with the cleared image map `image`, applied factor
    by factor through `reference_mul`."""
    out = Counter()
    for (cmono, word), c in n.items():
        sites = [(a, c * e, tuple((x, f - (j == i))
                                  for j, (x, f) in enumerate(cmono)
                                  if f - (j == i)), (), word)
                 for i, (a, e) in enumerate(cmono)]
        sites += [(f, c, cmono, word[:i], word[i + 1:])
                  for i, f in enumerate(word)]
        for f, m, mono, left, right in sites:
            da, d = image(f)
            term = reference_mul(reference_mul({(mono, left): Fraction(m, d)},
                                               da), {((), right): 1})
            out.update(term)
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("problem", [SP, MP], ids=["scalar", "matrix"])
def test_product_kernel_matches_a_reference(problem):
    """_nf_mul, _merge_cmono and _join agree with a Counter merge and an
    explicit w*inv(w) cancel loop on seeded normal forms, with negative
    exponents (inv(u) on a scalar problem) and cancelling words (inv(u)
    and inv(B) on a matrix problem) among them.  Each fast path is hit
    where it must cancel: a one-atom monomial that cancels an exponent to
    0, and a meeting pair that cancels."""
    p = problem
    rng = Random(f"kernel-{p.dependent.kind}")
    u = p.u  # a ends in an invertible factor that b often starts to cancel
    ends = [u] + [m for m in p.atoms(CMat) if m.invertible]
    seen = Counter()
    for _ in range(150):
        end = rng.choice(ends)
        a = nf(mul(random_expr(rng, p, 3), end))
        b = nf(mul(rng.choice([inverse(end), Rat(1)]),
                   random_expr(rng, p, 3)))
        for n in (a, b):
            assert _nf_mul({((), ()): 1}, n) is not n
        assert _nf_mul(a, b) == reference_mul(a, b)
        for ca, wa in a:
            for cb, wb in b:
                merged = _merge_cmono(ca, cb)
                assert merged == reference_mono(ca, cb), (ca, cb)
                assert _join(wa, wb) == reference_cancel_word(wa + wb)
                if min(len(ca), len(cb)) == 1 and \
                        len(merged) < len({x for x, _ in ca + cb}):
                    seen["one-atom cancel"] += 1
                if wa and wb and len(_join(wa, wb)) < len(wa + wb):
                    seen["word cancel"] += 1
                seen["empty"] += not (ca and cb and wa and wb)
    wanted = ["empty", "one-atom cancel" if p is SP else "word cancel"]
    assert min(seen[k] for k in wanted) >= 20, seen


@pytest.mark.parametrize("problem", [SP, MP], ids=["scalar", "matrix"])
def test_a_unit_side_scales_the_other_in_its_order(problem):
    """A product with a one-term side of key ((), ()) is a scaling: it
    equals the reference product, term for term and coefficient type for
    coefficient type, and keeps the other side's keys in their order (the
    kernel runs over each side's terms in order), on either side and for
    int, Fraction and integral-Fraction coefficients on both."""
    p = problem
    rng = Random(f"unit-{p.dependent.kind}")
    for _ in range(60):
        n = nf(random_expr(rng, p, 3))
        for form in (n, {k: Fraction(v) for k, v in n.items()}):
            for c in (3, -1, Fraction(2, 3), Fraction(-4, 1)):
                unit = {((), ()): c}
                for got in (_nf_mul(unit, form), _nf_mul(form, unit)):
                    assert got == reference_mul(unit, form)
                    assert list(got) == list(form)
                    assert [type(v) for v in got.values()] == \
                        [type(c * v) for v in form.values()]


@pytest.mark.parametrize("problem", [SP, MP], ids=["scalar", "matrix"])
def test_rebuild_does_not_depend_on_the_order_of_terms(problem):
    """rebuild sorts: a normal form with its terms shuffled rebuilds to
    the tree, and the carried form, of the form in rebuild order."""
    p = problem
    rng = Random(f"shuffle-{p.dependent.kind}")
    shuffled = 0
    while shuffled < 40:
        n = nf(rebuild(nf(random_expr(rng, p, 3))))  # in rebuild order
        items = list(n.items())
        rng.shuffle(items)
        if items == list(n.items()):
            continue
        shuffled += 1
        got = rebuild(dict(items))
        assert got == rebuild(n)
        assert list(nf(got)) == list(n)


@pytest.mark.parametrize("problem", [SP, MP], ids=["scalar", "matrix"])
def test_derive_nf_matches_a_reference(problem):
    """derive_nf by D_x and D_t agrees with the Leibniz rule applied
    factor by factor through the reference product."""
    p = problem
    rng = Random(f"derive-{p.dependent.kind}")
    totals = total_images(p)
    for _ in range(60):
        n = nf(random_expr(rng, p, 3))
        for image in totals:
            assert derive_nf(n, image) == reference_derive(n, image), n


def test_kernel_cancellations_and_empty_sides(sp, mp):
    u, x = sp.u, sp.coordinate("x")
    assert _merge_cmono(((u, 1),), ((u, -1),)) == ()
    assert _merge_cmono(((x, 1), (u, 2)), ((u, -2),)) == ((x, 1),)
    assert _merge_cmono(((u, -1),), ((x, 2), (u, 3))) == ((x, 2), (u, 2))
    assert _merge_cmono((), ((u, 1),)) == ((u, 1),)
    assert _merge_cmono(((u, 1),), ()) == ((u, 1),)
    assert _merge_cmono((), ()) == ()
    assert normal_form(u * x * inverse(u)) == x
    g, M, A = mp.u, mp.declared("B"), mp.declared("A")
    assert _join((M, g), (inverse(g), inverse(M))) == ()
    assert _join((A, M, g), (inverse(g), inverse(M), A)) == (A, A)
    assert _join((), (g,)) == (g,) and _join((g,), ()) == (g,)
    assert _join((), ()) == ()
    assert normal_form(M * g * inverse(g) * inverse(M)) == Rat(1)
    one = {((), ()): 3}
    assert _nf_mul(one, one) == {((), ()): 9}
    assert _nf_mul(one, {}) == {} and _nf_mul({}, one) == {}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_distinct_atoms_of_a_catalog_problem_have_distinct_keys(name):
    """Atoms order by key (`core.Atom`), so a term order that compares
    atoms is the order of their keys only if no two atoms share one."""
    entry = get_pde(name)
    p, pde = entry.problem, entry.pde
    atoms = set(p.atoms(Atom))
    for k in range(4):
        for idx in combinations_with_replacement(range(len(p.coordinates)),
                                                 k):
            atoms.add(Jet(p.dependent, idx))
    forms = [nf(pde.f), nf(pde.rhs)]
    for c in entry.characteristics:
        raw = char_nf(nf(pde.f), c, p)
        forms += [raw, reduce_nf(raw, pde, p)]
    for n in forms:
        for cmono, word in n:
            atoms.update(x for x, _ in cmono)
            atoms.update(word)
    assert len({a.key for a in atoms}) == len(atoms)
