"""The polynomial kernel: basics, int coefficients in and out, powers and
simultaneous substitution, one-shot and compiled."""

import itertools
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homleib import _kernel
from homleib._kernel import _polypure
from homleib.poly import MultiPoly, parse_poly, print_poly, substitution

K = _polypure


def rand_terms(rng, nvars=4, deg=4, nterms=6, den=4):
    out = {}
    for _ in range(nterms):
        key = tuple((v, e) for v in range(nvars) if (e := rng.randint(0, deg)))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, den))
        if c:
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def int_terms(rng, **kw):
    """rand_terms with int coefficients, as MultiPoly hands them over."""
    return {k: int(c) for k, c in rand_terms(rng, den=1, **kw).items()}


def all_int(terms):
    return all(type(c) is int for c in terms.values())


def as_fractions(terms):
    return {k: Fraction(c) for k, c in terms.items()}


def all_int_first(terms):
    return all(
        type(c) is int if c.denominator == 1 else type(c) is Fraction
        for c in terms.values()
    )


def two_pass_substitute(terms, targets):
    """The former simultaneous substitution: move each substituted variable
    to a scratch id, then substitute the scratch ids one at a time."""
    scratch = 10**6
    for v in targets:
        terms = K.substitute_terms(terms, v, {((scratch + v, 1),): 1})
    for v, t in targets.items():
        terms = K.substitute_terms(terms, scratch + v, t)
    return terms


def test_pure_kernel_basics():
    one = {(): Fraction(1)}
    a = {((0, 1),): Fraction(2)}
    assert K.mul_terms(a, one) == a
    assert K.add_terms(a, {}) == a
    assert K.pow_terms(a, 0) == one
    assert K.substitute_terms(a, 0, {(): Fraction(3)}) == {(): Fraction(6)}


def test_product_by_one_returns_the_other_operand():
    one = {(): 1}
    a = {((0, 1),): 2, (): Fraction(1, 3)}
    b = {((3, 2),): -1}
    assert K.mul_terms(a, one) is a
    assert K.mul_terms(one, b) is b
    assert K.mul_terms(one, one) is one
    assert K.mul_terms(one, {}) == {} and K.mul_terms({}, one) == {}
    assert K.mul_terms(a, {}) == {} and K.mul_terms({}, b) == {}
    # a constant other than 1 still multiplies
    assert K.mul_terms(a, {(): 2}) == {((0, 1),): 4, (): Fraction(2, 3)}
    assert K.mul_terms({(): -1}, b) == {((3, 2),): 1}


def test_sub_terms_equals_adding_the_negation():
    rng = random.Random(23)
    for i in range(200):
        a = int_terms(rng, nterms=rng.randint(0, 6))
        b = int_terms(rng, nterms=rng.randint(0, 6))
        if i % 3 == 0:
            b = {**b, **{k: rng.choice((c, -c)) for k, c in a.items()}}  # shared keys
        out = K.sub_terms(a, b)
        assert out == K.add_terms(a, K.scale_terms(b, -1))
        assert all_int(out)


def test_an_empty_operand_returns_the_other():
    a = {((0, 1),): 2, (): Fraction(1, 3)}
    b = {((3, 2),): -1}
    assert K.sub_terms(a, {}) is a
    assert K.sub_terms(a, a) == {}
    assert K.sub_terms({}, b) == {((3, 2),): 1}
    assert K.add_terms(a, {}) is a
    assert K.add_terms({}, b) is b


def test_pow_terms_equals_repeated_multiplication():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_terms(rng, nvars=3, deg=2, nterms=3)
        expected = {(): 1}
        for n in range(10):
            assert K.pow_terms(a, n) == expected
            expected = K.mul_terms(expected, a)


def test_simultaneous_substitution_equals_two_pass():
    rng = random.Random(7)
    for _ in range(200):
        terms = int_terms(rng, nvars=5, deg=3)
        subst = rng.sample(range(5), rng.randint(1, 3))
        targets = {v: int_terms(rng, nvars=5, deg=1, nterms=3) for v in subst}
        out = K.substitution(targets)(terms)
        assert out == two_pass_substitute(terms, targets)
        assert all_int(out)


def test_simultaneous_substitution_swap_and_self_reference():
    l1, l2, d = 3, 4, 0
    p = {((l1, 2), (l2, 1)): 3, ((d, 1), (l1, 1)): 5, (): 1}
    swap = K.substitution({l1: {((l2, 1),): 1}, l2: {((l1, 1),): 1}})
    assert swap(p) == {((l1, 1), (l2, 2)): 3, ((d, 1), (l2, 1)): 5, (): 1}
    assert swap(swap(p)) == p
    # targets that mention the substituted variables themselves
    mixed = {l1: {((l1, 1),): 1, ((l2, 1),): 1}, l2: {((d, 1),): -1, ((l1, 1),): 2}}
    out = K.substitution(mixed)(p)
    assert out == two_pass_substitute(p, mixed) and all_int(out)


def test_int_first_storage():
    assert type(MultiPoly({(): Fraction(4, 2)}).raw()[()]) is int
    assert MultiPoly({(): Fraction(0), ((0, 1),): 3}).raw() == {((0, 1),): 3}
    assert type(MultiPoly.const(Fraction(6, 3)).raw()[()]) is int
    half = MultiPoly.const(Fraction(1, 2))
    assert type((half + half).raw()[()]) is int
    assert type((half * 2).raw()[()]) is int
    assert type((half * half).raw()[()]) is Fraction
    rng = random.Random(11)
    for _ in range(200):
        a, b = int_terms(rng), int_terms(rng)
        for out in (
            K.add_terms(a, b),
            K.sub_terms(a, b),
            K.mul_terms(a, b),
            K.scale_terms(a, 4),
            K.pow_terms(a, 2),
            K.substitute_terms(a, 1, int_terms(rng, nvars=3, deg=1, nterms=3)),
        ):
            assert all_int(out)


def test_int_inputs_agree_with_fraction_inputs():
    rng = random.Random(13)
    for _ in range(200):
        a = rand_terms(rng, den=1)
        b = rand_terms(rng, den=1)
        t = rand_terms(rng, nvars=3, deg=1, nterms=3, den=1)
        ia, ib, it = ({k: int(c) for k, c in x.items()} for x in (a, b, t))
        fa, fb, ft = as_fractions(a), as_fractions(b), as_fractions(t)
        assert K.add_terms(ia, ib) == K.add_terms(fa, fb)
        assert K.mul_terms(ia, ib) == K.mul_terms(fa, fb)
        assert K.pow_terms(ia, 3) == K.pow_terms(fa, 3)
        assert K.substitute_terms(ia, 2, it) == K.substitute_terms(fa, 2, ft)
        assert all_int(K.mul_terms(ia, ib))


def test_print_parse_round_trip_unchanged():
    named = (0, 1, 3, 4)  # D, x, l1, l2: ids with a printable name
    rng = random.Random(17)
    for _ in range(200):
        terms = {
            tuple((named[v], e) for v, e in key): c for key, c in rand_terms(rng).items()
        }
        text = print_poly(MultiPoly(as_fractions(terms)))
        p = parse_poly(text)
        assert all_int_first(p.raw())
        assert print_poly(p) == text and p == MultiPoly(terms)
    assert print_poly(parse_poly("4/2*D - 3/6*l1^2 + 1")) == "-1/2*l1^2 + 2*D + 1"


def test_substitution_that_touches_nothing_returns_its_input():
    d, l1, l2 = 0, 3, 4
    terms = {((d, 2),): 3, ((d, 1), (l2, 1)): 5, (): 1}
    target = {((l1, 1),): 1, (): 1}
    assert K.substitute_terms(terms, l1, target) is terms
    assert K.substitution({1: target, l1: target})(terms) is terms
    empty = {}
    assert K.substitute_terms(empty, d, target) is empty
    # one key mentions a target: a new dict holding the full substitution
    assert K.substitute_terms(terms, l2, target) == {
        ((d, 2),): 3, ((d, 1), (l1, 1)): 5, ((d, 1),): 5, (): 1
    }
    assert K.substitution({l1: target, l2: target})(terms) == two_pass_substitute(
        terms, {l1: target, l2: target}
    )
    rng = random.Random(19)
    for _ in range(200):
        terms = int_terms(rng, nvars=5, deg=2, nterms=rng.randint(0, 3))
        v = rng.randrange(5)
        t = int_terms(rng, nvars=5, deg=1, nterms=2)
        out = K.substitute_terms(terms, v, t)
        if any(u == v for key in terms for u, _ in key):
            assert out is not terms and out == two_pass_substitute(terms, {v: t})
        else:
            assert out is terms


def test_wrapper_substitution_drops_identity_targets():
    d, l1, l2 = 0, 3, 4
    p = MultiPoly({((d, 1), (l1, 2)): 3, ((l2, 1),): Fraction(1, 2), (): 1})
    v1, v2 = MultiPoly.var(l1), MultiPoly.var(l2)
    assert p.substitute(l1, v1) is p
    assert p.substitute(1, MultiPoly.var(d)) is p  # x does not occur
    assert p.substitute_many({l1: v1, l2: v2}) is p
    # the identity target is dropped, the collapse of l2 onto l1 is kept
    collapse = {l1: v1, l2: v1}
    raw = {v: t.raw() for v, t in collapse.items()}
    assert p.substitute_many(collapse).raw() == two_pass_substitute(p.raw(), raw)
    assert p.substitute_many(collapse) == p.substitute(l2, v1)


def _numbers(value):
    """Every coefficient, exponent and variable id in a kernel argument."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    else:
        yield value


def test_poly_hands_the_kernel_ints_only(monkeypatch):
    seen = []

    def watched(fn):
        def wrapper(*args):
            for a in args:
                seen.extend(type(c) for c in _numbers(a))
            out = fn(*args)
            return watched(out) if callable(out) else out  # a compiled substitution

        return wrapper

    for name in ("add_terms", "sub_terms", "scale_terms", "mul_terms", "pow_terms",
                 "substitute_terms", "substitution"):
        monkeypatch.setattr(_kernel, name, watched(getattr(_kernel, name)))
    d, l1, l2 = 0, 3, 4
    a = MultiPoly({((d, 2),): Fraction(1, 2), ((l1, 1),): Fraction(2, 3), (): 1})
    b = MultiPoly({((d, 1), (l1, 1)): Fraction(3, 4), (): Fraction(5, 2)})
    c = MultiPoly({((d, 1),): 2, ((l2, 1),): -1})
    t = MultiPoly({((l2, 1),): Fraction(1, 3), (): Fraction(1, 2)})
    swap = {l1: MultiPoly.var(l2), l2: MultiPoly.var(l1)}
    apply = substitution({d: t, **swap})
    results = [parse_poly("(1/2*D - 2/3*l1)^2 + 3/4*l2*x")]
    for p in (a, b, c):
        for q in (a, b, c):
            results += [p + q, p - q, p * q]
        results += [p * Fraction(3, 5), Fraction(-2, 7) * p, -p, p**3]
        results += [p.substitute(d, b), p.substitute(l1, t), p.substitute(l2, c)]
        results += [p.substitute_many({d: t, l1: b}), p.substitute_many(swap), apply(p), apply(p)]
    assert seen and set(seen) == {int}


# -- the compiled substitution ---------------------------------------------------

KVARS = (0, 1, 3, 4, 5)  # D, x, l1, l2, l3


@st.composite
def term_dicts(draw, max_terms=5, max_exp=3):
    """Int term dicts over KVARS, as `MultiPoly` hands them over."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        key = tuple((v, e) for v in KVARS if (e := draw(st.integers(0, max_exp))))
        terms[key] = draw(st.integers(-4, 4))
    return {key: c for key, c in terms.items() if c}


@st.composite
def key_pairs(draw):
    """Two sorted monomial keys: over disjoint variable ranges in either
    order, interleaved, equal, or with one of them empty."""
    mode = draw(st.sampled_from(("disjoint", "interleaved", "equal", "empty")))
    a, b = (draw(st.dictionaries(st.integers(0, 9), st.integers(1, 5))) for _ in range(2))
    if mode == "disjoint":
        cut = draw(st.integers(0, 10))
        a = {v: e for v, e in a.items() if v < cut}
        b = {v: e for v, e in b.items() if v >= cut}
    elif mode == "equal":
        b = dict(a)
    elif mode == "empty":
        a = {}
    if draw(st.booleans()):
        a, b = b, a
    return tuple(sorted(a.items())), tuple(sorted(b.items()))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(key_pairs())
def test_merge_keys_equals_merge_through_exponent_dicts(pair):
    ka, kb = pair
    exps = dict(ka)
    for v, e in kb:
        exps[v] = exps.get(v, 0) + e
    assert K.merge_keys(ka, kb) == tuple(sorted(exps.items()))


@st.composite
def target_maps(draw):
    """One to three substituted variables, each sent to a polynomial of
    degree at most 2 that may mention any variable, the others too."""
    subst = draw(st.lists(st.sampled_from(KVARS), min_size=1, max_size=3, unique=True))
    return {v: draw(term_dicts(max_terms=3, max_exp=1)) for v in subst}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(target_maps(), st.lists(term_dicts(), min_size=1, max_size=6))
def test_compiled_substitution_equals_one_shot(targets, polys):
    apply = K.substitution(targets)
    # one compiled substitution applied to many inputs in turn, some twice
    for terms in polys + polys[::-1]:
        out = apply(terms)
        assert out == two_pass_substitute(terms, targets)
        assert all_int(out)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(target_maps(), term_dicts())
def test_compiled_substitution_returns_untouched_input(targets, terms):
    apply = K.substitution(targets)
    untouched = {
        key: c for key, c in terms.items() if not any(v in targets for v, _ in key)
    }
    assert apply(untouched) is untouched
    empty = {}
    assert apply(empty) is empty


@settings(max_examples=150, derandomize=True, deadline=None)
@given(target_maps(), term_dicts())
def test_compiled_substitution_maps_a_key_it_has_met_without_products(targets, terms):
    # applied again to polynomials whose keys it has met (the same one,
    # and its keys in reverse order with other coefficients), a compiled
    # substitution only adds up the images it keeps
    apply = K.substitution(targets)
    first = apply(terms)
    again = {key: -3 * c for key, c in reversed(terms.items())}
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("mul_terms", "merge_keys"):
            real = getattr(_polypure, name)
            mp.setattr(_polypure, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        outs = apply(terms), apply(again)
    assert calls == []
    assert outs[0] == first == two_pass_substitute(terms, targets)
    assert outs[1] == two_pass_substitute(again, targets)


def test_threads_building_one_power_at_once_leave_each_power_at_its_exponent(monkeypatch):
    """Two threads apply one compiled substitution to D^2 at the same time:
    each is held inside its first product until the other is inside its
    own, so both build the square of the target before either stores it.
    Both must get the square, and the next power built afterwards must be
    the cube: a power list extended by appending would hold the square
    twice and hand it out for the cube."""
    d, l1, l2 = 0, 3, 4
    target = {((d, 1),): 1, ((l1, 1),): 1, ((l2, 1),): 2, (): 3}
    square, cube = K.pow_terms(target, 2), K.pow_terms(target, 3)
    apply = K.substitution({d: target})
    barrier, entered, real = threading.Barrier(2, timeout=10), itertools.count(), _polypure.mul_terms

    def held(a, b):
        if next(entered) < 2:
            barrier.wait()
        return real(a, b)

    monkeypatch.setattr(_polypure, "mul_terms", held)
    results = []
    threads = [threading.Thread(target=lambda: results.append(apply({((d, 2),): 1}))) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
        assert not t.is_alive()
    assert next(entered) >= 2, "the two threads did not build the square at once"
    assert results == [square, square]
    assert apply({((d, 3),): 1}) == cube
    assert apply({((d, 2),): 5, ((d, 3), (l1, 1)): -1}) == K.sub_terms(
        K.scale_terms(square, 5), K.mul_terms(cube, {((l1, 1),): 1}))


def test_compiled_substitution_swaps_simultaneously():
    l1, l2, d = 3, 4, 0
    swap = K.substitution({l1: {((l2, 1),): 1}, l2: {((l1, 1),): 1}})
    p = {((l1, 2), (l2, 1)): 3, ((d, 1), (l1, 1)): Fraction(1, 2), (): 1}
    q = {((l2, 3),): -1, ((d, 2), (l1, 1), (l2, 1)): 2}
    assert swap(p) == {((l1, 1), (l2, 2)): 3, ((d, 1), (l2, 1)): Fraction(1, 2), (): 1}
    assert swap(q) == {((l1, 3),): -1, ((d, 2), (l1, 1), (l2, 1)): 2}
    assert swap(swap(p)) == p and swap(swap(q)) == q


def test_poly_substitution_wrapper():
    d, l1, l2 = 0, 3, 4
    p = MultiPoly({((d, 1), (l1, 2)): 3, ((l2, 1),): Fraction(1, 2), (): 1})
    q = MultiPoly({((d, 2),): 1})
    targets = {l1: MultiPoly.var(l2), l2: MultiPoly({((l1, 1),): 1, ((d, 1),): -1})}
    apply = substitution(targets)
    assert apply(p) == p.substitute_many(targets)
    assert apply(q) is q
    # identity targets are dropped: nothing is left to substitute
    keep = substitution({l1: MultiPoly.var(l1), d: MultiPoly.var(d)})
    assert keep(p) is p
