"""Integer numerators over one denominator against the rational-dict
arithmetic they replaced (tests/reference_poly.py).

Every operation on random rational polynomials (denominators 1 to 12,
integral Fractions, zero and constants among them) must give the
oracle's `raw()` dict, coefficient types included, and a canonical
form: a positive denominator that shares no factor with all the
numerators, 1 exactly when the polynomial is integral.  Integral inputs
must never leave denominator 1."""

from fractions import Fraction
from functools import reduce
from math import gcd

from hypothesis import given, settings, strategies as st

import reference_poly as ref
from homleib.poly import D, X, MultiPoly, lam, parse_poly, print_poly, substitution

VARS = (D, X, lam(1), lam(2))
L1, L2 = lam(1), lam(2)


def _coefficient(max_den: int):
    """A rational with denominator up to max_den, now and then zero or an
    integral value given as a Fraction."""
    value = st.builds(Fraction, st.integers(-12, 12), st.integers(1, max_den))
    return st.one_of(value, value.map(lambda c: c.numerator if c.denominator == 1 else c))


@st.composite
def rational_dicts(draw, max_den=12, max_terms=4, max_exp=2):
    """Term dicts as callers hand them to the constructor: zero, a
    constant, or up to max_terms monomials."""
    shape = draw(st.sampled_from(("zero", "constant", "general", "general")))
    if shape == "zero":
        return {}
    if shape == "constant":
        return {(): draw(_coefficient(max_den))}
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        key = tuple((v, e) for v in VARS if (e := draw(st.integers(0, max_exp))))
        terms[key] = draw(_coefficient(max_den))
    return terms


def pair(terms: dict) -> tuple:
    return MultiPoly(terms), ref.RationalPoly(terms)


def typed(terms: dict) -> dict:
    return {key: (type(c), c) for key, c in terms.items()}


def assert_canonical(p: MultiPoly):
    den, nums = p._den, p._terms
    assert type(den) is int and den >= 1
    assert all(type(c) is int and c for c in nums.values())
    assert reduce(gcd, nums.values(), den) == 1
    integral = all(type(c) is int for c in p.raw().values())
    assert (den == 1) == integral


def assert_same(new: MultiPoly, old: ref.RationalPoly):
    assert_canonical(new)
    assert typed(new.raw()) == typed(old.raw())
    assert new == MultiPoly(old.raw()) and hash(new) == hash(MultiPoly(old.raw()))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    rational_dicts(),
    rational_dicts(),
    st.integers(-6, 6),
    _coefficient(12),
    st.integers(0, 3),
)
def test_ring_operations_match_the_rational_oracle(ta, tb, k, q, n):
    (a, ra), (b, rb) = pair(ta), pair(tb)
    assert_same(a, ra)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a * b, ra * rb)
    assert_same(-a, -ra)
    assert_same(a**n, ra**n)
    assert_same(a * k, ra * k)
    assert_same(k * a, k * ra)
    assert_same(a * q, ra * q)
    assert_same(a - a, ra - ra)


def _targets(draw, integral: bool) -> dict:
    """One to three substituted variables, each sent to a polynomial of
    degree at most 1 that may mention any variable, or to itself."""
    subst = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3, unique=True))
    max_den = 1 if integral else 12
    return {
        v: {((v, 1),): 1} if draw(st.booleans()) and draw(st.booleans())
        else draw(rational_dicts(max_den=max_den, max_terms=3, max_exp=1))
        for v in subst
    }


@st.composite
def target_maps(draw):
    choice = draw(st.sampled_from(("integral", "rational", "swap")))
    if choice == "swap":
        return {L1: {((L2, 1),): 1}, L2: {((L1, 1),): 1}}
    return _targets(draw, choice == "integral")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(rational_dicts(), st.lists(rational_dicts(max_exp=3), max_size=3), target_maps())
def test_substitutions_match_the_rational_oracle(tp, others, targets):
    p, rp = pair(tp)
    new = {v: MultiPoly(t) for v, t in targets.items()}
    old = {v: ref.RationalPoly(t) for v, t in targets.items()}
    for v in targets:
        assert_same(p.substitute(v, new[v]), rp.substitute(v, old[v]))
    assert_same(p.substitute_many(new), rp.substitute_many(old))
    apply, apply_ref = substitution(new), ref.substitution(old)
    for terms in [tp, *others, tp]:  # one compiled substitution, many inputs
        q, rq = pair(terms)
        out = apply(q)
        assert_same(out, apply_ref(rq))
        if not any(u in new for key in q.raw() for u, _ in key):
            assert out is q


@settings(max_examples=50, derandomize=True, deadline=None)
@given(rational_dicts(max_den=1), rational_dicts(max_den=1), target_maps(), st.integers(-4, 4))
def test_integral_inputs_keep_denominator_one(ta, tb, targets, k):
    a, b = MultiPoly(ta), MultiPoly(tb)
    integral = {v: MultiPoly(t) for v, t in targets.items() if all(Fraction(c).denominator == 1 for c in t.values())}
    results = [a, a + b, a - b, b - a, a * b, -a, a**3, a * k, a * Fraction(2 * k, 2)]
    results += [a.substitute(v, t) for v, t in integral.items()]
    results += [a.substitute_many(integral), substitution(integral)(b)]
    results.append(MultiPoly.from_int_first({((L1, 1),): 2, ((D, 1),): -1, (): 3}))
    for p in results:
        assert p._den == 1
        assert_canonical(p)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(rational_dicts(), rational_dicts(), rational_dicts())
def test_equal_values_along_different_paths_are_equal_and_hash_equal(ta, tb, tc):
    a, b, c = MultiPoly(ta), MultiPoly(tb), MultiPoly(tc)
    same = [
        ((a + b) - b, a),
        (a * (b + c), a * b + a * c),
        ((a * b) * c, a * (b * c)),
        (a * Fraction(1, 3) * 3, a),
        (parse_poly(print_poly(a)), a),
        (MultiPoly(a.raw()), a),
        (MultiPoly({key: Fraction(v) for key, v in a.raw().items()}), a),
        (sum((MultiPoly({key: v}) for key, v in a.raw().items()), MultiPoly.zero()), a),
    ]
    for left, right in same:
        assert left == right and hash(left) == hash(right)
        assert_canonical(left)


def test_examples():
    half = MultiPoly.const(Fraction(1, 2))
    assert (half._den, half._terms) == (2, {(): 1})
    third_d = MultiPoly({((D, 1),): Fraction(2, 6), (): Fraction(4, 6)})
    assert (third_d._den, third_d._terms) == (3, {((D, 1),): 1, (): 2})
    assert third_d.raw() == {((D, 1),): Fraction(1, 3), (): Fraction(2, 3)}
    # a sum whose denominators cancel is integral again, with int values
    mixed = MultiPoly({((D, 1),): Fraction(1, 2), (): 3})
    assert typed(mixed.raw()) == {((D, 1),): (Fraction, Fraction(1, 2)), (): (int, 3)}
    assert typed((mixed + mixed).raw()) == {((D, 1),): (int, 1), (): (int, 6)}
    assert (mixed - mixed)._den == 1 and (mixed - mixed).is_zero
    assert (mixed * 0)._den == 1
    assert MultiPoly.const(Fraction(6, 4)).constant_value() == Fraction(3, 2)
    assert type(MultiPoly.const(Fraction(6, 3)).constant_value()) is int
    assert MultiPoly.zero() + mixed is mixed and mixed + MultiPoly.zero() is mixed
    assert mixed - MultiPoly.zero() is mixed
    # a rational target substitutes rational values
    p = parse_poly("D^2 + 1")
    assert p.substitute(D, parse_poly("1/2*l1")) == parse_poly("1/4*l1^2 + 1")
    assert substitution({D: parse_poly("1/3")})(p) == MultiPoly.const(Fraction(10, 9))
