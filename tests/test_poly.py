"""Ring axioms, substitution, and parse/print round-trips."""

import glob
import os
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_scanner
from homleib import poly
from homleib.poly import (
    D,
    MAX_DIGITS,
    MAX_NESTING,
    X,
    MultiPoly,
    ParseError,
    PolyError,
    lam,
    parse_poly,
    print_poly,
    var_name,
)

VARS = [D, X, lam(1), lam(2)]


@st.composite
def polys(draw, max_terms=5, max_deg=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        key = []
        budget = max_deg
        for v in draw(st.permutations(VARS)):
            e = draw(st.integers(0, budget))
            if e:
                key.append((v, e))
                budget -= e
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        if coeff:
            key = tuple(sorted(key))
            terms[key] = terms.get(key, Fraction(0)) + coeff
    return MultiPoly({k: c for k, c in terms.items() if c})


@st.composite
def linear_forms(draw):
    """A linear polynomial c0 + sum(c_v * v) over at most three variables."""
    coeffs = {v: Fraction(draw(st.integers(-3, 3))) for v in draw(st.sets(st.sampled_from(VARS), max_size=3))}
    return MultiPoly({((v, 1),): c for v, c in coeffs.items()} | {(): Fraction(draw(st.integers(-3, 3)))})


@settings(max_examples=200, derandomize=True)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.const(1) == a
    assert (a - a).is_zero


@settings(max_examples=200, derandomize=True)
@given(polys(), polys(), linear_forms())
def test_substitute_is_ring_hom(a, b, t):
    for v in (D, X):
        assert (a * b).substitute(v, t) == a.substitute(v, t) * b.substitute(v, t)
        assert (a + b).substitute(v, t) == a.substitute(v, t) + b.substitute(v, t)


@settings(max_examples=100, derandomize=True)
@given(polys(), linear_forms(), linear_forms())
def test_disjoint_substitutions_commute(p, t1, t2):
    # substitute D and x by forms not mentioning the other substituted variable
    t1 = MultiPoly({key: c for key, c in t1.terms() if key != ((X, 1),)})
    t2 = MultiPoly({key: c for key, c in t2.terms() if key != ((D, 1),)})
    one_way = p.substitute(D, t1).substitute(X, t2)
    other = p.substitute(X, t2).substitute(D, t1)
    assert one_way == other


@settings(max_examples=150, derandomize=True)
@given(polys())
def test_parse_print_round_trip(p):
    assert parse_poly(print_poly(p)) == p


def test_add_examples():
    d, x, l1 = MultiPoly.var(D), MultiPoly.var(X), MultiPoly.var(lam(1))
    assert (d + 2 * x) + MultiPoly.zero() == d + 2 * x
    assert ((d + l1) + (-d - l1)).is_zero
    assert MultiPoly.var(D, 2) + 2 * MultiPoly.var(D, 2) == 3 * MultiPoly.var(D, 2)


def test_mul_examples():
    d, l1 = MultiPoly.var(D), MultiPoly.var(lam(1))
    assert (d + l1) * (d - l1) == MultiPoly.var(D, 2) - MultiPoly.var(lam(1), 2)
    p = parse_poly("D^2 + 3*x - 1/2")
    assert p * MultiPoly.const(1) == p
    x = MultiPoly.var(X)
    assert (d + 2 * x) * Fraction(3, 2) == Fraction(3, 2) * d + 3 * x


@settings(max_examples=200, derandomize=True)
@given(polys(), st.sampled_from(VARS), linear_forms())
def test_substitute_returns_self_when_nothing_changes(p, v, t):
    assert p.substitute(v, MultiPoly.var(v)) is p
    assert p.substitute_many({v: MultiPoly.var(v)}) is p
    if v not in p.variables():
        assert p.substitute(v, t) is p


def test_substitute_compiles_nothing_when_nothing_changes(monkeypatch):
    # an absent variable, or a target equal to the variable, returns the
    # polynomial itself before any substitution is compiled; a variable
    # that occurs compiles one
    compiled, real = [], poly.substitution
    monkeypatch.setattr(poly, "substitution", lambda targets: compiled.append(dict(targets)) or real(targets))
    l1 = MultiPoly.var(lam(1))
    p = parse_poly("D^2 + 3*D*l1 - l1^2 + 2*D + l1 + 5")
    for v, t in ((X, -l1), (lam(2), l1 + MultiPoly.const(1)), (D, MultiPoly.var(D)), (lam(1), l1)):
        assert p.substitute(v, t) is p
    for c in (MultiPoly.zero(), MultiPoly.const(Fraction(2, 3))):
        assert c.substitute(D, -l1) is c
    assert compiled == []
    assert p.substitute(X, parse_poly("1/2*l1")) is p and compiled == []
    assert p.substitute(D, -l1) == parse_poly("-3*l1^2 - l1 + 5") and compiled == [{D: -l1}]


def test_substitute_examples():
    d, x, l1, l2 = (MultiPoly.var(v) for v in (D, X, lam(1), lam(2)))
    assert (d + 2 * x).substitute(D, -MultiPoly.var(lam(1))) == 2 * x - l1
    assert MultiPoly.var(D, 2).substitute(
        D, MultiPoly.var(D) + MultiPoly.var(lam(1))
    ) == parse_poly("D^2 + 2*D*l1 + l1^2")
    assert (x * d).substitute(
        X, MultiPoly.var(lam(1)) + MultiPoly.var(lam(2))
    ) == l1 * d + l2 * d


def test_substitute_by_form_containing_same_variable():
    # one-shot replacement: D -> D + l1 inside D^2 expands, no iteration
    p = MultiPoly.var(D, 2)
    q = p.substitute(D, MultiPoly.var(D) + MultiPoly.var(lam(1)))
    assert q == parse_poly("(D + l1)^2")


def test_zero_and_eq():
    assert (parse_poly("D + l1") - parse_poly("l1 + D")).is_zero
    assert parse_poly("D*x") == parse_poly("x*D")
    assert not parse_poly("D").is_zero


def test_parse_examples():
    assert parse_poly("D + 2*x") == MultiPoly.var(D) + 2 * MultiPoly.var(X)
    assert parse_poly("(D+l1)^2") == parse_poly("D^2 + 2*D*l1 + l1^2")
    assert parse_poly("1/2*D - 3") == Fraction(1, 2) * MultiPoly.var(D) - MultiPoly.const(3)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("D + * 2")
    assert exc.value.pos == 4
    with pytest.raises(ParseError):
        parse_poly("D + ")
    with pytest.raises(ParseError):
        parse_poly("y + 1")
    with pytest.raises(ParseError):
        parse_poly("1/0")
    with pytest.raises(ParseError) as exc:
        parse_poly("D + l0")
    assert exc.value.pos == 5
    with pytest.raises(ParseError) as exc:
        parse_poly("mu")
    assert exc.value.pos == 0


@pytest.mark.parametrize(
    "text, message",
    [
        # read_uint: an exponent, a lambda index or a denominator
        ("x^²", "expected an integer (at position 2)"),
        ("l²", "expected an integer (at position 1)"),
        ("1/¹", "expected an integer (at position 2)"),
        # _parse_atom: a leading digit
        ("²*D", "unexpected character '²' (at position 0)"),
    ],
)
def test_digits_that_int_rejects_are_parse_errors(text, message):
    # "²" passes str.isdigit() but not int(); only decimal digits are read
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert str(exc.value) == message


def test_other_decimal_digits_still_parse():
    assert parse_poly("x^٣") == parse_poly("x^3")  # ARABIC-INDIC DIGIT THREE


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit here")
def test_a_numeral_at_the_lowest_digit_limit_skips_the_limit_lookup(monkeypatch):
    # 640 is the lowest positive limit Python accepts, so a numeral of at
    # most 640 digits never looks the limit up; one digit more does, and
    # gets the located error
    real, looked_up = poly._digit_limit, []
    monkeypatch.setattr(poly, "_digit_limit", lambda: looked_up.append(1) or real())
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert parse_poly("2*" + "7" * 640 + " + D") == MultiPoly.const(int("7" * 640)) * 2 + MultiPoly.var(D)
        assert looked_up == []
        with pytest.raises(ParseError) as exc:
            parse_poly("2*" + "7" * 641 + " + D")
        assert str(exc.value) == "numerals of more than 640 digits are not supported (at position 2)"
        assert looked_up == [1]
    finally:
        sys.set_int_max_str_digits(old)


def test_nesting_beyond_the_limit_is_a_parse_error():
    deep = "(" * MAX_NESTING + "D" + ")" * MAX_NESTING
    assert parse_poly(deep) == MultiPoly.var(D)
    assert parse_poly("2*" + "-" * MAX_NESTING + "D") == MultiPoly.var(D) * 2
    with pytest.raises(ParseError) as exc:
        parse_poly("(" + deep + ")")
    assert exc.value.pos == MAX_NESTING
    with pytest.raises(ParseError) as exc:
        parse_poly("(" * 3000 + "D" + ")" * 3000)
    assert exc.value.pos == MAX_NESTING
    with pytest.raises(ParseError) as exc:
        parse_poly("D*" + "-" * 3000 + "1")
    assert exc.value.pos == 2 + MAX_NESTING


def test_an_id_naming_no_variable_does_not_print():
    assert [var_name(v) for v in (D, X, lam(1), lam(12))] == ["D", "x", "l1", "l12"]
    for v in (2, -1):
        with pytest.raises(PolyError):
            var_name(v)
        with pytest.raises(PolyError):
            print_poly(MultiPoly({((v, 1),): 1}))
    with pytest.raises(PolyError):
        print_poly(MultiPoly({((D, 1), (2, 3)): 5, (): 1}))


def test_print_is_canonical_and_deterministic():
    p = parse_poly("x + D + 2")
    q = parse_poly("2 + D + x")
    assert print_poly(p) == print_poly(q) == "D + x + 2"
    assert print_poly(MultiPoly.zero()) == "0"
    assert print_poly(parse_poly("-D - 1/2")) == "-D - 1/2"


# -- the token-list parser against its character-at-a-time reference ---------


def _parse_outcome(parse, text):
    """The printed value, or the error's type, message and position."""
    try:
        return print_poly(parse(text))
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


def assert_same_parse(text):
    assert _parse_outcome(parse_poly, text) == _parse_outcome(reference_scanner.parse_poly, text), repr(text)


DEFS_DIR = os.path.join(os.path.dirname(__file__), "..", "defs")


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(DEFS_DIR, "*.def"))), ids=os.path.basename)
def test_parser_matches_reference_on_shipped_strings(path):
    with open(path, encoding="utf-8") as fh:
        strings = re.findall(r'"([^"\n]*)"', fh.read())
    assert strings
    for text in strings:
        assert_same_parse(text)


def _nested(k):
    # a leading sign of an expression is not a nesting level
    return ["(" * k + "D" + ")" * k, "-" + "(" * k + "D" + ")" * k, "2*" + "-" * k + "D"]


@pytest.mark.parametrize(
    "text",
    [
        "l 3", "1 / 2", "1/ 0 ", "l 0", "D + l0", "x^²", "²*D", "x^٣", "", "   ", "-(D", "D)", "--D", "-+D",
        *_nested(MAX_NESTING - 1), *_nested(MAX_NESTING), *_nested(MAX_NESTING + 1),
        "(" * 3000, "D*" + "-" * 3000 + "1",
    ],
)
def test_parser_matches_reference_on_edges(text):
    assert_same_parse(text)


def test_parser_matches_reference_on_random_strings():
    alphabet = list("Dxl0123456789+-*/^()") + [" ", "\t", "\n", "²", "٣", "\u00a0", "é"]
    rng = random.Random(5)
    for _ in range(5000):
        assert_same_parse("".join(rng.choices(alphabet, k=rng.randint(0, 12))))


def test_token_classes_are_isspace_and_isdecimal():
    # the parser skips what str.isspace() calls blank and reads what
    # str.isdecimal() calls a digit, on every code point
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for cls, method in ((r"\s", str.isspace), (r"\d", str.isdecimal)):
        assert cls in poly._TOKEN.pattern
        assert re.findall(cls, every, poly._TOKEN.flags) == list(filter(method, every))


@pytest.mark.parametrize(
    "text, pos",
    [("x^" + "9" * 5000, 2), ("l" + "9" * 5000, 1), ("9" * 5000 + "*D", 0), ("1/ " + "7" * (MAX_DIGITS + 1), 3)],
)
def test_a_numeral_of_too_many_digits_is_a_parse_error(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert str(exc.value) == f"numerals of more than {MAX_DIGITS} digits are not supported (at position {pos})"
    assert exc.value.pos == pos
    assert parse_poly("9" * MAX_DIGITS) == MultiPoly.const(10**MAX_DIGITS - 1)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit here")
def test_a_lower_digit_limit_for_int_is_a_parse_error_too():
    # int() refuses a numeral above its own limit, which a program may set
    # below MAX_DIGITS; the parser refuses it first, at the numeral
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ParseError) as exc:
            parse_poly("x^" + "9" * 1000)
        assert str(exc.value) == "numerals of more than 640 digits are not supported (at position 2)"
        assert parse_poly("9" * 640) == MultiPoly.const(10**640 - 1)
    finally:
        sys.set_int_max_str_digits(old)
