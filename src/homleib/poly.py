"""Exact sparse multivariate polynomials over the rationals.

Variables live in a fixed namespace:

* ``D``   -- the translation generator acting on a free module,
* ``x``   -- the formal slot used inside structure polynomials,
* ``l1``, ``l2``, ... -- evaluation variables for bracket parameters.

``D``, ``x`` and ``mu`` are reserved: definition files may not introduce
them as user symbols.  Polynomials are immutable and normalized eagerly
(no zero coefficients, no zero exponents, integer numerators over a
denominator that shares no factor with all of them), so structural
equality is semantic equality.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import partial
from itertools import islice
from math import gcd, lcm
from typing import Callable, Iterator, Mapping, Union

from . import _kernel as K

Rat = Union[int, Fraction]

# Variable ids.  The integer order fixes the canonical (graded-lex) term order.
D = 0
X = 1
_FIRST_LAMBDA = 2  # l1 is 3: id 2 is unused


def lam(i: int) -> int:
    """Variable id of the i-th evaluation variable l<i> (i >= 1)."""
    if i < 1:
        raise ValueError("lambda variables are numbered from 1")
    return _FIRST_LAMBDA + i


def var_name(v: int) -> str:
    """The printed name of variable id v; an id naming no variable is a
    PolyError, since no name for it would parse back."""
    if v == D:
        return "D"
    if v == X:
        return "x"
    if v > _FIRST_LAMBDA:
        return f"l{v - _FIRST_LAMBDA}"
    raise PolyError(f"variable id {v} names no variable")


RESERVED_NAMES = frozenset({"D", "x", "mu"})


class PolyError(ValueError):
    pass


def _as_rational(c: Rat) -> Rat:
    """The exact value of c in its stored form: int when integral,
    Fraction otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class MultiPoly:
    """Immutable sparse polynomial over the rationals, held as integer
    numerators over one common denominator, as FLINT's fmpq_mpoly holds
    an integer polynomial with a rational content.

    `_terms` maps each monomial key to a nonzero int numerator and
    `_den` is a positive int.  The form is canonical: no prime divides
    `_den` and every numerator, so `_den` is 1 for an integral or zero
    polynomial, and two polynomials are equal exactly when both parts
    are.  This class is the only place that knows about rationals: ring
    operations and substitutions hand the kernel int term dicts only (a
    rational substitution target has its denominator cleared first, see
    `_substituted`), and with every denominator 1 they make no gcd or lcm
    at all.  Rational values are built only where a caller asks for them
    (`raw`, `terms`, `constant_value` and printing), int-first: an
    integral coefficient as an int, another as a Fraction.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[tuple, Rat] | None = None):
        """From any dict of rational coefficients; zero ones are dropped."""
        out = {}
        if terms:
            for key, c in terms.items():
                c = _as_rational(c)
                if c:
                    out[key] = c
        p = MultiPoly.from_int_first(out)
        self._terms, self._den = p._terms, p._den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return _ZERO_POLY

    @staticmethod
    def const(c: Rat) -> "MultiPoly":
        c = _as_rational(c)
        if type(c) is int:
            return _own({(): c} if c else {}, 1)
        return _own({(): c.numerator}, c.denominator)

    @staticmethod
    def var(v: int, exp: int = 1) -> "MultiPoly":
        if exp < 0:
            raise PolyError("negative exponent")
        if exp == 0:
            return MultiPoly.const(1)
        return _own({((v, exp),): 1}, 1)

    @staticmethod
    def from_int_first(terms: dict) -> "MultiPoly":
        """From a dict of nonzero int-first coefficients, such as a kernel
        result.  An integral dict is kept as it is, so it must not be
        changed afterwards.

        The numerators are over the lcm of the denominators.  That form
        is canonical: the lcm's full power of each prime divides some
        coefficient's denominator, and that coefficient's numerator is
        prime to it."""
        den = 1
        for c in terms.values():
            if type(c) is not int:
                den = lcm(den, c.denominator)
        if den != 1:
            terms = {key: c.numerator * (den // c.denominator) for key, c in terms.items()}
        return _own(terms, den)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return other
        den = self._den
        if den == other._den:
            out = K.add_terms(a, b)
            return _own(out, 1) if den == 1 else _reduced(out, den)
        a, b, den = _aligned(self, other)
        return _reduced(K.add_terms(a, b), den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not other._terms:
            return self
        den = self._den
        if den == other._den:
            out = K.sub_terms(self._terms, other._terms)
            return _own(out, 1) if den == 1 else _reduced(out, den)
        a, b, den = _aligned(self, other)
        return _reduced(K.sub_terms(a, b), den)

    def __neg__(self) -> "MultiPoly":
        if not self._terms:
            return self
        return _own(K.scale_terms(self._terms, -1), self._den)

    def __mul__(self, other: "MultiPoly | Rat") -> "MultiPoly":
        if isinstance(other, MultiPoly):
            out = K.mul_terms(self._terms, other._terms)
            den = self._den * other._den
        else:
            c = _as_rational(other)
            out = K.scale_terms(self._terms, c.numerator)
            den = self._den * c.denominator
        return _own(out, 1) if den == 1 else _reduced(out, den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise PolyError("negative exponent")
        # Gauss's lemma: the content of a power is the power of the
        # content, so a power of a canonical form is canonical.
        return _own(K.pow_terms(self._terms, n), self._den**n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._terms.items()), self._den))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[tuple, Rat]]:
        return iter(self.raw().items())

    def raw(self) -> dict:
        """The coefficients, int-first; built afresh unless the
        denominator is 1.  Callers must not change the dict."""
        den = self._den
        if den == 1:
            return self._terms
        return {
            key: c // den if c % den == 0 else Fraction(c, den)
            for key, c in self._terms.items()
        }

    def variables(self) -> set[int]:
        return {v for key in self._terms for v, _ in key}

    def constant_value(self) -> Rat:
        """The rational value of a constant polynomial."""
        if not self._terms:
            return 0
        if set(self._terms) != {()}:
            raise PolyError(f"not a constant polynomial: {self}")
        return self.raw()[()]

    # -- substitution ---------------------------------------------------

    def substitute(self, v: int, target: "MultiPoly") -> "MultiPoly":
        """Replace every occurrence of variable v by `target`, expanded.

        Returns self when v does not occur or `target` is v itself,
        without compiling a substitution."""
        if target._den == 1 and target._terms == {((v, 1),): 1}:
            return self
        for key in self._terms:
            for u, _ in key:
                if u == v:
                    return substitution({v: target})(self)
        return self

    def substitute_many(self, targets: Mapping[int, "MultiPoly"]) -> "MultiPoly":
        """Replace each variable v in `targets` by targets[v], all at once.

        Identity targets v -> v are dropped; returns self when none remain."""
        return substitution(targets)(self)

    def __repr__(self) -> str:
        return f"MultiPoly({print_poly(self)!r})"

    def __str__(self) -> str:
        return print_poly(self)


_new = object.__new__


def _own(terms: dict, den: int) -> MultiPoly:
    """Wrap canonical numerators and their denominator without copying."""
    p = _new(MultiPoly)
    p._terms = terms
    p._den = den
    return p


def _reduced(terms: dict, den: int) -> MultiPoly:
    """Integer numerators over den, divided by their common factor with
    den: one gcd, and a division only when it is above 1."""
    g = gcd(den, *terms.values())
    if g > 1:
        den //= g
        terms = {key: c // g for key, c in terms.items()}
    return _own(terms, den)


def _aligned(a: MultiPoly, b: MultiPoly) -> tuple[dict, dict, int]:
    """The numerators of a and b over the lcm of their denominators, and
    that lcm."""
    den = lcm(a._den, b._den)
    ta = a._terms if a._den == den else K.scale_terms(a._terms, den // a._den)
    tb = b._terms if b._den == den else K.scale_terms(b._terms, den // b._den)
    return ta, tb, den


_ZERO_POLY = MultiPoly()
_ONE_TERMS = {(): 1}  # the numerators of 1


def nonzero_images(ps, apply: Callable[[MultiPoly], MultiPoly]) -> list:
    """The nonzero images of the polynomials ps under the compiled
    substitution `apply`, as ((i,), image) pairs in the order of ps, i
    the index of the polynomial, with None for an image equal to 1.

    A constant is its own image under every substitution, so it is kept
    as it is and not passed to `apply`: a vector of constants, such as a
    basis element, costs no substitution."""
    out = []
    for i, p in enumerate(ps):
        terms = p._terms
        if not terms:
            continue
        if len(terms) != 1 or () not in terms:
            p = apply(p)
            terms = p._terms
            if not terms:
                continue
        out.append(((i,), None if p._den == 1 and terms == _ONE_TERMS else p))
    return out


def substitution(targets: Mapping[int, MultiPoly]) -> Callable[[MultiPoly], MultiPoly]:
    """`MultiPoly.substitute_many` with these targets, compiled once: a
    function to apply to many polynomials, which keeps the target powers
    and monomial images it builds (see the kernel's `substitution`).

    Identity targets v -> v are dropped.  A polynomial in which no
    substituted variable occurs comes back as the same object."""
    nums, dens = {}, {}
    for v, t in targets.items():
        if t._den != 1:
            dens[v] = t._den
        elif t._terms == {((v, 1),): 1}:
            continue  # v -> v is dropped
        nums[v] = t._terms
    if not nums:
        return _unchanged
    return partial(_substituted, K.substitution(nums), dens)


def _substituted(apply, dens: dict, p: MultiPoly) -> MultiPoly:
    """p with each substituted variable v replaced by its target T_v / d_v.

    `apply` is the kernel substitution v -> T_v on integer numerators,
    and `dens` maps each v with d_v above 1 to d_v.  Such a d_v is
    cleared first: with top the highest power of v in p, a term holding
    v^e is multiplied by d_v^(top - e) and p's denominator by d_v^top, so
    that v -> T_v stays integral.  Returns p itself when nothing changes."""
    terms, den = p._terms, p._den
    if dens:
        tops = dict.fromkeys(dens, 0)
        for key in terms:
            for v, e in key:
                if v in tops and e > tops[v]:
                    tops[v] = e
        full = 1
        for v, top in tops.items():
            full *= dens[v] ** top
        if full != 1:
            den *= full
            scaled = {}
            for key, c in terms.items():
                f = full
                for v, e in key:
                    if v in dens:
                        f //= dens[v] ** e
                scaled[key] = c * f
            terms = scaled
    out = apply(terms)
    if out is p._terms:
        return p
    return _own(out, 1) if den == 1 else _reduced(out, den)


def _unchanged(p: MultiPoly) -> MultiPoly:
    return p


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _key_sort(key: tuple) -> tuple:
    # Graded-lex: total degree first, then exponent vector along the fixed
    # variable order.  Negated so that sorting ascending prints high-degree
    # terms first and the order is stable.
    deg = sum(e for _, e in key)
    return (-deg, tuple((v, -e) for v, e in key))


def print_poly(p: MultiPoly) -> str:
    """Canonical string form; parse_poly(print_poly(p)) == p."""
    if p.is_zero:
        return "0"
    terms = p.raw()
    pieces = []
    for key in sorted(terms, key=_key_sort):
        c = terms[key]
        body = "*".join(
            var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in key
        )
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        pieces.append(("-" if c < 0 else "+", text))
    sign, first = pieces[0]
    out = ("-" if sign == "-" else "") + first
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class ParseError(PolyError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# Deepest nesting of parentheses and unary minus signs, counted together,
# that an expression may have.  Each level is a Python call or four, so
# the bound keeps parsing well inside the interpreter's recursion limit.
MAX_NESTING = 100
# Highest deformation order a definition file may declare or key: an
# order-n check does O(n^2) evaluations per basis pair.
MAX_ORDER = 100
# Highest cochain arity a definition file or a random cochain may have:
# d at arity n visits rank^(n+1) keys.
MAX_ARITY = 8
# Most digits a numeral may have, on every version: Python 3.11's int() refuses more.
MAX_DIGITS = 4300
# No numeral of at most this many digits is over the limit: Python refuses a lower one.
_ALWAYS_ALLOWED = getattr(sys.int_info, "str_digits_check_threshold", 640)


def _digit_limit() -> int:
    """The most digits a numeral may have: MAX_DIGITS, or the lower limit
    set for int() by `sys.set_int_max_str_digits` (0 sets none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(MAX_DIGITS, limit) if limit else MAX_DIGITS


# One token per match, after any blanks: a run of decimal digits (`\d` is
# `str.isdecimal()`, so not "²"), one other character, or the empty end token.
_TOKEN = re.compile(r"\s*(\d+|.|\Z)", re.DOTALL)
_VARS = {"D": D, "x": X}


def token_start(pattern: re.Pattern, text: str, index: int) -> int:
    """Where group 1 of match `index` of `pattern` in `text` starts; only an error pays for it."""
    return next(islice(pattern.finditer(text), index, None)).start(1)


class _Tokens:
    """A polynomial string's tokens, the next one's index and the nesting
    depth; an error is `shift` characters into the token `back` before it."""

    def __init__(self, text: str):
        self.text, self.toks, self.i, self.depth = text, _TOKEN.findall(text), 0, 0

    def error(self, message: str, back: int = 0, shift: int = 0) -> ParseError:
        return ParseError(message, token_start(_TOKEN, self.text, self.i - back) + shift)

    def uint(self) -> int:
        tok = self.toks[self.i]
        if not tok.isdecimal():
            raise self.error("expected an integer")
        if len(tok) > _ALWAYS_ALLOWED and len(tok) > (limit := _digit_limit()):
            raise self.error(f"numerals of more than {limit} digits are not supported")
        self.i += 1
        return int(tok)


def parse_poly(text: str) -> MultiPoly:
    """Parse the expression grammar used by definition files.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | var | '(' expr ')'
    var    := 'D' | 'x' | 'l' uint

    Blanks may stand between any two tokens (digit runs and single
    characters): "l 3" reads as l3 and "1 / 2" as 1/2.
    """
    t = _Tokens(text)
    p = _parse_expr(t)
    if t.toks[t.i]:
        raise t.error("unexpected trailing input")
    return p


def _parse_expr(t: _Tokens) -> MultiPoly:
    sign = t.toks[t.i]
    if sign == "-" or sign == "+":
        t.i += 1
    p = -_parse_term(t) if sign == "-" else _parse_term(t)
    while (sign := t.toks[t.i]) == "+" or sign == "-":
        t.i += 1
        q = _parse_term(t)
        p = p + q if sign == "+" else p - q
    return p


def _parse_term(t: _Tokens) -> MultiPoly:
    p = _parse_factor(t)
    while t.toks[t.i] == "*":
        t.i += 1
        p = p * _parse_factor(t)
    return p


def _parse_factor(t: _Tokens) -> MultiPoly:
    p = _parse_atom(t)
    if t.toks[t.i] == "^":
        t.i += 1
        return p ** t.uint()
    return p


def _parse_atom(t: _Tokens) -> MultiPoly:
    tok = t.toks[t.i]
    if tok == "(" or tok == "-":
        if t.depth == MAX_NESTING:
            raise t.error(f"nested deeper than {MAX_NESTING} levels")
        t.depth += 1
        t.i += 1
        if tok == "(":
            p = _parse_expr(t)
            if t.toks[t.i] != ")":
                raise t.error("expected ')'")
            t.i += 1
        else:
            # Unary minus inside a factor; tolerated beyond the strict grammar.
            p = -_parse_atom(t)
        t.depth -= 1
        return p
    if tok.isdecimal():
        num = t.uint()
        if t.toks[t.i] == "/":
            t.i += 1
            den = t.uint()
            if den == 0:
                raise t.error("zero denominator", 1, len(t.toks[t.i - 1]))
            return MultiPoly.const(Fraction(num, den))
        return MultiPoly.const(num)
    if tok in _VARS:
        t.i += 1
        return MultiPoly.var(_VARS[tok])
    if tok == "l":
        t.i += 1
        index = t.uint()
        if index < 1:
            raise t.error("lambda variables are numbered from 1", 2, 1)
        return MultiPoly.var(lam(index))
    raise t.error(f"unexpected character {tok!r}" if tok else "unexpected end of input")
