"""Reference for polynomial arithmetic: the rational-dict `MultiPoly`
that the integer-content `homleib.poly.MultiPoly` replaced.  Each
coefficient is stored as its own int-first rational (an int when
integral, a Fraction otherwise); the kernel works on those values
directly, and each result is brought back to int-first form here.  The
differential tests in test_poly_content.py require both to give the same
`raw()` dict, coefficient types included."""

from fractions import Fraction
from typing import Callable, Mapping

from homleib import _kernel as K


def _as_rational(c):
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class RationalPoly:
    """Immutable sparse polynomial with rational (int-first) coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        out = {}
        if terms:
            for key, c in terms.items():
                c = _as_rational(c)
                if c:
                    out[key] = c
        self._terms = out

    @staticmethod
    def _own(terms: dict) -> "RationalPoly":
        """Wrap a kernel result, each coefficient in its int-first form:
        the kernel computes with the Fractions it is given and leaves an
        integral one a Fraction."""
        p = object.__new__(RationalPoly)
        p._terms = {key: _as_rational(c) for key, c in terms.items()}
        return p

    def __add__(self, other):
        return RationalPoly._own(K.add_terms(self._terms, other._terms))

    def __sub__(self, other):
        return RationalPoly._own(K.sub_terms(self._terms, other._terms))

    def __neg__(self):
        return RationalPoly._own(K.scale_terms(self._terms, -1))

    def __mul__(self, other):
        if isinstance(other, RationalPoly):
            return RationalPoly._own(K.mul_terms(self._terms, other._terms))
        return RationalPoly._own(K.scale_terms(self._terms, _as_rational(other)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return RationalPoly._own(K.pow_terms(self._terms, n))

    def raw(self) -> dict:
        return self._terms

    def substitute(self, v: int, target: "RationalPoly") -> "RationalPoly":
        if not any(u == v for key in self._terms for u, _ in key):
            return self
        if target._terms == {((v, 1),): 1}:
            return self
        return RationalPoly._own(K.substitute_terms(self._terms, v, target._terms))

    def substitute_many(self, targets: Mapping[int, "RationalPoly"]) -> "RationalPoly":
        return substitution(targets)(self)


def substitution(targets: Mapping[int, RationalPoly]) -> Callable[[RationalPoly], RationalPoly]:
    raw = {v: t._terms for v, t in targets.items() if t._terms != {((v, 1),): 1}}
    if not raw:
        return lambda p: p
    apply = K.substitution(raw)

    def substituted(p: RationalPoly) -> RationalPoly:
        out = apply(p._terms)
        return p if out is p._terms else RationalPoly._own(out)

    return substituted
