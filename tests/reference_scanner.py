"""References for the two scanners, each stepping through the text one
character per call.

`parse_sections` keeps the line and column as it goes, and `parse_poly`
reads a polynomial string with a character scanner of its own.
`definitions.parse_definition` and `poly.parse_poly` instead split the
whole text with one compiled pattern and walk the token list by index,
working out a position only when they raise.  The differential tests in
test_definitions.py and test_poly.py require each pair to give the same
result, or the same error, on every input."""

from fractions import Fraction

from homleib.definitions import _KNOWN_KINDS, DefinitionError
from homleib.poly import MAX_NESTING, D, X, MultiPoly, ParseError, lam


class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n: int = 1):
        for _ in range(n):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def skip(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance()
            elif ch == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            else:
                return

    def peek(self) -> str:
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str) -> DefinitionError:
        return DefinitionError(f"line {self.line}, column {self.col}: {message}")

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self._advance()

    def ident(self) -> str:
        self.skip()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self._advance()
        if self.pos == start:
            raise self.error("expected an identifier")
        return self.text[start : self.pos]

    def string(self) -> str:
        self.expect('"')
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != '"':
            if self.text[self.pos] == "\n":
                raise self.error("unterminated string")
            self._advance()
        if self.pos >= len(self.text):
            raise self.error("unterminated string")
        s = self.text[start : self.pos]
        self._advance()
        return s

    def value(self, depth: int = 0):
        ch = self.peek()
        if ch == '"':
            return self.string()
        if ch == "[":
            if depth == MAX_NESTING:
                raise self.error(f"lists nested deeper than {MAX_NESTING} levels")
            self._advance()
            items = []
            if self.peek() == "]":
                self._advance()
                return items
            while True:
                items.append(self.value(depth + 1))
                ch = self.peek()
                if ch == ",":
                    self._advance()
                elif ch == "]":
                    self._advance()
                    return items
                else:
                    raise self.error("expected ',' or ']' in list")
        raise self.error("expected a string or a list")


def parse_sections(text: str) -> list:
    """The (kind, name, entries) of each section, as parse_definition
    reads them, or the DefinitionError it raises."""
    tok = _Tok(text)
    sections = []
    seen = set()
    while tok.peek():
        if tok.peek() != "[":
            raise tok.error("expected a section header")
        tok.expect("[")
        kind = tok.ident()
        name = None
        if tok.peek() == ":":
            tok._advance()
            name = tok.ident()
        tok.expect("]")
        if kind not in _KNOWN_KINDS:
            raise tok.error(f"unknown section kind {kind!r}")
        if (kind, name) in seen:
            raise tok.error(f"duplicate section [{kind if name is None else kind + ':' + name}]")
        seen.add((kind, name))
        entries = []
        while tok.peek() and tok.peek() != "[":
            key = [tok.ident()]
            while tok.peek() == ".":
                tok._advance()
                key.append(tok.ident())
            tok.expect("=")
            entries.append((tuple(key), tok.value()))
        sections.append((kind, name, entries))
    if not sections:
        raise DefinitionError("empty definition file")
    return sections


# -- the polynomial parser ------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def read_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])


def parse_poly(text: str) -> MultiPoly:
    """Parse the expression grammar used by definition files.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | var | '(' expr ')'
    var    := 'D' | 'x' | 'l' uint
    """
    sc = _Scanner(text)
    p = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("unexpected trailing input", sc.pos)
    return p


def _parse_expr(sc: _Scanner) -> MultiPoly:
    ch = sc.peek()
    negate = False
    if ch == "-":
        sc.pos += 1
        negate = True
    elif ch == "+":
        sc.pos += 1
    p = _parse_term(sc)
    if negate:
        p = -p
    while True:
        ch = sc.peek()
        if ch == "+":
            sc.pos += 1
            p = p + _parse_term(sc)
        elif ch == "-":
            sc.pos += 1
            p = p - _parse_term(sc)
        else:
            return p


def _parse_term(sc: _Scanner) -> MultiPoly:
    p = _parse_factor(sc)
    while sc.peek() == "*":
        sc.pos += 1
        p = p * _parse_factor(sc)
    return p


def _parse_factor(sc: _Scanner) -> MultiPoly:
    p = _parse_atom(sc)
    if sc.peek() == "^":
        sc.pos += 1
        return p ** sc.read_uint()
    return p


def _parse_atom(sc: _Scanner) -> MultiPoly:
    ch = sc.peek()
    if ch == "(" or ch == "-":
        if sc.depth == MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels", sc.pos)
        sc.depth += 1
        sc.pos += 1
        if ch == "(":
            p = _parse_expr(sc)
            sc.expect(")")
        else:
            # Unary minus inside a factor; tolerated beyond the strict grammar.
            p = -_parse_atom(sc)
        sc.depth -= 1
        return p
    if ch.isdecimal():
        num = sc.read_uint()
        if sc.peek() == "/":
            sc.pos += 1
            den = sc.read_uint()
            if den == 0:
                raise ParseError("zero denominator", sc.pos)
            return MultiPoly.const(Fraction(num, den))
        return MultiPoly.const(num)
    if ch == "D":
        sc.pos += 1
        return MultiPoly.var(D)
    if ch == "x":
        sc.pos += 1
        return MultiPoly.var(X)
    if ch == "l":
        sc.pos += 1
        start = sc.pos
        index = sc.read_uint()
        if index < 1:
            raise ParseError("lambda variables are numbered from 1", start)
        return MultiPoly.var(lam(index))
    if ch == "":
        raise ParseError("unexpected end of input", sc.pos)
    raise ParseError(f"unexpected character {ch!r}", sc.pos)
