"""Reference for the definition-file scanner: a character-at-a-time
tokenizer.  It steps one character per call and keeps the line and column
as it goes.  `definitions.parse_definition` instead splits the whole
text with one compiled pattern and walks the token list by index,
working out a position only when it raises.  The differential tests in
test_definitions.py require both to give the same sections, or the same
error text, on every input."""

from homleib.definitions import _KNOWN_KINDS, DefinitionError
from homleib.poly import MAX_NESTING


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
