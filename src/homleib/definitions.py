"""Textual definition files: parser, resolver and canonical printer.

A file is a sequence of sections; each section has a kind, an optional
name, and `key = value` entries where keys are dotted paths and values
are strings or (nested) lists of values.  Polynomial-valued strings use
the expression grammar of poly.parse_poly.  Section kinds:

    [algebra]            rank, basis names, twist matrix, bracket table
    [finite]             finite-dimensional data for the current-algebra lift
    [operator:NAME]      a matrix over polynomials in D
    [representation]     module basis, twist, action tables, optional nm
    [cochain:NAME]       arity and value table
    [ns]                 three product tables and a twist
    [deformation:NAME]   per-order operator matrices and bracket tables

`#` starts a comment running to the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .poly import (
    MAX_NESTING,
    MultiPoly,
    ParseError,
    RESERVED_NAMES,
    X,
    D,
    lam,
    parse_poly,
    print_poly,
)
from .structure import (
    ConformalAlgebra,
    DimensionError,
    PdModuleMap,
    normalize_table,
)
from .representation import Representation
from .cohomology import Cochain
from .ns import NSAlgebra
from .deformation import DeformationData, make_deformation


class DefinitionError(ValueError):
    pass


Value = "str | list"


@dataclass
class Section:
    kind: str
    name: str | None
    entries: list = field(default_factory=list)  # (key tuple, value) pairs

    def get(self, *key, default=None):
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def require(self, *key):
        v = self.get(*key)
        if v is None:
            raise DefinitionError(f"section [{self.label}] is missing '{'.'.join(key)}'")
        return v

    def prefixed(self, head: str):
        return [(k, v) for k, v in self.entries if k and k[0] == head]

    @property
    def label(self) -> str:
        return self.kind if self.name is None else f"{self.kind}:{self.name}"


@dataclass
class DefinitionFile:
    sections: list

    def all_of(self, kind: str) -> list:
        return [s for s in self.sections if s.kind == kind]

    def one_of(self, kind: str) -> Section:
        found = self.all_of(kind)
        if not found:
            raise DefinitionError(f"no [{kind}] section in file")
        if len(found) > 1:
            raise DefinitionError(f"expected exactly one [{kind}] section")
        return found[0]

    def named(self, kind: str, name: str | None) -> Section:
        for s in self.all_of(kind):
            if name is None or s.name == name:
                return s
        where = kind if name is None else f"{kind}:{name}"
        raise DefinitionError(f"no [{where}] section in file")


# ---------------------------------------------------------------------------
# tokenizer + parser
# ---------------------------------------------------------------------------


# Blanks and `#` comments; a comment ends before its newline.
_SKIP = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
# In a str pattern `\w` is exactly `str.isalnum()` or `_`.
_IDENT = re.compile(r"\w*")
# A string body runs to the next quote and may not cross a newline.
_STRING_BODY = re.compile(r'[^"\n]*')


class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip(self):
        self.pos = _SKIP.match(self.text, self.pos).end()

    def peek(self) -> str:
        self.skip()
        return self.text[self.pos : self.pos + 1]

    def error(self, message: str) -> DefinitionError:
        """The message at the current position, with a 1-based line and column."""
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - self.text.rfind("\n", 0, self.pos)
        return DefinitionError(f"line {line}, column {col}: {message}")

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self) -> str:
        self.skip()
        start = self.pos
        self.pos = _IDENT.match(self.text, start).end()
        if self.pos == start:
            raise self.error("expected an identifier")
        return self.text[start : self.pos]

    def string(self) -> str:
        self.expect('"')
        start = self.pos
        self.pos = end = _STRING_BODY.match(self.text, start).end()
        if end == len(self.text) or self.text[end] == "\n":
            raise self.error("unterminated string")
        self.pos = end + 1
        return self.text[start:end]

    def value(self, depth: int = 0):
        ch = self.peek()
        if ch == '"':
            return self.string()
        if ch == "[":
            if depth == MAX_NESTING:
                raise self.error(f"lists nested deeper than {MAX_NESTING} levels")
            self.pos += 1
            items = []
            if self.peek() == "]":
                self.pos += 1
                return items
            while True:
                items.append(self.value(depth + 1))
                ch = self.peek()
                if ch == ",":
                    self.pos += 1
                elif ch == "]":
                    self.pos += 1
                    return items
                else:
                    raise self.error("expected ',' or ']' in list")
        raise self.error("expected a string or a list")


_KNOWN_KINDS = {
    "algebra",
    "finite",
    "operator",
    "representation",
    "cochain",
    "ns",
    "deformation",
}


def parse_definition(text: str) -> DefinitionFile:
    tok = _Tok(text)
    sections: list[Section] = []
    seen: set[tuple[str, str | None]] = set()
    while tok.peek():
        if tok.peek() != "[":
            raise tok.error("expected a section header")
        tok.expect("[")
        kind = tok.ident()
        name = None
        if tok.peek() == ":":
            tok.pos += 1
            name = tok.ident()
        tok.expect("]")
        if kind not in _KNOWN_KINDS:
            raise tok.error(f"unknown section kind {kind!r}")
        if (kind, name) in seen:
            raise tok.error(f"duplicate section [{kind if name is None else kind + ':' + name}]")
        seen.add((kind, name))
        section = Section(kind, name)
        while tok.peek() and tok.peek() != "[":
            key = [tok.ident()]
            while tok.peek() == ".":
                tok.pos += 1
                key.append(tok.ident())
            tok.expect("=")
            section.entries.append((tuple(key), tok.value()))
        sections.append(section)
    if not sections:
        raise DefinitionError("empty definition file")
    return DefinitionFile(sections)


# ---------------------------------------------------------------------------
# resolvers
# ---------------------------------------------------------------------------


def _poly(text, where: str) -> MultiPoly:
    if not isinstance(text, str):
        raise DefinitionError(f"{where}: expected a polynomial string")
    try:
        return parse_poly(text)
    except ParseError as exc:
        raise DefinitionError(f"{where}: {exc}") from exc


def _matrix(value, where: str) -> PdModuleMap:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise DefinitionError(f"{where}: expected a matrix (list of rows)")
    try:
        return PdModuleMap([[_poly(p, where) for p in row] for row in value])
    except DefinitionError:
        raise  # already carries `where`
    except (DimensionError, ValueError) as exc:
        raise DefinitionError(f"{where}: {exc}") from exc


def _vector(value, rank: int, where: str) -> tuple[MultiPoly, ...]:
    if not isinstance(value, list) or len(value) != rank:
        raise DefinitionError(f"{where}: expected a list of {rank} polynomials")
    return tuple(_poly(p, where) for p in value)


def _basis(section: Section) -> tuple[str, ...]:
    value = section.require("basis")
    if not isinstance(value, list) or not value or not all(isinstance(b, str) for b in value):
        raise DefinitionError(f"[{section.label}]: basis must be a list of names")
    names = tuple(value)
    if len(set(names)) != len(names):
        raise DefinitionError(f"[{section.label}]: duplicate basis names")
    for b in names:
        if not b:
            raise DefinitionError(f"[{section.label}]: empty basis name")
        if b in RESERVED_NAMES or (b[0] == "l" and b[1:].isdecimal()):
            raise DefinitionError(f"[{section.label}]: basis name {b!r} is reserved")
    return names


def _index(names: tuple[str, ...], token: str, where: str) -> int:
    try:
        return names.index(token)
    except ValueError:
        raise DefinitionError(f"{where}: unknown basis name {token!r}") from None


def build_algebra(file: DefinitionFile) -> ConformalAlgebra:
    s = file.one_of("algebra")
    names = _basis(s)
    rank = len(names)
    alpha = _matrix(s.require("alpha"), f"[{s.label}] alpha")
    if alpha.rows != rank or alpha.cols != rank:
        raise DefinitionError(f"[{s.label}]: alpha must be {rank}x{rank}")
    structure = {}
    for key, value in s.prefixed("bracket"):
        if len(key) != 3:
            raise DefinitionError(f"[{s.label}]: bracket keys look like bracket.<a>.<b>")
        i = _index(names, key[1], f"[{s.label}] {'.'.join(key)}")
        j = _index(names, key[2], f"[{s.label}] {'.'.join(key)}")
        structure[(i, j)] = _vector(value, rank, f"[{s.label}] {'.'.join(key)}")
    for (i, j), vec in structure.items():
        for p in vec:
            if p.variables() - {D, X}:
                raise DefinitionError(
                    f"[{s.label}]: bracket entries may only use D and x"
                )
    return ConformalAlgebra(rank, names, normalize_table(structure, rank), alpha)


def build_operator(file: DefinitionFile, name: str) -> PdModuleMap:
    s = file.named("operator", name)
    return _matrix(s.require("matrix"), f"[{s.label}] matrix")


def build_representation(file: DefinitionFile, alg: ConformalAlgebra) -> Representation:
    s = file.one_of("representation")
    names = _basis(s)
    rank = len(names)
    beta = _matrix(s.require("beta"), f"[{s.label}] beta")
    l_structure = {}
    for key, value in s.prefixed("l"):
        if len(key) != 3:
            raise DefinitionError(f"[{s.label}]: left-action keys look like l.<alg>.<mod>")
        i = _index(alg.basis_names, key[1], f"[{s.label}] {'.'.join(key)}")
        j = _index(names, key[2], f"[{s.label}] {'.'.join(key)}")
        l_structure[(i, j)] = _vector(value, rank, f"[{s.label}] {'.'.join(key)}")
    r_structure = {}
    for key, value in s.prefixed("r"):
        if len(key) != 3:
            raise DefinitionError(f"[{s.label}]: right-action keys look like r.<mod>.<alg>")
        j = _index(names, key[1], f"[{s.label}] {'.'.join(key)}")
        i = _index(alg.basis_names, key[2], f"[{s.label}] {'.'.join(key)}")
        r_structure[(j, i)] = _vector(value, rank, f"[{s.label}] {'.'.join(key)}")
    nm_value = s.get("nm")
    n_m = _matrix(nm_value, f"[{s.label}] nm") if nm_value is not None else None
    return Representation(
        alg_rank=alg.rank,
        rank=rank,
        l_structure=normalize_table(l_structure, rank),
        r_structure=normalize_table(r_structure, rank),
        beta=beta,
        n_m=n_m,
        basis_names=names,
    )


def build_cochain(
    file: DefinitionFile, name: str, alg: ConformalAlgebra, rep_rank: int, rep_names
) -> Cochain:
    s = file.named("cochain", name)
    arity_text = s.require("arity")
    if not isinstance(arity_text, str) or not arity_text.isdecimal() or int(arity_text) < 1:
        raise DefinitionError(f"[{s.label}]: arity must be a positive integer string")
    arity = int(arity_text)
    table = {}
    for key, value in s.prefixed("value"):
        if len(key) != arity + 1:
            raise DefinitionError(
                f"[{s.label}]: value keys need {arity} basis segments"
            )
        idx = tuple(
            _index(alg.basis_names, t, f"[{s.label}] {'.'.join(key)}") for t in key[1:]
        )
        table[idx] = _vector(value, rep_rank, f"[{s.label}] {'.'.join(key)}")
    allowed = {D} | {lam(i) for i in range(1, arity)}
    for idx, vec in table.items():
        for p in vec:
            if p.variables() - allowed:
                raise DefinitionError(
                    f"[{s.label}]: arity-{arity} values may use D and l1..l{arity-1} only"
                )
    return Cochain(arity, alg.rank, rep_rank, normalize_table(table, rep_rank))


def build_ns(file: DefinitionFile) -> NSAlgebra:
    s = file.one_of("ns")
    names = _basis(s)
    rank = len(names)
    alpha = _matrix(s.require("alpha"), f"[{s.label}] alpha")
    tables = {}
    for head in ("left", "right", "vee"):
        table = {}
        for key, value in s.prefixed(head):
            if len(key) != 3:
                raise DefinitionError(f"[{s.label}]: {head} keys look like {head}.<a>.<b>")
            i = _index(names, key[1], f"[{s.label}] {'.'.join(key)}")
            j = _index(names, key[2], f"[{s.label}] {'.'.join(key)}")
            table[(i, j)] = _vector(value, rank, f"[{s.label}] {'.'.join(key)}")
        tables[head] = normalize_table(table, rank)
    return NSAlgebra(rank, names, tables["left"], tables["right"], tables["vee"], alpha)


def build_finite(file: DefinitionFile):
    """Finite-dimensional input of the current-algebra lift: names,
    rational structure constants and a rational twist matrix."""
    s = file.one_of("finite")
    names = _basis(s)
    rank = len(names)

    def _rat(text, where):
        p = _poly(text, where)
        try:
            return p.constant_value()
        except Exception as exc:
            raise DefinitionError(f"{where}: entries must be rational constants") from exc

    twist_value = s.get("twist")
    if twist_value is None:
        twist = [[int(i == j) for j in range(rank)] for i in range(rank)]
    else:
        if not (
            isinstance(twist_value, list)
            and len(twist_value) == rank
            and all(isinstance(row, list) and len(row) == rank for row in twist_value)
        ):
            raise DefinitionError(f"[{s.label}]: twist must be {rank}x{rank}")
        twist = [
            [_rat(p, f"[{s.label}] twist") for p in row] for row in twist_value
        ]
    constants = {}
    for key, value in s.prefixed("c"):
        if len(key) != 3:
            raise DefinitionError(f"[{s.label}]: constant keys look like c.<a>.<b>")
        i = _index(names, key[1], f"[{s.label}] {'.'.join(key)}")
        j = _index(names, key[2], f"[{s.label}] {'.'.join(key)}")
        if not isinstance(value, list) or len(value) != rank:
            raise DefinitionError(f"[{s.label}] {'.'.join(key)}: expected {rank} constants")
        constants[(i, j)] = [_rat(p, f"[{s.label}] {'.'.join(key)}") for p in value]
    return rank, constants, twist, names


def build_deformation(
    file: DefinitionFile, alg: ConformalAlgebra, name: str | None = None
) -> DeformationData:
    s = file.named("deformation", name)
    operator_orders: dict[int, PdModuleMap] = {}
    bracket_orders: dict[int, dict] = {}
    base_op = None
    for key, value in s.prefixed("operator"):
        if len(key) != 2 or not key[1].isdecimal():
            raise DefinitionError(f"[{s.label}]: operator keys look like operator.<order>")
        order = int(key[1])
        m = _matrix(value, f"[{s.label}] {'.'.join(key)}")
        if order == 0:
            base_op = m
        else:
            operator_orders[order] = m
    if base_op is None:
        raise DefinitionError(f"[{s.label}]: missing operator.0 (the base operator)")
    for key, value in s.prefixed("bracket"):
        if len(key) != 4 or not key[1].isdecimal():
            raise DefinitionError(
                f"[{s.label}]: bracket keys look like bracket.<order>.<a>.<b>"
            )
        order = int(key[1])
        if order == 0:
            raise DefinitionError(f"[{s.label}]: order-0 bracket comes from [algebra]")
        i = _index(alg.basis_names, key[2], f"[{s.label}] {'.'.join(key)}")
        j = _index(alg.basis_names, key[3], f"[{s.label}] {'.'.join(key)}")
        bracket_orders.setdefault(order, {})[(i, j)] = _vector(
            value, alg.rank, f"[{s.label}] {'.'.join(key)}"
        )
    declared = s.get("order")
    min_order = 0
    if declared is not None:
        if not isinstance(declared, str) or not declared.isdecimal():
            raise DefinitionError(f"[{s.label}]: order must be an integer string")
        min_order = int(declared)
    return make_deformation(alg, base_op, bracket_orders, operator_orders, min_order)


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------


def _fmt_value(value) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    return "[" + ", ".join(_fmt_value(v) for v in value) + "]"


def section_to_text(section: Section) -> str:
    lines = [f"[{section.label}]"]
    for key, value in section.entries:
        lines.append(f"{'.'.join(key)} = {_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def print_definition(file: DefinitionFile) -> str:
    return "\n".join(section_to_text(s) for s in file.sections)


def _matrix_value(m: PdModuleMap) -> list:
    return [[print_poly(p) for p in row] for row in m.entries]


def algebra_to_section(alg: ConformalAlgebra, name: str = "derived") -> Section:
    entries = [
        (("name",), name),
        (("basis",), list(alg.basis_names)),
        (("alpha",), _matrix_value(alg.alpha)),
    ]
    for (i, j) in sorted(alg.structure):
        entries.append(
            (
                ("bracket", alg.basis_names[i], alg.basis_names[j]),
                [print_poly(p) for p in alg.structure[(i, j)]],
            )
        )
    return Section("algebra", None, entries)


def representation_to_section(rep: Representation, alg: ConformalAlgebra) -> Section:
    entries = [
        (("basis",), list(rep.basis_names)),
        (("beta",), _matrix_value(rep.beta)),
    ]
    for (i, j) in sorted(rep.l_structure):
        entries.append(
            (
                ("l", alg.basis_names[i], rep.basis_names[j]),
                [print_poly(p) for p in rep.l_structure[(i, j)]],
            )
        )
    for (j, i) in sorted(rep.r_structure):
        entries.append(
            (
                ("r", rep.basis_names[j], alg.basis_names[i]),
                [print_poly(p) for p in rep.r_structure[(j, i)]],
            )
        )
    if rep.n_m is not None:
        entries.append((("nm",), _matrix_value(rep.n_m)))
    return Section("representation", None, entries)


def ns_to_section(ns: NSAlgebra, name: str = "derived") -> Section:
    entries = [
        (("name",), name),
        (("basis",), list(ns.basis_names)),
        (("alpha",), _matrix_value(ns.alpha)),
    ]
    for head, table in (("left", ns.left), ("right", ns.right), ("vee", ns.vee)):
        for (i, j) in sorted(table):
            entries.append(
                (
                    (head, ns.basis_names[i], ns.basis_names[j]),
                    [print_poly(p) for p in table[(i, j)]],
                )
            )
    return Section("ns", None, entries)


def cochain_to_section(f: Cochain, alg: ConformalAlgebra, name: str) -> Section:
    entries = [(("arity",), str(f.arity))]
    for key in sorted(f.table):
        segs = tuple(alg.basis_names[i] for i in key)
        entries.append((("value",) + segs, [print_poly(p) for p in f.value(key)]))
    return Section("cochain", name, entries)
