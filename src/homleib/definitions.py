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
    MAX_ARITY,
    MAX_NESTING,
    MAX_ORDER,
    MultiPoly,
    ParseError,
    RESERVED_NAMES,
    X,
    D,
    _digit_limit,
    lam,
    parse_poly,
    print_poly,
    token_start,
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


# One token per match, after any blanks and `#` comments: a string with
# its quotes (the closing one missing when the string is unterminated), a
# word (in a str pattern `\w` is exactly `str.isalnum()` or `_`), one other
# character, or the empty match at the end.  The other character is never
# a blank or `#`, so every position matches and findall skips nothing.
_TOKEN = re.compile(r'(?:[ \t\r\n]+|#[^\n]*)*("[^"\n]*"?|\w+|[^ \t\r\n#]|\Z)')

_KNOWN_KINDS = {
    "algebra",
    "finite",
    "operator",
    "representation",
    "cochain",
    "ns",
    "deformation",
}


def _error(text: str, index: int, message: str, shift: int = 0) -> DefinitionError:
    """The message `shift` characters past the start of token `index`,
    with a 1-based line and column; only an error pays for the position."""
    pos = token_start(_TOKEN, text, index) + shift
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return DefinitionError(f"line {line}, column {col}: {message}")


def _is_word(tok: str) -> bool:
    return tok[:1].isalnum() or tok[:1] == "_"


def _value(text: str, toks: list, i: int):
    """The string or list value at token i, and the index after it."""
    lists = []  # the open lists, innermost last
    while True:
        tok = toks[i]
        if len(tok) > 1 and tok[-1] == '"':
            value = tok[1:-1]
            i += 1
        elif tok == "[":
            if len(lists) == MAX_NESTING:
                raise _error(text, i, f"lists nested deeper than {MAX_NESTING} levels")
            i += 1
            if toks[i] != "]":
                lists.append([])
                continue
            value = []
            i += 1
        elif tok[:1] == '"':
            raise _error(text, i, "unterminated string", len(tok))
        else:
            raise _error(text, i, "expected a string or a list")
        while lists:  # `value` is complete: file it, then read what follows it
            lists[-1].append(value)
            if toks[i] == ",":
                i += 1
                break
            if toks[i] != "]":
                raise _error(text, i, "expected ',' or ']' in list")
            value = lists.pop()
            i += 1
        else:
            return value, i


def parse_definition(text: str) -> DefinitionFile:
    """The sections of a definition file.  A key given twice in one
    section is an error, reported once the whole file has scanned: a
    file that does not scan reports that first."""
    toks = _TOKEN.findall(text)
    sections: list[Section] = []
    seen: set[tuple[str, str | None]] = set()
    duplicate = None  # (token index, message) of the first key given twice
    i = 0
    while toks[i]:
        if toks[i] != "[":
            raise _error(text, i, "expected a section header")
        kind, name, i = toks[i + 1], None, i + 2
        if not _is_word(kind):
            raise _error(text, i - 1, "expected an identifier")
        if toks[i] == ":":
            name, i = toks[i + 1], i + 2
            if not _is_word(name):
                raise _error(text, i - 1, "expected an identifier")
        if toks[i] != "]":
            raise _error(text, i, "expected ']'")
        if kind not in _KNOWN_KINDS:
            raise _error(text, i, f"unknown section kind {kind!r}", 1)
        if (kind, name) in seen:
            raise _error(text, i, f"duplicate section [{kind if name is None else kind + ':' + name}]", 1)
        seen.add((kind, name))
        section = Section(kind, name)
        keys = set()
        i += 1
        while toks[i] and toks[i] != "[":
            start, key = i, [toks[i]]
            while True:
                if not (toks[i].isalnum() or _is_word(toks[i])):  # isalnum: most keys, at C speed
                    raise _error(text, i, "expected an identifier")
                i += 1
                if toks[i] != ".":
                    break
                i += 1
                key.append(toks[i])
            if toks[i] != "=":
                raise _error(text, i, "expected '='")
            value, i = _value(text, toks, i + 1)
            key = tuple(key)
            if key in keys and duplicate is None:
                duplicate = start, f"duplicate key '{'.'.join(key)}' in [{section.label}]"
            keys.add(key)
            section.entries.append((key, value))
        sections.append(section)
    if not sections:
        raise DefinitionError("empty definition file")
    if duplicate is not None:
        raise _error(text, *duplicate)
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


def _bounded(s: Section, text, shape: str, bound: int, what: str) -> int:
    """A decimal string no larger than `bound`.  Its length is checked
    first, so int() never reads more than `poly._digit_limit()` digits."""
    if not isinstance(text, str) or not text.isdecimal():
        raise DefinitionError(f"[{s.label}]: {shape}")
    value = int(text) if len(text) <= _digit_limit() else bound + 1
    if value > bound:
        raise DefinitionError(f"[{s.label}]: {what} above {bound} are not supported")
    return value


def _key(s: Section, key: tuple, segments: tuple, shape: str, where: str) -> tuple:
    """The indices a table key names.  Each segment after the head names
    an element of its basis in `segments` or, where that is None, a
    deformation order from 1 to MAX_ORDER; `shape` says what a key
    looks like."""
    if len(key) != len(segments) + 1:
        raise DefinitionError(f"[{s.label}]: {shape}")
    out = []
    for names, token in zip(segments, key[1:]):
        if names is not None:
            out.append(_index(names, token, where))
            continue
        out.append(_bounded(s, token, shape, MAX_ORDER, "orders"))
        if out[-1] == 0:
            raise DefinitionError(f"[{s.label}]: order-0 bracket comes from [algebra]")
    return tuple(out)


def _read_table(s: Section, head: str, segments: tuple, rank: int, shape: str, cochain=False) -> dict:
    """Every `head.<segment>...` entry of s as one normalized table: each
    value is a list of `rank` polynomials in D and x, or in D and
    l1..l(n-1) for the values of an arity-n cochain."""
    table = {}
    for key, value in s.prefixed(head):
        where = f"[{s.label}] {'.'.join(key)}"
        table[_key(s, key, segments, shape, where)] = _vector(value, rank, where)
    n = len(segments)
    if cochain:
        allowed, rule = {D} | {lam(i) for i in range(1, n)}, f"arity-{n} values may use D and l1..l{n - 1} only"
    else:
        allowed, rule = {D, X}, f"{head} entries may only use D and x"
    if any(p.variables() - allowed for vec in table.values() for p in vec):
        raise DefinitionError(f"[{s.label}]: {rule}")
    return normalize_table(table, rank)


def _read_square(s: Section, key: tuple, rank: int, value, read=_matrix):
    """The rank x rank matrix `value` at `key`, its shape checked before
    `read` parses any entry."""
    if not (
        isinstance(value, list)
        and len(value) == rank
        and all(isinstance(row, list) and len(row) == rank for row in value)
    ):
        raise DefinitionError(f"[{s.label}]: {'.'.join(key)} must be {rank}x{rank}")
    return read(value, f"[{s.label}] {'.'.join(key)}")


def build_algebra(file: DefinitionFile) -> ConformalAlgebra:
    s = file.one_of("algebra")
    names = _basis(s)
    rank = len(names)
    alpha = _read_square(s, ("alpha",), rank, s.require("alpha"))
    structure = _read_table(s, "bracket", (names, names), rank, "bracket keys look like bracket.<a>.<b>")
    return ConformalAlgebra(rank, names, structure, alpha)


def build_operator(file: DefinitionFile, name: str) -> PdModuleMap:
    s = file.named("operator", name)
    return _matrix(s.require("matrix"), f"[{s.label}] matrix")


def build_representation(file: DefinitionFile, alg: ConformalAlgebra) -> Representation:
    s = file.one_of("representation")
    names = _basis(s)
    rank = len(names)
    beta = _read_square(s, ("beta",), rank, s.require("beta"))
    l_structure = _read_table(
        s, "l", (alg.basis_names, names), rank, "left-action keys look like l.<alg>.<mod>"
    )
    r_structure = _read_table(
        s, "r", (names, alg.basis_names), rank, "right-action keys look like r.<mod>.<alg>"
    )
    nm_value = s.get("nm")
    n_m = None if nm_value is None else _read_square(s, ("nm",), rank, nm_value)
    return Representation(
        alg_rank=alg.rank,
        rank=rank,
        l_structure=l_structure,
        r_structure=r_structure,
        beta=beta,
        n_m=n_m,
        basis_names=names,
    )


def build_cochain(file: DefinitionFile, name: str, alg: ConformalAlgebra, rep_rank: int) -> Cochain:
    s = file.named("cochain", name)
    shape = "arity must be a positive integer string"
    arity = _bounded(s, s.require("arity"), shape, MAX_ARITY, "arities")
    if arity < 1:
        raise DefinitionError(f"[{s.label}]: {shape}")
    table = _read_table(
        s,
        "value",
        (alg.basis_names,) * arity,
        rep_rank,
        f"value keys need {arity} basis segments",
        cochain=True,
    )
    return Cochain(arity, alg.rank, rep_rank, table)


def build_ns(file: DefinitionFile) -> NSAlgebra:
    s = file.one_of("ns")
    names = _basis(s)
    rank = len(names)
    alpha = _read_square(s, ("alpha",), rank, s.require("alpha"))
    tables = [
        _read_table(s, head, (names, names), rank, f"{head} keys look like {head}.<a>.<b>")
        for head in ("left", "right", "vee")
    ]
    return NSAlgebra(rank, names, *tables, alpha)


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

    def _rationals(rows, where):
        return [[_rat(p, where) for p in row] for row in rows]

    twist_value = s.get("twist")
    if twist_value is None:
        twist = [[int(i == j) for j in range(rank)] for i in range(rank)]
    else:
        twist = _read_square(s, ("twist",), rank, twist_value, _rationals)
    # constants keep their zero rows and are checked entry by entry, so
    # they share the key rule but not the polynomial table reader
    constants = {}
    for key, value in s.prefixed("c"):
        where = f"[{s.label}] {'.'.join(key)}"
        index = _key(s, key, (names, names), "constant keys look like c.<a>.<b>", where)
        if not isinstance(value, list) or len(value) != rank:
            raise DefinitionError(f"{where}: expected {rank} constants")
        constants[index] = [_rat(p, where) for p in value]
    return rank, constants, twist, names


def build_deformation(
    file: DefinitionFile, alg: ConformalAlgebra, name: str | None = None
) -> DeformationData:
    s = file.named("deformation", name)
    operator_orders: dict[int, PdModuleMap] = {}
    base_op = None
    shape = "operator keys look like operator.<order>"
    for key, value in s.prefixed("operator"):
        if len(key) != 2:
            raise DefinitionError(f"[{s.label}]: {shape}")
        order = _bounded(s, key[1], shape, MAX_ORDER, "orders")
        m = _read_square(s, key, alg.rank, value)
        if order == 0:
            base_op = m
        else:
            operator_orders[order] = m
    if base_op is None:
        raise DefinitionError(f"[{s.label}]: missing operator.0 (the base operator)")
    names = alg.basis_names
    table = _read_table(
        s, "bracket", (None, names, names), alg.rank, "bracket keys look like bracket.<order>.<a>.<b>"
    )
    # a key declares its order even when every entry of that order is zero
    bracket_orders: dict[int, dict] = {int(key[1]): {} for key, _ in s.prefixed("bracket")}
    for (order, i, j), vec in table.items():
        bracket_orders[order][i, j] = vec
    declared = s.get("order")
    min_order = 0
    if declared is not None:
        min_order = _bounded(s, declared, "order must be an integer string", MAX_ORDER, "orders")
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


def _table_entries(head: str, table: dict, segments: tuple) -> list:
    """A table's `head.<name>...` entries in key order; each key position
    is printed by name from its basis in `segments`."""
    return [
        ((head, *(names[i] for names, i in zip(segments, key))), [print_poly(p) for p in table[key]])
        for key in sorted(table)
    ]


def algebra_to_section(alg: ConformalAlgebra, name: str = "derived") -> Section:
    names = alg.basis_names
    entries = [
        (("name",), name),
        (("basis",), list(names)),
        (("alpha",), _matrix_value(alg.alpha)),
        *_table_entries("bracket", alg.structure, (names, names)),
    ]
    return Section("algebra", None, entries)


def representation_to_section(rep: Representation, alg: ConformalAlgebra) -> Section:
    names = rep.basis_names
    entries = [
        (("basis",), list(names)),
        (("beta",), _matrix_value(rep.beta)),
        *_table_entries("l", rep.l_structure, (alg.basis_names, names)),
        *_table_entries("r", rep.r_structure, (names, alg.basis_names)),
    ]
    if rep.n_m is not None:
        entries.append((("nm",), _matrix_value(rep.n_m)))
    return Section("representation", None, entries)


def ns_to_section(ns: NSAlgebra, name: str = "derived") -> Section:
    names = ns.basis_names
    entries = [(("name",), name), (("basis",), list(names)), (("alpha",), _matrix_value(ns.alpha))]
    for head in ("left", "right", "vee"):
        entries += _table_entries(head, getattr(ns, head), (names, names))
    return Section("ns", None, entries)


def cochain_to_section(f: Cochain, alg: ConformalAlgebra, name: str) -> Section:
    entries = [(("arity",), str(f.arity)), *_table_entries("value", f.table, (alg.basis_names,) * f.arity)]
    return Section("cochain", name, entries)
