"""Reference for the definition-file builders and printers: the per-key
loops and per-builder matrix checks that `homleib.definitions` replaced
with one table reader, one square-matrix reader and one table printer.
Each function keeps its former body.  The differential tests in
test_definition_readers.py require both to give equal objects and
byte-identical sections on valid input, and the same error text on
malformed input outside the classes the shared readers newly reject."""

from __future__ import annotations

from homleib.cohomology import Cochain
from homleib.definitions import (
    DefinitionError,
    DefinitionFile,
    Section,
    _basis,
    _index,
    _matrix,
    _matrix_value,
    _poly,
    _vector,
)
from homleib.deformation import DeformationData, make_deformation
from homleib.ns import NSAlgebra
from homleib.poly import X, D, lam, print_poly
from homleib.representation import Representation
from homleib.structure import ConformalAlgebra, PdModuleMap, normalize_table


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
