"""The shared table reader, square-matrix reader and table printer of
`homleib.definitions` against the per-builder code they replaced
(tests/reference_definitions.py), and every builder under fuzzing.

On valid input both must give equal objects and byte-identical
sections: every shipped file, and seeded random algebras,
representations, NS structures and cochains (ranks 1-3, D-dependent
twists and entries, module ranks other than the algebra's).  On
malformed input the library builders may raise nothing but
DefinitionError, and must give the reference's outcome unless their
error names a defect of a class the reference let through or reported
otherwise, and the input really has it: a square matrix of the wrong
shape, a variable other than D and x in a structure or action table, a
deformation order past MAX_ORDER, or a cochain arity past MAX_ARITY.
A text the scanner rejects is held to the scanner's reference instead,
which now differs only where the text gives a key twice in one section:
the reference builders accepted that, and the scanner names it.
"""

import os
import random
import re

import pytest
from hypothesis import given, settings

import reference_definitions as ref
from test_cohomology import _random_table, _random_twist
from test_definitions import SHIPPED, _edited, assert_same_scan, definition_texts

from homleib import definitions as defs
from homleib.cohomology import random_cochain
from homleib.definitions import DefinitionError, parse_definition, section_to_text
from homleib.ns import NSAlgebra
from homleib.poly import MAX_ARITY, MAX_ORDER, D, X, ParseError, parse_poly
from homleib.representation import Representation
from homleib.structure import ConformalAlgebra, virasoro

VIR = virasoro()


def _builds(file):
    """(label, build, printer or None) for every builder: `build(lib)`
    runs it from `lib`, the library or the reference, and `printer(lib,
    obj)` prints what it built.  Each gets the algebra and module rank
    that the library builds from the same file (the rank-1 algebra, and
    the algebra's rank, where it builds none)."""
    try:
        alg = defs.build_algebra(file)
    except DefinitionError:
        alg = VIR
    try:
        rep_rank = defs.build_representation(file, alg).rank
    except DefinitionError:
        rep_rank = alg.rank
    yield (
        "algebra",
        lambda lib: lib.build_algebra(file),
        lambda lib, a: lib.algebra_to_section(a, name="printed"),
    )
    yield (
        "representation",
        lambda lib: lib.build_representation(file, alg),
        lambda lib, r: lib.representation_to_section(r, alg),
    )
    yield "ns", lambda lib: lib.build_ns(file), lambda lib, n: lib.ns_to_section(n, name="printed")
    yield "finite", lambda lib: lib.build_finite(file), None
    for s in file.all_of("operator"):
        yield s.label, lambda lib, name=s.name: lib.build_operator(file, name), None
    for s in file.all_of("cochain"):
        yield (
            s.label,
            # the reference keeps the former unused module-names argument
            lambda lib, name=s.name: lib.build_cochain(file, name, alg, rep_rank, *[()] * (lib is ref)),
            lambda lib, f: lib.cochain_to_section(f, alg, "printed"),
        )
    for s in file.all_of("deformation"):
        yield s.label, lambda lib, name=s.name: lib.build_deformation(file, alg, name), None


def _outcome(build):
    """The reference's object, DefinitionError text, or other exception."""
    try:
        return build(ref)
    except DefinitionError as exc:
        return str(exc)
    except Exception as exc:  # the reference lets DimensionError escape
        return (type(exc).__name__, str(exc))


SHAPE = re.compile(r"\[([^\]]+)\]: (\S+) must be (\d+)x\3$")
STRAY = re.compile(r"\[([^\]]+)\]: (\w+) entries may only use D and x$")
BOUND = re.compile(rf"\[([^\]]+)\]: (orders above {MAX_ORDER}|arities above {MAX_ARITY}) are not supported$")


def _wrong_shape(value, n: int) -> bool:
    return not (
        isinstance(value, list) and len(value) == n and all(isinstance(r, list) and len(r) == n for r in value)
    )


def _stray_variable(value) -> bool:
    for text in value if isinstance(value, list) else ():
        try:
            if isinstance(text, str) and parse_poly(text).variables() - {D, X}:
                return True
        except ParseError:
            pass
    return False


def _past_bound(text, bound: int) -> bool:
    if not (isinstance(text, str) and text.isdecimal()):
        return False
    try:
        return int(text) > bound
    except ValueError:  # more digits than int() converts
        return True


def _names_real_new_defect(file, message: str) -> bool:
    """Whether `message` reports a newly rejected defect that the section
    it names really has."""
    for pattern in (SHAPE, STRAY, BOUND):
        m = pattern.match(message)
        if m:
            break
    else:
        return False
    [section] = [s for s in file.sections if s.label == m[1]]
    if pattern is SHAPE:
        key = tuple(m[2].split("."))
        return any(k == key and _wrong_shape(v, int(m[3])) for k, v in section.entries)
    if pattern is STRAY:
        return any(_stray_variable(v) for _, v in section.prefixed(m[2]))
    if m[2].startswith("arities"):
        return any(_past_bound(v, MAX_ARITY) for k, v in section.entries if k == ("arity",))
    orders = [v for k, v in section.entries if k == ("order",)]
    orders += [k[1] for k, _ in section.entries if len(k) > 1 and k[0] in ("operator", "bracket")]
    return any(_past_bound(o, MAX_ORDER) for o in orders)


def assert_builders_agree(text: str):
    try:
        file = parse_definition(text)
    except DefinitionError:
        assert_same_scan(text)
        return
    for label, build, printer in _builds(file):
        want = _outcome(build)
        try:
            got = build(defs)
        except DefinitionError as exc:  # anything else fails here
            message = str(exc)
            assert "\n" not in message, (label, message)
            assert message == want or _names_real_new_defect(file, message), (label, message, want, text)
            continue
        assert got == want, (label, want, text)
        if printer is not None:
            assert section_to_text(printer(defs, got)) == section_to_text(printer(ref, got)), (label, text)


# -- valid input ---------------------------------------------------------------


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_builders_and_printers_match_reference_on_shipped_files(path):
    with open(path, encoding="utf-8") as fh:
        assert_builders_agree(fh.read())


ALG = '[algebra]\nbasis = ["L"]\nalpha = [["1"]]\n'
# Printed tables hold no all-zero row; a file may.
ZERO_ROWS = (
    ALG
    + 'bracket.L.L = ["0"]\n'
    + '[representation]\nbasis = ["m", "n"]\nbeta = [["1", "0"], ["0", "1"]]\nl.L.m = ["0", "0"]\nr.n.L = ["D", "0"]\n'
    + '[ns]\nbasis = ["a"]\nalpha = [["1"]]\nleft.a.a = ["0"]\nvee.a.a = ["x"]\n'
    + '[cochain:f]\narity = "2"\nvalue.L.L = ["0", "0"]\n'
    + '[finite]\nbasis = ["a"]\nc.a.a = ["0"]\n'
    + '[deformation:d]\noperator.0 = [["2"]]\nbracket.2.L.L = ["0"]\nbracket.1.L.L = ["x"]\n'
)


def test_zero_rows_are_dropped_as_before():
    assert_builders_agree(ZERO_ROWS)
    file = parse_definition(ZERO_ROWS)
    alg = defs.build_algebra(file)
    assert not alg.structure
    assert defs.build_deformation(file, alg, "d").order == 2


def _random_objects(seed: int):
    """An algebra, a module over it, an NS structure and a cochain, none
    required to satisfy any axiom."""
    rng = random.Random(seed)
    rank = 1 + seed % 3
    mod_rank = rng.choice([r for r in (1, 2, 3) if r != rank]) if seed % 2 else rank
    density = rng.choice((0.0, 0.5, 1.0))
    names = tuple(f"e{i}" for i in range(rank))
    alg = ConformalAlgebra(rank, names, _random_table(rng, rank, rank, rank, density), _random_twist(rng, rank))
    rep = Representation(
        rank,
        mod_rank,
        _random_table(rng, rank, mod_rank, mod_rank, density),
        _random_table(rng, mod_rank, rank, mod_rank, rng.choice((0.0, 0.5, 1.0))),
        _random_twist(rng, mod_rank),
        n_m=_random_twist(rng, mod_rank) if seed % 3 else None,
        basis_names=tuple(f"m{j}" for j in range(mod_rank)),
    )
    ns = NSAlgebra(
        rank, names, *(_random_table(rng, rank, rank, rank, density) for _ in range(3)), _random_twist(rng, rank)
    )
    f = random_cochain(rank, mod_rank, 1 + seed // 3 % 3, rng, max_deg=rng.choice((1, 2)))
    return alg, rep, ns, f


@pytest.mark.parametrize("seed", range(24))
def test_random_objects_print_and_build_as_before(seed):
    alg, rep, ns, f = _random_objects(seed)
    texts = [
        "\n".join(
            section_to_text(section)
            for section in (
                lib.algebra_to_section(alg, "a"),
                lib.representation_to_section(rep, alg),
                lib.ns_to_section(ns, "n"),
                lib.cochain_to_section(f, alg, "f"),
            )
        )
        for lib in (defs, ref)
    ]
    assert texts[0] == texts[1]
    file = parse_definition(texts[0])
    assert defs.build_algebra(file) == ref.build_algebra(file) == alg
    assert defs.build_representation(file, alg) == ref.build_representation(file, alg) == rep
    assert defs.build_ns(file) == ref.build_ns(file) == ns
    assert defs.build_cochain(file, "f", alg, rep.rank) == ref.build_cochain(file, "f", alg, rep.rank, ()) == f
    assert_builders_agree(texts[0])


# -- malformed input: only DefinitionError escapes -----------------------------


REP = ALG + '[representation]\nbasis = ["m", "n"]\nbeta = [["1", "0"], ["0", "1"]]\n'
DEF = ALG + '[deformation:d]\noperator.0 = [["2"]]\n'
FIN = '[finite]\nbasis = ["a", "b"]\n'
# One input per error of the readers, and a few with two errors, where
# the first one found must stay the first one reported.
MALFORMED = [
    ALG + 'bracket.L = ["D"]\n',
    ALG + 'bracket.L.M = ["D"]\n',
    ALG + 'bracket.L.L = ["D", "x"]\n',
    ALG + 'bracket.L.L = "D"\n',
    ALG + 'bracket.L.L = [["D"]]\n',
    ALG + 'bracket.L.L = ["l1"]\nbracket.L.M = ["D"]\n',
    # a key given twice: the reference builders read one of the values,
    # the scanner now rejects the text
    ALG + 'bracket.L.L = ["l1"]\nbracket.L.L = ["D"]\n',
    '[algebra]\nbasis = ["L"]\nalpha = "1"\n',
    '[algebra]\nbasis = ["L"]\nalpha = [["x"]]\n',
    '[algebra]\nbasis = ["L", "M"]\nalpha = [["1", "0"], ["0"]]\n',
    '[algebra]\nbasis = ["L"]\nalpha = [["1", "+"]]\n',
    REP + 'l.L = ["D", "0"]\n',
    REP + 'l.m.L = ["D", "0"]\n',
    REP + 'r.L.m = ["D", "0"]\n',
    REP + 'r.m.L = ["D"]\n',
    REP + 'l.L.m = ["D", "0"]\nr.m.L = ["D"]\nnm = [["1"]]\n',
    ALG + '[representation]\nbasis = ["m"]\nbeta = [["1", "0"]]\nl.L.q = ["D"]\n',
    '[ns]\nbasis = ["a"]\nalpha = [["1"]]\nvee.a = ["D"]\n',
    '[ns]\nbasis = ["a"]\nalpha = [["1"]]\nleft.a.b = ["D"]\nright.a.a = ["l1"]\n',
    '[ns]\nbasis = ["a"]\nalpha = [["1", "0"]]\nleft.a.b = ["D"]\n',
    ALG + '[cochain:f]\narity = "2"\nvalue.L = ["D"]\n',
    ALG + '[cochain:f]\narity = "2"\nvalue.L.L = ["l2"]\n',
    ALG + '[cochain:f]\narity = "1"\nvalue.L = ["x"]\nvalue.M = ["D"]\n',
    ALG + '[cochain:f]\narity = "0"\n',
    ALG + '[cochain:f]\narity = "9"\nvalue.L = ["D"]\n',
    FIN + 'c.a = ["1", "0"]\n',
    FIN + 'c.a.z = ["1", "0"]\n',
    FIN + 'c.a.a = ["1"]\n',
    FIN + 'c.a.a = ["D", "0"]\n',
    FIN + 'twist = [["1", "0"]]\n',
    FIN + 'twist = "1"\n',
    FIN + 'twist = [["x", "0"], ["0", "1"]]\n',
    DEF + 'operator.x = [["1"]]\n',
    DEF + 'operator.1.2 = [["1"]]\n',
    DEF + 'operator.1 = [["D", "+"]]\n',
    DEF + 'bracket.0.L.L = ["D"]\n',
    DEF + 'bracket.0.Q.L = ["D"]\n',
    DEF + 'bracket.1.L = ["D"]\n',
    DEF + 'bracket.1.L.M = ["D"]\nbracket.0.L.L = ["D"]\n',
    DEF + 'bracket.x.L.L = ["D"]\n',
    DEF + 'bracket.1.L.L = ["D", "D"]\n',
    DEF + 'bracket.1.L.L = ["l1"]\nbracket.1.L.L = ["D"]\n',  # a key given twice
    DEF + 'order = "x"\n',
    DEF + 'order = ["1"]\n',
    ALG + '[deformation:d]\norder = "1"\noperator.1 = [["1"]]\n',
    ALG + '[deformation:d]\noperator.0 = [["2"]]\noperator.x = [["1"]]\nbracket.0.L.L = ["D"]\n',
]


@pytest.mark.parametrize("text", MALFORMED)
def test_builders_match_reference_on_malformed_input(text):
    assert_builders_agree(text)


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_builders_on_edited_shipped_files(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    rng = random.Random("builders " + os.path.basename(path))
    for _ in range(100):
        assert_builders_agree(_edited(text, rng))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(definition_texts())
def test_builders_on_generated_text(text):
    assert_builders_agree(text)
