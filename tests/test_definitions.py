"""Definition-file parsing, resolution, and round-trip printing."""

import glob
import os
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import reference_scanner
from homleib.cli import main
from homleib.poly import MAX_ARITY, MAX_ORDER, parse_poly
from homleib.definitions import (
    DefinitionError,
    algebra_to_section,
    build_algebra,
    build_cochain,
    build_deformation,
    build_finite,
    build_ns,
    build_operator,
    build_representation,
    parse_definition,
    print_definition,
    representation_to_section,
    section_to_text,
)
from homleib.structure import current_algebra
from homleib.representation import adjoint_rep

DEFS_DIR = os.path.join(os.path.dirname(__file__), "..", "defs")

VIRASORO_TEXT = """\
[algebra]
name = "virasoro"
basis = ["L"]
alpha = [["1"]]
bracket.L.L = ["D + 2*x"]
"""


def test_parse_canonical_file():
    alg = build_algebra(parse_definition(VIRASORO_TEXT))
    assert alg.rank == 1
    assert alg.basis_names == ("L",)
    assert alg.structure[(0, 0)][0] == parse_poly("D + 2*x")


def test_missing_bracket_defaults_to_zero():
    text = '[algebra]\nbasis = ["a", "b"]\nalpha = [["1","0"],["0","1"]]\n'
    alg = build_algebra(parse_definition(text))
    assert alg.rank == 2 and not alg.structure


def test_malformed_polynomial_reports_position():
    text = '[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = ["D + * 2"]\n'
    with pytest.raises(DefinitionError) as exc:
        build_algebra(parse_definition(text))
    assert "position 4" in str(exc.value)


def test_unknown_basis_name_rejected():
    text = '[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.M = ["D"]\n'
    with pytest.raises(DefinitionError) as exc:
        build_algebra(parse_definition(text))
    assert "unknown basis name" in str(exc.value)


def test_reserved_basis_names_rejected():
    for bad in ("D", "x", "l1", "mu"):
        text = f'[algebra]\nbasis = ["{bad}"]\nalpha = [["1"]]\n'
        with pytest.raises(DefinitionError):
            build_algebra(parse_definition(text))


def test_empty_basis_name_rejected():
    for names in ('""', '"L", ""'):
        text = f'[algebra]\nbasis = [{names}]\nalpha = [["1"]]\n'
        with pytest.raises(DefinitionError) as exc:
            build_algebra(parse_definition(text))
        assert str(exc.value) == "[algebra]: empty basis name"


def test_reserved_lambda_names_follow_the_parser():
    # l<i> is reserved exactly when parse_poly would read it as a lambda
    # variable: a decimal index, which "²" is not
    for bad in ("l0", "l7", "l12"):
        text = f'[algebra]\nbasis = ["{bad}"]\nalpha = [["1"]]\n'
        with pytest.raises(DefinitionError) as exc:
            build_algebra(parse_definition(text))
        assert str(exc.value) == f"[algebra]: basis name '{bad}' is reserved"
    for good in ("l", "l²", "lx", "L1"):
        text = f'[algebra]\nbasis = ["{good}"]\nalpha = [["1"]]\nbracket.{good}.{good} = ["D"]\n'
        alg = build_algebra(parse_definition(text))
        assert alg.basis_names == (good,) and alg.structure[0, 0] == (parse_poly("D"),)


def test_duplicate_sections_rejected():
    text = VIRASORO_TEXT + "\n" + VIRASORO_TEXT
    with pytest.raises(DefinitionError) as exc:
        parse_definition(text)
    assert "duplicate" in str(exc.value)


def test_unknown_section_kind_rejected():
    with pytest.raises(DefinitionError):
        parse_definition('[mystery]\nkey = "1"\n')


def test_syntax_error_carries_line_and_column():
    with pytest.raises(DefinitionError) as exc:
        parse_definition('[algebra]\nbasis = ["L" "M"]\n')
    assert str(exc.value) == "line 2, column 14: expected ',' or ']' in list"
    with pytest.raises(DefinitionError) as exc:
        parse_definition('[algebra]\nbasis = ,\n')
    assert str(exc.value) == "line 2, column 9: expected a string or a list"


# Each message as the character scanner gave it; lines and columns count
# from 1, and a column counts characters since the last newline.
@pytest.mark.parametrize(
    "text, message",
    [
        # the kind is checked once the header is read, so the column
        # falls just after its `]`
        ('[mystery]\nkey = "1"\n', "line 1, column 10: unknown section kind 'mystery'"),
        ("# c\n  [mystery:x]  \n", "line 2, column 14: unknown section kind 'mystery'"),
        (
            '[algebra]\nbasis = ["L"]\n\n[algebra]\nbasis = ["M"]\n',
            "line 4, column 10: duplicate section [algebra]",
        ),
        ('[operator:a]\nm = "1"\n[operator:a]\n', "line 3, column 13: duplicate section [operator:a]"),
        # an unterminated string stops at its newline, or at the end of the text
        ('[algebra]\nbasis = ["L]\nalpha = [["1"]]\n', "line 2, column 13: unterminated string"),
        ('[algebra]\nbasis = ["L', "line 2, column 12: unterminated string"),
        # `[` and `"` inside a comment open nothing
        ('[algebra] # [finite]\nbasis = ,\n', "line 2, column 9: expected a string or a list"),
        ('# "open\n[algebra]\nbasis = ["L"] # "x\n  alpha ~\n', "line 4, column 9: expected '='"),
        ('[algebra]\nbasis = ["L", # "] [\n "M" x]\n', "line 3, column 6: expected ',' or ']' in list"),
        # a carriage return is a blank, and counts as a column
        ('[algebra]\r\nbasis = ["L"\r\n,, ]\r\n', "line 3, column 2: expected a string or a list"),
        ('key = "1"\n', "line 1, column 1: expected a section header"),
        (
            '[algebra]\nk = ' + "[" * 101 + '"a"' + "]" * 101 + "\n",
            "line 2, column 105: lists nested deeper than 100 levels",
        ),
        ("  # only a comment\n", "empty definition file"),
        # the kind and duplicate positions after a spaced header
        ("  [ mystery ]\n", "line 1, column 14: unknown section kind 'mystery'"),
        ("[cochain:f]\n[cochain : f ] # again\n", "line 2, column 15: duplicate section [cochain:f]"),
        # `#` directly after `=`, `,`, `.` and `:` hides the rest of its line
        ('[algebra]\nbasis =# "x"\n', "line 3, column 1: expected a string or a list"),
        ('[algebra]\nbasis = ["L",# "M"]\n]\n', "line 3, column 1: expected a string or a list"),
        ('[algebra]\nbracket.# L\n= ["D"]\n', "line 3, column 1: expected an identifier"),
        ("[cochain:# f\n]\n", "line 2, column 1: expected an identifier"),
        # a comment that ends the file, with no newline
        ("[algebra]\nbasis = #", "line 2, column 10: expected a string or a list"),
        ('[algebra]\nbasis = ["L"]\nalpha #', "line 3, column 8: expected '='"),
        # an unterminated string at the end, and before a CRLF
        ('[algebra]\nbasis = "', "line 2, column 10: unterminated string"),
        ('[algebra]\nbasis = "L\r\n', "line 2, column 12: unterminated string"),
        # `""` is a whole value; `"""` is one, then an unterminated string
        ('[algebra]\nbasis = ""\n""\n', "line 3, column 1: expected an identifier"),
        ('[algebra]\nk = ["", """]\n', "line 2, column 12: expected ',' or ']' in list"),
        # form feed, vertical tab and no-break space are not blanks here
        ('[algebra]\nbasis = ["L"]\f\n', "line 2, column 14: expected an identifier"),
        ('[algebra]\nbasis =\v["L"]\n', "line 2, column 8: expected a string or a list"),
        ('[algebra]\nbasis\xa0= ["L"]\n', "line 2, column 6: expected '='"),
    ],
)
def test_syntax_error_messages(text, message):
    with pytest.raises(DefinitionError) as exc:
        parse_definition(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (VIRASORO_TEXT + 'bracket.L.L = ["D"]\n', "line 6, column 1: duplicate key 'bracket.L.L' in [algebra]"),
        # the first key given twice, at its second place; spaced keys are the same key
        (
            '[cochain:f]\narity = "1"\nvalue . L = ["D"]\n  value.L = ["1"]\narity = "2"\n',
            "line 4, column 3: duplicate key 'value.L' in [cochain:f]",
        ),
        # the file is scanned to its end first: a scan error is reported before it
        (VIRASORO_TEXT + 'basis = ["M"]\n[finite\n', "line 8, column 1: expected ']'"),
    ],
)
def test_a_key_given_twice_in_one_section_is_an_error(text, message):
    with pytest.raises(DefinitionError) as exc:
        parse_definition(text)
    assert str(exc.value) == message


def test_a_key_may_recur_in_another_section():
    text = '[operator:a]\nmatrix = [["1"]]\n[operator:b]\nmatrix = [["2"]]\n'
    assert [s.entries for s in parse_definition(text).sections] == [
        [(("matrix",), [["1"]])],
        [(("matrix",), [["2"]])],
    ]


# The scanner holds one list entry per token, 8 bytes for a one-character
# token.  Traced peaks on 1 MiB, Python 3.11: 0.002 MiB for the former
# position-at-a-time scanner, 8.06 MiB for the token list (either input).
SCAN_PEAK_BOUND = 16 << 20


@pytest.mark.parametrize(
    "ch, message",
    [("[", "line 1, column 2: expected an identifier"), (",", "line 1, column 1: expected a section header")],
)
def test_scanner_memory_is_bounded(ch, message):
    text = ch * (1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(DefinitionError) as exc:
            parse_definition(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < SCAN_PEAK_BOUND, peak


def test_unresolved_operator_reference():
    with pytest.raises(DefinitionError):
        build_operator(parse_definition(VIRASORO_TEXT), "nope")


def test_cochain_variable_discipline():
    text = (
        VIRASORO_TEXT
        + '\n[cochain:f]\narity = "1"\nvalue.L = ["l1"]\n'
    )
    file = parse_definition(text)
    alg = build_algebra(file)
    with pytest.raises(DefinitionError):
        build_cochain(file, "f", alg, 1)


def test_finite_section_round_trip():
    text = (
        "[finite]\n"
        'basis = ["e1", "e2"]\n'
        'twist = [["1", "0"], ["0", "1"]]\n'
        'c.e2.e2 = ["1", "0"]\n'
    )
    rank, constants, twist, names = build_finite(parse_definition(text))
    assert rank == 2 and names == ("e1", "e2")
    alg = current_algebra(rank, constants, twist, names)
    assert alg.structure[(1, 1)][0] == parse_poly("1")


def test_deformation_requires_base_operator():
    text = VIRASORO_TEXT + '\n[deformation]\norder = "1"\n'
    file = parse_definition(text)
    alg = build_algebra(file)
    with pytest.raises(DefinitionError):
        build_deformation(file, alg)


def test_print_parse_round_trip_is_idempotent_on_shipped_files():
    paths = sorted(glob.glob(os.path.join(DEFS_DIR, "*.def")))
    assert paths, "no shipped definition files found"
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        first = parse_definition(text)
        printed = print_definition(first)
        second = parse_definition(printed)
        assert print_definition(second) == printed, path


def test_shipped_files_resolve():
    for path in sorted(glob.glob(os.path.join(DEFS_DIR, "*.def"))):
        with open(path, encoding="utf-8") as fh:
            file = parse_definition(fh.read())
        if file.all_of("algebra"):
            alg = build_algebra(file)
            if file.all_of("representation"):
                build_representation(file, alg)
            for s in file.all_of("deformation"):
                build_deformation(file, alg, s.name)
        if file.all_of("ns"):
            build_ns(file)
        if file.all_of("finite"):
            build_finite(file)


def test_emitted_sections_reparse(vir):
    section = algebra_to_section(vir, name="emitted")
    file = parse_definition(section_to_text(section))
    again = build_algebra(file)
    assert again.structure == vir.structure
    rep_section = representation_to_section(adjoint_rep(vir), vir)
    file = parse_definition(VIRASORO_TEXT + "\n" + section_to_text(rep_section))
    rep = build_representation(file, vir)
    assert rep.l_structure == adjoint_rep(vir).l_structure


def test_comments_and_whitespace_tolerated():
    text = "# leading comment\n" + VIRASORO_TEXT + "# trailing\n"
    assert build_algebra(parse_definition(text)).rank == 1
    # `[` and `"` inside a comment open nothing
    text = '[algebra]  # [finite]\nbasis = ["L"]  # x = "y\n'
    [section] = parse_definition(text).sections
    assert (section.kind, section.name, section.entries) == ("algebra", None, [(("basis",), ["L"])])


# -- digits that int() rejects ------------------------------------------------
# `str.isdigit()` accepts superscripts such as "²", which int() rejects;
# each site tests `str.isdecimal()` and ends in a prefixed DefinitionError.

DEFORMATION_HEAD = VIRASORO_TEXT + '\n[deformation:d]\noperator.0 = [["1"]]\n'


@pytest.mark.parametrize(
    "text, build, message",
    [
        (
            VIRASORO_TEXT + '\n[cochain:f]\narity = "²"\n',
            lambda file, alg: build_cochain(file, "f", alg, 1),
            "[cochain:f]: arity must be a positive integer string",
        ),
        (
            DEFORMATION_HEAD + 'order = "¹"\n',
            lambda file, alg: build_deformation(file, alg, "d"),
            "[deformation:d]: order must be an integer string",
        ),
        (
            DEFORMATION_HEAD + 'operator.² = [["1"]]\n',
            lambda file, alg: build_deformation(file, alg, "d"),
            "[deformation:d]: operator keys look like operator.<order>",
        ),
        (
            DEFORMATION_HEAD + 'bracket.².L.L = ["D"]\n',
            lambda file, alg: build_deformation(file, alg, "d"),
            "[deformation:d]: bracket keys look like bracket.<order>.<a>.<b>",
        ),
    ],
    ids=["arity", "order", "operator-key", "bracket-key"],
)
def test_unicode_digit_is_definition_error(text, build, message):
    file = parse_definition(text)
    with pytest.raises(DefinitionError) as exc:
        build(file, build_algebra(file))
    assert str(exc.value) == message


# -- defects the shared readers catch -----------------------------------------
# A square matrix of the wrong shape and a variable other than D and x in
# a structure or action table end in a DefinitionError naming the section,
# as they do in [algebra], and in one stderr line from the command line.

REP_HEAD = VIRASORO_TEXT + '\n[representation]\nbasis = ["m"]\nbeta = [["1"]]\n'


@pytest.mark.parametrize(
    "text, build, argv, message",
    [
        (
            '[ns]\nbasis = ["a"]\nalpha = [["1", "0"], ["0", "1"]]\n',
            build_ns,
            ("check", "ns"),
            "[ns]: alpha must be 1x1",
        ),
        (
            VIRASORO_TEXT + '\n[representation]\nbasis = ["m", "n"]\nbeta = [["1"]]\n',
            lambda file: build_representation(file, build_algebra(file)),
            ("check", "rep"),
            "[representation]: beta must be 2x2",
        ),
        (
            REP_HEAD + 'nm = [["1", "0"]]\n',
            lambda file: build_representation(file, build_algebra(file)),
            ("check", "rep"),
            "[representation]: nm must be 1x1",
        ),
        (
            DEFORMATION_HEAD + 'operator.1 = [["1", "0"], ["0", "1"]]\n',
            lambda file: build_deformation(file, build_algebra(file), "d"),
            ("deform", "check-order", "--name", "d"),
            "[deformation:d]: operator.1 must be 1x1",
        ),
        (
            REP_HEAD + 'l.L.m = ["D + l1"]\n',
            lambda file: build_representation(file, build_algebra(file)),
            ("check", "rep"),
            "[representation]: l entries may only use D and x",
        ),
        (
            REP_HEAD + 'r.m.L = ["x*l2"]\n',
            lambda file: build_representation(file, build_algebra(file)),
            ("check", "rep"),
            "[representation]: r entries may only use D and x",
        ),
        (
            '[ns]\nbasis = ["a"]\nalpha = [["1"]]\nleft.a.a = ["x"]\nvee.a.a = ["l1"]\n',
            build_ns,
            ("check", "ns"),
            "[ns]: vee entries may only use D and x",
        ),
        (
            DEFORMATION_HEAD + 'bracket.1.L.L = ["D + l1"]\n',
            lambda file: build_deformation(file, build_algebra(file), "d"),
            ("deform", "check-order", "--name", "d"),
            "[deformation:d]: bracket entries may only use D and x",
        ),
    ],
    ids=["ns-alpha", "beta", "nm", "operator-order", "l", "r", "vee", "deformation-bracket"],
)
def test_shape_and_variable_defects_name_their_section(capsys, tmp_path, text, build, argv, message):
    with pytest.raises(DefinitionError) as exc:
        build(parse_definition(text))
    assert str(exc.value) == message
    bad = tmp_path / "bad.def"
    bad.write_text(text, encoding="utf-8")
    assert main([*argv[:2], str(bad), *argv[2:]]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "entry",
    ['order = "999999999"', 'order = "101"', 'order = "' + "9" * 5000 + '"', 'operator.101 = [["1"]]',
     'bracket.101.L.L = ["D"]'],
    ids=["order-huge", "order", "order-5000-digits", "operator-key", "bracket-key"],
)
def test_deformation_order_is_bounded(entry):
    file = parse_definition(DEFORMATION_HEAD + entry + "\n")
    with pytest.raises(DefinitionError) as exc:
        build_deformation(file, build_algebra(file), "d")
    assert str(exc.value) == f"[deformation:d]: orders above {MAX_ORDER} are not supported"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit here")
def test_a_lower_digit_limit_for_int_bounds_orders_too():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        file = parse_definition(DEFORMATION_HEAD + 'order = "' + "9" * 1000 + '"\n')
        with pytest.raises(DefinitionError) as exc:
            build_deformation(file, build_algebra(file), "d")
        assert str(exc.value) == f"[deformation:d]: orders above {MAX_ORDER} are not supported"
    finally:
        sys.set_int_max_str_digits(old)


def test_deformation_orders_up_to_the_bound_are_read():
    file = parse_definition(DEFORMATION_HEAD + f'order = "{MAX_ORDER}"\nbracket.0{MAX_ORDER}.L.L = ["0"]\n')
    assert build_deformation(file, build_algebra(file), "d").order == MAX_ORDER
    # a key of an order whose entries are all zero still declares the order
    file = parse_definition(DEFORMATION_HEAD + 'bracket.3.L.L = ["0"]\n')
    assert build_deformation(file, build_algebra(file), "d").order == 3


COCHAIN_HEAD = VIRASORO_TEXT + "\n[cochain:f]\n"


@pytest.mark.parametrize(
    "arity",
    [str(MAX_ARITY + 1), "1000000", "9" * 5000, "0" * 5000 + "1"],
    ids=["next", "million", "5000-digits", "5001-digits"],
)
def test_cochain_arity_is_bounded(arity):
    file = parse_definition(COCHAIN_HEAD + f'arity = "{arity}"\n')
    with pytest.raises(DefinitionError) as exc:
        build_cochain(file, "f", build_algebra(file), 1)
    assert str(exc.value) == f"[cochain:f]: arities above {MAX_ARITY} are not supported"


def test_cochain_arities_up_to_the_bound_are_read():
    key = ".L" * MAX_ARITY
    file = parse_definition(COCHAIN_HEAD + f'arity = "0{MAX_ARITY}"\nvalue{key} = ["D + l1"]\n')
    assert build_cochain(file, "f", build_algebra(file), 1).arity == MAX_ARITY
    for arity in ("0", "00"):
        file = parse_definition(COCHAIN_HEAD + f'arity = "{arity}"\n')
        with pytest.raises(DefinitionError) as exc:
            build_cochain(file, "f", build_algebra(file), 1)
        assert str(exc.value) == "[cochain:f]: arity must be a positive integer string"


# -- the scanner against its character-at-a-time reference --------------------


def _outcome(parse, text):
    try:
        return parse(text)
    except DefinitionError as exc:
        return str(exc)


def _sections(text):
    return [(s.kind, s.name, s.entries) for s in parse_definition(text).sections]


def _first_duplicate(sections) -> str | None:
    """The error a key given twice in one section now is, or None."""
    for kind, name, entries in sections:
        keys = set()
        for key, _ in entries:
            if key in keys:
                label = kind if name is None else f"{kind}:{name}"
                return f"duplicate key '{'.'.join(key)}' in [{label}]"
            keys.add(key)
    return None


def assert_same_scan(text):
    """The reference's outcome, except that a file the reference reads
    with a key given twice in one section is now a located error."""
    got, want = _outcome(_sections, text), _outcome(reference_scanner.parse_sections, text)
    duplicate = _first_duplicate(want) if isinstance(want, list) else None
    if duplicate is None:
        assert got == want, repr(text)
    else:
        assert isinstance(got, str) and re.fullmatch(r"line \d+, column \d+: " + re.escape(duplicate), got), (
            repr(text), got
        )


SHIPPED = sorted(glob.glob(os.path.join(DEFS_DIR, "*.def")))
EDIT_CHARS = '[]":.=,# \t\r\n_x²é'


def _edited(text: str, rng: random.Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0:
            chars.insert(i, rng.choice(EDIT_CHARS))
        elif i < len(chars):
            if op == 1:
                del chars[i]
            else:
                chars[i] = rng.choice(EDIT_CHARS)
    return "".join(chars)


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_scanner_matches_reference_on_shipped_and_edited_files(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert_same_scan(text)
    rng = random.Random(os.path.basename(path))
    for _ in range(100):
        assert_same_scan(_edited(text, rng))


_WORD = st.text(st.characters(categories=("L", "N"), include_characters="_"), min_size=1, max_size=5)
_KINDS = ["algebra", "operator", "cochain", "deformation"]
_GAP = st.lists(
    st.sampled_from([" ", "\t", "\n", "\r\n", "# note\n", '# "q [x]\r\n']), max_size=3
).map("".join)
_STRING = st.text(st.characters(exclude_characters='"\n'), max_size=6).map(lambda b: f'"{b}"')
_LIST = st.recursive(
    _STRING | st.sampled_from(['"#"', '"a # b"', '"[x]"']),
    lambda inner: st.lists(inner, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"),
    max_leaves=6,
)
# values that end the file in an error, or sit at the nesting limit
_EDGE = st.sampled_from(['"open\n', '"open', '"a\r\n"']) | st.integers(98, 102).map(
    lambda k: "[" * k + '"a"' + "]" * k
)
# "‿" and a combining accent are not word characters; "²" is one
# True about once in n draws; False, the usual case, is also the simplest
_ONE_IN = {n: st.sampled_from([False] * (n - 1) + [True]) for n in (4, 8, 10)}
_NOISE = st.sampled_from(["", '"', "[", "]", ":", ".", "=", ",", "#", "\n", "\r", "²", "‿", "\u0301"])


@st.composite
def definition_texts(draw):
    """Section headers and entries with blanks, comments and CRLF between
    them; now and then an unknown kind, an edge-case value, a few
    single-character edits or a cut."""
    parts = [draw(_GAP)]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_KINDS + [None])) or draw(_WORD)
        name = draw(st.none() | _WORD)
        parts += ["[", kind, "" if name is None else ":" + name, "]", draw(_GAP)]
        for _ in range(draw(st.integers(0, 3))):
            key = ".".join(draw(st.lists(_WORD, min_size=1, max_size=3)))
            value = draw(_EDGE if draw(_ONE_IN[10]) else _LIST)
            parts += [key, draw(_GAP), "=", draw(_GAP), value, draw(_GAP)]
    parts.append(draw(st.sampled_from(["", "#", "# end", "\n"])))
    text = "".join(parts)
    if draw(_ONE_IN[4]):
        for at, ch in draw(st.lists(st.tuples(st.integers(0, 10_000), _NOISE), max_size=2)):
            at %= len(text) + 1
            text = text[:at] + ch + text[at + (ch == ""):]
    if draw(_ONE_IN[8]):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=400, derandomize=True, deadline=None)
@given(definition_texts())
def test_scanner_matches_reference_on_generated_text(text):
    assert_same_scan(text)
