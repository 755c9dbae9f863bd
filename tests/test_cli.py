"""End-to-end command tests against the shipped definition files."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

from homleib import cli, definitions
from homleib.cli import MAX_WEIGHT_CHARS, _fraction, build_parser, main
from homleib.cohomology import (
    Complex,
    HNLAPair,
    coboundary_HN,
    coboundary_HNLA,
    coboundary_homL,
    phi_map,
    random_cochain,
)
from homleib.definitions import (
    build_algebra,
    build_cochain,
    build_finite,
    build_ns,
    build_operator,
    build_representation,
    parse_definition,
)
from homleib.ns import TwistedRBData, adjacent_algebra, ns_from_nijenhuis, ns_from_rb, ns_from_twisted_rb
from homleib.operators import deformed_bracket
from homleib.representation import adjoint_rep, induced_representation
from homleib.structure import ConformalElement, current_algebra
from homleib.poly import MAX_ARITY, MAX_DIGITS

DEFS = os.path.join(os.path.dirname(__file__), "..", "defs")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def path(name):
    return os.path.join(DEFS, name)


def test_check_algebra_passes(capsys):
    code, out, _ = run(capsys, "check", "algebra", path("virasoro.def"))
    assert code == 0
    assert out.count("[PASS]") == 2


def test_check_lie_passes(capsys):
    code, out, _ = run(capsys, "check", "lie", path("virasoro.def"))
    assert code == 0 and "skew_symmetry" in out


def test_check_nijenhuis_scale(capsys):
    code, out, _ = run(
        capsys, "check", "nijenhuis", path("virasoro_ops.def"), "--op", "scale_c"
    )
    assert code == 0


def test_check_nijenhuis_failure_exit_code(capsys):
    code, out, _ = run(
        capsys, "check", "nijenhuis", path("virasoro_ops.def"), "--op", "dscale"
    )
    assert code == 1
    assert "-D^2*l1 - 3*D*l1^2 - 2*l1^3" in out


def test_check_rb_weight_flag(capsys):
    code, _, _ = run(
        capsys,
        "check", "rb", path("virasoro_ops.def"), "--op", "ident", "--weight", "-1",
    )
    assert code == 0


def test_check_rep_adjoint_default(capsys):
    code, _, _ = run(capsys, "check", "rep", path("virasoro.def"))
    assert code == 0


def test_check_nijrep(capsys):
    code, _, _ = run(
        capsys, "check", "nijrep", path("virasoro_ops.def"), "--op", "scale_2"
    )
    assert code == 0


def test_check_ns(capsys):
    code, _, _ = run(capsys, "check", "ns", path("ns_example.def"))
    assert code == 0


def test_check_twisted_rb(capsys):
    code, _, _ = run(
        capsys,
        "check", "twisted-rb", path("twisted_rb.def"), "--op", "T", "--phi", "phi",
    )
    assert code == 0


def test_check_o_operator(capsys):
    code, _, _ = run(
        capsys, "check", "o-operator", path("virasoro_ops.def"), "--op", "zero"
    )
    assert code == 0


def test_missing_operator_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "nijenhuis", path("virasoro.def"))
    assert code == 2 and "--op" in err


def test_unknown_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "algebra", path("missing.def"))
    assert code == 2 and "cannot read" in err


def one_line_error(capsys, tmp_path, text, *argv):
    bad = tmp_path / "bad.def"
    bad.write_text(text)
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    return err


def test_lambda_zero_is_one_line_error(capsys, tmp_path):
    err = one_line_error(
        capsys, tmp_path,
        '[algebra]\nname = "bad"\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = ["D + l0"]\n',
        "check", "algebra",
    )
    assert "numbered from 1" in err


def test_empty_basis_name_is_one_line_error(capsys, tmp_path):
    err = one_line_error(
        capsys, tmp_path, '[algebra]\nbasis = [""]\nalpha = [["1"]]\n', "check", "algebra"
    )
    assert err == "error: [algebra]: empty basis name\n"


def test_wrong_shape_finite_twist_is_one_line_error(capsys, tmp_path):
    err = one_line_error(
        capsys, tmp_path,
        '[finite]\nbasis = ["a", "b"]\n'
        'twist = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]\nc.b.b = ["1", "0"]\n',
        "construct", "cur",
    )
    assert "twist must be 2x2" in err


def test_key_given_twice_is_one_line_error(capsys, tmp_path):
    err = one_line_error(
        capsys, tmp_path,
        '[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = ["l1"]\nbracket.L.L = ["D"]\n',
        "check", "lie",
    )
    assert err.startswith("error: ")
    assert err.endswith(": line 5, column 1: duplicate key 'bracket.L.L' in [algebra]\n")


def test_a_numeral_of_too_many_digits_is_one_line_error(capsys, tmp_path):
    err = one_line_error(
        capsys, tmp_path,
        '[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = ["x^' + "9" * 5000 + '"]\n',
        "check", "lie",
    )
    assert err == (
        f"error: [algebra] bracket.L.L: numerals of more than {MAX_DIGITS} digits"
        " are not supported (at position 2)\n"
    )


def test_nested_list_matrix_entry_prefixed_once(capsys, tmp_path):
    err = one_line_error(
        capsys, tmp_path, '[algebra]\nbasis = ["L"]\nalpha = [[["1"]]]\n', "check", "algebra"
    )
    assert err == "error: [algebra] alpha: expected a polynomial string\n"


def test_deep_nesting_is_one_line_error(capsys, tmp_path):
    head = '[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = '
    err = one_line_error(
        capsys, tmp_path, head + '["' + "(" * 3000 + "D" + ")" * 3000 + '"]\n', "check", "lie"
    )
    assert "nested deeper than" in err
    err = one_line_error(
        capsys, tmp_path, head + '["D*' + "-" * 3000 + '1"]\n', "check", "lie"
    )
    assert "nested deeper than" in err
    err = one_line_error(
        capsys, tmp_path, head + "[" * 3000 + '"D"' + "]" * 3000 + "\n", "check", "lie"
    )
    assert "nested deeper than" in err


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (
            '[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = ["D^²"]\n',
            ("check", "lie"),
            "[algebra] bracket.L.L: expected an integer (at position 2)",
        ),
        (
            '[algebra]\nbasis = ["L"]\nalpha = [["1"]]\n[cochain:f]\narity = "²"\n',
            ("cohomology", "delta", "--cochain", "f"),
            "[cochain:f]: arity must be a positive integer string",
        ),
    ],
)
def test_unicode_digit_is_one_line_error_naming_the_entry(capsys, tmp_path, text, argv, message):
    # "²" passes str.isdigit() but int() rejects it
    assert one_line_error(capsys, tmp_path, text, *argv) == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("deform", "check-order", "deformations.def", "--name", "b", "--order", "9"),
         "order 9 exceeds stored order 1"),
        (("deform", "check-order", "deformations.def", "--name", "b", "--order", "-1"),
         "order -1 is negative"),
        (("cohomology", "d2-zero", "virasoro.def", "--arity", "0"), "cochains start at arity 1"),
        (("cohomology", "d2-zero", "virasoro.def", "--arity", "-3"), "cochains start at arity 1"),
        (("cohomology", "square-lemma", "virasoro_ops.def", "--op", "scale_2", "--arity", "0"),
         "cochains start at arity 1"),
        (("cohomology", "d2-zero", "virasoro.def", "--arity", str(MAX_ARITY + 1)),
         f"arities above {MAX_ARITY} are not supported"),
        (("cohomology", "square-lemma", "virasoro_ops.def", "--op", "scale_2", "--arity", "1000000"),
         f"arities above {MAX_ARITY} are not supported"),
        (("cohomology", "d2-zero", "virasoro.def", "--arity", "2", "--max-deg", "1000"),
         "a random cochain of 501501 coefficients is above the bound of 100000"),
        (("cohomology", "square-lemma", "virasoro_ops.def", "--op", "scale_2", "--max-deg", "999999999"),
         "a random cochain of 1000000000 coefficients is above the bound of 100000"),
        (("cohomology", "d2-zero", "virasoro.def", "--random", "0"), "--random must be at least 1, not 0"),
        (("cohomology", "d2-zero", "virasoro.def", "--random", "-4"), "--random must be at least 1, not -4"),
        (("cohomology", "square-lemma", "virasoro_ops.def", "--op", "scale_2", "--random", "0"),
         "--random must be at least 1, not 0"),
        (("cohomology", "d2-zero", "virasoro.def", "--max-deg", "-5"), "--max-deg must be at least 0, not -5"),
        (("cohomology", "square-lemma", "virasoro_ops.def", "--op", "scale_2", "--max-deg", "-5"),
         "--max-deg must be at least 0, not -5"),
        # an exponent would build 10^e before anything checks the size
        *(
            (("check", "rb", "virasoro_ops.def", "--op", "ident", f"--weight={text}"),
             f"argument --weight: {text!r} is not an integer, a fraction p/q or a decimal")
            for text in ("1e5000", "2E3", "-1.5e-2", "inf", "nan", "1/2/3", "0x1f", "1_000", " 1", ".5", "5.",
                         "1/-2", "\u0663", "")
        ),
        (("check", "mrb", "virasoro_ops.def", "--op", "ident", "--weight", "1" * (MAX_WEIGHT_CHARS + 1)),
         f"argument --weight: a value of {MAX_WEIGHT_CHARS + 1} characters is above the bound of {MAX_WEIGHT_CHARS}"),
    ],
)
def test_bad_argument_is_one_line_error(capsys, argv, message):
    command, what, name, *flags = argv
    code, out, err = run(capsys, command, what, path(name), *flags)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_construct_cur_output_reparses(capsys):
    code, out, _ = run(capsys, "construct", "cur", path("cur2.def"))
    assert code == 0
    file = parse_definition(out)
    assert file.sections[0].kind == "algebra"


def test_construct_deformed_strict_rejects(capsys):
    code, _, err = run(
        capsys,
        "construct", "deformed", path("virasoro_ops.def"),
        "--op", "dscale", "--strict-preconditions",
    )
    assert code == 2 and "not Nijenhuis" in err


def test_construct_ns_chain(capsys):
    code, out, _ = run(
        capsys, "construct", "ns-from-n", path("virasoro_ops.def"), "--op", "ident"
    )
    assert code == 0
    assert 'vee.L.L = ["-D - 2*x"]' in out


def test_construct_induced_rep(capsys):
    code, out, _ = run(
        capsys, "construct", "induced-rep", path("virasoro_ops.def"), "--op", "scale_2"
    )
    assert code == 0 and "[representation]" in out


def test_construct_adjacent(capsys):
    code, out, _ = run(capsys, "construct", "adjacent", path("ns_example.def"))
    assert code == 0 and 'bracket.L.L = ["D + 2*x"]' in out


def test_cohomology_d2_zero(capsys):
    code, out, _ = run(
        capsys,
        "cohomology", "d2-zero", path("virasoro.def"),
        "--arity", "1", "--random", "5", "--seed", "7",
    )
    assert code == 0 and "d2_zero" in out


def test_cohomology_delta_prints_cochain(capsys):
    code, out, _ = run(
        capsys, "cohomology", "delta", path("virasoro_ops.def"), "--cochain", "f_id"
    )
    assert code == 0
    assert 'value.L.L = ["D + 2*l1"]' in out


def test_cohomology_square_lemma(capsys):
    code, _, _ = run(
        capsys,
        "cohomology", "square-lemma", path("virasoro_ops.def"),
        "--op", "scale_2", "--arity", "1", "--random", "3",
    )
    assert code == 0


def test_cohomology_d_hnla(capsys):
    code, out, _ = run(
        capsys,
        "cohomology", "d-hnla", path("virasoro_ops.def"),
        "--cochain", "h_bracket", "--cochain2", "f_d", "--op", "scale_2",
    )
    assert code == 0 and "[cochain:d_upper]" in out and "[cochain:d_lower]" in out


def test_deform_pipeline(capsys):
    code, _, _ = run(
        capsys, "deform", "check-order", path("deformations.def"), "--name", "b",
        "--order", "1",
    )
    assert code == 0
    code, _, _ = run(capsys, "deform", "cocycle", path("deformations.def"), "--name", "b")
    assert code == 0
    code, _, _ = run(
        capsys,
        "deform", "equiv1", path("deformations.def"), "--a", "a", "--b", "b",
        "--psi", "psi1",
    )
    assert code == 0


@pytest.mark.parametrize("what", ["d2-zero", "square-lemma"])
def test_a_failing_trial_records_its_residual(capsys, tmp_path, what):
    """A failing sampled trial records each nonzero output key at
    (trial,) + key, with the residual there, recomputed here through
    Complex: d(d f) over a bracket D + 3*x, which breaks the twisted
    Leibniz identity, and phi(d f) - d_HN(phi f) under the operator D,
    which is not Nijenhuis."""
    if what == "d2-zero":
        file = tmp_path / "bad.def"
        file.write_text('[algebra]\nname = "bad"\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = ["D + 3*x"]\n')
        assert run(capsys, "check", "algebra", str(file))[0] == 1
        flags = ()
    else:
        file, flags = path("virasoro_ops.def"), ("--op", "dscale")
    code, out, _ = run(
        capsys, "cohomology", what, str(file), *flags,
        "--arity", "1", "--random", "2", "--seed", "3", "--format", "records",
    )
    with open(file, encoding="utf-8") as text:
        definition = parse_definition(text.read())
    alg = build_algebra(definition)
    rep = adjoint_rep(alg)
    if flags:
        rep = dataclasses.replace(rep, n_m=build_operator(definition, "dscale"))
    plain, rng, expected = Complex(alg, rep), Random(3), []
    for trial in range(2):
        f = random_cochain(1, 1, 1, rng)
        if what == "d2-zero":
            residual = plain.d(plain.d(f))
        else:
            hn = plain.twisted(rep.n_m)
            residual = hn.phi(plain.d(f)) - hn.d(hn.phi(f))
        expected += [
            {"context": [trial, *key], "residual": str(ConformalElement(residual.value(key)))}
            for key in sorted(residual.table)
        ]
    assert code == 1 and expected
    assert json.loads(out)["violations"] == expected


def test_records_are_valid_json_and_deterministic(capsys):
    argv = [
        "cohomology", "d2-zero", path("virasoro.def"),
        "--arity", "1", "--random", "4", "--seed", "11", "--format", "records",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    for line in first.strip().splitlines():
        record = json.loads(line)
        assert set(record) == {"check", "status", "violations"}


def test_failure_records_carry_context(capsys):
    code, out, _ = run(
        capsys,
        "check", "nijenhuis", path("virasoro_ops.def"), "--op", "dscale",
        "--format", "records",
    )
    assert code == 1
    record = json.loads(out.strip())
    assert record["status"] == "fail"
    assert record["violations"][0]["context"] == [0, 0]


# -- repeated calls in one process --------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "nijenhuis", path("virasoro_ops.def"), "--op", "dscale", "--format", "records"),
        ("construct", "ns-from-n", path("virasoro_ops.def"), "--op", "ident"),
        ("cohomology", "delta", path("virasoro_ops.def"), "--cochain", "f_id"),
        ("check", "nijenhuis", path("virasoro.def")),
    ],
    ids=["records", "construct", "cochain", "error"],
)
def test_main_twice_gives_identical_output(capsys, argv):
    assert run(capsys, *argv) == run(capsys, *argv)


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "text, value",
    [("-1", -1), ("-9/4", Fraction(-9, 4)), ("0.5", Fraction(1, 2)), ("+3", 3), ("007/014", Fraction(1, 2)),
     ("1" * MAX_WEIGHT_CHARS, int("1" * MAX_WEIGHT_CHARS))],
)
def test_weight_reads_integers_fractions_and_decimals(capsys, text, value):
    assert _fraction(text) == value
    argv = ("check", "rb", path("virasoro_ops.def"), "--op", "ident", "--format", "records", f"--weight={text}")
    assert run(capsys, *argv)[:2] == run(capsys, *argv[:-1], f"--weight={value}")[:2]


def test_weight_with_zero_denominator_is_a_usage_error(capsys):
    err = usage_error(capsys, "check", "rb", path("virasoro_ops.def"), "--op", "ident", "--weight", "1/0")
    assert err.splitlines()[-1] == "homleib check: error: argument --weight: zero denominator in '1/0'"
    assert "Traceback" not in err


def test_usage_error_leaves_main_unchanged(capsys):
    argv = ("construct", "ns-from-n", path("virasoro_ops.def"), "--op", "ident")
    first = run(capsys, *argv)
    err = usage_error(capsys, "check", "nosuch", path("virasoro.def"))
    assert "invalid choice: 'nosuch'" in err
    assert run(capsys, *argv) == first
    assert usage_error(capsys, "check", "nosuch", path("virasoro.def")) == err


def test_usage_text_is_formatted_when_printed(capsys, monkeypatch):
    # help and usage errors take the terminal width at the moment they are
    # printed, as a parser built for the call would
    argv = ["deform", "equiv1"]
    errors = []
    for columns in ("40", "160"):
        monkeypatch.setenv("COLUMNS", columns)
        errors.append(usage_error(capsys, *argv))
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert capsys.readouterr().err == errors[-1]
    assert errors[0] != errors[1]


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["construct", "ns-from-n", path("virasoro_ops.def"), "--op", "ident"], None),
        (["check", "algebra", path("virasoro.def"), "--format", "records"], None),
        # argparse prints these itself and exits from parse_args; a closed
        # pipe shows at the write when stdout is unbuffered, at the flush
        # when it is buffered
        (["--help"], False),
        (["--help"], True),
        (["--version"], False),
        (["--version"], True),
    ],
    ids=["construct", "records", "help", "help-unbuffered", "version", "version-unbuffered"],
)
def test_closed_stdout_ends_quietly(argv, unbuffered):
    """As in `homleib ... | head -0`: nothing on stderr, a nonzero exit."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = "1" if unbuffered else ""
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader from the start, so every write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "homleib.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


# -- the command tables and each family's flags --------------------------------


def _families() -> dict:
    """Family name -> its parser, as main builds them."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _commands(parser) -> tuple:
    return next(a for a in parser._actions if a.dest == "what").choices


def _flags(parser) -> list:
    return [a.option_strings[0] for a in parser._actions if a.option_strings and a.dest != "help"]


def _source(name):
    with open(path(name), encoding="utf-8") as fh:
        return parse_definition(fh.read())


def _alg_op(src, op):
    return build_algebra(src), build_operator(src, op)


def _cochains(printed, alg, **want) -> bool:
    """printed holds exactly the [cochain:NAME] sections of want, in order,
    each with the value want[NAME] over the algebra alg."""
    if [(s.kind, s.name) for s in printed.sections] != [("cochain", name) for name in want]:
        return False
    got = {name: build_cochain(printed, name, alg, f.rep_rank) for name, f in want.items()}
    return all(got[name].arity == f.arity and (got[name] - f).is_zero for name, f in want.items())


def _twisted_rb_data(src):
    alg, op = _alg_op(src, "T")
    rep = build_representation(src, alg)
    return TwistedRBData(alg, rep, op, build_cochain(src, "phi", alg, rep.rank))


def _with_nm(alg, op):
    return dataclasses.replace(adjoint_rep(alg), n_m=op)


def _induced_rep(src, out):
    alg, op = _alg_op(src, "scale_2")
    return build_representation(out, alg) == induced_representation(alg, op, _with_nm(alg, op))


def _delta(src, out):
    alg = build_algebra(src)
    rep = adjoint_rep(alg)
    return _cochains(out, alg, delta=coboundary_homL(build_cochain(src, "f_id", alg, 1), alg, rep))


def _delta_hn(src, out):
    alg, op = _alg_op(src, "scale_2")
    f = build_cochain(src, "f_id", alg, 1)
    return _cochains(out, alg, delta_hn=coboundary_HN(f, alg, op, _with_nm(alg, op)))


def _phi(src, out):
    alg, op = _alg_op(src, "dscale")
    f = build_cochain(src, "h_bracket", alg, 1)
    return _cochains(out, alg, phi=phi_map(f, op, _with_nm(alg, op)))


def _d_hnla(src, out):
    alg, op = _alg_op(src, "scale_2")
    pair = HNLAPair(build_cochain(src, "h_bracket", alg, 1), build_cochain(src, "f_d", alg, 1))
    d = coboundary_HNLA(pair, alg, op, _with_nm(alg, op))
    return _cochains(out, alg, d_upper=d.f, d_lower=d.g)


# (family, command) -> shipped file, flags, exit code and, for a construction
# or a coboundary, whether the printed sections parse back to the object the
# library builds from the file.
EVERY_COMMAND = {
    ("check", "algebra"): ("virasoro.def", (), 0, None),
    ("check", "lie"): ("virasoro.def", (), 0, None),
    ("check", "nijenhuis"): ("virasoro_ops.def", ("--op", "dscale"), 1, None),
    ("check", "rb"): ("virasoro_ops.def", ("--op", "ident", "--weight", "-1"), 0, None),
    ("check", "mrb"): ("virasoro_ops.def", ("--op", "ident", "--weight", "1"), 1, None),
    ("check", "rep"): ("twisted_rb.def", ("--format", "records"), 0, None),
    ("check", "nijrep"): ("virasoro_ops.def", ("--op", "scale_2"), 0, None),
    ("check", "ns"): ("ns_example.def", ("--check-vee-skew",), 0, None),
    ("check", "twisted-rb"): ("twisted_rb.def", ("--op", "T", "--phi", "phi"), 0, None),
    ("check", "o-operator"): ("virasoro_ops.def", ("--op", "zero"), 0, None),
    ("construct", "deformed"): (
        "virasoro_ops.def", ("--op", "scale_c"), 0,
        lambda src, out: build_algebra(out) == deformed_bracket(*_alg_op(src, "scale_c")),
    ),
    ("construct", "ns-from-n"): (
        "virasoro_ops.def", ("--op", "ident"), 0,
        lambda src, out: build_ns(out) == ns_from_nijenhuis(*_alg_op(src, "ident")),
    ),
    ("construct", "ns-from-rb"): (
        "virasoro_ops.def", ("--op", "ident", "--weight", "-1"), 0,
        lambda src, out: build_ns(out) == ns_from_rb(*_alg_op(src, "ident"), -1),
    ),
    ("construct", "ns-from-trb"): (
        "twisted_rb.def", ("--op", "T", "--phi", "phi"), 0,
        lambda src, out: build_ns(out) == ns_from_twisted_rb(_twisted_rb_data(src)),
    ),
    ("construct", "induced-rep"): ("virasoro_ops.def", ("--op", "scale_2", "--strict-preconditions"), 0, _induced_rep),
    ("construct", "cur"): (
        "cur2.def", (), 0, lambda src, out: build_algebra(out) == current_algebra(*build_finite(src)),
    ),
    ("construct", "adjacent"): (
        "ns_example.def", (), 0, lambda src, out: build_algebra(out) == adjacent_algebra(build_ns(src)),
    ),
    ("cohomology", "delta"): ("virasoro_ops.def", ("--cochain", "f_id"), 0, _delta),
    ("cohomology", "delta-hn"): ("virasoro_ops.def", ("--cochain", "f_id", "--op", "scale_2"), 0, _delta_hn),
    ("cohomology", "phi"): ("virasoro_ops.def", ("--cochain", "h_bracket", "--op", "dscale"), 0, _phi),
    ("cohomology", "d-hnla"): (
        "virasoro_ops.def", ("--cochain", "h_bracket", "--cochain2", "f_d", "--op", "scale_2"), 0, _d_hnla,
    ),
    ("cohomology", "d2-zero"): (
        "virasoro.def", ("--arity", "2", "--random", "2", "--seed", "1", "--max-deg", "1", "--format", "records"), 0, None,
    ),
    ("cohomology", "square-lemma"): ("virasoro_ops.def", ("--op", "scale_2", "--random", "2"), 0, None),
    ("deform", "check-order"): ("deformations.def", ("--name", "b", "--order", "1", "--format", "records"), 0, None),
    ("deform", "cocycle"): ("deformations.def", ("--name", "b"), 0, None),
    ("deform", "equiv1"): ("deformations.def", ("--a", "a", "--b", "b", "--psi", "psi1"), 0, None),
}
PARSER_COMMANDS = [(family, what) for family, parser in _families().items() for what in _commands(parser)]


@pytest.mark.parametrize("family, what", PARSER_COMMANDS, ids="-".join)
def test_every_command_runs_through_main(capsys, family, what):
    assert (family, what) in EVERY_COMMAND, f"no case for {family} {what}"
    name, flags, exit_code, parses_back = EVERY_COMMAND[family, what]
    code, out, err = run(capsys, family, what, path(name), *flags)
    assert (code, err) == (exit_code, "")
    if parses_back is not None:
        assert parses_back(_source(name), parse_definition(out))


def test_every_command_case_is_offered_by_the_parser():
    assert sorted(EVERY_COMMAND) == sorted(PARSER_COMMANDS)


# The flags no command of the family reads, which the family refuses.
REMOVED_FLAGS = {
    "check": ("--seed", "--max-deg", "--random", "--strict-preconditions"),
    "construct": ("--format", "--seed", "--max-deg", "--random"),
    "cohomology": ("--strict-preconditions", "--weight", "--phi"),
    "deform": ("--seed", "--max-deg", "--random", "--strict-preconditions", "--op", "--weight", "--phi"),
}
FLAG_VALUES = {"--seed": "1", "--max-deg": "1", "--random": "1", "--format": "records", "--weight": "1",
               "--phi": "phi", "--op": "ident"}
WORKING = {
    "check": ("check", "algebra", "virasoro.def"),
    "construct": ("construct", "cur", "cur2.def"),
    "cohomology": ("cohomology", "delta", "virasoro_ops.def", "--cochain", "f_id"),
    "deform": ("deform", "cocycle", "deformations.def", "--name", "b"),
}


@pytest.mark.parametrize(
    "family, flag", [(family, flag) for family, flags in REMOVED_FLAGS.items() for flag in flags], ids="".join
)
def test_a_flag_the_family_does_not_read_is_a_usage_error(capsys, family, flag):
    command, what, name, *flags = WORKING[family]
    assert run(capsys, command, what, path(name), *flags)[0] == 0
    extra = (flag, FLAG_VALUES[flag]) if flag in FLAG_VALUES else (flag,)
    with pytest.raises(SystemExit) as exc:
        main([command, what, path(name), *flags, *extra])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "error: unrecognized arguments: " + " ".join(extra) in out.err


def test_each_family_takes_23_flags_in_all():
    assert {family: len(_flags(parser)) for family, parser in _families().items()} == {
        "check": 5, "construct": 4, "cohomology": 8, "deform": 6,
    }


def test_the_module_docstring_lists_each_family_commands_and_flags():
    block = cli.__doc__.split("\n\n")[2]
    listed, family = {}, None
    for line in block.splitlines():
        words = line.split()
        if not line.startswith("               "):
            family = words.pop(0)
        listed.setdefault(family, []).extend(w for w in words if w != "|")
    assert listed == {family: [*_commands(parser), *_flags(parser)] for family, parser in _families().items()}


def _readme_commands() -> list:
    """The argv of each `homleib` line in README's command-line block."""
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"## Command line\n\n```sh\n(.*?)```", fh.read(), re.DOTALL).group(1)
    return [
        line.split("#")[0].replace("[", "").replace("]", "").split()[1:]
        for line in block.splitlines()
        if line.startswith("homleib ")
    ]


def test_every_readme_command_parses():
    parser, commands = build_parser(), _readme_commands()
    for argv in commands:
        parser.parse_args(argv)
    assert sorted({tuple(argv[:2]) for argv in commands}) == sorted(PARSER_COMMANDS)


# twisted_rb.def with an arity-1 cochain, the lower component of a d-hnla pair
READS_THE_REPRESENTATION = [
    ("check", "rep"),
    ("check", "nijrep", "--op", "T"),
    ("check", "twisted-rb", "--op", "T", "--phi", "phi"),
    ("check", "o-operator", "--op", "T"),
    ("construct", "induced-rep", "--op", "T"),
    ("construct", "ns-from-trb", "--op", "T", "--phi", "phi"),
    ("cohomology", "delta", "--cochain", "phi"),
    ("cohomology", "delta-hn", "--cochain", "phi", "--op", "T"),
    ("cohomology", "phi", "--cochain", "phi", "--op", "T"),
    ("cohomology", "d-hnla", "--cochain", "phi", "--cochain2", "g", "--op", "T"),
    ("cohomology", "d2-zero", "--random", "1"),
    ("cohomology", "square-lemma", "--op", "T", "--random", "1"),
]


@pytest.mark.parametrize("argv", READS_THE_REPRESENTATION, ids=lambda argv: "-".join(argv[:2]))
def test_a_command_reads_the_representation_once(capsys, monkeypatch, tmp_path, argv):
    with open(path("twisted_rb.def"), encoding="utf-8") as fh:
        text = fh.read()
    file = tmp_path / "twisted_rb_g.def"
    file.write_text(text + '\n[cochain:g]\narity = "1"\nvalue.L = ["D"]\n', encoding="utf-8")
    calls = []

    def counted(*a, **kw):
        calls.append(a)
        return build_representation(*a, **kw)

    monkeypatch.setattr(definitions, "build_representation", counted)
    command, what, *flags = argv
    code, _, err = run(capsys, command, what, str(file), *flags)
    assert err == "" and code in (0, 1)
    assert len(calls) == 1
