"""Command-line entry points.

Four command families, each taking the flags its commands read:

    check      algebra | lie | nijenhuis | rb | mrb | rep | nijrep | ns
               | twisted-rb | o-operator
               --format --op --weight --phi --check-vee-skew
    construct  deformed | ns-from-n | ns-from-rb | ns-from-trb
               | induced-rep | cur | adjacent
               --strict-preconditions --op --weight --phi
    cohomology delta | delta-hn | phi | d-hnla | d2-zero | square-lemma
               --cochain --cochain2 --arity --seed --max-deg --random
               --format --op
    deform     check-order | cocycle | equiv1
               --name --order --a --b --psi --format

Check and verification commands emit one report per check (text or
line-delimited JSON records with --format records) and exit 0 exactly
when everything passed.  Construct commands print the resulting object
in definition-file form.  An input or library error ends in one stderr
line and exit 2; a closed standard output ends the command quietly with
exit 141.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys
from fractions import Fraction
from random import Random

from . import __version__
from .report import Report, checked
from .structure import (
    ConformalElement,
    current_algebra,
    verify_hom_leibniz,
    verify_multiplicativity,
    verify_skew_symmetry,
)
from .operators import (
    OperatorKind,
    deformed_bracket,
    verify_operator,
)
from .representation import (
    adjoint_rep,
    induced_representation,
    verify_nijenhuis_representation,
    verify_representation,
)
from .cohomology import (
    Complex,
    HNLAPair,
    coboundary_HN,
    coboundary_HNLA,
    coboundary_homL,
    phi_map,
    random_cochain,
)
from .deformation import (
    equivalence_order1_check,
    infinitesimal_cocycle_check,
    verify_deformation_order,
)
from .ns import (
    TwistedRBData,
    adjacent_algebra,
    ns_from_nijenhuis,
    ns_from_rb,
    ns_from_twisted_rb,
    verify_ns_axioms,
    verify_o_operator,
    verify_twisted_rb,
)
from . import definitions as defs


class CliError(Exception):
    pass


def _load(path: str) -> defs.DefinitionFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return defs.parse_definition(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except defs.DefinitionError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _emit(reports: list[Report], fmt: str) -> int:
    for r in reports:
        print(r.to_record() if fmt == "records" else r.to_text())
    return 0 if all(r.passed for r in reports) else 1


def _sections_out(*sections) -> int:
    sys.stdout.write("\n".join(map(defs.section_to_text, sections)))
    return 0


def _rep_or_adjoint(file, alg):
    if file.all_of("representation"):
        return defs.build_representation(file, alg)
    return adjoint_rep(alg)


def _alg_rep(file):
    alg = defs.build_algebra(file)
    return alg, _rep_or_adjoint(file, alg)


def _rep_with_module_operator(rep, op):
    """Coefficients for the operator-twisted complexes: rep if it carries
    nm, otherwise rep with the algebra operator as module operator."""
    return rep if rep.n_m is not None else dataclasses.replace(rep, n_m=op)


def _need_op(args) -> str:
    if not args.op:
        raise CliError("this command needs --op NAME")
    return args.op


def _alg_op(file, args):
    alg = defs.build_algebra(file)
    return alg, defs.build_operator(file, _need_op(args))


def _twisted_data(file, args) -> TwistedRBData:
    alg, op = _alg_op(file, args)
    rep = _rep_or_adjoint(file, alg)
    if not args.phi:
        raise CliError("this command needs --phi NAME (an arity-2 cochain section)")
    return TwistedRBData(alg, rep, op, defs.build_cochain(file, args.phi, alg, rep.rank))


# -- check: each command returns its reports ----------------------------------


def _check_algebra(file, args):
    alg = defs.build_algebra(file)
    return [verify_hom_leibniz(alg), verify_multiplicativity(alg)]


def _check_operator(file, args, kind):
    alg, op = _alg_op(file, args)
    return [verify_operator(alg, op, kind)]


def _check_nijrep(file, args):
    alg, op = _alg_op(file, args)
    return [verify_nijenhuis_representation(alg, op, _rep_with_module_operator(_rep_or_adjoint(file, alg), op))]


def _check_o_operator(file, args):
    alg, op = _alg_op(file, args)
    return [verify_o_operator(alg, _rep_or_adjoint(file, alg), op)]


_CHECKS = {
    "algebra": _check_algebra,
    "lie": lambda file, args: [verify_skew_symmetry(defs.build_algebra(file))],
    "nijenhuis": lambda file, args: _check_operator(file, args, OperatorKind.nijenhuis()),
    "rb": lambda file, args: _check_operator(file, args, OperatorKind.rota_baxter(args.weight)),
    "mrb": lambda file, args: _check_operator(file, args, OperatorKind.modified_rota_baxter(args.weight)),
    "rep": lambda file, args: [verify_representation(*_alg_rep(file))],
    "nijrep": _check_nijrep,
    "ns": lambda file, args: [verify_ns_axioms(defs.build_ns(file), check_vee_skew=args.check_vee_skew)],
    "twisted-rb": lambda file, args: [verify_twisted_rb(_twisted_data(file, args))],
    "o-operator": _check_o_operator,
}


def cmd_check(args) -> int:
    return _emit(_CHECKS[args.what](_load(args.file), args), args.format)


# -- construct: each command returns the object's section ---------------------


def _induced_rep(file, args):
    alg, op = _alg_op(file, args)
    rep = _rep_with_module_operator(_rep_or_adjoint(file, alg), op)
    out = induced_representation(alg, op, rep, strict=args.strict_preconditions)
    return defs.representation_to_section(out, alg)


_CONSTRUCTIONS = {
    "deformed": lambda file, args: defs.algebra_to_section(
        deformed_bracket(*_alg_op(file, args), strict=args.strict_preconditions), name="deformed"
    ),
    "ns-from-n": lambda file, args: defs.ns_to_section(
        ns_from_nijenhuis(*_alg_op(file, args), strict=args.strict_preconditions)
    ),
    "ns-from-rb": lambda file, args: defs.ns_to_section(
        ns_from_rb(*_alg_op(file, args), args.weight, strict=args.strict_preconditions)
    ),
    "ns-from-trb": lambda file, args: defs.ns_to_section(
        ns_from_twisted_rb(_twisted_data(file, args), strict=args.strict_preconditions)
    ),
    "induced-rep": _induced_rep,
    "cur": lambda file, args: defs.algebra_to_section(current_algebra(*defs.build_finite(file)), name="cur"),
    "adjacent": lambda file, args: defs.algebra_to_section(adjacent_algebra(defs.build_ns(file)), name="adjacent"),
}


def cmd_construct(args) -> int:
    return _sections_out(_CONSTRUCTIONS[args.what](_load(args.file), args))


# -- cohomology: each command prints its result and returns the exit code -----


def _check_sampling(args) -> None:
    """A sampled check passes only after at least one trial on cochains
    that are not zero by construction."""
    if args.random < 1:
        raise CliError(f"--random must be at least 1, not {args.random}")
    if args.max_deg < 0:
        raise CliError(f"--max-deg must be at least 0, not {args.max_deg}")


def _d2_zero(file, args):
    alg = defs.build_algebra(file)
    _check_sampling(args)
    rep = _rep_or_adjoint(file, alg)
    rng, plain = Random(args.seed), Complex(alg, rep)
    with checked(f"d2_zero_arity{args.arity}") as c:
        for trial in range(args.random):
            f = random_cochain(alg.rank, rep.rank, args.arity, rng, args.max_deg)
            _add_residual(c, trial, plain.d(plain.d(f)))
    return _emit([c.report], args.format)


def _square_lemma(file, args):
    alg = defs.build_algebra(file)
    _check_sampling(args)
    op = defs.build_operator(file, _need_op(args))
    rep = _rep_with_module_operator(_rep_or_adjoint(file, alg), op)
    plain = Complex(alg, rep)
    rng, hn = Random(args.seed), plain.twisted(op)
    with checked(f"square_lemma_arity{args.arity}") as c:
        for trial in range(args.random):
            f = random_cochain(alg.rank, rep.rank, args.arity, rng, args.max_deg)
            _add_residual(c, trial, hn.phi(plain.d(f)) - hn.d(hn.phi(f)))
    return _emit([c.report], args.format)


def _cochain_arg(file, args):
    """The file's algebra, its coefficients and the --cochain cochain."""
    alg, rep = _alg_rep(file)
    if not args.cochain:
        raise CliError("this command needs --cochain NAME")
    return alg, rep, defs.build_cochain(file, args.cochain, alg, rep.rank)


def _twisted_cochain_arg(file, args):
    """As _cochain_arg, then the --op operator and the twisted coefficients."""
    alg, rep, f = _cochain_arg(file, args)
    op = defs.build_operator(file, _need_op(args))
    return alg, op, _rep_with_module_operator(rep, op), f


def _delta(file, args):
    alg, rep, f = _cochain_arg(file, args)
    return _sections_out(defs.cochain_to_section(coboundary_homL(f, alg, rep), alg, "delta"))


def _delta_hn(file, args):
    alg, op, rep, f = _twisted_cochain_arg(file, args)
    return _sections_out(defs.cochain_to_section(coboundary_HN(f, alg, op, rep), alg, "delta_hn"))


def _phi(file, args):
    alg, op, rep, f = _twisted_cochain_arg(file, args)
    return _sections_out(defs.cochain_to_section(phi_map(f, op, rep), alg, "phi"))


def _d_hnla(file, args):
    alg, op, rep, f = _twisted_cochain_arg(file, args)
    g = defs.build_cochain(file, args.cochain2, alg, rep.rank) if args.cochain2 else None
    out = coboundary_HNLA(HNLAPair(f, g), alg, op, rep)
    return _sections_out(defs.cochain_to_section(out.f, alg, "d_upper"), defs.cochain_to_section(out.g, alg, "d_lower"))


_COHOMOLOGY = {
    "delta": _delta,
    "delta-hn": _delta_hn,
    "phi": _phi,
    "d-hnla": _d_hnla,
    "d2-zero": _d2_zero,
    "square-lemma": _square_lemma,
}


def cmd_cohomology(args) -> int:
    return _COHOMOLOGY[args.what](_load(args.file), args)


def _add_residual(c: checked, trial: int, residual) -> None:
    """Record each nonzero value of a trial's residual cochain at (trial,) + key."""
    for key in sorted(residual.table):
        c.add_nonzero((trial,) + key, ConformalElement(residual.value(key)))


# -- deform: each command returns its report ----------------------------------


def _deformation(file, args):
    return defs.build_deformation(file, defs.build_algebra(file), args.name)


def _equiv1(file, args):
    alg = defs.build_algebra(file)
    data_a = defs.build_deformation(file, alg, args.a)
    data_b = defs.build_deformation(file, alg, args.b)
    if not args.psi:
        raise CliError("equiv1 needs --psi NAME (an operator section)")
    return equivalence_order1_check(defs.build_operator(file, args.psi), data_a, data_b)


_DEFORMATIONS = {
    "check-order": lambda file, args: verify_deformation_order(_deformation(file, args), args.order),
    "cocycle": lambda file, args: infinitesimal_cocycle_check(_deformation(file, args))[1],
    "equiv1": _equiv1,
}


def cmd_deform(args) -> int:
    return _emit([_DEFORMATIONS[args.what](_load(args.file), args)], args.format)


# -- wiring -------------------------------------------------------------------


# The longest --weight text read; a longer one is refused before any
# integer is built from it.
MAX_WEIGHT_CHARS = 100
# an integer, a fraction p/q or a plain decimal, with an optional sign:
# no exponent, so the size of the value is bounded by the text's length
_WEIGHT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def _fraction(text: str):
    """The exact value of a --weight text.  A text of another form, or
    one longer than MAX_WEIGHT_CHARS, is a one-line error naming the flag;
    a zero denominator is a usage error."""
    if len(text) > MAX_WEIGHT_CHARS:
        raise CliError(
            f"argument --weight: a value of {len(text)} characters is above the bound of {MAX_WEIGHT_CHARS}"
        )
    if not _WEIGHT.fullmatch(text):
        raise CliError(f"argument --weight: {text!r} is not an integer, a fraction p/q or a decimal")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


# Every flag with its settings; a family declares those its commands read.
_FLAGS = {
    "--format": dict(choices=("text", "records"), default="text"),
    "--op": dict(help="name of an [operator:NAME] section"),
    "--weight": dict(type=_fraction, default=0, help="Rota-Baxter weight"),
    "--phi": dict(help="name of an arity-2 [cochain:NAME] section"),
    "--check-vee-skew": dict(action="store_true"),
    "--strict-preconditions": dict(action="store_true"),
    "--cochain": dict(help="name of a [cochain:NAME] section"),
    "--cochain2": dict(help="lower component for d-hnla"),
    "--arity": dict(type=int, default=1),
    "--seed": dict(type=int, default=0),
    "--max-deg": dict(type=int, default=2),
    "--random": dict(type=int, default=20),
    "--name": dict(help="which [deformation:NAME] section to use"),
    "--order": dict(type=int, default=1),
    "--a": dict(help="first deformation section name (equiv1)"),
    "--b": dict(help="second deformation section name (equiv1)"),
    "--psi": dict(help="operator section giving the order-1 map (equiv1)"),
}


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write; let a closed pipe reach main
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="homleib",
        description="Symbolic checks for twisted Leibniz conformal algebras",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for family, help_text, func, commands, flags in (
        ("check", "verify axioms and operator identities", cmd_check, _CHECKS,
         ("--format", "--op", "--weight", "--phi", "--check-vee-skew")),
        ("construct", "build derived objects", cmd_construct, _CONSTRUCTIONS,
         ("--strict-preconditions", "--op", "--weight", "--phi")),
        ("cohomology", "coboundaries and square-zero experiments", cmd_cohomology, _COHOMOLOGY,
         ("--cochain", "--cochain2", "--arity", "--seed", "--max-deg", "--random", "--format", "--op")),
        ("deform", "order-by-order deformation checks", cmd_deform, _DEFORMATIONS,
         ("--name", "--order", "--a", "--b", "--psi", "--format")),
    ):
        p = sub.add_parser(family, help=help_text)
        p.add_argument("what", choices=tuple(commands))
        p.add_argument("file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.  Parsing does not
    change it, and usage errors and help text format at print time."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        finally:
            sys.stdout.flush()  # --help and --version exit from parse_args
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (CliError, ValueError) as exc:
        # every library error is a ValueError: DefinitionError,
        # PreconditionError, DimensionError, PolyError and bad arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone (`homleib ... | head -1`): stop quietly, with
        # stdout on devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a pipe-stopped command


if __name__ == "__main__":
    sys.exit(main())
