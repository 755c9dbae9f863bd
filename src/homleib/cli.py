"""Command-line entry points.

Four command families:

    check      algebra | lie | nijenhuis | rb | mrb | rep | nijrep | ns
               | twisted-rb | o-operator
    construct  deformed | ns-from-n | ns-from-rb | ns-from-trb
               | induced-rep | cur | adjacent
    cohomology delta | delta-hn | phi | d-hnla | d2-zero | square-lemma
    deform     check-order | cocycle | equiv1

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


def _rep_or_adjoint(file, alg):
    if file.all_of("representation"):
        return defs.build_representation(file, alg)
    return adjoint_rep(alg)


def _rep_with_module_operator(file, alg, op):
    """Coefficients for the operator-twisted complexes: the file's
    representation if it carries nm, otherwise the self-action with the
    algebra operator doubling as the module operator."""
    if file.all_of("representation"):
        rep = defs.build_representation(file, alg)
        if rep.n_m is not None:
            return rep
        return dataclasses.replace(rep, n_m=op)
    return dataclasses.replace(adjoint_rep(alg), n_m=op)


def _need_op(args) -> str:
    if not args.op:
        raise CliError("this command needs --op NAME")
    return args.op


def _section_out(section) -> int:
    sys.stdout.write(defs.section_to_text(section))
    return 0


# -- check ------------------------------------------------------------------


def cmd_check(args) -> int:
    file = _load(args.file)
    what = args.what
    if what == "ns":
        ns = defs.build_ns(file)
        return _emit([verify_ns_axioms(ns, check_vee_skew=args.check_vee_skew)], args.format)
    alg = defs.build_algebra(file)
    if what == "algebra":
        reports = [verify_hom_leibniz(alg), verify_multiplicativity(alg)]
    elif what == "lie":
        reports = [verify_skew_symmetry(alg)]
    elif what == "nijenhuis":
        op = defs.build_operator(file, _need_op(args))
        reports = [verify_operator(alg, op, OperatorKind.nijenhuis())]
    elif what == "rb":
        op = defs.build_operator(file, _need_op(args))
        reports = [verify_operator(alg, op, OperatorKind.rota_baxter(args.weight))]
    elif what == "mrb":
        op = defs.build_operator(file, _need_op(args))
        reports = [
            verify_operator(alg, op, OperatorKind.modified_rota_baxter(args.weight))
        ]
    elif what == "rep":
        rep = _rep_or_adjoint(file, alg)
        reports = [verify_representation(alg, rep)]
    elif what == "nijrep":
        op = defs.build_operator(file, _need_op(args))
        rep = _rep_with_module_operator(file, alg, op)
        reports = [verify_nijenhuis_representation(alg, op, rep)]
    elif what == "twisted-rb":
        data = _twisted_data(file, alg, args)
        reports = [verify_twisted_rb(data)]
    elif what == "o-operator":
        op = defs.build_operator(file, _need_op(args))
        rep = _rep_or_adjoint(file, alg)
        reports = [verify_o_operator(alg, rep, op)]
    else:
        raise CliError(f"unknown check {what!r}")
    return _emit(reports, args.format)


def _twisted_data(file, alg, args) -> TwistedRBData:
    op = defs.build_operator(file, _need_op(args))
    rep = _rep_or_adjoint(file, alg)
    if not args.phi:
        raise CliError("this command needs --phi NAME (an arity-2 cochain section)")
    phi = defs.build_cochain(file, args.phi, alg, rep.rank)
    return TwistedRBData(alg, rep, op, phi)


# -- construct ---------------------------------------------------------------


def cmd_construct(args) -> int:
    file = _load(args.file)
    what = args.what
    strict = args.strict_preconditions
    if what == "cur":
        rank, constants, twist, names = defs.build_finite(file)
        alg = current_algebra(rank, constants, twist, names)
        return _section_out(defs.algebra_to_section(alg, name="cur"))
    if what == "adjacent":
        ns = defs.build_ns(file)
        return _section_out(defs.algebra_to_section(adjacent_algebra(ns), name="adjacent"))
    alg = defs.build_algebra(file)
    if what == "deformed":
        op = defs.build_operator(file, _need_op(args))
        out = deformed_bracket(alg, op, strict=strict)
        return _section_out(defs.algebra_to_section(out, name="deformed"))
    if what == "ns-from-n":
        op = defs.build_operator(file, _need_op(args))
        return _section_out(defs.ns_to_section(ns_from_nijenhuis(alg, op, strict=strict)))
    if what == "ns-from-rb":
        op = defs.build_operator(file, _need_op(args))
        return _section_out(
            defs.ns_to_section(ns_from_rb(alg, op, args.weight, strict=strict))
        )
    if what == "ns-from-trb":
        data = _twisted_data(file, alg, args)
        return _section_out(defs.ns_to_section(ns_from_twisted_rb(data, strict=strict)))
    if what == "induced-rep":
        op = defs.build_operator(file, _need_op(args))
        rep = _rep_with_module_operator(file, alg, op)
        out = induced_representation(alg, op, rep, strict=strict)
        return _section_out(defs.representation_to_section(out, alg))
    raise CliError(f"unknown construction {what!r}")


# -- cohomology ---------------------------------------------------------------


def _check_sampling(args) -> None:
    """A sampled check passes only after at least one trial on cochains
    that are not zero by construction."""
    if args.random < 1:
        raise CliError(f"--random must be at least 1, not {args.random}")
    if args.max_deg < 0:
        raise CliError(f"--max-deg must be at least 0, not {args.max_deg}")


def cmd_cohomology(args) -> int:
    file = _load(args.file)
    alg = defs.build_algebra(file)
    what = args.what
    if what == "d2-zero":
        _check_sampling(args)
        rep = _rep_or_adjoint(file, alg)
        rng, plain = Random(args.seed), Complex(alg, rep)
        with checked(f"d2_zero_arity{args.arity}") as c:
            for trial in range(args.random):
                f = random_cochain(alg.rank, rep.rank, args.arity, rng, args.max_deg)
                _add_residual(c, trial, plain.d(plain.d(f)))
        return _emit([c.report], args.format)
    if what == "square-lemma":
        _check_sampling(args)
        op = defs.build_operator(file, _need_op(args))
        rep = _rep_with_module_operator(file, alg, op)
        plain = Complex(alg, rep)
        rng, hn = Random(args.seed), plain.twisted(op)
        with checked(f"square_lemma_arity{args.arity}") as c:
            for trial in range(args.random):
                f = random_cochain(alg.rank, rep.rank, args.arity, rng, args.max_deg)
                _add_residual(c, trial, hn.phi(plain.d(f)) - hn.d(hn.phi(f)))
        return _emit([c.report], args.format)
    rep = _rep_or_adjoint(file, alg)
    if not args.cochain:
        raise CliError("this command needs --cochain NAME")
    f = defs.build_cochain(file, args.cochain, alg, rep.rank)
    if what == "delta":
        return _section_out(defs.cochain_to_section(coboundary_homL(f, alg, rep), alg, "delta"))
    op = defs.build_operator(file, _need_op(args))
    rep = _rep_with_module_operator(file, alg, op)
    if what == "delta-hn":
        return _section_out(defs.cochain_to_section(coboundary_HN(f, alg, op, rep), alg, "delta_hn"))
    if what == "phi":
        return _section_out(defs.cochain_to_section(phi_map(f, op, rep), alg, "phi"))
    if what == "d-hnla":
        g = None
        if args.cochain2:
            g = defs.build_cochain(file, args.cochain2, alg, rep.rank)
        pair = HNLAPair(f, g)
        out = coboundary_HNLA(pair, alg, op, rep)
        _section_out(defs.cochain_to_section(out.f, alg, "d_upper"))
        sys.stdout.write("\n")
        return _section_out(defs.cochain_to_section(out.g, alg, "d_lower"))
    raise CliError(f"unknown cohomology command {what!r}")


def _add_residual(c: checked, trial: int, residual) -> None:
    """Record each nonzero value of a trial's residual cochain at (trial,) + key."""
    for key in sorted(residual.table):
        c.add_nonzero((trial,) + key, ConformalElement(residual.value(key)))


# -- deform -------------------------------------------------------------------


def cmd_deform(args) -> int:
    file = _load(args.file)
    alg = defs.build_algebra(file)
    what = args.what
    if what == "equiv1":
        data_a = defs.build_deformation(file, alg, args.a)
        data_b = defs.build_deformation(file, alg, args.b)
        if not args.psi:
            raise CliError("equiv1 needs --psi NAME (an operator section)")
        psi = defs.build_operator(file, args.psi)
        return _emit([equivalence_order1_check(psi, data_a, data_b)], args.format)
    data = defs.build_deformation(file, alg, args.name)
    if what == "check-order":
        return _emit([verify_deformation_order(data, args.order)], args.format)
    if what == "cocycle":
        ok, report = infinitesimal_cocycle_check(data)
        return _emit([report], args.format)
    raise CliError(f"unknown deform command {what!r}")


# -- wiring -------------------------------------------------------------------


def _common_flags(p):
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-deg", type=int, default=2)
    p.add_argument("--random", type=int, default=20)
    p.add_argument("--strict-preconditions", action="store_true")
    p.add_argument("--op", help="name of an [operator:NAME] section")
    p.add_argument("--weight", type=_fraction, default=0, help="Rota-Baxter weight")
    p.add_argument("--phi", help="name of an arity-2 [cochain:NAME] section")


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
    from fractions import Fraction

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

    p = sub.add_parser("check", help="verify axioms and operator identities")
    p.add_argument(
        "what",
        choices=(
            "algebra",
            "lie",
            "nijenhuis",
            "rb",
            "mrb",
            "rep",
            "nijrep",
            "ns",
            "twisted-rb",
            "o-operator",
        ),
    )
    p.add_argument("file")
    p.add_argument("--check-vee-skew", action="store_true")
    _common_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="build derived objects")
    p.add_argument(
        "what",
        choices=(
            "deformed",
            "ns-from-n",
            "ns-from-rb",
            "ns-from-trb",
            "induced-rep",
            "cur",
            "adjacent",
        ),
    )
    p.add_argument("file")
    _common_flags(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("cohomology", help="coboundaries and square-zero experiments")
    p.add_argument(
        "what",
        choices=("delta", "delta-hn", "phi", "d-hnla", "d2-zero", "square-lemma"),
    )
    p.add_argument("file")
    p.add_argument("--cochain", help="name of a [cochain:NAME] section")
    p.add_argument("--cochain2", help="lower component for d-hnla")
    p.add_argument("--arity", type=int, default=1)
    _common_flags(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("deform", help="order-by-order deformation checks")
    p.add_argument("what", choices=("check-order", "cocycle", "equiv1"))
    p.add_argument("file")
    p.add_argument("--name", help="which [deformation:NAME] section to use")
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--a", help="first deformation section name (equiv1)")
    p.add_argument("--b", help="second deformation section name (equiv1)")
    p.add_argument("--psi", help="operator section giving the order-1 map (equiv1)")
    _common_flags(p)
    p.set_defaults(func=cmd_deform)
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
