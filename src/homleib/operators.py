"""Nijenhuis and Rota-Baxter operators: verification and derived brackets."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Rat
from .report import Report, checked
from .structure import (
    AT_L1,
    AT_X,
    ConformalAlgebra,
    DimensionError,
    PdModuleMap,
    _add_nonzero_entries,
    _applied,
    _basis_and_images,
    _deformed_products,
    _morphism,
    _residual,
    _signed_sum,
    _table,
    _table_at,
    verify_hom_leibniz,
)

NIJENHUIS = "nijenhuis"
ROTA_BAXTER = "rota_baxter"
MODIFIED_ROTA_BAXTER = "modified_rota_baxter"


@dataclass(frozen=True)
class OperatorKind:
    tag: str
    weight: Fraction | None = None

    def __post_init__(self):
        if self.tag == NIJENHUIS:
            if self.weight is not None:
                raise ValueError("a Nijenhuis operator has no weight")
        elif self.tag in (ROTA_BAXTER, MODIFIED_ROTA_BAXTER):
            if self.weight is None:
                raise ValueError(f"{self.tag} needs a weight")
        else:
            raise ValueError(f"unknown operator kind {self.tag!r}")

    @staticmethod
    def nijenhuis() -> "OperatorKind":
        return OperatorKind(NIJENHUIS)

    @staticmethod
    def rota_baxter(weight: Rat) -> "OperatorKind":
        return OperatorKind(ROTA_BAXTER, Fraction(weight))

    @staticmethod
    def modified_rota_baxter(weight: Rat) -> "OperatorKind":
        return OperatorKind(MODIFIED_ROTA_BAXTER, Fraction(weight))


class PreconditionError(ValueError):
    """A construction was asked to run on data failing its hypothesis."""


def _check_square(alg: ConformalAlgebra, op: PdModuleMap):
    if op.rows != alg.rank or op.cols != alg.rank:
        raise DimensionError("operator shape does not match algebra rank")


def verify_operator(alg: ConformalAlgebra, op: PdModuleMap, kind: OperatorKind) -> Report:
    """Check twist compatibility and the defining identity of `kind`.

    All three identities are checked on basis pairs with one formal
    parameter; D-linearity of the operator extends them to all elements.
    Residuals are recorded as lhs - rhs.
    """
    _check_square(alg, op)
    with checked(f"operator_{kind.tag}") as c:
        _add_nonzero_entries(c, "twist_commute", alg.alpha.compose(op) - op.compose(alg.alpha))
        br = _table_at(alg.structure, alg.rank, AT_L1)
        basis, images = _basis_and_images(alg.rank, op)
        plain, mixed = br.basis_cells(), [br.cells(images, basis), br.cells(basis, images)]
        if kind.tag == NIJENHUIS:
            rhs = [_applied(op, _signed_sum(mixed, [_applied(op, plain)]))]
        else:
            scaled = {key: v.scale(kind.weight) for key, v in plain.items()}
            if kind.tag == ROTA_BAXTER:
                rhs = [_applied(op, _signed_sum(mixed + [scaled]))]
            else:
                rhs = [_applied(op, _signed_sum(mixed)), scaled]
        _residual(c, (), [br.cells(images, images)], rhs)
    return c.report


def deformed_bracket(
    alg: ConformalAlgebra, n: PdModuleMap, strict: bool = False
) -> ConformalAlgebra:
    """Bracket deformed by an operator: [p q]_N = [Np q] + [p Nq] - N[p q].

    The formula is total, so construction never needs the Nijenhuis
    hypothesis; with strict=True it is enforced, since only then are the
    derived guarantees (the output satisfies the Leibniz identity, n stays
    Nijenhuis on it, and n is a morphism back to the input) available.
    """
    _check_square(alg, n)
    if strict:
        rep = verify_operator(alg, n, OperatorKind.nijenhuis())
        if not rep.passed:
            raise PreconditionError(
                f"operator is not Nijenhuis; first residual at {rep.violations[0].context}"
            )
    algs = _basis_and_images(alg.rank, n)
    return alg.with_structure(_table(_deformed_products(_table_at(alg.structure, alg.rank, AT_X), algs, algs, n)))


def check_morphism(
    f: PdModuleMap,
    src: ConformalAlgebra,
    dst: ConformalAlgebra,
    n_src: PdModuleMap | None = None,
    n_dst: PdModuleMap | None = None,
) -> Report:
    """f must intertwine brackets and, when given, the two operators."""
    if f.cols != src.rank or f.rows != dst.rank:
        raise DimensionError("morphism shape does not match the two algebras")
    if (n_src is None) != (n_dst is None):
        raise ValueError("operator compatibility needs an operator on both sides")
    with checked("morphism") as c:
        _add_nonzero_entries(c, "twist", f.compose(src.alpha) - dst.alpha.compose(f))
        if n_src is not None:
            _add_nonzero_entries(c, "operator", f.compose(n_src) - n_dst.compose(f))
        _morphism(c, ("bracket",), f, _table_at(src.structure, src.rank, AT_X), _table_at(dst.structure, dst.rank, AT_X))
    return c.report


def nijenhuis_rb_correspondence(
    alg: ConformalAlgebra, op: PdModuleMap, case: int
) -> Report:
    """Nijenhuis <-> Rota-Baxter correspondences, tested in both directions.

    case 1: given op^2 = 0,   Nijenhuis <-> Rota-Baxter of weight 0
    case 2: given op^2 = op,  Nijenhuis <-> Rota-Baxter of weight -1
    case 3: given op^2 = +-1, Nijenhuis <-> modified Rota-Baxter of weight -+1
    case 4: given op^2 = 1,   Nijenhuis <-> op +- 1 Rota-Baxter of weight -+2

    The report carries a `square` violation when the hypothesis fails and
    an `iff` violation when the two sides disagree on this operator.  A
    case outside 1..4 is refused before any check runs.
    """
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1..4")
    _check_square(alg, op)
    sq = op.compose(op)
    ident = PdModuleMap.identity(alg.rank)
    with checked(f"correspondence_case{case}") as c:
        nij_ok = verify_operator(alg, op, OperatorKind.nijenhuis()).passed

        def record(other_ok: bool, label: str):
            if nij_ok != other_ok:
                c.add(
                    ("iff", label),
                    f"nijenhuis={'pass' if nij_ok else 'fail'} {label}={'pass' if other_ok else 'fail'}",
                )

        if case == 1:
            if sq != PdModuleMap.zero(alg.rank):
                c.add(("square",), "op^2 != 0")
            record(
                verify_operator(alg, op, OperatorKind.rota_baxter(0)).passed,
                "rb_weight_0",
            )
        elif case == 2:
            if sq != op:
                c.add(("square",), "op^2 != op")
            record(
                verify_operator(alg, op, OperatorKind.rota_baxter(-1)).passed,
                "rb_weight_-1",
            )
        elif case == 3:
            if sq == ident:
                weight = Fraction(-1)
            elif sq == ident.scale(-1):
                weight = Fraction(1)
            else:
                c.add(("square",), "op^2 != +-1")
                weight = Fraction(-1)
            record(
                verify_operator(alg, op, OperatorKind.modified_rota_baxter(weight)).passed,
                f"mrb_weight_{weight}",
            )
        else:
            if sq != ident:
                c.add(("square",), "op^2 != 1")
            record(
                verify_operator(alg, op + ident, OperatorKind.rota_baxter(-2)).passed,
                "op+1_rb_weight_-2",
            )
            record(
                verify_operator(alg, op - ident, OperatorKind.rota_baxter(2)).passed,
                "op-1_rb_weight_2",
            )
    return c.report


def verify_deformed_suite(alg: ConformalAlgebra, n: PdModuleMap) -> list[Report]:
    """The three guarantees of a Nijenhuis deformation, as checks.

    For a passing operator: the deformed algebra satisfies the Leibniz
    identity, the operator is still Nijenhuis there, and it is a morphism
    from the deformed algebra back to the original.
    """
    deformed = deformed_bracket(alg, n)
    return [
        verify_hom_leibniz(deformed),
        verify_operator(deformed, n, OperatorKind.nijenhuis()),
        check_morphism(n, deformed, alg, n_src=n, n_dst=n),
    ]
