"""Operator identities, the deformed bracket, and the correspondences.

The key frozen value (the failure residual of the D-scaling operator) is
recomputed here by a brute-force sympy expansion of both sides of the
defining identity before being asserted against the engine.
"""

import random
from fractions import Fraction

import pytest
import sympy

from homleib import operators
from homleib.poly import D, MultiPoly, parse_poly
from homleib.structure import (
    ConformalAlgebra,
    PdModuleMap,
    verify_hom_leibniz,
    verify_multiplicativity,
    verify_skew_symmetry,
)
from homleib.operators import (
    OperatorKind,
    PreconditionError,
    check_morphism,
    deformed_bracket,
    nijenhuis_rb_correspondence,
    verify_deformed_suite,
    verify_operator,
)

sD, sl = sympy.symbols("D l1")


def nijenhuis_residual_oracle(f):
    """lhs - rhs of the defining identity for the operator f(D) * id on the
    rank-1 algebra with bracket (D + 2x): independent sympy expansion."""
    bracket = sD + 2 * sl
    lhs = f.subs(sD, -sl) * f.subs(sD, sD + sl) * bracket
    rhs = f * (f.subs(sD, -sl) + f.subs(sD, sD + sl) - f) * bracket
    return sympy.expand(lhs - rhs)


def test_identity_is_nijenhuis(vir):
    assert verify_operator(vir, PdModuleMap.identity(1), OperatorKind.nijenhuis()).passed


def test_identity_is_rb_weight_minus_one(vir):
    assert verify_operator(
        vir, PdModuleMap.identity(1), OperatorKind.rota_baxter(-1)
    ).passed


@pytest.mark.parametrize("c", [0, 1, -1, Fraction(3, 2)])
def test_scalar_operators_are_nijenhuis(vir, c):
    assert verify_operator(vir, PdModuleMap.scalar(1, c), OperatorKind.nijenhuis()).passed


def test_d_scaling_fails_with_known_residual(vir):
    # oracle first: -l (D + l)(D + 2l)
    oracle = nijenhuis_residual_oracle(sD)
    assert sympy.expand(oracle - (-sl * (sD + sl) * (sD + 2 * sl))) == 0
    report = verify_operator(
        vir, PdModuleMap.scalar(1, MultiPoly.var(D)), OperatorKind.nijenhuis()
    )
    assert not report.passed
    assert report.violations[0].residual == "[-D^2*l1 - 3*D*l1^2 - 2*l1^3]"


@pytest.mark.parametrize("fexpr", [sD**2, 1 + sD, 3 * sD - 2])
def test_residuals_match_sympy_oracle(vir, fexpr):
    poly = sympy.Poly(fexpr, sD)
    terms = {}
    for (e,), c in poly.terms():
        terms[((D, e),) if e else ()] = Fraction(int(c))
    op = PdModuleMap.scalar(1, MultiPoly(terms))
    report = verify_operator(vir, op, OperatorKind.nijenhuis())
    oracle = nijenhuis_residual_oracle(fexpr)
    if sympy.simplify(oracle) == 0:
        assert report.passed
    else:
        assert not report.passed
        got = parse_poly(report.violations[0].residual.strip("[]"))
        terms_back = sympy.Integer(0)
        for key, coeff in got.terms():
            t = sympy.Rational(coeff.numerator, coeff.denominator)
            for v, e in key:
                t *= (sD if v == D else sl) ** e
            terms_back += t
        assert sympy.expand(terms_back - oracle) == 0


def test_twist_commutation_is_checked():
    alg = ConformalAlgebra(
        1,
        ("L",),
        {(0, 0): (parse_poly("D + 2*x"),)},
        PdModuleMap.scalar(1, MultiPoly.var(D)),
    )
    op = PdModuleMap.scalar(1, parse_poly("D^2"))
    # D-polynomial maps always commute; build a genuinely non-commuting pair
    alg2 = ConformalAlgebra(
        2,
        ("a", "b"),
        {},
        PdModuleMap([[MultiPoly.zero(), MultiPoly.const(1)], [MultiPoly.zero(), MultiPoly.zero()]]),
    )
    op2 = PdModuleMap(
        [[MultiPoly.const(1), MultiPoly.zero()], [MultiPoly.zero(), MultiPoly.const(2)]]
    )
    report = verify_operator(alg2, op2, OperatorKind.nijenhuis())
    assert not report.passed
    assert report.violations[0].context[0] == "twist_commute"


def test_rb_and_mrb_coincide_at_weight_zero(vir, cur2):
    rng = random.Random(3)
    for alg in (vir, cur2):
        for _ in range(6):
            entries = [
                [MultiPoly.const(rng.randint(-2, 2)) for _ in range(alg.rank)]
                for _ in range(alg.rank)
            ]
            op = PdModuleMap(entries)
            a = verify_operator(alg, op, OperatorKind.rota_baxter(0))
            b = verify_operator(alg, op, OperatorKind.modified_rota_baxter(0))
            assert a.passed == b.passed
            assert [v.residual for v in a.violations] == [v.residual for v in b.violations]


def test_operator_kind_validation():
    with pytest.raises(ValueError):
        OperatorKind("nijenhuis", Fraction(1))
    with pytest.raises(ValueError):
        OperatorKind("rota_baxter")
    with pytest.raises(ValueError):
        OperatorKind("bogus")


# -- deformed bracket ---------------------------------------------------------


def test_deform_by_identity_is_identity(vir):
    assert deformed_bracket(vir, PdModuleMap.identity(1)).structure == vir.structure


def test_deform_by_scalar_scales(vir):
    c = Fraction(5, 2)
    out = deformed_bracket(vir, PdModuleMap.scalar(1, c))
    assert out.structure[(0, 0)][0] == vir.structure[(0, 0)][0] * c


def test_deform_by_zero_kills_bracket(vir):
    assert not deformed_bracket(vir, PdModuleMap.zero(1)).structure


def test_deform_strict_rejects_non_nijenhuis(vir):
    with pytest.raises(PreconditionError):
        deformed_bracket(vir, PdModuleMap.scalar(1, MultiPoly.var(D)), strict=True)


@pytest.mark.parametrize("c", [1, -1, Fraction(3, 2)])
def test_deformation_guarantees(vir, c):
    # the three derived facts for a passing operator, checked symbolically
    for report in verify_deformed_suite(vir, PdModuleMap.scalar(1, c)):
        assert report.passed, report.to_text()


def test_deformation_guarantees_nilpotent(cur2):
    nil = PdModuleMap(
        [[MultiPoly.zero(), MultiPoly.const(1)], [MultiPoly.zero(), MultiPoly.zero()]]
    )
    assert verify_operator(cur2, nil, OperatorKind.nijenhuis()).passed
    for report in verify_deformed_suite(cur2, nil):
        assert report.passed, report.to_text()


def test_double_deformation_scalars_compose(vir):
    c, d = Fraction(2), Fraction(-3, 2)
    once = deformed_bracket(
        deformed_bracket(vir, PdModuleMap.scalar(1, c)), PdModuleMap.scalar(1, d)
    )
    combined = deformed_bracket(vir, PdModuleMap.scalar(1, c * d))
    assert once.structure == combined.structure


# -- morphisms ----------------------------------------------------------------


def test_identity_morphism(vir):
    assert check_morphism(PdModuleMap.identity(1), vir, vir).passed


def test_zero_map_is_bracket_morphism(vir):
    n = PdModuleMap.scalar(1, 2)
    report = check_morphism(PdModuleMap.zero(1), vir, vir, n_src=n, n_dst=n)
    assert report.passed  # bracket condition 0 = 0 and n . 0 = 0 . n


def test_morphism_needs_both_operators(vir):
    with pytest.raises(ValueError):
        check_morphism(PdModuleMap.identity(1), vir, vir, n_src=PdModuleMap.identity(1))


def test_non_morphism_detected(vir):
    report = check_morphism(PdModuleMap.scalar(1, 2), vir, vir)
    assert not report.passed


# -- correspondences ----------------------------------------------------------


def _square_holds(alg, op, case):
    sq = op.compose(op)
    ident = PdModuleMap.identity(alg.rank)
    if case == 1:
        return sq.is_zero
    if case == 2:
        return sq == op
    if case == 3:
        return sq == ident or sq == ident.scale(-1)
    return sq == ident


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_correspondences_on_standard_operators(vir, cur2, case):
    for alg in (vir, cur2):
        ops = {
            "zero": PdModuleMap.zero(alg.rank),
            "id": PdModuleMap.identity(alg.rank),
            "-id": PdModuleMap.identity(alg.rank).scale(-1),
        }
        for name, op in ops.items():
            report = nijenhuis_rb_correspondence(alg, op, case)
            contexts = {v.context[0] for v in report.violations}
            if _square_holds(alg, op, case):
                # under the hypothesis the two sides must agree
                assert "iff" not in contexts, (alg.basis_names, name, report.to_text())
                assert "square" not in contexts
            else:
                assert "square" in contexts


def test_correspondence_case_validation(monkeypatch, vir):
    # an unknown case is refused before any operator check runs
    calls = []
    real = operators.verify_operator
    monkeypatch.setattr(operators, "verify_operator", lambda *args: calls.append(args) or real(*args))
    with pytest.raises(ValueError, match=r"^case must be 1\.\.4$"):
        nijenhuis_rb_correspondence(vir, PdModuleMap.identity(1), 5)
    assert calls == []
    nijenhuis_rb_correspondence(vir, PdModuleMap.identity(1), 1)
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["virm1_r2", "trunc_r3"])
def test_fixtures_where_the_twist_matters_give_their_known_verdicts(request, name):
    # known by construction: a Yau-twisted Lie bracket and a square-zero Q
    # that commutes with the twist
    alg, q = request.getfixturevalue(name)
    assert verify_hom_leibniz(alg).passed
    assert verify_multiplicativity(alg).passed
    assert verify_skew_symmetry(alg).passed
    for kind in (
        OperatorKind.nijenhuis(),
        OperatorKind.rota_baxter(0),
        OperatorKind.modified_rota_baxter(0),
    ):
        assert verify_operator(alg, q, kind).passed, kind
    # negative control: [id x, id y] = [x, y], but id([id x, y] + [x, id y]) = 2 [x, y]
    assert not verify_operator(alg, PdModuleMap.identity(alg.rank), OperatorKind.rota_baxter(0)).passed
