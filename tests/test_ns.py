"""Three-product structures and the operator constructions feeding them."""

from fractions import Fraction

import pytest

from homleib.poly import MultiPoly, parse_poly
from homleib.structure import DimensionError, PdModuleMap, verify_hom_leibniz
from homleib.representation import adjoint_rep
from homleib.operators import OperatorKind, PreconditionError, deformed_bracket, verify_operator
from homleib.cohomology import Cochain
from homleib.ns import (
    NSAlgebra,
    TwistedRBData,
    adjacent_algebra,
    check_ns_morphism,
    ns_from_nijenhuis,
    ns_from_rb,
    ns_from_twisted_rb,
    twist_ns_by_morphism,
    verify_ns_axioms,
    verify_o_operator,
    verify_twisted_rb,
)


def test_vee_only_reduction(cur2):
    # with both directed products zero the axioms are the Leibniz identity
    ns = NSAlgebra(2, cur2.basis_names, {}, {}, dict(cur2.structure), cur2.alpha)
    assert verify_ns_axioms(ns).passed
    bad = NSAlgebra(
        1, ("e",), {}, {}, {(0, 0): (MultiPoly.const(1),)}, PdModuleMap.identity(1)
    )
    assert not verify_ns_axioms(bad).passed


def test_all_zero_products_pass(vir):
    ns = NSAlgebra(1, ("L",), {}, {}, {}, PdModuleMap.identity(1))
    assert verify_ns_axioms(ns).passed


def test_nijenhuis_construction_values(vir):
    ns = ns_from_nijenhuis(vir, PdModuleMap.identity(1), strict=True)
    bracket = vir.structure[(0, 0)][0]
    assert ns.left[(0, 0)][0] == bracket
    assert ns.right[(0, 0)][0] == bracket
    assert ns.vee[(0, 0)][0] == -bracket
    assert verify_ns_axioms(ns).passed


def test_nijenhuis_construction_zero(vir):
    ns = ns_from_nijenhuis(vir, PdModuleMap.zero(1))
    assert not ns.left and not ns.right and not ns.vee


@pytest.mark.parametrize("c", [Fraction(2), Fraction(-1, 2)])
def test_nijenhuis_construction_scalar(vir, c):
    ns = ns_from_nijenhuis(vir, PdModuleMap.scalar(1, c), strict=True)
    bracket = vir.structure[(0, 0)][0]
    assert ns.left[(0, 0)][0] == bracket * c
    assert ns.vee[(0, 0)][0] == -bracket * c
    assert verify_ns_axioms(ns).passed


def test_nijenhuis_construction_nilpotent(cur2):
    nil = PdModuleMap(
        [[MultiPoly.zero(), MultiPoly.const(1)], [MultiPoly.zero(), MultiPoly.zero()]]
    )
    ns = ns_from_nijenhuis(cur2, nil, strict=True)
    assert verify_ns_axioms(ns).passed


def test_strict_construction_rejects_bad_operator(vir):
    from homleib.poly import D

    with pytest.raises(PreconditionError):
        ns_from_nijenhuis(vir, PdModuleMap.scalar(1, MultiPoly.var(D)), strict=True)


@pytest.mark.parametrize("c", [Fraction(1), Fraction(-2)])
def test_adjacent_equals_deformed(vir, cur2, c):
    for alg in (vir, cur2):
        n = PdModuleMap.scalar(alg.rank, c)
        ns = ns_from_nijenhuis(alg, n)
        assert adjacent_algebra(ns).structure == deformed_bracket(alg, n).structure


def test_adjacent_of_vee_only_is_vee(cur2):
    ns = NSAlgebra(2, cur2.basis_names, {}, {}, dict(cur2.structure), cur2.alpha)
    assert adjacent_algebra(ns).structure == cur2.structure


def test_adjacent_of_valid_ns_satisfies_leibniz(vir):
    ns = ns_from_nijenhuis(vir, PdModuleMap.scalar(1, Fraction(3)))
    assert verify_ns_axioms(ns).passed
    assert verify_hom_leibniz(adjacent_algebra(ns)).passed


@pytest.mark.parametrize(
    "r_scale,weight", [(Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))]
)
def test_rb_construction(vir, r_scale, weight):
    r_op = PdModuleMap.scalar(1, r_scale)
    assert verify_operator(vir, r_op, OperatorKind.rota_baxter(weight)).passed
    ns = ns_from_rb(vir, r_op, weight, strict=True)
    bracket = vir.structure[(0, 0)][0]
    assert ns.left[(0, 0)][0] == bracket * r_scale
    assert ns.right[(0, 0)][0] == bracket * r_scale
    assert ns.vee[(0, 0)][0] == bracket * weight
    assert verify_ns_axioms(ns).passed
    adjacent = adjacent_algebra(ns)
    expected = bracket * (2 * r_scale + weight)
    got = adjacent.structure.get((0, 0), (MultiPoly.zero(),))[0]
    assert got == expected


def test_rb_construction_zero(vir):
    ns = ns_from_rb(vir, PdModuleMap.zero(1), 0, strict=True)
    assert not ns.left and not ns.right and not ns.vee


def test_twist_by_identity_and_zero(vir):
    base = ns_from_nijenhuis(vir, PdModuleMap.identity(1))
    same = twist_ns_by_morphism(base, PdModuleMap.identity(1), strict=True)
    assert same.left == base.left and same.vee == base.vee
    wiped = twist_ns_by_morphism(base, PdModuleMap.zero(1), strict=True)
    assert not wiped.left and not wiped.right and not wiped.vee
    assert verify_ns_axioms(wiped).passed


def test_twist_by_scalar_scales_but_fails_morphism(vir):
    base = ns_from_nijenhuis(vir, PdModuleMap.identity(1))
    m = PdModuleMap.scalar(1, 2)
    assert not check_ns_morphism(base, m).passed
    with pytest.raises(PreconditionError):
        twist_ns_by_morphism(base, m, strict=True)
    out = twist_ns_by_morphism(base, m)
    assert out.left[(0, 0)][0] == base.left[(0, 0)][0] * 2
    assert verify_ns_axioms(out).passed


@pytest.mark.parametrize("rows, cols", [(3, 2), (2, 3), (1, 1)])
def test_a_map_of_another_shape_is_refused(cur2, rows, cols):
    # a 3x2 map once gave a rank-2 structure with product vectors of
    # length 3, which the axiom check then read out of range
    base = ns_from_rb(cur2, PdModuleMap.identity(2), 1)
    m = PdModuleMap([[MultiPoly.const(1)] * cols] * rows)
    for call in (
        lambda: check_ns_morphism(base, m),
        lambda: twist_ns_by_morphism(base, m),
        lambda: twist_ns_by_morphism(base, m, strict=True),
    ):
        with pytest.raises(DimensionError, match="operator shape does not match algebra rank"):
            call()


# -- relative operators -----------------------------------------------------------


def test_o_operator_zero_passes(vir):
    assert verify_o_operator(vir, adjoint_rep(vir), PdModuleMap.zero(1)).passed


def test_o_operator_identity_fails_on_nonzero_bracket(vir):
    report = verify_o_operator(vir, adjoint_rep(vir), PdModuleMap.identity(1))
    assert not report.passed
    # lhs - rhs = [m n] - 2 [m n] = -bracket
    assert report.violations[0].residual == "[-D - 2*l1]"


def test_weight_zero_rb_is_o_operator_on_adjoint(cur2):
    nil = PdModuleMap(
        [[MultiPoly.zero(), MultiPoly.const(1)], [MultiPoly.zero(), MultiPoly.zero()]]
    )
    assert verify_operator(cur2, nil, OperatorKind.rota_baxter(0)).passed
    assert verify_o_operator(cur2, adjoint_rep(cur2), nil).passed


from helpers import example_59_data


@pytest.mark.parametrize("c", [Fraction(1), Fraction(2), Fraction(-3, 2)])
def test_twisted_rb_from_nijenhuis_example(c):
    data = example_59_data(c)
    report = verify_twisted_rb(data)
    assert report.passed, report.to_text()
    ns = ns_from_twisted_rb(data, strict=True)
    assert verify_ns_axioms(ns).passed


def test_twisted_rb_zero_map_passes(vir):
    phi = Cochain(2, 1, 1, {(0, 0): (parse_poly("-D - 2*l1"),)})
    data = TwistedRBData(vir, adjoint_rep(vir), PdModuleMap.zero(1), phi)
    report = verify_twisted_rb(data)
    # the operator identity collapses to 0 = t(...) = 0; phi stays a cocycle
    assert report.passed, report.to_text()


def test_twisted_rb_with_zero_cocycle_is_o_operator(cur2):
    nil = PdModuleMap(
        [[MultiPoly.zero(), MultiPoly.const(1)], [MultiPoly.zero(), MultiPoly.zero()]]
    )
    rep = adjoint_rep(cur2)
    phi = Cochain(2, 2, 2, {})
    data = TwistedRBData(cur2, rep, nil, phi)
    assert verify_twisted_rb(data).passed
    assert verify_o_operator(cur2, rep, nil).passed
    ns = ns_from_twisted_rb(data, strict=True)
    assert not ns.vee
    assert verify_ns_axioms(ns).passed


def test_ns_from_twisted_rb_zero_map(vir):
    phi = Cochain(2, 1, 1, {(0, 0): (parse_poly("-D - 2*l1"),)})
    data = TwistedRBData(vir, adjoint_rep(vir), PdModuleMap.zero(1), phi)
    ns = ns_from_twisted_rb(data)
    assert not ns.left and not ns.right and not ns.vee


def test_vee_skew_flag(vir):
    ns = ns_from_nijenhuis(vir, PdModuleMap.identity(1))
    # vee = -(D + 2x) is conformally skew on the rank-1 bracket
    report = verify_ns_axioms(ns, check_vee_skew=True)
    assert report.passed
    asym = NSAlgebra(
        2,
        ("e1", "e2"),
        {},
        {},
        {(1, 1): (MultiPoly.const(1), MultiPoly.zero())},
        PdModuleMap.identity(2),
    )
    report = verify_ns_axioms(asym, check_vee_skew=True)
    contexts = {v.context[0] for v in report.violations}
    assert contexts == {"vee_skew"}
