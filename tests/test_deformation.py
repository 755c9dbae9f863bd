"""Order-by-order deformation checks and the order-1 cohomology facts."""

import random
from fractions import Fraction

import pytest

from homleib.poly import D, MultiPoly, parse_poly
from homleib.structure import DimensionError, PdModuleMap, virasoro
from homleib.deformation import (
    DeformationData,
    coboundary_of_map,
    equivalence_order1_check,
    infinitesimal_cocycle_check,
    make_deformation,
    perturb_by_pair,
    verify_deformation_order,
)
from homleib.operators import OperatorKind, verify_operator
from homleib.structure import verify_hom_leibniz


def trivial(vir, c=Fraction(2), order=1):
    return make_deformation(vir, PdModuleMap.scalar(1, c), min_order=order)


def test_order_zero_is_the_base_axioms(vir):
    data = trivial(vir, order=0)
    report = verify_deformation_order(data, 0)
    assert report.passed
    # and with a broken base it fails exactly like the base check
    bad = make_deformation(
        virasoro().with_structure({(0, 0): (MultiPoly.const(1),)}),
        PdModuleMap.identity(1),
    )
    assert not verify_hom_leibniz(bad.base).passed
    assert not verify_deformation_order(bad, 0).passed


def test_zero_infinitesimal_passes(vir):
    data = trivial(vir)
    assert verify_deformation_order(data, 1).passed
    ok, _ = infinitesimal_cocycle_check(data)
    assert ok


def test_order_out_of_range(vir):
    with pytest.raises(ValueError):
        verify_deformation_order(trivial(vir, order=1), 2)


def test_base_bracket_mismatch_rejected(vir):
    with pytest.raises(ValueError):
        DeformationData(vir, ({},), (PdModuleMap.identity(1),))


def test_bracket_as_own_infinitesimal(vir):
    # order-1 bracket equal to the base bracket with the identity operator:
    # both the order-1 equations and the cocycle check must agree (pass),
    # since the bracket is the coboundary of the identity map
    data = make_deformation(
        vir,
        PdModuleMap.identity(1),
        {1: dict(vir.structure)},
        {1: PdModuleMap.zero(1)},
    )
    assert verify_deformation_order(data, 1).passed
    ok, _ = infinitesimal_cocycle_check(data)
    assert ok


def test_truncation_consistency(vir):
    # conjugating the trivial deformation by id + t*psi gives data valid at
    # every order; store it to order 2 and check each order at or below
    from homleib.structure import XF, eval_bracket

    n = PdModuleMap.scalar(1, Fraction(2))
    psi = PdModuleMap.scalar(1, parse_poly("D^2"))
    p = q = vir.basis(0)
    bracket1 = (
        eval_bracket(vir, psi.apply(p), q, XF)
        + eval_bracket(vir, p, psi.apply(q), XF)
        - psi.apply(eval_bracket(vir, p, q, XF))
    )
    bracket2 = (
        eval_bracket(vir, psi.apply(p), psi.apply(q), XF)
        - psi.apply(eval_bracket(vir, psi.apply(p), q, XF))
        - psi.apply(eval_bracket(vir, p, psi.apply(q), XF))
        + psi.apply(psi.apply(eval_bracket(vir, p, q, XF)))
    )
    # operator orders vanish: scalar base operator commutes with psi
    data = make_deformation(
        vir,
        n,
        {1: {(0, 0): bracket1.coords}, 2: {(0, 0): bracket2.coords}},
    )
    assert data.order == 2
    for order in range(data.order + 1):
        assert verify_deformation_order(data, order).passed, order


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coboundary_infinitesimals_are_valid_and_cocycles(vir, seed):
    n = PdModuleMap.scalar(1, Fraction(2))
    rng = random.Random(seed)
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    psi = PdModuleMap.scalar(
        1,
        MultiPoly.const(coeffs[0])
        + MultiPoly.var(D) * coeffs[1]
        + MultiPoly.var(D, 2) * coeffs[2],
    )
    data = perturb_by_pair(trivial(vir), coboundary_of_map(vir, n, psi))
    assert verify_deformation_order(data, 1).passed
    ok, report = infinitesimal_cocycle_check(data)
    assert ok, report.to_text()


def test_a_pair_over_another_rank_is_refused(vir, cur2):
    # a rank-1 pair on a rank-2 deformation and a rank-2 pair on a rank-1
    # one: a one-line DimensionError before any table is built
    one = PdModuleMap.scalar(1, Fraction(2))
    two = PdModuleMap.identity(2)
    cases = [
        (make_deformation(cur2, two, min_order=1), coboundary_of_map(vir, one, one)),
        (trivial(vir), coboundary_of_map(cur2, two, two)),
    ]
    for data, pair in cases:
        with pytest.raises(DimensionError, match=f"^expected a pair over rank {data.base.rank}, the deformation's$"):
            perturb_by_pair(data, pair)


def test_equivalence_trivially_reflexive(vir):
    data = trivial(vir)
    assert equivalence_order1_check(PdModuleMap.zero(1), data, data).passed


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_equivalence_for_coboundary_shifts(vir, seed):
    n = PdModuleMap.scalar(1, Fraction(2))
    rng = random.Random(100 + seed)
    psi = PdModuleMap.scalar(
        1,
        MultiPoly.const(Fraction(rng.randint(-2, 2)))
        + MultiPoly.var(D) * Fraction(rng.randint(-2, 2)),
    )
    data_a = trivial(vir)
    data_b = perturb_by_pair(data_a, coboundary_of_map(vir, n, psi))
    assert equivalence_order1_check(psi, data_a, data_b).passed


def test_equivalence_detects_mismatch(vir):
    data_a = trivial(vir)
    data_b = make_deformation(
        vir,
        PdModuleMap.scalar(1, Fraction(2)),
        {1: {(0, 0): (parse_poly("x^2"),)}},
    )
    report = equivalence_order1_check(PdModuleMap.identity(1), data_a, data_b)
    assert not report.passed


def test_operator_convolution_detects_failure(vir):
    # an order-1 operator term that breaks the operator convolution:
    # base operator D*id is not even a valid base, order 0 must fail
    data = make_deformation(vir, PdModuleMap.scalar(1, MultiPoly.var(D)))
    assert not verify_operator(
        vir, data.base_operator, OperatorKind.nijenhuis()
    ).passed
    report = verify_deformation_order(data, 0)
    assert not report.passed
    assert any(v.context[0] == "operator" for v in report.violations)


def test_bracket_and_identity_as_order1_pair(vir):
    # base operator id, order-1 data ({.}_1, N_1) = (bracket, id): the
    # order-1 convolutions reduce by hand to two copies of the Leibniz
    # identity and to an exact cancellation, so the order check passes;
    # the pair is nevertheless no cocycle: the lower component of its
    # image is -delta(N . N_1) = -delta(id) = -bracket, a separation
    # between the order equations and the cocycle condition that only
    # coboundary-shaped infinitesimals avoid
    data = make_deformation(
        vir,
        PdModuleMap.identity(1),
        {1: dict(vir.structure)},
        {1: PdModuleMap.identity(1)},
    )
    report = verify_deformation_order(data, 1)
    assert report.passed, report.to_text()
    ok, cocycle_report = infinitesimal_cocycle_check(data)
    assert not ok
    assert cocycle_report.violations[0].context == ("lower", 0, 0)
    assert cocycle_report.violations[0].residual == "[-D - 2*l1]"


def test_operator_twist_and_multiplicativity_residuals_sort_together(twisted2):
    """("multiplicativity", "operator_twist") and ("multiplicativity", i, j)
    share a position with a label and an index; a report holding both
    lists the indices first instead of failing to sort."""
    z, one = MultiPoly.zero(), MultiPoly.const(1)
    op = PdModuleMap([[z, z], [one, z]])  # does not commute with the twist
    data = make_deformation(twisted2, op, {1: {(0, 0): (one, z)}}, {1: op})
    contexts = [v.context for v in verify_deformation_order(data, 1).violations]
    assert ("multiplicativity", "operator_twist") in contexts
    labelled = [ctx for ctx in contexts if ctx[0] == "multiplicativity"]
    assert labelled[-1] == ("multiplicativity", "operator_twist")
    assert len(labelled) > 1
