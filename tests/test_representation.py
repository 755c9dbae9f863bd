"""Representation axioms, the self-action, and operator-induced actions."""

import dataclasses
import random
from fractions import Fraction

import pytest

from homleib.poly import D, MultiPoly, lam, parse_poly
from homleib.structure import L1, DimensionError, PdModuleMap, current_algebra
from homleib.representation import (
    Representation,
    adjoint_rep,
    eval_l,
    eval_r,
    induced_representation,
    verify_nijenhuis_representation,
    verify_representation,
)
from homleib.operators import PreconditionError, deformed_bracket


NIL = PdModuleMap(
    [[MultiPoly.zero(), MultiPoly.const(1)], [MultiPoly.zero(), MultiPoly.zero()]]
)


def with_nm(rep, m):
    return dataclasses.replace(rep, n_m=m)


def test_adjoint_values(vir):
    rep = adjoint_rep(vir)
    out = eval_l(rep, vir.basis(0), rep.module_basis(0), L1)
    assert out.coords[0] == parse_poly("D + 2*l1")
    out = eval_r(rep, rep.module_basis(0), vir.basis(0), L1)
    assert out.coords[0] == parse_poly("D + 2*l1")


def test_adjoint_of_zero_bracket_is_zero():
    alg = current_algebra(2, {}, [[1, 0], [0, 1]])
    rep = adjoint_rep(alg)
    assert not rep.l_structure and not rep.r_structure


def test_adjoint_of_cur_example(cur2):
    rep = adjoint_rep(cur2)
    assert set(rep.l_structure) == {(1, 1)}
    assert rep.l_structure[(1, 1)] == (MultiPoly.const(1), MultiPoly.zero())


def test_adjoint_passes_axioms(vir, cur2):
    for alg in (vir, cur2):
        assert verify_representation(alg, adjoint_rep(alg)).passed


def test_zero_actions_pass(vir):
    rep = Representation(1, 2, {}, {}, PdModuleMap.scalar(2, MultiPoly.var(D)))
    assert verify_representation(vir, rep).passed


def test_actions_on_a_module_of_another_rank(vir):
    # rank-1 algebra on a rank-2 module; the tables need not satisfy the
    # axioms to be evaluated
    P = parse_poly
    rep = Representation(
        1,
        2,
        {(0, 0): (P("D + 2*x"), P("0")), (0, 1): (P("x"), P("D"))},
        {(0, 0): (P("0"), P("1")), (1, 0): (P("D"), P("x^2"))},
        PdModuleMap.identity(2),
    )
    m = rep.module_basis(0) + rep.module_basis(1).scale(P("D"))
    # f(-l1) = -l1 times g0(D + l1) l(e, m1) + g1(D + l1) l(e, m2) at x = l1
    out = eval_l(rep, vir.basis(0).scale(P("D")), m, L1)
    assert out.coords == (P("-l1*D - 2*l1^2 - l1^2*D - l1^3"), P("-l1*D^2 - l1^2*D"))
    # (g0(-l1) r(m1) + g1(-l1) r(m2)) at x = l1, times f(D + l1) = D + l1 + 1
    out = eval_r(rep, m, vir.basis(0).scale(P("D + 1")), L1)
    assert out.coords == (
        P("-l1*D^2 - l1^2*D - l1*D"),
        P("D + l1 + 1 - l1^3*D - l1^4 - l1^3"),
    )
    with pytest.raises(DimensionError):
        eval_l(rep, m, vir.basis(0), L1)
    with pytest.raises(DimensionError):
        eval_r(rep, vir.basis(0), m, L1)


def test_wrong_module_twist_fails(vir):
    rep = dataclasses.replace(adjoint_rep(vir), beta=vir.alpha.scale(2))
    report = verify_representation(vir, rep)
    assert not report.passed
    failing = {v.context[0] for v in report.violations}
    # the scaled twist breaks the bilinear conditions, not the twist-action ones
    assert {"r_bracket_a", "r_bracket_b", "l_l"} <= failing
    assert "beta_l" not in failing and "beta_r" not in failing


def test_random_rank2_adjoints(cur2):
    # random multiples of the one passing rank-2 structure stay representations
    rng = random.Random(21)
    for _ in range(5):
        c = Fraction(rng.randint(-3, 3))
        alg = current_algebra(2, {(1, 1): (c, 0)}, [[1, 0], [0, 1]])
        assert verify_representation(alg, adjoint_rep(alg)).passed


def test_sesquilinearity_of_actions(vir):
    rep = adjoint_rep(vir)
    g = parse_poly("D^2 - 3*D")
    p, m = vir.basis(0), rep.module_basis(0)
    lhs = eval_l(rep, p.scale(g), m, L1)
    rhs = eval_l(rep, p, m, L1).scale(g.substitute(D, -MultiPoly.var(lam(1))))
    assert (lhs - rhs).is_zero
    lhs = eval_r(rep, m.scale(g), p, L1)
    rhs = eval_r(rep, m, p, L1).scale(g.substitute(D, -MultiPoly.var(lam(1))))
    assert (lhs - rhs).is_zero
    shift = MultiPoly.var(D) + MultiPoly.var(lam(1))
    lhs = eval_l(rep, p, m.scale(g), L1)
    rhs = eval_l(rep, p, m, L1).scale(g.substitute(D, shift))
    assert (lhs - rhs).is_zero


# -- operator-compatible representations --------------------------------------


@pytest.mark.parametrize("c", [1, Fraction(3, 2)])
def test_scalar_pair_passes(vir, c):
    n = PdModuleMap.scalar(1, c)
    rep = with_nm(adjoint_rep(vir), n)
    assert verify_nijenhuis_representation(vir, n, rep).passed


def test_identity_pair_passes(vir):
    n = PdModuleMap.identity(1)
    rep = with_nm(adjoint_rep(vir), n)
    assert verify_nijenhuis_representation(vir, n, rep).passed


def test_zero_module_operator_passes(vir):
    rep = with_nm(adjoint_rep(vir), PdModuleMap.zero(1))
    assert verify_nijenhuis_representation(vir, PdModuleMap.identity(1), rep).passed


def test_nilpotent_pair_passes(cur2):
    rep = with_nm(adjoint_rep(cur2), NIL)
    assert verify_nijenhuis_representation(cur2, NIL, rep).passed


def test_missing_module_operator_raises(vir):
    with pytest.raises(ValueError):
        verify_nijenhuis_representation(vir, PdModuleMap.identity(1), adjoint_rep(vir))


# -- induced representation ----------------------------------------------------


def test_induced_identity_is_identity(vir):
    rep = with_nm(adjoint_rep(vir), PdModuleMap.identity(1))
    out = induced_representation(vir, PdModuleMap.identity(1), rep)
    assert out.l_structure == rep.l_structure
    assert out.r_structure == rep.r_structure


def test_induced_zero_kills_actions(vir):
    rep = with_nm(adjoint_rep(vir), PdModuleMap.zero(1))
    out = induced_representation(vir, PdModuleMap.zero(1), rep)
    assert not out.l_structure and not out.r_structure


@pytest.mark.parametrize("c", [Fraction(2), Fraction(-1, 2)])
def test_induced_scalar_scales_actions(vir, c):
    rep = with_nm(adjoint_rep(vir), PdModuleMap.scalar(1, c))
    out = induced_representation(vir, PdModuleMap.scalar(1, c), rep)
    assert out.l_structure[(0, 0)][0] == rep.l_structure[(0, 0)][0] * c


@pytest.mark.parametrize("c", [Fraction(1), Fraction(2), Fraction(-3, 2)])
def test_induced_is_representation_of_deformed(vir, c):
    n = PdModuleMap.scalar(1, c)
    rep = with_nm(adjoint_rep(vir), n)
    out = induced_representation(vir, n, rep, strict=True)
    deformed = deformed_bracket(vir, n)
    assert verify_representation(deformed, out).passed
    assert verify_nijenhuis_representation(deformed, n, out).passed


def test_induced_nilpotent_over_deformed(cur2):
    rep = with_nm(adjoint_rep(cur2), NIL)
    out = induced_representation(cur2, NIL, rep, strict=True)
    deformed = deformed_bracket(cur2, NIL)
    assert verify_representation(deformed, out).passed
    assert verify_nijenhuis_representation(deformed, NIL, out).passed


def test_induced_strict_rejects_bad_operator(vir):
    bad = PdModuleMap.scalar(1, MultiPoly.var(D))
    rep = with_nm(adjoint_rep(vir), bad)
    with pytest.raises(PreconditionError):
        induced_representation(vir, bad, rep, strict=True)
