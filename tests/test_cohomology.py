"""Cochain evaluation, the three coboundaries, and the square-zero facts.

The degree-1 coboundary of the map L -> D L over the rank-1 algebra is
recomputed term by term as an oracle: the three contributions are each
nonzero but their sum cancels exactly.
"""

import dataclasses
import functools
import itertools
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest

import reference_coboundary
from helpers import dense
from homleib import cohomology, operators, poly, representation, structure
from homleib.operators import deformed_bracket
from homleib.poly import MAX_ARITY, D, X, MultiPoly, lam, parse_poly
from homleib.structure import (
    L1,
    XF,
    ConformalAlgebra,
    ConformalElement,
    DimensionError,
    Parameters,
    PdModuleMap,
    basis_element,
    eval_bracket,
    normalize_table,
    virasoro,
)
from homleib.representation import (
    Representation,
    adjoint_rep,
    eval_l,
    eval_r,
    induced_representation,
    verify_nijenhuis_representation,
)
from homleib.ns import ns_from_nijenhuis, ns_from_rb
from homleib.cohomology import (
    Cochain,
    Complex,
    HNLAPair,
    check_cochain_compat,
    coboundary_HN,
    coboundary_HNLA,
    coboundary_homL,
    cochain_from_map,
    eval_cochain,
    is_cocycle,
    phi_map,
    random_cochain,
    zero_cochain,
    _evaluator,
)
from reference_coboundary import _insertion_lams, _l_term_lams, _output_lams

NIL = PdModuleMap(
    [[MultiPoly.zero(), MultiPoly.const(1)], [MultiPoly.zero(), MultiPoly.zero()]]
)


def with_nm(rep, m):
    return dataclasses.replace(rep, n_m=m)


def basis_cochain(arity, rank, value_text, key=None):
    key = key or (0,) * arity
    return Cochain(arity, rank, rank, {key: (parse_poly(value_text),)})


# -- evaluation rules ----------------------------------------------------------


def test_arity1_is_d_linear(vir):
    f = basis_cochain(1, 1, "1")
    arg = vir.basis(0).scale(MultiPoly.var(D))
    out = eval_cochain(f, [arg], [])
    assert out.coords[0] == MultiPoly.var(D)


def test_arity2_first_slot_rule(vir):
    f = basis_cochain(2, 1, "1")
    d_arg = vir.basis(0).scale(MultiPoly.var(D))
    out = eval_cochain(f, [d_arg, vir.basis(0)], [L1])
    assert out.coords[0] == parse_poly("-l1")


def test_arity2_last_slot_rule(vir):
    f = basis_cochain(2, 1, "1")
    d_arg = vir.basis(0).scale(MultiPoly.var(D))
    out = eval_cochain(f, [vir.basis(0), d_arg], [L1])
    assert out.coords[0] == parse_poly("D + l1")


def test_eval_is_multilinear(vir):
    f = basis_cochain(2, 1, "D + 3*l1")
    a = vir.basis(0).scale(Fraction(2, 3))
    b = vir.basis(0).scale(Fraction(-1, 5))
    lhs = eval_cochain(f, [a + b, vir.basis(0)], [L1])
    rhs = eval_cochain(f, [a, vir.basis(0)], [L1]) + eval_cochain(
        f, [b, vir.basis(0)], [L1]
    )
    assert (lhs - rhs).is_zero


def test_positional_relabeling_is_simultaneous(vir):
    # stored l1, l2 swapped by the parameter list: a sequential substitution
    # would conflate them
    f = Cochain(3, 1, 1, {(0, 0, 0): (parse_poly("l1 + 2*l2"),)})
    out = eval_cochain(
        f,
        [vir.basis(0)] * 3,
        [MultiPoly.var(lam(2)), MultiPoly.var(lam(1))],
    )
    assert out.coords[0] == parse_poly("l2 + 2*l1")


def test_one_evaluator_per_parameter_list_matches_fresh_evaluation(twisted2):
    # Every (parameter list, arguments) pair that an arity-3 coboundary_homL
    # evaluates: basis, twisted and bracket arguments.  They run in shuffled
    # order through one evaluator per parameter list, so a relabel table
    # reused across parameter lists would show; the reference evaluates a
    # fresh copy of the cochain each time.
    n = 3
    rng = random.Random(51)
    f = random_cochain(2, 2, n, rng, 2)
    basis = [twisted2.basis(t) for t in range(2)]
    twisted = [twisted2.alpha.apply(e) for e in basis]
    calls = []
    for key in itertools.product(range(2), repeat=n + 1):
        args = [basis[t] for t in key]
        for i in range(1, n + 1):
            calls.append((_l_term_lams(n, i), args[: i - 1] + args[i:]))
        calls.append((_output_lams(n - 1), args[:n]))
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                inner = eval_bracket(twisted2, args[i - 1], args[j - 1], MultiPoly.var(lam(i)))
                calls.append((
                    _insertion_lams(n, i, j),
                    [inner if s == j else twisted[key[s - 1]] for s in range(1, n + 2) if s != i],
                ))
    rng.shuffle(calls)
    evaluators = {}
    for lams, args in calls:
        evaluate = evaluators.setdefault(repr(lams), _evaluator(f, Parameters.of(lams)))
        fresh = dataclasses.replace(f, table=dict(f.table))
        assert evaluate(args) == eval_cochain(fresh, args, lams)
    assert len(evaluators) == 6


def d_element(rng, rank=2):
    """An element whose coordinates mention D, so every slot rule moves them."""
    return ConformalElement(tuple(
        MultiPoly({((D, rng.randint(1, 2)),): rng.choice((-2, -1, 1, 3)), (): rng.randint(-1, 1)})
        for _ in range(rank)
    ))


def test_an_evaluator_reuses_each_argument_per_slot_only():
    # One evaluator keeps each argument's substituted coordinates per
    # (slot, argument object); each result must equal a fresh evaluation.
    rng = random.Random(53)
    f = random_cochain(2, 2, 3, rng, 2)
    lams = [MultiPoly.var(lam(2)), MultiPoly.var(lam(1)) + MultiPoly.var(lam(2))]
    evaluate = _evaluator(f, Parameters.of(lams))

    def fresh(args):
        return eval_cochain(dataclasses.replace(f, table=dict(f.table)), args, lams)

    a, b = d_element(rng), d_element(rng)
    # the same object in different slots, each with its own rule for D
    for args in ([a, a, a], [a, b, a], [b, a, b], [a, b, b]):
        assert evaluate(args) == fresh(args)
    assert evaluate([a, a, a]) != evaluate([b, a, a])
    # distinct objects that are equal
    a2 = ConformalElement(tuple(a.coords))
    assert a2 == a and a2 is not a
    assert evaluate([a2, a, a2]) == fresh([a, a, a])
    # temporaries built and dropped: a new one may get the id of an old one
    for _ in range(60):
        args = [d_element(rng), b, d_element(rng)]
        assert evaluate(args) == fresh(args)
    with pytest.raises(DimensionError):
        evaluate([a, basis_element(3, 0), a])
    with pytest.raises(DimensionError):
        eval_cochain(f, [a, a, basis_element(1, 0)], lams)


def test_cochain_rejects_foreign_variables():
    with pytest.raises(ValueError):
        Cochain(1, 1, 1, {(0,): (parse_poly("l1"),)})


# -- twist equivariance ----------------------------------------------------------


def test_compat_identity_twists(vir):
    f = basis_cochain(1, 1, "D^2 - 1")
    assert check_cochain_compat(f, vir, adjoint_rep(vir)).passed


def test_compat_detects_mismatch(vir):
    rep = dataclasses.replace(adjoint_rep(vir), beta=PdModuleMap.scalar(1, 2))
    f = basis_cochain(1, 1, "1")
    report = check_cochain_compat(f, vir, rep)
    assert not report.passed
    assert report.violations[0].residual == "[-1]"


# -- degree-1 coboundary -----------------------------------------------------------


def test_delta1_of_identity_is_bracket(vir):
    rep = adjoint_rep(vir)
    d = coboundary_homL(cochain_from_map(PdModuleMap.identity(1)), vir, rep)
    assert d.table == {(0, 0): (parse_poly("D + 2*l1"),)}


def test_delta1_of_zero_is_zero(vir):
    assert coboundary_homL(zero_cochain(1, 1, 1), vir, adjoint_rep(vir)).is_zero


def test_delta1_of_d_scaling_by_termwise_oracle(vir):
    # oracle: the three contributions computed independently
    rep = adjoint_rep(vir)
    f_val = MultiPoly.var(D)
    term_l = eval_l(rep, vir.basis(0), vir.basis(0).scale(f_val), L1)
    assert term_l.coords[0] == parse_poly("(D + l1) * (D + 2*l1)")
    term_r = eval_r(rep, vir.basis(0).scale(f_val), vir.basis(0), L1)
    assert term_r.coords[0] == parse_poly("-l1 * (D + 2*l1)")
    bracket = parse_poly("D + 2*l1")
    term_insert = bracket * f_val
    assert term_insert == parse_poly("D * (D + 2*l1)")
    expected = term_l.coords[0] + term_r.coords[0] - term_insert
    assert expected.is_zero  # the sum cancels exactly
    d = coboundary_homL(
        Cochain(1, 1, 1, {(0,): (f_val,)}), vir, rep
    )
    assert d.is_zero


def test_cocycle_detection(vir):
    rep = adjoint_rep(vir)
    ok, _ = is_cocycle(cochain_from_map(PdModuleMap.identity(1)), vir, rep)
    assert not ok  # its coboundary is the bracket, nonzero
    d = coboundary_homL(cochain_from_map(PdModuleMap.identity(1)), vir, rep)
    ok, _ = is_cocycle(d, vir, rep)
    assert ok  # coboundaries are cocycles


# -- square zero --------------------------------------------------------------------


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_delta_squared_is_zero(vir, cur2, arity):
    # d, and d_HN under a Nijenhuis pair (n_op, nm = n_op) on the adjoint module
    for alg, n_op in ((vir, PdModuleMap.scalar(1, Fraction(2))), (cur2, NIL)):
        rep = with_nm(adjoint_rep(alg), n_op)
        rng = random.Random(7)
        for _ in range(6):
            f = random_cochain(alg.rank, rep.rank, arity, rng, 2)
            image = coboundary_homL(coboundary_homL(f, alg, rep), alg, rep)
            assert image.is_zero
            assert coboundary_HN(coboundary_HN(f, alg, n_op, rep), alg, n_op, rep).is_zero


# -- operator-twisted coboundary -------------------------------------------------


def test_hn_of_zero_is_zero(vir):
    rep = with_nm(adjoint_rep(vir), PdModuleMap.identity(1))
    out = coboundary_HN(zero_cochain(1, 1, 1), vir, PdModuleMap.identity(1), rep)
    assert out.is_zero


def test_hn_with_identity_pair_is_plain_coboundary(vir):
    n = PdModuleMap.identity(1)
    rep = with_nm(adjoint_rep(vir), n)
    g = basis_cochain(1, 1, "D^2 + 1")
    assert (coboundary_HN(g, vir, n, rep) - coboundary_homL(g, vir, adjoint_rep(vir))).is_zero


@pytest.mark.parametrize("c", [Fraction(2), Fraction(-3)])
def test_hn_with_scalar_pair_scales(vir, c):
    n = PdModuleMap.scalar(1, c)
    rep = with_nm(adjoint_rep(vir), n)
    g = basis_cochain(1, 1, "D")
    lhs = coboundary_HN(g, vir, n, rep)
    rhs = coboundary_homL(g, vir, adjoint_rep(vir)).scale(c)
    assert (lhs - rhs).is_zero


# -- comparison map ------------------------------------------------------------------


def test_phi_matches_four_term_expansion_at_arity2(vir):
    n = PdModuleMap.scalar(1, Fraction(3))
    nm = PdModuleMap.scalar(1, Fraction(-2))
    rep = with_nm(adjoint_rep(vir), nm)
    rng = random.Random(8)
    f = random_cochain(1, 1, 2, rng, 2)
    basis = vir.basis(0)
    got = phi_map(f, n, rep)
    expected = (
        eval_cochain(f, [n.apply(basis), n.apply(basis)], [L1])
        - nm.apply(eval_cochain(f, [basis, n.apply(basis)], [L1]))
        - nm.apply(eval_cochain(f, [n.apply(basis), basis], [L1]))
        + nm.apply(nm.apply(eval_cochain(f, [basis, basis], [L1])))
    )
    assert (got.value((0, 0))[0] - expected.coords[0]).is_zero


def test_phi_arity1_is_commutator_defect(vir):
    n = PdModuleMap.scalar(1, Fraction(2))
    nm = PdModuleMap.scalar(1, Fraction(5))
    rep = with_nm(adjoint_rep(vir), nm)
    f = basis_cochain(1, 1, "D")
    got = phi_map(f, n, rep)
    # f(n p) - nm f(p)
    assert got.value((0,))[0] == MultiPoly.var(D) * (Fraction(2) - Fraction(5))


def test_phi_zero_operators(vir):
    rep = with_nm(adjoint_rep(vir), PdModuleMap.zero(1))
    for arity in (1, 2):
        f = basis_cochain(arity, 1, "D")
        assert phi_map(f, PdModuleMap.zero(1), rep).is_zero


def test_phi_vanishes_for_matching_scalars(vir):
    # with the same scalar on both sides the alternating subset sum telescopes
    for arity in (1, 2, 3):
        n = PdModuleMap.scalar(1, Fraction(2))
        rep = with_nm(adjoint_rep(vir), n)
        f = basis_cochain(arity, 1, "D")
        assert phi_map(f, n, rep).is_zero


def test_phi_equals_per_mask_sum(twisted2, trunc_r3):
    # the module operator power applied to each of the 2^n evaluations
    # one mask at a time, at arities 1-4 (1-3 on the rank-3 trunc_r3,
    # whose 81 arity-4 keys alone take about 2 s)
    d, one, two, z = MultiPoly.var(D), MultiPoly.const(1), MultiPoly.const(2), MultiPoly.zero()
    cases = [
        # D-dependent and non-nilpotent, so every power and every mask count
        (twisted2, PdModuleMap([[one, d], [z, two]]), PdModuleMap([[d + one, one], [two, d]])),
        # N e_1 = 0: no mask puts the image of e_1 in a slot
        (twisted2, PdModuleMap([[one, z], [d, z]]), PdModuleMap([[d, one], [one, z]])),
        # nm^2 = 0: only the masks with at most one bare slot count
        (twisted2, PdModuleMap([[one, d], [z, two]]), PdModuleMap([[z, d], [z, z]])),
        (twisted2, PdModuleMap([[z, one], [z, z]]), NIL),
        (twisted2, PdModuleMap.zero(2), NIL),
    ]
    for alg, n_op, nm in cases:
        _check_phi_per_mask(alg, n_op, nm, (1, 2, 3, 4))
    # rank 3 under a D-dependent twist, with a D-dependent, non-nilpotent pair
    n_op = PdModuleMap([[one, d, z], [z, two, one], [d, z, one]])
    _check_phi_per_mask(trunc_r3[0], n_op, PdModuleMap([[d + one, z, one], [one, d, z], [z, two, one]]), (1, 2, 3))


def _check_phi_per_mask(alg, n_op, nm, arities):
    rank = alg.rank
    rep = with_nm(adjoint_rep(alg), nm)
    basis = [basis_element(rank, t) for t in range(rank)]
    mapped = [n_op.apply(e) for e in basis]
    rng = random.Random(61)
    for arity in arities:
        f = random_cochain(rank, rank, arity, rng)
        lams, powers = _output_lams(arity - 1), [nm.power(k) for k in range(arity + 1)]
        table = {}
        for key in itertools.product(range(rank), repeat=arity):
            acc = ConformalElement((MultiPoly.zero(),) * rank)
            for mask in itertools.product((0, 1), repeat=arity):
                bare = arity - sum(mask)
                args = [mapped[t] if m else basis[t] for m, t in zip(mask, key)]
                v = powers[bare].apply(eval_cochain(f, args, lams))
                acc = acc + v if bare % 2 == 0 else acc - v
            if not acc.is_zero:
                table[key] = acc.coords
        got = phi_map(f, n_op, rep)
        assert got == Cochain(arity, rank, rank, table)
        assert {k: tuple(map(str, v)) for k, v in got.table.items()} == {
            k: tuple(map(str, v)) for k, v in table.items()
        }


# -- commuting square and the combined complex ------------------------------------


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [Fraction(1), Fraction(2)])
def test_commuting_square_scalar(vir, arity, c):
    n = PdModuleMap.scalar(1, c)
    rep = with_nm(adjoint_rep(vir), n)
    rng = random.Random(15)
    for _ in range(5):
        f = random_cochain(1, 1, arity, rng, 2)
        lhs = phi_map(coboundary_homL(f, vir, rep), n, rep)
        rhs = coboundary_HN(phi_map(f, n, rep), vir, n, rep)
        assert (lhs - rhs).is_zero


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_commuting_square_nilpotent(cur2, arity):
    rep = with_nm(adjoint_rep(cur2), NIL)
    rng = random.Random(16)
    for _ in range(4):
        f = random_cochain(2, 2, arity, rng, 2)
        lhs = phi_map(coboundary_homL(f, cur2, rep), NIL, rep)
        rhs = coboundary_HN(phi_map(f, NIL, rep), cur2, NIL, rep)
        assert (lhs - rhs).is_zero


def test_combined_coboundary_components(vir):
    n = PdModuleMap.scalar(1, Fraction(2))
    rep = with_nm(adjoint_rep(vir), n)
    rng = random.Random(23)
    f = random_cochain(1, 1, 2, rng, 2)
    g = random_cochain(1, 1, 1, rng, 2)
    zero2 = zero_cochain(2, 1, 1)
    zero1 = zero_cochain(1, 1, 1)
    out = coboundary_HNLA(HNLAPair(zero2, zero1), vir, n, rep)
    assert out.is_zero
    out = coboundary_HNLA(HNLAPair(f, zero1), vir, n, rep)
    assert (out.f - coboundary_homL(f, vir, rep)).is_zero
    assert (out.g - (-phi_map(f, n, rep))).is_zero
    out = coboundary_HNLA(HNLAPair(zero2, g), vir, n, rep)
    assert out.f.is_zero
    assert (out.g - (-coboundary_HN(g, vir, n, rep))).is_zero


def test_combined_square_zero(vir, cur2):
    # (arity of f, arity of g) = (2, 1), (3, 2) and on cur2 (4, 3): phi
    # runs at arities up to 5
    cases = [
        (vir, PdModuleMap.scalar(1, Fraction(2)), 2),
        (cur2, NIL, 2),
        (cur2, NIL, 3),
        (vir, PdModuleMap.scalar(1, Fraction(2)), 3),
        (cur2, NIL, 4),
    ]
    for alg, n, arity in cases:
        rep = with_nm(adjoint_rep(alg), n)
        rng = random.Random(31)
        for _ in range(4):
            pair = HNLAPair(
                random_cochain(alg.rank, rep.rank, arity, rng, 2),
                random_cochain(alg.rank, rep.rank, arity - 1, rng, 2),
            )
            dd = coboundary_HNLA(coboundary_HNLA(pair, alg, n, rep), alg, n, rep)
            assert dd.is_zero
            ok, _ = is_cocycle(coboundary_HNLA(pair, alg, n, rep), alg, rep, n)
            assert ok


def test_pair_shape_validation(vir):
    with pytest.raises(Exception):
        HNLAPair(zero_cochain(2, 1, 1), None)
    with pytest.raises(Exception):
        HNLAPair(zero_cochain(2, 1, 1), zero_cochain(2, 1, 1))


def test_shapes_the_grids_cannot_see_are_refused(vir, cur2):
    # an evaluator's cells read any argument against the table, so the
    # ranks are checked before they are built: a 3x2 operator on cur2, and a
    # representation over cur2 used with the rank-1 vir
    rep = with_nm(adjoint_rep(cur2), NIL)
    f = random_cochain(1, 2, 1, random.Random(7))
    g = random_cochain(2, 2, 1, random.Random(7))  # over cur2
    tall = PdModuleMap([[MultiPoly.const(1)] * 2] * 3)
    for call in (
        lambda: coboundary_homL(f, vir, rep),
        lambda: coboundary_HN(f, vir, PdModuleMap.identity(1), rep),
        lambda: coboundary_HN(g, cur2, tall, rep),
        lambda: induced_representation(vir, PdModuleMap.identity(1), rep),
        lambda: induced_representation(cur2, tall, rep),
        lambda: verify_nijenhuis_representation(cur2, tall, rep),
        lambda: verify_nijenhuis_representation(vir, PdModuleMap.identity(1), rep),
        lambda: ns_from_nijenhuis(cur2, tall),
        lambda: ns_from_rb(cur2, tall, 1),
    ):
        with pytest.raises(DimensionError):
            call()
    # d_HN checks the module operator, then the ranks, then the operator's shape
    with pytest.raises(ValueError, match="no module operator"):
        coboundary_HN(f, vir, tall, adjoint_rep(cur2))
    with pytest.raises(DimensionError, match="cochain is over a different algebra rank"):
        coboundary_HN(f, cur2, tall, rep)
    with pytest.raises(DimensionError, match="operator shape does not match algebra rank"):
        coboundary_HN(g, cur2, tall, rep)
    # the twist-compatibility check and phi refuse the shapes d refuses, with d's messages
    h = random_cochain(1, 1, 1, random.Random(7))
    over_rank2 = Representation(2, 1, {}, {}, PdModuleMap.identity(1))
    with_op = Representation(2, 1, {}, {}, PdModuleMap.identity(1), n_m=PdModuleMap.identity(1))
    for call, message in (
        (lambda: check_cochain_compat(h, vir, over_rank2), "representation is over a different algebra rank"),
        (lambda: coboundary_homL(h, vir, with_op), "representation is over a different algebra rank"),
        (lambda: phi_map(h, PdModuleMap.scalar(1, 2), with_op), "representation is over a different algebra rank"),
        # a view over vir whose representation sits over cur2: phi as d
        (lambda: Complex(vir, rep).twisted(PdModuleMap.identity(2)).phi(g), "cochain is over a different algebra rank"),
        (lambda: Complex(vir, rep).twisted(PdModuleMap.identity(2)).d(g), "cochain is over a different algebra rank"),
        (lambda: check_cochain_compat(g, vir, adjoint_rep(vir)), "cochain is over a different algebra rank"),
        (lambda: check_cochain_compat(f, vir, adjoint_rep(vir)), "cochain values live in a different module rank"),
    ):
        with pytest.raises(DimensionError, match=message):
            call()


# -- nontrivial twist ---------------------------------------------------------------


def test_full_stack_under_unipotent_twist(twisted2):
    from homleib.structure import verify_hom_leibniz, verify_multiplicativity
    from homleib.representation import verify_representation
    from homleib.operators import OperatorKind, verify_deformed_suite, verify_operator
    from homleib.ns import adjacent_algebra, ns_from_nijenhuis, verify_ns_axioms
    from homleib.operators import deformed_bracket as deform

    assert verify_hom_leibniz(twisted2).passed
    assert verify_multiplicativity(twisted2).passed
    rep = adjoint_rep(twisted2)
    assert verify_representation(twisted2, rep).passed
    assert verify_operator(twisted2, NIL, OperatorKind.nijenhuis()).passed
    for report in verify_deformed_suite(twisted2, NIL):
        assert report.passed
    ns = ns_from_nijenhuis(twisted2, NIL, strict=True)
    assert verify_ns_axioms(ns).passed
    assert adjacent_algebra(ns).structure == deform(twisted2, NIL).structure


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_delta_squared_zero_under_unipotent_twist(twisted2, arity):
    rep = adjoint_rep(twisted2)
    rng = random.Random(41)
    for _ in range(5):
        f = random_cochain(2, 2, arity, rng, 2)
        assert coboundary_homL(coboundary_homL(f, twisted2, rep), twisted2, rep).is_zero


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_commuting_square_under_unipotent_twist(twisted2, arity):
    rep = with_nm(adjoint_rep(twisted2), NIL)
    rng = random.Random(42)
    for _ in range(4):
        f = random_cochain(2, 2, arity, rng, 2)
        lhs = phi_map(coboundary_homL(f, twisted2, rep), NIL, rep)
        rhs = coboundary_HN(phi_map(f, NIL, rep), twisted2, NIL, rep)
        assert (lhs - rhs).is_zero


def test_combined_square_zero_under_unipotent_twist(twisted2):
    rep = with_nm(adjoint_rep(twisted2), NIL)
    rng = random.Random(43)
    for arity in (2, 2, 2, 3, 3, 4):
        pair = HNLAPair(
            random_cochain(2, 2, arity, rng, 2), random_cochain(2, 2, arity - 1, rng, 2)
        )
        dd = coboundary_HNLA(coboundary_HNLA(pair, twisted2, NIL, rep), twisted2, NIL, rep)
        assert dd.is_zero


# -- the action-vector coboundary against the per-key reference ---------------


def _raw_table(f):
    """f's table as term dicts, each coefficient with its stored type."""
    return {
        key: tuple({m: (type(c), c) for m, c in p.raw().items()} for p in vec)
        for key, vec in f.table.items()
    }


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["vir", "cur2", "twisted2"])
def test_coboundary_equals_per_key_reference(request, name, arity):
    alg = request.getfixturevalue(name)
    n_op = PdModuleMap.scalar(1, Fraction(2)) if alg.rank == 1 else NIL
    rep = with_nm(adjoint_rep(alg), n_op)
    rng = random.Random(41 + arity)
    for _ in range(2):
        f = random_cochain(alg.rank, rep.rank, arity, rng)
        assert _raw_table(coboundary_homL(f, alg, rep)) == _raw_table(
            reference_coboundary.coboundary_homL(f, alg, rep)
        )
        expected = reference_coboundary.coboundary_homL(
            f, deformed_bracket(alg, n_op), induced_representation(alg, n_op, rep)
        )
        assert _raw_table(coboundary_HN(f, alg, n_op, rep)) == _raw_table(expected)


def _random_poly(rng, variables, max_deg=2, nterms=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        degs = [rng.randint(0, max_deg) for _ in variables]
        key = tuple((v, e) for v, e in zip(variables, degs) if e)
        terms[key] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    return MultiPoly(terms)


def _random_table(rng, rows, cols, out_rank, density):
    table = {}
    for a in range(rows):
        for b in range(cols):
            if rng.random() < density:
                table[a, b] = tuple(_random_poly(rng, (D, X)) for _ in range(out_rank))
    return normalize_table(table, out_rank)


def _random_twist(rng, rank):
    """A random matrix over polynomials in D with a D on its diagonal."""
    d, z = MultiPoly.var(D), MultiPoly.zero()
    return PdModuleMap(
        [
            [_random_poly(rng, (D,), max_deg=1, nterms=2) + (d if a == b else z) for b in range(rank)]
            for a in range(rank)
        ]
    )


def test_coboundary_equals_per_key_reference_on_random_pairs():
    """Random algebras and modules, with no axiom required: D-dependent
    twists, independent left and right tables (some empty, some sparse),
    module ranks other than the algebra's, arities 1-3; the last twelve
    cases with a zero action column, half of them with no brackets.
    The cases 0, 1 and 4 mod 8 (ranks 1-3, arities 1-3) also check
    d_HN, under random D-dependent operators N and nm, against the
    reference over the deformed bracket and the induced actions."""
    rng = random.Random(2024)
    operators = random.Random(2025)  # its own stream: the cases are drawn as before
    for case in range(56):
        alg_rank = 1 if case % 4 == 0 else rng.randint(1, 3)
        rep_rank = rng.choice([r for r in (1, 2, 3) if r != alg_rank] if case % 2 else (alg_rank,))
        arity = 1 + case % 3 if alg_rank < 3 else 1 + case % 2
        density = 0.0 if case % 11 == 5 else rng.choice((0.3, 0.7, 1.0))
        brackets = _random_table(rng, alg_rank, alg_rank, alg_rank, density)
        twist = _random_twist(rng, alg_rank)
        l_table = _random_table(rng, alg_rank, rep_rank, rep_rank, density)
        r_table = _random_table(rng, rep_rank, alg_rank, rep_rank, rng.choice((0.0, 0.5, 1.0)))
        if case >= 44:
            # l(e_a) e_b = 0 and r(e_b) e_a = 0 for one module basis
            # element b, so column b of both action-vector tables is zero;
            # every other such case has an empty bracket table as well
            b = rng.randrange(rep_rank)
            l_table = {k: v for k, v in l_table.items() if k[1] != b}
            r_table = {k: v for k, v in r_table.items() if k[0] != b}
            if case % 2:
                brackets = {}
        alg = ConformalAlgebra(alg_rank, tuple(f"e{i}" for i in range(alg_rank)), brackets, twist)
        n_op, nm = (
            PdModuleMap([[_random_poly(operators, (D,), 1, 2) for _ in range(r)] for _ in range(r)])
            for r in (alg_rank, rep_rank)
        )
        rep = Representation(alg_rank, rep_rank, l_table, r_table, _random_twist(rng, rep_rank), nm)
        f = random_cochain(alg_rank, rep_rank, arity, rng, max_deg=rng.choice((1, 2)))
        assert _raw_table(coboundary_homL(f, alg, rep)) == _raw_table(
            reference_coboundary.coboundary_homL(f, alg, rep)
        ), case
        if case % 8 in (0, 1, 4):
            expected = reference_coboundary.coboundary_homL(
                f, deformed_bracket(alg, n_op), induced_representation(alg, n_op, rep)
            )
            assert _raw_table(coboundary_HN(f, alg, n_op, rep)) == _raw_table(expected), case


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_coboundary_builds_its_structure_data_as_grids(monkeypatch, virm1_r2, arity):
    """d and d_HN evaluate each structure table once, at x, as cells:
    with every per-pair route to a table made to raise, and for d_HN
    the constructions of the deformed bracket and the induced actions
    too, they return the same cochains, and each builds exactly one
    table evaluator per table of the algebra and module, at x, here
    over a D-dependent twist and a D-dependent operator pair."""
    alg, q = virm1_r2
    rep = with_nm(adjoint_rep(alg), q)
    f = random_cochain(alg.rank, rep.rank, arity, random.Random(43 + arity))
    expected, expected_hn = coboundary_homL(f, alg, rep), coboundary_HN(f, alg, q, rep)

    def failing(*args, **kwargs):
        raise AssertionError("a table evaluated pair by pair, or a deformed table built")

    assert not {"eval_bracket", "eval_l", "eval_r", "deformed_bracket", "induced_representation"} & set(vars(cohomology))
    for module, name in [
        (structure, "eval_bracket"), (structure, "eval_table_bracket"),
        (representation, "eval_l"), (representation, "eval_r"),
        (operators, "deformed_bracket"), (representation, "induced_representation"),
    ]:
        monkeypatch.setattr(module, name, failing)
    built = []
    original = structure._evaluator

    def counting(table, stored, out_rank, lams, rank=None):
        built.append((id(table), out_rank, tuple(map(str, lams.polys))))
        return original(table, stored, out_rank, lams, rank)

    monkeypatch.setattr(structure, "_evaluator", counting)
    tables = [alg.structure, rep.l_structure, rep.r_structure]
    once = sorted((id(t), alg.rank, (str(XF),)) for t in tables)
    assert _raw_table(coboundary_homL(f, alg, rep)) == _raw_table(expected)
    assert sorted(built) == once
    built.clear()
    assert _raw_table(coboundary_HN(f, alg, q, rep)) == _raw_table(expected_hn)
    assert sorted(built) == once
    # the same counts through a complex: its first view builds the three
    # evaluators at x, and its d and a second view read them
    built.clear()
    plain = Complex(alg, rep)
    assert _raw_table(plain.twisted(q).d(f)) == _raw_table(expected_hn)
    assert sorted(built) == once
    assert _raw_table(plain.d(f)) == _raw_table(expected)
    assert _raw_table(plain.twisted(q).d(f)) == _raw_table(expected_hn)
    assert sorted(built) == once


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_coboundary_equals_per_key_reference_on_unit_and_empty_cochains(request, arity):
    """Each unit cochain (a 1 at one key and coordinate) and the empty
    cochain, over a D-dependent twist, for d and for d_HN: on virm1_r2,
    and at arities 1-2 on the rank-3 trunc_r3, whose sparse bracket lets
    a unit cochain reach only a few output keys.  d's table lists its
    keys in sorted order."""
    for name in ["virm1_r2"] + (["trunc_r3"] if arity <= 2 else []):
        alg, q = request.getfixturevalue(name)
        rep = with_nm(adjoint_rep(alg), q)
        deformed, induced = deformed_bracket(alg, q), induced_representation(alg, q, rep)
        keys = list(itertools.product(range(alg.rank), repeat=arity))
        for f in _unit_cochains(arity, alg.rank, rep.rank, keys) + [zero_cochain(arity, alg.rank, rep.rank)]:
            df = coboundary_homL(f, alg, rep)
            assert _raw_table(df) == _raw_table(reference_coboundary.coboundary_homL(f, alg, rep)), name
            assert list(df.table) == sorted(df.table)
            assert _raw_table(coboundary_HN(f, alg, q, rep)) == _raw_table(
                reference_coboundary.coboundary_homL(f, deformed, induced)
            ), name


def test_structural_zeros_cost_no_work(monkeypatch, twisted2):
    """A zero bracket and zero actions make every term of the coboundary
    zero: no stored value is substituted and no insertion evaluator is
    built.  With n_op = 0 each step of phi has the zero image in its
    operator slot, so no tuple phi evaluates is free of a zero argument.
    The zero operator pair deforms any bracket and actions to zero, so
    d_HN under it is zero at the same cost."""
    substituted, built, evaluated = [], [], []
    real_substitution, real_evaluator = cohomology.substitution, cohomology._sesquilinear

    def counting_substitution(targets):
        apply = real_substitution(targets)
        return lambda p: substituted.append(p) or apply(p)

    def counting_evaluator(table, *args):
        # counts the tuples its batches meet that have no zero argument
        built.append(args)
        evaluate = real_evaluator(table, *args)
        batch = evaluate.batch
        evaluate.batch = lambda slots: evaluated.extend(
            args for args in itertools.product(*slots) if not any(a.is_zero for a in args)
        ) or batch(slots)
        return evaluate

    monkeypatch.setattr(cohomology, "substitution", counting_substitution)
    monkeypatch.setattr(cohomology, "_sesquilinear", counting_evaluator)
    alg = ConformalAlgebra(2, ("e0", "e1"), {}, PdModuleMap.identity(2))
    rep = Representation(2, 2, {}, {}, PdModuleMap.identity(2))
    zero_pair = with_nm(adjoint_rep(twisted2), PdModuleMap.zero(2))
    # the module functions, then held complexes and views, with the same counts
    held = Complex(alg, rep), Complex(twisted2, zero_pair).twisted(PdModuleMap.zero(2))
    routes = [
        (coboundary_homL, phi_map, coboundary_HN),
        (
            lambda f, alg, rep: held[0].d(f),
            lambda f, n_op, rep: Complex(alg, rep).twisted(n_op).phi(f),
            lambda g, alg, n_op, rep: held[1].d(g),
        ),
    ]
    for d, phi, d_hn in routes:
        rng = random.Random(5)
        for arity in (1, 2, 3):
            f = random_cochain(2, 2, arity, rng)
            built.clear()
            assert d(f, alg, rep).is_zero
            assert substituted == [] and built == []
            for nm in (PdModuleMap.scalar(2, 2), NIL):
                evaluated.clear()
                got = phi(f, PdModuleMap.zero(2), with_nm(rep, nm))
                assert evaluated == []
                if nm != NIL:
                    assert got == f.scale((-2) ** arity)
            substituted.clear()
            built.clear()
            assert d_hn(f, twisted2, PdModuleMap.zero(2), zero_pair).is_zero
            assert substituted == [] and built == []


def test_phi_builds_one_evaluator_per_step(monkeypatch, vir, twisted2):
    """phi at arity n is at most n steps, each one batch of one evaluator
    of the running table, and builds none once a step's table is empty:
    one at every arity for N = nm = 2 on vir, whose first step cancels,
    n for a D-dependent, non-nilpotent pair on twisted2, and none for an
    empty cochain."""
    d, one, two, z = MultiPoly.var(D), MultiPoly.const(1), MultiPoly.const(2), MultiPoly.zero()
    scalar = PdModuleMap.scalar(1, Fraction(2))
    pair = PdModuleMap([[one, d], [z, two]]), PdModuleMap([[d + one, one], [two, d]])
    built = _counting_builds(monkeypatch)
    rng = random.Random(81)
    for alg, (n_op, nm), steps in ((vir, (scalar, scalar), lambda n: 1), (twisted2, pair, lambda n: n)):
        rep = with_nm(adjoint_rep(alg), nm)
        for arity in (1, 2, 3, 4):
            f = random_cochain(alg.rank, rep.rank, arity, rng)
            assert f.table
            for g, count in ((f, steps(arity)), (zero_cochain(arity, alg.rank, rep.rank), 0)):
                built.clear()
                phi_map(g, n_op, rep)
                assert [kind for kind, _ in built if kind == "evaluator"] == ["evaluator"] * count


def _counting_builds(monkeypatch) -> list:
    """The compiled substitutions, the evaluators and the cells built from
    now on, as one list: every `poly.substitution` that cohomology or
    structure compiles, every `structure._evaluator`, the cochain ones
    included, and every `cells` call of one and every read-out of its
    cells on the basis (`basis_cells`), both counted as cells."""
    built = []
    real_substitution, real_evaluator = cohomology.substitution, structure._evaluator

    def counting_substitution(targets):
        built.append(("substitution", dict(targets)))
        return real_substitution(targets)

    def counting_evaluator(table, *args):
        built.append(("evaluator", id(table)))
        evaluate = real_evaluator(table, *args)
        cells, basis_cells = evaluate.cells, evaluate.basis_cells
        evaluate.cells = lambda *lists: built.append(("cells", id(table))) or cells(*lists)
        evaluate.basis_cells = lambda: built.append(("cells", id(table))) or basis_cells()
        return evaluate

    for module in (cohomology, structure):
        monkeypatch.setattr(module, "substitution", counting_substitution)
    monkeypatch.setattr(structure, "_evaluator", counting_evaluator)
    monkeypatch.setattr(cohomology, "_sesquilinear", counting_evaluator)
    return built


@pytest.mark.parametrize("name", ["vir", "cur2", "twisted2", "virm1_r2", "trunc_r3"])
def test_an_empty_cochain_costs_a_held_complex_nothing(monkeypatch, request, name):
    """d and d_HN of a cochain with no stored key, through a held complex
    and its view, build no evaluator and compile no substitution: before
    any cells are built and after, at arities 1-3."""
    alg, n_op = _with_operator(request, name)
    rep = with_nm(adjoint_rep(alg), n_op)
    built = _counting_builds(monkeypatch)
    plain = Complex(alg, rep)
    view = plain.twisted(n_op)
    for arity in (1, 2, 3):
        empty = zero_cochain(arity, alg.rank, rep.rank)
        for _ in range(2):
            assert plain.d(empty) == zero_cochain(arity + 1, alg.rank, rep.rank)
            assert view.d(empty) == zero_cochain(arity + 1, alg.rank, rep.rank)
            assert built == []
            unit = _unit_cochains(arity, alg.rank, rep.rank, [(0,) * arity])[0]
            plain.d(unit)
            view.d(unit)
            built.clear()


@pytest.mark.parametrize("name", ["vir", "twisted2", "virm1_r2"])
def test_a_held_complex_builds_its_structure_evaluators_once(monkeypatch, request, name):
    """Two d calls on one complex at the same arity, and its twisted
    view's d_HN, build no second structure evaluator: one per table in
    all, whatever the arities.  Each table's cells are built once per
    arity: three for d, and for d_HN the two twisted terms of each
    deformed product, whose untwisted term is d's cells."""
    alg, n_op = _with_operator(request, name)
    rep = with_nm(adjoint_rep(alg), n_op)
    built = _counting_builds(monkeypatch)
    tables = {id(alg.structure), id(rep.l_structure), id(rep.r_structure)}
    plain = Complex(alg, rep)
    view = plain.twisted(n_op)
    rng = random.Random(71)
    for arity in (1, 2, 2, 3, 1):
        for _ in range(2):
            f = random_cochain(alg.rank, rep.rank, arity, rng)
            plain.d(f)
            view.d(f)
    structural = [table for kind, table in built if kind == "evaluator" and table in tables]
    assert sorted(structural) == sorted(tables)
    cells = [table for kind, table in built if kind == "cells"]
    assert sorted(cells) == sorted(list(tables) * 3 * 3)


@pytest.mark.parametrize("name", ["vir", "twisted2", "virm1_r2"])
def test_a_held_complex_builds_each_frame_once(monkeypatch, request, name):
    """The first d of a held complex at an arity, and the first d_HN of
    its view, build that arity's frame; every later one at an arity
    already met builds no frame and no cells, whatever arities come
    between.  No d compiles a substitution in cohomology or structure:
    the frame, the cochain's evaluators and the structure evaluators read
    the ones compiled at import."""
    alg, n_op = _with_operator(request, name)
    rep = with_nm(adjoint_rep(alg), n_op)
    built = _counting_builds(monkeypatch)
    frames, real_frame = [], cohomology._frame
    monkeypatch.setattr(cohomology, "_frame", lambda n, *cells: frames.append(n) or real_frame(n, *cells))
    plain = Complex(alg, rep)
    view = plain.twisted(n_op)
    rng = random.Random(79)
    met = set()
    for arity in (1, 3, 2, 1, 3, 2):
        for op, coboundary in (("d", plain.d), ("d_HN", view.d)):
            f = random_cochain(alg.rank, rep.rank, arity, rng)
            frames.clear()
            built.clear()
            coboundary(f)
            cells = [kind for kind, _ in built if kind == "cells"]
            assert [kind for kind, _ in built if kind == "substitution"] == [], (op, arity)
            if (op, arity) in met:
                assert frames == [] and cells == [], (op, arity)
            else:
                assert frames == [arity], (op, arity)
            met.add((op, arity))


def _nonzero_cells(grid) -> dict:
    """The nonzero cells of a dense grid, {(i, j): value}, in row order."""
    return {(i, j): v for i, row in enumerate(grid) for j, v in enumerate(row) if not v.is_zero}


def _dense_deformed(ev, first, second, outer) -> list:
    """The former dense deformed product: u + v - outer(p) on every cell
    of the dense views (`helpers.dense`) of ev(a p, q), ev(p, b q) and
    ev(p, q)."""
    (firsts, a_images), (seconds, b_images) = first, second
    rank = outer.rows
    rows = zip(*(dense(ev, f, s, rank) for f, s in ((a_images, seconds), (firsts, b_images), (firsts, seconds))))
    return [[u + v - outer.apply(p) for u, v, p in zip(*row)] for row in rows]


@pytest.mark.parametrize("name", ["vir", "cur2", "twisted2", "virm1_r2", "trunc_r3"])
def test_the_cells_are_the_nonzero_cells_of_the_dense_grids(monkeypatch, request, name):
    """At arities 1-3 a complex's cells at x are the nonzero cells of the
    dense grids of its evaluators, and its view's deformed cells those of
    the dense deformed product; no cell holds zero and every cell dict
    is in row order.  On cur2 and twisted2 under NIL the deformed bracket
    is zero, so the view holds no bracket cell and d_HN evaluates no
    insertion batch of the cochain."""
    alg, n_op = _with_operator(request, name)
    rep = with_nm(adjoint_rep(alg), n_op)
    plain = Complex(alg, rep)
    view = plain.twisted(n_op)
    (br, l_ev, r_ev), basis, mods, nm = plain.evaluators, plain.basis, plain.mods, rep.n_m
    algs, modules = (basis, [n_op.apply(e) for e in basis]), (mods, [nm.apply(m) for m in mods])
    for arity in (1, 2, 3):
        acting = plain.acting(arity)
        actings = (acting, [n_op.apply(a) for a in acting])
        grids = dense(br, basis, basis, alg.rank), dense(l_ev, acting, mods, rep.rank), dense(r_ev, mods, acting, rep.rank)
        deformed = (
            _dense_deformed(br, algs, algs, n_op),
            _dense_deformed(l_ev, actings, modules, nm),
            _dense_deformed(r_ev, modules, actings, nm),
        )
        assert plain.cells(arity) == tuple(map(_nonzero_cells, grids)), arity
        assert view.cells(arity) == tuple(map(_nonzero_cells, deformed)), arity
        for cells in plain.cells(arity) + view.cells(arity):
            assert list(cells) == sorted(cells)
            assert not any(v.is_zero for v in cells.values())
    if name in ("cur2", "twisted2"):
        built, real = [], cohomology._sesquilinear
        monkeypatch.setattr(cohomology, "_sesquilinear", lambda table, *args: built.append(table) or real(table, *args))
        for arity in (1, 2, 3):
            assert view.cells(arity)[0] == {}
            f = random_cochain(alg.rank, rep.rank, arity, random.Random(arity))
            assert f.table
            view.d(f)
            assert built == [], arity


def _with_operator(request, name):
    """A fixture algebra and an operator N on it: 2 on vir, the nilpotent
    NIL on cur2 and twisted2, and the file's Q on the others."""
    alg = request.getfixturevalue(name)
    if isinstance(alg, tuple):
        return alg
    return alg, PdModuleMap.scalar(1, Fraction(2)) if alg.rank == 1 else NIL


def _unit_cochains(arity, alg_rank, rep_rank, keys):
    """A 1 at one of `keys` and one coordinate, for each pair."""
    return [
        Cochain(arity, alg_rank, rep_rank, {key: tuple(MultiPoly.const(int(b == k)) for b in range(rep_rank))})
        for key in keys
        for k in range(rep_rank)
    ]


@pytest.mark.parametrize("name", ["vir", "cur2", "twisted2", "virm1_r2", "trunc_r3"])
def test_a_held_complex_equals_the_module_functions_and_the_reference(request, name):
    """One complex and one twisted view, held over every cochain at
    arities 1-3, met in the order 1, 3, 2, 1, 3 so that a frame kept at
    one arity is never read at another: d, d_HN, phi and d_HNLA equal
    the module functions term for term, and d and d_HN equal the per-key
    reference (d_HN over the deformed bracket and the induced actions) on
    random, unit and empty cochains.  Equalities only: no square is
    claimed to vanish."""
    alg, n_op = _with_operator(request, name)
    rep = with_nm(adjoint_rep(alg), n_op)
    deformed, induced = deformed_bracket(alg, n_op), induced_representation(alg, n_op, rep)
    plain = Complex(alg, rep)
    view = plain.twisted(n_op)
    rng = random.Random(73)
    for arity in (1, 3, 2, 1, 3):
        keys = list(itertools.product(range(alg.rank), repeat=arity))
        units = _unit_cochains(arity, alg.rank, rep.rank, keys if len(keys) <= 8 else rng.sample(keys, 3))
        randoms = [random_cochain(alg.rank, rep.rank, arity, rng) for _ in range(2)]
        for f in randoms + units + [zero_cochain(arity, alg.rank, rep.rank)]:
            d, d_hn = plain.d(f), view.d(f)
            assert _raw_table(d) == _raw_table(coboundary_homL(f, alg, rep))
            assert _raw_table(d) == _raw_table(reference_coboundary.coboundary_homL(f, alg, rep))
            assert _raw_table(d_hn) == _raw_table(coboundary_HN(f, alg, n_op, rep))
            assert _raw_table(d_hn) == _raw_table(reference_coboundary.coboundary_homL(f, deformed, induced))
            assert _raw_table(view.phi(f)) == _raw_table(phi_map(f, n_op, rep))
        for f, g in zip(randoms, [None] if arity == 1 else [random_cochain(alg.rank, rep.rank, arity - 1, rng)] * 2):
            got, want = view.d_hnla(HNLAPair(f, g)), coboundary_HNLA(HNLAPair(f, g), alg, n_op, rep)
            assert _raw_table(got.f) == _raw_table(want.f) and _raw_table(got.g) == _raw_table(want.g)


def _former_random_cochain(alg_rank, rep_rank, arity, rng, max_deg):
    """random_cochain as it was, its monomials from a walk over every
    degree tuple in (max_deg + 1)^arity."""
    vs = [D] + [lam(i) for i in range(1, arity)]
    monomials = []
    for degs in itertools.product(range(max_deg + 1), repeat=len(vs)):
        if sum(degs) <= max_deg:
            monomials.append(tuple((v, e) for v, e in zip(vs, degs) if e))
    monomials.sort()
    table = {}
    for key in itertools.product(range(alg_rank), repeat=arity):
        vec = []
        for _ in range(rep_rank):
            terms = {}
            for mono in monomials:
                c = rng.randint(-2, 2)
                if c:
                    terms[mono] = c
            vec.append(MultiPoly(terms))
        if any(not p.is_zero for p in vec):
            table[key] = tuple(vec)
    return Cochain(arity, alg_rank, rep_rank, table)


@pytest.mark.parametrize("arity", range(1, MAX_ARITY + 1))
def test_random_cochain_draws_as_before(arity):
    rank = 2 if arity <= 3 else 1
    for max_deg in range(-1, 5):
        for seed in (0, 1, 7):
            got = random_cochain(rank, rank, arity, random.Random(seed), max_deg)
            want = _former_random_cochain(rank, rank, arity, random.Random(seed), max_deg)
            assert _raw_table(got) == _raw_table(want), (max_deg, seed)


def test_random_cochain_size_is_bounded_before_drawing(monkeypatch):
    monkeypatch.setattr(cohomology, "MAX_RANDOM_COEFFS", 12)
    rng = random.Random(3)
    # 2 keys x 2 coordinates x 3 monomials of degree <= 2 in D
    assert not random_cochain(2, 2, 1, rng, 2).is_zero
    state = rng.getstate()
    for args in ((2, 2, 1, rng, 3), (2, 2, 2, rng, 1), (1, 1, 1, rng, 10**100)):
        with pytest.raises(ValueError, match="above the bound of 12"):
            random_cochain(*args)
    assert rng.getstate() == state


def test_cochain_difference_equals_sum_with_negation():
    rng = random.Random(8)
    for arity in (1, 2, 3):
        f, g = (random_cochain(2, 3, arity, rng) for _ in range(2))
        assert _raw_table(f - g) == _raw_table(f + g.scale(-1))
        assert (f - f).table == {}


@pytest.mark.parametrize("key", [(5,), (-1,), (0, 1, 2), (0, -1, 0)])
def test_cochain_keys_name_basis_elements(key):
    # a key index outside range(alg_rank) is refused, not carried into d's keys
    with pytest.raises(DimensionError, match=re.escape(f"bad cochain entry at {key}")):
        Cochain(len(key), 2, 1, {key: (MultiPoly.const(1),)})
    assert Cochain(1, 2, 1, {(1,): (MultiPoly.const(1),)}).table


def test_negation_negates_each_stored_value():
    # -f is f.scale(-1) term for term, keys in the same order: on random
    # cochains, their rational multiples, a stored all-zero vector (which
    # both drop) and the empty cochain
    rng = random.Random(29)
    zero_row = Cochain(1, 2, 2, {(0,): (MultiPoly.zero(),) * 2, (1,): (MultiPoly.const(1), MultiPoly.zero())})
    for arity in (1, 2, 3):
        f = random_cochain(2, 3, arity, rng)
        for g in (f, f.scale(Fraction(-2, 3)), zero_cochain(arity, 2, 3), zero_row):
            assert _raw_table(-g) == _raw_table(g.scale(-1))
            assert list((-g).table) == list(g.scale(-1).table)


# -- the parameters of each arity, built at import ------------------------------


def _per_call(lams: list) -> tuple:
    """The polynomials and slot targets of the parameters of a list of
    polynomials, written out here: each polynomial, its negation, and D
    plus their sum."""
    last = MultiPoly.var(D) + sum(lams, MultiPoly.zero())
    return tuple(lams), tuple(-w for w in lams) + (last,)


def _written(at: Parameters) -> tuple:
    """The polynomials and slot targets that parameters hold."""
    return at.polys, at.targets


def _frame_images(entry, n: int) -> list:
    """The images of x under the frame's x substitutions of an arity-n
    entry, and of l1..l(n-1) and D under its action groups'."""
    variables = [MultiPoly.var(lam(k)) for k in range(1, n)] + [MultiPoly.var(D)]
    return [[at(XF) for at in entry.at_ls], entry.at_total(XF), [[group(v) for v in variables] for group in entry.groups]]


def _frame_reference(n: int) -> list:
    """`_frame_images` written out: x -> l_i and x -> l_1 + ... + l_n; the
    left group i sends l1..l(n-1) to the left-action term i's parameters
    and D to D + l_i, the right group D to -(l_1 + ... + l_n)."""
    ws = _output_lams(n)
    total = sum(ws, MultiPoly.zero())
    stored = [MultiPoly.var(lam(k)) for k in range(1, n)]
    groups = [_l_term_lams(n, i) + [MultiPoly.var(D) + ws[i - 1]] for i in range(1, n + 1)]
    return [ws, total, groups + [stored + [-total]]]


def test_the_parameter_table_equals_a_per_call_build():
    """Every entry of the table, arities 1..MAX_ARITY + 1, holds the
    polynomials and slot targets written out per call (`_per_call`) from
    the polynomial lists that d read before it (`reference_coboundary`),
    term for term: the outputs, each insertion pair (i, j) and each
    left-action term i; and its frame
    substitutions send x, l1..l(n-1) and D to the polynomials written out
    in `_frame_reference`.  The builder run above the table gives the
    same."""
    table = cohomology._ARITIES
    assert len(table) == MAX_ARITY + 1
    for n, entry in enumerate(table, 1):
        assert _written(entry.outputs) == _per_call(_output_lams(n - 1)) == _written(Parameters.of(_output_lams(n - 1)))
        for i in range(1, n + 1):
            row = [_per_call(_insertion_lams(n, i, j)) for j in range(i + 1, n + 2)]
            assert list(map(_written, entry.insertions[i - 1])) == row, (n, i)
            assert _written(entry.insertions[i - 1][-1]) == _per_call(_l_term_lams(n, i)), (n, i)
        assert _frame_images(entry, n) == _frame_reference(n)
        above = cohomology._arities(n, n)
        assert above == (entry,) and _frame_images(above[0], n) == _frame_reference(n)


def _nodes(x) -> list:
    """x and everything it holds, depth first: the items of a tuple, the
    fields of parameters and of an arity's entry."""
    if isinstance(x, (Parameters, cohomology._Arity)):
        return [x] + [y for f in dataclasses.fields(x) for y in _nodes(getattr(x, f.name))]
    return [x] + [y for item in x for y in _nodes(item)] if isinstance(x, tuple) else [x]


def _is_compiled(x) -> bool:
    """x is a compiled substitution of `poly.substitution`: the kernel's,
    wrapped, or the identity that it returns when nothing moves."""
    return x is poly._unchanged or isinstance(x, functools.partial) and x.func is poly._substituted


def test_the_parameter_table_holds_only_parameters_and_their_substitutions():
    """The table holds tuples, polynomials, variable ids, parameters and
    compiled substitutions, and the substitutions are its only callables;
    every parameter is compiled for the stored l1..l(n-1) of its arity.
    d, d_HN and phi at arities 1..MAX_ARITY + 2 leave it the same objects
    with the same values: nothing is added to it or replaced, above the
    table included."""
    table = cohomology._ARITIES
    before = _nodes(table)
    values = [str(x) for x in before if isinstance(x, MultiPoly)]
    kinds = (tuple, MultiPoly, int, Parameters, cohomology._Arity)
    assert all(isinstance(x, kinds) and not callable(x) or _is_compiled(x) for x in before)
    for n, entry in enumerate(table, 1):
        for at in (p for row in entry.insertions for p in row):
            assert at.stored == tuple(lam(k) for k in range(1, n)) and _is_compiled(at.relabel)
            assert len(at.shifts) == n and all(map(_is_compiled, at.shifts))
    alg = virasoro()
    rep = with_nm(adjoint_rep(alg), PdModuleMap.scalar(1, 2))
    n_op = PdModuleMap.scalar(1, 3)
    for arity in range(1, MAX_ARITY + 3):
        unit = Cochain(arity, 1, 1, {(0,) * arity: (MultiPoly.const(1),)})
        coboundary_homL(unit, alg, rep)
        coboundary_HN(unit, alg, n_op, rep)
        assert not phi_map(unit, n_op, rep).is_zero
        check_cochain_compat(unit, alg, rep)
    assert cohomology._ARITIES is table
    after = _nodes(table)
    assert len(after) == len(before) and all(a is b for a, b in zip(after, before))
    assert [str(x) for x in after if isinstance(x, MultiPoly)] == values


def test_the_parameter_table_holds_each_slot_target_once():
    # equal slot targets are one polynomial with one compiled shift,
    # shared by every parameter of every arity that reads them; their
    # equality and values are those of parameters built alone
    table = cohomology._ARITIES
    params = [p for entry in table for row in entry.insertions for p in row]
    targets = [t for p in params for t in p.targets]
    assert len({id(t) for t in targets}) == len(set(targets)) < len(targets)
    held = {}
    for p in params:
        for t, shift in zip(p.targets, p.shifts):
            assert held.setdefault(t, (t, shift)) == (t, shift) and held[t][0] is t
    for p in params[::7]:
        alone = Parameters.of(p.polys, p.stored)
        assert alone == p and alone.targets == p.targets


def _held() -> list:
    """The kernel substitutions that the module constants hold, each once:
    those of structure's AT_* and of cohomology._ARITIES."""
    constants = (cohomology._ARITIES, structure.AT_X, structure.AT_L1, structure.AT_L2, structure.AT_L12, structure.AT_FLIP)
    kernels = {id(x.args[0]): x.args[0] for x in _nodes(constants) if _is_compiled(x) and x is not poly._unchanged}
    return list(kernels.values())


def _stored(kernels: list) -> list:
    """What each kernel substitution keeps: how many powers of its targets
    and how many images."""
    return [(len(powers), len(images)) for _, powers, images in (k.args for k in kernels)]


def test_the_held_substitutions_reach_a_steady_state(vir, cur2, twisted2, virm1_r2):
    """d, d_HN, phi, the compatibility check and the algebra and
    representation checks, run a second time on the same inputs, add no
    image and no power to any held substitution; nor do the public
    evaluation functions, whose parameters are built per call."""
    from homleib.structure import verify_hom_leibniz, verify_skew_symmetry

    fixtures = [(vir, PdModuleMap.scalar(1, 2)), (cur2, NIL), (twisted2, NIL), virm1_r2]

    def run():
        rng = random.Random(97)
        for alg, n_op in fixtures:
            rep = with_nm(adjoint_rep(alg), n_op)
            for arity in (1, 2, 3):
                f = random_cochain(alg.rank, rep.rank, arity, rng)
                coboundary_homL(f, alg, rep)
                coboundary_HN(f, alg, n_op, rep)
                phi_map(f, n_op, rep)
                check_cochain_compat(f, alg, rep)
            verify_hom_leibniz(alg)
            verify_skew_symmetry(alg)
            representation.verify_representation(alg, rep)
            verify_nijenhuis_representation(alg, n_op, rep)

    kernels = _held()
    assert len(kernels) > 100
    run()
    first = _stored(kernels)
    assert sum(images for _, images in first) > 0
    run()
    assert _stored(kernels) == first
    rng = random.Random(98)
    alg, n_op = virm1_r2
    rep = adjoint_rep(alg)
    p, q = d_element(rng), d_element(rng)
    for w in (L1, XF, L1 + MultiPoly.var(lam(2)), -L1 - MultiPoly.var(D)):
        eval_bracket(alg, p, q, w)
        eval_l(rep, p, q, w)
        eval_r(rep, p, q, w)
    for arity in (1, 2, 3):
        f = random_cochain(2, 2, arity, rng, max_deg=4)
        eval_cochain(f, [d_element(rng) for _ in range(arity)], [MultiPoly.var(lam(k)) for k in range(1, arity)])
    assert _stored(kernels) == first


def _fresh_constants(monkeypatch) -> None:
    """Freshly built constants in place of cohomology's, so that every
    substitution the coboundaries read starts empty."""
    monkeypatch.setattr(cohomology, "_ARITIES", cohomology._arities(1, MAX_ARITY + 1))
    monkeypatch.setattr(cohomology, "AT_X", Parameters.of((XF,), (X,)))


def test_threads_sharing_the_held_substitutions_get_the_single_thread_coboundaries(monkeypatch, request):
    """d, d_HN and phi on vir, cur2, twisted2 and virm1_r2, run from four
    threads at once while the held substitutions they share are still
    empty and filling, equal the same coboundaries run in one thread on
    other freshly built constants; in several rounds, each on fresh
    constants.  The threads also share one complex and its twisted view
    per case, built before they start, and call their d, d and phi
    (`coboundary_homL`, `coboundary_HN` and `phi_map` are these over a
    fresh complex)."""
    cases, rng = [], random.Random(101)
    for name in ("vir", "cur2", "twisted2", "virm1_r2"):
        alg, n_op = _with_operator(request, name)
        rep = with_nm(adjoint_rep(alg), n_op)
        cases.append((alg, n_op, rep, [random_cochain(alg.rank, rep.rank, arity, rng, max_deg=8) for arity in (1, 2)]))

    def run(complexes):
        return [
            _raw_table(g)
            for (alg, n_op, rep, fs), (plain, view) in zip(cases, complexes)
            for f in fs
            for g in (plain.d(f), view.d(f), view.phi(f))
        ]

    def fresh():
        _fresh_constants(monkeypatch)
        return [(plain := Complex(alg, rep), plain.twisted(n_op)) for alg, n_op, rep, _ in cases]

    expected = run(fresh())
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            complexes, results = fresh(), [None] * 4
            threads = [threading.Thread(target=lambda k=k: results.__setitem__(k, run(complexes))) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
                assert not t.is_alive()
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(old)


def test_d_above_the_parameter_table_equals_the_reference():
    # arity MAX_ARITY + 2 is above the table; rank 1, so one stored key
    alg, n = virasoro(), MAX_ARITY + 2
    assert n > len(cohomology._ARITIES)
    rep = adjoint_rep(alg)
    unit = Cochain(n, 1, 1, {(0,) * n: (MultiPoly.const(1),)})
    df = coboundary_homL(unit, alg, rep)
    assert not df.is_zero
    assert _raw_table(df) == _raw_table(reference_coboundary.coboundary_homL(unit, alg, rep))


def test_d_squares_to_zero_at_the_highest_arity():
    alg = virasoro()
    rep = adjoint_rep(alg)
    f = random_cochain(1, 1, MAX_ARITY, random.Random(17), max_deg=1)
    start = time.perf_counter()
    df = coboundary_homL(f, alg, rep)
    assert not df.is_zero and coboundary_homL(df, alg, rep).is_zero
    assert time.perf_counter() - start < 1.0
