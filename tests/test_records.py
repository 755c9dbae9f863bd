"""Exact records of the basis-tuple checks on fixed inputs.

Most inputs fail, so each record carries its residuals.  The expected
records in pinned_records.json were captured from the implementation
that evaluated every product inside the innermost loop; the checks must
reproduce them byte for byte, whatever they hoist or reuse.  To re-pin
after an intended change of output, write `{name: record}` for the
cases below to that file.
"""

import dataclasses
import json
import os

import pytest

from homleib.cohomology import Cochain
from homleib.deformation import equivalence_order1_check, make_deformation, verify_deformation_order
from homleib.ns import (
    TwistedRBData,
    check_ns_morphism,
    ns_from_nijenhuis,
    ns_from_rb,
    ns_from_twisted_rb,
    verify_ns_axioms,
    verify_o_operator,
    verify_twisted_rb,
)
from homleib.operators import OperatorKind, check_morphism, deformed_bracket, verify_operator
from homleib.poly import parse_poly as P
from homleib.representation import (
    adjoint_rep,
    induced_representation,
    verify_nijenhuis_representation,
    verify_representation,
)
from homleib.structure import (
    ConformalAlgebra,
    PdModuleMap,
    current_algebra,
    verify_hom_leibniz,
    verify_multiplicativity,
    verify_skew_symmetry,
    virasoro,
)

PINNED = os.path.join(os.path.dirname(__file__), "pinned_records.json")


def M(rows):
    return PdModuleMap([[P(e) for e in row] for row in rows])


def rank2(c="2"):
    """The rank-1 algebra with a weight-1 module, Yau-twisted by the
    morphism L -> L + D M: [L L] = (D + c x)(L + D M), [L M] = (D + x) M,
    [M L] = x M.  A Hom-Leibniz algebra exactly when c = 2."""
    table = {
        (0, 0): (P(f"D + {c}*x"), P(f"D^2 + {c}*D*x")),
        (0, 1): (P("0"), P("D + x")),
        (1, 0): (P("0"), P("x")),
    }
    return ConformalAlgebra(2, ("L", "M"), table, M([["1", "0"], ["D", "1"]]))


def cases():
    alg, bad = rank2(), rank2("3")
    cur1 = current_algebra(1, {(0, 0): (1,)}, [[1]])  # e e = e: not Leibniz
    dop = M([["D + 1", "0"], ["0", "D + 1"]])
    nil = M([["0", "0"], ["1", "0"]])
    scale = PdModuleMap.scalar(2, 2)
    twist = M([["1", "0"], ["D", "1"]])
    rep = adjoint_rep(alg)
    bumped = dataclasses.replace(rep, beta=rep.beta + M([["1", "0"], ["0", "0"]]))
    nrep = dataclasses.replace(rep, n_m=M([["0", "1"], ["0", "0"]]))
    phi = Cochain(2, 2, 2, {
        (0, 0): (P("D + l1"), P("0")),
        (0, 1): (P("l1"), P("D*l1 - 1")),
        (1, 0): (P("0"), P("2*l1^2 - D")),
    })
    trb = TwistedRBData(alg, rep, twist, phi)
    d2 = make_deformation(
        virasoro(),
        PdModuleMap.scalar(1, 2),
        {1: {(0, 0): (P("2*D^2*x + 6*D*x^2 + 4*x^3"),)}, 2: {(0, 0): (P("D*x - x^2"),)}},
        {2: M([["D"]])},
    )
    d2b = make_deformation(
        alg,
        scale,
        {1: {(0, 1): (P("x"), P("D^2")), (1, 1): (P("1"), P("0"))}, 2: {(1, 0): (P("0"), P("D*x"))}},
        {1: nil},
    )
    da0 = make_deformation(alg, scale)  # order 0: the order-1 bracket is the empty table
    db1 = make_deformation(alg, scale, {1: {(0, 0): (P("D"), P("x"))}}, {1: nil})
    ns_bad = ns_from_nijenhuis(alg, dop)
    induced = dataclasses.replace(rep, n_m=dop)
    return {
        "hom_leibniz_cur_idempotent": lambda: verify_hom_leibniz(cur1),
        "hom_leibniz_rank2_defect": lambda: verify_hom_leibniz(bad),
        "hom_leibniz_rank2": lambda: verify_hom_leibniz(alg),
        "multiplicativity_rank2": lambda: verify_multiplicativity(alg),
        "skew_rank2": lambda: verify_skew_symmetry(alg),
        "representation_bumped_twist": lambda: verify_representation(alg, bumped),
        "representation_defect": lambda: verify_representation(bad, adjoint_rep(bad)),
        "nijenhuis_rep_nilpotent_module_op": lambda: verify_nijenhuis_representation(alg, nil, nrep),
        "induced_rep_over_deformed": lambda: verify_representation(
            deformed_bracket(alg, dop), induced_representation(alg, dop, induced)
        ),
        "operator_nijenhuis_dop": lambda: verify_operator(alg, dop, OperatorKind.nijenhuis()),
        "operator_rb_nil": lambda: verify_operator(alg, nil, OperatorKind.rota_baxter(1)),
        "operator_mrb_scale": lambda: verify_operator(alg, scale, OperatorKind.modified_rota_baxter(3)),
        "deformed_leibniz": lambda: verify_hom_leibniz(deformed_bracket(alg, dop)),
        "morphism_scale": lambda: check_morphism(scale, alg, alg),
        "morphism_operators": lambda: check_morphism(nil, alg, alg, n_src=dop, n_dst=nil),
        "ns_axioms_non_nijenhuis": lambda: verify_ns_axioms(ns_bad, check_vee_skew=True),
        "ns_axioms_rb": lambda: verify_ns_axioms(ns_from_rb(alg, nil, 1)),
        "ns_morphism_scale": lambda: check_ns_morphism(ns_bad, scale),
        "twisted_rb": lambda: verify_twisted_rb(trb),
        "ns_from_twisted_rb": lambda: verify_ns_axioms(ns_from_twisted_rb(trb)),
        "o_operator_twisted": lambda: verify_o_operator(alg, rep, twist),
        "deformation_order2_rank1": lambda: verify_deformation_order(d2, 2),
        "deformation_order2_rank2": lambda: verify_deformation_order(d2b, 2),
        "deformation_order1_rank2": lambda: verify_deformation_order(d2b, 1),
        "equivalence_order1_short_a": lambda: equivalence_order1_check(nil, da0, db1),
    }


with open(PINNED, encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


def test_every_case_is_pinned():
    assert sorted(cases()) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_record_is_byte_identical(name):
    assert cases()[name]().to_record() == EXPECTED[name]
