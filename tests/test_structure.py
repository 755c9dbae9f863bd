"""Bracket evaluation and algebra axiom checks.

Where a value is not pinned by hand, an independent sympy expansion of
the sesquilinearity rule serves as the oracle.
"""

import dataclasses
import importlib.util
import itertools
import pathlib
import random
import sys
import threading
from fractions import Fraction

import pytest
import sympy

import reference_evaluator
from helpers import dense
from homleib import cohomology, deformation, ns, operators, representation, structure
from homleib.cohomology import coboundary_homL, cochain_from_bracket_table, eval_cochain, random_cochain
from homleib.definitions import (
    build_algebra,
    build_deformation,
    build_finite,
    build_ns,
    build_representation,
    parse_definition,
)
from homleib.deformation import DeformationData, verify_deformation_order
from homleib.ns import ns_from_nijenhuis, verify_ns_axioms
from homleib.operators import OperatorKind, check_morphism, deformed_bracket, verify_operator
from homleib.poly import D, X, MultiPoly, lam, parse_poly, _unchanged
from homleib.report import checked
from homleib.representation import (
    Representation,
    adjoint_rep,
    eval_l,
    eval_r,
    induced_representation,
    verify_nijenhuis_representation,
    verify_representation,
)
from homleib.structure import (
    ConformalAlgebra,
    ConformalElement,
    DimensionError,
    L1,
    L2,
    XF,
    Parameters,
    PdModuleMap,
    basis_element,
    current_algebra,
    eval_bracket,
    eval_table_bracket,
    normalize_table,
    verify_hom_leibniz,
    verify_multiplicativity,
    verify_skew_symmetry,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFS = ROOT / "defs"
sD, sx, sl1, sl2 = sympy.symbols("D x l1 l2")
_SYM = {D: sD, X: sx, lam(1): sl1, lam(2): sl2}


def to_sympy(p: MultiPoly):
    terms = []
    for key, coeff in p.terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for v, e in key:
            term *= _SYM[v] ** e
        terms.append(term)
    return sympy.expand(sympy.Add(*terms))


def rand_dpoly(rng, deg=2):
    terms = {}
    for e in range(deg + 1):
        c = rng.randint(-3, 3)
        if c:
            terms[((D, e),) if e else ()] = Fraction(c)
    return MultiPoly(terms)


def test_virasoro_bracket_value(vir):
    out = eval_bracket(vir, vir.basis(0), vir.basis(0), L1)
    assert out.coords[0] == parse_poly("D + 2*l1")


def test_left_sesquilinearity_example(vir):
    left = vir.basis(0).scale(MultiPoly.var(D))
    out = eval_bracket(vir, left, vir.basis(0), L1)
    assert out.coords[0] == parse_poly("-l1 * (D + 2*l1)")


def test_right_sesquilinearity_example(vir):
    right = vir.basis(0).scale(MultiPoly.var(D))
    out = eval_bracket(vir, vir.basis(0), right, L1)
    assert out.coords[0] == parse_poly("(D + l1) * (D + 2*l1)")


def test_bracket_against_sympy_oracle(vir):
    # [f(D)L w g(D)L] = f(-w) g(D+w) (D + 2w) with w = l1
    rng = random.Random(5)
    for _ in range(25):
        f, g = rand_dpoly(rng), rand_dpoly(rng)
        out = eval_bracket(
            vir, vir.basis(0).scale(f), vir.basis(0).scale(g), L1
        ).coords[0]
        sf, sg = to_sympy(f), to_sympy(g)
        expected = sympy.expand(
            sf.subs(sD, -sl1) * sg.subs(sD, sD + sl1) * (sD + 2 * sl1)
        )
        assert sympy.expand(to_sympy(out) - expected) == 0


def test_arity3_cochain_against_sympy_oracle():
    # f(a1, a2, a3) at (w1, w2) is the sum over basis triples of
    # a1(-w1) a2(-w2) a3(D + w1 + w2) f[b1, b2, b3] at l1, l2 := w1, w2
    rng = random.Random(29)
    f = random_cochain(2, 2, 3, rng, 2)
    l1, l2 = MultiPoly.var(lam(1)), MultiPoly.var(lam(2))
    param_lists = [[l1, l2], [l2, l1], [l1 + l2, l2], [l2, l1 + l2], [l1 + l2, l1]]
    gens = (sD, sl1, sl2)
    stored = {key: [to_sympy(p) for p in vec] for key, vec in f.table.items()}
    for lams in param_lists:
        w1, w2 = (to_sympy(w) for w in lams)
        slot_d = [-w1, -w2, sD + w1 + w2]
        values = {
            key: [sympy.Poly(p.subs({sl1: w1, sl2: w2}, simultaneous=True), *gens) for p in vec]
            for key, vec in stored.items()
        }
        for _ in range(2):
            args = []
            while len(args) < 3:
                a = rand_element(rng, 2)
                if any(D in c.variables() for c in a.coords):
                    args.append(a)
            coords = [
                [sympy.Poly(to_sympy(c).subs(sD, d), *gens) for c in a.coords]
                for a, d in zip(args, slot_d)
            ]
            out = eval_cochain(f, args, lams)
            for k in range(2):
                expected = sympy.Poly(0, *gens)
                for (b1, b2, b3), vec in values.items():
                    expected += coords[0][b1] * coords[1][b2] * coords[2][b3] * vec[k]
                got = {
                    tuple(dict(key).get(v, 0) for v in (D, lam(1), lam(2))): sympy.Rational(c)
                    for key, c in out.coords[k].terms()
                }
                assert sympy.Poly.from_dict(got, *gens) == expected


def test_sesquilinearity_property_random(vir, cur2):
    rng = random.Random(13)
    for alg in (vir, cur2):
        for _ in range(10):
            g = rand_dpoly(rng)
            i = rng.randrange(alg.rank)
            j = rng.randrange(alg.rank)
            p, q = alg.basis(i), alg.basis(j)
            lhs = eval_bracket(alg, p.scale(g), q, L1)
            rhs = eval_bracket(alg, p, q, L1).scale(
                g.substitute(D, -MultiPoly.var(lam(1)))
            )
            assert (lhs - rhs).is_zero
            lhs2 = eval_bracket(alg, p, q.scale(g), L1)
            rhs2 = eval_bracket(alg, p, q, L1).scale(
                g.substitute(D, MultiPoly.var(D) + MultiPoly.var(lam(1)))
            )
            assert (lhs2 - rhs2).is_zero


def test_bracket_bilinearity(vir):
    a = vir.basis(0).scale(Fraction(2, 3))
    b = vir.basis(0).scale(Fraction(-1, 2))
    both = eval_bracket(vir, a + b, vir.basis(0), L1)
    split = eval_bracket(vir, a, vir.basis(0), L1) + eval_bracket(vir, b, vir.basis(0), L1)
    assert (both - split).is_zero
    both = eval_bracket(vir, vir.basis(0), a + b, L1)
    split = eval_bracket(vir, vir.basis(0), a, L1) + eval_bracket(vir, vir.basis(0), b, L1)
    assert (both - split).is_zero


def test_swapped_role_identity_on_lie_algebras(vir):
    # a bracket passing both the Leibniz identity and skew-symmetry also
    # satisfies the identity with the first two arguments exchanged
    from homleib.poly import lam as _lam

    L2_ = MultiPoly.var(_lam(2))
    a = vir.alpha
    for i in range(vir.rank):
        for j in range(vir.rank):
            for k in range(vir.rank):
                p, q, r = vir.basis(i), vir.basis(j), vir.basis(k)
                lhs = eval_bracket(vir, a.apply(q), eval_bracket(vir, p, r, L1), L2_)
                rhs = eval_bracket(
                    vir, eval_bracket(vir, q, p, L2_), a.apply(r), L1 + L2_
                ) + eval_bracket(vir, a.apply(p), eval_bracket(vir, q, r, L2_), L1)
                assert (lhs - rhs).is_zero


def test_apply_map_examples(vir):
    e = eval_bracket(vir, vir.basis(0), vir.basis(0), L1)
    assert (PdModuleMap.identity(1).apply(e) - e).is_zero
    d_map = PdModuleMap.scalar(1, MultiPoly.var(D))
    assert d_map.apply(vir.basis(0)).coords[0] == MultiPoly.var(D)
    assert PdModuleMap.zero(1).apply(e).is_zero


def test_apply_map_dimension_mismatch():
    with pytest.raises(DimensionError):
        PdModuleMap.identity(2).apply(basis_element(3, 0))


def test_map_entries_restricted_to_d():
    with pytest.raises(ValueError):
        PdModuleMap([[MultiPoly.var(X)]])


def _dense_compose(m: PdModuleMap, n: PdModuleMap) -> list:
    """m @ n as the former dense triple loop, zero entries included."""
    return [
        [sum((m.entries[i][k] * n.entries[k][j] for k in range(m.cols)), MultiPoly.zero()) for j in range(n.cols)]
        for i in range(m.rows)
    ]


def _sparse_dmatrix(rng, rows, cols):
    """A random matrix over polynomials in D, about half its entries zero."""
    return PdModuleMap([[rand_dpoly(rng, 1) if rng.random() < 0.5 else MultiPoly.zero() for _ in range(cols)] for _ in range(rows)])


def test_compose_equals_the_dense_product():
    # random D-matrices with zero entries, zero rows and columns among
    # them, of every shape up to 3 x 3 x 3, and the zero and identity
    # maps: the same entries, coefficient types included
    rng = random.Random(109)

    def raw(rows):
        return [[{m: (type(c), c) for m, c in p.raw().items()} for p in row] for row in rows]

    for rows, inner, cols in itertools.product((1, 2, 3), repeat=3):
        for _ in range(4):
            m, n = _sparse_dmatrix(rng, rows, inner), _sparse_dmatrix(rng, inner, cols)
            for left, right in ((m, n), (PdModuleMap.zero(rows, inner), n), (m, PdModuleMap.identity(inner))):
                assert raw(left.compose(right).entries) == raw(_dense_compose(left, right)), (rows, inner, cols)


def test_multiplicativity_identity_twist(vir):
    assert verify_multiplicativity(vir).passed


def test_multiplicativity_scaled_twist_fails(vir):
    alg = ConformalAlgebra(1, ("L",), vir.structure, PdModuleMap.scalar(1, 2))
    report = verify_multiplicativity(alg)
    assert not report.passed
    # twist(bracket) = 2(D+2x)L but [2L 2L] = 4(D+2x)L
    assert report.violations[0].residual == "[-2*D - 4*x]"


def test_multiplicativity_zero_bracket_any_twist():
    alg = ConformalAlgebra(2, ("a", "b"), {}, PdModuleMap.scalar(2, MultiPoly.var(D)))
    assert verify_multiplicativity(alg).passed


def test_hom_leibniz_virasoro(vir):
    assert verify_hom_leibniz(vir).passed


def test_hom_leibniz_zero_bracket():
    alg = ConformalAlgebra(2, ("a", "b"), {}, PdModuleMap.scalar(2, 3))
    assert verify_hom_leibniz(alg).passed


def test_hom_leibniz_constant_rank1_fails():
    # single product equal to the first generator: lhs gives one copy,
    # rhs two, so the residual on the only triple is -e1
    alg = ConformalAlgebra(1, ("e1",), {(0, 0): (MultiPoly.const(1),)}, PdModuleMap.identity(1))
    report = verify_hom_leibniz(alg)
    assert not report.passed
    assert report.violations[0].residual == "[-1]"


def test_skew_symmetry_virasoro(vir):
    assert verify_skew_symmetry(vir).passed


def test_skew_symmetry_leibniz_rank2_fails(cur2):
    report = verify_skew_symmetry(cur2)
    assert not report.passed
    assert report.violations[0].context == (1, 1)
    assert report.violations[0].residual == "[2, 0]"


def test_skew_symmetry_zero_bracket():
    alg = ConformalAlgebra(2, ("a", "b"), {}, PdModuleMap.identity(2))
    assert verify_skew_symmetry(alg).passed


def test_cur_two_dim_passes(cur2):
    assert verify_hom_leibniz(cur2).passed
    assert verify_multiplicativity(cur2).passed


def test_cur_abelian_zero_bracket():
    alg = current_algebra(3, {}, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert not alg.structure
    assert verify_hom_leibniz(alg).passed


def test_cur_one_dim_idempotent_fails():
    alg = current_algebra(1, {(0, 0): (1,)}, [[1]])
    assert not verify_hom_leibniz(alg).passed


def test_cur_respects_finite_identity_enumeration():
    # oracle: brute-force the finite-dimensional identity over all triples
    rank = 2
    constants = {(1, 1): (Fraction(1), Fraction(0))}

    def finite_bracket(i, j):
        return constants.get((i, j), (Fraction(0),) * rank)

    ok = True
    for p in range(rank):
        for q in range(rank):
            for r in range(rank):
                lhs = [Fraction(0)] * rank
                for k in range(rank):
                    inner = finite_bracket(q, r)
                    for m in range(rank):
                        if inner[m]:
                            for t in range(rank):
                                lhs[t] += finite_bracket(p, m)[t] * inner[m]
                rhs = [Fraction(0)] * rank
                for m in range(rank):
                    outer = finite_bracket(p, q)
                    if outer[m]:
                        for t in range(rank):
                            rhs[t] += finite_bracket(m, r)[t] * outer[m]
                    inner = finite_bracket(p, r)
                    if inner[m]:
                        for t in range(rank):
                            rhs[t] += finite_bracket(q, m)[t] * inner[m]
                if lhs != rhs:
                    ok = False
    assert ok  # the finite identity holds ...
    alg = current_algebra(rank, constants, [[1, 0], [0, 1]])
    assert verify_hom_leibniz(alg).passed  # ... so the lift passes


def test_rank_mismatch_raises(vir):
    with pytest.raises(DimensionError):
        eval_bracket(vir, basis_element(2, 0), vir.basis(0), L1)


# ---------------------------------------------------------------------------
# per-pair evaluation, inside checks and across threads
# ---------------------------------------------------------------------------


def rand_element(rng, rank):
    """A seeded element whose coordinates mention D and l1."""
    monomials = ((), ((D, 1),), ((D, 2),), ((lam(1), 1),), ((D, 1), (lam(1), 1)))
    coords = []
    for _ in range(rank):
        terms = {key: rng.randint(-2, 2) for key in monomials if rng.random() < 0.6}
        coords.append(MultiPoly(terms))
    return ConformalElement(tuple(coords))


def test_scoped_evaluation_matches_fresh_evaluation(vir, cur2, twisted2):
    minus = -L1 - MultiPoly.var(D)
    forms = [XF, L1, L2, L1 + L2, minus]
    # equal to `forms` entry by entry, built separately (and in another order)
    twins = [
        MultiPoly({((X, 1),): 1}),
        MultiPoly({((lam(1), 1),): 1}),
        MultiPoly({((lam(2), 1),): 1}),
        MultiPoly({((lam(2), 1),): 1, ((lam(1), 1),): 1}),
        MultiPoly({((lam(1), 1),): -1, ((D, 1),): -1}),
    ]
    d_dependent = ConformalAlgebra(
        2, ("a", "b"),
        {(0, 1): (parse_poly("D + x"), parse_poly("x^2")), (1, 1): (parse_poly("0"), parse_poly("2*D - x"))},
        PdModuleMap.identity(2),
    )
    rng = random.Random(29)
    for alg in (vir, cur2, twisted2, d_dependent):
        rep = adjoint_rep(alg)
        elements = [alg.basis(i) for i in range(alg.rank)]
        elements += [rand_element(rng, alg.rank) for _ in range(3)]
        pairs = [(a, b) for a in elements for b in elements]

        def values(ws):
            out = []
            for w in ws:
                for a, b in pairs:
                    out.append(eval_table_bracket(alg.structure, alg.rank, a, b, w))
                    out.append(eval_l(rep, a, b, w))
                    out.append(eval_r(rep, a, b, w))
            return out

        fresh = values(forms)
        with checked("scoped"):
            assert values(forms) == fresh
            assert values(twins) == fresh


def test_scope_is_dropped_when_a_check_returns_or_raises(cur2, monkeypatch):
    p, q = cur2.basis(1), cur2.basis(1)
    assert verify_hom_leibniz(cur2).passed
    with pytest.raises(RuntimeError):
        with checked("raises"):
            eval_bracket(cur2, p, q, L1)
            raise RuntimeError("inside the check")
    # a nested check and a coboundary inside an open check
    rep = adjoint_rep(cur2)
    f = random_cochain(2, 2, 2, random.Random(3))
    with checked("outer"):
        eval_bracket(cur2, p, q, L1)
        with checked("inner"):
            eval_bracket(cur2, p, q, L2)
        coboundary_homL(f, cur2, rep)

    def failing(*args):
        raise RuntimeError("inside the coboundary")

    # the coboundary builds its structure data's evaluators with
    # `_table_at`: a raise there reaches the caller, outside a check or
    # inside one
    monkeypatch.setattr(cohomology, "_table_at", failing)
    with pytest.raises(RuntimeError):
        coboundary_homL(f, cur2, rep)
    with pytest.raises(RuntimeError):
        with checked("outer"):
            coboundary_homL(f, cur2, rep)


def test_concurrent_checks_keep_their_own_scopes(vir, cur2, twisted2):
    # not a Leibniz algebra under its twist: its report carries violations
    other = current_algebra(2, {(0, 1): (1, 1), (1, 1): (0, 2)}, [[2, 0], [0, 1]])
    algs = [vir, cur2, twisted2, other]
    expected = [verify_representation(a, adjoint_rep(a)).to_record() for a in algs]
    results = [[] for _ in algs]

    def run(k):
        for _ in range(3):
            results[k].append(verify_representation(algs[k], adjoint_rep(algs[k])).to_record())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(algs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert not verify_representation(other, adjoint_rep(other)).passed
    assert results == [[e] * 3 for e in expected]


# ---------------------------------------------------------------------------
# per-argument slot memo, and one evaluator per table and parameter
# ---------------------------------------------------------------------------


def test_slot_memo_serves_no_dropped_argument(twisted2):
    # Arguments built and dropped one at a time, so that a new one gets
    # the id of a dropped one (the one-shot run shows that ids repeat);
    # one evaluator per (table, parameter), held across the run,
    # evaluates them all, with the bracket and both actions in both
    # slots, and each value must equal the one-shot one.  A memo keyed by
    # id alone, not holding its arguments, fails here.
    alg = ConformalAlgebra(
        2, ("a", "b"),
        {(0, 1): (parse_poly("D + x"), parse_poly("x^2")), (1, 1): (parse_poly("0"), parse_poly("2*D - x"))},
        twisted2.alpha,
    )
    rep = adjoint_rep(alg)
    forms = [XF, L1, L1 + L2, -L1 - MultiPoly.var(D)]
    fixed = [alg.basis(0), alg.alpha.apply(alg.basis(1))]

    tables = [alg.structure, rep.l_structure, rep.r_structure]

    def run(at):
        rng = random.Random(67)
        values, ids = [], []
        for _ in range(150):
            a = rand_element(rng, 2)
            b, w = rng.choice(fixed), rng.choice(forms)
            br, act_l, act_r = (at(table, w) for table in tables)
            values.append(tuple(str(v) for v in (br((a, b)), br((b, a)), act_l((a, b)), act_r((b, a)))))
            ids.append(id(a))
            del a
        return values, ids

    fresh, fresh_ids = run(lambda table, w: structure._table_at(table, 2, Parameters.of((w,))))
    assert len(set(fresh_ids)) < len(fresh_ids)
    held = {(id(table), w): structure._table_at(table, 2, Parameters.of((w,))) for table in tables for w in forms}
    reused, _ = run(lambda table, w: held[id(table), w])
    assert reused == fresh


@pytest.mark.parametrize("build", [
    "deformed_bracket", "induced_representation", "ns_from_nijenhuis",
    "verify_hom_leibniz", "verify_representation", "verify_nijenhuis_representation", "verify_operator",
    "verify_ns_axioms", "verify_deformation_order", "check_morphism",
])
def test_constructions_build_one_evaluator_per_table_and_parameter(monkeypatch, build):
    # each table a construction or check evaluates gets one evaluator per
    # parameter, not one per basis tuple, and no table is evaluated pair
    # by pair: with every per-pair route made to raise, the result stays
    alg = ConformalAlgebra(
        2, ("a", "b"),
        {(0, 1): (parse_poly("D + x"), parse_poly("x^2")), (1, 1): (parse_poly("1"), parse_poly("2*D - x"))},
        PdModuleMap.identity(2),
    )
    n = PdModuleMap([[parse_poly("D"), parse_poly("1")], [parse_poly("0"), parse_poly("2")]])
    rep = dataclasses.replace(adjoint_rep(alg), n_m=n)
    deformed, ns_alg = deformed_bracket(alg, n), ns_from_nijenhuis(alg, n)
    # orders 2 and 3 have no stored bracket
    deformation_data = DeformationData(alg, (alg.structure, {(1, 0): (parse_poly("x"), parse_poly("D"))}), (n, n, n, n))
    run = {
        "deformed_bracket": lambda: deformed_bracket(alg, n),
        "induced_representation": lambda: induced_representation(alg, n, rep),
        "ns_from_nijenhuis": lambda: ns_from_nijenhuis(alg, n),
        "verify_hom_leibniz": lambda: verify_hom_leibniz(alg).to_record(),
        "verify_representation": lambda: verify_representation(alg, rep).to_record(),
        "verify_nijenhuis_representation": lambda: verify_nijenhuis_representation(alg, n, rep).to_record(),
        "verify_operator": lambda: verify_operator(alg, n, OperatorKind.nijenhuis()).to_record(),
        "verify_ns_axioms": lambda: verify_ns_axioms(ns_alg, check_vee_skew=True).to_record(),
        "verify_deformation_order": lambda: verify_deformation_order(deformation_data, 3).to_record(),
        "check_morphism": lambda: check_morphism(n, deformed, alg, n_src=n, n_dst=n).to_record(),
    }[build]
    built, tables = [], []
    original = structure._evaluator

    def counting(table, stored, out_rank, lams, rank=None):
        tables.append(table)  # keeps each id unique while the test runs
        built.append((id(table), out_rank, lams.polys))
        return original(table, stored, out_rank, lams, rank)

    def failing(*args):
        raise AssertionError("a table evaluated pair by pair")

    expected = run()
    for module in (structure, representation, operators, ns, deformation, cohomology):
        for name in ("eval_bracket", "eval_table_bracket", "eval_l", "eval_r"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, failing)
    monkeypatch.setattr(structure, "_evaluator", counting)
    assert run() == expected
    # each order of a deformation gets its own evaluators, so the orders
    # past the stored ones each evaluate the one empty table
    held = [key for key, table in zip(built, tables) if table or build != "verify_deformation_order"]
    assert built and len(held) == len(set(held))


# ---------------------------------------------------------------------------
# the one evaluator against the former table evaluator
# ---------------------------------------------------------------------------


# L1 + L1 and L1 + 1 have the variables of L1 and other values: a scope
# keyed by anything less than the value would mix their evaluators up;
# the last is rational, so its slot shifts clear a denominator
FORMS = [XF, L1, L1 + L2, -L1 - MultiPoly.var(D), L1 + L1, L1 + MultiPoly.const(1),
         L1 * Fraction(1, 2) + MultiPoly.const(Fraction(1, 3))]


def _raw(e):
    """e's coordinates as term dicts, each coefficient with its stored type."""
    return tuple({m: (type(c), c) for m, c in p.raw().items()} for p in e.coords)


def _random_table(rng, rows, cols, out_rank):
    monomials = ((), ((D, 1),), ((X, 1),), ((D, 1), (X, 1)), ((X, 2),))
    table = {}
    for a in range(rows):
        for b in range(cols):
            if rng.random() < 0.7:
                table[a, b] = tuple(
                    MultiPoly({
                        m: Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                        for m in monomials
                        if rng.random() < 0.5
                    })
                    for _ in range(out_rank)
                )
    return structure.normalize_table(table, out_rank)


def test_table_evaluation_equals_former_evaluator():
    # brackets of rank 1-3 and actions on a module of another rank, on
    # D-dependent elements and a basis element, at each parameter form,
    # one evaluator per call and one held per (table, parameter): the
    # same term dicts, coefficient types included
    ref = reference_evaluator.eval_table
    rng = random.Random(71)
    for case in range(9):
        alg_rank, mod_rank = 1 + case % 3, 1 + (case + 1) % 3
        alg = ConformalAlgebra(
            alg_rank, tuple(f"e{i}" for i in range(alg_rank)),
            _random_table(rng, alg_rank, alg_rank, alg_rank), PdModuleMap.identity(alg_rank),
        )
        rep = Representation(
            alg_rank, mod_rank,
            _random_table(rng, alg_rank, mod_rank, mod_rank),
            _random_table(rng, mod_rank, alg_rank, mod_rank),
            PdModuleMap.identity(mod_rank),
        )
        ps = [rand_element(rng, alg_rank) for _ in range(3)] + [alg.basis(alg_rank - 1)]
        ms = [rand_element(rng, mod_rank) for _ in range(3)]

        def pairs(br, act_l, act_r):
            for w in FORMS:
                for p, q in itertools.product(ps, ps):
                    yield br(p, q, w), ref(alg.structure, alg_rank, p, q, w)
                for p, m in itertools.product(ps, ms):
                    yield act_l(p, m, w), ref(rep.l_structure, mod_rank, p, m, w)
                    yield act_r(m, p, w), ref(rep.r_structure, mod_rank, m, p, w)

        one_shot = (
            lambda p, q, w: eval_table_bracket(alg.structure, alg_rank, p, q, w),
            lambda p, m, w: eval_l(rep, p, m, w),
            lambda m, p, w: eval_r(rep, m, p, w),
        )
        tables = ((alg.structure, alg_rank), (rep.l_structure, mod_rank), (rep.r_structure, mod_rank))
        held = {(id(t), w): structure._table_at(t, r, Parameters.of((w,))) for t, r in tables for w in FORMS}
        shared = [lambda a, b, w, t=t: held[id(t), w]((a, b)) for t, _ in tables]
        for evaluators in (one_shot, shared):
            for got, expected in pairs(*evaluators):
                assert _raw(got) == _raw(expected), case


def _grid_arguments(rng, rank):
    """Arguments for a grid: the basis, its images under a matrix over D,
    D-dependent elements, one with a coordinate equal to 1 beside a
    D-dependent one, the zero element, and one object listed twice."""
    basis = [basis_element(rank, i) for i in range(rank)]
    m = PdModuleMap([[rand_dpoly(rng, 1) for _ in range(rank)] for _ in range(rank)])
    one_and_d = ConformalElement((MultiPoly.const(1),) + tuple(rand_dpoly(rng) for _ in range(rank - 1)))
    twice = rand_element(rng, rank)
    return basis + [m.apply(e) for e in basis] + [twice, one_and_d, structure.zero_element(rank), twice]


def test_grid_equals_per_pair_evaluation():
    # brackets, and actions on a module of another rank, some tables
    # empty, at each parameter form: every cell of the dense view read
    # off `batch` (`helpers.dense`) has the term dicts of its pair
    # evaluated alone and of the former evaluator, and `cells` holds the
    # nonzero ones with the same term dicts, on a fresh
    # evaluator and on one that later per-pair calls share
    ref = reference_evaluator.eval_table
    rng = random.Random(89)
    forms = [XF, L1, L1 + L2, -L1 - MultiPoly.var(D)]

    def raw_rows(rows):
        return [[_raw(v) for v in row] for row in rows]

    for case, (alg_rank, mod_rank) in enumerate([(1, 2), (2, 1), (2, 3), (3, 2), (2, 2)]):
        shapes = [(alg_rank, alg_rank, alg_rank), (alg_rank, mod_rank, mod_rank), (mod_rank, alg_rank, mod_rank)]
        for first_rank, second_rank, out_rank in shapes:
            table = {} if case == 3 else _random_table(rng, first_rank, second_rank, out_rank)
            firsts, seconds = _grid_arguments(rng, first_rank), _grid_arguments(rng, second_rank)
            for w in forms:
                alone = [[structure._table_at(table, out_rank, Parameters.of((w,)))((p, q)) for q in seconds] for p in firsts]
                former = [[ref(table, out_rank, p, q, w) for q in seconds] for p in firsts]
                assert raw_rows(alone) == raw_rows(former), (case, w)
                got = dense(structure._table_at(table, out_rank, Parameters.of((w,))), firsts, seconds, out_rank)
                assert raw_rows(got) == raw_rows(alone), (case, w)
                nonzero = {(i, j): _raw(v) for i, row in enumerate(alone) for j, v in enumerate(row) if not v.is_zero}
                cells = structure._table_at(table, out_rank, Parameters.of((w,))).cells(firsts, seconds)
                assert {key: _raw(v) for key, v in cells.items()} == nonzero, (case, w)
                shared = structure._table_at(table, out_rank, Parameters.of((w,)))
                got = dense(shared, firsts, seconds, out_rank)
                again = [[shared((p, q)) for q in seconds] for p in firsts]
                assert raw_rows(got) == raw_rows(again) == raw_rows(alone), (case, w)


def test_cells_are_the_nonzero_cells_of_the_grid():
    # on random tables and arguments, and on a pair whose two terms
    # cancel: the cells are the nonzero cells of the dense view read off
    # `batch` (`helpers.dense`), in row order
    rng = random.Random(101)
    for alg_rank, mod_rank in [(1, 2), (2, 3), (3, 2)]:
        table = _random_table(rng, alg_rank, mod_rank, mod_rank)
        firsts, seconds = _grid_arguments(rng, alg_rank), _grid_arguments(rng, mod_rank)
        for w in (XF, L1 + L2):
            ev = structure._table_at(table, mod_rank, Parameters.of((w,)))
            grid, cells = dense(ev, firsts, seconds, mod_rank), ev.cells(firsts, seconds)
            assert cells == {(i, j): v for i, row in enumerate(grid) for j, v in enumerate(row) if not v.is_zero}
            assert list(cells) == sorted(cells)
    one = MultiPoly.const(1)
    e0, e1 = basis_element(2, 0), basis_element(2, 1)
    ev = structure._table_at({(0, 0): (one,), (1, 0): (-one,)}, 1, Parameters.of((XF,)))
    assert dense(ev, [e0 + e1], [e0], 1)[0][0].is_zero
    assert ev.cells([e0 + e1, e0], [e0]) == {(1, 0): ConformalElement((one,))}


def _polydata():
    """perfbench/polydata.py, which builds its families without homleib,
    loaded from its file once (its dataclasses look their module up)."""
    if "polydata" not in sys.modules:
        spec = importlib.util.spec_from_file_location("polydata", ROOT / "perfbench" / "polydata.py")
        sys.modules["polydata"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["polydata"]


def _polys(table: dict, rank: int) -> dict:
    return normalize_table({key: tuple(MultiPoly(p) for p in vec) for key, vec in table.items()}, rank)


def _shipped_tables() -> list:
    """(label, table, first rank, second rank, out rank) for every table
    of every defs/*.def file: the brackets of its algebra or finite
    input, its representation's actions, its NS products and every order
    of its deformations; and for the bracket, its Leibniz defect and the
    conjugation orders of two draws of each perfbench/polydata.py
    family shape."""
    out = []
    for path in sorted(DEFS.glob("*.def")):
        file = parse_definition(path.read_text(encoding="utf-8"))
        name = path.stem
        algs = [build_algebra(file)] if file.all_of("algebra") else []
        algs += [current_algebra(*build_finite(file))] if file.all_of("finite") else []
        for alg in algs:
            r = alg.rank
            out.append((f"{name} bracket", alg.structure, r, r, r))
            if file.all_of("representation"):
                rep = build_representation(file, alg)
                out.append((f"{name} l", rep.l_structure, r, rep.rank, rep.rank))
                out.append((f"{name} r", rep.r_structure, rep.rank, r, rep.rank))
            for section in file.all_of("deformation"):
                data = build_deformation(file, alg, section.name)
                out += [(f"{name} {section.name} order {o}", data.bracket_table(o), r, r, r) for o in range(data.order + 1)]
        if file.all_of("ns"):
            algebra = build_ns(file)
            out += [(f"{name} {part}", getattr(algebra, part), algebra.rank, algebra.rank, algebra.rank) for part in ("left", "right", "vee")]
    pdt = _polydata()
    for shape in pdt.FAMILY_SHAPES:
        for draw in range(2):
            fam = pdt.make_family(shape, random.Random(f"readout/{shape}/{draw}"))
            r, label = fam.rank, f"{fam.label}/{draw}"
            tables = [fam.bracket, fam.with_leibniz_defect(3), *pdt.conjugation_orders(fam)]
            out += [(f"{label} table {t}", _polys(table, r), r, r, r) for t, table in enumerate(tables)]
    return out


AT_ALL = (structure.AT_X, structure.AT_L1, structure.AT_L2, structure.AT_L12, structure.AT_FLIP)


def test_the_read_out_at_the_basis_equals_the_cells_of_the_basis():
    # every shipped and generated table at every check parameter: the
    # read-out of its values on the basis holds the cells of the basis
    # lists (basis x basis, basis x module basis, module basis x basis),
    # cell for cell with the same term dicts and in the same key order,
    # on a fresh evaluator and on one whose entries `cells` has met
    tables = _shipped_tables()
    labels = {label.split()[0] for label, *_ in tables}
    assert {path.stem for path in DEFS.glob("*.def")} | {"trunc_r3/1", "trunc_r4/1", "virm1_r2/1", "virm1_r3/1", "virm1_r4/1"} <= labels
    for label, table, first_rank, second_rank, out_rank in tables:
        firsts = [basis_element(first_rank, i) for i in range(first_rank)]
        seconds = [basis_element(second_rank, j) for j in range(second_rank)]
        for at in AT_ALL:
            ev = structure._table_at(table, out_rank, at)
            read = ev.basis_cells()
            cells = ev.cells(firsts, seconds)
            assert list(read) == list(cells), (label, at.polys)
            assert [_raw(v) for v in read.values()] == [_raw(v) for v in cells.values()], (label, at.polys)
            assert ev.basis_cells() == read, (label, at.polys)
            assert list(structure._table_at(table, out_rank, at).basis_cells()) == list(read)


def test_the_read_out_of_a_cochain_is_its_batch_on_the_basis():
    # the read-out of a cochain's evaluator, at arities 1-3 and at its
    # outputs l1..l(n-1) and shuffled parameters, holds the nonzero
    # values of its batch over the basis in every slot, keyed by the
    # basis tuple in product order, with the same term dicts
    rng = random.Random(107)
    for arity in (1, 2, 3):
        for alg_rank, rep_rank in ((1, 1), (2, 3), (3, 2)):
            f = random_cochain(alg_rank, rep_rank, arity, rng)
            basis = [basis_element(alg_rank, i) for i in range(alg_rank)]
            lams = [MultiPoly.var(lam(k)) for k in range(1, arity)]
            for at in (cohomology._at_arity(arity).outputs, Parameters.of(lams[::-1]), Parameters.of([XF] * (arity - 1))):
                ev = cohomology._evaluator(f, at)
                values = ev.batch([basis] * arity)
                keys = itertools.product(range(alg_rank), repeat=arity)
                expected = {key: _raw(v) for key, v in zip(keys, values) if v is not None and not v.is_zero}
                read = ev.basis_cells()
                assert {key: _raw(v) for key, v in read.items()} == expected and list(read) == list(expected)


def test_coords_keeps_a_constant_coordinate_without_shifting_it():
    # a constant coordinate is its own value at every slot target: it
    # comes back as the same object (None for 1) and the shift is never
    # called for it; every other nonzero coordinate is shifted once
    shifted = []
    real = structure.AT_FLIP.shifts[0]

    def shift(p):
        shifted.append(p)
        return real(p)

    half, three, one = MultiPoly.const(Fraction(1, 2)), MultiPoly.const(3), MultiPoly.const(1)
    d_poly, l_poly = parse_poly("D + 1"), parse_poly("2*l1")
    zero = MultiPoly.zero()
    got = structure._coords(ConformalElement((half, zero, one, three)), shift, 4)
    assert got == [((0,), half), ((2,), None), ((3,), three)]
    assert got[0][1] is half and got[2][1] is three and shifted == []
    for b in range(3):
        assert structure._coords(basis_element(3, b), shift, None) == [((b,), None)]
    assert shifted == []
    got = structure._coords(ConformalElement((d_poly, one, l_poly)), shift, None)
    assert shifted == [d_poly, l_poly]
    assert got == [((0,), real(d_poly)), ((1,), None), ((2,), l_poly)] and got[2][1] is l_poly


def test_batch_equals_per_tuple_evaluation():
    # the batched form of a cochain's evaluator at arities 1-4, on
    # per-slot lists of basis, D-dependent, zero and repeated arguments,
    # at mixed parameter forms: the values come in product order, each
    # with the term dicts of the frozen per-tuple loop on its tuple (None
    # where the tuple meets no nonzero entry, which there is zero); the
    # evaluator applied to one tuple gives the same
    rng = random.Random(97)
    for arity in (1, 2, 3, 4):
        for rank in (1, 2):
            f = random_cochain(rank, 2, arity, rng, 1)
            lams = [rng.choice(FORMS) for _ in range(arity - 1)]
            args = _grid_arguments(rng, rank)
            slots = [rng.sample(args, 4 if arity <= 2 else 3) for _ in range(arity)]
            evaluate = cohomology._evaluator(f, Parameters.of(lams))
            got = evaluate.batch(slots)
            tuples = list(itertools.product(*slots))
            assert len(got) == len(tuples)
            stored = [lam(i) for i in range(1, arity)]
            alone = reference_evaluator.per_tuple_evaluator(f.table, stored, f.rep_rank, lams, f.alg_rank)
            for value, tup in zip(got, tuples):
                expected = alone(list(tup))
                assert _raw(expected if value is None else value) == _raw(expected), (arity, rank)
                assert value is not None or expected.is_zero
                assert _raw(evaluate(list(tup))) == _raw(expected), (arity, rank)


def test_a_table_is_the_arity2_cochain():
    rng = random.Random(73)
    for rank in (1, 2, 3):
        table = _random_table(rng, rank, rank, rank)
        f = cochain_from_bracket_table(table, rank)
        for w in FORMS:
            for _ in range(4):
                p, q = rand_element(rng, rank), rand_element(rng, rank)
                assert eval_cochain(f, [p, q], [w]) == eval_table_bracket(table, rank, p, q, w)


def test_an_evaluator_at_its_own_variables_compiles_no_relabel(monkeypatch):
    """A table at x and a cochain at l1..l(n-1) keep every stored
    variable, so their evaluators compile no relabel; an evaluator that
    moves some of them compiles one, of those only.  The slot shifts
    D -> target that `Parameters.of` compiles are not relabels.  The
    values do not change: a table at x on basis pairs and a cochain on
    basis tuples give the stored entries, and on other arguments the
    former evaluator's values (the sympy oracle above covers the cochain
    ones)."""
    compiled = []
    real = structure.substitution

    def counting(targets):
        # `substitution` drops the targets v -> v and compiles nothing
        # when none is left; a slot shift substitutes D alone
        relabel = real(targets)
        if relabel is not _unchanged and set(targets) != {D}:
            compiled.append({v: t for v, t in targets.items() if t != MultiPoly.var(v)})
        return relabel

    monkeypatch.setattr(structure, "substitution", counting)
    rng = random.Random(103)
    for rank in (1, 2, 3):
        table = _random_table(rng, rank, rank, rank)
        basis, args = [basis_element(rank, i) for i in range(rank)], _grid_arguments(rng, rank)
        at_x = structure._table_at(table, rank, Parameters.of((XF,)))
        on_basis, got = dense(at_x, basis, basis, rank), dense(at_x, args, args, rank)
        assert compiled == []
        for (i, j), vec in table.items():
            assert on_basis[i][j].coords == vec
        expected = [[reference_evaluator.eval_table(table, rank, p, q, XF) for q in args] for p in args]
        assert [[_raw(v) for v in row] for row in got] == [[_raw(v) for v in row] for row in expected]
    l1, l2 = MultiPoly.var(lam(1)), MultiPoly.var(lam(2))
    for arity in (1, 2, 3):
        f = random_cochain(2, 2, arity, rng)
        compiled.clear()
        evaluate = cohomology._evaluator(f, Parameters.of([l1, l2][: arity - 1]))
        for key in itertools.product(range(2), repeat=arity):
            assert evaluate([basis_element(2, t) for t in key]).coords == f.value(key)
        assert compiled == []
    cohomology._evaluator(f, Parameters.of([l1 + l2, l2]))
    assert compiled == [{lam(1): l1 + l2}]


# -- one table check for every structure that holds a table --------------------

_ONE = MultiPoly.const(1)
_ID1 = PdModuleMap.identity(1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ConformalAlgebra(1, ("L",), {(0, 1): (_ONE,)}, _ID1), DimensionError, "bad structure entry at (0, 1)"),
        (lambda: ConformalAlgebra(1, ("L",), {(0, 0): (_ONE, _ONE)}, _ID1), DimensionError, "bad structure entry at (0, 0)"),
        (
            lambda: ConformalAlgebra(1, ("L",), {(0, 0): (parse_poly("l1"),)}, _ID1),
            ValueError,
            "structure polynomial at (0, 0) uses a forbidden variable",
        ),
        # keys range over algebra x module for l and module x algebra for r
        (lambda: Representation(1, 1, {(5, 0): (_ONE,)}, {}, _ID1), DimensionError, "bad l_structure entry at (5, 0)"),
        (lambda: Representation(2, 1, {(0, 1): (_ONE,)}, {}, _ID1), DimensionError, "bad l_structure entry at (0, 1)"),
        (lambda: Representation(2, 1, {}, {(1, 0): (_ONE,)}, _ID1), DimensionError, "bad r_structure entry at (1, 0)"),
        (lambda: Representation(1, 1, {}, {(0, 0): (_ONE, _ONE)}, _ID1), DimensionError, "bad r_structure entry at (0, 0)"),
        (
            lambda: Representation(1, 1, {(0, 0): (parse_poly("l1"),)}, {}, _ID1),
            ValueError,
            "l_structure polynomial at (0, 0) uses a forbidden variable",
        ),
        (lambda: ns.NSAlgebra(1, ("a",), {(0, -1): (_ONE,)}, {}, {}, _ID1), DimensionError, "bad left entry at (0, -1)"),
        (lambda: ns.NSAlgebra(1, ("a",), {}, {(1, 0): (_ONE,)}, {}, _ID1), DimensionError, "bad right entry at (1, 0)"),
        (lambda: ns.NSAlgebra(1, ("a",), {}, {}, {(0, 0): (_ONE, _ONE)}, _ID1), DimensionError, "bad vee entry at (0, 0)"),
    ],
)
def test_every_table_is_checked_on_construction(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_in_range_tables_still_construct():
    rep = Representation(2, 1, {(1, 0): (_ONE,)}, {(0, 1): (parse_poly("D + x"),)}, _ID1)
    assert rep.l_structure and rep.r_structure
    assert ns.NSAlgebra(1, ("a",), {(0, 0): (_ONE,)}, {}, {(0, 0): (parse_poly("x"),)}, _ID1).vee


# ---------------------------------------------------------------------------
# reports against per-tuple residuals
# ---------------------------------------------------------------------------


def _residual_cases():
    """Seeded rank 2-3 algebras with D-dependent brackets and operators,
    a third of each kind: direct sums of scaled Virasoro copies with a
    constant diagonal operator (every check passes), the same with one
    random entry added to the bracket and a D-dependent operator (some
    tuples fail, others cancel), and sparse random tables with
    D-dependent twists (most tuples fail)."""
    rng = random.Random(113)
    for case in range(18):
        rank = 2 + case % 2
        vir_sum = {(i, i): tuple(MultiPoly({((D, 1),): c, ((X, 1),): 2 * c}) if k == i else MultiPoly.zero() for k in range(rank))
                   for i, c in enumerate(rng.choice((1, 2, -3)) for _ in range(rank))}
        diagonal = PdModuleMap([[MultiPoly.const(rng.randint(-2, 2)) if a == b else MultiPoly.zero() for b in range(rank)] for a in range(rank)])
        if case % 3 == 0:
            table, twist, op = vir_sum, PdModuleMap.identity(rank), diagonal
        elif case % 3 == 1:
            extra = _random_table(rng, rank, rank, rank)
            key = rng.choice(sorted(extra))
            table, twist, op = {**vir_sum, key: extra[key]}, PdModuleMap.identity(rank), _sparse_dmatrix(rng, rank, rank)
        else:
            table = {key: vec for key, vec in _random_table(rng, rank, rank, rank).items() if rng.random() < 0.5}
            twist, op = _sparse_dmatrix(rng, rank, rank), _sparse_dmatrix(rng, rank, rank)
        names = tuple(f"e{i}" for i in range(rank))
        yield ConformalAlgebra(rank, names, structure.normalize_table(table, rank), twist), op


def _per_tuple_residuals(alg: ConformalAlgebra, op: PdModuleMap) -> dict:
    """check -> {basis tuple: (left-hand side, right-hand side terms)},
    each bracket of an identity one `eval_table_bracket` call."""

    def br(p, q, w):
        return eval_table_bracket(alg.structure, alg.rank, p, q, w)

    e, a = [alg.basis(i) for i in range(alg.rank)], alg.alpha
    flip = -L1 - MultiPoly.var(D)
    out = {"hom_leibniz": {}, "skew_symmetry": {}, "multiplicativity": {}, "operator_nijenhuis": {}}
    for i, j, k in itertools.product(range(alg.rank), repeat=3):
        lhs = br(a.apply(e[i]), br(e[j], e[k], L2), L1)
        rhs = [br(br(e[i], e[j], L1), a.apply(e[k]), L1 + L2), br(a.apply(e[j]), br(e[i], e[k], L1), L2)]
        out["hom_leibniz"][i, j, k] = lhs, rhs
    for i, j in itertools.product(range(alg.rank), repeat=2):
        out["skew_symmetry"][i, j] = br(e[i], e[j], L1), [-br(e[j], e[i], flip)]
        out["multiplicativity"][i, j] = a.apply(br(e[i], e[j], XF)), [br(a.apply(e[i]), a.apply(e[j]), XF)]
        inner = br(op.apply(e[i]), e[j], L1) + br(e[i], op.apply(e[j]), L1) - op.apply(br(e[i], e[j], L1))
        out["operator_nijenhuis"][i, j] = br(op.apply(e[i]), op.apply(e[j]), L1), [op.apply(inner)]
    return out


def test_reports_are_the_nonzero_per_tuple_residuals():
    """Each check's violations are exactly the basis tuples whose
    residual lhs - rhs, recomputed one bracket at a time, is nonzero,
    with that residual's string; the Nijenhuis check also reports the
    nonzero entries of alpha N - N alpha.  The cases include tuples whose
    left-hand side is zero while a right-hand term is not, and tuples
    whose nonzero terms cancel."""
    checks = {
        "hom_leibniz": lambda alg, op: verify_hom_leibniz(alg),
        "skew_symmetry": lambda alg, op: verify_skew_symmetry(alg),
        "multiplicativity": lambda alg, op: verify_multiplicativity(alg),
        "operator_nijenhuis": lambda alg, op: verify_operator(alg, op, OperatorKind.nijenhuis()),
    }
    failed, reports = 0, 0
    only_right, cancelled = dict.fromkeys(checks, 0), dict.fromkeys(checks, 0)
    for alg, op in _residual_cases():
        for name, tuples in _per_tuple_residuals(alg, op).items():
            expected = {}
            for key, (lhs, rhs) in tuples.items():
                residual = lhs - sum(rhs[1:], rhs[0])
                if not residual.is_zero:
                    expected[key] = str(residual)
                only_right[name] += lhs.is_zero and not all(r.is_zero for r in rhs)
                cancelled[name] += not lhs.is_zero and residual.is_zero
            if name == "operator_nijenhuis":
                commute = [[p - q for p, q in zip(*rows)] for rows in zip(_dense_compose(alg.alpha, op), _dense_compose(op, alg.alpha))]
                expected.update({("twist_commute", i, j): str(p) for i, row in enumerate(commute) for j, p in enumerate(row) if not p.is_zero})
            report = checks[name](alg, op)
            got = [(v.context, v.residual) for v in report.violations]
            assert len(got) == len(dict(got)) and dict(got) == expected, name
            failed, reports = failed + (not report.passed), reports + 1
    assert all(only_right.values()) and all(cancelled.values()), (only_right, cancelled)
    assert 0.3 < failed / reports < 0.7, (failed, reports)
