"""The shared operator identities against the hand-expanded checks and
constructions they replaced (tests/reference_checks.py).

Inputs are seeded random data with no axiom required: D-dependent
twists and operators, independent left and right action tables, module
ranks other than the algebra's, NS products, deformations of order 1-2
and twisting cochains.  Most checks fail on them, so the comparison
covers residuals, not only passes.  Checks must give the same record,
constructions the same tables, coefficient types included.
"""

import random
from fractions import Fraction

import reference_checks as ref
from test_cohomology import _random_poly, _random_table, _random_twist

from homleib.cohomology import random_cochain
from homleib.deformation import (
    coboundary_of_map,
    equivalence_order1_check,
    make_deformation,
    verify_deformation_order,
)
from homleib.ns import (
    NSAlgebra,
    TwistedRBData,
    check_ns_morphism,
    ns_from_nijenhuis,
    ns_from_rb,
    ns_from_twisted_rb,
    verify_ns_axioms,
    verify_o_operator,
    verify_twisted_rb,
)
from homleib.operators import check_morphism, deformed_bracket
from homleib.poly import D
from homleib.representation import (
    Representation,
    induced_representation,
    verify_nijenhuis_representation,
)
from homleib.structure import (
    ConformalAlgebra,
    PdModuleMap,
    verify_hom_leibniz,
    verify_multiplicativity,
    verify_skew_symmetry,
)

CASES = 40


def _raw(table: dict) -> dict:
    """A table as term dicts, each coefficient with its stored type."""
    return {
        key: tuple({m: (type(c), c) for m, c in p.raw().items()} for p in vec)
        for key, vec in table.items()
    }


def _random_map(rng, rows, cols):
    """A random matrix over polynomials in D, zero now and then."""
    if rng.random() < 0.1:
        return PdModuleMap.zero(rows, cols)
    return PdModuleMap([[_random_poly(rng, (D,), max_deg=1, nterms=2) for _ in range(cols)] for _ in range(rows)])


def _case(seed: int) -> dict:
    rng = random.Random(seed)
    rank = 3 if seed % 16 == 3 else 1 if seed % 4 == 0 else 2
    mod_rank = rng.choice([r for r in (1, 2, 3) if r != rank] if seed % 2 else (rank,))
    density = 0.0 if seed % 11 == 5 else rng.choice((0.3, 0.7, 1.0))
    names = tuple(f"e{i}" for i in range(rank))

    def algebra():
        return ConformalAlgebra(rank, names, _random_table(rng, rank, rank, rank, density), _random_twist(rng, rank))

    alg, other = algebra(), algebra()
    n = _random_map(rng, rank, rank)
    rep = Representation(
        rank,
        mod_rank,
        _random_table(rng, rank, mod_rank, mod_rank, density),
        _random_table(rng, mod_rank, rank, mod_rank, rng.choice((0.0, 0.5, 1.0))),
        _random_twist(rng, mod_rank),
        n_m=_random_map(rng, mod_rank, mod_rank),
    )
    # the NS identities sum products of products: above rank 1 they are
    # the slowest check here, so a quarter of the cases take rank 2
    ns_rank = 2 if seed % 4 == 1 else 1
    ns = NSAlgebra(
        ns_rank,
        names[:ns_rank],
        *(_random_table(rng, ns_rank, ns_rank, ns_rank, density) for _ in range(3)),
        _random_twist(rng, ns_rank),
    )
    phi = random_cochain(rank, mod_rank, 2, rng, max_deg=rng.choice((1, 2)))
    top = 2 if seed % 4 == 2 else 1

    def deformation():
        brackets = {o: _random_table(rng, rank, rank, rank, rng.choice((0.0, 0.5))) for o in range(1, top + 1)}
        return make_deformation(alg, n, brackets, {o: _random_map(rng, rank, rank) for o in range(1, top + 1)})

    return {
        "seed": seed,
        "alg": alg,
        "other": other,
        "n": n,
        "f": _random_map(rng, rank, rank),
        "rep": rep,
        "ns": ns,
        "m": _random_map(rng, ns_rank, ns_rank),
        "trb": TwistedRBData(alg, rep, _random_map(rng, rank, mod_rank), phi),
        "weight": Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
        "a": deformation(),
        "b": deformation(),
        "psi": _random_map(rng, rank, rank),
    }


def _check_pairs(x: dict):
    """(label, library report, reference report) for every rewritten check."""
    alg, n, f = x["alg"], x["n"], x["f"]
    yield "multiplicativity", verify_multiplicativity(alg), ref.verify_multiplicativity(alg)
    yield "hom_leibniz", verify_hom_leibniz(alg), ref.verify_hom_leibniz(alg)
    yield "skew", verify_skew_symmetry(alg), ref.verify_skew_symmetry(alg)
    yield "morphism", check_morphism(f, alg, x["other"]), ref.check_morphism(f, alg, x["other"])
    yield (
        "morphism_ops",
        check_morphism(f, alg, x["other"], n, n.scale(2)),
        ref.check_morphism(f, alg, x["other"], n, n.scale(2)),
    )
    yield (
        "nijrep",
        verify_nijenhuis_representation(alg, n, x["rep"]),
        ref.verify_nijenhuis_representation(alg, n, x["rep"]),
    )
    skew = x["seed"] % 3 != 0
    yield "ns_axioms", verify_ns_axioms(x["ns"], skew), ref.verify_ns_axioms(x["ns"], skew)
    yield "ns_morphism", check_ns_morphism(x["ns"], x["m"]), ref.check_ns_morphism(x["ns"], x["m"])
    yield "twisted_rb", verify_twisted_rb(x["trb"]), ref.verify_twisted_rb(x["trb"])
    t = x["trb"].t_map
    yield "o_operator", verify_o_operator(alg, x["rep"], t), ref.verify_o_operator(alg, x["rep"], t)
    for order in range(x["a"].order + 1):
        yield "deformation", verify_deformation_order(x["a"], order), ref.verify_deformation_order(x["a"], order)
    yield (
        "equivalence",
        equivalence_order1_check(x["psi"], x["a"], x["b"]),
        ref.equivalence_order1_check(x["psi"], x["a"], x["b"]),
    )


def test_checks_equal_hand_expanded_reference():
    failing = set()
    for seed in range(CASES):
        for label, got, want in _check_pairs(_case(seed)):
            assert got.to_record() == want.to_record(), (seed, label)
            if not want.passed:
                failing.add(label)
    # the random data must reach the residuals of every rewritten check
    assert failing == {label for label, _, _ in _check_pairs(_case(1))}


def test_constructions_equal_hand_expanded_reference():
    for seed in range(CASES):
        x = _case(seed)
        alg, n, rep = x["alg"], x["n"], x["rep"]
        assert _raw(deformed_bracket(alg, n).structure) == _raw(ref.deformed_bracket(alg, n).structure), seed
        got, want = induced_representation(alg, n, rep), ref.induced_representation(alg, n, rep)
        assert _raw(got.l_structure) == _raw(want.l_structure), seed
        assert _raw(got.r_structure) == _raw(want.r_structure), seed
        for got, want in (
            (ns_from_nijenhuis(alg, n), ref.ns_from_nijenhuis(alg, n)),
            (ns_from_rb(alg, n, x["weight"]), ref.ns_from_rb(alg, n, x["weight"])),
            (ns_from_twisted_rb(x["trb"]), ref.ns_from_twisted_rb(x["trb"])),
        ):
            assert (got.rank, got.basis_names, got.alpha) == (want.rank, want.basis_names, want.alpha)
            for name in ("left", "right", "vee"):
                assert _raw(getattr(got, name)) == _raw(getattr(want, name)), (seed, name)
        got, want = coboundary_of_map(alg, n, x["psi"]), ref.coboundary_of_map(alg, n, x["psi"])
        assert (_raw(got.f.table), _raw(got.g.table)) == (_raw(want.f.table), _raw(want.g.table)), seed
