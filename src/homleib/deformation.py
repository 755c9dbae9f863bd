"""One-parameter formal deformations, truncated at a finite order.

A deformation stores the coefficient tables of the bracket power series
and the coefficient matrices of the operator power series; index 0 holds
the base data.  All verification is per order: the Leibniz identity and
the operator identity of the deformed pair turn into convolution sums
over indices summing to the order under inspection.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType

from .poly import MultiPoly, X, lam
from .report import Report, checked
from .structure import (
    AT_L1,
    AT_L12,
    AT_L2,
    AT_X,
    ConformalAlgebra,
    DimensionError,
    PdModuleMap,
    _applied,
    _basis_and_images,
    _deformed_products,
    _leibniz,
    _morphism,
    _residual,
    _table_at,
    check_table,
    normalize_table,
)
from .representation import adjoint_rep
from .cohomology import (
    HNLAPair,
    _add_nonzero_values,
    cochain_from_bracket_table,
    cochain_from_map,
    coboundary_HNLA,
)

# the bracket of every order past the stored ones
_NO_BRACKET = MappingProxyType({})


@dataclass(frozen=True)
class DeformationData:
    base: ConformalAlgebra
    brackets: tuple  # brackets[i] = bracket table of order i; brackets[0] = base
    operators: tuple  # operators[i] = matrix of order i; operators[0] = base operator

    def __post_init__(self):
        if not self.brackets or not self.operators:
            raise ValueError("a deformation needs at least the order-0 data")
        if normalize_table(dict(self.brackets[0]), self.base.rank) != self.base.structure:
            raise ValueError("order-0 bracket must be the base structure")
        for o, table in enumerate(self.brackets):
            check_table(f"order-{o} bracket", table, self.base.rank, self.base.rank, self.base.rank)
        for m in self.operators:
            if m.rows != self.base.rank or m.cols != self.base.rank:
                raise DimensionError("operator order has wrong shape")

    @property
    def order(self) -> int:
        return max(len(self.brackets), len(self.operators)) - 1

    @property
    def base_operator(self) -> PdModuleMap:
        return self.operators[0]

    def bracket_table(self, i: int):
        return self.brackets[i] if i < len(self.brackets) else _NO_BRACKET

    def operator(self, i: int) -> PdModuleMap:
        if i < len(self.operators):
            return self.operators[i]
        return PdModuleMap.zero(self.base.rank)


def make_deformation(
    base: ConformalAlgebra,
    base_operator: PdModuleMap,
    bracket_orders: dict[int, dict] | None = None,
    operator_orders: dict[int, PdModuleMap] | None = None,
    min_order: int = 0,
) -> DeformationData:
    """Assemble deformation data from per-order increments (order >= 1)."""
    bracket_orders = bracket_orders or {}
    operator_orders = operator_orders or {}
    top = max([min_order] + list(bracket_orders) + list(operator_orders))
    brackets = [dict(base.structure)]
    operators = [base_operator]
    for i in range(1, top + 1):
        brackets.append(normalize_table(bracket_orders.get(i, {}), base.rank))
        operators.append(operator_orders.get(i, PdModuleMap.zero(base.rank)))
    return DeformationData(base, tuple(brackets), tuple(operators))


def verify_deformation_order(data: DeformationData, n: int) -> Report:
    """The order-n coefficient equations of the deformed pair.

    Three groups of checks on basis tuples:

      multiplicativity : twist(p x q)_n = (twist p x twist q)_n and
                         twist commutes with the order-n operator
      leibniz          : the convolution over i+j=n of the twisted Leibniz
                         identity
      operator         : the convolution over i+j+k=n of the operator
                         identity (outer operator, inner operator, bracket)

    Order 0 reproduces the base axioms verbatim.  Each distinct bracket
    table is one evaluator at each of w1, w2 and w1+w2, and the
    basis-pair products of every order, at w1 and at w2, are built once
    per check.
    """
    if n < 0:
        raise ValueError(f"order {n} is negative")
    if n > data.order:
        raise ValueError(f"order {n} exceeds stored order {data.order}")
    alg = data.base
    rank, a = alg.rank, alg.alpha
    ops = [data.operator(o) for o in range(n + 1)]
    with checked(f"deformation_order_{n}") as c:
        c.add_nonzero(("multiplicativity", "operator_twist"), a.compose(ops[n]) - ops[n].compose(a))
        top = _table_at(data.bracket_table(n), rank, AT_X)
        _morphism(c, ("multiplicativity",), a, top, top)
        # the bracket of each order 0..n at w1, w2 and w1+w2
        evs = [tuple(_table_at(data.bracket_table(o), rank, w) for w in (AT_L1, AT_L2, AT_L12)) for o in range(n + 1)]
        basis, twisted = _basis_and_images(rank, a)
        at1 = [e1.basis_cells() for e1, _, _ in evs]
        at2 = [e2.basis_cells() for _, e2, _ in evs]
        # order n - o outside, order o inside
        _leibniz(c, ("leibniz",), twisted, [
            ((e1, a2), (e12, a1), (e2, a1)) for (e1, e2, e12), a1, a2 in zip(reversed(evs), at1, at2)
        ])
        images = [[op.apply(e) for e in basis] for op in ops]
        both, deformed = [], []
        for o1 in range(n + 1):
            for o2 in range(n + 1 - o1):
                o3 = n - o1 - o2
                both.append(evs[o1][0].cells(images[o2], images[o3]))
                inner = _deformed_products(evs[o3][0], (basis, images[o2]), (basis, images[o2]), ops[o2])
                deformed.append(_applied(ops[o1], inner))
        _residual(c, ("operator",), both, deformed)
    return c.report


def infinitesimal_pair(data: DeformationData) -> HNLAPair:
    """The order-1 coefficients viewed in the combined complex over the
    algebra acting on itself."""
    if data.order < 1:
        raise ValueError("deformation has no order-1 data")
    f = cochain_from_bracket_table(data.bracket_table(1), data.base.rank)
    g = cochain_from_map(data.operator(1))
    return HNLAPair(f, g)


def infinitesimal_cocycle_check(data: DeformationData) -> tuple[bool, Report]:
    """Whether the order-1 pair is killed by the combined coboundary."""
    alg = data.base
    rep = dataclasses.replace(adjoint_rep(alg), n_m=data.base_operator)
    pair = infinitesimal_pair(data)
    with checked("infinitesimal_cocycle") as c:
        _add_nonzero_values(c, coboundary_HNLA(pair, alg, data.base_operator, rep))
    return c.report.passed, c.report


def coboundary_of_map(
    alg: ConformalAlgebra, base_operator: PdModuleMap, psi: PdModuleMap
) -> HNLAPair:
    """d(psi, 0) in the combined complex: the pair whose upper part is the
    plain coboundary of psi and whose lower part is -phi(psi)."""
    rep = dataclasses.replace(adjoint_rep(alg), n_m=base_operator)
    return coboundary_HNLA(HNLAPair(cochain_from_map(psi), None), alg, base_operator, rep)


def perturb_by_pair(data: DeformationData, pair: HNLAPair) -> DeformationData:
    """Add a combined 2-pair to the order-1 coefficients of a deformation."""
    if pair.f.arity != 2 or pair.g is None or pair.g.arity != 1:
        raise DimensionError("expected a pair of arities (2, 1)")
    rank = data.base.rank
    if any((c.alg_rank, c.rep_rank) != (rank, rank) for c in (pair.f, pair.g)):
        raise DimensionError(f"expected a pair over rank {rank}, the deformation's")
    l1v = MultiPoly.var(X)
    bracket1 = dict(data.bracket_table(1))
    for key, vec in pair.f.table.items():
        cur = bracket1.get(key, (MultiPoly.zero(),) * rank)
        add = tuple(p.substitute(lam(1), l1v) for p in vec)
        bracket1[key] = tuple(a + b for a, b in zip(cur, add))
    delta_op = PdModuleMap(
        [
            [pair.g.value((j,))[i] for j in range(rank)]
            for i in range(rank)
        ]
    )
    op1 = data.operator(1) + delta_op
    brackets = list(data.brackets) + [{}] * max(0, 2 - len(data.brackets))
    operators = list(data.operators) + [PdModuleMap.zero(rank)] * max(
        0, 2 - len(data.operators)
    )
    brackets[1] = normalize_table(bracket1, rank)
    operators[1] = op1
    return DeformationData(data.base, tuple(brackets), tuple(operators))


def equivalence_order1_check(
    psi1: PdModuleMap, data_a: DeformationData, data_b: DeformationData
) -> Report:
    """Order-1 consequences of a formal isomorphism psi = id + t psi1.

    Checks, on basis pairs, the two printed order-1 relations

      psi1([p q]) + [p q]'_1 = [psi1 p, q] + [p, psi1 q] + [p q]_1
      psi1 . N' + N'_1        = N . psi1 + N_1

    (primes = data_b) and, independently, that the difference of the
    order-1 pairs equals the combined coboundary of (psi1, 0).
    """
    if data_a.base is not data_b.base and data_a.base != data_b.base:
        raise ValueError("the two deformations must share a base")
    alg = data_a.base
    rank = alg.rank
    if psi1.rows != rank or psi1.cols != rank:
        raise DimensionError("psi1 has the wrong shape")

    with checked("equivalence_order1") as c:
        # b1 - a1 - (a0 deformed by psi1)
        basis, images = _basis_and_images(rank, psi1)
        b1s, a1s = (_table_at(d.bracket_table(1), rank, AT_X).basis_cells() for d in (data_b, data_a))
        a0 = _table_at(data_a.bracket_table(0), rank, AT_X)
        deformed = _deformed_products(a0, (basis, images), (basis, images), psi1)
        _residual(c, ("bracket_relation",), [b1s], [a1s, deformed])
        op_res = (
            psi1.compose(data_b.base_operator)
            + data_b.operator(1)
            - data_a.base_operator.compose(psi1)
            - data_a.operator(1)
        )
        if not op_res.is_zero:
            c.add(("operator_relation",), str(op_res))
        diff_f = cochain_from_bracket_table(
            data_b.bracket_table(1), rank
        ) - cochain_from_bracket_table(data_a.bracket_table(1), rank)
        diff_g = cochain_from_map(data_b.operator(1)) - cochain_from_map(
            data_a.operator(1)
        )
        target = coboundary_of_map(alg, data_a.base_operator, psi1)
        residual = HNLAPair(diff_f - target.f, diff_g - target.g)
        _add_nonzero_values(c, residual, "cohomologous_")
    return c.report
