"""Representations: two-sided module actions with a module twist.

A representation stores left and right action tables independently,
mirroring the fact that neither determines the other.  Actions evaluate
by the same sesquilinearity rules as the bracket:

    l(f(D)p) at w on g(D)m   is  f(-w) g(D + w) l(p) m
    r(g(D)m) at w on f(D)p   is  g(-w) f(D + w) r(m) p

where the acting parameter w may again be any polynomial, linear in
practice.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .poly import MultiPoly
from .report import Report, checked
from .structure import (
    AT_L1,
    AT_L12,
    AT_L2,
    AT_X,
    ConformalAlgebra,
    ConformalElement,
    DimensionError,
    Parameters,
    PdModuleMap,
    _applied,
    _basis_and_images,
    _by_cells,
    _cells_by,
    _deformed_products,
    _rekeyed,
    _residual,
    _table,
    _table_at,
    basis_element,
    check_table,
)
from .operators import OperatorKind, PreconditionError, verify_operator


@dataclass(frozen=True)
class Representation:
    alg_rank: int
    rank: int
    l_structure: dict  # (algebra index, module index) -> module vector in D, x
    r_structure: dict  # (module index, algebra index) -> module vector in D, x
    beta: PdModuleMap
    n_m: PdModuleMap | None = None
    basis_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.beta.rows != self.rank or self.beta.cols != self.rank:
            raise DimensionError("module twist shape does not match module rank")
        if self.n_m is not None and (self.n_m.rows != self.rank or self.n_m.cols != self.rank):
            raise DimensionError("module operator shape does not match module rank")
        check_table("l_structure", self.l_structure, self.alg_rank, self.rank, self.rank)
        check_table("r_structure", self.r_structure, self.rank, self.alg_rank, self.rank)
        if not self.basis_names:
            object.__setattr__(
                self, "basis_names", tuple(f"m{i+1}" for i in range(self.rank))
            )
        if len(self.basis_names) != self.rank:
            raise DimensionError("module basis names do not match module rank")

    def module_basis(self, j: int) -> ConformalElement:
        return basis_element(self.rank, j)


def eval_l(
    rep: Representation, p: ConformalElement, m: ConformalElement, w: MultiPoly
) -> ConformalElement:
    """Left action l(p) at parameter w applied to m."""
    if p.ambient_rank != rep.alg_rank or m.ambient_rank != rep.rank:
        raise DimensionError("left action rank mismatch")
    return _table_at(rep.l_structure, rep.rank, Parameters.of((w,)))((p, m))


def eval_r(
    rep: Representation, m: ConformalElement, p: ConformalElement, w: MultiPoly
) -> ConformalElement:
    """Right action r(m) at parameter w applied to p."""
    if p.ambient_rank != rep.alg_rank or m.ambient_rank != rep.rank:
        raise DimensionError("right action rank mismatch")
    return _table_at(rep.r_structure, rep.rank, Parameters.of((w,)))((m, p))


def adjoint_rep(alg: ConformalAlgebra) -> Representation:
    """The algebra acting on itself: left action from the bracket, right
    action from the bracket with arguments swapped, module twist = twist."""
    l_structure = dict(alg.structure)
    r_structure = dict(alg.structure)
    return Representation(
        alg_rank=alg.rank,
        rank=alg.rank,
        l_structure=l_structure,
        r_structure=r_structure,
        beta=alg.alpha,
        basis_names=alg.basis_names,
    )


def verify_representation(alg: ConformalAlgebra, rep: Representation) -> Report:
    """The compatibility axioms of a two-sided module, on basis tuples.

    Sesquilinearity in all four slots holds by construction of the
    evaluators and is not re-derived here; the five substantive
    conditions are labelled:

      r_bracket_a : r(b(m)) w1 [p w2 q] = r(r(m) w1 p) w1+w2 a(q) + l(a(p)) w2 (r(m) w1 q)
      r_bracket_b : r(b(m)) w1 [p w2 q] = -r(l(p) w2 m) w1+w2 a(q) + l(a(p)) w2 (r(m) w1 q)
      l_l         : l(a(p)) w1 (l(q) w2 m) = l([p w1 q]) w1+w2 b(m) + l(a(q)) w2 (l(p) w1 m)
      beta_l      : b(l(p) w1 m) = l(a(p)) w1 b(m)
      beta_r      : b(r(m) w1 p) = r(b(m)) w1 a(p)

    plus the consequence of the two r_bracket forms:

      r_consistency : r(r(m) w1 p + l(p) w2 m) w1+w2 a(q) = 0

    The bracket and both actions are one evaluator per parameter, each
    evaluated as cells, nonzero values only; the basis-pair brackets and
    actions are built once per check, and so is the term
    l(a(p)) w2 (r(m) w1 q) that both r_bracket forms share.  Each
    condition is one signed sum of cells (`structure._residual`).
    """
    if rep.alg_rank != alg.rank:
        raise DimensionError("representation is over a different algebra rank")
    b = rep.beta
    with checked("representation") as c:
        br1, br2 = (_table_at(alg.structure, alg.rank, w) for w in (AT_L1, AT_L2))
        l1, l2, l12 = (_table_at(rep.l_structure, rep.rank, w) for w in (AT_L1, AT_L2, AT_L12))
        r1, r12 = (_table_at(rep.r_structure, rep.rank, w) for w in (AT_L1, AT_L12))
        _, twisted = _basis_and_images(alg.rank, alg.alpha)
        _, bmods = _basis_and_images(rep.rank, b)
        brs1, brs2 = br1.basis_cells(), br2.basis_cells()
        ls1, ls2 = l1.basis_cells(), l2.basis_cells()
        rs1 = r1.basis_cells()
        # three-index cells (`_by_cells`, `_cells_by`), re-keyed to (i, j, k)
        # for p, q, m = e_i, e_j, m_k
        lhs = _rekeyed(_by_cells(r1, bmods, brs2), (1, 2, 0))
        shared = _rekeyed(_by_cells(l2, twisted, rs1), (0, 2, 1))
        via_r = _rekeyed(_cells_by(r12, rs1, twisted), (1, 2, 0))
        via_l = _rekeyed(_cells_by(r12, ls2, twisted), (0, 2, 1))
        _residual(c, ("r_bracket_a",), [lhs], [via_r, shared])
        _residual(c, ("r_bracket_b",), [lhs, via_l], [shared])
        second_ll = _rekeyed(_by_cells(l2, twisted, ls1), (1, 0, 2))
        _residual(c, ("l_l",), [_by_cells(l1, twisted, ls2)], [_cells_by(l12, brs1, bmods), second_ll])
        # r is additive in its module argument
        _residual(c, ("r_consistency",), [via_r, via_l])
        _residual(c, ("beta_l",), [_applied(b, ls1)], [l1.cells(twisted, bmods)])
        _residual(c, ("beta_r",), [_rekeyed(_applied(b, rs1), (1, 0))], [_rekeyed(r1.cells(bmods, twisted), (1, 0))])
    return c.report


def verify_nijenhuis_representation(
    alg: ConformalAlgebra, n: PdModuleMap, rep: Representation
) -> Report:
    """Compatibility of a module operator with an algebra operator.

    Requires rep.n_m.  Checks, on basis pairs:

      l(n(p)) w nm(m) = nm( l(n(p)) w m + l(p) w nm(m) - nm(l(p) w m) )
      r(nm(m)) w n(p) = nm( r(nm(m)) w p + r(m) w n(p) - nm(r(m) w p) )

    together with twist commutation b nm = nm b.
    """
    if rep.n_m is None:
        raise ValueError("representation carries no module operator")
    if rep.alg_rank != alg.rank or (n.rows, n.cols) != (alg.rank, alg.rank):
        raise DimensionError("operator or representation does not match the algebra rank")
    nm = rep.n_m
    with checked("nijenhuis_representation") as c:
        c.add_nonzero(("twist_commute",), rep.beta.compose(nm) - nm.compose(rep.beta))
        algs, mods = _basis_and_images(alg.rank, n), _basis_and_images(rep.rank, nm)
        act_l, act_r = _table_at(rep.l_structure, rep.rank, AT_L1), _table_at(rep.r_structure, rep.rank, AT_L1)
        l_inner = _deformed_products(act_l, algs, mods, nm)
        r_inner = _deformed_products(act_r, mods, algs, nm)
        _residual(c, ("l",), [act_l.cells(algs[1], mods[1])], [_applied(nm, l_inner)])
        _residual(c, ("r",), [_rekeyed(act_r.cells(mods[1], algs[1]), (1, 0))], [_rekeyed(_applied(nm, r_inner), (1, 0))])
    return c.report


def induced_representation(
    alg: ConformalAlgebra, n: PdModuleMap, rep: Representation, strict: bool = False
) -> Representation:
    """Actions twisted by the operator pair, giving a module over the
    deformed algebra:

      l'(p) m = l(n(p)) m + l(p) nm(m) - nm(l(p) m)
      r'(m) p = r(nm(m)) p + r(m) n(p) - nm(r(m) p)
    """
    if rep.n_m is None:
        raise ValueError("representation carries no module operator")
    if rep.alg_rank != alg.rank or (n.rows, n.cols) != (alg.rank, alg.rank):
        raise DimensionError("operator or representation does not match the algebra rank")
    if strict:
        for pre in (
            verify_operator(alg, n, OperatorKind.nijenhuis()),
            verify_nijenhuis_representation(alg, n, rep),
        ):
            if not pre.passed:
                raise PreconditionError(f"{pre.check_name} fails")
    algs, mods = _basis_and_images(alg.rank, n), _basis_and_images(rep.rank, rep.n_m)
    act_l, act_r = _table_at(rep.l_structure, rep.rank, AT_X), _table_at(rep.r_structure, rep.rank, AT_X)
    l_structure = _table(_deformed_products(act_l, algs, mods, rep.n_m))
    r_structure = _table(_deformed_products(act_r, mods, algs, rep.n_m))
    return dataclasses.replace(rep, l_structure=l_structure, r_structure=r_structure)
