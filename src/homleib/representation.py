"""Representations: two-sided module actions with a module twist.

A representation stores left and right action tables independently,
mirroring the fact that neither determines the other.  Actions evaluate
by the same sesquilinearity rules as the bracket:

    l(f(D)p) at w on g(D)m   is  f(-w) g(D + w) l(p) m
    r(g(D)m) at w on f(D)p   is  g(-w) f(D + w) r(m) p

where the acting parameter may again be any linear form.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial

from .poly import LinearForm
from .report import Report, checked
from .structure import (
    XF,
    L1,
    L2,
    L12,
    ConformalAlgebra,
    ConformalElement,
    DimensionError,
    PdModuleMap,
    _basis_and_images,
    _deformed_products,
    _eval_table,
    _products,
    _table,
    basis_element,
    eval_bracket,
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
        if not self.basis_names:
            object.__setattr__(
                self, "basis_names", tuple(f"m{i+1}" for i in range(self.rank))
            )

    def module_basis(self, j: int) -> ConformalElement:
        return basis_element(self.rank, j)


def eval_l(
    rep: Representation, p: ConformalElement, m: ConformalElement, w: LinearForm
) -> ConformalElement:
    """Left action l(p) at parameter w applied to m."""
    if p.ambient_rank != rep.alg_rank or m.ambient_rank != rep.rank:
        raise DimensionError("left action rank mismatch")
    return _eval_table(rep.l_structure, rep.rank, p, m, w)


def eval_r(
    rep: Representation, m: ConformalElement, p: ConformalElement, w: LinearForm
) -> ConformalElement:
    """Right action r(m) at parameter w applied to p."""
    if p.ambient_rank != rep.alg_rank or m.ambient_rank != rep.rank:
        raise DimensionError("right action rank mismatch")
    return _eval_table(rep.r_structure, rep.rank, m, p, w)


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

    Basis-pair brackets and actions are built once per check, and the
    term l(a(p)) w2 (r(m) w1 q) that both r_bracket forms share once per
    triple.
    """
    if rep.alg_rank != alg.rank:
        raise DimensionError("representation is over a different algebra rank")
    b = rep.beta
    with checked("representation") as c:
        br, act_l, act_r = partial(eval_bracket, alg), partial(eval_l, rep), partial(eval_r, rep)
        basis, twisted = _basis_and_images(alg.rank, alg.alpha)
        mods, bmods = _basis_and_images(rep.rank, b)
        br1, br2 = _products(br, basis, basis, L1), _products(br, basis, basis, L2)
        l1, l2 = _products(act_l, basis, mods, L1), _products(act_l, basis, mods, L2)
        r1 = _products(act_r, mods, basis, L1)
        for i in range(alg.rank):
            for j in range(alg.rank):
                for k in range(rep.rank):
                    lhs = act_r(bmods[k], br2[i][j], L1)
                    shared = act_l(twisted[i], r1[k][j], L2)
                    via_r = act_r(r1[k][i], twisted[j], L12)
                    via_l = act_r(l2[i][k], twisted[j], L12)
                    c.add_nonzero(("r_bracket_a", i, j, k), lhs - (via_r + shared))
                    c.add_nonzero(("r_bracket_b", i, j, k), lhs - (shared - via_l))
                    lhs_ll = act_l(twisted[i], l2[j][k], L1)
                    rhs_ll = act_l(br1[i][j], bmods[k], L12) + act_l(twisted[j], l1[i][k], L2)
                    c.add_nonzero(("l_l", i, j, k), lhs_ll - rhs_ll)
                    # r is additive in its module argument
                    c.add_nonzero(("r_consistency", i, j, k), via_r + via_l)
        for i in range(alg.rank):
            for k in range(rep.rank):
                c.add_nonzero(("beta_l", i, k), b.apply(l1[i][k]) - act_l(twisted[i], bmods[k], L1))
                c.add_nonzero(("beta_r", i, k), b.apply(r1[k][i]) - act_r(bmods[k], twisted[i], L1))
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
    nm = rep.n_m
    with checked("nijenhuis_representation") as c:
        c.add_nonzero(("twist_commute",), rep.beta.compose(nm) - nm.compose(rep.beta))
        algs, mods = _basis_and_images(alg.rank, n), _basis_and_images(rep.rank, nm)
        l_inner = _deformed_products(rep.l_structure, rep.rank, algs, mods, nm, L1)
        r_inner = _deformed_products(rep.r_structure, rep.rank, mods, algs, nm, L1)
        for i, np_ in enumerate(algs[1]):
            for k, nmm in enumerate(mods[1]):
                c.add_nonzero(("l", i, k), eval_l(rep, np_, nmm, L1) - nm.apply(l_inner[i][k]))
                c.add_nonzero(("r", i, k), eval_r(rep, nmm, np_, L1) - nm.apply(r_inner[k][i]))
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
    l_structure = _table(_deformed_products(rep.l_structure, rep.rank, algs, mods, rep.n_m, XF))
    r_structure = _table(_deformed_products(rep.r_structure, rep.rank, mods, algs, rep.n_m, XF))
    return dataclasses.replace(rep, l_structure=l_structure, r_structure=r_structure)
