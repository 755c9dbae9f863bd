"""Three-product conformal structures and the operators that induce them.

An NS structure carries three sesquilinear products (left, right, vee)
over one rank and twist; their sum is the adjacent bracket.  Nijenhuis
operators, Rota-Baxter operators and cocycle-twisted Rota-Baxter
operators each produce such a structure, and each construction's output
is checkable against the four compatibility identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import D, MultiPoly, Rat, LinearForm
from .report import Report, checked
from .structure import (
    XF,
    L1,
    L2,
    ConformalAlgebra,
    ConformalElement,
    DimensionError,
    PdModuleMap,
    _add_nonzero_entries,
    basis_element,
    eval_bracket,
    eval_table_bracket,
    normalize_table,
)
from .representation import Representation, eval_l, eval_r
from .operators import OperatorKind, PreconditionError, verify_operator
from .cohomology import Cochain, eval_cochain


@dataclass(frozen=True)
class NSAlgebra:
    rank: int
    basis_names: tuple[str, ...]
    left: dict  # p <| q
    right: dict  # p |> q
    vee: dict  # p v q
    alpha: PdModuleMap

    def __post_init__(self):
        if self.alpha.rows != self.rank or self.alpha.cols != self.rank:
            raise DimensionError("twist shape does not match rank")

    def basis(self, i: int) -> ConformalElement:
        return basis_element(self.rank, i)


def eval_left(ns: NSAlgebra, a, b, w):
    return eval_table_bracket(ns.left, ns.rank, a, b, w)


def eval_right(ns: NSAlgebra, a, b, w):
    return eval_table_bracket(ns.right, ns.rank, a, b, w)


def eval_vee(ns: NSAlgebra, a, b, w):
    return eval_table_bracket(ns.vee, ns.rank, a, b, w)


def eval_star(ns: NSAlgebra, a, b, w):
    return eval_left(ns, a, b, w) + eval_right(ns, a, b, w) + eval_vee(ns, a, b, w)


def verify_ns_axioms(ns: NSAlgebra, check_vee_skew: bool = False) -> Report:
    """The four compatibility identities plus twist multiplicativity.

    With both directed products zero the identities collapse to the
    twisted Leibniz identity of the vee product.  Skew-symmetry of vee is
    never part of the axioms; with check_vee_skew it is reported as an
    extra labelled check.
    """
    a = ns.alpha
    with checked("ns_axioms") as c:
        for name, ev in (("left", eval_left), ("right", eval_right), ("vee", eval_vee)):
            for i in range(ns.rank):
                for j in range(ns.rank):
                    p, q = ns.basis(i), ns.basis(j)
                    res = a.apply(ev(ns, p, q, XF)) - ev(ns, a.apply(p), a.apply(q), XF)
                    c.add_nonzero(("multiplicativity", name, i, j), res)
        for i in range(ns.rank):
            p = ns.basis(i)
            ap = a.apply(p)
            for j in range(ns.rank):
                q = ns.basis(j)
                aq = a.apply(q)
                for k in range(ns.rank):
                    r = ns.basis(k)
                    ar = a.apply(r)
                    res1 = (
                        eval_right(ns, ap, eval_star(ns, q, r, L2), L1)
                        - eval_right(ns, eval_right(ns, p, q, L1), ar, L1 + L2)
                        - eval_left(ns, aq, eval_right(ns, p, r, L1), L2)
                    )
                    c.add_nonzero(("right_star", i, j, k), res1)
                    res2 = (
                        eval_left(ns, ap, eval_right(ns, q, r, L2), L1)
                        - eval_right(ns, eval_left(ns, p, q, L1), ar, L1 + L2)
                        - eval_right(ns, aq, eval_star(ns, p, r, L1), L2)
                    )
                    c.add_nonzero(("left_right", i, j, k), res2)
                    res3 = (
                        eval_left(ns, ap, eval_left(ns, q, r, L2), L1)
                        - eval_left(ns, eval_star(ns, p, q, L1), ar, L1 + L2)
                        - eval_left(ns, aq, eval_left(ns, p, r, L1), L2)
                    )
                    c.add_nonzero(("left_left", i, j, k), res3)
                    res4 = (
                        eval_vee(ns, ap, eval_star(ns, q, r, L2), L1)
                        - eval_vee(ns, aq, eval_star(ns, p, r, L1), L2)
                        - eval_vee(ns, eval_star(ns, p, q, L1), ar, L1 + L2)
                        + eval_left(ns, ap, eval_vee(ns, q, r, L2), L1)
                        - eval_left(ns, aq, eval_vee(ns, p, r, L1), L2)
                        - eval_right(ns, eval_vee(ns, p, q, L1), ar, L1 + L2)
                    )
                    c.add_nonzero(("vee", i, j, k), res4)
        if check_vee_skew:
            minus = -L1 - LinearForm.variable(D)
            for i in range(ns.rank):
                for j in range(ns.rank):
                    res = eval_vee(ns, ns.basis(i), ns.basis(j), L1) + eval_vee(
                        ns, ns.basis(j), ns.basis(i), minus
                    )
                    c.add_nonzero(("vee_skew", i, j), res)
    return c.report


def adjacent_algebra(ns: NSAlgebra) -> ConformalAlgebra:
    """Sum of the three product tables, as a conformal algebra."""
    table = {}
    keys = set(ns.left) | set(ns.right) | set(ns.vee)
    zero_vec = (MultiPoly.zero(),) * ns.rank
    for key in keys:
        l = ns.left.get(key, zero_vec)
        r = ns.right.get(key, zero_vec)
        v = ns.vee.get(key, zero_vec)
        table[key] = tuple(a + b + c for a, b, c in zip(l, r, v))
    return ConformalAlgebra(
        ns.rank, ns.basis_names, normalize_table(table, ns.rank), ns.alpha
    )


def check_ns_morphism(ns: NSAlgebra, m: PdModuleMap) -> Report:
    """m must commute with all three products."""
    with checked("ns_morphism") as c:
        for name, table in (("left", ns.left), ("right", ns.right), ("vee", ns.vee)):
            for i in range(ns.rank):
                for j in range(ns.rank):
                    p, q = ns.basis(i), ns.basis(j)
                    res = m.apply(eval_table_bracket(table, ns.rank, p, q, XF))
                    res = res - eval_table_bracket(table, ns.rank, m.apply(p), m.apply(q), XF)
                    c.add_nonzero((name, i, j), res)
    return c.report


def twist_ns_by_morphism(ns: NSAlgebra, m: PdModuleMap, strict: bool = False) -> NSAlgebra:
    """Post-compose every product with m.

    The resulting structure satisfies the axioms whenever the input does
    and m commutes with the products; the morphism check is reported (or
    enforced with strict=True) but the construction itself is total.
    """
    if strict:
        pre = check_ns_morphism(ns, m)
        if not pre.passed:
            raise PreconditionError("map is not a morphism of the three products")

    def push(table):
        out = {}
        for key, vec in table.items():
            out[key] = m.apply(ConformalElement(tuple(vec))).coords
        return normalize_table(out, ns.rank)

    return NSAlgebra(
        ns.rank, ns.basis_names, push(ns.left), push(ns.right), push(ns.vee), ns.alpha
    )


def ns_from_nijenhuis(
    alg: ConformalAlgebra, n: PdModuleMap, strict: bool = False
) -> NSAlgebra:
    """p <| q = [n(p) q],  p |> q = [p n(q)],  p v q = -n[p q]."""
    if strict:
        pre = verify_operator(alg, n, OperatorKind.nijenhuis())
        if not pre.passed:
            raise PreconditionError("operator is not Nijenhuis")
    left, right, vee = {}, {}, {}
    for i in range(alg.rank):
        p = alg.basis(i)
        np_ = n.apply(p)
        for j in range(alg.rank):
            q = alg.basis(j)
            left[(i, j)] = eval_bracket(alg, np_, q, XF).coords
            right[(i, j)] = eval_bracket(alg, p, n.apply(q), XF).coords
            vee[(i, j)] = (-n.apply(eval_bracket(alg, p, q, XF))).coords
    return NSAlgebra(
        alg.rank,
        alg.basis_names,
        normalize_table(left, alg.rank),
        normalize_table(right, alg.rank),
        normalize_table(vee, alg.rank),
        alg.alpha,
    )


def ns_from_rb(
    alg: ConformalAlgebra, r_op: PdModuleMap, weight: Rat, strict: bool = False
) -> NSAlgebra:
    """p <| q = [r(p) q],  p |> q = [p r(q)],  p v q = weight [p q]."""
    weight = Fraction(weight)
    if strict:
        pre = verify_operator(alg, r_op, OperatorKind.rota_baxter(weight))
        if not pre.passed:
            raise PreconditionError("operator is not Rota-Baxter of this weight")
    left, right, vee = {}, {}, {}
    for i in range(alg.rank):
        p = alg.basis(i)
        rp = r_op.apply(p)
        for j in range(alg.rank):
            q = alg.basis(j)
            left[(i, j)] = eval_bracket(alg, rp, q, XF).coords
            right[(i, j)] = eval_bracket(alg, p, r_op.apply(q), XF).coords
            vee[(i, j)] = eval_bracket(alg, p, q, XF).scale(weight).coords
    return NSAlgebra(
        alg.rank,
        alg.basis_names,
        normalize_table(left, alg.rank),
        normalize_table(right, alg.rank),
        normalize_table(vee, alg.rank),
        alg.alpha,
    )


# ---------------------------------------------------------------------------
# cocycle-twisted Rota-Baxter operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistedRBData:
    alg: ConformalAlgebra
    rep: Representation
    t_map: PdModuleMap  # module -> algebra
    phi: Cochain  # arity 2, algebra args, module values

    def __post_init__(self):
        if self.rep.alg_rank != self.alg.rank:
            raise DimensionError("representation is over a different algebra")
        if self.t_map.rows != self.alg.rank or self.t_map.cols != self.rep.rank:
            raise DimensionError("t_map must send the module into the algebra")
        if self.phi.arity != 2 or self.phi.alg_rank != self.alg.rank or self.phi.rep_rank != self.rep.rank:
            raise DimensionError("phi must be an arity-2 cochain into the module")


def verify_twisted_rb(data: TwistedRBData) -> Report:
    """Three groups: the cocycle identity for phi (its sesquilinearity holds
    by construction of cochains), twist compatibility of the map, and the
    twisted operator identity on module basis pairs."""
    alg, rep, t, phi = data.alg, data.rep, data.t_map, data.phi
    a = alg.alpha
    with checked("twisted_rb") as c:
        for i in range(alg.rank):
            p = alg.basis(i)
            ap = a.apply(p)
            for j in range(alg.rank):
                q = alg.basis(j)
                aq = a.apply(q)
                for k in range(alg.rank):
                    r = alg.basis(k)
                    res = (
                        eval_l(rep, ap, eval_cochain(phi, [q, r], [L2]), L1)
                        - eval_l(rep, aq, eval_cochain(phi, [p, r], [L1]), L2)
                        - eval_r(rep, eval_cochain(phi, [p, q], [L1]), a.apply(r), L1 + L2)
                        + eval_cochain(phi, [ap, eval_bracket(alg, q, r, L2)], [L1])
                        - eval_cochain(phi, [aq, eval_bracket(alg, p, r, L1)], [L2])
                        - eval_cochain(phi, [eval_bracket(alg, p, q, L1), a.apply(r)], [L1 + L2])
                    )
                    c.add_nonzero(("phi_cocycle", i, j, k), res)
        _add_nonzero_entries(c, "twist_compat", a.compose(t) - t.compose(rep.beta))
        for i in range(rep.rank):
            m = rep.module_basis(i)
            tm = t.apply(m)
            for j in range(rep.rank):
                n_el = rep.module_basis(j)
                tn = t.apply(n_el)
                lhs = eval_bracket(alg, tm, tn, L1)
                rhs = t.apply(
                    eval_l(rep, tm, n_el, L1)
                    + eval_r(rep, m, tn, L1)
                    + eval_cochain(phi, [tm, tn], [L1])
                )
                c.add_nonzero(("operator_identity", i, j), lhs - rhs)
    return c.report


def verify_o_operator(
    alg: ConformalAlgebra, rep: Representation, t: PdModuleMap
) -> Report:
    """Relative operator identity without a twisting cocycle:

        [t(m) w t(n)] = t( l(t m) w n + r(m) w t(n) ),   t beta = alpha t.
    """
    if t.rows != alg.rank or t.cols != rep.rank:
        raise DimensionError("operator must send the module into the algebra")
    with checked("o_operator") as c:
        _add_nonzero_entries(c, "twist_compat", alg.alpha.compose(t) - t.compose(rep.beta))
        for i in range(rep.rank):
            m = rep.module_basis(i)
            tm = t.apply(m)
            for j in range(rep.rank):
                n_el = rep.module_basis(j)
                tn = t.apply(n_el)
                lhs = eval_bracket(alg, tm, tn, L1)
                rhs = t.apply(eval_l(rep, tm, n_el, L1) + eval_r(rep, m, tn, L1))
                c.add_nonzero((i, j), lhs - rhs)
    return c.report


def ns_from_twisted_rb(data: TwistedRBData, strict: bool = False) -> NSAlgebra:
    """NS structure on the module:

        m <| n = l(t m) n,   m |> n = r(m) t(n),   m v n = phi(t m, t n),

    with the module twist as the structure twist.
    """
    if strict:
        pre = verify_twisted_rb(data)
        if not pre.passed:
            raise PreconditionError("twisted Rota-Baxter identity fails")
    rep, t, phi = data.rep, data.t_map, data.phi
    left, right, vee = {}, {}, {}
    for i in range(rep.rank):
        m = rep.module_basis(i)
        tm = t.apply(m)
        for j in range(rep.rank):
            n_el = rep.module_basis(j)
            left[(i, j)] = eval_l(rep, tm, n_el, XF).coords
            right[(i, j)] = eval_r(rep, m, t.apply(n_el), XF).coords
            vee[(i, j)] = eval_cochain(phi, [tm, t.apply(n_el)], [XF]).coords
    return NSAlgebra(
        rep.rank,
        rep.basis_names,
        normalize_table(left, rep.rank),
        normalize_table(right, rep.rank),
        normalize_table(vee, rep.rank),
        rep.beta,
    )
