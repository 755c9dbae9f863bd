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

from .poly import MultiPoly, Rat
from .report import Report, checked
from .structure import (
    AT_FLIP,
    AT_L1,
    AT_L12,
    AT_L2,
    AT_X,
    ConformalAlgebra,
    ConformalElement,
    DimensionError,
    PdModuleMap,
    _basis_and_images,
    _leibniz,
    _morphism,
    _relative_operator,
    _signed_sum,
    _skew,
    _table,
    _table_at,
    basis_element,
    check_table,
    normalize_table,
)
from .representation import Representation
from .operators import OperatorKind, PreconditionError, _check_square, verify_operator
from .cohomology import Cochain, _add_nonzero_values, _evaluator, coboundary_homL


@dataclass(frozen=True)
class NSAlgebra:
    rank: int
    basis_names: tuple[str, ...]
    left: dict  # p <| q
    right: dict  # p |> q
    vee: dict  # p v q
    alpha: PdModuleMap

    def __post_init__(self):
        if len(self.basis_names) != self.rank:
            raise DimensionError("basis names do not match rank")
        if self.alpha.rows != self.rank or self.alpha.cols != self.rank:
            raise DimensionError("twist shape does not match rank")
        for name in ("left", "right", "vee"):
            check_table(name, getattr(self, name), self.rank, self.rank, self.rank)

    def basis(self, i: int) -> ConformalElement:
        return basis_element(self.rank, i)


def verify_ns_axioms(ns: NSAlgebra, check_vee_skew: bool = False) -> Report:
    """The four compatibility identities plus twist multiplicativity.

    With both directed products zero the identities collapse to the
    twisted Leibniz identity of the vee product.  Skew-symmetry of vee is
    never part of the axioms; with check_vee_skew it is reported as an
    extra labelled check.
    """
    a, n = ns.alpha, ns.rank
    with checked("ns_axioms") as c:
        _, twisted = _basis_and_images(n, a)
        for name in ("left", "right", "vee"):
            ev = _table_at(getattr(ns, name), n, AT_X)
            _morphism(c, ("multiplicativity", name), a, ev, ev)
        # each product at w1, w2 and w1 + w2
        lf1, lf2, lf12 = (_table_at(ns.left, n, w) for w in (AT_L1, AT_L2, AT_L12))
        rt1, rt2, rt12 = (_table_at(ns.right, n, w) for w in (AT_L1, AT_L2, AT_L12))
        ve1, ve2, ve12 = (_table_at(ns.vee, n, w) for w in (AT_L1, AT_L2, AT_L12))
        # the three products and their sum on every basis pair, at w1 and at w2
        left1, right1, vee1 = (ev.basis_cells() for ev in (lf1, rt1, ve1))
        left2, right2, vee2 = (ev.basis_cells() for ev in (lf2, rt2, ve2))
        star1, star2 = _signed_sum([left1, right1, vee1]), _signed_sum([left2, right2, vee2])
        _leibniz(c, ("right_star",), twisted, [((rt1, star2), (rt12, right1), (lf2, right1))])
        _leibniz(c, ("left_right",), twisted, [((lf1, right2), (rt12, left1), (rt2, star1))])
        _leibniz(c, ("left_left",), twisted, [((lf1, left2), (lf12, star1), (lf2, left1))])
        _leibniz(c, ("vee",), twisted, [
            ((ve1, star2), (ve12, star1), (ve2, star1)),
            ((lf1, vee2), (rt12, vee1), (lf2, vee1)),
        ])
        if check_vee_skew:
            _skew(c, ("vee_skew",), ve1, _table_at(ns.vee, n, AT_FLIP))
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
    _check_square(ns, m)
    with checked("ns_morphism") as c:
        for name in ("left", "right", "vee"):
            ev = _table_at(getattr(ns, name), ns.rank, AT_X)
            _morphism(c, (name,), m, ev, ev)
    return c.report


def twist_ns_by_morphism(ns: NSAlgebra, m: PdModuleMap, strict: bool = False) -> NSAlgebra:
    """Post-compose every product with m.

    The resulting structure satisfies the axioms whenever the input does
    and m commutes with the products; the morphism check is reported (or
    enforced with strict=True) but the construction itself is total.
    """
    _check_square(ns, m)
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


def _ns(rank: int, basis_names, alpha: PdModuleMap, left, right, vee) -> NSAlgebra:
    """The NS structure whose three products on basis pairs are the
    cells left, right and vee ({(i, j): value})."""
    return NSAlgebra(rank, basis_names, _table(left), _table(right), _table(vee), alpha)


def ns_from_nijenhuis(
    alg: ConformalAlgebra, n: PdModuleMap, strict: bool = False
) -> NSAlgebra:
    """p <| q = [n(p) q],  p |> q = [p n(q)],  p v q = -n[p q]."""
    _check_square(alg, n)
    if strict:
        pre = verify_operator(alg, n, OperatorKind.nijenhuis())
        if not pre.passed:
            raise PreconditionError("operator is not Nijenhuis")
    br = _table_at(alg.structure, alg.rank, AT_X)
    basis, images = _basis_and_images(alg.rank, n)
    vee = {key: -n.apply(v) for key, v in br.basis_cells().items()}
    return _ns(alg.rank, alg.basis_names, alg.alpha, br.cells(images, basis), br.cells(basis, images), vee)


def ns_from_rb(
    alg: ConformalAlgebra, r_op: PdModuleMap, weight: Rat, strict: bool = False
) -> NSAlgebra:
    """p <| q = [r(p) q],  p |> q = [p r(q)],  p v q = weight [p q]."""
    _check_square(alg, r_op)
    weight = Fraction(weight)
    if strict:
        pre = verify_operator(alg, r_op, OperatorKind.rota_baxter(weight))
        if not pre.passed:
            raise PreconditionError("operator is not Rota-Baxter of this weight")
    br = _table_at(alg.structure, alg.rank, AT_X)
    basis, images = _basis_and_images(alg.rank, r_op)
    vee = {key: v.scale(weight) for key, v in br.basis_cells().items()}
    return _ns(alg.rank, alg.basis_names, alg.alpha, br.cells(images, basis), br.cells(basis, images), vee)


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
    """Three groups: the cocycle identity for phi (its coboundary in the
    module complex vanishes; sesquilinearity holds by construction of
    cochains), twist compatibility of the map, and the twisted operator
    identity on module basis pairs."""
    with checked("twisted_rb") as c:
        _add_nonzero_values(c, coboundary_homL(data.phi, data.alg, data.rep), "phi_cocycle")
        phi1 = _evaluator(data.phi, AT_L1)
        _relative_operator(c, ("operator_identity",), data.alg, data.rep, data.t_map, phi1)
    return c.report


def verify_o_operator(
    alg: ConformalAlgebra, rep: Representation, t: PdModuleMap
) -> Report:
    """Relative operator identity without a twisting cocycle:

        [t(m) w t(n)] = t( l(t m) w n + r(m) w t(n) ),   t beta = alpha t.
    """
    if rep.alg_rank != alg.rank:
        raise DimensionError("representation is over a different algebra rank")
    if t.rows != alg.rank or t.cols != rep.rank:
        raise DimensionError("operator must send the module into the algebra")
    with checked("o_operator") as c:
        _relative_operator(c, (), alg, rep, t)
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
    rep = data.rep
    mods, images = _basis_and_images(rep.rank, data.t_map)
    return _ns(
        rep.rank, rep.basis_names, rep.beta,
        _table_at(rep.l_structure, rep.rank, AT_X).cells(images, mods),
        _table_at(rep.r_structure, rep.rank, AT_X).cells(mods, images),
        _evaluator(data.phi, AT_X).cells(images, images),
    )
