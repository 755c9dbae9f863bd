"""Reference for the shared operator identities: the hand-expanded
checks and constructions that the identities in `homleib.structure`
(`_morphism`, `_deformed_products`, `_leibniz`, `_relative_operator`,
`_skew`, `_table`) and the coboundary-based cocycle checks replaced.
Each function keeps its former body, one loop over basis tuples per
object.  The differential tests in test_shared_identities.py require the
library and these to give the same records and the same tables."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import partial

from homleib.cohomology import (
    Cochain,
    HNLAPair,
    _evaluator,
    cochain_from_bracket_table,
    cochain_from_map,
    coboundary_homL,
    phi_map,
)
from homleib.deformation import DeformationData
from homleib.ns import NSAlgebra, TwistedRBData
from homleib.operators import OperatorKind, PreconditionError, _check_square, verify_operator
from homleib.poly import D, MultiPoly, Rat
from homleib.report import Report
from homleib.representation import Representation, adjoint_rep
from homleib.structure import (
    XF,
    L1,
    L2,
    L12,
    ConformalAlgebra,
    ConformalElement,
    DimensionError,
    Parameters,
    PdModuleMap,
    _add_nonzero_entries,
    _basis_and_images,
    normalize_table,
    zero_element,
)
from reference_scope import (
    _evaluation_scope,
    _products,
    checked,
    eval_bracket,
    eval_l,
    eval_r,
    eval_table_bracket,
)

# ---------------------------------------------------------------------------
# algebra axioms (homleib.structure)
# ---------------------------------------------------------------------------


def verify_multiplicativity(alg: ConformalAlgebra) -> Report:
    """twist([e_i x e_j]) must equal [twist(e_i) x twist(e_j)]."""
    with checked("multiplicativity") as c:
        basis, twisted = _basis_and_images(alg.rank, alg.alpha)
        for i in range(alg.rank):
            for j in range(alg.rank):
                lhs = alg.alpha.apply(eval_bracket(alg, basis[i], basis[j], XF))
                rhs = eval_bracket(alg, twisted[i], twisted[j], XF)
                c.add_nonzero((i, j), lhs - rhs)
    return c.report


def verify_hom_leibniz(alg: ConformalAlgebra) -> Report:
    """Twisted left Leibniz identity on all basis triples.

    [a(p) w1 [q w2 r]] = [[p w1 q] w1+w2 a(r)] + [a(q) w2 [p w1 r]]

    The basis-pair brackets at w1 and at w2 are built once per check.
    """
    with checked("hom_leibniz") as c:
        n = alg.rank
        br = partial(eval_bracket, alg)
        basis, twisted = _basis_and_images(n, alg.alpha)
        at1, at2 = _products(br, basis, basis, L1), _products(br, basis, basis, L2)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = br(twisted[i], at2[j][k], L1)
                    rhs = br(at1[i][j], twisted[k], L12) + br(twisted[j], at1[i][k], L2)
                    c.add_nonzero((i, j, k), lhs - rhs)
    return c.report


def verify_skew_symmetry(alg: ConformalAlgebra) -> Report:
    """Conformal skew-symmetry [p w q] = -[q (-w - D) p]; marks Lie-ness."""
    minus = -L1 - MultiPoly.var(D)
    with checked("skew_symmetry") as c:
        basis = [alg.basis(i) for i in range(alg.rank)]
        for i in range(alg.rank):
            for j in range(alg.rank):
                direct = eval_bracket(alg, basis[i], basis[j], L1)
                flipped = eval_bracket(alg, basis[j], basis[i], minus)
                c.add_nonzero((i, j), direct + flipped)
    return c.report

# ---------------------------------------------------------------------------
# operators (homleib.operators)
# ---------------------------------------------------------------------------


def deformed_bracket(
    alg: ConformalAlgebra, n: PdModuleMap, strict: bool = False
) -> ConformalAlgebra:
    """Bracket deformed by an operator: [p q]_N = [Np q] + [p Nq] - N[p q].

    The formula is total, so construction never needs the Nijenhuis
    hypothesis; with strict=True it is enforced, since only then are the
    derived guarantees (the output satisfies the Leibniz identity, n stays
    Nijenhuis on it, and n is a morphism back to the input) available.
    """
    _check_square(alg, n)
    if strict:
        rep = verify_operator(alg, n, OperatorKind.nijenhuis())
        if not rep.passed:
            raise PreconditionError(
                f"operator is not Nijenhuis; first residual at {rep.violations[0].context}"
            )
    table = {}
    with _evaluation_scope():
        basis, images = _basis_and_images(alg.rank, n)
        for i, (p, np_) in enumerate(zip(basis, images)):
            for j, (q, nq) in enumerate(zip(basis, images)):
                value = (
                    eval_bracket(alg, np_, q, XF)
                    + eval_bracket(alg, p, nq, XF)
                    - n.apply(eval_bracket(alg, p, q, XF))
                )
                table[(i, j)] = value.coords
    return alg.with_structure(table)


def check_morphism(
    f: PdModuleMap,
    src: ConformalAlgebra,
    dst: ConformalAlgebra,
    n_src: PdModuleMap | None = None,
    n_dst: PdModuleMap | None = None,
) -> Report:
    """f must intertwine brackets and, when given, the two operators."""
    if f.cols != src.rank or f.rows != dst.rank:
        raise DimensionError("morphism shape does not match the two algebras")
    if (n_src is None) != (n_dst is None):
        raise ValueError("operator compatibility needs an operator on both sides")
    with checked("morphism") as c:
        _add_nonzero_entries(c, "twist", f.compose(src.alpha) - dst.alpha.compose(f))
        if n_src is not None:
            _add_nonzero_entries(c, "operator", f.compose(n_src) - n_dst.compose(f))
        basis, images = _basis_and_images(src.rank, f)
        for i in range(src.rank):
            for j in range(src.rank):
                lhs = f.apply(eval_bracket(src, basis[i], basis[j], XF))
                rhs = eval_bracket(dst, images[i], images[j], XF)
                c.add_nonzero(("bracket", i, j), lhs - rhs)
    return c.report

# ---------------------------------------------------------------------------
# representations (homleib.representation)
# ---------------------------------------------------------------------------


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
        basis, images = _basis_and_images(alg.rank, n)
        mods, nmods = _basis_and_images(rep.rank, nm)
        for i, (p, np_) in enumerate(zip(basis, images)):
            for k, (m, nmm) in enumerate(zip(mods, nmods)):
                lhs = eval_l(rep, np_, nmm, L1)
                rhs = nm.apply(
                    eval_l(rep, np_, m, L1)
                    + eval_l(rep, p, nmm, L1)
                    - nm.apply(eval_l(rep, p, m, L1))
                )
                c.add_nonzero(("l", i, k), lhs - rhs)
                lhs_r = eval_r(rep, nmm, np_, L1)
                rhs_r = nm.apply(
                    eval_r(rep, nmm, p, L1)
                    + eval_r(rep, m, np_, L1)
                    - nm.apply(eval_r(rep, m, p, L1))
                )
                c.add_nonzero(("r", i, k), lhs_r - rhs_r)
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
    if strict:
        for pre in (
            verify_operator(alg, n, OperatorKind.nijenhuis()),
            verify_nijenhuis_representation(alg, n, rep),
        ):
            if not pre.passed:
                raise PreconditionError(f"{pre.check_name} fails")
    nm = rep.n_m
    l_structure = {}
    r_structure = {}
    with _evaluation_scope():
        basis, images = _basis_and_images(alg.rank, n)
        mods, nmods = _basis_and_images(rep.rank, nm)
        for i, (p, np_) in enumerate(zip(basis, images)):
            for k, (m, nmm) in enumerate(zip(mods, nmods)):
                lval = (
                    eval_l(rep, np_, m, XF)
                    + eval_l(rep, p, nmm, XF)
                    - nm.apply(eval_l(rep, p, m, XF))
                )
                l_structure[(i, k)] = lval.coords
                rval = (
                    eval_r(rep, nmm, p, XF)
                    + eval_r(rep, m, np_, XF)
                    - nm.apply(eval_r(rep, m, p, XF))
                )
                r_structure[(k, i)] = rval.coords
    return Representation(
        alg_rank=rep.alg_rank,
        rank=rep.rank,
        l_structure=normalize_table(l_structure, rep.rank),
        r_structure=normalize_table(r_structure, rep.rank),
        beta=rep.beta,
        n_m=rep.n_m,
        basis_names=rep.basis_names,
    )

# ---------------------------------------------------------------------------
# NS structures and twisted Rota-Baxter operators (homleib.ns)
# ---------------------------------------------------------------------------


def verify_ns_axioms(ns: NSAlgebra, check_vee_skew: bool = False) -> Report:
    """The four compatibility identities plus twist multiplicativity.

    With both directed products zero the identities collapse to the
    twisted Leibniz identity of the vee product.  Skew-symmetry of vee is
    never part of the axioms; with check_vee_skew it is reported as an
    extra labelled check.
    """
    a, n = ns.alpha, ns.rank
    with checked("ns_axioms") as c:
        basis, twisted = _basis_and_images(n, a)
        evs = {name: partial(eval_table_bracket, getattr(ns, name), n) for name in ("left", "right", "vee")}
        for name, ev in evs.items():
            for i in range(n):
                for j in range(n):
                    res = a.apply(ev(basis[i], basis[j], XF)) - ev(twisted[i], twisted[j], XF)
                    c.add_nonzero(("multiplicativity", name, i, j), res)
        lf, rt, ve = evs.values()

        def products(w):
            """The three products and their sum on every basis pair, at w."""
            left, right, vee = (_products(ev, basis, basis, w) for ev in (lf, rt, ve))
            star = [[x + y + z for x, y, z in zip(*rows)] for rows in zip(left, right, vee)]
            return left, right, vee, star

        left1, right1, vee1, star1 = products(L1)
        left2, right2, vee2, star2 = products(L2)
        for i, ap in enumerate(twisted):
            for j, aq in enumerate(twisted):
                for k, ar in enumerate(twisted):
                    res1 = rt(ap, star2[j][k], L1) - rt(right1[i][j], ar, L12) - lf(aq, right1[i][k], L2)
                    c.add_nonzero(("right_star", i, j, k), res1)
                    res2 = lf(ap, right2[j][k], L1) - rt(left1[i][j], ar, L12) - rt(aq, star1[i][k], L2)
                    c.add_nonzero(("left_right", i, j, k), res2)
                    res3 = lf(ap, left2[j][k], L1) - lf(star1[i][j], ar, L12) - lf(aq, left1[i][k], L2)
                    c.add_nonzero(("left_left", i, j, k), res3)
                    res4 = (
                        ve(ap, star2[j][k], L1)
                        - ve(aq, star1[i][k], L2)
                        - ve(star1[i][j], ar, L12)
                        + lf(ap, vee2[j][k], L1)
                        - lf(aq, vee1[i][k], L2)
                        - rt(vee1[i][j], ar, L12)
                    )
                    c.add_nonzero(("vee", i, j, k), res4)
        if check_vee_skew:
            minus = -L1 - MultiPoly.var(D)
            for i in range(n):
                for j in range(n):
                    res = ve(basis[i], basis[j], L1) + ve(basis[j], basis[i], minus)
                    c.add_nonzero(("vee_skew", i, j), res)
    return c.report


def check_ns_morphism(ns: NSAlgebra, m: PdModuleMap) -> Report:
    """m must commute with all three products."""
    with checked("ns_morphism") as c:
        basis, images = _basis_and_images(ns.rank, m)
        for name, table in (("left", ns.left), ("right", ns.right), ("vee", ns.vee)):
            for i in range(ns.rank):
                for j in range(ns.rank):
                    res = m.apply(eval_table_bracket(table, ns.rank, basis[i], basis[j], XF))
                    res = res - eval_table_bracket(table, ns.rank, images[i], images[j], XF)
                    c.add_nonzero((name, i, j), res)
    return c.report


def ns_from_nijenhuis(
    alg: ConformalAlgebra, n: PdModuleMap, strict: bool = False
) -> NSAlgebra:
    """p <| q = [n(p) q],  p |> q = [p n(q)],  p v q = -n[p q]."""
    if strict:
        pre = verify_operator(alg, n, OperatorKind.nijenhuis())
        if not pre.passed:
            raise PreconditionError("operator is not Nijenhuis")
    left, right, vee = {}, {}, {}
    with _evaluation_scope():
        basis, images = _basis_and_images(alg.rank, n)
        for i, (p, np_) in enumerate(zip(basis, images)):
            for j, (q, nq) in enumerate(zip(basis, images)):
                left[(i, j)] = eval_bracket(alg, np_, q, XF).coords
                right[(i, j)] = eval_bracket(alg, p, nq, XF).coords
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
    with _evaluation_scope():
        basis, images = _basis_and_images(alg.rank, r_op)
        for i, (p, rp) in enumerate(zip(basis, images)):
            for j, (q, rq) in enumerate(zip(basis, images)):
                left[(i, j)] = eval_bracket(alg, rp, q, XF).coords
                right[(i, j)] = eval_bracket(alg, p, rq, XF).coords
                vee[(i, j)] = eval_bracket(alg, p, q, XF).scale(weight).coords
    return NSAlgebra(
        alg.rank,
        alg.basis_names,
        normalize_table(left, alg.rank),
        normalize_table(right, alg.rank),
        normalize_table(vee, alg.rank),
        alg.alpha,
    )


def verify_twisted_rb(data: TwistedRBData) -> Report:
    """Three groups: the cocycle identity for phi (its sesquilinearity holds
    by construction of cochains), twist compatibility of the map, and the
    twisted operator identity on module basis pairs."""
    alg, rep, t, phi = data.alg, data.rep, data.t_map, data.phi
    with checked("twisted_rb") as c:
        br = partial(eval_bracket, alg)
        basis, twisted = _basis_and_images(alg.rank, alg.alpha)
        phi1, phi2, phi12 = (_evaluator(phi, Parameters.of([w])) for w in (L1, L2, L12))
        br1, br2 = _products(br, basis, basis, L1), _products(br, basis, basis, L2)
        ph1, ph2 = ([[ev([p, q]) for q in basis] for p in basis] for ev in (phi1, phi2))
        for i, ap in enumerate(twisted):
            for j, aq in enumerate(twisted):
                for k, ar in enumerate(twisted):
                    res = (
                        eval_l(rep, ap, ph2[j][k], L1)
                        - eval_l(rep, aq, ph1[i][k], L2)
                        - eval_r(rep, ph1[i][j], ar, L12)
                        + phi1([ap, br2[j][k]])
                        - phi2([aq, br1[i][k]])
                        - phi12([br1[i][j], ar])
                    )
                    c.add_nonzero(("phi_cocycle", i, j, k), res)
        _add_nonzero_entries(c, "twist_compat", alg.alpha.compose(t) - t.compose(rep.beta))
        mods, images = _basis_and_images(rep.rank, t)
        for i, (m, tm) in enumerate(zip(mods, images)):
            for j, (n_el, tn) in enumerate(zip(mods, images)):
                lhs = br(tm, tn, L1)
                rhs = t.apply(eval_l(rep, tm, n_el, L1) + eval_r(rep, m, tn, L1) + phi1([tm, tn]))
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
        mods, images = _basis_and_images(rep.rank, t)
        for i, (m, tm) in enumerate(zip(mods, images)):
            for j, (n_el, tn) in enumerate(zip(mods, images)):
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
    with _evaluation_scope():
        mods, images = _basis_and_images(rep.rank, t)
        phi_x = _evaluator(phi, Parameters.of([XF]))
        for i, (m, tm) in enumerate(zip(mods, images)):
            for j, (n_el, tn) in enumerate(zip(mods, images)):
                left[(i, j)] = eval_l(rep, tm, n_el, XF).coords
                right[(i, j)] = eval_r(rep, m, tn, XF).coords
                vee[(i, j)] = phi_x([tm, tn]).coords
    return NSAlgebra(
        rep.rank,
        rep.basis_names,
        normalize_table(left, rep.rank),
        normalize_table(right, rep.rank),
        normalize_table(vee, rep.rank),
        rep.beta,
    )

# ---------------------------------------------------------------------------
# recording a cochain or pair (homleib.cohomology)
# ---------------------------------------------------------------------------


def _add_nonzero_values(
    c: checked, x: Cochain | HNLAPair, labels: tuple[str, str] = ("upper", "lower")
) -> None:
    """Record each nonzero value of a cochain at its basis tuple; the
    values of a pair's two parts carry a leading label."""
    if isinstance(x, HNLAPair):
        parts = [((labels[0],), x.f), ((labels[1],), x.g)]
    else:
        parts = [((), x)]
    for prefix, f in parts:
        if f is not None:
            for key in sorted(f.table):
                c.add_nonzero(prefix + key, ConformalElement(f.value(key)))

# ---------------------------------------------------------------------------
# deformations (homleib.deformation)
# ---------------------------------------------------------------------------


def verify_deformation_order(data: DeformationData, n: int) -> Report:
    """The order-n coefficient equations of the deformed pair.

    Three groups of checks on basis tuples:

      multiplicativity : twist(p x q)_n = (twist p x twist q)_n and
                         twist commutes with the order-n operator
      leibniz          : the convolution over i+j=n of the twisted Leibniz
                         identity
      operator         : the convolution over i+j+k=n of the operator
                         identity (outer operator, inner operator, bracket)

    Order 0 reproduces the base axioms verbatim.  The basis-pair products
    of every order, at w1 and at w2, are built once per check.
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
        evs = [partial(eval_table_bracket, data.bracket_table(o), rank) for o in range(n + 1)]
        basis, twisted = _basis_and_images(rank, a)
        for i in range(rank):
            for j in range(rank):
                res = a.apply(evs[n](basis[i], basis[j], XF)) - evs[n](twisted[i], twisted[j], XF)
                c.add_nonzero(("multiplicativity", i, j), res)
        at1 = [_products(ev, basis, basis, L1) for ev in evs]
        at2 = [_products(ev, basis, basis, L2) for ev in evs]
        for i, ap in enumerate(twisted):
            for j, aq in enumerate(twisted):
                for k, ar in enumerate(twisted):
                    acc = zero_element(rank)
                    for o in range(n + 1):
                        ev = evs[n - o]
                        acc = acc + ev(ap, at2[o][j][k], L1)
                        acc = acc - ev(at1[o][i][j], ar, L12)
                        acc = acc - ev(aq, at1[o][i][k], L2)
                    c.add_nonzero(("leibniz", i, j, k), acc)
        images = [[op.apply(e) for e in basis] for op in ops]
        for i, p in enumerate(basis):
            for j, q in enumerate(basis):
                acc = zero_element(rank)
                for o1 in range(n + 1):
                    for o2 in range(n + 1 - o1):
                        o3 = n - o1 - o2
                        acc = acc + evs[o1](images[o2][i], images[o3][j], L1)
                        inner = (
                            evs[o3](p, images[o2][j], L1)
                            + evs[o3](images[o2][i], q, L1)
                            - ops[o2].apply(at1[o3][i][j])
                        )
                        acc = acc - ops[o1].apply(inner)
                c.add_nonzero(("operator", i, j), acc)
    return c.report


def coboundary_of_map(
    alg: ConformalAlgebra, base_operator: PdModuleMap, psi: PdModuleMap
) -> HNLAPair:
    """d(psi, 0) in the combined complex: the pair whose upper part is the
    plain coboundary of psi and whose lower part is -phi(psi)."""
    rep = dataclasses.replace(adjoint_rep(alg), n_m=base_operator)
    f = cochain_from_map(psi)
    upper = coboundary_homL(f, alg, rep)
    lower = -phi_map(f, base_operator, rep)
    return HNLAPair(upper, lower)


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

    a0, a1 = (partial(eval_table_bracket, data_a.bracket_table(o), rank) for o in (0, 1))
    b1 = partial(eval_table_bracket, data_b.bracket_table(1), rank)
    with checked("equivalence_order1") as c:
        basis, images = _basis_and_images(rank, psi1)
        for i, (p, pp) in enumerate(zip(basis, images)):
            for j, (q, pq) in enumerate(zip(basis, images)):
                res = (
                    psi1.apply(a0(p, q, XF))
                    + b1(p, q, XF)
                    - a0(pp, q, XF)
                    - a0(p, pq, XF)
                    - a1(p, q, XF)
                )
                c.add_nonzero(("bracket_relation", i, j), res)
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
        _add_nonzero_values(c, residual, ("cohomologous_upper", "cohomologous_lower"))
    return c.report
