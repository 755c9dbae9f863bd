"""Shared builders for the test suite."""

from homleib.poly import MultiPoly, X, lam
from homleib.structure import PdModuleMap, XF, eval_bracket, virasoro, zero_element
from homleib.representation import Representation
from homleib.operators import deformed_bracket
from homleib.cohomology import Cochain
from homleib.ns import TwistedRBData


def example_59_data(c):
    """Twisted Rota-Baxter data from a scalar operator on the rank-1 algebra:
    the deformed algebra, its operator-twisted self-actions, and the cocycle
    -n[p q] built from the original bracket."""
    vir = virasoro()
    n = PdModuleMap.scalar(1, c)
    deformed = deformed_bracket(vir, n)
    l_table = {(0, 0): eval_bracket(vir, n.apply(vir.basis(0)), vir.basis(0), XF).coords}
    r_table = {(0, 0): eval_bracket(vir, vir.basis(0), n.apply(vir.basis(0)), XF).coords}
    rep = Representation(1, 1, l_table, r_table, vir.alpha, basis_names=("m",))
    vee = (-n.apply(eval_bracket(vir, vir.basis(0), vir.basis(0), XF))).coords
    phi = Cochain(
        2,
        1,
        1,
        {(0, 0): tuple(p.substitute(X, MultiPoly.var(lam(1))) for p in vee)},
    )
    return TwistedRBData(deformed, rep, PdModuleMap.identity(1), phi)


def dense(ev, firsts, seconds, out_rank):
    """The dense view of a two-slot evaluator on two argument lists, read
    off its `batch`: ev(firsts[i], seconds[j]) at [i][j], the zero
    element of out_rank where the batch meets no nonzero entry."""
    values, width, zero = ev.batch((firsts, seconds)), len(seconds), zero_element(out_rank)
    return [[v or zero for v in values[i * width:(i + 1) * width]] for i in range(len(firsts))]
