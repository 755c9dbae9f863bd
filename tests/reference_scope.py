"""Reference for per-pair evaluation in a scope: the per-thread
evaluation scope that the library's checks opened before each check
built its evaluators explicitly, with the per-pair bracket and action
calls that read it.  The frozen oracles (reference_checks.py,
reference_coboundary.py) evaluate through these, so that they compute
what they computed when the scope was the library's: inside a `checked`
block or an `_evaluation_scope`, each (table, output rank, parameter
value) has one evaluator, which every per-pair call on it shares;
outside, each call builds its own."""

from contextlib import contextmanager
from contextvars import ContextVar

from homleib import report
from homleib.poly import X, MultiPoly
from homleib.representation import Representation
from homleib.structure import ConformalAlgebra, ConformalElement, DimensionError, Parameters, _evaluator

# The open evaluation scope of this thread (None outside any scope): a
# dict from (table identity, output rank, parameter value) to the
# evaluator of that table at that parameter.  Each evaluator refers to
# its table, so no table id is reused while the scope lives.
_SCOPE: ContextVar[dict | None] = ContextVar("reference_evaluation_scope", default=None)


@contextmanager
def _evaluation_scope():
    """A fresh scope for the block, replacing any outer one until it exits."""
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


class checked(report.checked):
    """`report.checked` whose block runs in a fresh evaluation scope."""

    def __enter__(self) -> "checked":
        self._scope = _evaluation_scope()
        self._scope.__enter__()
        return super().__enter__()

    def __exit__(self, exc_type, exc, tb):
        self._scope.__exit__(exc_type, exc, tb)
        return super().__exit__(exc_type, exc, tb)


def _table_evaluator(table, out_rank: int, w: MultiPoly):
    """The evaluator of `table` at x = w: the open scope's, built once per
    (table, out_rank, w), or outside any scope a one-shot one."""
    scope = _SCOPE.get()
    if scope is None:
        return _evaluator(table, (X,), out_rank, Parameters.of((w,)))
    key = (id(table), out_rank, w)
    evaluate = scope.get(key)
    if evaluate is None:
        evaluate = scope[key] = _evaluator(table, (X,), out_rank, Parameters.of((w,)))
    return evaluate


def _products(ev, firsts: list, seconds: list, w: MultiPoly) -> list[list]:
    """ev(p, q, w) on every pair: row i, column j holds ev(firsts[i], seconds[j], w)."""
    return [[ev(p, q, w) for q in seconds] for p in firsts]


def eval_table_bracket(
    table, rank: int, left: ConformalElement, right: ConformalElement, w: MultiPoly
) -> ConformalElement:
    if left.ambient_rank != rank or right.ambient_rank != rank:
        raise DimensionError("element rank does not match the bracket table")
    return _table_evaluator(table, rank, w)((left, right))


def eval_bracket(
    alg: ConformalAlgebra, left: ConformalElement, right: ConformalElement, w: MultiPoly
) -> ConformalElement:
    return eval_table_bracket(alg.structure, alg.rank, left, right, w)


def eval_l(rep: Representation, p: ConformalElement, m: ConformalElement, w: MultiPoly) -> ConformalElement:
    if p.ambient_rank != rep.alg_rank or m.ambient_rank != rep.rank:
        raise DimensionError("left action rank mismatch")
    return _table_evaluator(rep.l_structure, rep.rank, w)((p, m))


def eval_r(rep: Representation, m: ConformalElement, p: ConformalElement, w: MultiPoly) -> ConformalElement:
    if p.ambient_rank != rep.alg_rank or m.ambient_rank != rep.rank:
        raise DimensionError("right action rank mismatch")
    return _table_evaluator(rep.r_structure, rep.rank, w)((m, p))
