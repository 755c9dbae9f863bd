"""References for table evaluation, frozen as they were replaced.

`eval_table` is the arity-2 evaluator that `structure._evaluator`
replaced for brackets and both actions.  It substitutes D + w into the
second argument lazily, only where a nonzero table entry needs it, and
keeps nothing of it.  The differential tests in test_structure.py
require `eval_table_bracket`, `eval_l` and `eval_r` to give the same
value, term dict for term dict.

`per_tuple_evaluator` is `structure._evaluator` with the per-tuple term
loop it had beside its batched one: one argument tuple at a time, every
coefficient product formed in full.  test_structure.py requires the
batched loop to give its values, term dict for term dict.

`_slot_memo` is the per-argument memo both oracles read their
arguments through, as the evaluator kept it while it had a per-tuple
loop.  The slot targets are written out here, not read from the
library: -w_s for slot s < n and D + w_1 + ... + w_(n-1) for the last."""

import itertools
from typing import Mapping, Sequence

from homleib.poly import D, X, MultiPoly, substitution, _unchanged
from homleib.structure import BracketTable, ConformalElement, DimensionError


def per_tuple_evaluator(
    table: Mapping,
    stored: Sequence[int],
    out_rank: int,
    lams: Sequence[MultiPoly],
    rank: int | None = None,
):
    """The sesquilinear extension of `table` at `lams`, with the
    arguments of `structure._evaluator`, as a function of one argument
    tuple."""
    targets = [-w for w in lams] + [sum(lams, MultiPoly.var(D))]
    coords = _slot_memo(targets, rank)
    moved = {v: w for v, w in zip(stored, lams) if w != MultiPoly.var(v)}
    relabel = substitution(moved) if moved else _unchanged
    relabelled: dict[tuple[int, ...], tuple[tuple[int, MultiPoly], ...]] = {}
    zero = MultiPoly.zero()
    later_slots = range(1, len(lams) + 1)

    def entry(key: tuple[int, ...]) -> tuple[tuple[int, MultiPoly], ...]:
        values = relabelled[key] = tuple(
            (k, q) for k, p in enumerate(table.get(key, ())) if not (q := relabel(p)).is_zero
        )
        return values

    def apply(args: Sequence[ConformalElement]) -> ConformalElement:
        coeffs = [coords(s, a) for s, a in enumerate(args)]
        out = [zero] * out_rank
        if not all(coeffs):
            return ConformalElement(tuple(out))
        # each dict lists its coordinates in increasing order
        for key in itertools.product(*coeffs):
            values = relabelled.get(key)
            if values is None:
                values = entry(key)
            if not values:
                continue
            factor = coeffs[0][key[0]]
            for s in later_slots:
                factor = factor * coeffs[s][key[s]]
            for k, p in values:
                out[k] = out[k] + factor * p
        return ConformalElement(tuple(out))

    return apply


def eval_table(
    table: BracketTable,
    out_rank: int,
    first: ConformalElement,
    second: ConformalElement,
    w: MultiPoly,
) -> ConformalElement:
    """One-shot evaluation of the table at w on (first, second)."""
    return _table_evaluator(table, out_rank, w)(first, second)


def _table_evaluator(table: BracketTable, out_rank: int, w: MultiPoly):
    """The table at parameter w, as a function of the two arguments.

    The polynomials -w, D + w and w are built once, and each entry
    table[i, j] is set to x = w the first time it is met (at w = x that
    is the entry itself, not a copy); tables are never changed once
    built, so an entry set once stays valid.  The first argument's
    coordinates at D = -w are kept per argument object by `_slot_memo`.
    The second argument's coordinates at D + w are substituted only
    where a nonzero table entry needs them, once per application, and
    not kept: keeping them too made the memo hold every product a check
    evaluates, for little gain.  The returned function refers to
    `table`, which keeps the table alive as long as the evaluator is.
    """
    shift_w = MultiPoly.var(D) + w
    coords = _slot_memo([-w])
    at_w: dict[tuple[int, int], tuple[tuple[int, MultiPoly], ...]] = {}
    zero = MultiPoly.zero()

    def evaluate(first: ConformalElement, second: ConformalElement) -> ConformalElement:
        out = [zero] * out_rank
        firsts = coords(0, first)
        seconds = {j: None for j, g in enumerate(second.coords) if not g.is_zero} if firsts else {}
        for i, fi in firsts.items():
            for j, gj in seconds.items():
                entry = at_w.get((i, j))
                if entry is None:
                    # the nonzero coordinates k of table[i, j], at x = w
                    vec = table.get((i, j), ())
                    entry = at_w[i, j] = tuple(
                        (k, pk.substitute(X, w)) for k, pk in enumerate(vec) if not pk.is_zero
                    )
                if not entry:
                    continue
                if gj is None:
                    gj = seconds[j] = second.coords[j].substitute(D, shift_w)
                factor = fi * gj
                for k, pk in entry:
                    out[k] = out[k] + factor * pk
        return ConformalElement(tuple(out))

    return evaluate


def _slot_memo(targets: Sequence[MultiPoly], rank: int | None = None):
    """Per-argument memo of an evaluator that sets D to targets[s] in slot s.

    `coords(s, a)` maps the index of each nonzero coordinate of `a` to
    that coordinate at D = targets[s], leaving out those that become
    zero.  It is built once per (slot, argument object) and kept next
    to the argument itself, so the argument's id is not reused while
    the memo lives.  With `rank` given, an argument of another rank
    raises DimensionError when it is first met.
    """
    met: dict[tuple[int, int], tuple[ConformalElement, dict[int, MultiPoly]]] = {}

    def coords(s: int, a: ConformalElement) -> dict[int, MultiPoly]:
        hit = met.get((s, id(a)))
        if hit is not None:
            return hit[1]
        if rank is not None and a.ambient_rank != rank:
            raise DimensionError(f"argument of rank {a.ambient_rank} where rank {rank} is expected")
        values = {}
        for b, c in enumerate(a.coords):
            if not c.is_zero:
                c = c.substitute(D, targets[s])
                if not c.is_zero:
                    values[b] = c
        met[s, id(a)] = (a, values)
        return values

    return coords
