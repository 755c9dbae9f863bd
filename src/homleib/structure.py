"""Finite-rank twisted Leibniz conformal algebras.

An algebra of rank r is a free module over polynomials in D with a
bracket determined by structure polynomials P_ij^k(D, x): the bracket of
basis elements e_i, e_j is the sum over k of P_ij^k e_k, where x marks
the formal bracket parameter.  Evaluation on arbitrary elements extends
the table by sesquilinearity:

    [f(D) p  g(D) q]  evaluated at parameter w  is  f(-w) g(D + w) [p q],

with the structure slot x set to w.  The twist is a matrix over
polynomials in D, hence automatically commutes with the D-action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .poly import (
    D,
    X,
    MultiPoly,
    Rat,
    lam,
    nonzero_images,
    print_poly,
    substitution,
)
from .report import Report, checked

BracketTable = Mapping[tuple[int, int], tuple[MultiPoly, ...]]


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class ConformalElement:
    """A module element: a coordinate vector of polynomials in D and l<i>."""

    coords: tuple[MultiPoly, ...]

    @property
    def ambient_rank(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    def __add__(self, other: "ConformalElement") -> "ConformalElement":
        self._check_rank(other)
        return ConformalElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ConformalElement") -> "ConformalElement":
        self._check_rank(other)
        return ConformalElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ConformalElement":
        return ConformalElement(tuple(-a for a in self.coords))

    def scale(self, p: MultiPoly | Rat) -> "ConformalElement":
        if not isinstance(p, MultiPoly):
            p = MultiPoly.const(p)
        return ConformalElement(tuple(p * c for c in self.coords))

    def _check_rank(self, other: "ConformalElement"):
        if self.ambient_rank != other.ambient_rank:
            raise DimensionError(
                f"rank mismatch: {self.ambient_rank} vs {other.ambient_rank}"
            )

    def __str__(self) -> str:
        return "[" + ", ".join(print_poly(c) for c in self.coords) + "]"


def zero_element(rank: int) -> ConformalElement:
    return ConformalElement((MultiPoly.zero(),) * rank)


def basis_element(rank: int, i: int) -> ConformalElement:
    coords = [MultiPoly.zero()] * rank
    coords[i] = MultiPoly.const(1)
    return ConformalElement(tuple(coords))


class PdModuleMap:
    """A D-linear map between free modules: a matrix of polynomials in D."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionError("ragged matrix")
            for p in row:
                bad = p.variables() - {D}
                if bad:
                    raise ValueError(f"map entry uses a non-D variable: {print_poly(p)}")

    @staticmethod
    def identity(n: int) -> "PdModuleMap":
        one, zero = MultiPoly.const(1), MultiPoly.zero()
        return PdModuleMap(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(rows: int, cols: int | None = None) -> "PdModuleMap":
        cols = rows if cols is None else cols
        z = MultiPoly.zero()
        return PdModuleMap([[z] * cols for _ in range(rows)])

    @staticmethod
    def scalar(n: int, c: Rat | MultiPoly) -> "PdModuleMap":
        p = c if isinstance(c, MultiPoly) else MultiPoly.const(c)
        z = MultiPoly.zero()
        return PdModuleMap([[p if i == j else z for j in range(n)] for i in range(n)])

    def apply(self, e: ConformalElement) -> ConformalElement:
        if self.cols != e.ambient_rank:
            raise DimensionError(f"map of width {self.cols} applied to rank {e.ambient_rank}")
        nonzero = [(j, c) for j, c in enumerate(e.coords) if not c.is_zero]
        out = []
        for row in self.entries:
            acc = MultiPoly.zero()
            for j, c in nonzero:
                entry = row[j]
                if not entry.is_zero:
                    acc = acc + entry * c
            out.append(acc)
        return ConformalElement(tuple(out))

    def compose(self, other: "PdModuleMap") -> "PdModuleMap":
        """self after other (matrix product self @ other), over nonzero
        entries only."""
        if self.cols != other.rows:
            raise DimensionError("composition shape mismatch")
        rows = []
        for left in self.entries:
            row = [MultiPoly.zero()] * other.cols
            for a, right in zip(left, other.entries):
                if not a.is_zero:
                    for j, b in enumerate(right):
                        if not b.is_zero:
                            row[j] = row[j] + a * b
            rows.append(row)
        return PdModuleMap(rows)

    def power(self, n: int) -> "PdModuleMap":
        if self.rows != self.cols:
            raise DimensionError("power of a non-square map")
        out = PdModuleMap.identity(self.rows)
        for _ in range(n):
            out = out.compose(self)
        return out

    def __add__(self, other: "PdModuleMap") -> "PdModuleMap":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("sum shape mismatch")
        return PdModuleMap(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "PdModuleMap") -> "PdModuleMap":
        return self + other.scale(-1)

    def scale(self, c: Rat) -> "PdModuleMap":
        return PdModuleMap([[p * c for p in row] for row in self.entries])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PdModuleMap)
            and self.rows == other.rows
            and self.entries == other.entries
        )

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for row in self.entries for p in row)

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(print_poly(p) for p in row) for row in self.entries
        ) + "]"


def _add_nonzero_entries(c: checked, label: str, m: PdModuleMap) -> None:
    """Record each nonzero entry of m at (label, row, column)."""
    for i, row in enumerate(m.entries):
        for j, p in enumerate(row):
            if not p.is_zero:
                c.add((label, i, j), print_poly(p))


@dataclass(frozen=True)
class ConformalAlgebra:
    rank: int
    basis_names: tuple[str, ...]
    structure: dict
    alpha: PdModuleMap

    def __post_init__(self):
        if len(self.basis_names) != self.rank:
            raise DimensionError("basis names do not match rank")
        if self.alpha.rows != self.rank or self.alpha.cols != self.rank:
            raise DimensionError("twist matrix shape does not match rank")
        check_table("structure", self.structure, self.rank, self.rank, self.rank)

    def basis(self, i: int) -> ConformalElement:
        return basis_element(self.rank, i)

    def with_structure(self, table: BracketTable) -> "ConformalAlgebra":
        return ConformalAlgebra(self.rank, self.basis_names, normalize_table(dict(table), self.rank), self.alpha)


def check_table(name: str, table: dict, rows: int, cols: int, rank: int) -> None:
    """Refuse a key of table `name` that is not a pair in range(rows) x
    range(cols), a vector whose length is not `rank`, and a variable
    other than D and x."""
    for key, vec in table.items():
        if len(key) != 2 or not (0 <= key[0] < rows and 0 <= key[1] < cols) or len(vec) != rank:
            raise DimensionError(f"bad {name} entry at {key}")
        if any(p.variables() - {D, X} for p in vec):
            raise ValueError(f"{name} polynomial at {key} uses a forbidden variable")


def normalize_table(table: dict, rank: int) -> dict:
    """Drop all-zero rows so table equality is meaningful."""
    out = {}
    for key, vec in table.items():
        if any(not p.is_zero for p in vec):
            out[key] = tuple(vec)
    return out


# ---------------------------------------------------------------------------
# bracket evaluation
# ---------------------------------------------------------------------------


def eval_table_bracket(
    table: BracketTable,
    rank: int,
    left: ConformalElement,
    right: ConformalElement,
    w: MultiPoly,
) -> ConformalElement:
    """Sesquilinear extension of a structure table, at parameter w.

    w is a polynomial, linear in practice, and may mention D (the
    skew-symmetry check passes -D - l1); the D in w then refers to the D
    acting on the result.  One evaluator is built for the call: checks
    and constructions build one per table and parameter with `_table_at`
    and evaluate it as cells instead.
    """
    if left.ambient_rank != rank or right.ambient_rank != rank:
        raise DimensionError("element rank does not match the bracket table")
    return _table_at(table, rank, Parameters.of((w,)))((left, right))


@dataclass(frozen=True)
class Parameters:
    """The parameters w_1..w_(n-1) of an arity-n evaluator, the one input
    an evaluator takes: `polys`, the polynomials w_s (each the target of
    the stored variable it replaces), and `targets`, the D target of each
    argument slot, -w_s for slot s < n and D + w_1 + ... + w_(n-1) for
    the last.

    They always hold `shifts`, each slot's compiled D -> target, and,
    when built for the variables `stored` of one kind of table,
    `relabel`, those variables to `polys` at once.  The engine's
    constants, `AT_*` (tables at x) and `cohomology._ARITIES` (cochains),
    are built at import and held for the life of the process, so the
    powers and monomial images their substitutions build serve every
    later call; threads may share them (see the kernel).  The public
    evaluation functions build theirs per call, and their evaluator
    compiles its relabel for that call alone.  Equality compares `polys`
    and `targets`: the rest is compiled from them."""

    polys: tuple[MultiPoly, ...]
    targets: tuple[MultiPoly, ...]
    shifts: tuple[Callable[[MultiPoly], MultiPoly], ...] = field(compare=False)
    stored: tuple[int, ...] | None = field(default=None, compare=False)
    relabel: Callable[[MultiPoly], MultiPoly] | None = field(default=None, compare=False)

    @staticmethod
    def of(
        ws: Sequence[MultiPoly],
        stored: Sequence[int] | None = None,
        slots: dict | None = None,
    ) -> "Parameters":
        """The parameters ws with their slot targets and shifts, and with
        their relabel for tables that store the variables `stored`, when
        given.  `slots` maps each slot target met to the target and its
        compiled D -> target that the parameters hold, so that equal
        targets share one polynomial and one shift; a builder of many
        parameters passes one dict to every call."""
        polys, slots = tuple(ws), {} if slots is None else slots
        targets = tuple(-w for w in polys) + (sum(polys, MultiPoly.var(D)),)
        for t in targets:
            if t not in slots:
                slots[t] = (t, substitution({D: t}))
        targets, shifts = (tuple(held) for held in zip(*(slots[t] for t in targets)))
        relabel = None
        if stored is not None:
            stored = tuple(stored)
            relabel = substitution(dict(zip(stored, polys)))
        return Parameters(polys, targets, shifts, stored, relabel)


def _table_at(table: BracketTable, out_rank: int, at: Parameters):
    """The evaluator of a two-slot table at x = w, the one parameter of
    `at`: f(-w) g(D + w) table[i, j], summed over the coordinates f of
    its first argument and g of its second, as `_evaluator` builds it
    (the table as an arity-2 cochain).  Each argument runs over its own
    length: in an action the algebra and the module ranks differ.  Its
    `cells` evaluates it on every pair of two argument lists."""
    return _evaluator(table, (X,), out_rank, at)


def _evaluator(
    table: Mapping,
    stored: Sequence[int],
    out_rank: int,
    at: Parameters,
    rank: int | None = None,
):
    """The sesquilinear extension of `table` at the parameters `at`, as
    a function of the argument tuple.

    The table maps n-tuples of basis indices to vectors of length
    out_rank over D and the stored parameter variables `stored` (n - 1
    of them).  Argument slot s sets D to its slot target, and the stored
    variables become the parameters' polynomials through one simultaneous
    substitution of those that move (none for a table at x); a table
    entry is substituted the first time its key is met.  The parameters
    hold each slot's compiled shift, and their relabel when built for
    `stored`; parameters built for other stored variables (a cochain at
    AT_L1, or the public `eval_*` at parameters built per call) get
    their relabel compiled here, for this evaluator.  The returned
    function refers to `table`, which keeps it alive as long as the
    evaluator is; tables are never changed once built.  Nothing is kept
    per argument.

    `batch(slots)` is its one term loop: the values on the product of
    the per-slot argument lists, in product order (None where no
    nonzero entry is met).  It reads each argument's coordinates at
    its slot's D once per call (`_coords`, checking `rank` if given),
    shares the coefficient products of a tuple's first slots and never
    multiplies by 1.  Applying the evaluator to one argument tuple is
    its one-tuple case (the zero element where that is None), and
    `cells(firsts, seconds)` its two-slot case, {(i, j): value} for the
    nonzero values only, in row order.

    `basis_cells()` is its read-out on the basis: its values on every
    tuple of basis elements, which are the table's entries relabelled,
    as {key: value} for the nonzero values only, in row order (the
    cells of the unit bases, `cells(basis, basis)` for a two-slot
    table).  It reads no coordinate and forms no shift or product.
    """
    stored = tuple(stored)
    # stored variables -> parameters, simultaneously: targets may mention them
    relabel = at.relabel if at.stored == stored else substitution(dict(zip(stored, at.polys)))
    shifts = at.shifts
    # key -> the nonzero coordinates (k, polynomial) of table[key], relabelled
    relabelled: dict[tuple[int, ...], tuple[tuple[int, MultiPoly], ...]] = {}
    zero = MultiPoly.zero()

    def entry(key: tuple[int, ...]) -> tuple[tuple[int, MultiPoly], ...]:
        values = relabelled[key] = tuple(
            (k, q) for k, p in enumerate(table.get(key, ())) if not (q := relabel(p)).is_zero
        )
        return values

    def apply(args: Sequence[ConformalElement]) -> ConformalElement:
        return batch([[a] for a in args])[0] or ConformalElement((zero,) * out_rank)

    def batch(slots: Sequence[Sequence[ConformalElement]]) -> list:
        # per slot and argument: (key part, coefficient or None for 1) pairs
        items = [[_coords(a, shifts[s], rank) for a in args] for s, args in enumerate(slots)]
        # per tuple of arguments of the slots before the last: (partial key, coefficient product) pairs
        partial = items[0] if len(items) > 1 else [[((), None)]]
        for arguments in items[1:-1]:
            partial = [[(key + i, c if f is None else f if c is None else f * c) for key, f in heads for i, c in arg]
                       for heads in partial for arg in arguments]
        out = []
        for heads in partial:
            for arg in items[-1]:
                acc = None
                for head, f in heads:
                    for i, c in arg:
                        key = head + i
                        values = relabelled.get(key)
                        if values is None:
                            values = entry(key)
                        if not values:
                            continue
                        if acc is None:
                            acc = [zero] * out_rank
                        factor = c if f is None else f if c is None else f * c
                        for k, p in values:
                            acc[k] = acc[k] + (p if factor is None else factor * p)
                out.append(acc if acc is None else ConformalElement(tuple(acc)))
        return out

    def cells(firsts: Sequence[ConformalElement], seconds: Sequence[ConformalElement]) -> dict:
        return {divmod(i, len(seconds)): v for i, v in enumerate(batch((firsts, seconds))) if v is not None and not v.is_zero}

    def basis_cells() -> dict:
        out = {}
        for key in sorted(table):
            values = entry(key)
            if values:
                coords = [zero] * out_rank
                for k, p in values:
                    coords[k] = p
                out[key] = ConformalElement(tuple(coords))
        return out

    apply.batch = batch
    apply.cells = cells
    apply.basis_cells = basis_cells
    return apply


def _coords(a: ConformalElement, shift: Callable[[MultiPoly], MultiPoly], rank: int | None) -> list:
    """The nonzero coordinates of `a` at D = its slot's target, `shift`
    of each, as ((index,), coefficient) pairs with None for a coefficient
    equal to 1, leaving out those that become zero (`poly.nonzero_images`).
    A constant coordinate, such as those of a basis element, is its own
    value at every target and is not passed to `shift`.  With `rank`
    given, an argument of another rank raises DimensionError."""
    if rank is not None and a.ambient_rank != rank:
        raise DimensionError(f"argument of rank {a.ambient_rank} where rank {rank} is expected")
    return nonzero_images(a.coords, shift)


def eval_bracket(
    alg: ConformalAlgebra,
    left: ConformalElement,
    right: ConformalElement,
    w: MultiPoly,
) -> ConformalElement:
    return eval_table_bracket(alg.structure, alg.rank, left, right, w)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


L1 = MultiPoly.var(lam(1))
L2 = MultiPoly.var(lam(2))
XF = MultiPoly.var(X)
L12 = L1 + L2
# the parameters of the checks: x, l1, l2, l1 + l2 and the skew flip -l1 - D
AT_X, AT_L1, AT_L2, AT_L12, AT_FLIP = (Parameters.of((w,), (X,)) for w in (XF, L1, L2, L12, -L1 - MultiPoly.var(D)))


# Each check and construction builds one evaluator per table and
# parameter (`_table_at`), names it and evaluates it as cells.  The
# argument lists are built once: the basis, its images under a twist or
# operator, and the basis-pair products per table and parameter, so
# each twist or operator image is applied once.  The basis-pair products
# of a table are its read-out (`basis_cells`), not an evaluation.


def _basis_and_images(rank: int, m: PdModuleMap) -> tuple[list, list]:
    """The basis of a free module of this rank, and its images under m."""
    basis = [basis_element(rank, i) for i in range(rank)]
    return basis, [m.apply(e) for e in basis]


def _table(cells: dict) -> dict:
    """Basis-pair products {(i, j): value} as a table: (i, j) -> the
    coordinates of the value, for the nonzero values only."""
    return {key: v.coords for key, v in cells.items() if not v.is_zero}


def _applied(m: PdModuleMap, cells: dict) -> dict:
    """m applied to every value of cells."""
    return {key: m.apply(v) for key, v in cells.items()}


def _rekeyed(cells: dict, order: tuple) -> dict:
    """cells with their keys' indices reordered: index t of a new key is
    index order[t] of the old one."""
    return {tuple(key[t] for t in order): v for key, v in cells.items()}


def _by_cells(ev, firsts: list, products: dict) -> dict:
    """ev(firsts[a], products[key]) at (a,) + key, nonzero values only:
    one `cells` call whose second argument list is the product values."""
    keys = list(products)
    return {(a,) + keys[b]: v for (a, b), v in ev.cells(firsts, list(products.values())).items()}


def _cells_by(ev, products: dict, seconds: list) -> dict:
    """ev(products[key], seconds[c]) at key + (c,), nonzero values only:
    one `cells` call whose first argument list is the product values."""
    keys = list(products)
    return {keys[a] + (c,): v for (a, c), v in ev.cells(list(products.values()), seconds).items()}


def _signed_sum(plus: Sequence[dict], minus: Sequence[dict] = ()) -> dict:
    """The sum of the plus cells minus the sum of the minus cells, as
    cells: over the sorted union of their keys, nonzero sums only."""
    out = {}
    for key in sorted(set().union(*plus, *minus)):
        added = [cells[key] for cells in plus if key in cells]
        taken = [cells[key] for cells in minus if key in cells]
        value = sum(added[1:], added[0]) if added else -taken.pop()
        for v in taken:
            value = value - v
        if not value.is_zero:
            out[key] = value
    return out


def _residual(c: checked, prefix: tuple, plus: Sequence[dict], minus: Sequence[dict] = ()) -> None:
    """Record in the checked block c, at prefix + key, each nonzero value
    of the signed sum of cells (`_signed_sum`)."""
    for key, value in _signed_sum(plus, minus).items():
        c.add(prefix + key, str(value))


# The identities that the checks and constructions share, each written
# once.  They take evaluators, as `_table_at` builds them, and the cells
# of basis-pair products, keyed by basis indices.  Each identity is one
# `_residual` of cells keyed in its own index order.


def _morphism(c: checked, prefix: tuple, m: PdModuleMap, src, dst) -> None:
    """m(src(p, q)) - dst(m p, m q) on every basis pair, where src and dst
    evaluate the source and the target table at one parameter."""
    _, images = _basis_and_images(m.cols, m)
    _residual(c, prefix, [_applied(m, src.basis_cells())], [dst.cells(images, images)])


def _deformed_products(ev, first: tuple, second: tuple, outer: PdModuleMap, plain=None) -> dict:
    """ev(a p, q) + ev(p, b q) - outer(ev(p, q)) for an evaluator ev of a
    table, as the cells {(i, j): value} of p = p_i and q = q_j: nonzero
    values only, in row order, combined from the cells of the three terms.
    `first` and `second` are the lists that p and q run over with their
    images under a and b, as `_basis_and_images` gives them.  `plain`,
    when given, is the cells ev(p, q) already built; without it p and q
    run over the unit bases, and ev(p, q) is the table's read-out
    (`basis_cells`).  With a = b = outer = N it is the Nijenhuis-deformed
    bracket."""
    (firsts, a_images), (seconds, b_images) = first, second
    plain = ev.basis_cells() if plain is None else plain
    return _signed_sum([ev.cells(a_images, seconds), ev.cells(firsts, b_images)], [_applied(outer, plain)])


def _leibniz(c: checked, prefix: tuple, twisted: list, terms: list) -> None:
    """The sum over ((f, fs), (g, gs), (h, hs)) in terms of

        f(a p, fs[j, k]) - (g(gs[i, j], a r) + h(a q, hs[i, k]))

    on every basis triple (p, q, r) = (e_i, e_j, e_k), where twisted
    holds the a(e_i), f, g and h evaluate tables at w1, w1+w2 and w2,
    and fs, gs and hs are cells of basis-pair products.  Each of the
    three is one `cells` call per term."""
    plus, minus = [], []
    for (f, fs), (g, gs), (h, hs) in terms:
        plus.append(_by_cells(f, twisted, fs))
        minus += [_cells_by(g, gs, twisted), _rekeyed(_by_cells(h, twisted, hs), (1, 0, 2))]
    _residual(c, prefix, plus, minus)


def _relative_operator(c: checked, prefix: tuple, alg, rep, t: PdModuleMap, phi=None) -> None:
    """The relative operator identity of t from the module of `rep` (a
    Representation over alg) into alg, on module basis pairs (m, n) at l1:

        [t m, t n] - t(l(t m) n + r(m) t n [+ phi(t m, t n)]),

    with phi an evaluator of two arguments at l1; before it, the entries
    of alpha t - t beta, labelled twist_compat.  The bracket and both
    actions are one evaluator and one `cells` call each."""
    _add_nonzero_entries(c, "twist_compat", alg.alpha.compose(t) - t.compose(rep.beta))
    mods, images = _basis_and_images(rep.rank, t)
    inners = [
        _table_at(rep.l_structure, rep.rank, AT_L1).cells(images, mods),
        _table_at(rep.r_structure, rep.rank, AT_L1).cells(mods, images),
    ]
    if phi is not None:
        inners.append(phi.cells(images, images))
    bracket = _table_at(alg.structure, alg.rank, AT_L1).cells(images, images)
    _residual(c, prefix, [bracket], [_applied(t, _signed_sum(inners))])


def _skew(c: checked, prefix: tuple, ev, flip) -> None:
    """ev(p, q) + flip(q, p) on every basis pair, where ev and flip
    evaluate one table at l1 and at -l1 - D."""
    _residual(c, prefix, [ev.basis_cells(), _rekeyed(flip.basis_cells(), (1, 0))])


def verify_multiplicativity(alg: ConformalAlgebra) -> Report:
    """twist([e_i x e_j]) must equal [twist(e_i) x twist(e_j)]."""
    with checked("multiplicativity") as c:
        br = _table_at(alg.structure, alg.rank, AT_X)
        _morphism(c, (), alg.alpha, br, br)
    return c.report


def verify_hom_leibniz(alg: ConformalAlgebra) -> Report:
    """Twisted left Leibniz identity on all basis triples.

    [a(p) w1 [q w2 r]] = [[p w1 q] w1+w2 a(r)] + [a(q) w2 [p w1 r]]

    The bracket is one evaluator at each of w1, w2 and w1+w2, and the
    basis-pair brackets at w1 and at w2 are built once per check.
    """
    with checked("hom_leibniz") as c:
        br1, br2, br12 = (_table_at(alg.structure, alg.rank, w) for w in (AT_L1, AT_L2, AT_L12))
        _, twisted = _basis_and_images(alg.rank, alg.alpha)
        at1, at2 = br1.basis_cells(), br2.basis_cells()
        _leibniz(c, (), twisted, [((br1, at2), (br12, at1), (br2, at1))])
    return c.report


def verify_skew_symmetry(alg: ConformalAlgebra) -> Report:
    """Conformal skew-symmetry [p w q] = -[q (-w - D) p]; marks Lie-ness."""
    with checked("skew_symmetry") as c:
        br, flip = (_table_at(alg.structure, alg.rank, w) for w in (AT_L1, AT_FLIP))
        _skew(c, (), br, flip)
    return c.report


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def virasoro() -> ConformalAlgebra:
    """Rank-1 algebra with bracket (D + 2x) on its generator."""
    p = MultiPoly.var(D) + MultiPoly.var(X) * 2
    return ConformalAlgebra(
        rank=1,
        basis_names=("L",),
        structure={(0, 0): (p,)},
        alpha=PdModuleMap.identity(1),
    )


def current_algebra(
    rank: int,
    constants: Mapping[tuple[int, int], Sequence[Rat]],
    twist: Sequence[Sequence[Rat]],
    basis_names: Sequence[str] | None = None,
) -> ConformalAlgebra:
    """Lift a finite-dimensional algebra to a conformal one.

    Structure constants become constant structure polynomials and the
    twist matrix lifts entrywise.  The lift satisfies the conformal
    Leibniz identity exactly when the input satisfies the
    finite-dimensional one.
    """
    structure = {}
    for (i, j), vec in constants.items():
        if len(vec) != rank:
            raise DimensionError(f"constant vector at {(i, j)} has wrong length")
        structure[(i, j)] = tuple(MultiPoly.const(v) for v in vec)
    alpha = PdModuleMap([[MultiPoly.const(v) for v in row] for row in twist])
    names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(rank))
    return ConformalAlgebra(rank, names, normalize_table(structure, rank), alpha)
