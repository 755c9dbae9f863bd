"""Cochains and the three coboundary operators.

An n-cochain stores, for each n-tuple of algebra basis indices, a module
vector over polynomials in D and l1..l(n-1).  Evaluation on arbitrary
arguments extends the table multilinearly together with the slot rules

    slot i < n : a D acting on argument i becomes multiplication by -w_i,
    slot n     : a D on the last argument becomes D + w_1 + ... + w_(n-1),

where w_1..w_(n-1) are the evaluation parameters.  Stored cochains always
use the canonical variables l1..l(n-1); every application with a shuffled
parameter list substitutes them positionally (and simultaneously) at
evaluation time.

Coboundary convention.  The degree-raising operator has three groups of
terms: single left actions l(p_i) with sign (-1)^(i+1), one right action
with sign (-1)^(n+1), and bracket insertions in which [p_i w_i p_j]
replaces the argument p_j (argument i removed, the other arguments
twisted), carrying parameter w_i + w_j and sign (-1)^i.  When j = n+1
the bracket occupies the final slot, which carries no parameter of its
own, so no extra parameter appears.  This placement makes the operator
square to zero on every algebra satisfying the twisted Leibniz identity,
including non-skew ones.  The alternative convention that moves the
bracket to the front with sign (-1)^(i+j) squares to zero only on skew
(Lie-type) brackets; the square-zero tests reject it on the rank-2
current-algebra example.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from random import Random
from typing import Callable

from .poly import MAX_ARITY, D, MultiPoly, X, lam, nonzero_images, substitution
from .report import Report, checked
from .operators import _check_square
from .representation import Representation
from .structure import (
    AT_X,
    ConformalAlgebra,
    ConformalElement,
    DimensionError,
    Parameters,
    PdModuleMap,
    _basis_and_images,
    _deformed_products,
    _evaluator as _sesquilinear,
    _table_at,
    normalize_table,
)

@dataclass(frozen=True)
class Cochain:
    arity: int
    alg_rank: int
    rep_rank: int
    table: dict  # n-tuple of basis indices -> tuple of MultiPoly

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("cochains start at arity 1")
        allowed = {D} | {lam(i) for i in range(1, self.arity)}
        for key, vec in self.table.items():
            if len(key) != self.arity or len(vec) != self.rep_rank or min(key) < 0 or max(key) >= self.alg_rank:
                raise DimensionError(f"bad cochain entry at {key}")
            for p in vec:
                if p.variables() - allowed:
                    raise ValueError(
                        f"cochain value at {key} uses a variable outside D, l1..l{self.arity - 1}"
                    )

    def value(self, key: tuple[int, ...]) -> tuple[MultiPoly, ...]:
        return self.table.get(key, (MultiPoly.zero(),) * self.rep_rank)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for vec in self.table.values() for p in vec)

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, MultiPoly.__add__)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, MultiPoly.__sub__)

    def _combine(self, other: "Cochain", op) -> "Cochain":
        """op on each coordinate of the two tables, key by key."""
        self._match(other)
        keys = set(self.table) | set(other.table)
        table = {
            k: tuple(op(a, b) for a, b in zip(self.value(k), other.value(k))) for k in keys
        }
        return _cochain(self.arity, self.alg_rank, self.rep_rank, normalize_table(table, self.rep_rank))

    def __neg__(self) -> "Cochain":
        table = {k: tuple(-p for p in vec) for k, vec in self.table.items()}
        return _cochain(self.arity, self.alg_rank, self.rep_rank, normalize_table(table, self.rep_rank))

    def scale(self, c) -> "Cochain":
        if not isinstance(c, MultiPoly):
            c = MultiPoly.const(c)
        table = {k: tuple(c * p for p in vec) for k, vec in self.table.items()}
        return (Cochain if c.variables() else _cochain)(self.arity, self.alg_rank, self.rep_rank, normalize_table(table, self.rep_rank))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        self._match(other)
        return (self - other).is_zero

    def _match(self, other: "Cochain"):
        if (self.arity, self.alg_rank, self.rep_rank) != (
            other.arity,
            other.alg_rank,
            other.rep_rank,
        ):
            raise DimensionError("cochain shapes differ")


def _cochain(arity: int, alg_rank: int, rep_rank: int, table: dict) -> Cochain:
    """A cochain the engine builds from checked data (or by a constant
    factor), valid by construction: made without `Cochain`'s checks."""
    f = object.__new__(Cochain)
    f.__dict__.update(arity=arity, alg_rank=alg_rank, rep_rank=rep_rank, table=table)
    return f


def zero_cochain(arity: int, alg_rank: int, rep_rank: int) -> Cochain:
    return Cochain(arity, alg_rank, rep_rank, {})


def cochain_from_map(m: PdModuleMap) -> Cochain:
    """View a module map L -> M as an arity-1 cochain."""
    table = {}
    for i in range(m.cols):
        vec = tuple(m.entries[k][i] for k in range(m.rows))
        if any(not p.is_zero for p in vec):
            table[(i,)] = vec
    return Cochain(1, m.cols, m.rows, table)


def cochain_from_bracket_table(table, rank: int) -> Cochain:
    """View a bracket table (values in D, x) as an arity-2 cochain in D, l1."""
    l1 = MultiPoly.var(lam(1))
    out = {key: tuple(p.substitute(X, l1) for p in vec) for key, vec in table.items()}
    return Cochain(2, rank, rank, normalize_table(out, rank))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_cochain(
    f: Cochain, args: list[ConformalElement], lams: list[MultiPoly]
) -> ConformalElement:
    """Multilinear, sesquilinear extension of the stored table, at the
    polynomial parameters `lams`, one per slot but the last."""
    n = f.arity
    if len(args) != n or len(lams) != n - 1:
        raise DimensionError(
            f"arity-{n} cochain applied to {len(args)} arguments and {len(lams)} parameters"
        )
    return _evaluator(f, Parameters.of(lams))(args)


def _evaluator(f: Cochain, at: Parameters):
    """f at the parameters `at`, as a function of the argument tuple:
    `structure._evaluator` with the stored l1..l(n-1) set to them.  An
    evaluator lives for one coboundary or compatibility check; the
    parameters it reads outlive it."""
    return _sesquilinear(f.table, tuple(lam(i) for i in range(1, f.arity)), f.rep_rank, at, f.alg_rank)


def check_cochain_compat(f: Cochain, alg: ConformalAlgebra, rep: Representation) -> Report:
    """Twist equivariance: f applied to twisted arguments equals the module
    twist of f.  Checked, not enforced, so counterexamples stay expressible.
    The left side is one batch of f over the twisted basis in every slot."""
    _check_ranks(f, alg, rep)
    _, twisted = _basis_and_images(alg.rank, alg.alpha)
    values = _evaluator(f, _at_arity(f.arity).outputs).batch([twisted] * f.arity)
    with checked("cochain_twist_equivariance") as c:
        for key, lhs in zip(itertools.product(range(alg.rank), repeat=f.arity), values):
            rhs = rep.beta.apply(ConformalElement(f.value(key)))
            c.add_nonzero(key, -rhs if lhs is None else lhs - rhs)
    return c.report


# ---------------------------------------------------------------------------
# coboundaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Arity:
    """What d, phi and the compatibility check read an arity-n cochain
    at: per i, the parameters of the insertion terms (i, j), j = i + 1..n + 1,
    where (i, n + 1) is the left-action term i and (n, n + 1) the outputs
    l1..l(n-1), each built for the stored l1..l(n-1) (`Parameters.of`).

    It also holds the substitutions that d's frame at n (`_frame`) reads,
    compiled once: `at_ls`, x -> l_i per i, and `at_total`, x -> l_1 +
    ... + l_n, which put the cells at x at the terms' parameters; and
    `groups`, per action group, the substitution of f's stored values:
    for left group i, l1..l(n-1) to the left-action term i's parameters
    and D -> D + l_i at once, for the right group D -> -(l_1 + ... + l_n).
    Equality compares the parameters only: the substitutions are compiled
    from them."""

    outputs: Parameters
    insertions: tuple
    at_ls: tuple = field(compare=False)
    at_total: Callable = field(compare=False)
    groups: tuple = field(compare=False)


def _arities(low: int, top: int) -> tuple:
    """The parameters of arities low..top, with their substitutions,
    each built by `Parameters.of` for the stored l1..l(n-1).  Each l_k,
    D + l_k and l_i + l_j, each monomial key, each x -> l_k and each
    slot's target with its D -> target is built once and shared by every
    list that reads it.  The insertion term (i, j) of arity n reads l_s
    at the s in 1..n but i, with l_i + l_j at s = j."""
    keys = [((lam(k), 1),) for k in range(1, top + 1)]
    ls = [MultiPoly.from_int_first({key: 1}) for key in keys]
    shifts, out = [MultiPoly.var(D) + w for w in ls], []
    pairs = {(i, j): ls[i] + ls[j] for i, j in itertools.combinations(range(top), 2)}
    at_ls, slots = [substitution({X: w}) for w in ls], {}
    for n in range(low, top + 1):
        total, stored = MultiPoly.from_int_first(dict.fromkeys(keys[:n], 1)), [lam(k) for k in range(1, n)]
        insertions = []
        for i in range(n):
            rest = [k for k in range(n) if k != i]
            row = [[pairs[i, j] if k == j else ls[k] for k in rest] for j in range(i + 1, n)] + [[ls[k] for k in rest]]
            insertions.append(tuple(Parameters.of(ws, stored, slots) for ws in row))
        groups = [substitution(dict(zip([*stored, D], [*row[-1].polys, shifts[i]]))) for i, row in enumerate(insertions)]
        out.append(_Arity(insertions[-1][-1], tuple(insertions), tuple(at_ls[:n]), substitution({X: total}),
                          (*groups, substitution({D: -total}))))
    return tuple(out)


# every arity that d, d of d and phi after d reach from arity MAX_ARITY, built at import
_ARITIES = _arities(1, MAX_ARITY + 1)


def _at_arity(n: int) -> _Arity:
    """The table's parameters of arity n, or above it this call's own."""
    return _ARITIES[n - 1] if n <= len(_ARITIES) else _arities(n, n)[0]


class Complex:
    """The Hom-Leibniz complex of `alg` with coefficients in `rep`, with
    its coboundary `d` and `twisted(n_op)` its operator-twisted view.

    It holds what every coboundary reads, for as long as it lives: the
    basis e_t, its twist a(e_t) and the module basis; one evaluator per
    table at x (`structure._table_at`); and, per arity n, the nonzero
    cells of [e_a x e_b], l(a^(n-1)(e_t))_x e_b and r(e_b)_x a^(n-1)(e_t)
    and d's frame (`_frame`), built on first use.  The module functions
    build a fresh complex per call.
    """

    def __init__(self, alg: ConformalAlgebra, rep: Representation):
        self.alg, self.rep = alg, rep
        self.basis, self.twisted_basis = _basis_and_images(alg.rank, alg.alpha)
        self.mods = [rep.module_basis(b) for b in range(rep.rank)]
        self._cells: dict[int, tuple] = {}  # arity -> the cells at x
        self._frames = _Frames(self.cells)

    def d(self, f: Cochain) -> Cochain:
        """The degree-raising operator of the two-sided module complex."""
        _check_ranks(f, self.alg, self.rep)
        return _coboundary(f, self.twisted_basis, self.rep.rank, self._frames)

    def twisted(self, n_op: PdModuleMap) -> "TwistedComplex":
        return TwistedComplex(self, n_op)

    def acting(self, n: int) -> list:
        """a^(n-1)(e_t) for each basis element e_t, a applied n - 1 times."""
        acting = self.basis if n == 1 else self.twisted_basis
        for _ in range(n - 2):
            acting = [self.alg.alpha.apply(a) for a in acting]
        return acting

    @cached_property
    def evaluators(self) -> tuple:
        """The bracket, l and r tables, each one evaluator at x."""
        alg, rep = self.alg, self.rep
        return (_table_at(alg.structure, alg.rank, AT_X), _table_at(rep.l_structure, rep.rank, AT_X),
                _table_at(rep.r_structure, rep.rank, AT_X))

    def cells(self, n: int) -> tuple:
        """The bracket, l and r cells at x that d reads at arity n.  The
        bracket cells, and at arity 1, where a^0(e_t) is the basis, the l
        and r cells too, are the tables' read-outs on the basis
        (`basis_cells`); above it the actions are evaluated on the
        twisted basis."""
        if n not in self._cells:
            (br, l_ev, r_ev), acting, mods = self.evaluators, self.acting(n), self.mods
            actions = (l_ev.basis_cells(), r_ev.basis_cells()) if n == 1 else (l_ev.cells(acting, mods), r_ev.cells(mods, acting))
            self._cells[n] = (br.basis_cells(), *actions)
        return self._cells[n]


class TwistedComplex:
    """A `Complex` twisted by the operator pair (n_op, rep.n_m): d_HN is
    the plain coboundary over the deformed bracket [p q]_N = [Np q] +
    [p Nq] - N[p q] and the induced actions l'(p) m = l(Np) m + l(p) nm(m)
    - nm(l(p) m), r'(m) p = r(nm(m)) p + r(m) Np - nm(r(m) p).  Their
    cells at x are `_deformed_products` of the plain evaluators and
    cells, so no deformed table is built; this holds for every operator
    pair, Nijenhuis or not.  The basis images are the columns of n_op and
    nm (`_basis_and_images`).  The view keeps its own frame per arity and
    reads everything else from the plain complex.
    """

    def __init__(self, plain: Complex, n_op: PdModuleMap):
        self.plain, self.n_op = plain, n_op
        self._frames = _Frames(self.cells)

    def d(self, g: Cochain) -> Cochain:
        """d_HN; it checks the module operator, the ranks, then n_op's shape."""
        if self.plain.rep.n_m is None:
            raise ValueError("representation carries no module operator")
        _check_ranks(g, self.plain.alg, self.plain.rep)
        _check_square(self.plain.alg, self.n_op)
        return _coboundary(g, self.plain.twisted_basis, self.plain.rep.rank, self._frames)

    def phi(self, f: Cochain) -> Cochain:
        _check_ranks(f, self.plain.alg, self.plain.rep)
        return phi_map(f, self.n_op, self.plain.rep)

    def d_hnla(self, pair: "HNLAPair") -> "HNLAPair":
        """d(f, g) = (delta f, -partial g - phi f)."""
        df, second = self.plain.d(pair.f), -self.phi(pair.f)
        return HNLAPair(df, second if pair.g is None else second - self.d(pair.g))

    def cells(self, n: int) -> tuple:
        """The deformed bracket, l and r cells at x that d_HN reads at
        arity n, built once per arity for the view's frame."""
        c, n_op, nm = self.plain, self.n_op, self.plain.rep.n_m
        algs, mods = _basis_and_images(c.alg.rank, n_op), _basis_and_images(c.rep.rank, nm)
        actings = algs if n == 1 else (acting := c.acting(n), [n_op.apply(a) for a in acting])
        products = zip(c.evaluators, (algs, actings, mods), (algs, mods, actings), (n_op, nm, nm), c.cells(n))
        return tuple(_deformed_products(*args) for args in products)


class _Frames(dict):
    """Arity n -> d's frame at n (`_frame`), built on first use from
    `cells(n)`; a complex and each of its views hold one."""

    def __init__(self, cells):
        super().__init__()
        self.cells = cells

    def __missing__(self, n: int) -> tuple:
        frame = self[n] = _frame(n, *self.cells(n))
        return frame


def coboundary_homL(f: Cochain, alg: ConformalAlgebra, rep: Representation) -> Cochain:
    """`Complex.d` over a fresh complex."""
    return Complex(alg, rep).d(f)


def _frame(n: int, brackets: dict, l_cells: dict, r_cells: dict) -> tuple:
    """What d reads at arity n besides f, from the cells at x brackets[a, b],
    l_cells[t, b] and r_cells[b, t], as (cells, insertions, groups).
    It reads the parameters of arity n and their substitutions
    (`_at_arity`), and compiles none.

    No cell mentions x, so each term group reads its data off the cells
    by one substitution of x, applied to the nonzero coordinates: w_i for
    the left group i and the brackets of the insertion pairs (i, j),
    w_1 + ... + w_n for the right group.  `cells` lists the
    (a, b) of the nonzero brackets and `insertions` has, per pair (i, j),
    i, j, its parameters and those brackets at x = w_i (none when every
    bracket is zero).  By sesquilinearity

        l(p)_w (sum_b v_b e_b) = sum_b v_b(D + w) l(p)_w e_b,
        r(sum_b m_b e_b)_w q   = sum_b m_b(-w) r(e_b)_w q,

    so the left-action term i at a key is the stored value at the key
    with slot i removed, relabelled to the term's parameters and shifted
    by D -> D + w_i, against the vectors l(a^(n-1)(e_t))_(w_i) e_b; the
    right-action term is the stored value at the first n indices at
    D = -(w_1 + ... + w_n) against the vectors r(e_b)_(w_1+...+w_n)
    a^(n-1)(e_t).  Each of these n + 1 groups is (the slot of t in the
    output key, its sign, the compiled substitution of stored values, the
    columns b where some vector is nonzero, and the rows t whose vector
    is nonzero as (t, {b: its nonzero coordinates (k, c)})).  A group
    whose vectors are all zero is left out.
    """
    params = _at_arity(n)
    insertions = []
    for i, at in enumerate(params.at_ls, 1) if brackets else ():
        inner = [ConformalElement(tuple(c if c.is_zero else at(c) for c in v.coords)) for v in brackets.values()]
        insertions += [(i, j, lams, inner) for j, lams in enumerate(params.insertions[i - 1], i + 1)]
    actions = [(i, i % 2 == 0, l_cells, at) for i, at in enumerate(params.at_ls)]
    actions.append((n, n % 2 == 1, {(t, b): v for (b, t), v in r_cells.items()}, params.at_total))
    groups = []
    for (pos, plus, cells, at_w), subst in zip(actions, params.groups):
        rows = {}
        for t, b in sorted(cells):
            rows.setdefault(t, {})[b] = tuple((k, at_w(c)) for k, c in enumerate(cells[t, b].coords) if not c.is_zero)
        if rows:
            columns = sorted({b for row in rows.values() for b in row})
            groups.append((pos, plus, subst, columns, list(rows.items())))
    return list(brackets), insertions, groups


def _coboundary(f: Cochain, twisted: list, rep_rank: int, frames) -> Cochain:
    """d f from the twisted basis a(e_t) and the frame at f's arity,
    `frames[n]` (`_frame`).  A cochain with no stored key maps to zero at
    once and reads no frame.

    The insertion term (i, j) is f with argument i removed, [e_a w_i e_b]
    at position j and the other arguments twisted, with sign (-1)^i: one
    batch of one evaluator of f at the frame's parameters of (i, j), with
    its brackets at w_i in the bracket's slot.  Each action group
    substitutes each stored value of f once, in the group's columns only,
    and adds its products with the group's vectors into the same sums,
    from each stored key of f to the output keys its rows reach.  The
    table lists the nonzero sums in sorted key order.
    """
    n = f.arity
    if not f.table:
        return _cochain(n + 1, len(twisted), rep_rank, {})
    cells, insertions, groups = frames[n]
    sums, zeros = {}, [MultiPoly.zero()] * rep_rank
    for i, j, lams, inner in insertions:
        slots = [twisted] * (n - 1)
        slots.insert(j - 2, inner)  # f's argument positions: 1..n+1 but i
        values = _evaluator(f, lams).batch(slots)
        for idx, v in zip(itertools.product(*map(range, map(len, slots))), values):
            if v is not None:
                a, b = cells[idx[j - 2]]
                key = idx[: i - 1] + (a,) + idx[i - 1 : j - 2] + (b,) + idx[j - 1 :]
                out = sums.setdefault(key, zeros.copy())
                for k, c in enumerate(v.coords):
                    if not c.is_zero:
                        out[k] = out[k] + c if i % 2 == 0 else out[k] - c
    for pos, plus, subst, columns, rows in groups:
        for key, vec in f.table.items():
            vals = [(b, q) for b in columns if not (q := subst(vec[b])).is_zero]
            for t, row in rows if vals else ():
                out = sums.setdefault(key[:pos] + (t,) + key[pos:], zeros.copy())
                for b, v in vals:
                    for k, c in row.get(b, ()):
                        out[k] = out[k] + v * c if plus else out[k] - v * c
    table = {key: tuple(sums[key]) for key in sorted(sums) if any(not c.is_zero for c in sums[key])}
    return _cochain(n + 1, len(twisted), rep_rank, table)


def coboundary_HN(g: Cochain, alg: ConformalAlgebra, n_op: PdModuleMap, rep: Representation) -> Cochain:
    """`TwistedComplex.d`, d_HN, over a fresh complex."""
    return Complex(alg, rep).twisted(n_op).d(g)


def phi_map(f: Cochain, n_op: PdModuleMap, rep: Representation) -> Cochain:
    """Comparison map between the plain and operator-twisted complexes,
    the alternating sum over argument subsets S

        sum over S of (-1)^(n-|S|) nm^(n-|S|) f(n_op on S, bare off S).

    At arity 2 this is f(Np, Nq) - nm f(p, Nq) - nm f(Np, q) + nm^2 f(p, q),
    at arity 1 f(Np) - nm f(p); the commuting square on arity-n cochains
    applies phi at arity n + 1.

    It is computed as the product (A_n - nm)...(A_1 - nm) f, where A_k g
    puts n_op in slot k of g only and nm g applies nm to g's values.  A_k
    acts on arguments and nm on values, so the factors commute, and
    expanding the product picks per slot either n_op there or one factor
    -nm outside: the subset sum.  Step k builds no evaluator: at the
    outputs l1..l(n-1) of arity n (`_at_arity`) g's variables stay, so
    each stored key pushes its vector times each nonzero n_op[key[k]][t]
    at slot k's D (its held shift) to the key with t in slot k, and takes
    nm of the vector off at its own key; sums are listed in sorted key
    order.  An empty step table ends the loop, as every later step keeps
    it zero: for scalar N = nm, the first step already cancels.
    """
    if rep.n_m is None:
        raise ValueError("representation carries no module operator")
    _check_ranks(f, alg=None, rep=rep)
    if n_op.rows != f.alg_rank or n_op.cols != f.alg_rank:
        raise DimensionError("operator shape does not match the cochain")
    n, one, zeros, table = f.arity, MultiPoly.const(1), [MultiPoly.zero()] * rep.rank, f.table
    # column j of nm as its nonzero entries (i, entry), None for an entry of 1
    columns = [[(i, None if p == one else p) for i, row in enumerate(rep.n_m.entries) if not (p := row[j]).is_zero]
               for j in range(rep.rank)]
    for k, shift in enumerate(_at_arity(n).outputs.shifts):
        if not table:
            break
        rows = [nonzero_images(row, shift) for row in n_op.entries]
        sums = {}
        for key, vec in table.items():
            for (t,), c in rows[key[k]]:
                out = sums.setdefault(key[:k] + (t,) + key[k + 1 :], zeros.copy())
                for i, p in enumerate(vec):
                    if not p.is_zero:
                        out[i] = out[i] + (p if c is None else c * p)
            out = sums.setdefault(key, zeros.copy())
            for p, column in zip(vec, columns):
                if not p.is_zero:
                    for i, c in column:
                        out[i] = out[i] - (p if c is None else c * p)
        table = {key: tuple(sums[key]) for key in sorted(sums) if any(not c.is_zero for c in sums[key])}
    return _cochain(n, f.alg_rank, rep.rank, table)


def _check_ranks(f: Cochain, alg: ConformalAlgebra | None, rep: Representation):
    if alg is not None and f.alg_rank != alg.rank:
        raise DimensionError("cochain is over a different algebra rank")
    if rep.alg_rank != f.alg_rank:
        raise DimensionError("representation is over a different algebra rank")
    if f.rep_rank != rep.rank:
        raise DimensionError("cochain values live in a different module rank")


# ---------------------------------------------------------------------------
# the combined complex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HNLAPair:
    """Element of the combined complex: an arity-n cochain paired with an
    arity-(n-1) one.  The degree-1 pair carries None in the second slot,
    standing for the zero component below arity 1."""

    f: Cochain
    g: Cochain | None

    def __post_init__(self):
        if self.g is None:
            if self.f.arity != 1:
                raise DimensionError("missing lower component only allowed at arity 1")
            return
        if self.g.arity != self.f.arity - 1:
            raise DimensionError("pair arities must differ by one")
        if (self.g.alg_rank, self.g.rep_rank) != (self.f.alg_rank, self.f.rep_rank):
            raise DimensionError("pair components live over different ranks")

    @property
    def is_zero(self) -> bool:
        return self.f.is_zero and (self.g is None or self.g.is_zero)

    def __sub__(self, other: "HNLAPair") -> "HNLAPair":
        if (self.g is None) != (other.g is None):
            raise DimensionError("pair shapes differ")
        return HNLAPair(
            self.f - other.f, None if self.g is None else self.g - other.g
        )


def coboundary_HNLA(pair: HNLAPair, alg: ConformalAlgebra, n_op: PdModuleMap, rep: Representation) -> HNLAPair:
    """`TwistedComplex.d_hnla` over a fresh complex."""
    return Complex(alg, rep).twisted(n_op).d_hnla(pair)


def is_cocycle(
    x: Cochain | HNLAPair,
    alg: ConformalAlgebra,
    rep: Representation,
    n_op: PdModuleMap | None = None,
) -> tuple[bool, Report]:
    with checked("cocycle") as c:
        if isinstance(x, Cochain):
            _add_nonzero_values(c, coboundary_homL(x, alg, rep))
        else:
            if n_op is None:
                raise ValueError("pair cocycle check needs the algebra operator")
            _add_nonzero_values(c, coboundary_HNLA(x, alg, n_op, rep))
    return c.report.passed, c.report


def _add_nonzero_values(c: checked, x: Cochain | HNLAPair, label: str = "") -> None:
    """Record each nonzero value at its basis tuple.  A cochain's values
    carry `label` in front of the tuple when it is given.  A pair's two
    parts carry `label` + "upper" and `label` + "lower"; a lower part of
    None records nothing."""
    if isinstance(x, HNLAPair):
        parts = [((label + "upper",), x.f), ((label + "lower",), x.g)]
    else:
        parts = [((label,) if label else (), x)]
    for prefix, f in parts:
        if f is not None:
            for key in sorted(f.table):
                c.add_nonzero(prefix + key, ConformalElement(f.value(key)))


# ---------------------------------------------------------------------------
# random cochains for the square-zero experiments
# ---------------------------------------------------------------------------


# Coefficients one random_cochain call may draw: at 2-4 us each, a draw
# stays under about 0.4 s (what the coboundaries then cost is not bounded).
MAX_RANDOM_COEFFS = 10**5


def random_cochain(
    alg_rank: int,
    rep_rank: int,
    arity: int,
    rng: Random,
    max_deg: int = 2,
) -> Cochain:
    """Seeded random cochain with entries of total degree <= max_deg.

    Every monomial of degree <= max_deg in D, l1..l(arity-1) gets a
    coefficient from -2..2, in sorted monomial order, per coordinate of
    each key.  A draw of more than MAX_RANDOM_COEFFS coefficients is
    refused before anything is drawn."""
    if arity < 1:
        raise ValueError("cochains start at arity 1")
    if arity > MAX_ARITY:
        raise ValueError(f"arities above {MAX_ARITY} are not supported")
    count = alg_rank**arity * rep_rank * comb(max_deg + arity, arity) if max_deg >= 0 else 0
    if count > MAX_RANDOM_COEFFS:
        raise ValueError(
            f"a random cochain of {count} coefficients is above the bound of {MAX_RANDOM_COEFFS}"
        )
    monomials = sorted(_monomials([D] + [lam(i) for i in range(1, arity)], max_deg))
    table = {}
    for key in itertools.product(range(alg_rank), repeat=arity):
        vec = []
        for _ in range(rep_rank):
            terms = {}
            for mono in monomials:
                c = rng.randint(-2, 2)
                if c:
                    terms[mono] = c
            vec.append(MultiPoly(terms))
        if any(not p.is_zero for p in vec):
            table[key] = tuple(vec)
    return Cochain(arity, alg_rank, rep_rank, table)


def _monomials(vs: list[int], budget: int) -> list[tuple]:
    """Every monomial key in the variables `vs` (in increasing order) of
    total degree at most `budget`; none when the budget is negative."""
    if not vs:
        return [()]
    out = []
    for e in range(budget + 1):
        head = ((vs[0], e),) if e else ()
        out.extend(head + rest for rest in _monomials(vs[1:], budget - e))
    return out
