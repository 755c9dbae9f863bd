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
from dataclasses import dataclass
from math import comb
from random import Random

from .poly import MAX_ARITY, D, MultiPoly, LinearForm, X, lam, substitution
from .report import Report, checked
from .operators import deformed_bracket
from .representation import Representation, induced_representation
from .structure import (
    ConformalAlgebra,
    ConformalElement,
    DimensionError,
    PdModuleMap,
    _evaluator as _sesquilinear,
    _table_at,
    basis_element,
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
            if len(key) != self.arity or len(vec) != self.rep_rank:
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
        return Cochain(self.arity, self.alg_rank, self.rep_rank, normalize_table(table, self.rep_rank))

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c) -> "Cochain":
        if not isinstance(c, MultiPoly):
            c = MultiPoly.const(c)
        table = {k: tuple(c * p for p in vec) for k, vec in self.table.items()}
        return Cochain(self.arity, self.alg_rank, self.rep_rank, normalize_table(table, self.rep_rank))

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
    out = {}
    l1 = LinearForm.variable(lam(1))
    for key, vec in table.items():
        out[key] = tuple(p.substitute(X, l1) for p in vec)
    return Cochain(2, rank, rank, normalize_table(out, rank))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_cochain(
    f: Cochain, args: list[ConformalElement], lams: list[LinearForm]
) -> ConformalElement:
    """Multilinear, sesquilinear extension of the stored table."""
    n = f.arity
    if len(args) != n or len(lams) != n - 1:
        raise DimensionError(
            f"arity-{n} cochain applied to {len(args)} arguments and {len(lams)} parameters"
        )
    return _evaluator(f, lams)(args)


def _evaluator(f: Cochain, lams: list[LinearForm]):
    """f at the parameter list `lams`, as a function of the argument
    tuple: `structure._evaluator` with the stored l1..l(n-1) set to
    `lams`.  An evaluator lives for one coboundary, `phi_map` or
    compatibility check."""
    stored = [lam(i) for i in range(1, f.arity)]
    return _sesquilinear(f.table, stored, f.rep_rank, lams, f.alg_rank)


def check_cochain_compat(f: Cochain, alg: ConformalAlgebra, rep: Representation) -> Report:
    """Twist equivariance: f applied to twisted arguments equals the module
    twist of f.  Checked, not enforced, so counterexamples stay expressible."""
    evaluate = _evaluator(f, _output_lams(f.arity - 1))
    twisted = [alg.alpha.apply(alg.basis(t)) for t in range(alg.rank)]
    with checked("cochain_twist_equivariance") as c:
        for key in itertools.product(range(alg.rank), repeat=f.arity):
            lhs = evaluate([twisted[t] for t in key])
            rhs = rep.beta.apply(ConformalElement(f.value(key)))
            c.add_nonzero(key, lhs - rhs)
    return c.report


# ---------------------------------------------------------------------------
# coboundaries
# ---------------------------------------------------------------------------


def _output_lams(n: int) -> list[LinearForm]:
    return [LinearForm.variable(lam(i)) for i in range(1, n + 1)]


def _l_term_lams(n: int, i: int) -> list[LinearForm]:
    """Parameters for the hatted application in the i-th left-action term."""
    return [LinearForm.variable(lam(k)) for k in range(1, n + 1) if k != i]


def _insertion_lams(n: int, i: int, j: int) -> list[LinearForm]:
    """Parameters for the insertion term (i, j): argument i removed, the
    bracket of arguments i and j standing at position j among 1..n+1."""
    occupants = [s for s in range(1, n + 2) if s != i]
    out = []
    for s in occupants[: n - 1]:
        if s == j:
            out.append(LinearForm.variable(lam(i)) + LinearForm.variable(lam(j)))
        else:
            out.append(LinearForm.variable(lam(s)))
    return out


def coboundary_homL(f: Cochain, alg: ConformalAlgebra, rep: Representation) -> Cochain:
    """The degree-raising operator of the two-sided module complex.

    The action terms go through action vectors.  By sesquilinearity

        l(p)_w (sum_b v_b e_b) = sum_b v_b(D + w) l(p)_w e_b,
        r(sum_b m_b e_b)_w q   = sum_b m_b(-w) r(e_b)_w q,

    so the left-action term i at a key is the stored value at the key
    with slot i removed, relabelled to the term's parameters and shifted
    by D -> D + w_i, against the vectors l(a(e_t))_(w_i) e_b of the
    acting basis element; the right-action term is the stored value at
    the first n indices at D = -(w_1 + ... + w_n) against the vectors
    r(e_b)_(w_1+...+w_n) a(e_t).  Each stored value is substituted once
    per term group, by one compiled substitution.  The structure data is
    one grid per table and parameter (`structure._table_at`): the basis-pair
    brackets at each w_i, the left action vectors at each w_i and the
    right action vectors at w_1+...+w_n, each from one evaluator built
    for this call.  The loop over output keys then only multiplies, adds
    and looks up.  The insertion terms apply one evaluator of f per pair
    (i, j) to the basis-pair brackets and twisted basis elements.

    No term that a structure constant makes zero is computed: an
    insertion term whose bracket is zero is skipped before its argument
    list is built, and the evaluator of f for (i, j) is built on first
    use, so an empty bracket table builds none; in each action group, a
    stored coordinate b is substituted only when some action vector in
    column b is nonzero.  coboundary_HN inherits both rules.
    """
    _check_ranks(f, alg, rep)
    n = f.arity
    alpha_pow = alg.alpha.power(n - 1)
    basis = [alg.basis(t) for t in range(alg.rank)]
    twisted = [alg.alpha.apply(e) for e in basis]
    acting = [alpha_pow.apply(e) for e in basis]
    mods = [rep.module_basis(b) for b in range(rep.rank)]
    ws = _output_lams(n)
    total = LinearForm()
    for w in ws:
        total = total + w
    shift = LinearForm.variable(D)
    zero = MultiPoly.zero()
    insert = {}  # (i, j) -> evaluator of f, built when a bracket needs it
    # [e_a w_i e_b] at [i - 1][a][b]
    brackets = [_table_at(alg.structure, alg.rank, w).grid(basis, basis) for w in ws]
    # l(a(e_t)) w_i e_b at [i - 1][t][b], and r(e_b) total a(e_t) at [t][b]
    l_grids = [_table_at(rep.l_structure, rep.rank, w).grid(acting, mods) for w in ws]
    l_vectors = [[[v.coords for v in row] for row in grid] for grid in l_grids]
    r_vectors = [[v.coords for v in col] for col in zip(*_table_at(rep.r_structure, rep.rank, total).grid(mods, acting))]
    # left group i: stored l1..l(n-1) -> the term's parameters, D -> D + w_i
    left = []
    for i in range(1, n + 1):
        targets = {lam(k): w for k, w in enumerate(_l_term_lams(n, i), 1)}
        targets[D] = shift + ws[i - 1]
        left.append(_substituted_values(f, substitution(targets), l_vectors[i - 1]))
    right = _substituted_values(f, substitution({D: -total}), r_vectors)
    table = {}
    for key in itertools.product(range(alg.rank), repeat=n + 1):
        out = [zero] * rep.rank
        # left-action terms
        for i in range(1, n + 1):
            values = left[i - 1].get(key[: i - 1] + key[i:])
            if values is not None:
                _add_action(out, values, l_vectors[i - 1][key[i - 1]], i % 2 == 1)
        # right-action term
        values = right.get(key[:n])
        if values is not None:
            _add_action(out, values, r_vectors[key[n]], (n + 1) % 2 == 0)
        # bracket-insertion terms; a zero bracket makes the term zero
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                inner = brackets[i - 1][key[i - 1]][key[j - 1]]
                if inner.is_zero:
                    continue
                evaluate = insert.get((i, j))
                if evaluate is None:
                    evaluate = insert[i, j] = _evaluator(f, _insertion_lams(n, i, j))
                args = [
                    inner if s == j else twisted[key[s - 1]]
                    for s in range(1, n + 2)
                    if s != i
                ]
                _add_value(out, evaluate(args).coords, i % 2 == 0)
        if any(not c.is_zero for c in out):
            table[key] = tuple(out)
    return Cochain(n + 1, alg.rank, rep.rank, table)


def _substituted_values(f: Cochain, subst, vectors) -> dict:
    """f's stored values with `subst` applied to each coordinate, keeping
    only the nonzero coordinates as (index, polynomial) pairs.  A
    coordinate b is substituted only when some row of the action
    `vectors` is nonzero in column b: otherwise its term is zero."""
    columns = [
        b for b in range(f.rep_rank) if any(not c.is_zero for row in vectors for c in row[b])
    ]
    out = {}
    if columns:
        for key, vec in f.table.items():
            nonzero = tuple((b, q) for b in columns if not (q := subst(vec[b])).is_zero)
            if nonzero:
                out[key] = nonzero
    return out


def _add_action(out: list, values, vectors, plus: bool) -> None:
    """out += (or -=) the sum over b of values[b] times vectors[b], in place."""
    for b, v in values:
        for k, c in enumerate(vectors[b]):
            if not c.is_zero:
                out[k] = out[k] + v * c if plus else out[k] - v * c


def _add_value(out: list, coords, plus: bool) -> None:
    """out += (or -=) coords, in place."""
    for k, c in enumerate(coords):
        if not c.is_zero:
            out[k] = out[k] + c if plus else out[k] - c


def coboundary_HN(
    g: Cochain,
    alg: ConformalAlgebra,
    n_op: PdModuleMap,
    rep: Representation,
) -> Cochain:
    """The operator-twisted coboundary: the plain coboundary over the
    deformed bracket [p q]_N with coefficients in the induced actions.

    Expanding it, each group of terms splits in three: left actions act
    through n_op on the argument, through the module operator on the
    value, and once more with the module operator pulled outside (with a
    minus sign); the right-action and insertion groups split the same
    way.  Both constructions are total and linear, so this holds for
    every operator pair, Nijenhuis or not.
    """
    if rep.n_m is None:
        raise ValueError("representation carries no module operator")
    _check_ranks(g, alg, rep)
    return coboundary_homL(g, deformed_bracket(alg, n_op), induced_representation(alg, n_op, rep))


def phi_map(f: Cochain, n_op: PdModuleMap, rep: Representation) -> Cochain:
    """Comparison map between the plain and operator-twisted complexes.

    Alternating sum over argument subsets: arguments outside the subset
    stay bare and contribute one factor of the module operator outside,

        sum over S of (-1)^(n-|S|) nm^(n-|S|) f(n_op on S, bare off S).

    At arity 2 this is the familiar four-term expression
    f(Np, Nq) - nm f(p, Nq) - nm f(Np, q) + nm^2 f(p, q); at arity 1 it is
    f(Np) - nm f(p).  The commuting-square tests force the higher terms:
    the square applies phi to delta f, one arity above f, so the square on
    arity-2 cochains forces the arity-3 sum and the square on arity-3
    cochains the arity-4 sum.  Only the scalar cases force the terms with
    two or more bare arguments; under the nilpotent operator of the
    rank-2 cases those terms vanish.

    Terms that vanish by structure are not evaluated: a slot offers the
    image n_op(e_t) only when it is nonzero, a mask whose power
    nm^(n-|S|) is the zero map is skipped, and a zero evaluation is not
    added into its count's sum.
    """
    if rep.n_m is None:
        raise ValueError("representation carries no module operator")
    _check_ranks(f, alg=None, rep=rep)
    if n_op.rows != f.alg_rank or n_op.cols != f.alg_rank:
        raise DimensionError("operator shape does not match the cochain")
    n = f.arity
    nm = rep.n_m
    nm_powers = [PdModuleMap.identity(rep.rank)]
    for _ in range(n):
        nm_powers.append(nm.compose(nm_powers[-1]))
    live = [not m.is_zero for m in nm_powers]
    evaluate = _evaluator(f, _output_lams(n - 1))
    # each slot offers its bare basis element (mask 0) and, when nonzero,
    # its image under n_op (mask 1): a zero image makes the term zero
    offers = []
    for t in range(f.alg_rank):
        e = basis_element(f.alg_rank, t)
        image = n_op.apply(e)
        offers.append(((0, e),) if image.is_zero else ((0, e), (1, image)))
    table = {}
    for key in itertools.product(range(f.alg_rank), repeat=n):
        # nm^bare is linear: sum the evaluations with the same number of
        # bare arguments, then apply it once per count
        by_bare = [None] * (n + 1)
        for choice in itertools.product(*(offers[t] for t in key)):
            bare = n - sum(m for m, _ in choice)
            if live[bare]:
                v = evaluate([a for _, a in choice])
                if not v.is_zero:
                    by_bare[bare] = v if by_bare[bare] is None else by_bare[bare] + v
        out = [MultiPoly.zero()] * rep.rank
        for bare, v in enumerate(by_bare):
            if v is not None:
                _add_value(out, nm_powers[bare].apply(v).coords, bare % 2 == 0)
        if any(not c.is_zero for c in out):
            table[key] = tuple(out)
    return Cochain(n, f.alg_rank, rep.rank, table)


def _check_ranks(f: Cochain, alg: ConformalAlgebra | None, rep: Representation):
    if alg is not None and f.alg_rank != alg.rank:
        raise DimensionError("cochain is over a different algebra rank")
    if alg is not None and rep.alg_rank != alg.rank:
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


def coboundary_HNLA(
    pair: HNLAPair,
    alg: ConformalAlgebra,
    n_op: PdModuleMap,
    rep: Representation,
) -> HNLAPair:
    """d(f, g) = (delta f, -partial g - phi f)."""
    df = coboundary_homL(pair.f, alg, rep)
    second = -phi_map(pair.f, n_op, rep)
    if pair.g is not None:
        second = second - coboundary_HN(pair.g, alg, n_op, rep)
    return HNLAPair(df, second)


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
