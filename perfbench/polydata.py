"""Input data for the benchmark, built without the program under test.

Polynomials are plain dicts in the kernel's own term format (a monomial
key is a tuple of (variable, exponent) pairs sorted by variable id; the
value is a nonzero Fraction), so they can be handed to ``MultiPoly``
directly and printed into definition files by ``text``.  Variable ids
follow ``homleib.poly``: D = 0, x = 1, l<i> = 2 + i.

The algebra families here are chosen so that every verdict is known from
the construction, not from the program:

* ``virm1``: Virasoro extended by k copies of the conformal-weight-1
  module (rank 1 + k).  The twist L -> L + sum (a_i + b_i D) M_i is an
  automorphism, and the bracket is Yau-twisted by it (bracket = twist o
  Lie bracket), so the twisted Leibniz identity, multiplicativity and
  skew-symmetry all hold.
* ``trunc``: Virasoro tensor C[t]/t^r (rank r), twisted by the unipotent
  algebra automorphism t -> t + c2 t^2 + c3 t^3, again Yau-twisted.

In both, Q = q(D) * (e0 -> span of the square-zero ideal) is a
D-dependent Nijenhuis operator, Rota-Baxter of weight 0 and modified
Rota-Baxter of weight 0 commuting with the twist; c*id is Nijenhuis,
Rota-Baxter of weight -c and modified Rota-Baxter of weight -c^2; and a
constant P with P^2 = 0 commuting with the twist and with Q generates a
formal deformation by conjugation, whose orders 0..2 pass exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

D, X = 0, 1


def lam(i: int) -> int:
    return 2 + i


# ---------------------------------------------------------------------------
# dict polynomials
# ---------------------------------------------------------------------------


def mono(c, **exps) -> dict:
    """c * D^d * x^x * l1^.. as a one-term poly; keyword names D, x, l1, l2."""
    ids = {"D": D, "x": X}
    key = []
    for name, e in exps.items():
        v = ids[name] if name in ids else lam(int(name[1:]))
        if e:
            key.append((v, e))
    c = Fraction(c)
    return {tuple(sorted(key)): c} if c else {}


def padd(*ps: dict) -> dict:
    out: dict = {}
    for p in ps:
        for k, c in p.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def pscale(p: dict, c) -> dict:
    c = Fraction(c)
    return {k: v * c for k, v in p.items()} if c else {}


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            exps = dict(ka)
            for v, e in kb:
                exps[v] = exps.get(v, 0) + e
            key = tuple(sorted(exps.items()))
            out = padd(out, {key: ca * cb})
    return out


def degree_in(p: dict, var: int) -> int:
    return max((dict(k).get(var, 0) for k in p), default=0)


def _var_text(v: int) -> str:
    return {D: "D", X: "x"}.get(v) or f"l{v - 2}"


def text(p: dict) -> str:
    """Definition-file text of a dict poly (independent of the program's printer)."""
    if not p:
        return "0"
    parts = []
    for key in sorted(p, key=lambda k: (-sum(e for _, e in k), k)):
        c = p[key]
        body = "*".join(_var_text(v) + (f"^{e}" if e > 1 else "") for v, e in key)
        mag = abs(c)
        coef = str(mag)
        if body:
            piece = body if mag == 1 else f"{coef}*{body}"
        else:
            piece = coef
        parts.append(("-" if c < 0 else "+", piece))
    sign, first = parts[0]
    out = ("-" if sign == "-" else "") + first
    for sign, piece in parts[1:]:
        out += f" {sign} {piece}"
    return out


ZERO: dict = {}
ONE = mono(1)


def identity(n: int) -> list:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_const(rows) -> list:
    return [[mono(c) for c in row] for row in rows]


def mat_add(a: list, b: list) -> list:
    return [[padd(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def apply_const(m: list, vec: list) -> list:
    """Constant matrix (Fractions, entries[row][col]) applied to a poly vector."""
    n = len(m)
    return [padd(*(pscale(vec[j], m[i][j]) for j in range(len(vec)))) for i in range(n)]


def max_d_degree(polys) -> int:
    return max((degree_in(p, D) for p in polys), default=0)


# ---------------------------------------------------------------------------
# algebra families
# ---------------------------------------------------------------------------


@dataclass
class Family:
    """One generated algebra with the operators whose verdicts are known."""

    label: str
    rank: int
    basis: list
    bracket: dict  # (i, j) -> list of dict polys in D, x (Yau-twisted)
    alpha: list  # twist matrix, dict polys in D
    q_op: list  # D-dependent square-zero Nijenhuis operator
    p_const: list  # constant P, P^2 = 0, commutes with alpha and q_op
    e_const: list  # constant matrix that does not commute with alpha

    def with_leibniz_defect(self, a) -> dict:
        """The bracket with (D + 2x) on e0, e0 replaced by (D + a x), a != 2.
        The e0-component of the Leibniz identity at (e0, e0, e0) then reduces
        to the rank-1 identity for D + a x, which holds only for a = 2."""
        out = dict(self.bracket)
        col0 = [row[0] for row in self.alpha]
        base = padd(mono(1, D=1), mono(a, x=1))
        out[(0, 0)] = [pmul(base, c) for c in col0]
        return out

    def max_d_degree(self) -> int:
        polys = [p for vec in self.bracket.values() for p in vec]
        polys += [p for m in (self.alpha, self.q_op) for row in m for p in row]
        return max_d_degree(polys)


def _rand_rat(rng: random.Random, nonzero=True) -> Fraction:
    while True:
        c = Fraction(rng.choice([1, 1, 2, 3, -1, -2, 5]), rng.choice([1, 1, 1, 2, 3]))
        if c or not nonzero:
            return c


def _rand_q(rng: random.Random) -> dict:
    """q(D) of degree 1 or 2 with nonzero leading coefficient."""
    deg = rng.choice([1, 2])
    return padd(*(mono(_rand_rat(rng), D=e) for e in range(deg + 1)))


def virm1(rng: random.Random, k: int) -> Family:
    n = 1 + k
    basis = ["L"] + [f"M{i + 1}" for i in range(k)]
    p = [padd(mono(_rand_rat(rng)), mono(_rand_rat(rng, nonzero=False), D=1)) for _ in range(k)]
    alpha = identity(n)
    for i in range(k):
        alpha[1 + i][0] = p[i]
    vir = padd(mono(1, D=1), mono(2, x=1))
    bracket = {(0, 0): [vir] + [pmul(vir, pi) for pi in p]}
    for i in range(1, n):
        col = [ZERO] * n
        col[i] = padd(mono(1, D=1), mono(1, x=1))
        bracket[(0, i)] = col
        col = [ZERO] * n
        col[i] = mono(1, x=1)
        bracket[(i, 0)] = col
    q = _rand_q(rng)
    q_op = [[ZERO] * n for _ in range(n)]
    p_const = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        q_op[i][0] = pscale(q, _rand_rat(rng))
        p_const[i][0] = _rand_rat(rng)
    e_const = [[Fraction(0)] * n for _ in range(n)]
    e_const[1][1] = Fraction(1)
    return Family(f"virm1_r{n}", n, basis, bracket, alpha, q_op, p_const, e_const)


def trunc(rng: random.Random, r: int) -> Family:
    basis = [f"T{i}" for i in range(r)]
    c2 = _rand_rat(rng)
    c3 = _rand_rat(rng, nonzero=False)
    # sigma(t) as coefficients over t^0..t^(r-1); powers truncated at t^r
    sig_t = [Fraction(0), Fraction(1), c2, c3][:r] + [Fraction(0)] * max(0, r - 4)

    def tmul(a, b):
        out = [Fraction(0)] * r
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j < r:
                    out[i + j] += x * y
        return out

    powers = [[Fraction(1)] + [Fraction(0)] * (r - 1)]
    for _ in range(1, r):
        powers.append(tmul(powers[-1], sig_t))
    alpha = [[mono(powers[col][row]) for col in range(r)] for row in range(r)]
    vir = padd(mono(1, D=1), mono(2, x=1))
    bracket = {}
    for i in range(r):
        for j in range(r):
            if i + j < r:
                bracket[(i, j)] = [pscale(vir, c) for c in powers[i + j]]
    q_op = [[ZERO] * r for _ in range(r)]
    q_op[r - 1][0] = _rand_q(rng)
    p_const = [[Fraction(0)] * r for _ in range(r)]
    p_const[r - 1][0] = _rand_rat(rng)
    e_const = [[Fraction(0)] * r for _ in range(r)]
    e_const[1][1] = Fraction(1)
    return Family(f"trunc_r{r}", r, basis, bracket, alpha, q_op, p_const, e_const)


FAMILY_SHAPES = [("virm1", 1), ("virm1", 2), ("virm1", 3), ("trunc", 3), ("trunc", 4)]


def make_family(shape, rng: random.Random) -> Family:
    kind, size = shape
    return virm1(rng, size) if kind == "virm1" else trunc(rng, size)


def conjugation_orders(fam: Family) -> tuple[dict, dict]:
    """Orders 1 and 2 of the bracket conjugated by id + t P (P^2 = 0).

    The exact series also has an order-3 term; the order-n equations only
    involve orders up to n, so orders 0..2 pass when stored alone."""
    n, P, bracket = fam.rank, fam.p_const, fam.bracket
    zero_vec = [ZERO] * n

    def b(i, j):
        return bracket.get((i, j), zero_vec)

    def b_left(i, j):  # b(P e_i, e_j)
        return [padd(*(pscale(b(a, j)[k], P[a][i]) for a in range(n))) for k in range(n)]

    def b_right(i, j):  # b(e_i, P e_j)
        return [padd(*(pscale(b(i, c)[k], P[c][j]) for c in range(n))) for k in range(n)]

    o1, o2 = {}, {}
    for i in range(n):
        for j in range(n):
            mixed = [padd(x, y) for x, y in zip(b_left(i, j), b_right(i, j))]
            v1 = [padd(m, pscale(pv, -1)) for m, pv in zip(mixed, apply_const(P, b(i, j)))]
            both = [
                padd(*(pscale(b(a, c)[k], P[a][i] * P[c][j]) for a in range(n) for c in range(n)))
                for k in range(n)
            ]
            v2 = [padd(x, pscale(y, -1)) for x, y in zip(both, apply_const(P, mixed))]
            if any(v1):
                o1[(i, j)] = v1
            if any(v2):
                o2[(i, j)] = v2
    return o1, o2
