"""Reference for the coboundary: the per-key `coboundary_homL` that
`cohomology.coboundary_homL` replaced with action vectors.  For every
output key it applies a cochain evaluator to the basis arguments of each
left-action term and of the right-action term, and then evaluates the
action on the result.  The differential tests in test_cohomology.py
require both to give the same table, term dict for term dict."""

import itertools

from homleib.cohomology import Cochain, _check_ranks, _evaluator
from homleib.poly import MultiPoly, lam
from homleib.representation import Representation
from homleib.structure import ConformalAlgebra, Parameters, zero_element
from reference_scope import _evaluation_scope, eval_bracket, eval_l, eval_r


# The parameter lists of the coboundary's terms as polynomials, built per
# call as the library built them before it held them per arity
# (`cohomology._arity`); test_cohomology.py requires both to agree.


def _output_lams(n: int) -> list[MultiPoly]:
    return [MultiPoly.var(lam(i)) for i in range(1, n + 1)]


def _l_term_lams(n: int, i: int) -> list[MultiPoly]:
    """Parameters for the hatted application in the i-th left-action term."""
    return [MultiPoly.var(lam(k)) for k in range(1, n + 1) if k != i]


def _insertion_lams(n: int, i: int, j: int) -> list[MultiPoly]:
    """Parameters for the insertion term (i, j): argument i removed, the
    bracket of arguments i and j standing at position j among 1..n+1."""
    occupants = [s for s in range(1, n + 2) if s != i]
    out = []
    for s in occupants[: n - 1]:
        if s == j:
            out.append(MultiPoly.var(lam(i)) + MultiPoly.var(lam(j)))
        else:
            out.append(MultiPoly.var(lam(s)))
    return out


def coboundary_homL(f: Cochain, alg: ConformalAlgebra, rep: Representation) -> Cochain:
    """The degree-raising operator of the two-sided module complex.

    What depends on no output key is computed before the loop over keys:
    the basis elements, their twists and their images under the acting
    twist power, the parameters w_1..w_n and their sum, the basis-pair
    brackets, and one evaluator of f per distinct parameter list among
    the left-action terms, the right action and the insertion pairs.
    The brackets and the key loop run in a fresh evaluation scope, so
    each action table is evaluated once per parameter, not once per key.
    The brackets stay hoisted: a lookup per insertion term costs less
    than a scoped evaluation.
    """
    _check_ranks(f, alg, rep)
    n = f.arity
    alpha_pow = alg.alpha.power(n - 1)
    basis = [alg.basis(t) for t in range(alg.rank)]
    twisted = [alg.alpha.apply(e) for e in basis]
    acting = [alpha_pow.apply(e) for e in basis]
    ws = _output_lams(n)
    total = MultiPoly.zero()
    for w in ws:
        total = total + w
    evaluators = {}

    def evaluator(lams):
        # terms with the same parameter list share one evaluator
        key = repr(lams)
        if key not in evaluators:
            evaluators[key] = _evaluator(f, Parameters.of(lams))
        return evaluators[key]

    left = [evaluator(_l_term_lams(n, i)) for i in range(1, n + 1)]
    right = evaluator(ws[: n - 1])
    insert = {
        (i, j): evaluator(_insertion_lams(n, i, j))
        for i in range(1, n + 2)
        for j in range(i + 1, n + 2)
    }
    with _evaluation_scope():
        # [e_a w_i e_b] for every insertion parameter w_i
        brackets = {
            (i, a, b): eval_bracket(alg, basis[a], basis[b], ws[i - 1])
            for i in range(1, n + 1)
            for a in range(alg.rank)
            for b in range(alg.rank)
        }
        table = {}
        for key in itertools.product(range(alg.rank), repeat=n + 1):
            acc = zero_element(rep.rank)
            # left-action terms
            for i in range(1, n + 1):
                v = left[i - 1]([basis[t] for s, t in enumerate(key) if s != i - 1])
                term = eval_l(rep, acting[key[i - 1]], v, ws[i - 1])
                acc = acc + term if (i % 2 == 1) else acc - term
            # right-action term
            w = right([basis[t] for t in key[:n]])
            term = eval_r(rep, w, acting[key[n]], total)
            acc = acc + term if (n + 1) % 2 == 0 else acc - term
            # bracket-insertion terms
            for i in range(1, n + 2):
                for j in range(i + 1, n + 2):
                    inner = brackets[i, key[i - 1], key[j - 1]]
                    args = [
                        inner if s == j else twisted[key[s - 1]]
                        for s in range(1, n + 2)
                        if s != i
                    ]
                    v = insert[i, j](args)
                    acc = acc - v if i % 2 == 1 else acc + v
            if not acc.is_zero:
                table[key] = acc.coords
    return Cochain(n + 1, alg.rank, rep.rank, table)
