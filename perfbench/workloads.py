"""The three workloads: seeded job decks and the checks on their results.

A job is one check or one CLI command.  ``build(name, seed, workdir)``
returns a ``Workload`` whose ``decks`` are lists of jobs; a run plays
whole decks in order, one job after another (a closed loop with one
client), so every run measures the same mix of job classes and the seed
only changes the inputs inside each class.

Outputs are checked three ways: cochain_dd results must be exactly zero;
axiom_checks records and cli_roundtrip stdout bytes plus exit codes must
match digests pinned in ``digests.json`` (regenerate with ``pin.py``);
and every construct command's output must parse back to the object the
library builds directly.  Verdicts of axiom_checks inputs are also known
from their construction (see ``polydata``), independently of the digests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import polydata as pdt

from homleib import (
    ConformalAlgebra,
    HNLAPair,
    OperatorKind,
    PdModuleMap,
    adjacent_algebra,
    adjoint_rep,
    coboundary_HN,
    coboundary_HNLA,
    coboundary_homL,
    current_algebra,
    deformed_bracket,
    induced_representation,
    make_deformation,
    ns_from_nijenhuis,
    phi_map,
    random_cochain,
    verify_deformation_order,
    verify_hom_leibniz,
    verify_multiplicativity,
    verify_ns_axioms,
    verify_operator,
    verify_representation,
    verify_skew_symmetry,
    virasoro,
)
from homleib import cli, definitions
from homleib.operators import verify_deformed_suite
from homleib.poly import MultiPoly
from homleib.structure import normalize_table

WORKLOADS = ("cochain_dd", "axiom_checks", "cli_roundtrip")
POOL_SEED = 2024  # inputs whose outputs are pinned are drawn from pools made from this
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class Job:
    id: str
    props: dict  # input properties printed per workload
    fn: Callable[[], object]  # the timed call


@dataclass
class Workload:
    name: str
    decks: list
    warmup: list
    check: Callable[[Job, object], str | None]  # None when the result is right
    record: Callable[[object], str]  # canonical text of a result
    probes: list = field(default_factory=list)  # (label, argv) run once, outside the load
    notes: list = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's decks for `seed`, checked against the digests
    pinned for `name` in digests.json."""
    pinned = load_digests().get(name, {})
    if name == "cochain_dd":
        return _cochain_dd(seed)
    if name == "axiom_checks":
        return _axiom_checks(seed, pinned)
    if name == "cli_roundtrip":
        return _cli_roundtrip(seed, workdir, pinned)
    raise ValueError(f"unknown workload {name!r}")


def _matrix(m: list) -> PdModuleMap:
    return PdModuleMap([[MultiPoly(p) for p in row] for row in m])


def _const_matrix(m: list) -> PdModuleMap:
    return PdModuleMap([[MultiPoly.const(c) for c in row] for row in m])


# ---------------------------------------------------------------------------
# cochain_dd
# ---------------------------------------------------------------------------

COCHAIN_DECKS = 24  # at least the decks one run plays, so no deck is played twice


def _cochain_fixtures():
    """virasoro, cur2 and twisted2 as in tests/conftest.py, each with the
    operator used for the twisted complexes (scalar 2, resp. nilpotent)."""
    z, one = MultiPoly.zero(), MultiPoly.const(1)
    nil = PdModuleMap([[z, one], [z, z]])
    return {
        "virasoro": (virasoro(), PdModuleMap.scalar(1, Fraction(2))),
        "cur2": (current_algebra(2, {(1, 1): (1, 0)}, [[1, 0], [0, 1]]), nil),
        "twisted2": (current_algebra(2, {(1, 1): (1, 0)}, [[1, 1], [0, 1]]), nil),
    }


def _cochain_job(alg_name, alg, n_op, check, arity, rng) -> Job:
    rep = dataclasses.replace(adjoint_rep(alg), n_m=n_op)
    f = random_cochain(alg.rank, rep.rank, arity, rng, 2)
    if check == "dd":
        def fn():
            return coboundary_homL(coboundary_homL(f, alg, rep), alg, rep).is_zero
    elif check == "square":
        def fn():
            lhs = phi_map(coboundary_homL(f, alg, rep), n_op, rep)
            return (lhs - coboundary_HN(phi_map(f, n_op, rep), alg, n_op, rep)).is_zero
    else:
        g = random_cochain(alg.rank, rep.rank, arity - 1, rng, 2) if arity > 1 else None
        pair = HNLAPair(f, g)

        def fn():
            once = coboundary_HNLA(pair, alg, n_op, rep)
            return coboundary_HNLA(once, alg, n_op, rep).is_zero
    props = {"arity": arity, "algebra": alg_name, "check": check, "expected": "zero"}
    return Job(f"{alg_name}/{check}/a{arity}", props, fn)


def _cochain_dd(seed: int) -> Workload:
    fixtures = _cochain_fixtures()
    rng = random.Random(seed)
    decks = []
    for _ in range(COCHAIN_DECKS):
        # Job times cluster by class.  With arity 1 three times and arity
        # 2 twice per deck (54 jobs), the median falls inside the cluster
        # of cur2/twisted2 arity-1 hnla2 jobs and the 90th percentile
        # inside the cluster of cur2/twisted2 arity-3 squares, not on a gap
        # between two classes, so both stay steady from run to run.
        deck = [
            _cochain_job(name, alg, n_op, check, arity, rng)
            for name, (alg, n_op) in fixtures.items()
            for arity in (1, 1, 1, 2, 2, 3)
            for check in ("dd", "square", "hnla2")
        ]
        rng.shuffle(deck)
        decks.append(deck)
    warm = random.Random(seed ^ 0x5EED)
    warmup = [
        _cochain_job(name, alg, n_op, check, 1, warm)
        for name, (alg, n_op) in fixtures.items()
        for check in ("dd", "square", "hnla2")
    ]

    def record(raw):
        return "zero" if raw is True else "nonzero"

    def check(job, raw):
        return None if raw is True else "result is not exactly zero"

    notes = [
        "checks: d(d f) = 0, phi(d f) = d_HN(phi f), d_HNLA(d_HNLA(f, g)) = 0;"
        " random_cochain max_deg=2, adjoint coefficients",
    ]
    return Workload("cochain_dd", decks, warmup, check, record, notes=notes)


# ---------------------------------------------------------------------------
# axiom_checks
# ---------------------------------------------------------------------------

AXIOM_VARIANTS = 3  # pool families per shape
AXIOM_DECKS = 16
AXIOM_FAILS_PER_SHAPE = 4  # of the 16 kinds, so a quarter of the jobs must fail
AXIOM_KINDS = (
    "leibniz", "multiplicativity", "skew", "nijenhuis_q", "nijenhuis_cq",
    "rb_q", "rb_c", "mrb_q", "mrb_c", "rep_adjoint", "rep_induced", "ns",
    "deformed_suite", "deform_order0", "deform_order1", "deform_order2",
)
_C = Fraction(3, 2)  # the scalar c of c*id and c*id + Q


class _AxiomInputs:
    """Library objects for one generated family, pass and fail variants."""

    def __init__(self, fam: pdt.Family, rng: random.Random):
        self.fam = fam
        n = fam.rank
        self.alg = self._algebra(fam.bracket, fam.alpha)
        self.bad = self._algebra(fam.with_leibniz_defect(rng.choice([3, 1, Fraction(5, 2)])), fam.alpha)
        bump = [[1 if (i, j) == (0, 0) else 0 for j in range(n)] for i in range(n)]
        self.bad_twist = self._algebra(fam.bracket, pdt.mat_add(fam.alpha, pdt.mat_const(bump)))
        self.q = _matrix(fam.q_op)
        self.c = PdModuleMap.scalar(n, _C)
        self.cq = self.q + self.c
        # nonconstant scalar operators: never Nijenhuis, never Rota-Baxter of weight 0
        self.pd = [PdModuleMap.scalar(n, MultiPoly(pdt.padd(pdt.mono(1, D=1), pdt.mono(k)))) for k in (1, -2)]
        o1, o2 = pdt.conjugation_orders(fam)
        tables = {k: {key: tuple(MultiPoly(p) for p in vec) for key, vec in o.items()} for k, o in ((1, o1), (2, o2))}
        self.deformation = make_deformation(self.alg, self.cq, tables, {})
        e = _const_matrix(fam.e_const)
        self.bad_deformations = [
            make_deformation(self.alg, self.cq + e, tables, {}),
            make_deformation(self.alg, self.cq, tables, {1: e}),
            make_deformation(self.alg, self.cq, tables, {2: e}),
        ]

    def _algebra(self, bracket, alpha) -> ConformalAlgebra:
        fam = self.fam
        table = {key: tuple(MultiPoly(p) for p in vec) for key, vec in bracket.items()}
        return ConformalAlgebra(fam.rank, tuple(fam.basis), normalize_table(table, fam.rank), _matrix(alpha))

    def check_fn(self, kind: str, passing: bool):
        """The timed call for one (kind, verdict); returns a list of Reports."""
        alg = self.alg if passing else self.bad
        nij, rb, mrb = OperatorKind.nijenhuis, OperatorKind.rota_baxter, OperatorKind.modified_rota_baxter
        if kind == "leibniz":
            return lambda: [verify_hom_leibniz(alg)]
        if kind == "multiplicativity":
            target = self.alg if passing else self.bad_twist
            return lambda: [verify_multiplicativity(target)]
        if kind == "skew":
            return lambda: [verify_skew_symmetry(alg)]
        op_checks = {
            "nijenhuis_q": ((self.q, nij()), (self.pd[0], nij())),
            "nijenhuis_cq": ((self.cq, nij()), (self.pd[1], nij())),
            "rb_q": ((self.q, rb(0)), (self.pd[0], rb(0))),
            "rb_c": ((self.c, rb(-_C)), (self.c, rb(_C))),
            "mrb_q": ((self.q, mrb(0)), (self.pd[1], mrb(0))),
            "mrb_c": ((self.c, mrb(-_C * _C)), (self.c, mrb(1))),
        }
        if kind in op_checks:
            op, how = op_checks[kind][0 if passing else 1]
            return lambda: [verify_operator(self.alg, op, how)]
        op = self.cq if passing else self.c
        if kind == "rep_adjoint":
            return lambda: [verify_representation(alg, adjoint_rep(alg))]
        if kind == "rep_induced":
            def fn():
                rep = dataclasses.replace(adjoint_rep(alg), n_m=op)
                return [verify_representation(deformed_bracket(alg, op), induced_representation(alg, op, rep))]
            return fn
        if kind == "ns":
            return lambda: [verify_ns_axioms(ns_from_nijenhuis(alg, op))]
        if kind == "deformed_suite":
            return lambda: verify_deformed_suite(alg, op)
        order = int(kind[-1])
        data = self.deformation if passing else self.bad_deformations[order]
        return lambda: [verify_deformation_order(data, order)]


def _axiom_pool() -> dict:
    """shape label -> list of _AxiomInputs, the same for every seed."""
    pool = {}
    for shape in pdt.FAMILY_SHAPES:
        variants = []
        for v in range(AXIOM_VARIANTS):
            rng = random.Random(f"{POOL_SEED}/{shape[0]}{shape[1]}/{v}")
            variants.append(_AxiomInputs(pdt.make_family(shape, rng), rng))
        pool[variants[0].fam.label] = variants
    return pool


def axiom_job(inputs: _AxiomInputs, v: int, kind: str, passing: bool) -> Job:
    fam = inputs.fam
    verdict = "pass" if passing else "fail"
    props = {
        "rank": fam.rank,
        "family": fam.label,
        "max_d_degree": fam.max_d_degree(),
        "expected": verdict,
        "check": kind,
    }
    return Job(f"{fam.label}/v{v}/{kind}/{verdict}", props, inputs.check_fn(kind, passing))


def axiom_pool_jobs() -> list:
    """Every job of the pool, for pinning."""
    pool = _axiom_pool()
    return [
        axiom_job(inputs, v, kind, passing)
        for variants in pool.values()
        for v, inputs in enumerate(variants)
        for kind in AXIOM_KINDS
        for passing in (True, False)
    ]


def axiom_record(raw) -> str:
    return "\n".join(r.to_record() for r in raw)


def _axiom_checks(seed: int, pinned: dict) -> Workload:
    pool = _axiom_pool()
    rng = random.Random(seed)
    decks = []
    for _ in range(AXIOM_DECKS):
        deck = []
        for variants in pool.values():
            v = rng.randrange(len(variants))
            fails = set(rng.sample(AXIOM_KINDS, AXIOM_FAILS_PER_SHAPE))
            deck += [axiom_job(variants[v], v, kind, kind not in fails) for kind in AXIOM_KINDS]
        rng.shuffle(deck)
        decks.append(deck)
    smallest = next(iter(pool.values()))[0]
    warmup = [axiom_job(smallest, 0, kind, True) for kind in AXIOM_KINDS]

    def check(job, raw):
        passed = all(r.passed for r in raw)
        if passed != (job.props["expected"] == "pass"):
            return f"verdict {'pass' if passed else 'fail'}, expected {job.props['expected']}"
        want = pinned.get(job.id)
        if want is None:
            return "no pinned digest"
        if digest(axiom_record(raw)) != want:
            return "records differ from the pinned digest"
        return None

    notes = [
        "families: virm1 (Virasoro + k weight-1 modules, twist L -> L + (a + bD) M),"
        " trunc (Virasoro x C[t]/t^r, unipotent twist); brackets Yau-twisted",
        "failing inputs: e0 bracket D + a x (a != 2), twist bumped on e0,"
        " p(D)*id operators, wrong weights, an order-n operator not commuting with the twist",
    ]
    return Workload("axiom_checks", decks, warmup, check, axiom_record, notes=notes)


# ---------------------------------------------------------------------------
# cli_roundtrip
# ---------------------------------------------------------------------------

CLI_DECKS = 16
_SHIPPED = [
    "check algebra defs/virasoro.def",
    "check lie defs/virasoro.def",
    "check nijenhuis defs/virasoro_ops.def --op scale_c",
    "check nijenhuis defs/virasoro_ops.def --op dscale",
    "check rb defs/virasoro_ops.def --op ident --weight -1",
    "check rep defs/virasoro.def",
    "check nijrep defs/virasoro_ops.def --op scale_2",
    "check ns defs/ns_example.def",
    "check twisted-rb defs/twisted_rb.def --op T --phi phi",
    "check o-operator defs/virasoro_ops.def --op zero",
    "check algebra defs/cur2_algebra.def",
    "check nijenhuis defs/cur2_algebra.def --op nilpotent",
    "construct deformed defs/virasoro_ops.def --op scale_c",
    "construct cur defs/cur2.def",
    "construct ns-from-n defs/virasoro_ops.def --op ident",
    "construct adjacent defs/ns_example.def",
    "construct induced-rep defs/virasoro_ops.def --op scale_2",
    "cohomology delta defs/virasoro_ops.def --cochain f_id",
    "cohomology delta defs/virasoro_ops.def --cochain h_bracket",
    "cohomology d-hnla defs/virasoro_ops.def --cochain h_bracket --cochain2 f_d --op scale_2",
    "deform check-order defs/deformations.def --name b --order 1",
    "deform cocycle defs/deformations.def --name b",
    "deform equiv1 defs/deformations.def --a a --b b --psi psi1",
]
_RECORDS = ("check", "deform")  # commands whose text output carries timings
_GEN_ALG_CMDS = [
    "check lie {f}",
    "check algebra {f}",
    "check nijenhuis {f} --op Q",
    "check mrb {f} --op C --weight " + str(-_C * _C),
    "construct deformed {f} --op CQ",
    "construct ns-from-n {f} --op CQ",
    "construct induced-rep {f} --op CQ",
    "cohomology delta {f} --cochain c1",
    "cohomology d-hnla {f} --cochain c1 --op CQ",
]
_GEN_DEF_CMDS = [
    "deform check-order {f} --name conj --order 0",
    "deform check-order {f} --name conj --order 1",
    "deform check-order {f} --name conj --order 2",
    "deform check-order {f} --name bad --order 1",
    "deform cocycle {f} --name conj",
]
# Malformed inputs that end today with exit 2 and one stderr line.
_MALFORMED = {
    "unknown_kind": ('[algebar]\nbasis = ["L"]\n', "check algebra {f}"),
    "unterminated": ('[algebra]\nbasis = ["L]\n', "check algebra {f}"),
    "missing_basis": ('[algebra]\nalpha = [["1"]]\n', "check algebra {f}"),
    "unknown_name": ('[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.Q = ["D"]\n', "check lie {f}"),
    "alpha_shape": ('[algebra]\nbasis = ["L"]\nalpha = [["1", "0"], ["0", "1"]]\n', "check algebra {f}"),
    "bad_poly": ('[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = ["D + + x"]\n', "check lie {f}"),
    "forbidden_var": ('[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = ["D + l1"]\n', "check lie {f}"),
    "missing_op_flag": ('[algebra]\nbasis = ["L"]\nalpha = [["1"]]\n', "check nijenhuis {f}"),
    "no_such_operator": ('[algebra]\nbasis = ["L"]\nalpha = [["1"]]\n', "check nijenhuis {f} --op nosuch"),
    "bad_arity": ('[algebra]\nbasis = ["L"]\nalpha = [["1"]]\n[cochain:c]\narity = "two"\n',
                  "cohomology delta {f} --cochain c"),
}
CLI_MALFORMED_PER_DECK = 4
# Known ROADMAP-E defects: each raises out of cli.main today instead of
# exiting 2.  They run once per run as probes, outside the timed load.
_KNOWN_DEFECTS = {
    "l0": ('[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = ["D + l0"]\n', "check lie {f}"),
    "nested_parens_3000": (
        '[algebra]\nbasis = ["L"]\nalpha = [["1"]]\nbracket.L.L = ["' + "(" * 3000 + "D" + ")" * 3000 + '"]\n',
        "check lie {f}",
    ),
    "finite_twist_shape": (
        '[finite]\nbasis = ["a", "b"]\ntwist = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]\n'
        'c.b.b = ["1", "0"]\n',
        "construct cur {f}",
    ),
}
EXCLUDED_INPUT = (
    '"(D+x+1)^400" is left out of the load: parsing has no degree or term budget'
    " (ROADMAP E), so it runs for minutes and would stall the run"
)


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list) -> CliResult:
    """cli.main in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_record(raw: CliResult) -> str:
    return f"exit={raw.code}\n{raw.out}"


def _mat_text(m) -> str:
    return "[" + ", ".join("[" + ", ".join(f'"{pdt.text(p)}"' for p in row) + "]" for row in m) + "]"


def _vec_text(vec) -> str:
    return "[" + ", ".join(f'"{pdt.text(p)}"' for p in vec) + "]"


def _algebra_text(fam: pdt.Family, name: str) -> str:
    lines = ["[algebra]", f'name = "{name}"', "basis = [" + ", ".join(f'"{b}"' for b in fam.basis) + "]",
             f"alpha = {_mat_text(fam.alpha)}"]
    for (i, j), vec in sorted(fam.bracket.items()):
        lines.append(f"bracket.{fam.basis[i]}.{fam.basis[j]} = {_vec_text(vec)}")
    return "\n".join(lines) + "\n"


def _rand_dpoly(rng: random.Random, vars_: tuple, max_deg: int) -> dict:
    terms = []
    for _ in range(rng.randint(1, 4)):
        exps = {}
        budget = rng.randint(0, max_deg)
        for v in vars_:
            e = rng.randint(0, budget)
            budget -= e
            exps[v] = e
        terms.append(pdt.mono(Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])), **exps))
    return pdt.padd(*terms)


def _gen_algebra_file(fam: pdt.Family, rng: random.Random) -> str:
    n = fam.rank
    parts = [_algebra_text(fam, f"gen_{fam.label}")]
    c_id = [[pdt.mono(_C) if i == j else pdt.ZERO for j in range(n)] for i in range(n)]
    for name, m in (("Q", fam.q_op), ("C", c_id), ("CQ", pdt.mat_add(fam.q_op, c_id))):
        parts.append(f"[operator:{name}]\nmatrix = {_mat_text(m)}\n")
    # unused sections make the file large: parsing reads them all
    for k in range(24):
        m = [[_rand_dpoly(rng, ("D",), 4) for _ in range(n)] for _ in range(n)]
        parts.append(f"# padding operator {k}\n[operator:pad{k}]\nmatrix = {_mat_text(m)}\n")
    lines = ["[cochain:c1]", 'arity = "1"']
    for i in range(n):
        lines.append(f"value.{fam.basis[i]} = {_vec_text([_rand_dpoly(rng, ('D',), 2) for _ in range(n)])}")
    parts.append("\n".join(lines) + "\n")
    lines = ["[cochain:c2]", 'arity = "2"']
    for i in range(n):
        for j in range(n):
            vec = [_rand_dpoly(rng, ("D", "l1"), 2) for _ in range(n)]
            lines.append(f"value.{fam.basis[i]}.{fam.basis[j]} = {_vec_text(vec)}")
    parts.append("\n".join(lines) + "\n")
    return "\n".join(parts)


def _gen_finite_file(rng: random.Random, rank: int) -> str:
    names = [f"f{i}" for i in range(rank)]
    lines = ["[finite]", f'name = "gen_fin{rank}"', "basis = [" + ", ".join(f'"{b}"' for b in names) + "]"]
    twist = [[str(Fraction(rng.randint(-3, 3), rng.choice([1, 2]))) if i != j else "1" for j in range(rank)]
             for i in range(rank)]
    lines.append("twist = [" + ", ".join("[" + ", ".join(f'"{c}"' for c in row) + "]" for row in twist) + "]")
    for i in range(rank):
        for j in range(rank):
            if rng.random() < 0.6:
                vec = [str(Fraction(rng.randint(-20, 20), rng.choice([1, 1, 3, 4, 9]))) for _ in range(rank)]
                lines.append(f"c.{names[i]}.{names[j]} = [" + ", ".join(f'"{c}"' for c in vec) + "]")
    return "\n".join(lines) + "\n"


def _gen_ns_file(rng: random.Random, rank: int) -> str:
    names = [f"n{i}" for i in range(rank)]
    lines = ["[ns]", f'name = "gen_ns{rank}"', "basis = [" + ", ".join(f'"{b}"' for b in names) + "]"]
    alpha = [[pdt.mono(1) if i == j else pdt.ZERO for j in range(rank)] for i in range(rank)]
    lines.append(f"alpha = {_mat_text(alpha)}")
    for head in ("left", "right", "vee"):
        for i in range(rank):
            for j in range(rank):
                vec = [_rand_dpoly(rng, ("D", "x"), 3) for _ in range(rank)]
                lines.append(f"{head}.{names[i]}.{names[j]} = {_vec_text(vec)}")
    return "\n".join(lines) + "\n"


def _gen_deformation_file(fam: pdt.Family) -> str:
    n = fam.rank
    c_id = [[pdt.mono(_C) if i == j else pdt.ZERO for j in range(n)] for i in range(n)]
    cq = pdt.mat_add(fam.q_op, c_id)
    o1, o2 = pdt.conjugation_orders(fam)
    parts = [_algebra_text(fam, f"gen_def_{fam.label}")]
    for name, bump in (("conj", None), ("bad", 1)):
        lines = [f"[deformation:{name}]", 'order = "2"', f"operator.0 = {_mat_text(cq)}"]
        if bump:
            lines.append(f"operator.{bump} = {_mat_text(pdt.mat_const(fam.e_const))}")
        for order, table in ((1, o1), (2, o2)):
            for (i, j), vec in sorted(table.items()):
                lines.append(f"bracket.{order}.{fam.basis[i]}.{fam.basis[j]} = {_vec_text(vec)}")
        parts.append("\n".join(lines) + "\n")
    return "\n".join(parts)


def cli_pool(workdir: str) -> dict:
    """Write the generated definition files; return group -> list of
    variants, each a list of (job id, argv, props).  The same for every seed."""
    os.makedirs(workdir, exist_ok=True)
    rel = os.path.relpath(workdir)

    def write(name, body):
        path = os.path.join(rel, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        return path

    def cmds(template_list, path, prefix, props):
        out = []
        for t in template_list:
            argv = t.format(f=path).split()
            if argv[0] in _RECORDS:
                argv += ["--format", "records"]
            out.append((f"{prefix}:{' '.join(argv[:2])}:{' '.join(argv[3:])}", argv, dict(props)))
        return out

    # Each group is one stratum: a deck takes the same number of variants
    # from each, so every deck costs about the same whatever the seed.
    groups: dict = {"shipped": [[]], "malformed": []}
    for t in _SHIPPED:
        argv = t.split()
        if argv[0] in _RECORDS:
            argv += ["--format", "records"]
        groups["shipped"][0].append((f"shipped:{' '.join(argv)}", argv, {"source": "shipped", "malformed": False}))
    rng = random.Random(f"{POOL_SEED}/cli")
    for shape in (("virm1", 1), ("virm1", 2), ("trunc", 3)):
        for v in range(3):
            fam = pdt.make_family(shape, random.Random(f"{POOL_SEED}/cli/{shape}/{v}"))
            name = f"gen_algebra_{fam.label}_{v}"
            props = {"source": "generated", "malformed": False, "rank": fam.rank}
            path = write(f"{name}.def", _gen_algebra_file(fam, rng))
            groups.setdefault(f"gen_algebra_{fam.label}", []).append(cmds(_GEN_ALG_CMDS, path, name, props))
    for make, ranks, template in (
        (_gen_finite_file, (5, 6, 7), "construct cur {f}"),
        (_gen_ns_file, (3, 4), "construct adjacent {f}"),
    ):
        kind = make.__name__[len("_gen_"):-len("_file")]
        for rank in ranks:
            for v in range(2):
                name = f"gen_{kind}_r{rank}_{v}"
                path = write(f"{name}.def", make(rng, rank))
                props = {"source": "generated", "malformed": False, "rank": rank}
                groups.setdefault(f"gen_{kind}_r{rank}", []).append(cmds([template], path, name, props))
    for v in range(2):
        fam = pdt.make_family(("virm1", 1), random.Random(f"{POOL_SEED}/cli/def/{v}"))
        path = write(f"gen_deformation_{v}.def", _gen_deformation_file(fam))
        props = {"source": "generated", "malformed": False, "rank": fam.rank}
        groups.setdefault("gen_deformation", []).append(cmds(_GEN_DEF_CMDS, path, f"gen_deformation_{v}", props))
    for label, (body, template) in _MALFORMED.items():
        path = write(f"malformed_{label}.def", body)
        props = {"source": "malformed", "malformed": True, "defect": label}
        groups["malformed"].append(cmds([template], path, f"malformed_{label}", props))
    return groups


def _cli_job(job_id, argv, props) -> Job:
    props = dict(props, argv=argv, construct=argv[0] == "construct")
    return Job(job_id, props, lambda: run_cli(argv))


def cli_pool_jobs(workdir: str) -> list:
    return [_cli_job(*spec) for variants in cli_pool(workdir).values() for variant in variants for spec in variant]


def _parse_back(argv: list, out: str) -> str | None:
    """Rebuild what a construct command printed and compare it with the
    object the library builds from the same input."""
    what, path = argv[1], argv[2]
    opts = dict(zip(argv[3::2], argv[4::2]))
    with open(path, encoding="utf-8") as fh:
        src = definitions.parse_definition(fh.read())
    printed = definitions.parse_definition(out)
    if what == "cur":
        got, want = definitions.build_algebra(printed), current_algebra(*definitions.build_finite(src))
    elif what == "adjacent":
        got, want = definitions.build_algebra(printed), adjacent_algebra(definitions.build_ns(src))
    else:
        alg = definitions.build_algebra(src)
        op = definitions.build_operator(src, opts["--op"])
        if what == "deformed":
            got, want = definitions.build_algebra(printed), deformed_bracket(alg, op)
        elif what == "ns-from-n":
            got, want = definitions.build_ns(printed), ns_from_nijenhuis(alg, op)
        elif what == "induced-rep":
            rep = dataclasses.replace(adjoint_rep(alg), n_m=op)
            got = definitions.build_representation(printed, alg)
            want = induced_representation(alg, op, rep)
        else:
            return f"no parse-back rule for construct {what}"
    return None if got == want else f"construct {what} output does not parse back to the same object"


def _cli_roundtrip(seed: int, workdir: str, pinned: dict) -> Workload:
    groups = cli_pool(workdir)
    rng = random.Random(seed)
    decks = []
    for _ in range(CLI_DECKS):
        deck = []
        for group, variants in groups.items():
            for variant in rng.sample(variants, CLI_MALFORMED_PER_DECK if group == "malformed" else 1):
                deck += [_cli_job(*spec) for spec in variant]
        rng.shuffle(deck)
        decks.append(deck)
    warmup = [_cli_job(*spec) for spec in groups["shipped"][0]]
    parsed_back: set = set()

    def check(job, raw):
        if job.props["malformed"]:
            if raw.code != 2 or raw.out or raw.err.count("\n") != 1 or not raw.err.startswith("error: "):
                return f"malformed input: exit {raw.code}, {raw.err.count(chr(10))} stderr lines"
            return None
        want = pinned.get(job.id)
        if want is None:
            return "no pinned digest"
        if digest(cli_record(raw)) != want:
            return "stdout or exit code differs from the pinned digest"
        if job.props["construct"] and job.id not in parsed_back:
            parsed_back.add(job.id)
            return _parse_back(job.props["argv"], raw.out)
        return None

    probes = []
    for label, (body, template) in _KNOWN_DEFECTS.items():
        path = os.path.join(os.path.relpath(workdir), f"defect_{label}.def")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        probes.append((label, template.format(f=path).split()))
    notes = [EXCLUDED_INPUT]
    return Workload("cli_roundtrip", decks, warmup, check, cli_record, probes=probes, notes=notes)
