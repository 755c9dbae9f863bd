"""Spans around the public functions of every homleib module.

``Tracer.install()`` wraps each public function of the layers below and
rebinds it in every ``homleib.*`` namespace that holds it: modules import
names by value (``eval_table_bracket`` lives in structure, representation,
deformation and ns), so patching only the defining module would miss
most calls.  Kernel functions are reached through ``homleib._kernel`` at
call time and, inside the pure kernel, through its own globals; both are
rebound.  The program itself is not changed on disk.

A span is (name, start, end, parent, bookkeeping): spans of one job are
kept in memory and folded into per-name totals when the job ends.  Self
time is a span's duration minus the time its child spans cover, and the
tracer's own bookkeeping around a child (argument printing, output
statistics) is charged to nobody.  ``total`` counts only spans with no
enclosing span of the same name.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "_kernel._polypure", "poly", "structure", "representation", "operators",
    "cohomology", "deformation", "ns", "definitions", "cli", "report",
)
# Helpers called once per term or per variable: a span each would cost far
# more than the work, so their time stays in the caller's self time.
UNWRAPPED = {"merge_keys", "lam", "var_name"}
KERNEL_OUT = {"mul_terms", "add_terms", "substitute_terms", "scale_terms", "pow_terms"}
JOB = "bench.job"  # root span of each job
REPEAT_KEYED = {"structure.eval_table_bracket", "representation.eval_l", "representation.eval_r"}


def _layer(module_name: str) -> str:
    short = module_name[len("homleib."):]
    return "_kernel" if short.startswith("_kernel") else short


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list = []  # span name per id
        self.spans: list = []
        self.stack: list = []
        self.depth: list = []  # open spans per name id
        self.originals: dict = {}  # id(original) -> qualified name
        # folded totals
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)  # named counters for ratios
        self.peak_degree = 0
        self._seen: dict = {}
        self._keep: list = []
        self.callers: list = []

    # -- installation ----------------------------------------------------

    def install(self, callers=()):
        """Wrap and rebind; `callers` are the benchmark's own modules, whose
        imported homleib names are rebound too so their calls are seen."""
        self.callers = list(callers)
        self._print_poly = importlib.import_module("homleib.poly").print_poly
        targets = []
        for short in LAYERS:
            mod = importlib.import_module(f"homleib.{short}")
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in UNWRAPPED
                ):
                    targets.append((f"{_layer(mod.__name__)}.{attr}", obj))
        for qual, obj in targets:
            wrapper = self._wrap(obj, qual)
            self.originals[id(obj)] = qual
            for mod in self._homleib_modules():
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, attr, wrapper)
        structure = importlib.import_module("homleib.structure")
        apply = structure.PdModuleMap.apply
        self.originals[id(apply)] = "structure.PdModuleMap.apply"
        structure.PdModuleMap.apply = self._wrap(apply, "structure.PdModuleMap.apply")
        report = importlib.import_module("homleib.report")
        for cls, counter in ((report.Report, "report.checks"), (report.Violation, "report.violations")):
            self._count_inits(cls, counter)

    def _count_inits(self, cls, counter):
        init = cls.__init__
        tracer = self

        def counted_init(obj, *args, **kwargs):
            if tracer.on:
                tracer.counts[counter] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted_init

    def _homleib_modules(self):
        mods = [m for name, m in list(sys.modules.items()) if m and (name == "homleib" or name.startswith("homleib."))]
        return mods + self.callers

    def unwrapped_holders(self) -> list:
        """Every namespace that still holds an original: must be empty."""
        found = []
        for mod in self._homleib_modules():
            for attr, value in vars(mod).items():
                if id(value) in self.originals and callable(value):
                    found.append(f"{mod.__name__}.{attr}")
        structure = sys.modules["homleib.structure"]
        if id(structure.PdModuleMap.__dict__["apply"]) in self.originals:
            found.append("homleib.structure.PdModuleMap.apply")
        return found

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, qual):
        nid = len(self.names)
        self.names.append(qual)
        self.depth.append(0)
        tracer = self
        short = qual.split(".")[-1]
        pre = post = None
        if qual.startswith("_kernel.") and short in KERNEL_OUT:
            post = self._kernel_out
            if short == "substitute_terms":
                pre = self._substitute_noop
        elif qual in REPEAT_KEYED:
            pre = self._repeat
        elif qual == "cohomology.eval_cochain":
            post = self._eval_cochain_zero

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            if pre is not None:
                pre(qual, args)
            spans, stack, depth = tracer.spans, tracer.stack, tracer.depth
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth[nid] += 1
            outer = depth[nid] == 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[nid] -= 1
                spans[idx] = (nid, start, end, parent, outer, start - t_in)
            if post is not None:
                post(qual, out)
                spans[idx] = (nid, start, end, parent, outer, (start - t_in) + (perf_counter() - end))
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _kernel_out(self, qual, out):
        c = self.counts
        c["kernel.terms_out"] += len(out)
        c["kernel.int_coeffs"] += sum(1 for v in out.values() if v.denominator == 1)
        if out:
            deg = max(sum(e for _, e in key) for key in out)
            if deg > self.peak_degree:
                self.peak_degree = deg

    def _substitute_noop(self, qual, args):
        terms, var = args[0], args[1]
        if not any(v == var for key in terms for v, _ in key):
            self.counts["kernel.substitute_terms.noop"] += 1

    def _eval_cochain_zero(self, qual, out):
        if out.is_zero:
            self.counts["cohomology.eval_cochain.zero"] += 1

    def _repeat(self, qual, args):
        pp = self._print_poly
        if qual == "structure.eval_table_bracket":
            table, _, left, right, w = args[:5]
            owner = table
        else:
            rep, left, right, w = args[:4]
            owner = rep
        self._keep.append(owner)  # keeps id() unique within the check
        key = (
            id(owner),
            tuple(pp(c) for c in left.coords),
            tuple(pp(c) for c in right.coords),
            tuple(sorted(w.coeffs.items())),
            w.constant,
        )
        seen = self._seen.setdefault(qual, set())
        if key in seen:
            self.counts[qual + ".repeat"] += 1
        else:
            seen.add(key)

    # -- per job -----------------------------------------------------------

    def start_job(self):
        """Open the job's root span: time in no wrapped function (the
        benchmark's own job code, methods of homleib classes) stays there."""
        if JOB not in self.names:
            self.names.append(JOB)
            self.depth.append(0)
        self.spans = [None]
        self.stack = [0]
        self._seen = {}
        self._keep = []
        self.on = True
        self._job_start = perf_counter()

    def end_job(self):
        """Fold this job's spans into the totals."""
        end = perf_counter()
        self.on = False
        spans = self.spans
        spans[0] = (self.names.index(JOB), self._job_start, end, -1, True, 0.0)
        n = len(spans)
        cover = [0.0] * n
        inner = [0.0] * n  # bookkeeping inside the span
        calls, self_s, total_s, names = self.calls, self.self_s, self.total_s, self.names
        for i in range(n - 1, -1, -1):
            nid, start, end, parent, outer, book = spans[i]
            dur = end - start
            name = names[nid]
            calls[name] += 1
            self_s[name] += dur - cover[i]
            if outer:
                total_s[name] += dur - inner[i]
            if parent >= 0:
                cover[parent] += dur + book
                inner[parent] += book + inner[i]
        self.spans = []
        self._seen = {}
        self._keep = []
