"""Layered benchmark of homleib, the exact verifier.

Run from the repository root:

    python3 perfbench/run.py --workload cochain_dd --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for how each input is made from the seed):

  cochain_dd     d(d f) = 0, the commuting square and the combined square
                 on random cochains of arity 1-3 over virasoro, cur2 and
                 twisted2; nearly all time in eval_cochain and the kernel.
  axiom_checks   identity checks on basis tuples over generated rank 2-4
                 algebras with D-dependent brackets and twists; a quarter
                 of the inputs must fail.  No cochain is evaluated.
  cli_roundtrip  homleib.cli.main in process over defs/ and generated,
                 larger definition files, plus malformed inputs that must
                 end with exit 2; time goes to parsing and printing.

Each run starts the workload in child processes, one at a time, each
single-threaded, with the checkout's src first on its path.  The load is
a closed loop with one client: jobs run one after another, in whole
decks, until --seconds have passed.

With --trace 0 it prints the end-to-end metrics: setup_s (median over
several fresh processes), jobs_per_s (jobs per second of job time),
job_ms_p50 and job_ms_p90 (per job, with the sample count), peak_rss_mb
of the measuring process, and fail_frac.  fail_frac is 0 at a correct
commit, so it is carried by the JSON's "failed" and "attempted" rather
than declared as a metric.  Times are reported at a reference machine
speed: a fixed calibration loop runs before and after every job, and
each job's wall time is scaled by how fast that loop ran next to it,
because the shared machine slows down by up to 2x in phases lasting
seconds.  Wall-clock values are printed alongside.

With --trace 1 it runs deck 0 once untraced and then once traced, in
each of two processes, and prints the per-layer metrics of the first,
trace.overhead, and whether both traced runs made exactly the same
calls.

The last stdout line is one JSON object.  The exit status is 0 only when
every output was correct; a missing src/homleib or defs/ is an error
before anything runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORKLOADS = ("cochain_dd", "axiom_checks", "cli_roundtrip")
SETUP_PROCESSES = 7  # set-up time is the median over this many fresh processes
MIN_ABOVE_P90 = 10

NOT_MEASURED = [
    "hardware counters (cycles, instructions, cache misses): no counter access"
    " without changing kernel settings such as perf_event_paranoid",
    "CPU frequency, core isolation, turbo and page-cache state: pinning them needs"
    " machine settings, which were left as found; timings carry that noise",
    "wait times: no layer waits on a queue or a lock (one process, one thread,"
    " one job after another), so none are reported",
]


class ChildError(RuntimeError):
    pass


def spawn(args, mode: str) -> dict:
    # Set-up does not grow with --seconds; the other modes play whole decks
    # after it, so they get room for a commit several times slower.
    timeout = 60 if mode == "setup" else 3 * args.seconds + 120
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} process timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildError(f"{mode} process exited {proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() or "unknown"


def show_environment(args, child: dict):
    print(f"environment: python {child['python']}, nproc {len(os.sched_getaffinity(0))}"
          f" (cpu_count {os.cpu_count()}), homleib.KERNEL_BACKEND={child['kernel_backend']},"
          f" git revision {git_revision()}, seed {args.seed}")
    for line in NOT_MEASURED:
        print(f"not measured: {line}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def show_properties(props: dict):
    print("input properties (share of jobs):")
    for key, shares in props.items():
        print(f"  {key}: " + ", ".join(f"{v} {s:.3f}" for v, s in shares.items()))


def end_to_end(args) -> tuple[dict, bool, int, int]:
    setup_runs = [spawn(args, "setup") for _ in range(SETUP_PROCESSES - 1)]
    m = spawn(args, "measure")
    setup_runs.append(m)
    setups = [r["setup_s"] for r in setup_runs]
    raw_ms = sorted(t * 1000.0 for t in m["times"])
    times_ms = sorted(t * 1000.0 * k for t, k in zip(m["times"], m["scales"]))
    n = len(times_ms)
    p50 = statistics.median(times_ms)
    p90 = statistics.quantiles(times_ms, n=10)[8]
    above = sum(1 for t in times_ms if t > p90)
    failed = len(m["failures"])
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "jobs_per_s": metric(n / (sum(times_ms) / 1000.0), "1/s"),
        "job_ms_p50": metric(p50, "ms"),
        "job_ms_p90": metric(p90, "ms"),
        "peak_rss_mb": metric(m["peak_rss_mb"], "MB"),
    }
    show_environment(args, m)
    print(f"load: closed loop, 1 client, 1 process with 1 thread, jobs one after another;"
          f" {m['decks']} whole decks of {m['deck_size']} jobs in {sum(raw_ms) / 1000.0:.2f} s of job wall time")
    show_properties(m["properties"])
    for note in m["notes"]:
        print(f"note: {note}")
    print("end-to-end metrics (tracing off); times at the reference speed of the calibration loop,"
          " wall-clock values in brackets:")
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s    median of {len(setups)} fresh processes"
          f" (import homleib, make inputs, warm up) [{statistics.median(r['setup_raw_s'] for r in setup_runs):.4f} s]")
    print(f"  jobs_per_s   {metrics['jobs_per_s']['value']:.4f} 1/s  {n} jobs [{n / (sum(raw_ms) / 1000.0):.4f} 1/s]")
    print(f"  job_ms_p50   {p50:.4f} ms   n={n} [{statistics.median(raw_ms):.4f} ms]")
    print(f"  job_ms_p90   {p90:.4f} ms   n={n}, {above} jobs above p90 [{statistics.quantiles(raw_ms, n=10)[8]:.4f} ms]")
    print(f"  speed        median scale to reference {statistics.median(m['scales']):.3f}"
          f" (wall time x scale; 1.0 = calibration loop at {m['cal_ref_s'] * 1000:.2f} ms, below 1 = slower machine)")
    print(f"  peak_rss_mb  {m['peak_rss_mb']:.2f} MB   measuring process")
    print(f"  fail_frac    {failed / n:.4f}        {failed} of {n} jobs wrong, raised or mismatched")
    for f in (m["warmup_failures"] + m["failures"])[:10]:
        print(f"    failed: {f}")
    if m["probes"]:
        print("known ROADMAP-E defects, run once as probes outside the load (expected: exit 2, one stderr line):")
        for p in m["probes"]:
            print(f"  {p['input']}: {p['outcome']}{'' if p['ok'] else '  <- defect still present'}")
        bad = sum(1 for p in m["probes"] if not p["ok"])
        print(f"  known-defect share: {bad} of {len(m['probes'])} probes fail")
    ok = failed == 0 and not m["warmup_failures"] and above >= MIN_ABOVE_P90
    if above < MIN_ABOVE_P90:
        print(f"too few samples: {above} jobs above p90, need {MIN_ABOVE_P90}")
    return metrics, ok, n, failed


def _frac(num, den):
    return num / den if den else 0.0


def per_layer_metrics(a: dict) -> dict:
    calls, self_s, total_s, counts = a["calls"], a["self_s"], a["total_s"], a["counts"]

    def c(q):
        return calls.get(q, 0)

    def s(q):
        return self_s.get(q, 0.0)

    def t(q):
        return total_s.get(q, 0.0)

    out = {}
    for k in ("mul_terms", "add_terms", "substitute_terms", "scale_terms"):
        out[f"kernel.{k}.calls"] = metric(c(f"_kernel.{k}"), "count")
        out[f"kernel.{k}.self_s"] = metric(s(f"_kernel.{k}"), "s")
    out["kernel.terms_out"] = metric(counts.get("kernel.terms_out", 0), "count")
    out["kernel.peak_degree"] = metric(a["peak_degree"], "degree")
    out["kernel.substitute_terms.noop_frac"] = metric(
        _frac(counts.get("kernel.substitute_terms.noop", 0), c("_kernel.substitute_terms")), "ratio")
    out["kernel.int_coeff_frac"] = metric(
        _frac(counts.get("kernel.int_coeffs", 0), counts.get("kernel.terms_out", 0)), "ratio")
    q = "cohomology.eval_cochain"
    out[f"{q}.calls"] = metric(c(q), "count")
    out[f"{q}.self_s"] = metric(s(q), "s")
    out[f"{q}.zero_frac"] = metric(_frac(counts.get(f"{q}.zero", 0), c(q)), "ratio")
    for k in ("coboundary_homL", "coboundary_HN", "phi_map", "coboundary_HNLA"):
        out[f"cohomology.{k}.total_s"] = metric(t(f"cohomology.{k}"), "s")
    for q in ("structure.eval_table_bracket", "representation.eval_l", "representation.eval_r"):
        out[f"{q}.calls"] = metric(c(q), "count")
        out[f"{q}.self_s"] = metric(s(q), "s")
        out[f"{q}.repeat_frac"] = metric(_frac(counts.get(f"{q}.repeat", 0), c(q)), "ratio")
    out["structure.PdModuleMap.apply.calls"] = metric(c("structure.PdModuleMap.apply"), "count")
    for q in (
        "operators.verify_operator", "operators.deformed_bracket", "deformation.verify_deformation_order",
        "ns.verify_ns_axioms", "representation.verify_representation", "representation.induced_representation",
        "structure.verify_hom_leibniz",
    ):
        out[f"{q}.total_s"] = metric(t(q), "s")
    for q in ("poly.parse_poly", "poly.print_poly"):
        out[f"{q}.calls"] = metric(c(q), "count")
        out[f"{q}.self_s"] = metric(s(q), "s")
    out["definitions.parse_definition.self_s"] = metric(s("definitions.parse_definition"), "s")
    out["definitions.build.self_s"] = metric(
        sum(v for k, v in self_s.items() if k.startswith("definitions.build_")), "s")
    out["cli.main.calls"] = metric(c("cli.main"), "count")
    out["cli.main.total_s"] = metric(t("cli.main"), "s")
    out["report.checks"] = metric(counts.get("report.checks", 0), "count")
    out["report.violations"] = metric(counts.get("report.violations", 0), "count")
    out["trace.overhead"] = metric(a["traced_ref_s"] / a["untraced_ref_s"], "ratio")
    return out


def traced(args) -> tuple[dict, bool, int, int]:
    a = spawn(args, "trace")
    b = spawn(args, "trace")
    metrics = per_layer_metrics(a)
    problems = []
    if a["unwrapped"] or b["unwrapped"]:
        problems.append("namespaces still holding unwrapped originals: " + ", ".join(a["unwrapped"] + b["unwrapped"]))
    if a["traced_differs"] or b["traced_differs"]:
        problems.append("traced outputs differ from untraced ones: "
                        + ", ".join((a["traced_differs"] + b["traced_differs"])[:5]))
    diff = sorted(k for k in set(a["calls"]) | set(b["calls"]) if a["calls"].get(k) != b["calls"].get(k))
    if diff:
        problems.append("call counts differ between two traced runs of the same seed: " + ", ".join(diff[:8]))
    failures = [f for r in (a, b) for f in r["warmup_failures"] + r["failures"] + r["traced_failures"]]
    problems += [f"failed: {f}" for f in failures[:10]]
    traced_failed = len(a["traced_failures"]) + len(b["traced_failures"])

    layers: dict = {}
    for name, v in a["self_s"].items():
        layer = name.split(".")[0]
        calls, secs = layers.get(layer, (0, 0.0))
        layers[layer] = (calls + a["calls"][name], secs + v)
    show_environment(args, a)
    print(f"traced deck 0: {a['jobs']} jobs, {a['untraced_s']:.3f} s untraced, {a['traced_s']:.3f} s traced"
          f" wall clock (trace.overhead {metrics['trace.overhead']['value']:.3f}, at the reference speed)")
    print("self time by layer (s, share of traced job time, spans); bench = job code outside any wrapped function:")
    for layer, (calls, secs) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        print(f"  {layer:15s} {secs:9.4f}  {secs / a['traced_s']:6.1%}  {calls}")
    book = a["traced_s"] - sum(secs for _, secs in layers.values())
    print(f"  {'(tracer)':15s} {book:9.4f}  {book / a['traced_s']:6.1%}  bookkeeping around spans, charged to no layer")
    print("per-layer metrics:")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"self-test: every homleib namespace rebound to wrappers: {not (a['unwrapped'] or b['unwrapped'])};"
          f" traced outputs equal untraced outputs: {not (a['traced_differs'] or b['traced_differs'])};"
          f" call counts identical across two traced processes: {not diff}")
    for p in problems:
        print(p)
    return metrics, not problems, a["jobs"] + b["jobs"], traced_failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time per run (whole decks)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in (os.path.join("src", "homleib", "__init__.py"), "defs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from a homleib checkout", file=sys.stderr)
            return 2
    print(f"homleib benchmark: workload {args.workload}, seed {args.seed}, trace {'on' if args.trace else 'off'}")
    try:
        metrics, ok, attempted, failed = (traced if args.trace else end_to_end)(args)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
