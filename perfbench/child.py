"""One workload in one process: set up, then measure or trace.

Started by run.py, never by hand.  It puts the checkout's ``src`` first
on ``sys.path`` itself, so it needs no installed package and no
inherited PYTHONPATH, and prints one JSON object as its last stdout line.

Modes:
  --mode setup    set up only; report setup time
  --mode measure  set up, then play whole decks until --seconds have passed
  --mode trace    set up, play deck 0 untraced, then deck 0 traced

Set-up is importing homleib, making the workload's inputs and running
its warm-up jobs.  Every timed job is bracketed by the calibration loop
below, which lets run.py report times at a reference machine speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction

# Fixed sparse polynomials for the calibration loop (benchmark-owned data).
_CAL_A = {((0, i), (1, j)): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}
_CAL_B = {((0, i), (3, j)): Fraction(2 * i - 3, j + 1) for i in range(3) for j in range(4)}
# The loop's time on an unloaded core of the machine the bounds were set on
# (2-CPU x86-64, Python 3.11); timings are scaled to this speed.
CAL_REF_S = 0.0014


def calibration() -> float:
    """Seconds for a fixed sparse-polynomial product over Fractions: the
    same kind of work as the kernel, in the benchmark's own code, so a
    change to the program never changes it."""
    t0 = time.perf_counter()
    for _ in range(2):
        out: dict = {}
        for ka, ca in _CAL_A.items():
            for kb, cb in _CAL_B.items():
                exps = dict(ka)
                for v, e in kb:
                    exps[v] = exps.get(v, 0) + e
                key = tuple(sorted(exps.items()))
                c = out.get(key, 0) + ca * cb
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
    return time.perf_counter() - t0


def speed_scale(*cals) -> float:
    """Factor that turns a time measured next to these calibrations into
    a time at the reference speed: the slowdowns of a shared machine come
    in phases of seconds, and the fastest neighbouring calibration tells
    how fast the core ran just then."""
    return CAL_REF_S / min(cals)


SETUP_CAL = min(calibration() for _ in range(3))
T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import homleib  # noqa: E402

if not os.path.abspath(homleib.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"homleib imported from {homleib.__file__}, not from {SRC}")

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def play(workload, deck, tracer=None, scales=None):
    """Run each job once; returns (seconds per job, records, failures).
    With `scales`, append the machine-speed scale of each job to it."""
    times, records, failures = [], [], []
    for job in deck:
        # As in timeit, the cyclic collector runs between jobs, not inside
        # them: its pauses would land in whichever job crosses a threshold.
        gc.collect()
        gc.disable()
        if scales is not None:
            before = calibration()
        if tracer is not None:  # the job's root span covers the job only
            tracer.start_job()
        t0 = time.perf_counter()
        try:
            raw, error = job.fn(), None
        except Exception as exc:  # a job that raises is a failed job
            raw, error = None, f"raised {type(exc).__name__}: {exc}"[:200]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_job()
        gc.enable()
        if scales is not None:
            scales.append(speed_scale(before, calibration()))
        times.append(t1 - t0)
        if error is None:
            records.append(workload.record(raw))
            error = workload.check(job, raw)
        else:
            records.append(error)
        if error is not None:
            failures.append(f"{job.id}: {error}")
    return times, records, failures


def properties(jobs) -> dict:
    """Share of jobs per value of each printed input property."""
    keys = ("arity", "rank", "max_d_degree", "expected", "malformed", "source", "check", "algebra", "family")
    out: dict = {}
    for key in keys:
        counts: dict = {}
        for job in jobs:
            if key in job.props:
                value = str(job.props[key])
                counts[value] = counts.get(value, 0) + 1
        if counts:
            out[key] = {v: round(c / len(jobs), 4) for v, c in sorted(counts.items())}
    return out


def run_probes(workload) -> list:
    out = []
    for label, argv in workload.probes:
        try:
            res = workloads.run_cli(argv)
            outcome = f"exit {res.code}, {res.err.count(chr(10))} stderr line(s)"
            ok = res.code == 2 and res.err.count("\n") == 1
        except Exception as exc:  # what a known defect does today
            outcome, ok = f"raised {type(exc).__name__}", False
        out.append({"input": label, "outcome": outcome, "ok": ok})
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # only once no other run uses it
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps(result, sort_keys=True))


def run(args, workdir) -> dict:
    wl = workloads.build(args.workload, args.seed, workdir)
    _, _, warm_fail = play(wl, wl.warmup)
    setup_s = time.perf_counter() - T_START
    scale = speed_scale(SETUP_CAL, *(calibration() for _ in range(3)))
    result = {
        "setup_s": setup_s * scale,
        "setup_raw_s": setup_s,
        "warmup_failures": warm_fail,
        "python": sys.version.split()[0],
        "kernel_backend": homleib.KERNEL_BACKEND,
        "cal_ref_s": CAL_REF_S,
    }
    if args.mode == "setup":
        return result
    if args.mode == "measure":
        times, failures, played, scales = [], [], [], []
        t_end = time.perf_counter() + args.seconds
        i = 0
        while True:  # whole decks only, so every run has the same job mix
            deck = wl.decks[i % len(wl.decks)]
            t, _, f = play(wl, deck, scales=scales)
            times += t
            failures += f
            played += deck
            i += 1
            if time.perf_counter() >= t_end:
                break
        result.update(
            times=times,
            scales=scales,
            failures=failures,
            decks=i,
            deck_size=len(wl.decks[0]),
            properties=properties(played),
            probes=run_probes(wl),
            notes=wl.notes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        return result
    # Deck 0 untraced, then traced.  run.py starts two such processes and
    # compares their call counts: both play the same sequence, so any
    # state the program keeps between jobs is the same in both.
    deck = wl.decks[0]
    plain_scales = []
    plain_t, plain_rec, plain_fail = play(wl, deck, scales=plain_scales)
    result.update(untraced_s=sum(plain_t), failures=plain_fail,
                  untraced_ref_s=sum(t * k for t, k in zip(plain_t, plain_scales)))
    tracer = Tracer()
    tracer.install(callers=[workloads])
    result["unwrapped"] = tracer.unwrapped_holders()
    traced_scales = []
    traced_t, traced_rec, traced_fail = play(wl, deck, tracer, scales=traced_scales)
    result.update(
        traced_s=sum(traced_t),
        traced_ref_s=sum(t * k for t, k in zip(traced_t, traced_scales)),
        jobs=len(deck),
        traced_failures=traced_fail,
        calls=dict(tracer.calls),
        self_s=dict(tracer.self_s),
        total_s=dict(tracer.total_s),
        counts=dict(tracer.counts),
        peak_degree=tracer.peak_degree,
        traced_differs=[deck[i].id for i, (a, b) in enumerate(zip(plain_rec, traced_rec)) if a != b],
    )
    return result


if __name__ == "__main__":
    main()
