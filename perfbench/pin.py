"""Regenerate digests.json: run every pooled axiom_checks and cli_roundtrip
job once and record the digest of its output.

Run from the repository root:  python3 perfbench/pin.py

Pin only from a commit whose outputs are trusted: the benchmark then
fails any later commit whose records, stdout bytes or exit codes differ.
Malformed CLI inputs are not pinned; they are checked for exit code 2 and
one stderr line instead.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    os.chdir(ROOT)
    workdir = os.path.join(ROOT, ".perfbench-work", f"pin-{os.getpid()}")
    out = {}
    try:
        axiom = {}
        for job in workloads.axiom_pool_jobs():
            reports = job.fn()
            passed = all(r.passed for r in reports)
            if passed != (job.props["expected"] == "pass"):
                raise SystemExit(f"{job.id}: verdict contradicts its construction")
            axiom[job.id] = workloads.digest(workloads.axiom_record(reports))
        out["axiom_checks"] = axiom
        cli = {}
        for job in workloads.cli_pool_jobs(workdir):
            if job.props["malformed"]:
                continue
            cli[job.id] = workloads.digest(workloads.cli_record(job.fn()))
        out["cli_roundtrip"] = cli
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # only once no other run uses it
            os.rmdir(os.path.dirname(workdir))
    with open(workloads.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(out['axiom_checks'])} axiom_checks and {len(out['cli_roundtrip'])} cli_roundtrip digests")


if __name__ == "__main__":
    main()
