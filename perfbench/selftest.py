"""Show that the output checks catch a damaged output, for every workload.

Run from the root of a checkout:

    python3 perfbench/selftest.py [--seed N] [workload ...]

For each workload this runs one untimed pass, checks its outputs, then
damages one job's artifacts with ``checks.CORRUPTIONS`` (a perturbed
polynomial, a moved polyline vertex, a dropped locus point) and checks
again.  It exits 1 unless every damaged job is counted as failed and no
other verdict changes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

import run
from checks import CORRUPTIONS
from workloads import WORKLOADS, jobs_for


def selftest(workload: str, seed: int) -> bool:
    scratch = os.path.join(run.ROOT, ".perfbench", "tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"selftest-{workload}-", dir=scratch)
    try:
        result = run.run_pass(workload, seed, workdir, time.monotonic() + run.RUN_BUDGET_S)
        jobs = jobs_for(workload, seed)
        out_dirs = [os.path.join(result["dir"], f"job{i:02d}") for i in range(len(jobs))]
        clean = dict(run.check_pass(run.Checker(workload), jobs, result))
        k = CORRUPTIONS[workload](jobs, out_dirs)
        damaged = dict(run.check_pass(run.Checker(workload), jobs, result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = jobs[k]["name"]
    caught = name in damaged and name not in clean
    others_same = {n: p for n, p in damaged.items() if n != name} == {n: p for n, p in clean.items() if n != name}
    print(f"{workload}: clean pass {len(clean)} failed of {len(jobs)}; damaged {name!r} -> "
          f"{'caught: ' + '; '.join(damaged[name])[:300] if caught else 'NOT caught'}")
    return caught and others_same


def main() -> int:
    ap = argparse.ArgumentParser(description="prove the output checks catch damaged outputs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    results = [selftest(w, args.seed) for w in args.workloads]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
