"""One timed pass of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json`` where the spec names the
workload, seed, work directory and whether to trace.  ``run.py`` starts
this script once per pass and sets ``PYTHONPATH`` to the checkout's
``src``.  The pass imports ``mongebde``, builds its job list, notes the
moment the first job is ready (``time.monotonic``, which is system-wide,
so the parent can subtract its own spawn time), runs every job in-process
through ``mongebde.cli.run`` and writes ``result.json`` to the work
directory.  Output checks are not run here; they run after the pass, in
the parent, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


def _run_job(job: dict, out_dir: str, cli, goldens) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if job["kind"] == "cli":
                rc = cli.run(job["argv"] + ["--out", out_dir])
            else:
                text = json.dumps(goldens.compute_exact(), indent=2, sort_keys=True) + "\n"
                os.makedirs(out_dir, exist_ok=True)
                with open(os.path.join(out_dir, "exact.json"), "w", encoding="utf-8") as fh:
                    fh.write(text)
                rc = 0
    except Exception:  # a job that raises is a failed job, not a failed pass
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    return {
        "name": job["name"],
        "seconds": seconds,
        "rc": rc,
        "error": error,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
    }


def _peak_rss_mb() -> float:
    """This process's resident-memory high-water mark.

    ``VmHWM`` belongs to the address space made by exec.  ``ru_maxrss``
    would also carry the parent's resident size at fork across the exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import mongebde
    from mongebde import cli, goldens

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(mongebde.__file__).startswith(src + os.sep):
        raise SystemExit(f"mongebde imported from {mongebde.__file__}, not from {src}")
    from workloads import jobs_for

    jobs = jobs_for(spec["workload"], spec["seed"])
    workdir = spec["workdir"]
    out_dirs = [os.path.join(workdir, f"job{i:02d}") for i in range(len(jobs))]
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "jobs": [], "pass_s": None}
    if not spec["setup_only"]:
        t0 = time.perf_counter()
        for job, out_dir in zip(jobs, out_dirs):
            result["jobs"].append(_run_job(job, out_dir, cli, goldens))
        result["pass_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(spec["spans_path"])
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
