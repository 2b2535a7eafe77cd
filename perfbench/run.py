"""Benchmark of the mongebde CLI: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 0 --seconds 22 --trace 0

Each timed pass runs in a fresh interpreter (``worker.py``), because a CLI
user pays the exact derivations on every command; a memo that lived across
passes would show a gain no user gets.  Passes run one at a time, from this
one process, with BLAS pinned to one thread.  A run does one warm-up start
(discarded), then the whole number of passes that fits ``--seconds`` best
(at least two), with a few start-up probes before the first pass and after
each one.  Job outputs go to a temporary
directory under ``.perfbench/`` and are checked after each pass, outside
the timed region.

``--trace 0`` prints the end-to-end metrics declared in BENCHMARK.json;
``--trace 1`` alternates traced and untraced passes and prints the
per-layer metrics, including the tracing overhead.  Human-readable lines
(environment, every metric with its unit and sample count, failures) come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans of the last traced pass are written to
``.perfbench/spans/`` and each result set, with its environment, to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS, TARGETS  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

# Start-up-only interpreters run before the first pass and after each pass,
# this many at each place, so that a run's setup_s median spans the whole
# run: the machine's speed drifts in phases of seconds to minutes.
SETUP_PROBES = 4
# A run's median rests on at least this many passes.  Without it a workload
# whose pass is near half of --seconds measures one pass or two depending
# on the machine's speed at the time.
MIN_PASSES = 2
RUN_BUDGET_S = 170  # a run must end within 180 s; a pass still going at this point is killed
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, a crashed pass)."""


# -- environment -------------------------------------------------------------


def _src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "loadavg_start": _read_first("/proc/loadavg"),
    }


# -- passes ------------------------------------------------------------------


def run_pass(workload: str, seed: int, workdir: str, deadline: float, *, trace: bool = False,
             setup_only: bool = False, spans_path: str = "") -> dict:
    """One pass in a fresh interpreter; returns worker's result plus setup_s.

    The pass is killed if it is still running at ``deadline`` (monotonic).
    """
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
    spec = {
        "workload": workload, "seed": seed, "workdir": pass_dir, "trace": trace,
        "setup_only": setup_only, "src": os.path.join(ROOT, "src"), "spans_path": spans_path,
    }
    spec_path = os.path.join(pass_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{workload} pass still running after the run's {RUN_BUDGET_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    with open(os.path.join(pass_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready_monotonic"] - spawned
    result["dir"] = pass_dir
    return result


def _job_digest(result: dict, out_dir: str) -> str:
    h = hashlib.sha256(json.dumps([result["rc"], result["error"], result["stdout"]]).encode())
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            h.update(name.encode())
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Checker:
    """Runs each job's output check once per distinct output."""

    def __init__(self, workload: str):
        import checks

        self.check = checks.CHECKS[workload]
        self.ctx = checks.Context(ROOT)
        self.verdicts: dict = {}

    def problems(self, job: dict, result: dict, out_dir: str) -> list:
        key = _job_digest(result, out_dir)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self.check(job, result, out_dir, self.ctx)
            except Exception as exc:  # unreadable artifacts fail the job
                self.verdicts[key] = [f"check raised {type(exc).__name__}: {exc}"]
        return self.verdicts[key]


def check_pass(checker: Checker, jobs: list, result: dict) -> list:
    """[(job name, problems)] for every job of a pass that failed its check."""
    failures = []
    for i, (job, res) in enumerate(zip(jobs, result["jobs"])):
        problems = checker.problems(job, res, os.path.join(result["dir"], f"job{i:02d}"))
        if problems:
            failures.append((job["name"], problems))
    return failures


def _passes(workload: str, seed: int, seconds: float, workdir: str, modes: list,
            budget_end: float, probes: int = 0) -> tuple[list, list]:
    """Passes cycling through ``modes`` for about ``seconds``; start-up probes.

    Another pass starts while it is expected to end less than half a pass
    after ``seconds``, so a run measures the whole number of passes
    nearest to ``seconds``, and at least MIN_PASSES, so both modes of a
    traced run occur.  ``probes`` start-up-only interpreters run before the
    first pass and after each one; their time does not count towards
    ``seconds``.  Each pass is checked, then its work directory is removed.
    Returns the passes and the probes' setup_s values.
    """
    checker = Checker(workload)
    jobs = jobs_for(workload, seed)
    spans_dir = os.path.join(ROOT, ".perfbench", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"{workload}-seed{seed}.npz")
    setups: list = []

    def probe() -> float:
        t0 = time.monotonic()
        for _ in range(probes):
            result = run_pass(workload, seed, workdir, budget_end, setup_only=True)
            shutil.rmtree(result["dir"])
            setups.append(result["setup_s"])
        return time.monotonic() - t0

    deadline = time.monotonic() + seconds + probe()
    out, walls = [], []
    while True:
        trace = modes[len(out) % len(modes)]
        t0 = time.monotonic()
        result = run_pass(workload, seed, workdir, budget_end, trace=trace, spans_path=spans_path)
        walls.append(time.monotonic() - t0)
        result["traced"] = trace
        result["failures"] = check_pass(checker, jobs, result)
        shutil.rmtree(result.pop("dir"))
        out.append(result)
        deadline += probe()
        if len(out) >= MIN_PASSES and time.monotonic() + statistics.median(walls) / 2 > deadline:
            return out, setups


# -- metrics -----------------------------------------------------------------


def _jobs_per_s(result: dict) -> float:
    return len(result["jobs"]) / result["pass_s"]


def end_to_end(passes: list, setups: list) -> tuple[dict, list]:
    """Contract metrics, plus the other end-to-end figures as notes.

    ``job_s.p50``, ``job_s.p90`` and ``fail_ratio`` are printed but not
    declared in BENCHMARK.json: the median job of ``exact`` is a few
    milliseconds long and its spread across runs is wider than any
    allowed bound, and a failure ratio is zero when the program is right.
    """
    latencies = sorted(j["seconds"] for p in passes for j in p["jobs"])
    attempted = len(latencies)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (statistics.median(_jobs_per_s(p) for p in passes), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = [
        f"setup_s: median of {len(setups)} interpreter starts",
        f"jobs_per_s: median of {len(passes)} passes of {len(passes[0]['jobs'])} jobs",
        f"peak_rss_mb: median of {len(passes)} pass peaks",
        f"job_s.p50 = {statistics.median(latencies):.6g} s (n={attempted}, pooled over passes)",
    ]
    # p90 only where at least ten samples lie beyond it.
    if attempted * 0.1 >= 10:
        notes.append(f"job_s.p90 = {statistics.quantiles(latencies, n=10)[-1]:.6g} s (n={attempted})")
    else:
        notes.append(f"job_s.p90 not reported: {attempted} samples leave fewer than 10 beyond it")
    notes.append(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    return metrics, notes


# Per-layer metric names: function spans, then counters, ratios and layers.
SPAN_FUNCTIONS = tuple(n for n in TARGETS.values() if not n.startswith("emit."))
INCLUSIVE = (
    "trace.trace_zero_set", "trace.curve_singularities", "trace.gauss_cusps",
    "field.integrate_field", "sweep.fingerprint", "sweep.sweep", "field.portrait",
    "sweep.singular_parameter_eliminant",
)
COUNTERS = (
    ("poly.Poly.init.calls", "count"),
    ("poly.resultant.matrix_dim.max", "count"),
    ("poly.resultant.coeff_bits.max", "bits"),
    ("numeval.CompiledPoly.call.points", "count"),
    ("trace.trace_zero_set.cells", "count"),
    ("trace.curve_singularities.seeds", "count"),
    ("trace.curve_singularities.found", "count"),
    ("trace.gauss_cusps.seeds", "count"),
    ("trace.gauss_cusps.found", "count"),
    ("field.integrate_field.steps", "count"),
    ("sweep.cells", "count"),
    ("sweep.bisect_evals", "count"),
    ("sweep.locus_points", "count"),
    ("emit.calls", "count"),
    ("emit.bytes", "count"),
)
RATIOS = (  # name, numerator, denominator (the base)
    ("trace.curve_singularities.found_per_seed", "trace.curve_singularities.found", "trace.curve_singularities.seeds"),
    ("trace.gauss_cusps.found_per_seed", "trace.gauss_cusps.found", "trace.gauss_cusps.seeds"),
    ("numeval.CompiledPoly.call.points_per_call", "numeval.CompiledPoly.call.points", "numeval.CompiledPoly.call.calls"),
    ("sweep.locus_points_per_bisect_eval", "sweep.locus_points", "sweep.bisect_evals"),
)


def per_layer_units() -> dict:
    units = {}
    for f in SPAN_FUNCTIONS:
        units[f"{f}.calls"] = "count"
        units[f"{f}.self_s"] = "s"
    for f in INCLUSIVE:
        units[f"{f}.total_s"] = "s"
    units["emit.self_s"] = "s"
    units.update(COUNTERS)
    for name, _, _ in RATIOS:
        units[name] = "ratio"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["layer.unspanned.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.traced_jobs_per_s"] = "1/s"
    units["trace.untraced_jobs_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _layer_values(result: dict) -> dict:
    tr = result["trace"]
    fns = tr["functions"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    v: dict = {}
    for f in SPAN_FUNCTIONS:
        row = fns.get(f, zero)
        v[f"{f}.calls"] = row["calls"]
        v[f"{f}.self_s"] = row["self_s"]
    for f in INCLUSIVE:
        v[f"{f}.total_s"] = fns.get(f, zero)["total_s"]
    emit = [row for name, row in fns.items() if name.startswith("emit.")]
    v["emit.self_s"] = sum(r["self_s"] for r in emit)
    v["emit.calls"] = sum(r["calls"] for r in emit)
    counters = {**tr["counters"], **tr["maxima"]}
    for name, _ in COUNTERS:
        if name not in ("emit.calls", "sweep.bisect_evals"):
            v[name] = counters.get(name, 0)
    # Fingerprints evaluated inside sweep beyond the grid cells are bisection steps.
    v["sweep.bisect_evals"] = v["sweep.fingerprint.calls"] - v["sweep.cells"] if v["sweep.cells"] else 0
    for name, num, den in RATIOS:
        v[name] = v[num] / v[den] if v[den] else 0.0
    for layer in LAYERS:
        v[f"layer.{layer}.self_s"] = tr["layers"][layer]
    v["layer.unspanned.self_s"] = result["pass_s"] - tr["root_s"]
    v["trace.spans"] = tr["spans"]
    return v


def per_layer(passes: list) -> tuple[dict, list]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = [_layer_values(p) for p in traced]
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    values["trace.traced_jobs_per_s"] = statistics.median(_jobs_per_s(p) for p in traced)
    values["trace.untraced_jobs_per_s"] = statistics.median(_jobs_per_s(p) for p in plain)
    values["trace.overhead_ratio"] = values["trace.traced_jobs_per_s"] / values["trace.untraced_jobs_per_s"]
    units = per_layer_units()
    notes = [
        f"per-layer values: median of {len(traced)} traced passes; overhead ratio is traced over "
        f"untraced jobs_per_s ({len(traced)} vs {len(plain)} passes)",
    ]
    for name, num, den in RATIOS:
        notes.append(f"{name} = {values[num]:g} / {values[den]:g}")
    return {k: (values[k], units[k]) for k in units}, notes


# -- main --------------------------------------------------------------------


def _declared(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _preflight() -> None:
    for rel in ("src/mongebde/cli.py", "goldens/exact.json", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} not found under {ROOT}; run from a full checkout")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    budget_end = time.monotonic() + RUN_BUDGET_S
    _preflight()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    scratch = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        run_pass(workload, seed, workdir, budget_end, setup_only=True)  # warm-up: bytecode, file cache
        if trace:
            passes, _ = _passes(workload, seed, seconds, workdir, [True, False], budget_end)
            metrics, notes = per_layer(passes)
        else:
            passes, setups = _passes(workload, seed, seconds, workdir, [False], budget_end,
                                     probes=SETUP_PROBES)
            setups += [p["setup_s"] for p in passes]
            metrics, notes = end_to_end(passes, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = _declared(trace)
    if sorted(declared) != sorted(metrics):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    for name in declared:
        value, unit = metrics[name]
        print(f"metric {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"note {note}")
    failures = [(i, name, problems) for i, p in enumerate(passes) for name, problems in p["failures"]]
    for i, name, problems in failures[:20]:
        print(f"FAIL pass {i} {name}: {'; '.join(problems)[:400]}")
    attempted = sum(len(p["jobs"]) for p in passes)
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "summary": summary, "notes": notes,
        "passes": [{k: v for k, v in p.items() if k not in ("jobs", "trace")}
                   | {"job_s": [j["seconds"] for j in p["jobs"]]} for p in passes],
    }
    with open(os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still kills its pass and removes its work directory:
    # SystemExit unwinds through subprocess.run and the finally blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
