"""Run the benchmark on several seeds and summarise each metric.

Run from the root of a checkout:

    python3 perfbench/repeat.py --workload exact --seeds 0-9 [--out FILE]

Each seed is one end-to-end run of ``run.py`` (``--trace 0``) with
``run_seconds`` from BENCHMARK.json.
Per metric it prints the median, the quartiles and the spread (distance
between the quartiles of ``statistics.quantiles(values, n=4)`` over the
median), which is what a bound in BENCHMARK.json is compared with.
``--out`` writes the values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    values: dict = {}
    runs = []
    for seed in _seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **result})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: wall {wall:.1f} s correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    summary = {name: summarise(v) for name, v in values.items()}
    for name, s in summary.items():
        print(f"{args.workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
