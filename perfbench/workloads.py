"""Job lists of the four benchmark workloads, generated from a seed.

A job is a dict with a ``name``, a ``kind`` (``"cli"`` runs
``mongebde.cli.run(argv + ["--out", dir])``; ``"compute_exact"`` calls
``mongebde.goldens.compute_exact()``) and, for CLI jobs, its ``argv`` plus
what the output checks need to know about it.

Seed 0 gives the reference inputs.  Other seeds draw other rational
parameter points from fixed ranges (``trace``, ``portrait``), scale the
sweep rectangle about its centre by at most 5 % per side (``sweep``), or
only reorder the jobs (``exact``, whose results are pinned by
``goldens/exact.json``).
The ranges are chosen so that seeds change the inputs but hardly the
amount of work; the comments at each range give the measurements.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("exact", "trace", "portrait", "sweep")

LIBRARY_LABELS = (
    "Pi_c2", "Pi_c3+", "Pi_c3-", "Pi_f1+", "Pi_f1-", "Pi_f2+", "Pi_f2-",
    "Pi_v1++", "Pi_v1+-", "Pi_v1-+", "Pi_v1--", "Pi_v2+", "Pi_v2-", "Pi_v3",
)

# verify-locus jobs: (label, closed-form locus in t, u)
LOCI = (
    ("Pi_v3", "108*t + -40*u^3 + -3*u^4"),
    ("Pi_v1++", "t"),
    ("Pi_v1-+", "t"),
    ("Pi_f2+", "32*t + -12*u^2"),
)

TRACE_LABELS = ("Pi_v1++", "Pi_c2", "Pi_v3", "Pi_f1+")
TRACE_RESOLUTION = 384
PORTRAIT_WINDOW = (-0.2, 0.2, -0.2, 0.2)
SWEEP_T = (-0.02, 0.02)
SWEEP_U = (-0.3, 0.3)
SWEEP_GRID = 3
# Settings the CLI's sweep command uses; the sweep checks re-evaluate
# fingerprints with the same ones.
SWEEP_CELL_GRID = 40
SWEEP_BISECT_TOL = 1e-3


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _draw(rng: random.Random, lo: Fraction, hi: Fraction, den: int = 1000) -> Fraction:
    """A rational in [lo, hi] with denominator dividing ``den``."""
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def _cli(name: str, argv: list, **check) -> dict:
    return {"name": name, "kind": "cli", "argv": argv, "check": check}


def exact_jobs(seed: int) -> list:
    jobs = [
        _cli(f"verify-locus {label}", ["verify-locus", "--table2", label, "--locus", locus],
             label=label)
        for label, locus in LOCI
    ]
    jobs += [_cli(f"classify {label}", ["classify", "--table2", label], label=label)
             for label in LIBRARY_LABELS]
    jobs.append({"name": "compute_exact", "kind": "compute_exact", "check": {}})
    if seed:
        random.Random(seed).shuffle(jobs)
    return jobs


def trace_jobs(seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for label in TRACE_LABELS:
        if seed:
            # Within 10 % of the seed-0 points.  With t drawn from
            # [1/100, 1/10] the same job's time differed up to twofold
            # between seeds, and the workload's jobs_per_s with it.
            points = [
                (_draw(rng, Fraction(-11, 200), Fraction(-9, 200)), _draw(rng, Fraction(-1, 200), Fraction(1, 200))),
                (_draw(rng, Fraction(9, 200), Fraction(11, 200)), _draw(rng, Fraction(-1, 200), Fraction(1, 200))),
            ]
        else:
            points = [(Fraction(-1, 20), Fraction(0)), (Fraction(1, 20), Fraction(0))]
        for t, u in points:
            for command in ("parabolic", "flecnodal"):
                params = f"{_frac(t)},{_frac(u)}"
                jobs.append(_cli(
                    f"{command} {label} @ {params}",
                    [command, "--table2", label, f"--params={params}",
                     "--resolution", str(TRACE_RESOLUTION)],
                    label=label, command=command, params=[_frac(t), _frac(u)],
                    window=[-0.5, 0.5, -0.5, 0.5], resolution=TRACE_RESOLUTION,
                ))
    # Fixed for every seed: this job's cost jumps with its parameters (1.4 s
    # to 7.6 s between (1/200, 139/1000) and (9/1000, 1/10)), when the
    # singular-point Newton loop runs its full iteration budget, and would
    # swamp the other sixteen jobs' seed-to-seed differences.
    t, u = Fraction(1, 100), Fraction(1, 10)
    params = f"{_frac(t)},{_frac(u)}"
    jobs.append(_cli(
        f"flecnodal Pi_f2+ @ {params}",
        ["flecnodal", "--table2", "Pi_f2+", f"--params={params}"],
        label="Pi_f2+", command="flecnodal", params=[_frac(t), _frac(u)],
        window=[-0.5, 0.5, -0.5, 0.5], resolution=128,
    ))
    return jobs


def portrait_jobs(seed: int) -> list:
    if seed:
        # The step count is flat on this range (58.4k RK4 steps, 8 curves
        # at the step budget) and jumps by 4% just outside it, so the
        # seed varies the inputs, not the amount of work.
        t = _draw(random.Random(seed), Fraction(-101, 2000), Fraction(-99, 2000), den=10000)
    else:
        t = Fraction(-1, 20)
    params = f"{_frac(t)},0"
    window = ",".join(str(v) for v in PORTRAIT_WINDOW)
    return [_cli(
        f"portrait Pi_c2 @ {params}",
        ["portrait", "--table2", "Pi_c2", f"--params={params}", f"--window={window}"],
        label="Pi_c2", params=[_frac(t), "0"], window=list(PORTRAIT_WINDOW),
    )]


def sweep_jobs(seed: int) -> list:
    (t0, t1), (u0, u1) = SWEEP_T, SWEEP_U
    if seed:
        # Scale the rectangle about (0, 0) by 0.95-1.05 per side rather than
        # shift it: the middle grid node stays on the codimension-2 point
        # t = u = 0, where most of the bisections start, and every edge still
        # bisects the same number of times down to SWEEP_BISECT_TOL.
        rng = random.Random(seed)
        st, su = rng.uniform(0.95, 1.05), rng.uniform(0.95, 1.05)
        t0, t1, u0, u1 = (round(v, 6) for v in (t0 * st, t1 * st, u0 * su, u1 * su))
    return [_cli(
        f"sweep Pi_v3 t={t0}:{t1} u={u0}:{u1}",
        ["sweep", "--table2", "Pi_v3", f"--t={t0}:{t1}", f"--u={u0}:{u1}",
         "--grid", str(SWEEP_GRID)],
        label="Pi_v3", t_range=[t0, t1], u_range=[u0, u1],
    )]


def jobs_for(workload: str, seed: int) -> list:
    return {
        "exact": exact_jobs,
        "trace": trace_jobs,
        "portrait": portrait_jobs,
        "sweep": sweep_jobs,
    }[workload](seed)
