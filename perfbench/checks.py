"""Output checks for each workload, and the corruptions that prove them.

Every check reads the artifacts one job wrote and returns a list of
problems; an empty list means the job passed.  The checks run after the
timed pass.  They hold for any seed: they compare against pinned goldens,
or against properties the algorithm guarantees (a traced vertex meets the
refinement tolerance on the printed curve equation, a locus point is the
midpoint of a bisection bracket whose ends have different fingerprints).

``CORRUPTIONS`` damages one job's artifacts per workload the way a bug
could (a perturbed polynomial, a polyline vertex moved off the curve, a
dropped locus point); ``selftest.py`` shows each is counted as a failure.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np

from workloads import SWEEP_BISECT_TOL, SWEEP_CELL_GRID

EPS = np.finfo(float).eps

# A traced vertex passes when |p| there is at most REFINE_TOL, the
# tolerance trace_zero_set's Newton refinement stops at (its refine_tol
# default, on the same unnormalised p the report prints), plus float
# rounding of the sizes of p's terms there; vertices snapped onto a special
# point are checked as special points.  A vertex the refinement left
# unconverged, or a linear-interpolation point it never refined, fails.  A
# special point passes when |grad p| is below SPECIAL_GRAD_REL of the
# gradient's term sizes at the window scale.
REFINE_TOL = 1e-9
ROUNDING_ULPS = 64
SPECIAL_GRAD_REL = 1e-6
# Portrait curves: field.bde_residual of each curve, relative to the size
# of the BDE coefficients over the window.  Where the lifted curve crosses
# the fold its projection has a cusp and the chords there follow no field
# direction; those chords are the ones shorter than FOLD_FRACTION of the
# curve's median chord, and the residual is taken on the pieces between.
BDE_RESIDUAL_REL = 1e-2
FOLD_FRACTION = 0.1


# -- a small independent reader of the polynomials the CLI prints ----------

_TERM = re.compile(r"([+-]?)([^+-]+)")


def parse_terms(text: str) -> list:
    """``format_poly`` text -> [(Fraction coeff, {var: exponent})]."""
    terms = []
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coeff, powers = Fraction(-1 if sign == "-" else 1), {}
        for factor in body.split("*"):
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                powers[name] = powers.get(name, 0) + int(exp or 1)
        terms.append((coeff, powers))
    return terms


def fix(terms: list, values: dict) -> list:
    """Substitute exact values for some variables; merge equal monomials."""
    merged: dict = {}
    for coeff, powers in terms:
        rest = {}
        for name, k in powers.items():
            if name in values:
                coeff *= Fraction(values[name]) ** k
            else:
                rest[name] = k
        key = tuple(sorted(rest.items()))
        merged[key] = merged.get(key, 0) + coeff
    return [(c, dict(key)) for key, c in merged.items() if c != 0]


def derivative(terms: list, var: str) -> list:
    out = []
    for coeff, powers in terms:
        k = powers.get(var, 0)
        if k:
            out.append((coeff * k, {**powers, var: k - 1}))
    return out


def evaluate(terms: list, x, y):
    """(value, sum of |term|) at float arrays x, y."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    value, size = np.zeros(np.shape(x)), np.zeros(np.shape(x))
    for coeff, powers in terms:
        term = float(coeff) * x ** powers.get("x", 0) * y ** powers.get("y", 0)
        value += term
        size += np.abs(term)
    return value, size


def window_scale(terms: list, window) -> float:
    """Sum of |coeff| * R^degree: the size of the terms across the window."""
    r = max(abs(v) for v in window)
    return float(sum(abs(c) * r ** sum(p.values()) for c, p in terms))


# -- artifact readers ------------------------------------------------------


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_curves(path: str, header=("curve", "branch_id", "x", "y")) -> dict:
    """curves.csv -> {(curve, branch_id): (N, 2) array}; values must be finite."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0]) != header:
        raise ValueError(f"bad {os.path.basename(path)} header {rows[0]}")
    out: dict = {}
    for name, bid, x, y in rows[1:]:
        out.setdefault((name, int(bid)), []).append((float(x), float(y)))
    curves = {k: np.array(v) for k, v in out.items()}
    if any(not np.all(np.isfinite(c)) for c in curves.values()):
        raise ValueError("non-finite coordinate in curves.csv")
    return curves


def _svg(path: str) -> None:
    root = ET.fromstring(_read(path))
    if not root.tag.endswith("svg"):
        raise ValueError(f"{path}: root element is {root.tag}")


def _ok_run(result: dict) -> list:
    if result["error"]:
        return [f"raised: {result['error'].strip().splitlines()[-1]}"]
    if result["rc"] != 0:
        return [f"exit code {result['rc']}: {result['stderr'].strip()[:200]}"]
    return []


# -- per-workload checks ---------------------------------------------------


class Context:
    """What the checks share: the checkout root and a lazily imported mongebde."""

    def __init__(self, root: str):
        self.root = root
        self._golden = None

    @property
    def golden_exact(self) -> dict:
        if self._golden is None:
            self._golden = json.loads(_read(os.path.join(self.root, "goldens", "exact.json")))
        return self._golden

    def mongebde(self):
        src = os.path.join(self.root, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        import mongebde

        return mongebde


def check_exact(job: dict, result: dict, out: str, ctx: Context) -> list:
    problems = _ok_run(result)
    if problems:
        return problems
    if job["kind"] == "compute_exact":
        got = _read(os.path.join(out, "exact.json"))
        want = _read(os.path.join(ctx.root, "goldens", "exact.json"))
        return [] if got == want else ["compute_exact output differs from goldens/exact.json"]
    report = json.loads(_read(os.path.join(out, "report.json")))
    label = job["check"]["label"]
    if job["argv"][0] == "verify-locus":
        if "exact factor: yes" not in result["stdout"] or report.get("exact_factor") is not True:
            return [f"verify-locus {label}: {report.get('detail')!r}"]
        return []
    want = ctx.golden_exact[f"stratum/{label}"]
    got = f"{report['stratum_code']}:{report['codimension']}"
    return [] if got == want else [f"classify {label}: {got} != golden {want}"]


def check_trace(job: dict, result: dict, out: str, ctx: Context) -> list:
    problems = _ok_run(result)
    if problems:
        return problems
    chk = job["check"]
    report = json.loads(_read(os.path.join(out, "report.json")))
    _svg(os.path.join(out, "scene.svg"))
    curves = read_curves(os.path.join(out, "curves.csv"))
    golden = ctx.golden_exact.get(f"{chk['command']}/{chk['label']}")
    if golden is not None and report["polynomial"] != golden:
        problems.append(f"{chk['command']} polynomial {report['polynomial']!r} != golden {golden!r}")
    if len(curves) != report["n_branches"]:
        problems.append(f"{len(curves)} branches in curves.csv, report says {report['n_branches']}")
    t, u = (Fraction(v) for v in chk["params"])
    p = fix(parse_terms(report["polynomial"]), {"t": t, "u": u})
    px, py = derivative(p, "x"), derivative(p, "y")
    window = chk["window"]
    special = np.array([[s["x"], s["y"]] for s in report["special_points"]]).reshape(-1, 2)
    if curves:
        pts = np.vstack(list(curves.values()))
        value, size = evaluate(p, pts[:, 0], pts[:, 1])
        gx, _ = evaluate(px, pts[:, 0], pts[:, 1])
        gy, _ = evaluate(py, pts[:, 0], pts[:, 1])
        grad = np.hypot(gx, gy)
        r = np.abs(value)
        ok = r <= REFINE_TOL + ROUNDING_ULPS * EPS * size
        # Branch ends are snapped onto special points, checked below.
        if len(special):
            near = np.min(np.hypot(pts[:, None, 0] - special[None, :, 0],
                                   pts[:, None, 1] - special[None, :, 1]), axis=1)
            ok |= near == 0.0
        if not ok.all():
            worst = int(np.argmax(np.where(ok, 0.0, r)))
            problems.append(
                f"{int((~ok).sum())} of {len(pts)} traced vertices with |p| above {REFINE_TOL:g}; worst at "
                f"({pts[worst, 0]:.6g}, {pts[worst, 1]:.6g}): |p|={r[worst]:.3g}, |grad p|={grad[worst]:.3g}"
            )
    if len(special):
        gscale = math.hypot(window_scale(px, window), window_scale(py, window))
        gx, _ = evaluate(px, special[:, 0], special[:, 1])
        gy, _ = evaluate(py, special[:, 0], special[:, 1])
        bad = np.hypot(gx, gy) > SPECIAL_GRAD_REL * gscale
        if bad.any():
            problems.append(f"{int(bad.sum())} special points with |grad p| above {SPECIAL_GRAD_REL:g} of scale")
    return problems


def check_portrait(job: dict, result: dict, out: str, ctx: Context) -> list:
    problems = _ok_run(result)
    if problems:
        return problems
    chk = job["check"]
    _svg(os.path.join(out, "scene.svg"))
    curves = read_curves(os.path.join(out, "curves.csv"))
    portrait = [c for (name, _), c in sorted(curves.items()) if name == "portrait"]
    if not portrait:
        return ["no portrait curves"]
    m = ctx.mongebde()
    from mongebde.field import bde_residual

    params = tuple(Fraction(v) for v in chk["params"])
    bde = m.asymptotic_bde(m.family_library(chk["label"]).f)
    window = chk["window"]
    scale = max(
        window_scale(fix(parse_terms(m.format_poly(q)), {"t": params[0], "u": params[1]}), window)
        for q in (bde.a, bde.b, bde.c)
    )
    x0, x1, y0, y1 = window
    for k, curve in enumerate(portrait):
        if not np.all((curve[:, 0] >= x0) & (curve[:, 0] <= x1) & (curve[:, 1] >= y0) & (curve[:, 1] <= y1)):
            problems.append(f"portrait curve {k} leaves the window")
        chords = np.hypot(*np.diff(curve, axis=0).T)
        folds = np.flatnonzero(chords < FOLD_FRACTION * np.median(chords))
        starts, ends = np.concatenate([[0], folds + 1]), np.concatenate([folds + 1, [len(curve)]])
        res = max(bde_residual(bde, curve[a:b], params) for a, b in zip(starts, ends))
        if not res <= BDE_RESIDUAL_REL * scale:
            problems.append(f"portrait curve {k}: bde_residual {res:.3g} > {BDE_RESIDUAL_REL:g} * {scale:.3g}")
    return problems


def _replay_bisection(a, b, point, tol):
    """The bracket ``sweep._bisect_edge`` ends with when it returns ``point``.

    The bisection halves [a, b] until it is shorter than ``tol``; which half
    it keeps is read off the side of the final midpoint.  Returns (lo, hi),
    or None when no bisection of this edge returns ``point``.
    """
    lo, hi = np.asarray(a, float), np.asarray(b, float)
    target = np.asarray(point, float)
    d = hi - lo
    while np.hypot(*(hi - lo)) > tol:
        mid = (lo + hi) / 2
        if np.dot(target - mid, d) >= 0:
            lo = mid
        else:
            hi = mid
    return (lo, hi) if np.array_equal((lo + hi) / 2, target) else None


def check_sweep(job: dict, result: dict, out: str, ctx: Context) -> list:
    problems = _ok_run(result)
    if problems:
        return problems
    chk = job["check"]
    _svg(os.path.join(out, "diagram.svg"))
    data = json.loads(_read(os.path.join(out, "fingerprints.json")))
    csv_loci = read_curves(os.path.join(out, "curves.csv"), ("locus", "point_id", "t", "u"))
    ts, us, comps = data["t_values"], data["u_values"], data["components"]
    grid = [[tuple(tuple(v) if isinstance(v, list) else v for v in (cell[c] for c in comps))
             for cell in row] for row in data["fingerprints"]]
    loci = {name: [tuple(p) for p in pts] for name, pts in data["loci"].items()}
    flat = sorted((name, p) for name, pts in loci.items() for p in pts)
    csv_flat = sorted((name, tuple(p)) for (name, _), pts in csv_loci.items() for p in pts)
    if flat != csv_flat:
        problems.append("curves.csv loci differ from fingerprints.json loci")
    m = ctx.mongebde()
    fam = m.family_library(chk["label"])
    window = tuple(data["window"])

    def fp(params, name):
        return m.fingerprint(fam, tuple(params), window, (name,), grid=SWEEP_CELL_GRID)[0]

    unmatched = {name: list(pts) for name, pts in loci.items()}
    for i in range(len(ts)):
        for j in range(len(us)):
            for i2, j2 in ((i + 1, j), (i, j + 1)):
                if i2 >= len(ts) or j2 >= len(us):
                    continue
                a, b = (ts[i], us[j]), (ts[i2], us[j2])
                for k, name in enumerate(comps):
                    if grid[i][j][k] == grid[i2][j2][k]:
                        continue
                    hits = [p for p in unmatched.get(name, []) if _replay_bisection(a, b, p, SWEEP_BISECT_TOL)]
                    if len(hits) != 1:
                        problems.append(f"{name}: {len(hits)} locus points on edge {a}-{b}, want 1")
                        continue
                    unmatched[name].remove(hits[0])
                    lo, hi = _replay_bisection(a, b, hits[0], SWEEP_BISECT_TOL)
                    want = grid[i][j][k]
                    if _canon(fp(lo, name)) != want or _canon(fp(hi, name)) == want:
                        problems.append(f"{name} point {hits[0]} does not bracket a fingerprint change")
    for name, pts in unmatched.items():
        if pts:
            problems.append(f"{name}: {len(pts)} locus points on no changed edge")
    for t, u in loci.get("parabolic_singular", []):
        # README closed form for Pi_v3: 108 t - 40 u^3 - 3 u^4 = 0.
        f = 108 * t - 40 * u**3 - 3 * u**4
        grad = math.hypot(108.0, -120 * u**2 - 12 * u**3)
        if abs(f) > SWEEP_BISECT_TOL * grad:
            problems.append(f"parabolic_singular point ({t:.6g}, {u:.6g}) is {abs(f) / grad:.3g} "
                            f"from the closed-form locus (bound {SWEEP_BISECT_TOL:g})")
    return problems


def _canon(v):
    return tuple(v) if isinstance(v, (list, tuple)) else v


CHECKS = {
    "exact": check_exact,
    "trace": check_trace,
    "portrait": check_portrait,
    "sweep": check_sweep,
}


# -- corruptions (for selftest.py) -----------------------------------------


def _rewrite(path: str, fn) -> None:
    text = _read(path)
    new = fn(text)
    if new == text:
        raise RuntimeError(f"corruption left {path} unchanged")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(new)


def _move_vertex(path: str, curve: str, move) -> None:
    """Replace one interior vertex (x, y) of the longest branch of ``curve``
    by ``move(x, y)``."""
    def fn(text):
        lines = text.splitlines()
        rows = [(n, line.split(",")) for n, line in enumerate(lines) if line.startswith(curve + ",")]
        counts: dict = {}
        for _, parts in rows:
            counts[parts[1]] = counts.get(parts[1], 0) + 1
        longest = max(counts, key=counts.get)
        members = [(n, parts) for n, parts in rows if parts[1] == longest]
        n, parts = members[len(members) // 2]
        parts[2:4] = (repr(float(v)) for v in move(float(parts[2]), float(parts[3])))
        lines[n] = ",".join(parts)
        return "\n".join(lines) + "\n"
    _rewrite(path, fn)


def corrupt_exact(jobs: list, out_dirs: list) -> int:
    """Perturb one polynomial of compute_exact's output."""
    k = next(i for i, j in enumerate(jobs) if j["kind"] == "compute_exact")
    _rewrite(os.path.join(out_dirs[k], "exact.json"), lambda s: s.replace("108*t", "107*t", 1))
    return k


def corrupt_trace(jobs: list, out_dirs: list) -> int:
    """Move one traced vertex off the curve by a thousandth of a grid cell.

    The move is along the gradient of p, so it is the smallest that leaves
    the vertex that far from the curve.  A thousandth of a cell is below
    the error of the unrefined linear-interpolation point on a curved
    branch, so the check catches a vertex the refinement skipped.
    """
    chk = jobs[0]["check"]
    report = json.loads(_read(os.path.join(out_dirs[0], "report.json")))
    t, u = (Fraction(v) for v in chk["params"])
    p = fix(parse_terms(report["polynomial"]), {"t": t, "u": u})
    window = chk["window"]
    step = 1e-3 * max(window[1] - window[0], window[3] - window[2]) / chk["resolution"]

    def move(x, y):
        gx, gy = evaluate(derivative(p, "x"), x, y)[0], evaluate(derivative(p, "y"), x, y)[0]
        norm = math.hypot(gx, gy)
        return x + step * gx / norm, y + step * gy / norm

    _move_vertex(os.path.join(out_dirs[0], "curves.csv"), chk["command"], move)
    return 0


def corrupt_portrait(jobs: list, out_dirs: list) -> int:
    """Shift one vertex of one integral curve by 1e-4."""
    _move_vertex(os.path.join(out_dirs[0], "curves.csv"), "portrait", lambda x, y: (x, y + 1e-4))
    return 0


def corrupt_sweep(jobs: list, out_dirs: list) -> int:
    """Drop one locus point from both sweep artifacts."""
    path = os.path.join(out_dirs[0], "fingerprints.json")
    data = json.loads(_read(path))
    name = sorted(data["loci"])[0]
    dropped = data["loci"][name].pop()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
    row = f"{name},{len(data['loci'][name])},{dropped[0]!r},{dropped[1]!r}\n"
    _rewrite(os.path.join(out_dirs[0], "curves.csv"), lambda s: s.replace(row, "", 1))
    return 0


CORRUPTIONS = {
    "exact": corrupt_exact,
    "trace": corrupt_trace,
    "portrait": corrupt_portrait,
    "sweep": corrupt_sweep,
}
