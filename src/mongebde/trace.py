"""Numerical tracing of implicit curves and their special points.

Exact polynomials come in; floats come out.  Tracing is marching squares
with Newton refinement of every crossing.  Singular points and cusps of
Gauss and butterfly points are found by ``numeval.newton``, the one batched
damped Newton solver, on a ``PolySystem`` seeded on a lattice over the
window, times the circle of directions for butterflies; singular points
are classified by the Hessian (falling back to the cubic term in the
kernel direction).  ``_FamilyCurves`` holds a family's exact parabolic and
flecnodal equations, so callers that visit many parameter points (sweeps,
panels) derive them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .families import SurfaceFamily, family_library, fix_params
from .flecnodal import FlecnodalSystem, flecnodal_system, parabolic_poly
from .numeval import CompiledSystem, PolySystem, compile_poly, newton
from .poly import Poly, unify

Window = tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
DEFAULT_WINDOW: Window = (-0.5, 0.5, -0.5, 0.5)

#: Solver points closer than this to a point kept before them are merged
#: into it (singular points, cusps of Gauss, butterfly points).
DEDUPE_RADIUS = 1e-6
#: Singular points: Newton stops once every step is shorter than
#: SINGULAR_NEWTON_TOL; a point is kept when |p| <= SINGULAR_RESIDUAL_TOL
#: and |grad p| <= sqrt(SINGULAR_RESIDUAL_TOL).
SINGULAR_NEWTON_TOL = 1e-12
SINGULAR_RESIDUAL_TOL = 1e-10
#: Marching squares refines each edge crossing until |p| <= REFINE_TOL.
REFINE_TOL = 1e-9
#: Cusps of Gauss: |P|, |S| <= CUSP_ON_CURVE_TOL and
#: |grad P x grad S| <= CUSP_PARALLEL_TOL.
CUSP_ON_CURVE_TOL = 1e-8
CUSP_PARALLEL_TOL = 1e-8
#: Butterfly points: a BUTTERFLY_GRID^2 lattice of (x, y) seeds times
#: BUTTERFLY_V_SEEDS unit directions at angles evenly spaced on [0, pi); a
#: solution is kept when every residual of its system is at most
#: BUTTERFLY_RESIDUAL_TOL.
BUTTERFLY_GRID = 10
BUTTERFLY_V_SEEDS = 9
BUTTERFLY_RESIDUAL_TOL = 1e-9


class _FamilyCurves:
    """Exact parabolic and flecnodal equations of a family, derived once."""

    def __init__(self, fam: SurfaceFamily):
        self.parabolic = parabolic_poly(fam)
        self.flecnodal = flecnodal_system(fam).eliminant


@dataclass
class TracedCurve:
    """Polyline approximation of an implicit curve plus marked points."""

    branches: list  # list of (N, 2) float arrays
    special_points: list  # list of ((x, y), tag)
    source: Poly
    window: Window
    resolution: int

    def n_branches(self) -> int:
        return len(self.branches)

    def all_points(self) -> np.ndarray:
        if not self.branches:
            return np.zeros((0, 2))
        return np.vstack(self.branches)


# -- singular points -------------------------------------------------------


def curve_singularities(
    p: Poly,
    window: Window = DEFAULT_WINDOW,
    params=None,
    *,
    grid: int = 64,
) -> list:
    """Solutions of p = p_x = p_y = 0 in the window, classified.

    Classification: nondegenerate Hessian -> node (indefinite) or isolated
    (definite); rank-1 Hessian with a nonzero cubic term along the kernel
    -> cusp; anything deeper -> degenerate.  An identically zero p has
    no curve and so no singular points.
    """
    if params is not None:
        p = fix_params(p, params)
    p = _in_xy(p.restrict())
    if p.is_zero():
        return []
    px, py = p.partial("x"), p.partial("y")
    # Degenerate roots of the gradient system (cusps) converge only
    # linearly, so allow many iterations; the loop exits early once every
    # seed has stalled or converged.
    Z = newton(PolySystem((px, py)), _lattice(window, grid), 300, SINGULAR_NEWTON_TOL)
    X, Y = _in_window(window, 1e-9, *Z)
    v, vx, vy = CompiledSystem((p, px, py))(X, Y)
    grad = np.hypot(vx, vy)
    ok = (np.abs(v) <= SINGULAR_RESIDUAL_TOL) & (grad <= math.sqrt(SINGULAR_RESIDUAL_TOL))
    order = np.argsort(np.abs(v[ok]) + grad[ok])
    points = _dedupe(np.column_stack([X[ok][order], Y[ok][order]]), DEDUPE_RADIUS)
    return [((float(x0), float(y0)), _classify_point(p, x0, y0)) for x0, y0 in points]


def _in_xy(p: Poly) -> Poly:
    for name in p.varlist:
        if name not in ("x", "y") and p.degree(name) > 0:
            raise UsageError(
                f"expected a polynomial in (x, y); found {name!r} (substitute params first)"
            )
    return p.restrict().extend(("x", "y"))


def _classify_point(p: Poly, x0: float, y0: float) -> str:
    vals = {"x": x0, "y": y0}
    h11 = p.partial("x").partial("x").eval_float(vals)
    h12 = p.partial("x").partial("y").eval_float(vals)
    h22 = p.partial("y").partial("y").eval_float(vals)
    hnorm = max(abs(h11), abs(h12), abs(h22))
    det = h11 * h22 - h12 * h12
    if hnorm > 1e-8 and abs(det) > 1e-8 * hnorm * hnorm:
        return "node" if det < 0 else "isolated"
    if hnorm <= 1e-8:
        return "degenerate"
    # Rank 1: kernel direction of the (symmetric) Hessian.
    if abs(h11) + abs(h12) >= abs(h12) + abs(h22):
        kx, ky = h12, -h11
    else:
        kx, ky = h22, -h12
    n = math.hypot(kx, ky)
    kx, ky = kx / n, ky / n
    c3 = (
        p.partial("x").partial("x").partial("x").eval_float(vals) * kx**3
        + 3 * p.partial("x").partial("x").partial("y").eval_float(vals) * kx**2 * ky
        + 3 * p.partial("x").partial("y").partial("y").eval_float(vals) * kx * ky**2
        + p.partial("y").partial("y").partial("y").eval_float(vals) * ky**3
    )
    return "cusp" if abs(c3) > 1e-6 * max(1.0, hnorm) else "degenerate"


def _dedupe(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy merge in order: a point is kept when it lies farther than
    ``radius`` from every point kept before it."""
    alive = np.ones(len(points), dtype=bool)
    kept = []
    while alive.any():
        i = int(np.argmax(alive))
        kept.append(i)
        alive &= np.hypot(points[:, 0] - points[i, 0], points[:, 1] - points[i, 1]) > radius
        alive[i] = False
    return points[kept]


# -- marching squares ------------------------------------------------------


def trace_zero_set(
    p: Poly,
    window: Window = DEFAULT_WINDOW,
    resolution: int = 128,
    params=None,
    *,
    mark_singular: bool = True,
) -> TracedCurve:
    """Marching squares with Newton refinement; branches split at singular points."""
    if resolution < 8:
        raise UsageError("resolution must be at least 8")
    if params is not None:
        p = fix_params(p, params)
    p = _in_xy(p.restrict())
    xmin, xmax, ymin, ymax = window
    xs = np.linspace(xmin, xmax, resolution + 1)
    ys = np.linspace(ymin, ymax, resolution + 1)
    fp = compile_poly(p)
    fx, fy = compile_poly(p.partial("x")), compile_poly(p.partial("y"))
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vals = fp(gx, gy)

    # Crossing point per grid edge (keyed so neighbors share vertices).
    edge_pts: dict = {}

    def edge_point(i0, j0, i1, j1):
        key = (i0, j0, i1, j1)
        if key in edge_pts:
            return key
        v0, v1 = vals[i0, j0], vals[i1, j1]
        s = 0.5 if v0 == v1 else v0 / (v0 - v1)
        x = xs[i0] + (xs[i1] - xs[i0]) * s
        y = ys[j0] + (ys[j1] - ys[j0]) * s
        x, y = _newton_onto_curve(fp, fx, fy, x, y, REFINE_TOL)
        edge_pts[key] = (x, y)
        return key

    segments = []
    neg = vals < 0
    for i in range(resolution):
        for j in range(resolution):
            mask = (
                (1 if neg[i, j] else 0)
                | (2 if neg[i + 1, j] else 0)
                | (4 if neg[i + 1, j + 1] else 0)
                | (8 if neg[i, j + 1] else 0)
            )
            if mask in (0, 15):
                continue
            bottom = (i, j, i + 1, j)
            right = (i + 1, j, i + 1, j + 1)
            top = (i, j + 1, i + 1, j + 1)
            left = (i, j, i, j + 1)
            combos = _MS_TABLE[mask]
            if mask in (5, 10):
                center = fp((xs[i] + xs[i + 1]) / 2, (ys[j] + ys[j + 1]) / 2)
                combos = _ms_ambiguous(mask, center < 0)
            for e1, e2 in combos:
                k1 = edge_point(*{"b": bottom, "r": right, "t": top, "l": left}[e1])
                k2 = edge_point(*{"b": bottom, "r": right, "t": top, "l": left}[e2])
                if k1 != k2:
                    segments.append((k1, k2))

    branches = _chain_segments(segments, edge_pts)
    special = []
    if mark_singular:
        special = curve_singularities(p, window)
        cell = max((xmax - xmin), (ymax - ymin)) / resolution
        branches = _split_at_points(branches, [pt for pt, _ in special], 1.5 * cell)
    return TracedCurve(
        branches=[np.array(b) for b in branches],
        special_points=special,
        source=p,
        window=window,
        resolution=resolution,
    )


_MS_TABLE = {
    1: [("b", "l")],
    2: [("b", "r")],
    3: [("l", "r")],
    4: [("r", "t")],
    5: None,
    6: [("b", "t")],
    7: [("l", "t")],
    8: [("l", "t")],
    9: [("b", "t")],
    10: None,
    11: [("r", "t")],
    12: [("l", "r")],
    13: [("b", "r")],
    14: [("b", "l")],
}


def _ms_ambiguous(mask, center_neg):
    # mask 5: corners (0,0) and (1,1) negative; mask 10: the other pair.
    if mask == 5:
        return [("b", "r"), ("l", "t")] if center_neg else [("b", "l"), ("r", "t")]
    return [("b", "l"), ("r", "t")] if center_neg else [("b", "r"), ("l", "t")]


def _newton_onto_curve(fp, fx, fy, x, y, tol, max_iter=50):
    for _ in range(max_iter):
        v = fp(x, y)
        if abs(v) <= tol:
            return float(x), float(y)
        g1, g2 = fx(x, y), fy(x, y)
        n2 = g1 * g1 + g2 * g2
        if n2 < 1e-300:
            break
        x -= v * g1 / n2
        y -= v * g2 / n2
    return float(x), float(y)


def _chain_segments(segments, edge_pts):
    adj: dict = {}
    for idx, (a, b) in enumerate(segments):
        adj.setdefault(a, []).append((idx, b))
        adj.setdefault(b, []).append((idx, a))
    used = [False] * len(segments)
    chains = []
    for start in adj:
        if len(adj[start]) == 2:
            continue
        for idx, nxt in adj[start]:
            if used[idx]:
                continue
            chains.append(_walk(start, idx, nxt, adj, used))
    # Remaining segments form closed loops.
    for idx, (a, b) in enumerate(segments):
        if not used[idx]:
            used[idx] = True
            chains.append(_walk(a, idx, b, adj, used, first_used=True))
    return [[edge_pts[k] for k in chain] for chain in chains if len(chain) > 1]


def _walk(start, idx, nxt, adj, used, first_used=False):
    if not first_used:
        used[idx] = True
    chain = [start, nxt]
    cur = nxt
    prev_idx = idx
    while True:
        options = [(i, o) for i, o in adj.get(cur, []) if not used[i] and i != prev_idx]
        if not options:
            break
        i, o = options[0]
        used[i] = True
        chain.append(o)
        cur, prev_idx = o, i
        if cur == start:
            break
    return chain


def _split_at_points(branches, points, radius):
    if not points:
        return branches
    out = []
    for br in branches:
        dists = [
            min(math.hypot(x - px, y - py) for px, py in points) for x, y in br
        ]
        # One cut per passage: the closest vertex of each maximal run of
        # vertices inside the radius, snapped onto the singular point.
        cuts = []
        k = 0
        while k < len(br):
            if dists[k] <= radius:
                j = k
                while j + 1 < len(br) and dists[j + 1] <= radius:
                    j += 1
                best = min(range(k, j + 1), key=lambda m: dists[m])
                cuts.append(best)
                k = j + 1
            else:
                k += 1
        if not cuts:
            out.append(br)
            continue
        br = list(br)
        closed = br[0] == br[-1] and len(br) > 2
        if closed:
            # Rotate so the loop starts at a cut; one cut then yields one
            # open branch with both ends at the singular point.
            c0 = cuts[0]
            br = br[c0:-1] + br[: c0 + 1]
            dists = dists[c0:-1] + dists[: c0 + 1]
            cuts = [k - c0 for k in cuts]
            cuts[-1] = len(br) - 1 if cuts[0] == 0 else cuts[-1]
            cuts = sorted({0, len(br) - 1} | {k for k in cuts if 0 < k < len(br) - 1})
        for k in cuts:
            nearest = min(points, key=lambda q: math.hypot(br[k][0] - q[0], br[k][1] - q[1]))
            br[k] = (nearest[0], nearest[1])
        prev = 0
        for k in cuts:
            piece = br[prev:k + 1]
            if len(piece) > 1:
                out.append(piece)
            prev = k
        tail = br[prev:]
        if len(tail) > 1:
            out.append(tail)
    return out


# -- special point solvers -------------------------------------------------


def gauss_cusps(
    f: "SurfaceFamily | Poly",
    params=(0, 0),
    window: Window = DEFAULT_WINDOW,
    *,
    grid: int = 64,
    _cache: "_FamilyCurves | None" = None,
) -> list:
    """Tangency points of the parabolic and flecnodal curves.

    Solves {P = 0, grad P x grad S = 0} by ``newton`` (60 iterations,
    no early exit) from a grid x grid seed lattice and keeps solutions
    lying on S as well (|S| small): ordinary or degenerate cusps of Gauss.
    P and S come from ``_cache`` when given, otherwise they are derived
    here.  A family without a flecnodal curve (an identically zero
    eliminant, e.g. an elliptic surface) has none.
    """
    fam = f if isinstance(f, SurfaceFamily) else SurfaceFamily(f=f)
    if _cache is None:
        _cache = _FamilyCurves(fam)
    P, S = unify(*(_in_xy(fix_params(q, params)) for q in (_cache.parabolic, _cache.flecnodal)))
    if S.is_zero():
        return []
    cross = P.partial("x") * S.partial("y") - P.partial("y") * S.partial("x")
    X, Y = _in_window(window, 1e-9, *newton(PolySystem((P, cross)), _lattice(window, grid), 60))
    vP, vc, vS = CompiledSystem((P, cross, S))(X, Y)
    ok = (np.abs(vP) <= CUSP_ON_CURVE_TOL) & (np.abs(vS) <= CUSP_ON_CURVE_TOL)
    ok &= np.abs(vc) <= CUSP_PARALLEL_TOL
    pts = _dedupe(np.column_stack([X[ok], Y[ok]]), DEDUPE_RADIUS)
    return [(float(x0), float(y0)) for x0, y0 in pts]


def _lattice(window: Window, grid: int, *extra) -> tuple:
    """Seeds on a grid x grid lattice over the window, times each ``extra``
    array of values: one flat array per coordinate, in ``np.meshgrid`` order."""
    xmin, xmax, ymin, ymax = window
    axes = np.meshgrid(np.linspace(xmin, xmax, grid), np.linspace(ymin, ymax, grid), *extra)
    return tuple(a.ravel() for a in axes)


def _in_window(window: Window, pad: float, X, Y, *rest) -> tuple:
    """The points with every coordinate finite and (x, y) within ``pad`` of
    the window, one array per coordinate, in order."""
    xmin, xmax, ymin, ymax = window
    ok = (X >= xmin - pad) & (X <= xmax + pad) & (Y >= ymin - pad) & (Y <= ymax + pad)
    for z in (X, Y, *rest):
        ok &= np.isfinite(z)
    return tuple(z[ok] for z in (X, Y, *rest))


def butterfly_points(
    f: "SurfaceFamily | FlecnodalSystem",
    window: Window = DEFAULT_WINDOW,
    params=(0, 0),
) -> list:
    """Points of 5-point contact: common zeros of e2 = e3 = e4.

    The direction (v, w) is kept on the unit circle, so one system
    {e2, e3, e4, v^2 + w^2 - 1} in (x, y, v, w) covers every direction
    without a chart.
    """
    fs = f if isinstance(f, FlecnodalSystem) else flecnodal_system(f)
    v, w = Poly.var("v", ("v", "w")), Poly.var("w", ("v", "w"))
    polys = [fix_params(e, params) for e in (fs.e2, fs.e3, fs.e4)] + [v * v + w * w - 1]
    system = PolySystem(polys, ("x", "y", "v", "w"))
    angles = np.linspace(0.0, np.pi, BUTTERFLY_V_SEEDS, endpoint=False)
    X, Y, angle = _lattice(window, BUTTERFLY_GRID, angles)
    X, Y, V, W = _in_window(window, 0.0, *newton(system, (X, Y, np.cos(angle), np.sin(angle)), 60))
    ok = np.all(np.abs(system(X, Y, V, W)[0]) <= BUTTERFLY_RESIDUAL_TOL, axis=0)
    pts = _dedupe(np.column_stack([X[ok], Y[ok]]), DEDUPE_RADIUS)
    return [(float(x0), float(y0)) for x0, y0 in pts]


def flecnodal_parametrization_check(t: float = -0.01, n_samples: int = 11) -> float:
    """Max |eliminant| along the closed-form flecnodal parametrization.

    The check runs on Pi_v1++ with its default moduli, the binodal
    deformation y^2 + x^4 + x^2 y^2 + t x^2 (t < 0).  Solving e3 = 0 gives
    y = -x(2 + v^2)/v; substituting into e2 = 0 yields the exact
    parametrization

        x = +-      v  sqrt(-t - v^2) / sqrt(2 (2 + v^2 - v^4)),
        y = -+ (2+v^2) sqrt(-t - v^2) / sqrt(2 (2 + v^2 - v^4)),

    valid for t <= -v^2.  The ``n_samples`` values of v are spread over
    [-0.05, 0.05].  The eliminant must vanish along it to float precision.
    """
    elim = fix_params(flecnodal_system(family_library("Pi_v1++")).eliminant, (t, 0))
    fe = compile_poly(_in_xy(elim))
    worst = 0.0
    for v in np.linspace(-0.05, 0.05, n_samples):
        if -t - v * v < 0:
            continue
        scale = math.sqrt(-t - v * v) / math.sqrt(2 * (2 + v * v - v**4))
        for sgn in (+1, -1):
            x = sgn * v * scale
            y = -sgn * (2 + v * v) * scale
            worst = max(worst, abs(fe(x, y)))
    return worst
