"""Parameter-plane sweeps: event fingerprints, locus tracing, verification.

A cell of the (t, u) grid is summarized by a fingerprint of small counts
(singular points of the parabolic curve, cusps of Gauss, butterfly
points, singular points of the flecnodal curve, and optionally branch
counts).  Loci where the fingerprint jumps are refined by bisection along
grid edges; closed-form locus equations are verified both numerically on
the traced points and exactly, by eliminating (x, y) from the singularity
system with iterated resultants and testing divisibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .families import SurfaceFamily
from .flecnodal import flecnodal_system, parabolic_poly
from .poly import Poly, divexact, normalize_primitive, resultant, unify
from .trace import (
    DEFAULT_WINDOW,
    TracedCurve,
    Window,
    _FamilyCurves,
    butterfly_points,
    curve_singularities,
    gauss_cusps,
    trace_zero_set,
)

DEFAULT_COMPONENTS = (
    "parabolic_singular",
    "gauss_cusps",
    "flecnodal_singular",
    "parabolic_branches",
)
#: Marching-squares resolution of the ``*_branches`` fingerprint components.
BRANCH_RESOLUTION = 32
#: A closed-form locus passes the numerical check when it is at most this
#: large on every point of some traced locus.
LOCUS_RESIDUAL_TOL = 1e-6
#: The exact locus check is skipped for curves of higher degree in x or y,
#: whose resultants are impractical.
MAX_EXACT_DEGREE = 12


@dataclass
class Locus:
    """A traced event locus in the parameter plane."""

    label: str
    points: np.ndarray  # (N, 2) array of (t, u)


@dataclass
class BifurcationDiagram:
    family: SurfaceFamily
    t_values: np.ndarray
    u_values: np.ndarray
    fingerprints: list  # fingerprints[i][j] for (t_values[i], u_values[j])
    loci: list  # list of Locus
    components: tuple
    window: Window
    panels: list = field(default_factory=list)  # (params, Scene)

    def fingerprint_grid(self) -> list:
        """JSON-ready nested lists of per-cell fingerprints."""
        return [
            [
                {name: count for name, count in zip(self.components, fp)}
                for fp in row
            ]
            for row in self.fingerprints
        ]


_SING_TAGS = ("node", "cusp", "isolated", "degenerate")


def _typed_count(singularities: list) -> tuple:
    """Singular points counted per type, so type transitions register.

    A Morse transition swaps a node for an isolated point without changing
    the total count; the typed tuple still jumps.
    """
    tags = [tag for _, tag in singularities]
    return tuple(tags.count(t) for t in _SING_TAGS)


def fingerprint(
    fam: SurfaceFamily,
    params,
    window: Window = DEFAULT_WINDOW,
    components: tuple = DEFAULT_COMPONENTS,
    *,
    grid: int = 64,
    _cache: "_FamilyCurves | None" = None,
) -> tuple:
    """Event counts at fixed parameter values, in ``components`` order."""
    cache = _cache or _FamilyCurves(fam)
    out = []
    for name in components:
        if name == "parabolic_singular":
            out.append(_typed_count(curve_singularities(cache.parabolic, window, params, grid=grid)))
        elif name == "gauss_cusps":
            out.append(len(gauss_cusps(fam, params, window, grid=grid, _cache=cache)))
        elif name == "butterflies":
            out.append(len(butterfly_points(fam, window, params)))
        elif name == "flecnodal_singular":
            out.append(_typed_count(curve_singularities(cache.flecnodal, window, params, grid=grid)))
        elif name in ("parabolic_branches", "flecnodal_branches"):
            curve = cache.parabolic if name == "parabolic_branches" else cache.flecnodal
            traced = trace_zero_set(curve, window, BRANCH_RESOLUTION, params, mark_singular=False)
            out.append(traced.n_branches())
        else:
            raise UsageError(f"unknown fingerprint component {name!r}")
    return tuple(out)


def _bisect_edge(fp_fn, p_lo, p_hi, fp_lo, tol: float) -> tuple:
    """Refine the fingerprint jump between two parameter points."""
    lo, hi = np.asarray(p_lo, float), np.asarray(p_hi, float)
    while np.hypot(*(hi - lo)) > tol:
        mid = (lo + hi) / 2
        if fp_fn(tuple(mid)) == fp_lo:
            lo = mid
        else:
            hi = mid
    return tuple((lo + hi) / 2)


def _chain(points: np.ndarray) -> np.ndarray:
    """Order scattered locus points into a polyline by nearest neighbor."""
    if len(points) <= 2:
        return points
    remaining = list(range(len(points)))
    start = min(remaining, key=lambda i: (points[i][0], points[i][1]))
    order = [start]
    remaining.remove(start)
    while remaining:
        last = points[order[-1]]
        nxt = min(remaining, key=lambda i: np.hypot(*(points[i] - last)))
        order.append(nxt)
        remaining.remove(nxt)
    return points[order]


def sweep(
    fam: SurfaceFamily,
    t_range=(-0.1, 0.1),
    u_range=(-0.1, 0.1),
    grid_n: int = 8,
    *,
    window: Window = DEFAULT_WINDOW,
    components: tuple = DEFAULT_COMPONENTS,
    cell_grid: int = 64,
    bisect_tol: float = 1e-8,
) -> BifurcationDiagram:
    """Fingerprint the parameter grid and trace loci where cells disagree.

    Families without a ``u`` dependence are swept along ``t`` only.
    """
    cache = _FamilyCurves(fam)
    has_u = "u" in fam.f.varlist and any(
        e[fam.f.varlist.index("u")] for e in fam.f.terms
    )
    ts = np.linspace(t_range[0], t_range[1], grid_n)
    us = np.linspace(u_range[0], u_range[1], grid_n) if has_u else np.array([0.0])

    def fp_at(params, comps=components):
        return fingerprint(fam, params, window, comps, grid=cell_grid, _cache=cache)

    grid = [[fp_at((t, u)) for u in us] for t in ts]

    # Each changed component is bisected on its own: a sharply detected
    # count must not inherit the uncertainty of an ill-conditioned one
    # (type reclassification right at a transition).
    events: dict[str, list] = {}
    for i in range(len(ts)):
        for j in range(len(us)):
            for di, dj in ((1, 0), (0, 1)):
                i2, j2 = i + di, j + dj
                if i2 >= len(ts) or j2 >= len(us):
                    continue
                a, b = grid[i][j], grid[i2][j2]
                if a == b:
                    continue
                for k, name in enumerate(components):
                    if a[k] == b[k]:
                        continue
                    pt = _bisect_edge(
                        lambda p, n=name: fp_at(p, (n,)),
                        (ts[i], us[j]),
                        (ts[i2], us[j2]),
                        (a[k],),
                        bisect_tol,
                    )
                    events.setdefault(name, []).append(pt)

    loci = [
        Locus(label=label, points=_chain(np.array(pts)))
        for label, pts in sorted(events.items())
    ]
    return BifurcationDiagram(
        family=fam,
        t_values=ts,
        u_values=us,
        fingerprints=grid,
        loci=loci,
        components=components,
        window=window,
    )


# -- exact locus verification ----------------------------------------------


def _eliminate(a: Poly, b: Poly, var: str) -> Poly:
    """One elimination step: resultant, or the var-free operand itself."""
    a, b = unify(a, b)
    if var not in a.varlist:
        raise UsageError(f"variable {var!r} absent from both operands")
    da, db = a.degree(var), b.degree(var)
    if da == 0:
        return a
    if db == 0:
        return b
    return resultant(a, b, var)


def singular_parameter_eliminant(p: Poly) -> Poly:
    """Eliminate (x, y) from {p = p_x = p_y = 0}; primitive result in (t, u).

    The zero set of the result contains every parameter value at which the
    curve p = 0 has a singular point.
    """
    px, py = p.partial("x"), p.partial("y")
    if px.is_zero() or py.is_zero():
        raise UsageError("curve family must depend on both x and y")
    e1 = _eliminate(p, px, "y")
    e2 = _eliminate(p, py, "y")
    e = _eliminate(e1, e2, "x")
    if e.is_zero():
        raise UsageError("eliminant vanished identically; family too degenerate")
    return normalize_primitive(e.restrict())


def _divides(factor: Poly, p: Poly) -> bool:
    try:
        divexact(*unify(p, factor))
        return True
    except UsageError:
        return False


@dataclass
class LocusVerification:
    exact_factor: bool | None  # None when the exact check was not attempted
    max_residual: float | None  # None when no diagram was supplied
    ok: bool
    detail: str


def event_locus_verify(
    fam: SurfaceFamily,
    closed_form: Poly,
    diagram: BifurcationDiagram | None = None,
    *,
    curve: str = "parabolic",
) -> LocusVerification:
    """Check a closed-form locus equation in (t, u) against the family.

    Exact part: the closed form must divide the iterated-resultant
    eliminant of the singularity system of the chosen curve (skipped when
    the curve's degree in x or y exceeds ``MAX_EXACT_DEGREE``).  Numerical
    part (when a diagram is given): the closed form must be at most
    ``LOCUS_RESIDUAL_TOL`` on every point of some traced locus.
    """
    source = parabolic_poly(fam) if curve == "parabolic" else flecnodal_system(fam).eliminant
    exact: bool | None = None
    notes = []
    if max(source.degree("x"), source.degree("y")) <= MAX_EXACT_DEGREE:
        eliminant = singular_parameter_eliminant(source)
        exact = _divides(closed_form, eliminant)
        notes.append(f"exact factor: {'yes' if exact else 'NO'}")
    else:
        notes.append("exact check skipped (degree too high)")

    residual: float | None = None
    if diagram is not None:
        if not diagram.loci:
            return LocusVerification(exact, None, False, "no traced locus in diagram")
        cf = closed_form.restrict()
        per_locus = []
        for locus in diagram.loci:
            vals = [
                abs(cf.eval_float({n: {"t": t, "u": u}.get(n, 0.0) for n in cf.varlist}))
                for t, u in locus.points
            ]
            per_locus.append(max(vals) if vals else math.inf)
        residual = min(per_locus)
        notes.append(f"best locus residual: {residual:.3g}")
        if residual > LOCUS_RESIDUAL_TOL:
            return LocusVerification(exact, residual, False, "; ".join(notes))

    ok = exact is not False
    return LocusVerification(exact, residual, ok, "; ".join(notes))


# -- panel scenes -----------------------------------------------------------


@dataclass
class Scene:
    """Everything drawn in one diagram panel at fixed parameter values."""

    params: tuple
    window: Window
    parabolic: TracedCurve | None
    flecnodal: TracedCurve | None
    gauss_cusps: list
    butterflies: list
    portrait_curves: list = field(default_factory=list)

    def is_empty(self) -> bool:
        return self.parabolic is None and self.flecnodal is None


def panel_scene(
    fam: SurfaceFamily,
    params,
    window: Window = DEFAULT_WINDOW,
    *,
    resolution: int = 128,
    with_butterflies: bool = True,
) -> Scene:
    """Traced parabolic and flecnodal curves plus special-point markers."""
    xmin, xmax, ymin, ymax = window
    if xmin >= xmax or ymin >= ymax:
        return Scene(tuple(params), window, None, None, [], [])
    curves = _FamilyCurves(fam)
    return Scene(
        params=tuple(params),
        window=window,
        parabolic=trace_zero_set(curves.parabolic, window, resolution, params),
        flecnodal=trace_zero_set(curves.flecnodal, window, resolution, params),
        gauss_cusps=gauss_cusps(fam, params, window, _cache=curves),
        butterflies=butterfly_points(fam, window, params) if with_butterflies else [],
    )
