"""Integration of the two foliations of a BDE via the lifted field.

On the surface F(x, y, p) = a p^2 + 2 b p + c = 0 (p = dy/dx) the vector
field (F_p, p F_p, -(F_x + p F_y)) is tangent to {F = 0}; its projection
to (x, y) integrates the BDE and passes through the discriminant, where
the projected curve generically shows a cusp.  Steep slopes are handled
in the reciprocal chart q = 1/p, where q = dx/dy solves the same equation
with the roles of the outer coefficients swapped.

Integral curves are computed in lanes: one lane is one seed point, start
slope and orientation.  ``_integrate`` steps every live lane of a batch
together with fixed-step RK4 (Hairer, Norsett & Wanner, *Solving ODEs I*,
section II.1), evaluating the fields of both charts through shared
``CompiledSystem`` power tables.  Each lane keeps its own chart, direction
and stopping state, and every lane's arithmetic is the same as if it ran
alone, so a lane's polyline does not depend on the batch it runs in.
``portrait`` runs all its lanes as one batch; ``integrate_field`` is a
batch of one.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bde import BDE
from .errors import UsageError
from .families import fix_params
from .numeval import CompiledSystem, compile_poly
from .poly import Poly

#: slope variable: v plays the role of p = dy/dx on the lifted surface.
_SLOPE = "v"
_LIFT_VARS = ("x", "y", _SLOPE)
#: A lane runs in the q = 1/p chart while its slope is steeper than this.
CHART_BOUND = 4.0
#: A point is a flat umbilic when every |coefficient| is below this.
FLAT_TOL = 1e-10


def _fix(b: BDE, params=(0, 0)) -> tuple[Poly, Poly, Poly]:
    out = []
    for q in (b.a, b.b, b.c):
        q = fix_params(q, params)
        if not set(q.varlist) <= {"x", "y"}:
            raise UsageError(
                f"coefficient still depends on {q.varlist}; fix all parameters first"
            )
        out.append(q.extend(_LIFT_VARS))
    return tuple(out)


@dataclass(frozen=True)
class LiftedField:
    """The contact surface F = a v^2 + 2 b v + c and its tangent field."""

    F: Poly
    dx: Poly  # F_v
    dy: Poly  # v * F_v
    dv: Poly  # -(F_x + v F_y)

    @staticmethod
    def from_bde(b: BDE, params=(0, 0)) -> "LiftedField":
        return _lift(_fix(b, params))

    def reciprocal(self) -> "LiftedField":
        """The same surface in the chart q = 1/v (here still named v).

        G(x, y, q) = q^2 F(x, y, 1/q) = c q^2 + 2 b q + a, with tangent
        field (q G_q, G_q, -(G_y + q G_x)) since q = dx/dy.
        """
        coeffs = self.F.coeffs_in(_SLOPE)
        zero = Poly.zero(tuple(n for n in self.F.varlist if n != _SLOPE))
        a = coeffs.get(2, zero).extend(_LIFT_VARS)
        b2 = coeffs.get(1, zero).extend(_LIFT_VARS).scale(Fraction(1, 2))
        c = coeffs.get(0, zero).extend(_LIFT_VARS)
        q = Poly.var(_SLOPE, _LIFT_VARS)
        G = c * q * q + b2.scale(2) * q + a
        gq = G.partial(_SLOPE)
        return LiftedField(
            F=G,
            dx=q * gq,
            dy=gq,
            dv=-(G.partial("y") + q * G.partial("x")),
        )


def _lift(coeffs) -> LiftedField:
    """The lifted field of the fixed coefficients ``(a, b, c)`` from ``_fix``."""
    a, b2, c = coeffs
    v = Poly.var(_SLOPE, _LIFT_VARS)
    F = a * v * v + b2.scale(2) * v + c
    dx = F.partial(_SLOPE)
    dy = v * dx
    dv = -(F.partial("x") + v * F.partial("y"))
    # Tangency: the field must annihilate F identically.
    tangency = F.partial("x") * dx + F.partial("y") * dy + F.partial(_SLOPE) * dv
    assert tangency.is_zero(), "lifted field is not tangent to {F=0}"
    return LiftedField(F=F, dx=dx, dy=dy, dv=dv)


def directions_at(b: BDE, point, params=(0, 0)):
    """Real asymptotic slopes at a point: [], one or two values, or "all".

    A vertical direction is reported as ``math.inf`` (found in the
    reciprocal chart when the leading coefficient vanishes); at a flat
    umbilic (every |coefficient| below ``FLAT_TOL``) every direction
    solves the equation and the string ``"all"`` is returned.
    """
    return _directions(_fix(b, params), point)


def _directions(coeffs, point):
    vals = {"x": float(point[0]), "y": float(point[1]), _SLOPE: 0.0}
    av, bv, cv = (q.eval_float(vals) for q in coeffs)
    scale = max(abs(av), abs(bv), abs(cv))
    if scale < FLAT_TOL:
        return "all"
    disc = bv * bv - av * cv
    if disc < 0:
        return []
    if abs(av) > 1e-12 * scale:
        r = math.sqrt(disc)
        return sorted({(-bv + r) / av, (-bv - r) / av})
    # a ~ 0: one vertical direction, plus the root of the linear part.
    out = [math.inf]
    if abs(bv) > 1e-12 * scale:
        out.insert(0, -cv / (2 * bv))
    return out


def integrate_field(
    b: BDE,
    seed,
    params=(0, 0),
    *,
    slope: float | None = None,
    orientation: int = 1,
    step: float = 1e-3,
    max_steps: int = 10**5,
    window=(-0.5, 0.5, -0.5, 0.5),
) -> np.ndarray:
    """One integral curve of one foliation, as an (N, 2) polyline.

    Fixed-step RK4 on the lifted surface with the field normalized to
    unit speed, so ``step`` is arclength on the lift.  Stops on window
    exit, step budget, or approach to a flat umbilic (all three
    coefficients below ``FLAT_TOL``).  Crossing the discriminant needs no
    special casing: the lifted field is regular there and the projection
    produces the cusp by itself.  The curve is one lane of the batched
    integrator that ``portrait`` uses, run alone; it equals the matching
    ``portrait`` curve bit for bit.
    """
    coeffs = _fix(b, params)
    if slope is None:
        dirs = _directions(coeffs, seed)
        if dirs == "all":
            raise UsageError("seed is a flat umbilic: every direction is asymptotic")
        if not dirs:
            raise UsageError("seed lies in the elliptic region: no real asymptotic direction")
        slope = dirs[0]
    (curve,) = _integrate(
        coeffs, [(seed[0], seed[1], slope, orientation)],
        step=step, max_steps=max_steps, window=window,
    )
    return curve


def _integrate(coeffs, lanes, *, step, max_steps, window) -> list:
    """Fixed-step RK4 on every lane ``(x0, y0, slope, orientation)`` at once.

    Returns one (N, 2) polyline per lane, in lane order.  A lane starts in
    the q chart when its slope is vertical or steeper than ``CHART_BOUND``.
    Each step, a lane whose new state is not finite or leaves the window
    stops without appending it; otherwise the point is appended, the lane
    stops if it reached a flat umbilic, and else switches charts when
    |slope| > ``CHART_BOUND``.  Stopped lanes drop out of the arrays, so
    the fields are only ever evaluated on live lanes.
    """
    lift = _lift(coeffs)
    recip = lift.reciprocal()
    charts = (
        CompiledSystem((lift.dx, lift.dy, lift.dv), _LIFT_VARS),
        CompiledSystem((recip.dx, recip.dy, recip.dv), _LIFT_VARS),
    )
    coeff_system = CompiledSystem(coeffs, ("x", "y"))

    def rows_by_chart(in_q):
        # (system, rows) pairs; a whole-batch slice when one chart holds every lane.
        if not in_q.any():
            return [(charts[0], slice(None))]
        if in_q.all():
            return [(charts[1], slice(None))]
        return [(charts[0], ~in_q), (charts[1], in_q)]

    def rhs(z, groups, d):
        # Unit tangent times the lane's direction; a zero field stays zero.
        vec = np.empty_like(z)
        for system, rows in groups:
            zr = z[rows]
            vec[rows, 0], vec[rows, 1], vec[rows, 2] = system(zr[:, 0], zr[:, 1], zr[:, 2])
        # vecdot is the BLAS dot that np.linalg.norm uses, so the norm
        # rounds exactly as it does for a single 3-vector.
        n = np.sqrt(np.vecdot(vec, vec))[:, None]
        out = vec.copy()
        np.divide(d * vec, n, out=out, where=n > 0)
        return out

    xmin, xmax, ymin, ymax = window
    z = np.empty((len(lanes), 3))
    in_q = np.zeros(len(lanes), dtype=bool)
    d = np.empty((len(lanes), 1))  # direction, a column to scale (x, y, v) rows
    for i, (x0, y0, slope, orientation) in enumerate(lanes):
        x0, y0, s0 = float(x0), float(y0), float(slope)
        if not math.isfinite(s0) or abs(s0) > CHART_BOUND:
            in_q[i] = True
            s0 = 0.0 if not math.isfinite(s0) else 1.0 / s0
        z[i] = (x0, y0, s0)
        d[i, 0] = float(orientation)
    ids = np.arange(len(lanes))
    # One flat (x, y, x, y, ...) buffer per lane: 16 bytes a point.
    bufs = [array("d", xy) for xy in z[:, :2].tolist()]
    h = step
    for _ in range(max_steps):
        if not ids.size:
            break
        groups = rows_by_chart(in_q)
        k1 = rhs(z, groups, d)
        k2 = rhs(z + 0.5 * h * k1, groups, d)
        k3 = rhs(z + 0.5 * h * k2, groups, d)
        k4 = rhs(z + h * k3, groups, d)
        new = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x, y, s = new.T
        ok = np.isfinite(new).all(axis=1) & (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)
        if not ok.all():
            ids, x, y, s, new, in_q, d, k1 = (a[ok] for a in (ids, x, y, s, new, in_q, d, k1))
        for i, xy in zip(ids.tolist(), new[:, :2].tolist()):
            bufs[i].extend(xy)
        # Flat umbilic: the largest |coefficient| (taken as max() would,
        # first value kept on ties and NaN) falls below FLAT_TOL.
        vals = [np.abs(v) for v in coeff_system(x, y)]
        largest = vals[0]
        for v in vals[1:]:
            largest = np.where(v > largest, v, largest)
        live = ~(largest < FLAT_TOL)
        # Switch charts; the two tangent fields are antiparallel on the
        # overlap, so keep the direction of travel by comparing with the
        # step just taken.
        sw = live & (np.abs(s) > CHART_BOUND)
        if sw.any():
            switched = np.stack((x[sw], y[sw], 1.0 / s[sw]), axis=1)
            vec = rhs(switched, rows_by_chart(~in_q[sw]), d[sw])
            flip = vec[:, 0] * k1[sw, 0] + vec[:, 1] * k1[sw, 1] < 0
            d[sw] = np.where(flip[:, None], -d[sw], d[sw])
            in_q[sw] = ~in_q[sw]
            new[sw] = switched
        z = new
        if not live.all():
            z, in_q, d, ids = new[live], in_q[live], d[live], ids[live]
    return [np.frombuffer(buf).reshape(-1, 2) for buf in bufs]


def bde_residual(b: BDE, polyline: np.ndarray, params=(0, 0)) -> float:
    """Max of |a dy^2 + 2b dx dy + c dx^2| / (dx^2 + dy^2) over segments.

    Coefficients are evaluated at segment midpoints.  Small values certify
    that the polyline follows one of the BDE's direction fields.
    """
    a, b2, c = _fix(b, params)
    fa, fb, fc = (compile_poly(q, ("x", "y")) for q in (a, b2, c))
    if len(polyline) < 2:
        return 0.0
    p0, p1 = polyline[:-1], polyline[1:]
    dx = p1[:, 0] - p0[:, 0]
    dy = p1[:, 1] - p0[:, 1]
    mx = (p0[:, 0] + p1[:, 0]) / 2
    my = (p0[:, 1] + p1[:, 1]) / 2
    res = fa(mx, my) * dy * dy + 2 * fb(mx, my) * dx * dy + fc(mx, my) * dx * dx
    length2 = dx * dx + dy * dy
    ok = length2 > 0
    return float(np.max(np.abs(res[ok]) / length2[ok])) if ok.any() else 0.0


def portrait(
    b: BDE,
    window=(-0.5, 0.5, -0.5, 0.5),
    params=(0, 0),
    *,
    seeds: int = 7,
    step: float = 1e-3,
    max_steps: int = 4000,
) -> list:
    """Deterministic batch of integral curves covering the hyperbolic region.

    Seeds on a lattice where real directions exist; both foliations, both
    orientations.  Every (seed, slope, orientation) lane is integrated in
    one batch; each curve equals the ``integrate_field`` run of its lane
    bit for bit.  Returns the polylines with more than one point, in lane
    order.
    """
    coeffs = _fix(b, params)
    xmin, xmax, ymin, ymax = window
    lanes = []
    for x0 in np.linspace(xmin, xmax, seeds):
        for y0 in np.linspace(ymin, ymax, seeds):
            dirs = _directions(coeffs, (x0, y0))
            if dirs == "all" or not dirs:
                continue
            lanes += [(x0, y0, slope, o) for slope in dirs for o in (+1, -1)]
    curves = _integrate(coeffs, lanes, step=step, max_steps=max_steps, window=window)
    return [c for c in curves if len(c) > 1]
