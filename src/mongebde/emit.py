"""Deterministic CSV / SVG / JSON serialization of curves and diagrams.

All numeric output uses Python's shortest round-trip float formatting, so
identical inputs give byte-identical artifacts and every emitted number
parses back to the same float.  SVG output is deliberately minimal:
paths, circles and text labels only.  Curve color follows the drawing
convention: parabolic curves black, flecnodal curves gray.
"""

from __future__ import annotations

import json

import numpy as np

PARABOLIC_COLOR = "black"
FLECNODAL_COLOR = "gray"
PORTRAIT_COLOR = "#9ecae1"
LOCUS_COLOR = "#d62728"
MARKERS = {
    "node": "#1f77b4",
    "cusp": "#d62728",
    "isolated": "#9467bd",
    "degenerate": "#8c564b",
    "gauss_cusp": "#ff7f0e",
    "butterfly": "#2ca02c",
}


def _fmt(x: float) -> str:
    return repr(float(x))


def curves_csv(named_curves) -> str:
    """CSV of polylines: ``curve,branch_id,x,y`` per point.

    ``named_curves`` is an iterable of (name, branches) where branches is
    a list of (N, 2) arrays.
    """
    lines = ["curve,branch_id,x,y"]
    for name, branches in named_curves:
        for bid, branch in enumerate(branches):
            # tolist() gives the floats _fmt would make, without a numpy
            # scalar per coordinate.
            for x, y in np.asarray(branch, dtype=float).tolist():
                lines.append(f"{name},{bid},{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def _svg_header(window, size: int):
    xmin, xmax, ymin, ymax = window
    w, h = xmax - xmin, ymax - ymin
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{_fmt(xmin)} {_fmt(-ymax)} {_fmt(w)} {_fmt(h)}">'
    )


def _path(branch, color: str, width: float) -> str:
    pts = np.asarray(branch, dtype=float)
    if len(pts) < 2:
        return ""
    # SVG's y axis points down; flip so the picture matches the plane.
    d = "M " + " L ".join(f"{x!r} {-y!r}" for x, y in pts.tolist())
    return f'<path d="{d}" fill="none" stroke="{color}" stroke-width="{_fmt(width)}"/>'


def _marker(x, y, color: str, r: float, label: str | None = None) -> str:
    out = f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(r)}" fill="{color}"/>'
    if label:
        out += (
            f'<text x="{_fmt(x + 1.5 * r)}" y="{_fmt(-y)}" '
            f'font-size="{_fmt(4 * r)}" fill="{color}">{label}</text>'
        )
    return out


def scene_svg(scene, size: int = 480) -> str:
    """One panel: parabolic (black), flecnodal (gray), markers, portrait."""
    window = scene.window
    xmin, xmax, ymin, ymax = window
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    lw, r = span / 400, span / 120
    parts = [_svg_header(window, size)]
    for curve in scene.portrait_curves:
        parts.append(_path(curve, PORTRAIT_COLOR, lw))
    for traced, color in ((scene.parabolic, PARABOLIC_COLOR), (scene.flecnodal, FLECNODAL_COLOR)):
        if traced is None:
            continue
        for branch in traced.branches:
            parts.append(_path(branch, color, lw))
        for (x, y), tag in traced.special_points:
            parts.append(_marker(x, y, MARKERS.get(tag, "black"), r, tag))
    for x, y in scene.gauss_cusps:
        parts.append(_marker(x, y, MARKERS["gauss_cusp"], r, "A4"))
    for x, y in scene.butterflies:
        parts.append(_marker(x, y, MARKERS["butterfly"], r, "A5"))
    parts.append("</svg>")
    return "\n".join(p for p in parts if p) + "\n"


def diagram_svg(diagram, size: int = 480) -> str:
    """Parameter plane with traced loci and the fingerprint lattice."""
    ts, us = diagram.t_values, diagram.u_values
    tmin, tmax = float(ts[0]), float(ts[-1])
    umin, umax = (float(us[0]), float(us[-1])) if len(us) > 1 else (-1e-3, 1e-3)
    window = (tmin, tmax, umin, umax)
    span = max(tmax - tmin, umax - umin, 1e-9)
    parts = [_svg_header(window, size)]
    for i, t in enumerate(ts):
        for j, u in enumerate(us):
            parts.append(_marker(float(t), float(u), "#cccccc", span / 200))
    for locus in diagram.loci:
        parts.append(_path(locus.points, LOCUS_COLOR, span / 300))
        t0, u0 = locus.points[0]
        parts.append(_marker(float(t0), float(u0), LOCUS_COLOR, span / 150, locus.label))
    parts.append("</svg>")
    return "\n".join(p for p in parts if p) + "\n"


def loci_csv(diagram) -> str:
    lines = ["locus,point_id,t,u"]
    for locus in diagram.loci:
        for pid, (t, u) in enumerate(locus.points):
            lines.append(f"{locus.label},{pid},{_fmt(t)},{_fmt(u)}")
    return "\n".join(lines) + "\n"


def fingerprints_json(diagram) -> str:
    payload = {
        "components": list(diagram.components),
        "t_values": [float(t) for t in diagram.t_values],
        "u_values": [float(u) for u in diagram.u_values],
        "window": list(diagram.window),
        "fingerprints": diagram.fingerprint_grid(),
        "loci": {
            locus.label: [[float(t), float(u)] for t, u in locus.points]
            for locus in diagram.loci
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
