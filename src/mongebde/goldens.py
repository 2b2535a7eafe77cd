"""Golden artifact registry: recompute pinned results and diff them.

Two artifact classes live under a goldens directory:

* ``exact.json`` — results that must match bit-exactly (polynomial text
  after primitive normalization, classifier strata, exact determinants).
* ``traced.json`` — numerically traced results (point sets, residuals)
  compared within a per-entry tolerance.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .bde import asymptotic_bde
from .classify import classify_monge
from .errors import UsageError
from .families import family_library, library_labels
from .flecnodal import flecnodal_system, parabolic_poly
from .ide import to_ide, versality_check
from .poly import format_poly, normalize_primitive
from .sweep import singular_parameter_eliminant
from .trace import butterfly_points, flecnodal_parametrization_check, gauss_cusps

_PARABOLIC_LABELS = ("Pi_v1++", "Pi_c2", "Pi_v3", "Pi_f1+", "Pi_f1-", "Pi_f2+")
_FLECNODAL_LABELS = ("Pi_c2", "Pi_v3")
_VERSALITY = {  # label -> truncation degree of the reduced equation
    "Pi_v2+": 5,
    "Pi_v3": 5,
    "Pi_c3+": 6,
    "Pi_v1++": 4,
    "Pi_c2": 5,
}


def compute_exact() -> dict:
    """All bit-exact artifacts, as {name: string}."""
    out: dict[str, str] = {}
    for label in _PARABOLIC_LABELS:
        out[f"parabolic/{label}"] = format_poly(parabolic_poly(family_library(label)))
    for label in _FLECNODAL_LABELS:
        out[f"flecnodal/{label}"] = format_poly(
            normalize_primitive(flecnodal_system(family_library(label)).eliminant)
        )
    out["eliminant/Pi_v3"] = format_poly(
        singular_parameter_eliminant(parabolic_poly(family_library("Pi_v3")))
    )
    for label, trunc in _VERSALITY.items():
        bde = asymptotic_bde(family_library(label).f)
        out[f"versality/{label}"] = str(
            versality_check(label, to_ide(bde, trunc)).determinant
        )
    out["versality/Pi_f1+"] = str(
        versality_check("Pi_f1+", asymptotic_bde(family_library("Pi_f1+").f)).determinant
    )
    for label in library_labels():
        report = classify_monge(family_library(label))
        out[f"stratum/{label}"] = f"{report.stratum}:{report.codimension}"
    return out


def _points(points) -> list:
    return sorted([float(x), float(y)] for x, y in points)


#: Traced artifacts: name -> (compute, tol, note).  A point set is stored
#: as computed.  An entry with a note is a scalar residual whose stored
#: value is its target 0.0; the note says what is computed.
_TRACED = {
    "gauss_cusps/Pi_c2@t=-1/20": (
        lambda: _points(gauss_cusps(family_library("Pi_c2"), (Fraction(-1, 20), 0))),
        1e-6,
        None,
    ),
    "butterflies/Pi_v3@t=-1/100": (
        lambda: _points(butterfly_points(family_library("Pi_v3"), params=(Fraction(-1, 100), 0))),
        1e-5,
        None,
    ),
    "parametrization_residual@t=-1/100": (
        lambda: flecnodal_parametrization_check(t=-0.01, n_samples=11),
        1e-8,
        "max |eliminant| along the closed-form branch",
    ),
}


def compute_traced() -> dict:
    """Tolerance-class artifacts, as {name: {value, tol}}."""
    out = {}
    for name, (compute, tol, note) in _TRACED.items():
        if note is None:
            out[name] = {"value": compute(), "tol": tol}
        else:
            out[name] = {"value": 0.0, "tol": tol, "scalar": True, "computed": note}
    return out


@dataclass
class GoldenResult:
    name: str
    ok: bool
    detail: str


def write_goldens(path: str) -> None:
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "exact.json"), "w", encoding="utf-8") as fh:
        json.dump(compute_exact(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(path, "traced.json"), "w", encoding="utf-8") as fh:
        json.dump(compute_traced(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_goldens(path: str) -> list:
    """Recompute every pinned artifact and diff against the stored files."""
    results: list[GoldenResult] = []

    exact_path = os.path.join(path, "exact.json")
    traced_path = os.path.join(path, "traced.json")
    if not (os.path.exists(exact_path) and os.path.exists(traced_path)):
        raise UsageError(f"golden directory {path} is missing exact.json/traced.json")

    with open(exact_path, "r", encoding="utf-8") as fh:
        stored_exact = json.load(fh)
    fresh_exact = compute_exact()
    for name in sorted(set(stored_exact) | set(fresh_exact)):
        want, got = stored_exact.get(name), fresh_exact.get(name)
        if want == got:
            results.append(GoldenResult(name, True, "exact match"))
        else:
            results.append(GoldenResult(name, False, f"stored {want!r} != computed {got!r}"))

    with open(traced_path, "r", encoding="utf-8") as fh:
        stored_traced = json.load(fh)
    for name in sorted(stored_traced):
        entry = stored_traced[name]
        tol = float(entry["tol"])
        if name not in _TRACED:
            raise UsageError(f"unknown traced artifact {name!r}")
        got = _TRACED[name][0]()
        if entry.get("scalar"):
            ok = abs(float(got) - float(entry["value"])) <= tol
            detail = f"value {got:.3g} vs {entry['value']} (tol {tol:g})"
        else:
            want = entry["value"]
            ok = len(want) == len(got) and all(
                min(
                    max(abs(wx - gx), abs(wy - gy)) for gx, gy in got
                )
                <= tol
                for wx, wy in want
            )
            detail = f"{len(got)} points vs {len(want)} (tol {tol:g})"
        results.append(GoldenResult(name, ok, detail))
    return results
