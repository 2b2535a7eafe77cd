"""Monge-form classification and asymptotic-BDE curve toolkit."""

from .bde import BDE, asymptotic_bde, discriminant
from .classify import ClassReport, classify_monge, folded_invariant
from .families import SurfaceFamily, family_library, library_labels, surface
from .field import LiftedField, directions_at, integrate_field, portrait
from .flecnodal import flecnodal_system, graph_series, parabolic_poly
from .ide import to_ide, versality_check
from .poly import (
    Poly,
    Rational,
    eta,
    format_poly,
    normalize_primitive,
    parse_poly,
    resultant,
    substitute,
    unify,
)
from .sweep import event_locus_verify, fingerprint, panel_scene, sweep
from .trace import butterfly_points, curve_singularities, gauss_cusps, trace_zero_set

__all__ = [
    "BDE",
    "ClassReport",
    "LiftedField",
    "Poly",
    "Rational",
    "SurfaceFamily",
    "asymptotic_bde",
    "butterfly_points",
    "classify_monge",
    "curve_singularities",
    "directions_at",
    "discriminant",
    "eta",
    "event_locus_verify",
    "family_library",
    "fingerprint",
    "flecnodal_system",
    "folded_invariant",
    "format_poly",
    "gauss_cusps",
    "graph_series",
    "integrate_field",
    "library_labels",
    "normalize_primitive",
    "panel_scene",
    "parabolic_poly",
    "parse_poly",
    "portrait",
    "resultant",
    "substitute",
    "surface",
    "sweep",
    "to_ide",
    "trace_zero_set",
    "unify",
    "versality_check",
]
