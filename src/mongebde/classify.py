"""Stratum classification of Monge forms at parabolic and flat umbilic points.

The decision tree works on exact rational jet coefficients after an affine
normalization (linear change of (x, y) plus scaling of z) that brings a
rank-1 quadratic part to exactly y^2.  There is no epsilon-thresholding:
stratum membership is an algebraic condition and float input is rejected
upstream by the exact polynomial layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .errors import ClassificationError, InsufficientJetError, UsageError
from .families import SurfaceFamily, display_label, fix_params
from .poly import Poly, divexact, format_poly, parse_poly, poly_gcd, substitute, unify

Move = dict[str, Any]

CODIM = {
    "Pi_I_stable": 1,
    "Pi_c1": 2,
    "Pi_c2": 3,
    "Pi_c4": 3,
    "Pi_v1": 3,
    "Pi_f1": 3,
    "Pi_c3": 4,
    "Pi_c5": 4,
    "Pi_v2": 4,
    "Pi_v3": 4,
    "Pi_f2": 4,
    "nondegenerate": 0,
}


@dataclass(frozen=True)
class ClassReport:
    """Everything the classifier decided, reproducible from the stored jet."""

    stratum: str
    codimension: int | None
    invariants: Mapping[str, Fraction]
    folded_subtype: str  # none | saddle | node | focus | degenerate
    bde_normal_form: str
    trail: tuple[Move, ...]
    normalized_jet: Poly

    def display_stratum(self) -> str:
        return display_label(self.stratum)

    def to_json_dict(self) -> dict:
        return {
            "stratum": self.display_stratum(),
            "stratum_code": self.stratum,
            "codimension": self.codimension,
            "invariants": {k: str(v) for k, v in sorted(self.invariants.items())},
            "folded_subtype": self.folded_subtype,
            "bde_normal_form": self.bde_normal_form,
            "trail": [
                {k: (str(v) if isinstance(v, Fraction) else v) for k, v in move.items()}
                for move in self.trail
            ],
            "normalized_jet": format_poly(self.normalized_jet),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, indent=2, sort_keys=True)


def _surface_poly(f: "SurfaceFamily | Poly", params: tuple = (0, 0)) -> tuple[Poly, int]:
    if isinstance(f, SurfaceFamily):
        g, trunc_deg = fix_params(f.f, params), f.trunc_deg
    else:
        # A bare Poly is an exact polynomial, not a truncated jet: every
        # coefficient beyond its degree really is zero.
        g, trunc_deg = fix_params(f, params), 10**9
    # The classifier differentiates in x and y even when one of them is absent.
    return unify(g, Poly.zero(("x", "y")))[0], trunc_deg


def _coeff(f: Poly, i: int, j: int) -> Fraction:
    return f.coefficient({"x": i, "y": j})


def _quadratic_rank(f: Poly) -> int:
    c20, c11, c02 = _coeff(f, 2, 0), _coeff(f, 1, 1), _coeff(f, 0, 2)
    if c20 == c11 == c02 == 0:
        return 0
    if 4 * c20 * c02 - c11 * c11 != 0:
        return 2
    return 1


def normalize_parabolic(f: "SurfaceFamily | Poly", params: tuple = (0, 0)) -> tuple[Poly, list[Move]]:
    """Bring a rank-1 quadratic part to exactly y^2.

    Applies at most a swap of x and y, a linear shear absorbing the mixed
    term, and a scaling of z; every move is recorded in the returned trail.
    Raises ClassificationError for rank 2 (nondegenerate point) or rank 0
    (flat umbilic; use the flat branch of classify_monge).
    """
    g, _ = _surface_poly(f, params)
    rank = _quadratic_rank(g)
    if rank == 2:
        raise ClassificationError("Hessian has rank 2: nondegenerate point, nothing to normalize")
    if rank == 0:
        raise ClassificationError("Hessian has rank 0: flat umbilic, use the flat classifier branch")
    trail: list[Move] = []
    c02 = _coeff(g, 0, 2)
    if c02 == 0:
        xv, yv = Poly.var("x", g.varlist), Poly.var("y", g.varlist)
        g = substitute(g, {"x": yv, "y": xv})
        trail.append({"move": "swap_xy"})
        c02 = _coeff(g, 0, 2)
    c11 = _coeff(g, 1, 1)
    if c11 != 0:
        mu = -c11 / (2 * c02)
        xv, yv = Poly.var("x", g.varlist), Poly.var("y", g.varlist)
        g = substitute(g, {"y": yv + xv.scale(mu)})
        trail.append({"move": "shear", "y": f"y + ({mu})*x"})
    if c02 != 1:
        g = g.scale(1 / c02)
        trail.append({"move": "z_scale", "factor": c02})
    assert _coeff(g, 0, 2) == 1 and _coeff(g, 2, 0) == 0 and _coeff(g, 1, 1) == 0
    return g, trail


def _unit_gauss_cusp_jet(g: Poly, trail: list[Move]) -> Poly:
    """Scale x, y, z so the x^2 y coefficient becomes exactly 1."""
    c21 = _coeff(g, 2, 1)
    if c21 == 1:
        return g
    beta = c21
    yv = Poly.var("y", g.varlist)
    g = substitute(g, {"y": yv.scale(beta)}).scale(1 / beta**2)
    trail.append({"move": "xy_scale", "y_factor": beta, "z_factor": beta**2})
    return g


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    from math import isqrt

    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _scale_quartic_to_unit(g: Poly, trail: list[Move]) -> Poly:
    """Scale so the x^4 coefficient becomes +-1 where rationally reachable."""
    c40 = _coeff(g, 4, 0)
    if c40 == 0 or abs(c40) == 1:
        return g
    root = _rational_sqrt(abs(c40))
    if root is None:
        trail.append({"move": "quartic_scale_skipped", "reason": f"|{c40}| is not a rational square"})
        return g
    beta = root
    yv = Poly.var("y", g.varlist)
    g = substitute(g, {"y": yv.scale(beta)}).scale(1 / beta**2)
    trail.append({"move": "xy_scale", "y_factor": beta, "z_factor": beta**2})
    return g


def folded_invariant(f: "SurfaceFamily | Poly", params: tuple = (0, 0)) -> tuple[Fraction, str]:
    """Davydov invariant of the folded singularity at a cusp of Gauss.

    For the normalized jet y^2 + x^2 y + c40 x^4 + ... the value is
    6*(c40 - 1/4); the subtype boundaries sit at 0 and 1/16.
    """
    g, trail = normalize_parabolic(f, params)
    if _coeff(g, 3, 0) != 0 or _coeff(g, 2, 1) == 0:
        raise ClassificationError(
            "folded invariant needs the cusp-of-Gauss branch (x^3 coefficient 0, x^2 y nonzero)"
        )
    g = _unit_gauss_cusp_jet(g, trail)
    lam = 6 * (_coeff(g, 4, 0) - Fraction(1, 4))
    return lam, _folded_subtype(lam)


def _folded_subtype(lam: Fraction) -> str:
    if lam in (Fraction(0), Fraction(1, 16)):
        return "degenerate"
    if lam < 0:
        return "saddle"
    if lam < Fraction(1, 16):
        return "node"
    return "focus"


def characteristic_invariant(f: "SurfaceFamily | Poly", params: tuple = (0, 0)) -> Fraction:
    """Invariant of the characteristic-direction BDE at a cusp of Gauss: -6 c40 + 3/2."""
    g, trail = normalize_parabolic(f, params)
    if _coeff(g, 3, 0) != 0 or _coeff(g, 2, 1) == 0:
        raise ClassificationError(
            "characteristic invariant needs the cusp-of-Gauss branch"
        )
    g = _unit_gauss_cusp_jet(g, trail)
    return -6 * _coeff(g, 4, 0) + Fraction(3, 2)


def classify_monge(f: "SurfaceFamily | Poly", params: tuple = (0, 0)) -> ClassReport:
    """Classify a Monge form into the projective strata.

    See the package documentation for the decision tree; all conditions are
    exact polynomial identities in the normalized jet coefficients.
    """
    g, trunc_deg = _surface_poly(f, params)
    if not (_coeff(g, 0, 0) == _coeff(g, 1, 0) == _coeff(g, 0, 1) == 0):
        raise UsageError("classify_monge needs a Monge form: zero value and first partials at 0")
    rank = _quadratic_rank(g)
    if rank == 2:
        return ClassReport(
            stratum="nondegenerate",
            codimension=0,
            invariants={"c20": _coeff(g, 2, 0), "c11": _coeff(g, 1, 1), "c02": _coeff(g, 0, 2)},
            folded_subtype="none",
            bde_normal_form="",
            trail=(),
            normalized_jet=g,
        )
    if rank == 0:
        return _classify_flat(g, trunc_deg)
    return _classify_parabolic(g, trunc_deg)


def _need(trunc_deg: int, needed: int, what: str):
    if trunc_deg < needed:
        raise InsufficientJetError(needed, f"{what} needs the jet up to degree {needed}")


def _classify_parabolic(g0: Poly, trunc_deg: int) -> ClassReport:
    g, trail = normalize_parabolic(g0)
    inv: dict[str, Fraction] = {}
    c30 = inv["c30"] = _coeff(g, 3, 0)
    _need(trunc_deg, 3, "the stable-vs-degenerate split")

    def report(stratum, subtype, nf, codim=None):
        return ClassReport(
            stratum=stratum,
            codimension=CODIM.get(stratum.rstrip("+-")) if codim is None else codim,
            invariants=dict(inv),
            folded_subtype=subtype,
            bde_normal_form=nf,
            trail=tuple(trail),
            normalized_jet=g,
        )

    if c30 != 0:
        return report("Pi_I_stable", "none", "dy^2 + x dx^2 = 0")

    c21 = inv["c21"] = _coeff(g, 2, 1)
    if c21 != 0:
        # Cusp-of-Gauss branch: rescale so the x^2 y coefficient is 1.
        g = _unit_gauss_cusp_jet(g, trail)
        _need(trunc_deg, 4, "the cusp-of-Gauss subtree")
        inv["c21"] = _coeff(g, 2, 1)
        c40 = inv["c40"] = _coeff(g, 4, 0)
        lam = inv["lambda"] = 6 * (c40 - Fraction(1, 4))
        inv["lambda_char"] = -6 * c40 + Fraction(3, 2)
        inv["B"] = c40 - 4 * c40 * c40  # c21 = 1 here
        if c40 == 0:
            _need(trunc_deg, 5, "the Pi_c4 / Pi_c5 split")
            c50 = inv["c50"] = _coeff(g, 5, 0)
            if c50 != 0:
                return report("Pi_c4", _folded_subtype(lam), _folded_nf(lam))
            _need(trunc_deg, 6, "the Pi_c5 decision")
            c60 = inv["c60"] = _coeff(g, 6, 0)
            if c60 != 0:
                return report("Pi_c5", _folded_subtype(lam), _folded_nf(lam))
            return report("unresolved", "none", "", codim=None)
        if inv["B"] != 0:
            return report("Pi_c1", _folded_subtype(lam), _folded_nf(lam))
        # B = 0 with c40 = 1/4: folded saddle-node chain.
        _need(trunc_deg, 5, "the Pi_c2 decision")
        c50 = inv["c50"] = _coeff(g, 5, 0)
        c31 = inv["c31"] = _coeff(g, 3, 1)
        c12 = inv["c12"] = _coeff(g, 1, 2)
        a_inv = inv["A"] = c50 + 4 * c12 * c40 * c40 - 2 * c31 * c40
        if a_inv != 0:
            return report("Pi_c2", "degenerate", "dy^2 + (-y + x^3) dx^2 = 0")
        _need(trunc_deg, 6, "the Pi_c3 decision")
        c41 = inv["c41"] = _coeff(g, 4, 1)
        c60 = inv["c60"] = _coeff(g, 6, 0)
        c3_inv = inv["C3"] = c60 - c41 / 2
        if c3_inv != 0:
            sign = "+" if c3_inv < 0 else "-"
            return report(
                "Pi_c3" + sign,
                "degenerate",
                f"dy^2 + (-y {'+' if sign == '+' else '-'} x^4) dx^2 = 0",
            )
        return report("unresolved", "none", "", codim=None)

    # c30 = c21 = 0: parabolic-curve-singular branch.
    _need(trunc_deg, 4, "the singular-parabolic subtree")
    c40 = inv["c40"] = _coeff(g, 4, 0)
    c31 = inv["c31"] = _coeff(g, 3, 1)
    c22 = inv["c22"] = _coeff(g, 2, 2)
    c12 = inv["c12"] = _coeff(g, 1, 2)
    s_inv = inv["S"] = 3 * c31 * c31 + 8 * c40 * (c12 * c12 - c22)
    if c40 != 0:
        if s_inv != 0:
            s1 = "+" if c40 > 0 else "-"
            s2 = "+" if s_inv * c40 < 0 else "-"
            return report("Pi_v1" + s1 + s2, "none", _morse_nf(c40, s_inv), codim=3)
        _need(trunc_deg, 5, "the Pi_v2 decision")
        g = _scale_quartic_to_unit(g, trail)
        c40 = inv["c40"] = _coeff(g, 4, 0)
        c31 = inv["c31"] = _coeff(g, 3, 1)
        c50, c41 = _coeff(g, 5, 0), _coeff(g, 4, 1)
        c32, c23 = _coeff(g, 3, 2), _coeff(g, 2, 3)
        s = -1 if c40 > 0 else 1
        c1_inv = inv["C1"] = (
            s * 5 * c50 * c31**3 + 12 * c41 * c31**2 + s * 24 * c32 * c31 + 32 * c23
        )
        if c1_inv != 0:
            sign = "+" if c40 > 0 else "-"
            return report(
                "Pi_v2" + sign,
                "none",
                f"dy^2 + ({'x^2' if sign == '+' else '-x^2'} + y^3) dx^2 = 0",
            )
        return report("unresolved", "none", "", codim=None)
    # c40 = 0.
    inv["C2"] = c31
    _need(trunc_deg, 5, "the Pi_v3 decision")
    c50 = inv["c50"] = _coeff(g, 5, 0)
    if c31 != 0 and c50 != 0:
        return report("Pi_v3", "none", "dy^2 + (xy + x^3) dx^2 = 0")
    return report("unresolved", "none", "", codim=None)


def _folded_nf(lam: Fraction) -> str:
    return f"dy^2 + (-y + ({lam}) x^2) dx^2 = 0"


def _morse_nf(c40: Fraction, s_inv: Fraction) -> str:
    if s_inv > 0:
        return "dy^2 + (x^2 - y^2) dx^2 = 0"
    return "dy^2 + (x^2 + y^2) dx^2 = 0" if c40 > 0 else "dy^2 + (-x^2 - y^2) dx^2 = 0"


def _cubic_part(g: Poly) -> Poly:
    keep = {e: c for e, c in g.terms.items() if _xy_degree(g, e) == 3}
    return Poly(g.varlist, keep)


def _xy_degree(g: Poly, exp) -> int:
    deg = 0
    for name, k in zip(g.varlist, exp):
        if name in ("x", "y"):
            deg += k
    return deg


def _classify_flat(g: Poly, trunc_deg: int) -> ClassReport:
    _need(trunc_deg, 4, "the flat-umbilic subtree")
    trail: list[Move] = []
    cubic = _cubic_part(g)
    inv: dict[str, Fraction] = {}

    def report(stratum, nf, codim=None):
        return ClassReport(
            stratum=stratum,
            codimension=CODIM.get(stratum.rstrip("+-")) if codim is None else codim,
            invariants=dict(inv),
            folded_subtype="none",
            bde_normal_form=nf,
            trail=tuple(trail),
            normalized_jet=g,
        )

    if cubic.is_zero():
        return report("unresolved", "", codim=None)
    a = _coeff(g, 3, 0)
    b = _coeff(g, 2, 1)
    c = _coeff(g, 1, 2)
    d = _coeff(g, 0, 3)
    disc = inv["cubic_disc"] = (
        b * b * c * c - 4 * a * c**3 - 4 * b**3 * d + 18 * a * b * c * d - 27 * a * a * d * d
    )
    if disc != 0:
        if disc > 0:
            return report("Pi_f1-", "y dy^2 + 2x dxdy + y dx^2 = 0 (1-saddle)")
        return report("Pi_f1+", "y dy^2 - 2x dxdy - y dx^2 = 0 (star)")
    # Repeated linear factor: normalize the cubic to x*y^2.
    gx, gy = cubic.partial("x"), cubic.partial("y")
    rep = poly_gcd(gx, gy)
    if rep.total_degree() != 1:
        return report("unresolved", "", codim=None)  # triple factor or worse
    other = divexact(cubic, rep * rep)
    lin_l, lin_m = unify(rep, other.extend(rep.varlist))
    # New coordinates (x~, y~) = (M(x,y), L(x,y)); substitute the inverse.
    l1, l2 = lin_l.coefficient({"x": 1}), lin_l.coefficient({"y": 1})
    m1, m2 = lin_m.coefficient({"x": 1}), lin_m.coefficient({"y": 1})
    det = m1 * l2 - m2 * l1
    if det == 0:
        return report("unresolved", "", codim=None)  # factors not independent
    xv, yv = Poly.var("x", g.varlist), Poly.var("y", g.varlist)
    # Inverse of [[m1, m2], [l1, l2]] applied to (x, y).
    new_x = xv.scale(l2 / det) + yv.scale(-m2 / det)
    new_y = xv.scale(-l1 / det) + yv.scale(m1 / det)
    g = substitute(g, {"x": new_x, "y": new_y})
    trail.append(
        {"move": "linear", "x": f"({l2 / det})*x + ({-m2 / det})*y", "y": f"({-l1 / det})*x + ({m1 / det})*y"}
    )
    assert _cubic_part(g).same_poly(parse_poly("x*y^2").extend(g.varlist))
    c40 = _coeff(g, 4, 0)
    c04 = _coeff(g, 0, 4)
    if c40 < 0 or (c40 == 0 and c04 < 0):
        g = substitute(g.scale(-1), {"x": -xv})
        trail.append({"move": "flip", "x": "-x", "z": "-z"})
        c40, c04 = -c40, -c04
    inv["c40"] = c40
    inv["c04"] = c04
    if c04 == 0:
        return report("unresolved", "", codim=None)
    sign = "+" if c04 > 0 else "-"
    return report("Pi_f2" + sign, "x dy^2 + 2y dxdy + x^2 dx^2 = 0")
