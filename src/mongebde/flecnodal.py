"""Flecnodal and parabolic curve equations from higher-order contact.

The flecnodal curve collects points where an asymptotic direction has
contact of order >= 4 with the surface.  Writing the contact function of
the projection along the chosen axis with direction slope v, the
conditions are e2 = e3 = 0; eliminating v with a resultant gives one
polynomial equation in (x, y) (parameters ride along).  e4 enters only at
deeper degenerations (butterfly points, e2 = e3 = e4 = 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .bde import asymptotic_bde, discriminant
from .errors import UsageError
from .families import SurfaceFamily
from .poly import _VAR_INDEX, Poly, eta, normalize_primitive, resultant, substitute, unify


def _as_family(f: "SurfaceFamily | Poly") -> SurfaceFamily:
    if isinstance(f, SurfaceFamily):
        return f
    return SurfaceFamily(f=f)


def _eta_for_axis(axis: str):
    if axis == "x":
        return eta  # d/dx + v d/dy
    def eta_y(p: Poly) -> Poly:
        v = Poly.var("v", p.varlist) if "v" in p.varlist else None
        if v is None:
            raise UsageError("eta needs v in the varlist")
        return v * p.partial("x") + p.partial("y")
    return eta_y


@dataclass(frozen=True)
class FlecnodalSystem:
    """Contact functions of a one-axis projection and their eliminant."""

    axis: str
    lam: Poly        # w - df along the axis; zero set is the contact set
    e2: Poly         # second-order contact: -(quadratic form along (1, v))
    e3: Poly         # third-order contact
    e4: Poly         # fourth-order contact (butterfly condition)
    eliminant: Poly  # Res_v(e2, e3), primitive-normalized: the flecnodal curve


def flecnodal_system(f: "SurfaceFamily | Poly", axis: str | None = None) -> FlecnodalSystem:
    """Contact system of the projection along ``axis`` (family default).

    Warns when the chosen axis is not an asymptotic direction at the
    origin, since the v-chart then misses the flecnodal branch tangent to
    the other axis.
    """
    fam = _as_family(f)
    axis = axis or fam.projection_axis
    if axis not in ("x", "y"):
        raise UsageError("axis must be 'x' or 'y'")
    g = fam.f
    bde = asymptotic_bde(g)
    a, b, c = bde.a, bde.b, bde.c
    along_axis = c if axis == "x" else a
    value = along_axis.eval_rational({n: 0 for n in along_axis.varlist})
    if value != 0:
        warnings.warn(
            f"projection axis {axis!r} is not asymptotic at the origin; "
            "the flecnodal eliminant may miss a branch",
            stacklevel=2,
        )
    need = tuple(sorted(set(g.varlist) | {"x", "y", "v", "w"}, key=_VAR_INDEX.__getitem__))
    gx = g.extend(need)
    v = Poly.var("v", need)
    w = Poly.var("w", need)
    eta_axis = _eta_for_axis(axis)
    a2, b2, c2 = (p.extend(need) for p in (a, b, c))
    if axis == "x":
        lam = w - gx.partial("x") - v * gx.partial("y")
        e2 = -(c2 + b2.scale(2) * v + a2 * v * v)
    else:
        lam = w - gx.partial("y") - v * gx.partial("x")
        e2 = -(a2 + b2.scale(2) * v + c2 * v * v)
    e3 = eta_axis(e2)
    e4 = eta_axis(e3)
    elim = normalize_primitive(resultant(e2, e3, "v"))
    return FlecnodalSystem(axis=axis, lam=lam, e2=e2, e3=e3, e4=e4, eliminant=elim)


def graph_series(curve: Poly, max_deg: int, solve_for: str = "y") -> Poly:
    """Solve curve(x, y) = 0 for ``solve_for`` as a power series at the origin.

    Requires a zero constant term and a nonzero linear coefficient in the
    solved variable (implicit function theorem); fixed-point iteration on
    exact rationals, truncated at total degree ``max_deg``.
    """
    p = curve
    yname = solve_for
    xnames = [n for n in ("x", "y") if n != yname]
    alpha = p.coefficient({yname: 1})
    if alpha == 0 or p.coefficient({}) != 0:
        raise UsageError("graph_series needs curve(0)=0 and a simple linear term to solve for")
    yv = Poly.var(yname, p.varlist)
    rest = p - yv.scale(alpha)  # p = alpha*y + rest
    series = Poly.zero(p.varlist)
    for _ in range(max_deg + 1):
        nxt = substitute(rest, {yname: series}, trunc_deg=max_deg).scale(
            Fraction(-1) / alpha
        ).truncate(max_deg)
        if nxt == series:
            break
        series = nxt
    return series


def same_curve_jet(p: Poly, claimed: Poly, max_deg: int) -> bool:
    """Do p = 0 and claimed = 0 define the same curve jet up to order max_deg?

    Tests whether claimed = unit * p modulo terms of degree > max_deg for
    some power series unit with unit(0) != 0, by solving the triangular
    linear system for the unit coefficients exactly.
    """
    p, claimed = unify(p, claimed)
    low = min((sum(e) for e in p.terms), default=0)
    if p.is_zero() or claimed.is_zero():
        return p.truncate(max_deg).is_zero() and claimed.truncate(max_deg).is_zero()
    # Unknown unit monomials up to degree max_deg - low.
    from itertools import product as iproduct

    n = len(p.varlist)
    unit_exps = [
        e
        for e in iproduct(*(range(max_deg - low + 1) for _ in range(n)))
        if sum(e) <= max_deg - low
    ]
    # Equations: coefficient of every monomial of degree <= max_deg in
    # unit * p - claimed must vanish.  Build and solve exactly.
    target_exps = sorted(
        {tuple(map(sum, zip(eu, ep))) for eu in unit_exps for ep in p.terms if sum(eu) + sum(ep) <= max_deg}
        | {e for e in claimed.terms if sum(e) <= max_deg}
    )
    col = {e: j for j, e in enumerate(unit_exps)}
    rows = []
    rhs = []
    for te in target_exps:
        row = [Fraction(0)] * len(unit_exps)
        for ep, cp in p.terms.items():
            eu = tuple(a - b for a, b in zip(te, ep))
            if all(k >= 0 for k in eu) and eu in col:
                row[col[eu]] += cp
        rows.append(row)
        rhs.append(claimed.terms.get(te, Fraction(0)))
    const = col[(0,) * n]
    sol = _solve_exact(rows, rhs)
    if sol is None:
        return False
    if sol[const] != 0:
        return True
    # The constant might be a free variable set to 0 by the particular
    # solution; retry with it pinned to 1.
    pin = [Fraction(0)] * len(unit_exps)
    pin[const] = Fraction(1)
    sol = _solve_exact(rows + [pin], rhs + [Fraction(1)])
    return sol is not None


def _solve_exact(rows, rhs):
    """Gaussian elimination over Q; returns one solution or None."""
    m, n = len(rows), (len(rows[0]) if rows else 0)
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    piv_cols = []
    r = 0
    for cidx in range(n):
        piv = next((i for i in range(r, m) if a[i][cidx] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][cidx]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][cidx] != 0:
                f = a[i][cidx]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        piv_cols.append(cidx)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for i, cidx in enumerate(piv_cols):
        sol[cidx] = a[i][n]
    return sol


def parabolic_poly(f: "SurfaceFamily | Poly") -> Poly:
    """Primitive-normalized discriminant of the asymptotic BDE."""
    fam = _as_family(f)
    return normalize_primitive(discriminant(asymptotic_bde(fam.f)))
