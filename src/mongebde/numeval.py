"""Vectorized float evaluation of exact polynomials via numpy.

``CompiledPoly`` evaluates one polynomial and ``CompiledSystem`` several
over shared power tables, bit for bit alike.  ``PolySystem`` holds
polynomials in chosen unknowns together with their exact Jacobian, and
``newton`` is the one batched damped Newton solver that runs on it.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .poly import Poly, coeff_float, unify


class CompiledPoly:
    """A Poly compiled to a numpy evaluator over a fixed argument order.

    Variables not listed must not occur in the polynomial (substitute
    parameters first).  Calling with arrays broadcasts elementwise.
    """

    def __init__(self, p: Poly, args: tuple[str, ...] = ("x", "y")):
        extra = [
            name
            for i, name in enumerate(p.varlist)
            if name not in args and any(e[i] for e in p.terms)
        ]
        if extra:
            raise UsageError(
                f"polynomial still depends on {extra}; substitute before compiling"
            )
        self.args = args
        idx = {name: p.varlist.index(name) if name in p.varlist else None for name in args}
        self._terms = [
            (coeff_float(c), tuple(e[idx[name]] if idx[name] is not None else 0 for name in args))
            for e, c in p.terms.items()
        ]
        self.source = p

    def __call__(self, *values):
        if len(values) != len(self.args):
            raise UsageError(f"expected {len(self.args)} arguments {self.args}")
        arrs = [np.asarray(v, dtype=float) for v in values]
        out = np.zeros(np.broadcast(*arrs).shape if arrs else ())
        for c, exps in self._terms:
            term = np.full_like(out, c) if out.shape else c
            for a, k in zip(arrs, exps):
                if k:
                    term = term * a**k
            out = out + term
        return out


class CompiledSystem:
    """Several polynomials compiled over one argument order, evaluated together.

    A call computes each power ``a**k`` that occurs once and sums every
    polynomial from these shared powers.  Each term is
    ``c * x**i * y**j`` multiplied left to right and added as
    ``out + term`` in CompiledPoly's term order, so every result equals
    the matching CompiledPoly's bit for bit.
    """

    def __init__(self, polys, args: tuple[str, ...] = ("x", "y")):
        self.args = args
        # Per polynomial, per term: (c, ((argument index, exponent), ...)),
        # zero exponents dropped as CompiledPoly drops them.
        self._terms = [
            [
                (c, tuple((i, k) for i, k in enumerate(exps) if k))
                for c, exps in CompiledPoly(p, args)._terms
            ]
            for p in polys
        ]
        self._factors = {f for terms in self._terms for _, factors in terms for f in factors}

    def __call__(self, *values) -> list:
        if len(values) != len(self.args):
            raise UsageError(f"expected {len(self.args)} arguments {self.args}")
        arrs = [np.asarray(v, dtype=float) for v in values]
        shape = np.broadcast(*arrs).shape if arrs else ()
        powers = {(i, k): arrs[i] ** k for i, k in self._factors}
        out = []
        for terms in self._terms:
            acc = np.zeros(shape)
            for c, factors in terms:
                term = c
                for factor in factors:
                    term = term * powers[factor]
                acc = acc + term
            out.append(acc)
        return out


def compile_poly(p: Poly, args: tuple[str, ...] = ("x", "y")) -> CompiledPoly:
    return CompiledPoly(p, args)


class PolySystem:
    """Polynomials in chosen unknowns with their exact Jacobian, compiled once.

    The polynomials are extended to one varlist and differentiated row by
    row (the zero polynomial for an unknown they lack).  Residuals and
    Jacobian entries go through one CompiledSystem, so each equals the
    CompiledPoly of the same polynomial bit for bit.  A call returns
    ``(residuals, jacobian_entries)``, the entries row by row.
    """

    def __init__(self, polys, unknowns: tuple[str, ...] = ("x", "y")):
        self.polys = unify(*polys)
        self.jacobian = tuple(
            p.partial(n) if n in p.varlist else Poly.zero(p.varlist)
            for p in self.polys
            for n in unknowns
        )
        self._evaluate = CompiledSystem(self.polys + self.jacobian, unknowns)

    def __call__(self, *values) -> tuple[list, list]:
        out = self._evaluate(*values)
        return out[: len(self.polys)], out[len(self.polys):]


def newton(system: PolySystem, seeds, iters: int, tol: float | None = None) -> tuple:
    """Batched damped Newton on a square PolySystem, one lane per seed.

    ``seeds`` holds one 1-D array per unknown; they are copied, not
    changed.  Two unknowns are solved by Cramer's rule, and a lane whose
    determinant is below 1e-300 in size stays put.  More unknowns go
    through ``np.linalg.solve``, and a lane whose determinant is not
    finite or below 1e-300 stays put.  A step longer than 1 is scaled to
    length 1.  With ``tol`` the loop stops early once every step is
    shorter than ``tol``; without it, it runs all ``iters`` iterations.
    Returns the end points, one array per unknown, in seed order.
    """
    Z = [np.array(s, dtype=float) for s in seeds]
    for _ in range(iters):
        F, J = system(*Z)
        if len(Z) == 2:
            (r1, r2), (a, b, c, d) = F, J
            det = a * d - b * c
            bad = np.abs(det) < 1e-300
            det = np.where(bad, 1.0, det)
            dx = np.where(bad, 0.0, (d * r1 - b * r2) / det)
            dy = np.where(bad, 0.0, (a * r2 - c * r1) / det)
            steps, norm = (dx, dy), np.hypot(dx, dy)
        else:
            Fm = np.column_stack(F)
            Jm = np.stack(J, axis=1).reshape(len(Fm), len(Z), len(Z))
            det = np.linalg.det(Jm)
            bad = ~np.isfinite(det) | (np.abs(det) < 1e-300)
            Jm[bad] = np.eye(len(Z))
            Fm[bad] = 0
            S = np.linalg.solve(Jm, Fm[..., None])[..., 0]
            steps, norm = S.T, np.linalg.norm(S, axis=1)
        lim = np.maximum(1.0, norm)  # damp huge steps
        for z, step in zip(Z, steps):
            z -= step / lim
        if tol is not None and np.max(norm) < tol:
            break
    return tuple(Z)
