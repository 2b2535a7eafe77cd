"""Vectorized float evaluation of exact polynomials via numpy."""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .poly import Poly, coeff_float


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


def compile_gradient(p: Poly, args: tuple[str, ...] = ("x", "y")):
    """Tuple of compiled partials in the argument order."""
    return tuple(
        compile_poly(p.partial(name), args) if name in p.varlist else compile_poly(Poly.zero(p.varlist), args)
        for name in args
    )
