"""Binary differential equations a dy^2 + 2b dxdy + c dx^2 = 0."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UsageError
from .poly import Poly, unify


@dataclass(frozen=True)
class BDE:
    """Coefficient triple of a binary differential equation.

    The discriminant b^2 - ac is cached at construction; its zero set is
    the discriminant curve (the parabolic curve for asymptotic BDEs).
    """

    a: Poly
    b: Poly
    c: Poly
    discriminant: Poly = field(init=False)

    def __post_init__(self):
        a, b, c = unify(self.a, self.b, self.c)
        if a.is_zero() and b.is_zero() and c.is_zero():
            raise UsageError("BDE coefficients must not all vanish identically")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "discriminant", b * b - a * c)


def asymptotic_bde(f: Poly) -> BDE:
    """Asymptotic-direction BDE of the graph z = f(x, y).

    Coefficients are (a, b, c) = (f_yy, f_xy, f_xx); parameters t, u in f
    are carried along symbolically.
    """
    return BDE(
        a=f.partial("y").partial("y"),
        b=f.partial("x").partial("y"),
        c=f.partial("x").partial("x"),
    )


def discriminant(bde: BDE) -> Poly:
    """b^2 - ac, exactly."""
    return bde.discriminant
