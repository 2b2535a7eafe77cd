"""Monge-form surface families and the built-in two-parameter family library.

Labels use ASCII codes (``Pi_c2``, ``Pi_v1++``, ``Pi_f2+`` ...); the
pretty form used in reports is available through :func:`display_label`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import UsageError
from .poly import Poly, parse_poly, substitute


@dataclass(frozen=True)
class SurfaceFamily:
    """A Monge-form family z = f(x, y; t, u).

    ``f`` has zero value and zero first partials at (x, y) = (0, 0) for all
    parameter values.  ``trunc_deg`` is the jet order the coefficients are
    trusted to; classification refuses decisions that would need more.
    """

    f: Poly
    trunc_deg: int = 6
    label: str | None = None
    moduli: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.trunc_deg < 2:
            raise UsageError("trunc_deg must be at least 2")
        f = self.f
        zero = Poly.zero(f.varlist)
        origin = {n: zero for n in ("x", "y") if n in f.varlist}
        for g in (f, f.partial("x"), f.partial("y")):
            if origin and not substitute(g, origin).is_zero():
                raise UsageError("family must vanish to second order at the origin")


def fix_params(p: Poly, params=(0, 0)) -> Poly:
    """Substitute (t, u) exactly (rationals preferred) and drop unused vars.

    Every polynomial at fixed parameter values is built here.
    """
    t, u = params
    bindings = {}
    for name, value in (("t", t), ("u", u)):
        if name in p.varlist:
            bindings[name] = Poly.const(_as_fraction(value), ())
    return (substitute(p, bindings) if bindings else p).restrict()


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value).limit_denominator(10**12)
    except (OverflowError, ValueError):
        raise UsageError(f"parameter {value!r} is not a finite number") from None


def surface(text: str, trunc_deg: int = 6) -> SurfaceFamily:
    """Parse an inline Monge form / family from polynomial text."""
    return SurfaceFamily(f=parse_poly(text), trunc_deg=trunc_deg)


# -- Table of deformation families ----------------------------------------
#
# Each entry: template text with moduli placeholders, default moduli,
# constraint checker.

_F = Fraction


def _pi_v1_constraint(sign1: str):
    def check(m):
        alpha, beta = m["alpha"], m["beta"]
        s1 = 1 if sign1 == "+" else -1
        s_inv = 3 * alpha**2 - 8 * s1 * beta
        if s_inv == 0:
            raise UsageError(
                "Pi_v1 needs beta != {}3*alpha^2/8 (Morse invariant vanishes)".format(
                    "" if sign1 == "+" else "-"
                )
            )
        return {"second_sign": "+" if s_inv * s1 < 0 else "-"}

    return check


def _nonzero(name):
    def check(m):
        if m[name] == 0:
            raise UsageError(f"modulus {name} must be nonzero for this family")
        return {}

    return check


_LIBRARY: dict[str, dict] = {
    "Pi_c2": dict(
        template="y^2 + x^2*y + 1/4*x^4 + {alpha}*x^5 + t*x^3",
        moduli={"alpha": _F(1)},
        check=_nonzero("alpha"),
        trunc_deg=5,
    ),
    "Pi_c3+": dict(
        template="y^2 + x^2*y + 1/4*x^4 + {gamma}*x^4*y + t*x^3 + u*x^4",
        moduli={"gamma": _F(1)},
        check=_nonzero("gamma"),
        trunc_deg=6,
    ),
    "Pi_c3-": dict(
        template="y^2 + x^2*y + 1/4*x^4 + {gamma}*x^4*y + t*x^3 + u*x^4",
        moduli={"gamma": _F(-1)},
        check=_nonzero("gamma"),
        trunc_deg=6,
    ),
    "Pi_v1++": dict(
        template="y^2 + x^4 + {alpha}*x^3*y + {beta}*x^2*y^2 + t*x^2",
        moduli={"alpha": _F(0), "beta": _F(1)},
        check=_pi_v1_constraint("+"),
        trunc_deg=4,
        expect_sign="+",
    ),
    "Pi_v1+-": dict(
        template="y^2 + x^4 + {alpha}*x^3*y + {beta}*x^2*y^2 + t*x^2",
        moduli={"alpha": _F(0), "beta": _F(-1)},
        check=_pi_v1_constraint("+"),
        trunc_deg=4,
        expect_sign="-",
    ),
    "Pi_v1-+": dict(
        template="y^2 + -1*x^4 + {alpha}*x^3*y + {beta}*x^2*y^2 + t*x^2",
        moduli={"alpha": _F(0), "beta": _F(1)},
        check=_pi_v1_constraint("-"),
        trunc_deg=4,
        expect_sign="+",
    ),
    "Pi_v1--": dict(
        template="y^2 + -1*x^4 + {alpha}*x^3*y + {beta}*x^2*y^2 + t*x^2",
        moduli={"alpha": _F(0), "beta": _F(-1)},
        check=_pi_v1_constraint("-"),
        trunc_deg=4,
        expect_sign="-",
    ),
    "Pi_v2+": dict(
        template=(
            "y^2 + x^4 + {alpha}*x^3*y + {beta22}*x^2*y^2"
            " + {gamma}*x^2*y^3 + t*x^2 + u*x^2*y"
        ),
        moduli={"alpha": _F(0), "gamma": _F(1)},
        check=_nonzero("gamma"),
        trunc_deg=5,
        derived={"beta22": lambda m: _F(3, 8) * m["alpha"] ** 2},
    ),
    "Pi_v2-": dict(
        template=(
            "y^2 + -1*x^4 + {alpha}*x^3*y + {beta22}*x^2*y^2"
            " + {gamma}*x^2*y^3 + t*x^2 + u*x^2*y"
        ),
        moduli={"alpha": _F(0), "gamma": _F(1)},
        check=_nonzero("gamma"),
        trunc_deg=5,
        derived={"beta22": lambda m: -_F(3, 8) * m["alpha"] ** 2},
    ),
    "Pi_v3": dict(
        template="y^2 + x^5 + {gamma}*x^3*y + t*x^2 + u*x^2*y",
        moduli={"gamma": _F(1)},
        check=_nonzero("gamma"),
        trunc_deg=5,
    ),
    "Pi_f1+": dict(
        template="x*y^2 + x^3 + {alpha}*x^3*y + {beta}*y^4 + t*x^2",
        moduli={"alpha": _F(1), "beta": _F(0)},
        check=lambda m: {},
        trunc_deg=4,
    ),
    "Pi_f1-": dict(
        template="x*y^2 + -1*x^3 + {alpha}*x^3*y + {beta}*y^4 + t*x^2",
        moduli={"alpha": _F(1), "beta": _F(0)},
        check=lambda m: {},
        trunc_deg=4,
    ),
    "Pi_f2+": dict(
        template="x*y^2 + x^4 + y^4 + {alpha}*x^3*y + t*x^2 + u*x^3",
        moduli={"alpha": _F(0)},
        check=lambda m: {},
        trunc_deg=4,
    ),
    "Pi_f2-": dict(
        template="x*y^2 + x^4 + -1*y^4 + {alpha}*x^3*y + t*x^2 + u*x^3",
        moduli={"alpha": _F(0)},
        check=lambda m: {},
        trunc_deg=4,
    ),
}

#: Accepted CLI spellings per canonical label.
_ALIASES: dict[str, str] = {}
for _label in _LIBRARY:
    _ALIASES[_label.lower()] = _label
    ascii_label = (
        _label.replace("++", "_pp")
        .replace("+-", "_pm")
        .replace("-+", "_mp")
        .replace("--", "_mm")
        .replace("+", "_plus")
        .replace("-", "_minus")
    )
    _ALIASES[ascii_label.lower()] = _label

_DISPLAY = {
    "Pi_I_stable": "Π_I_stable",
    "Pi_c1": "Π_{c,1}",
    "Pi_c2": "Π_{c,2}",
    "Pi_c3": "Π_{c,3}",
    "Pi_c4": "Π_{c,4}",
    "Pi_c5": "Π_{c,5}",
    "Pi_v1": "Π_{v,1}",
    "Pi_v2": "Π_{v,2}",
    "Pi_v3": "Π_{v,3}",
    "Pi_f1": "Π_{f,1}",
    "Pi_f2": "Π_{f,2}",
    "nondegenerate": "nondegenerate",
    "unresolved": "unresolved",
}


def display_label(label: str) -> str:
    """Pretty label: Pi_c2 -> Π_{c,2}; sign suffixes become (...)."""
    base = label.rstrip("+-")
    signs = label[len(base):]
    pretty = _DISPLAY.get(base, base)
    if signs:
        pretty += "(" + ",".join(signs) + ")"
    return pretty


def canonical_label(name: str) -> str:
    key = name.strip().lower()
    if key in _ALIASES:
        return _ALIASES[key]
    raise UsageError(
        f"unknown family label {name!r}; known: {', '.join(sorted(_LIBRARY))}"
    )


def family_library(
    label: str,
    moduli: Mapping[str, Fraction | int] | None = None,
    signs: Mapping[str, str] | None = None,
) -> SurfaceFamily:
    """Built-in deformation family for the given stratum label.

    Moduli default to documented generic values; constraint violations
    raise a UsageError naming the condition.
    """
    canon = canonical_label(label)
    entry = _LIBRARY[canon]
    mods = dict(entry["moduli"])
    for name, value in (moduli or {}).items():
        if name not in mods:
            raise UsageError(
                f"family {canon} has no modulus {name!r} (has: {sorted(mods)})"
            )
        mods[name] = Fraction(value)
    extra = entry["check"](mods)
    if "expect_sign" in entry and "second_sign" in extra:
        if extra["second_sign"] != entry["expect_sign"]:
            raise UsageError(
                f"moduli {dict(mods)} put the family in Pi_v1 sign class "
                f"(second sign {extra['second_sign']}), not {canon}"
            )
    values = dict(mods)
    for name, fn in entry.get("derived", {}).items():
        values[name] = fn(mods)
    text = entry["template"].format(**{k: _frac_text(v) for k, v in values.items()})
    f = parse_poly(text)
    return SurfaceFamily(
        f=f,
        trunc_deg=entry["trunc_deg"],
        label=canon,
        moduli=mods,
    )


def library_labels() -> list[str]:
    return sorted(_LIBRARY)


def _frac_text(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
