"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero ``Fraction``
coefficients, together with an ordered variable list drawn from the fixed
universe ``(x, y, v, w, t, u)``.  All arithmetic is exact; floating point
never enters this module.  Curve equations are compared after
``normalize_primitive``, which divides out the integer content and fixes
the sign of the graded-lex leading coefficient.

``Poly`` validates what it is given; arithmetic results go through the
trusted ``Poly._make`` instead.  The two expensive operations,
``resultant`` and ``divexact``, leave ``Poly`` altogether: they clear
denominators once, run an integer kernel on plain term dicts whose
exponent tuples are packed into single ints (``_Packing``), and convert
back to a ``Poly`` once at the end.  The resultant is the determinant of
the Sylvester matrix by fraction-free elimination (Bareiss 1968,
*Sylvester's identity and multistep integer-preserving Gaussian
elimination*, Math. Comp. 22), so every division in it is exact over the
integers.

Truncation is graded: by default only ``x`` and ``y`` carry weight 1 and
the parameters ``v, w, t, u`` carry weight 0, so truncating a family keeps
its full parameter dependence.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, inf
from typing import Iterable, Mapping, Sequence

from .errors import UsageError

#: Canonical variable order; every varlist is a subsequence of this.
VARS: tuple[str, ...] = ("x", "y", "v", "w", "t", "u")

_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Exponent = tuple[int, ...]
Rational = Fraction

#: Default truncation weights: total degree in (x, y) only.
DEFAULT_WEIGHTS: dict[str, int] = {"x": 1, "y": 1, "v": 0, "w": 0, "t": 0, "u": 0}


def _check_varlist(varlist: Iterable[str]) -> tuple[str, ...]:
    vs = tuple(varlist)
    if len(set(vs)) != len(vs):
        raise UsageError(f"duplicate variable in varlist {vs}")
    for name in vs:
        if name not in _VAR_INDEX:
            raise UsageError(f"unknown variable {name!r}; allowed: {VARS}")
    if list(vs) != sorted(vs, key=_VAR_INDEX.__getitem__):
        raise UsageError(f"varlist {vs} must follow the canonical order {VARS}")
    return vs


def coeff_float(c) -> float:
    """``float(c)`` for an exact coefficient, or a UsageError past the float range."""
    try:
        return float(c)
    except OverflowError:
        raise UsageError(
            "a polynomial coefficient is too large for a float; use smaller parameters"
        ) from None


class Poly:
    """Immutable exact polynomial.

    ``terms`` maps exponent tuples (one entry per variable in ``varlist``)
    to nonzero rational coefficients.  The zero polynomial has an empty
    term map.
    """

    __slots__ = ("varlist", "terms", "_hash")

    def __init__(self, varlist: Iterable[str], terms: Mapping[Exponent, Fraction | int]):
        vs = _check_varlist(varlist)
        n = len(vs)
        tm: dict[Exponent, Fraction] = {}
        for exp, coeff in terms.items():
            e = tuple(int(k) for k in exp)
            if len(e) != n:
                raise UsageError(f"exponent {e} has length {len(e)}, varlist has {n} variables")
            if any(k < 0 for k in e):
                raise UsageError(f"negative exponent in {e}")
            c = Fraction(coeff)
            if c != 0:
                tm[e] = tm.get(e, Fraction(0)) + c
        object.__setattr__(self, "varlist", vs)
        object.__setattr__(self, "terms", {e: c for e, c in tm.items() if c != 0})
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, varlist: tuple[str, ...], terms: dict[Exponent, Fraction]) -> "Poly":
        """Trusted constructor for arithmetic results.

        ``varlist`` must already be canonical and ``terms`` must map
        exponent tuples of the right length to nonzero ``Fraction``s; the
        dict is neither checked nor copied.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "varlist", varlist)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(varlist: Iterable[str] = ()) -> "Poly":
        return Poly(varlist, {})

    @staticmethod
    def const(value: Fraction | int, varlist: Iterable[str] = ()) -> "Poly":
        vs = _check_varlist(varlist)
        return Poly(vs, {(0,) * len(vs): Fraction(value)})

    @staticmethod
    def var(name: str, varlist: Iterable[str] | None = None) -> "Poly":
        vs = _check_varlist(varlist) if varlist is not None else (name,)
        if name not in vs:
            raise UsageError(f"variable {name!r} not in varlist {vs}")
        exp = tuple(1 if s == name else 0 for s in vs)
        return Poly(vs, {exp: Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (raises if not constant)."""
        if not self.is_constant():
            raise UsageError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree(self, var: str) -> int:
        i = self._index(var)
        return max((e[i] for e in self.terms), default=0)

    def _index(self, var: str) -> int:
        try:
            return self.varlist.index(var)
        except ValueError:
            raise UsageError(f"variable {var!r} not in varlist {self.varlist}") from None

    def _weight_vector(self, weights: Mapping[str, int] | None) -> tuple[int, ...]:
        wts = DEFAULT_WEIGHTS if weights is None else weights
        return tuple(wts.get(name, 0) for name in self.varlist)

    def extend(self, varlist: Iterable[str]) -> "Poly":
        """Reinterpret over a larger varlist (a superset, canonical order)."""
        vs = _check_varlist(varlist)
        if vs == self.varlist:
            return self
        if not set(self.varlist) <= set(vs):
            raise UsageError(f"cannot extend varlist {self.varlist} to non-superset {vs}")
        pos = [vs.index(name) for name in self.varlist]
        n = len(vs)
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            new = [0] * n
            for k, p in zip(e, pos):
                new[p] = k
            terms[tuple(new)] = c
        return Poly._make(vs, terms)

    def restrict(self) -> "Poly":
        """Drop variables that do not occur in any term."""
        used = [i for i in range(len(self.varlist)) if any(e[i] for e in self.terms)]
        vs = tuple(self.varlist[i] for i in used)
        return Poly._make(vs, {tuple(e[i] for i in used): c for e, c in self.terms.items()})

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.varlist == other.varlist and self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.varlist, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def same_poly(self, other: "Poly") -> bool:
        """Equality after aligning varlists."""
        a, b = unify(self, other)
        return a.terms == b.terms

    # -- arithmetic (strict: varlists must match; use unify() to align) ----

    def _require_same(self, other: "Poly") -> None:
        if self.varlist != other.varlist:
            raise UsageError(f"mismatched varlists {self.varlist} vs {other.varlist}")

    def __add__(self, other: "Poly | int | Fraction") -> "Poly":
        other = self._coerce(other)
        self._require_same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return Poly._make(self.varlist, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Poly":
        return Poly._make(self.varlist, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly | int | Fraction") -> "Poly":
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other: "Poly | int | Fraction") -> "Poly":
        other = self._coerce(other)
        self._require_same(other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly._make(self.varlist, {e: c for e, c in terms.items() if c})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise UsageError("polynomial powers must be nonnegative integers")
        result = Poly.const(1, self.varlist)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c: Fraction | int) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly._make(self.varlist, {})
        return Poly._make(self.varlist, {e: c * k for e, k in self.terms.items()})

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other, self.varlist)
        raise UsageError(f"cannot combine Poly with {type(other).__name__}")

    # -- calculus ----------------------------------------------------------

    def partial(self, var: str) -> "Poly":
        i = self._index(var)
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new = list(e)
            new[i] -= 1
            terms[tuple(new)] = c * e[i]
        return Poly._make(self.varlist, terms)

    def integrate(self, var: str) -> "Poly":
        """Formal term-wise antiderivative in ``var`` (constant of integration 0)."""
        i = self._index(var)
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            new = list(e)
            new[i] += 1
            terms[tuple(new)] = c / new[i]
        return Poly._make(self.varlist, terms)

    # -- evaluation and coefficients --------------------------------------

    def coefficient(self, monomial: Mapping[str, int]) -> Fraction:
        """Exact coefficient of the monomial given as {var: exponent}."""
        for name in monomial:
            if name not in self.varlist and monomial[name]:
                return Fraction(0)
        exp = tuple(monomial.get(name, 0) for name in self.varlist)
        return self.terms.get(exp, Fraction(0))

    def coeffs_in(self, var: str) -> dict[int, "Poly"]:
        """Collect coefficients by power of ``var`` (as polys without ``var``)."""
        i = self._index(var)
        rest = tuple(name for j, name in enumerate(self.varlist) if j != i)
        out: dict[int, dict[Exponent, Fraction]] = {}
        for e, c in self.terms.items():
            out.setdefault(e[i], {})[e[:i] + e[i + 1 :]] = c
        return {k: Poly._make(rest, tm) for k, tm in out.items()}

    def eval_rational(self, values: Mapping[str, Fraction | int]) -> Fraction:
        total = Fraction(0)
        vals = [Fraction(values[name]) for name in self.varlist]
        for e, c in self.terms.items():
            term = c
            for val, k in zip(vals, e):
                if k:
                    term *= val**k
            total += term
        return total

    def eval_float(self, values: Mapping[str, float]) -> float:
        total = 0.0
        vals = [float(values[name]) for name in self.varlist]
        for e, c in self.terms.items():
            term = coeff_float(c)
            for val, k in zip(vals, e):
                if k:
                    term *= val**k
            total += term
        return total

    def truncate(self, max_degree: int | float, weights: Mapping[str, int] | None = None) -> "Poly":
        """Drop terms whose weighted degree exceeds ``max_degree``."""
        if max_degree is inf:
            return self
        wts = self._weight_vector(weights)
        keep = {
            e: c
            for e, c in self.terms.items()
            if sum(k * w for k, w in zip(e, wts)) <= max_degree
        }
        return Poly._make(self.varlist, keep)

    # -- ordering and printing --------------------------------------------

    def _glex_key(self, exp: Exponent) -> tuple:
        return (sum(exp), exp)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Graded-lex leading term (declared variable order breaks ties)."""
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        e = max(self.terms, key=self._glex_key)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: self._glex_key(kv[0]), reverse=True)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r}, vars={self.varlist})"


# -- module-level operations ----------------------------------------------


def unify(*polys: Poly) -> tuple[Poly, ...]:
    """Extend all polynomials to the union of their varlists."""
    names = sorted({n for p in polys for n in p.varlist}, key=_VAR_INDEX.__getitem__)
    vs = tuple(names)
    return tuple(p.extend(vs) for p in polys)


def arith(kind: str, p: Poly, q: "Poly | int") -> Poly:
    """Strict arithmetic entry point: operands must share a varlist.

    ``kind`` is one of add|sub|mul|pow; for pow, ``q`` is a nonnegative int.
    """
    if kind == "pow":
        if not isinstance(q, int):
            raise UsageError("pow takes an integer exponent")
        return p**q
    if not isinstance(q, Poly):
        raise UsageError(f"{kind} takes two polynomials")
    if p.varlist != q.varlist:
        raise UsageError(f"mismatched varlists {p.varlist} vs {q.varlist}")
    if kind == "add":
        return p + q
    if kind == "sub":
        return p - q
    if kind == "mul":
        return p * q
    raise UsageError(f"unknown arithmetic kind {kind!r}")


def partial(p: Poly, var: str) -> Poly:
    return p.partial(var)


def eta(p: Poly) -> Poly:
    """Directional derivative along x with slope v: eta(p) = p_x + v * p_y.

    The varlist must contain x, y and v.
    """
    for name in ("x", "y", "v"):
        if name not in p.varlist:
            raise UsageError(f"eta needs variable {name!r} in the varlist {p.varlist}")
    vvar = Poly.var("v", p.varlist)
    return p.partial("x") + vvar * p.partial("y")


def substitute(
    p: Poly,
    bindings: Mapping[str, Poly],
    trunc_deg: int | float = inf,
    weights: Mapping[str, int] | None = None,
) -> Poly:
    """Exact composition p(..., var -> binding, ...), optionally truncated.

    Truncation drops result terms above weighted degree ``trunc_deg``
    (default weights: degree in x, y only) and is applied throughout the
    expansion so intermediate blowup is avoided.
    """
    names = sorted(
        set(p.varlist) | {n for q in bindings.values() for n in q.varlist},
        key=_VAR_INDEX.__getitem__,
    )
    vs = tuple(names)
    bound = {name: q.extend(vs) for name, q in bindings.items()}

    def trunc(q: Poly) -> Poly:
        return q.truncate(trunc_deg, weights)

    # Per-variable power caches keep repeated exponents cheap.
    caches: dict[str, list[Poly]] = {}

    def power(name: str, k: int) -> Poly:
        base = bound.get(name) or Poly.var(name, vs)
        cache = caches.setdefault(name, [Poly.const(1, vs), base])
        while len(cache) <= k:
            cache.append(trunc(cache[-1] * base))
        return cache[k]

    total = Poly.zero(vs)
    for e, c in p.extend(vs).terms.items():
        term = Poly.const(c, vs)
        for name, k in zip(vs, e):
            if k:
                term = trunc(term * power(name, k))
        total = total + term
    return trunc(total)


def _content(p: Poly) -> Fraction:
    """Positive rational c such that p/c has integer coefficients with gcd 1."""
    return Fraction(reduce(gcd, (abs(c.numerator) for c in p.terms.values())), _denominator_lcm(p))


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def normalize_primitive(p: Poly) -> Poly:
    """Canonical representative up to a nonzero rational factor.

    Divides by the integer content and flips the sign so the graded-lex
    leading coefficient is positive.  Idempotent.
    """
    if p.is_zero():
        raise UsageError("cannot normalize the zero polynomial")
    c = _content(p)
    _, lead = p.leading_term()
    if lead < 0:
        c = -c
    return p.scale(1 / c)


# -- integer kernel ----------------------------------------------------------
#
# ``resultant`` and ``divexact`` work on term dicts {packed exponent: int}.
# An exponent tuple packs into one int: field i holds e_i in ``width_i``
# bits topped by a guard bit that is zero in every stored exponent, and the
# first variable sits in the most significant field.  Integer order is then
# lex order, a monomial order, and exponent addition is integer addition as
# long as no field overflows, which the widths chosen by the caller rule
# out.  Subtraction sets the guard bits first and reads a cleared one as a
# borrow, i.e. a negative exponent.


class _Packing:
    """Packs exponent tuples whose entries never exceed ``max_degrees``."""

    __slots__ = ("shifts", "masks", "guard", "full")

    def __init__(self, max_degrees: Sequence[int]):
        shifts: list[int] = []
        masks: list[int] = []
        guard = full = shift = 0
        for d in reversed(max_degrees):
            width = max(d, 1).bit_length()
            shifts.append(shift)
            masks.append((1 << width) - 1)
            full |= masks[-1] << shift
            guard |= 1 << (shift + width)
            shift += width + 1
        self.shifts = tuple(reversed(shifts))
        self.masks = tuple(reversed(masks))
        self.guard = guard
        self.full = full  # every field at its maximum

    def pack(self, exp: Sequence[int]) -> int:
        return sum(k << s for k, s in zip(exp, self.shifts))

    def unpack(self, e: int) -> Exponent:
        return tuple((e >> s) & m for s, m in zip(self.shifts, self.masks))


def _denominator_lcm(p: Poly) -> int:
    return reduce(_lcm, (c.denominator for c in p.terms.values()), 1)


def _integer_terms(p: Poly, pack: _Packing, scale: int) -> dict[int, int]:
    """scale * p as packed integer terms; ``scale`` must clear p's denominators."""
    return {pack.pack(e): c.numerator * (scale // c.denominator) for e, c in p.terms.items()}


def _divide_terms(num: dict[int, int], den: dict[int, int], limit: int, guard: int) -> dict[int, int]:
    """Exact quotient num / den of packed integer term dicts.

    The remainder is one mutable dict, scanned from its largest exponent
    down through a heap; each quotient term qc * x^qe subtracts qc * den
    from it term by term.  Raises ``UsageError("inexact polynomial
    division")`` when a remainder's leading term is not divisible by den's,
    or a quotient exponent exceeds ``limit`` in some field, or a coefficient
    quotient is not an integer.  When den divides num with an integer
    quotient, as in every Bareiss step and, by Gauss's lemma, whenever den
    is primitive and divides num over the rationals, none of these fires.
    """
    lead = max(den)
    lead_c = den[lead]
    tail = [(e, c) for e, c in den.items() if e != lead]
    ceiling = limit | guard
    rem = dict(num)
    heap = [-e for e in rem]
    heapify(heap)
    quo: dict[int, int] = {}
    while heap:
        e = -heappop(heap)
        c = rem.pop(e, 0)
        if not c:
            continue  # cancelled after it was queued
        qe = (e | guard) - lead
        qc, r = divmod(c, lead_c)
        if r or qe & guard != guard or (ceiling - (qe ^ guard)) & guard != guard:
            raise UsageError("inexact polynomial division")
        qe ^= guard
        quo[qe] = qc
        for de, dc in tail:
            k = qe + de
            t = qc * dc
            v = rem.get(k)
            if v is None:
                rem[k] = -t
                heappush(heap, -k)
            elif v == t:
                del rem[k]
            else:
                rem[k] = v - t
    return quo


def _mul_sub(a: dict[int, int], b: dict[int, int], c: dict[int, int], d: dict[int, int]) -> dict[int, int]:
    """a * b - c * d on packed integer term dicts."""
    out: dict[int, int] = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = e1 + e2
            out[k] = get(k, 0) + c1 * c2
    for e1, c1 in c.items():
        for e2, c2 in d.items():
            k = e1 + e2
            out[k] = get(k, 0) - c1 * c2
    return {k: v for k, v in out.items() if v}


def divexact(p: Poly, d: Poly) -> Poly:
    """Exact division p / d; raises UsageError if d does not divide p.

    p is scaled to integer coefficients and d to a primitive integer
    polynomial, so an exact quotient is integral and ``_divide_terms``
    finds it; one rational factor then restores the quotient of p by d.
    """
    if d.is_zero():
        raise UsageError("division by the zero polynomial")
    p, d = unify(p, d)
    if d.is_constant():
        return p.scale(1 / d.constant_value())
    if p.is_zero():
        return p
    deg_p = [p.degree(name) for name in p.varlist]
    bound = [k - d.degree(name) for k, name in zip(deg_p, p.varlist)]
    if min(bound) < 0:
        raise UsageError("inexact polynomial division")
    pack = _Packing(deg_p)
    num_scale, den_scale = _denominator_lcm(p), _denominator_lcm(d)
    num = _integer_terms(p, pack, num_scale)
    den = _integer_terms(d, pack, den_scale)
    content = reduce(gcd, den.values())
    den = {e: c // content for e, c in den.items()}
    quo = _divide_terms(num, den, pack.pack(bound), pack.guard)
    factor = Fraction(den_scale, num_scale * content)
    return Poly._make(p.varlist, {pack.unpack(e): c * factor for e, c in quo.items()})


def resultant(p: Poly, q: Poly, var: str) -> Poly:
    """Sylvester resultant of p and q with respect to ``var``.

    If exactly one operand has degree 0 in ``var`` the degenerate
    convention ``res(p, q) = q ** deg_var(p)`` applies; two degree-0
    operands are a usage error.

    Otherwise p and q are scaled to integer coefficients by the lcms L_p
    and L_q of their denominators, so every Sylvester row is an integer
    row, and ``_bareiss_det`` computes the determinant over the integers.
    Dividing it by L_p ** deg_var(q) * L_q ** deg_var(p), the product of
    the row scales, gives the resultant of p and q.
    """
    p, q = unify(p, q)
    if var not in p.varlist:
        raise UsageError(f"variable {var!r} not in varlist {p.varlist}")
    m, n = p.degree(var), q.degree(var)
    if m == 0 and n == 0:
        raise UsageError(f"both operands have degree 0 in {var!r}")
    rest = tuple(name for name in p.varlist if name != var)
    if n == 0:
        return q.coeffs_in(var).get(0, Poly.zero(rest)) ** m
    if m == 0:
        return p.coeffs_in(var).get(0, Poly.zero(rest)) ** n
    # Every minor met in the elimination has degree at most the sum of the
    # rows' degrees, and the products formed before each division at most
    # twice that; size the fields for those.
    pack = _Packing([2 * (n * p.degree(name) + m * q.degree(name)) for name in rest])
    p_scale, q_scale = _denominator_lcm(p), _denominator_lcm(q)
    pc = {k: _integer_terms(c, pack, p_scale) for k, c in p.coeffs_in(var).items()}
    qc = {k: _integer_terms(c, pack, q_scale) for k, c in q.coeffs_in(var).items()}
    size = m + n
    rows = [[pc.get(m - (j - r), {}) if 0 <= j - r <= m else {} for j in range(size)] for r in range(n)]
    rows += [[qc.get(n - (j - r), {}) if 0 <= j - r <= n else {} for j in range(size)] for r in range(m)]
    det = _bareiss_det(rows, pack)
    scale = p_scale**n * q_scale**m
    return Poly._make(rest, {pack.unpack(e): Fraction(c, scale) for e, c in det.items()})


def _bareiss_det(rows: list[list[dict[int, int]]], pack: _Packing) -> dict[int, int]:
    """Fraction-free determinant of a square matrix of packed integer term dicts.

    Step k replaces each entry below and right of the pivot by
    (a_ij * a_kk - a_ik * a_kj) / p, where p is the previous pivot; by
    Sylvester's identity the new entry is a (k+1)-minor of the input, so
    ``_divide_terms`` divides exactly over the integers.  ``pack``'s fields
    must hold twice the degree of any minor.  Entry dicts are replaced,
    never mutated, so rows may share them.  A column with no pivot gives
    the zero determinant.
    """
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev: dict[int, int] = {0: 1}
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return {}
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = _mul_sub(row_i[j], pivot, lead, row_k[j])
                row_i[j] = _divide_terms(num, prev, pack.full, pack.guard) if num else {}
            row_i[k] = {}
        prev = pivot
    det = m[n - 1][n - 1]
    return {e: -c for e, c in det.items()} if sign < 0 else det


def squarefree_part(p: Poly, var: str) -> Poly:
    """p with repeated factors (in ``var``) reduced, via gcd with dp/dvar."""
    dp = p.partial(var)
    if dp.is_zero():
        return p
    g = poly_gcd(p, dp)
    if g.total_degree() == 0:
        return p
    return divexact(p, g)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd via a primitive pseudo-remainder sequence.

    Adequate for the small degrees occurring in curve equations; not a
    tuned modular algorithm.
    """
    p, q = unify(p, q)
    if p.is_zero():
        return q if q.is_zero() else normalize_primitive(q)
    if q.is_zero():
        return normalize_primitive(p)
    var = next((name for name in p.varlist if p.degree(name) or q.degree(name)), None)
    if var is None:
        return Poly.const(1, p.varlist)
    cont_p, pp = _content_and_primitive(p, var)
    cont_q, qq = _content_and_primitive(q, var)
    a, b = (pp, qq) if pp.degree(var) >= qq.degree(var) else (qq, pp)
    while not b.is_zero():
        r = _pseudo_rem(a, b, var)
        if not r.is_zero():
            r = _content_and_primitive(r, var)[1]
        a, b = b, r
    g = _content_and_primitive(a, var)[1]
    cont = poly_gcd(cont_p, cont_q)
    return normalize_primitive(g * cont.extend(g.varlist))


def _content_and_primitive(p: Poly, var: str) -> tuple[Poly, Poly]:
    """Content (gcd of coefficients in ``var``) and primitive part."""
    coeffs = list(p.coeffs_in(var).values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.total_degree() == 0:
            break
        cont = poly_gcd(cont, c)
    if cont.total_degree() == 0:
        return Poly.const(1, p.varlist), normalize_primitive(p)
    cont = normalize_primitive(cont).extend(p.varlist)
    return cont, normalize_primitive(divexact(p, cont))


def _pseudo_rem(p: Poly, d: Poly, var: str) -> Poly:
    m, n = p.degree(var), d.degree(var)
    if m < n:
        return p
    dc = d.coeffs_in(var)
    lead_d = dc[n].extend(p.varlist)
    rem = p
    vvar = Poly.var(var, p.varlist)
    while not rem.is_zero() and rem.degree(var) >= n:
        k = rem.degree(var)
        lead_r = rem.coeffs_in(var)[k].extend(p.varlist)
        rem = rem * lead_d - lead_r * vvar ** (k - n) * d
    return rem


# -- textual grammar -------------------------------------------------------

_FACTOR_RE = re.compile(
    r"""^(?:
          (?P<num>\d+(?:/\d+)?)       # rational coefficient
        | (?P<var>[xyvwtu])(?:\^(?P<exp>\d+))?
        )$""",
    re.VERBOSE,
)


def parse_poly(text: str, varlist: Iterable[str] | None = None) -> Poly:
    """Parse the textual polynomial grammar, e.g. ``-3/2*x^2*y + t``.

    Terms are separated by ``+``; each term is a ``*``-separated product
    of an optional rational coefficient and powers ``var^k``.  A leading
    ``-`` on a term negates it.  The printer's output parses back
    bit-exactly.
    """
    text = text.strip()
    if not text:
        raise UsageError("empty polynomial text")
    # Split on '+' and on '-' that starts a new term (never inside a term,
    # since the grammar has no unary minus after '*', '/' or '^').
    chunks: list[str] = []
    current = ""
    for ch in text:
        if ch == "+":
            chunks.append(current)
            current = ""
        elif ch == "-" and current.strip():
            chunks.append(current)
            current = "-"
        else:
            current += ch
    chunks.append(current)
    chunks = [c for c in (c.strip() for c in chunks) if c]

    used: set[str] = set()
    parsed: list[tuple[Fraction, dict[str, int]]] = []
    for chunk in chunks:
        sign = Fraction(1)
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:].strip()
        if not body:
            raise UsageError(f"dangling sign in term {chunk!r}")
        coeff = sign
        powers: dict[str, int] = {}
        for factor in (f.strip() for f in body.split("*")):
            m = _FACTOR_RE.match(factor)
            if not m:
                raise UsageError(f"cannot parse factor {factor!r} in term {chunk!r}")
            if m.group("num") is not None:
                try:
                    coeff *= Fraction(m.group("num"))
                except ZeroDivisionError:
                    raise UsageError(f"zero denominator in factor {factor!r}") from None
            else:
                name = m.group("var")
                k = int(m.group("exp") or 1)
                powers[name] = powers.get(name, 0) + k
                used.add(name)
        parsed.append((coeff, powers))

    if varlist is None:
        vs = tuple(sorted(used, key=_VAR_INDEX.__getitem__))
    else:
        vs = _check_varlist(varlist)
        if not used <= set(vs):
            raise UsageError(f"text uses variables {used - set(vs)} outside varlist {vs}")
    terms: dict[Exponent, Fraction] = {}
    for coeff, powers in parsed:
        exp = tuple(powers.get(name, 0) for name in vs)
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return Poly(vs, terms)


def format_poly(p: Poly) -> str:
    """Deterministic printer; terms in descending graded-lex order."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exp, coeff in p.sorted_terms():
        factors: list[str] = []
        for name, k in zip(p.varlist, exp):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mag = abs(coeff)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)
