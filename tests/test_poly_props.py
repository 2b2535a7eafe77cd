import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mongebde.errors import UsageError
from mongebde.poly import Poly, divexact, eta, normalize_primitive, parse_poly, poly_gcd, resultant

VARS3 = ("x", "y", "v")


@st.composite
def polys(draw, varlist=VARS3, max_deg=3, max_terms=5):
    n = len(varlist)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, max_deg)) for _ in range(n))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 4))
        terms[exp] = terms.get(exp, Fraction(0)) + Fraction(num, den)
    return Poly(varlist, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q * r) == (p * q) * r
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@given(polys())
@settings(max_examples=60, deadline=None)
def test_partials_commute(p):
    assert p.partial("x").partial("y") == p.partial("y").partial("x")


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_eta_leibniz(p, q):
    assert eta(p * q) == eta(p) * q + p * eta(q)


@given(polys(), st.integers(-5, 5), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_normalize_scale_invariant(p, num, den):
    c = Fraction(num, den)
    if p.is_zero() or c == 0:
        return
    assert normalize_primitive(p.scale(c)) == normalize_primitive(p)


def _random_univar_pair(rng):
    def rand(deg):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice([1, 2, 3, -1, -2])))  # nonzero lead
        return Poly(
            ("x", "v"),
            {(0, i): c for i, c in enumerate(coeffs) if c != 0},
        )

    return rand(rng.randint(1, 3)), rand(rng.randint(1, 3))


def test_resultant_matches_numeric_common_roots():
    """resultant(p,q,v)(x0)=0 iff p(x0,.), q(x0,.) share a complex root.

    Checked on random low-degree pairs against numpy root finding, with
    the polynomials made x-dependent by shifting v -> v + x.
    """
    rng = random.Random(20240817)
    checked = 0
    while checked < 100:
        p, q = _random_univar_pair(rng)
        r = resultant(p, q, "v")
        rv = r.eval_rational({"x": 0})

        def coeff_list(poly):
            d = poly.degree("v")
            out = []
            for k in range(d, -1, -1):
                out.append(float(poly.terms.get((0, k), 0.0)))
            return out

        roots_p = np.roots(coeff_list(p))
        roots_q = np.roots(coeff_list(q))
        dist = min(
            (abs(a - b) for a in roots_p for b in roots_q),
            default=np.inf,
        )
        if rv == 0:
            assert dist < 1e-6
        else:
            # A clearly nonzero resultant implies clearly separated roots.
            if abs(rv) > 1e-8:
                assert dist > 1e-9
        checked += 1


# -- differential tests against sympy (test-only oracle) -------------------

ELIM_VARLISTS = [("v",), ("x", "v"), ("x", "y", "v")]


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


@st.composite
def poly_pairs(draw, max_deg=3, max_terms=4, common=False):
    """Two polys over one varlist ending in v; with ``common`` they share a factor."""
    varlist = draw(st.sampled_from(ELIM_VARLISTS))
    p = draw(polys(varlist, max_deg, max_terms))
    q = draw(polys(varlist, max_deg, max_terms))
    if not common:
        return p, q
    # A factor of positive degree in v, times nonzero cofactors.
    c = draw(polys(varlist, 1, 2))
    lead = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    c = c + Poly.var("v", varlist) ** (c.degree("v") + 1) * lead
    one = Poly.const(1, varlist)
    return (one if p.is_zero() else p) * c, (one if q.is_zero() else q) * c


def _to_sympy(sp, p):
    gens = sp.symbols(p.varlist)
    return sp.Add(
        *(
            sp.Rational(c.numerator, c.denominator) * sp.Mul(*(g**k for g, k in zip(gens, e)))
            for e, c in p.terms.items()
        )
    )


def _from_sympy(sp, expr, varlist):
    terms = sp.Poly(expr, *sp.symbols(varlist), domain="QQ").terms()
    return Poly(varlist, {m: Fraction(str(c)) for m, c in terms})


def _same(sp, ours, theirs):
    return sp.expand(_to_sympy(sp, ours) - theirs) == 0


@given(pair=poly_pairs())
@example(pair=(parse_poly("1/2*v^2 + -3", ("v",)), parse_poly("2/3*v + 5/7", ("v",))))
@example(pair=(parse_poly("x*v^2 + 1/2", ("x", "v")), parse_poly("3*v", ("x", "v"))))  # a row swap
@settings(max_examples=60, deadline=None)
def test_resultant_matches_sympy(sp, pair):
    p, q = pair
    m, n = p.degree("v"), q.degree("v")
    assume(m > 0 and n > 0)
    # sympy 1.14's resultant swaps its operands when the first has the lower
    # degree without the sign (-1)**(m*n) (checked against the determinant of
    # sympy's own Sylvester matrix), so hand it the higher-degree one first.
    a, b, v = _to_sympy(sp, p), _to_sympy(sp, q), sp.Symbol("v")
    theirs = sp.resultant(a, b, v) if m >= n else (-1) ** (m * n) * sp.resultant(b, a, v)
    assert _same(sp, resultant(p, q, "v"), theirs)


@given(pair=poly_pairs(max_deg=2, max_terms=3, common=True))
@example(pair=(parse_poly("v^2", ("v",)), parse_poly("v^2", ("v",))))  # no pivot in column 2
@example(pair=(parse_poly("x*v^2 + 1/3*v", ("x", "v")), parse_poly("-2*x*v^2 + 5/2*v", ("x", "v"))))
@settings(max_examples=40, deadline=None)
def test_resultant_of_common_factor_is_zero(sp, pair):
    p, q = pair
    r = resultant(p, q, "v")
    assert r.is_zero()
    assert sp.resultant(_to_sympy(sp, p), _to_sympy(sp, q), sp.Symbol("v")) == 0


@given(pair=poly_pairs(), exact=st.booleans())
@settings(max_examples=80, deadline=None)
def test_divexact_matches_sympy(sp, pair, exact):
    p, d = pair
    assume(not d.is_zero())
    if exact:
        p = p * d
    gens = sp.symbols(p.varlist)
    quo, rem = sp.div(_to_sympy(sp, p), _to_sympy(sp, d), *gens, domain="QQ")
    if rem == 0:
        assert _same(sp, divexact(p, d), quo)
    else:
        assert not exact
        with pytest.raises(UsageError, match="inexact"):
            divexact(p, d)


@given(pair=poly_pairs(max_deg=2, max_terms=3), common=st.booleans())
@settings(max_examples=40, deadline=None)
def test_poly_gcd_matches_sympy(sp, pair, common):
    p, q = pair
    if common:
        p, q = p * (p + q), q * (p + q)
    g = poly_gcd(p, q)
    theirs = sp.gcd(_to_sympy(sp, p), _to_sympy(sp, q), *sp.symbols(p.varlist), domain="QQ")
    if theirs == 0:
        assert g.is_zero()
    else:
        assert g == normalize_primitive(_from_sympy(sp, theirs, p.varlist))
