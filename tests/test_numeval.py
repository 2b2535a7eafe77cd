from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongebde.errors import UsageError
from mongebde.numeval import CompiledPoly, CompiledSystem
from mongebde.poly import Poly


@st.composite
def polys(draw, varlist=("x", "y"), max_deg=6, max_terms=12):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, max_deg)) for _ in varlist)
        coeff = Fraction(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**4)))
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return Poly(varlist, terms)


coords = st.lists(
    st.floats(-3, 3, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    min_size=1,
    max_size=40,
)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@given(st.lists(polys(), min_size=1, max_size=6), st.data())
@settings(max_examples=80, deadline=None)
def test_system_matches_compiled_poly_bit_for_bit(ps, data):
    xs = data.draw(coords)
    ys = data.draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=len(xs), max_size=len(xs)))
    X, Y = np.array(xs), np.array(ys)
    got = CompiledSystem(ps)(X, Y)
    assert len(got) == len(ps)
    for p, values in zip(ps, got):
        assert np.array_equal(_bits(values), _bits(CompiledPoly(p)(X, Y)))


@given(st.lists(polys(("x", "y", "v"), max_deg=4, max_terms=8), min_size=1, max_size=3), st.data())
@settings(max_examples=40, deadline=None)
def test_three_arguments_and_scalars(ps, data):
    x, y, v = (data.draw(st.floats(-3, 3, allow_nan=False)) for _ in range(3))
    got = CompiledSystem(ps, ("x", "y", "v"))(x, y, v)
    for p, value in zip(ps, got):
        assert _bits(value) == _bits(CompiledPoly(p, ("x", "y", "v"))(x, y, v))


def test_argument_count_checked():
    with pytest.raises(UsageError):
        CompiledSystem([Poly.zero(("x", "y"))])(1.0)
