from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongebde.errors import UsageError
from mongebde.families import family_library
from mongebde.flecnodal import flecnodal_system, parabolic_poly
from mongebde.numeval import CompiledPoly, CompiledSystem, PolySystem, newton
from mongebde.poly import Poly, parse_poly
from mongebde.trace import butterfly_points, curve_singularities, gauss_cusps


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
    residuals, jacobian = PolySystem(ps)(X, Y)
    partials = [p.partial(n) for p in ps for n in ("x", "y")]
    for p, values in zip(ps + partials, residuals + jacobian):
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


def _system(*texts, unknowns=("x", "y")):
    return PolySystem([parse_poly(t) for t in texts], unknowns)


def test_newton_two_unknowns():
    seeds = (np.array([0.5, -0.4]), np.array([0.3, -0.2]))
    X, Y = newton(_system("x^2 + y^2 - 1/4", "x - y"), seeds, 30)
    r = 1 / (2 * np.sqrt(2))
    assert np.allclose(X, [r, -r], atol=1e-15) and np.allclose(Y, [r, -r], atol=1e-15)


def test_newton_three_unknowns():
    seeds = (np.array([0.0, 0.3]), np.array([0.0, 0.1]), np.array([1.0, -0.7]))
    X, Y, V = newton(_system("x - 1/10", "y + 1/5", "v^2 - 1/4", unknowns=("x", "y", "v")), seeds, 30)
    assert np.allclose(X, 0.1, atol=1e-15) and np.allclose(Y, -0.2, atol=1e-15)
    assert np.allclose(V, [0.5, -0.5], atol=1e-15)


def test_newton_singular_lane_stays_put():
    # At the origin the Jacobian of {x^2, y^2} vanishes; the other lane
    # still moves, and the seed arrays are not changed.
    seeds = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    X, Y = newton(_system("x^2", "y^2"), seeds, 5)
    assert X[0] == Y[0] == 0.0 and X[1] == Y[1] == 2.0**-5
    assert seeds[0].tolist() == seeds[1].tolist() == [0.0, 1.0]
    seeds = (np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    X, Y, V = newton(_system("x^2", "y^2", "v^2", unknowns=("x", "y", "v")), seeds, 5)
    assert X[0] == Y[0] == V[0] == 0.0 and X[1] == Y[1] == V[1] == 2.0**-5


def test_newton_tol_stops_early():
    # {x^2, y} from (1, 0) halves x exactly on every step.
    system, seeds = _system("x^2", "y"), (np.array([1.0]), np.array([0.0]))
    assert newton(system, seeds, 50)[0].tolist() == [2.0**-50]
    assert newton(system, seeds, 50, tol=1e-3)[0].tolist() == [2.0**-10]


# float.hex of the solvers' points, recorded before the solvers shared
# PolySystem and newton, and Pi_v3's butterflies once they were solved on
# the circle of directions.  A change to any of these bits must be deliberate.
PINNED = {
    ("Pi_f2+", (Fraction(1, 100), Fraction(1, 10))): {
        "parabolic": [],
        "flecnodal": [
            (("-0x1.55aa9e92e5ef5p-2", "0x1.86f53da819f80p-2"), "isolated"),
            (("-0x1.55aa9e92e5efcp-2", "-0x1.86f53da819f87p-2"), "isolated"),
        ],
        "cusps": [("0x0.0p+0", "0x0.0p+0")],
        "butterflies": [],
    },
    ("Pi_v3", (Fraction(-1, 100), Fraction(0))): {
        "parabolic": [],
        "flecnodal": [(("0x0.0p+0", "0x0.0p+0"), "node")],
        "cusps": [("-0x1.40774565e54f8p-4", "-0x1.038e56b43fbe7p-4")],
        "butterflies": [
            ("-0x1.490105f9ca2c2p-6", "0x1.084444da2d961p-9"),
            ("0x1.4661d949eaf57p-6", "0x1.041258c127097p-9"),
        ],
    },
    ("Pi_c2", (Fraction(-1, 20), Fraction(0))): {
        "parabolic": [],
        "flecnodal": [],
        "cusps": [
            ("-0x1.21a1851ff630ap-4", "-0x1.399fef9eb078dp-7"),
            ("0x1.21a1851ff630ap-4", "0x1.2b91cac27fa9ep-8"),
        ],
        "butterflies": [("-0x1.999999999999ap-5", "-0x1.0a3d70a3d70a4p-7")],
    },
}


@pytest.mark.parametrize("label, params", list(PINNED), ids=[label for label, _ in PINNED])
def test_solver_points_pinned(label, params):
    fam = family_library(label)
    curves = {"parabolic": parabolic_poly(fam), "flecnodal": flecnodal_system(fam).eliminant}
    got = {
        name: [((x.hex(), y.hex()), tag) for (x, y), tag in curve_singularities(p, params=params)]
        for name, p in curves.items()
    }
    got["cusps"] = [(x.hex(), y.hex()) for x, y in gauss_cusps(fam, params)]
    got["butterflies"] = [(x.hex(), y.hex()) for x, y in butterfly_points(fam, params=params)]
    assert got == PINNED[label, params]
