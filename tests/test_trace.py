import math
from fractions import Fraction

import numpy as np
import pytest

from mongebde.errors import UsageError
from mongebde.families import SurfaceFamily, family_library
from mongebde.flecnodal import flecnodal_system, parabolic_poly
from mongebde.numeval import compile_poly
from mongebde.poly import Poly, parse_poly, substitute
from mongebde.trace import (
    _dedupe,
    butterfly_points,
    curve_singularities,
    fix_params,
    flecnodal_parametrization_check,
    gauss_cusps,
    trace_zero_set,
)


class TestSingularities:
    def test_smooth_circle(self):
        assert curve_singularities(parse_poly("x^2 + y^2 + -1")) == []

    def test_node(self):
        [(pt, tag)] = curve_singularities(parse_poly("x*y"))
        assert tag == "node"
        assert math.hypot(*pt) < 1e-10

    def test_isolated(self):
        [(pt, tag)] = curve_singularities(parse_poly("x^2 + y^2"))
        assert tag == "isolated"

    def test_cusp_model(self):
        [(pt, tag)] = curve_singularities(parse_poly("-4*y^2 + 24*x^3"))
        assert tag == "cusp"
        assert math.hypot(*pt) < 1e-8

    def test_flat_umbilic_parabolic_cusp(self):
        p = parabolic_poly(family_library("Pi_f2+"))
        [(pt, tag)] = curve_singularities(p, params=(0, 0))
        assert tag == "cusp"
        assert math.hypot(*pt) < 1e-8

    def test_morse_singularity_of_binodal_family(self):
        p = parabolic_poly(family_library("Pi_v1++"))
        [(pt, tag)] = curve_singularities(p, params=(0, 0))
        assert tag == "isolated"  # elliptic Morse point at the moment of birth

    def test_v3_parabolic_node(self):
        p = parabolic_poly(family_library("Pi_v3"))
        [(pt, tag)] = curve_singularities(p, params=(0, 0))
        assert tag == "node"
        assert math.hypot(*pt) < 1e-9

    def test_params_required(self):
        with pytest.raises(UsageError):
            curve_singularities(parse_poly("x*y + t"))

    def test_zero_polynomial_has_none(self):
        # Every seed would "converge" on p = 0; there is no curve to be singular.
        assert curve_singularities(Poly.zero(("x", "y"))) == []


def _dedupe_reference(points, radius):
    kept = []
    for pt in points:
        if all(np.hypot(pt[0] - q[0], pt[1] - q[1]) > radius for q in kept):
            kept.append(pt)
    return np.array(kept) if kept else np.zeros((0, 2))


def test_dedupe_keeps_first_of_each_cluster():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-1, 1, (6, 2))
    pts = centers[rng.integers(0, 6, 300)] + rng.normal(0, 1e-7, (300, 2))
    pts[::50] = rng.uniform(-1, 1, (6, 2))
    for radius in (1e-6, 1e-3, 0.5):
        got, want = _dedupe(pts, radius), _dedupe_reference(pts, radius)
        assert np.array_equal(got, want)
    assert _dedupe(np.zeros((0, 2)), 1e-6).shape == (0, 2)


class TestTraceZeroSet:
    def test_empty(self):
        tc = trace_zero_set(parse_poly("x^2 + y^2 + 1"), (-1, 1, -1, 1))
        assert tc.n_branches() == 0

    def test_elliptic_flecnodal_curve_is_empty(self):
        s = flecnodal_system(parse_poly("x^2 + y^2")).eliminant
        assert s.is_zero()
        tc = trace_zero_set(s, resolution=16)
        assert tc.n_branches() == 0 and tc.special_points == []

    def test_cross_splits_at_node(self):
        tc = trace_zero_set(parse_poly("x*y"), (-1, 1, -1, 1))
        assert tc.n_branches() == 4
        assert tc.special_points == [((0.0, 0.0), "node")]

    def test_residual_bound(self):
        p = parse_poly("2*y + 20*x^3 + x^2")
        tc = trace_zero_set(p, (-0.2, 0.2, -0.2, 0.2))
        f = compile_poly(p.extend(("x", "y")))
        assert tc.n_branches() == 1
        for b in tc.branches:
            assert np.abs(f(b[:, 0], b[:, 1])).max() <= 1e-9

    def test_matches_series_solution(self):
        tc = trace_zero_set(parse_poly("2*y + 20*x^3 + x^2"), (-0.2, 0.2, -0.2, 0.2))
        b = tc.branches[0]
        err = np.abs(b[:, 1] + (b[:, 0] ** 2 + 20 * b[:, 0] ** 3) / 2).max()
        assert err < 1e-6

    def test_resolution_floor(self):
        with pytest.raises(UsageError):
            trace_zero_set(parse_poly("x"), (-1, 1, -1, 1), resolution=4)

    def test_stability_under_refinement(self):
        p = parse_poly("y^2 + -1*x^3 + -1/10*x")
        win = (-0.6, 0.6, -0.6, 0.6)
        coarse = trace_zero_set(p, win, 64)
        fine = trace_zero_set(p, win, 128)
        a, b = coarse.all_points(), fine.all_points()
        d = max(
            np.min(np.hypot(b[:, 0] - q[0], b[:, 1] - q[1]))
            for q in a
        )
        assert d < 2 * math.hypot(1.2, 1.2) / 64

    def test_figure_eight(self):
        s = flecnodal_system(family_library("Pi_v1++")).eliminant
        tc = trace_zero_set(s, (-0.5, 0.5, -0.5, 0.5), 192, params=(Fraction(-1, 20), 0))
        assert [tag for _, tag in tc.special_points] == ["node"]
        node = tc.special_points[0][0]
        loops = [
            b
            for b in tc.branches
            if math.hypot(b[0][0] - node[0], b[0][1] - node[1]) < 1e-9
            and math.hypot(b[-1][0] - node[0], b[-1][1] - node[1]) < 1e-9
        ]
        assert tc.n_branches() == 2 and len(loops) == 2


class TestGaussCusps:
    def test_c2_pair_before_and_after(self):
        fam = family_library("Pi_c2")
        before = gauss_cusps(fam, (Fraction(-1, 20), 0))
        after = gauss_cusps(fam, (Fraction(1, 20), 0))
        assert len(before) == 2
        assert len(after) == 0
        assert all(type(c) is float for pt in before for c in pt)

    def test_c2_single_tangency_at_zero(self):
        fam = family_library("Pi_c2")
        pts = gauss_cusps(fam, (0, 0))
        assert len(pts) == 1
        assert math.hypot(*pts[0]) < 1e-8

    def test_stable_cusp_has_none(self):
        from mongebde.families import surface

        assert gauss_cusps(surface("y^2 + x^3"), (0, 0)) == []

    def test_elliptic_surface_has_none(self):
        from mongebde.families import surface

        assert gauss_cusps(surface("x^2 + y^2"), (0, 0)) == []

    def test_non_finite_params_are_usage_errors(self):
        fam = family_library("Pi_c2")
        for params in ((float("inf"), 0), (float("nan"), 0)):
            with pytest.raises(UsageError):
                gauss_cusps(fam, params)


class TestButterflies:
    @pytest.mark.parametrize(
        "label, params", [("Pi_v3", (Fraction(-1, 100), 0)), ("Pi_c2", (Fraction(-1, 20), 0))]
    )
    def test_chart_swap(self, label, params):
        # The butterflies of f(y, x) are those of f(x, y) with x, y swapped.
        f = family_library(label).f
        swapped = substitute(f, {"x": Poly.var("y", f.varlist), "y": Poly.var("x", f.varlist)})
        want = sorted((y0, x0) for x0, y0 in butterfly_points(family_library(label), params=params))
        got = sorted(butterfly_points(SurfaceFamily(f=swapped), params=params))
        assert want and len(got) == len(want)
        assert np.allclose(got, want, rtol=0, atol=1e-10)

    def test_v1_empty(self):
        assert butterfly_points(family_library("Pi_v1++"), params=(Fraction(-1, 20), 0)) == []

    def test_c3_empty_near_origin(self):
        pts = butterfly_points(
            family_library("Pi_c3+"),
            window=(-0.1, 0.1, -0.1, 0.1),
            params=(Fraction(-1, 100), Fraction(1, 100)),
        )
        assert pts == []

    def test_v3_has_butterflies(self):
        pts = butterfly_points(family_library("Pi_v3"), params=(Fraction(-1, 100), 0))
        assert len(pts) == 2
        assert all(type(c) is float for pt in pts for c in pt)
        elim = flecnodal_system(family_library("Pi_v3")).eliminant
        elim = fix_params(elim, (Fraction(-1, 100), 0))
        f = compile_poly(elim.extend(("x", "y")))
        for x0, y0 in pts:
            assert abs(f(x0, y0)) < 1e-6  # butterflies lie on the flecnodal curve


class TestParametrization:
    def test_residual_small(self):
        assert flecnodal_parametrization_check(t=-0.01, n_samples=11) < 1e-8

    def test_degenerate_moment(self):
        assert flecnodal_parametrization_check(t=0.0, n_samples=3) < 1e-12
