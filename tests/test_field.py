import math
from fractions import Fraction

import numpy as np
import pytest

from mongebde.bde import BDE, asymptotic_bde
from mongebde.errors import UsageError
from mongebde.families import family_library
from mongebde.field import (
    LiftedField,
    bde_residual,
    directions_at,
    integrate_field,
    portrait,
)
from mongebde.poly import parse_poly


def model(a, b, c):
    return BDE(parse_poly(a), parse_poly(b), parse_poly(c))


class TestDirections:
    def test_two_one_zero(self):
        b = model("2", "0", "6*x")
        two = directions_at(b, (-1.0, 0.0))
        assert len(two) == 2
        assert two[0] == pytest.approx(-math.sqrt(3))
        assert two[1] == pytest.approx(math.sqrt(3))
        assert directions_at(b, (0.0, 0.0)) == [0.0]
        assert directions_at(b, (1.0, 0.0)) == []

    def test_vertical_direction(self):
        b = model("y", "0", "1")
        assert directions_at(b, (0.3, 0.0)) == [math.inf]

    def test_flat_umbilic_marker(self):
        b = model("x", "y", "x")
        assert directions_at(b, (0.0, 0.0)) == "all"

    def test_family_bde_directions(self):
        from fractions import Fraction

        b = asymptotic_bde(family_library("Pi_v1++").f)
        two = directions_at(b, (0.0, 0.0), params=(Fraction(-1, 20), 0))
        assert len(two) == 2


class TestLiftedField:
    def test_tangency_holds_for_family(self):
        b = asymptotic_bde(family_library("Pi_c2").f)
        lf = LiftedField.from_bde(b, params=(0, 0))
        assert not lf.F.is_zero()

    def test_reciprocal_swaps_outer_coefficients(self):
        lf = LiftedField.from_bde(model("2", "0", "6*x"))
        rf = lf.reciprocal()
        assert str(rf.F.restrict()) == "6*x*v^2 + 2"


class TestIntegrate:
    def test_elliptic_seed_rejected(self):
        with pytest.raises(UsageError):
            integrate_field(model("2", "0", "6*x"), (0.2, 0.0))

    def test_flat_umbilic_seed_rejected(self):
        with pytest.raises(UsageError):
            integrate_field(model("x", "y", "x"), (0.0, 0.0))

    def test_matches_closed_form_parabola(self):
        # a=1, b=0, c=-y: dy/dx = +-sqrt(y), solutions y = ((x - c)/2)^2.
        b = model("1", "0", "-1*y")
        curve = integrate_field(b, (0.0, 0.25), slope=0.5, max_steps=2000)
        err = np.abs(curve[:, 1] - ((curve[:, 0] + 1.0) / 2) ** 2).max()
        assert err < 1e-8

    def test_residual_bound(self):
        b = model("1", "0", "-1*y")
        curve = integrate_field(b, (0.0, 0.25), slope=0.5, max_steps=2000)
        assert bde_residual(b, curve) < 1e-6

    def test_step_halving_fourth_order(self):
        b = model("1", "0", "-1*y")
        coarse = integrate_field(b, (0.0, 0.25), slope=0.5, step=1e-3, max_steps=400)
        fine = integrate_field(b, (0.0, 0.25), slope=0.5, step=5e-4, max_steps=800)
        n = min(len(coarse), (len(fine) + 1) // 2)
        d = np.hypot(
            coarse[:n, 0] - fine[: 2 * n : 2, 0],
            coarse[:n, 1] - fine[: 2 * n : 2, 1],
        ).max()
        assert d < 10 * (1e-3) ** 2

    def test_cusp_crossing_at_discriminant(self):
        # a=1, b=0, c=x: hyperbolic for x < 0, cusps on x = 0.
        b = model("1", "0", "x")
        curve = integrate_field(b, (-0.25, 0.0), slope=0.5, max_steps=4000)
        i = int(np.argmax(curve[:, 0]))
        assert curve[i, 0] > -1e-4  # reaches the discriminant
        assert 0 < i < len(curve) - 1  # and keeps going past it
        assert curve[-1, 0] < curve[i, 0] - 0.01
        assert bde_residual(b, curve) < 1e-6

    def test_chart_switch_keeps_direction(self):
        # dy/dx = +-sqrt(x) transposed: steep slopes near y axis.
        b = model("-1*x", "0", "1")
        curve = integrate_field(b, (0.04, 0.0), slope=5.0, max_steps=3000)
        assert len(curve) > 100
        # y is monotone along the curve despite the chart switches.
        dy = np.diff(curve[:, 1])
        assert (dy > -1e-12).all() or (dy < 1e-12).all()
        assert bde_residual(b, curve) < 1e-6

    def test_folded_model_mirror_symmetry(self):
        # a=1, b=0, c=-y+lambda*x^2 is invariant under (x, y) -> (-x, y).
        b = model("1", "0", "-1*y + 1/8*x^2")
        s = math.sqrt(0.2 - 0.125 * 0.01)
        c1 = integrate_field(b, (0.1, 0.2), slope=s, orientation=+1, max_steps=500)
        c2 = integrate_field(b, (-0.1, 0.2), slope=-s, orientation=+1, max_steps=500)
        n = min(len(c1), len(c2))
        d = np.hypot(c1[:n, 0] + c2[:n, 0], c1[:n, 1] - c2[:n, 1]).max()
        assert d < 1e-9


class TestPortrait:
    def test_batch_residuals(self):
        b = model("1", "0", "-1*y")
        curves = portrait(b, (-0.3, 0.3, -0.3, 0.3), seeds=4, max_steps=300)
        assert curves
        assert max(bde_residual(b, c) for c in curves) < 1e-6

    def test_family_portrait_runs(self):
        b = asymptotic_bde(family_library("Pi_c2").f)
        curves = portrait(
            b, (-0.2, 0.2, -0.2, 0.2), params=(0, 0), seeds=3, max_steps=200
        )
        assert curves
        assert max(bde_residual(b, c, params=(0, 0)) for c in curves) < 1e-6

    def test_lanes_match_single_runs(self):
        # portrait integrates all its lanes in one batch; each curve must be
        # the integrate_field run of its lane, bit for bit.  Between them the
        # cases stop lanes by every rule: window exits, with chart switches
        # (steep slopes near x = 0) beside lanes that start in the q chart,
        # in the first; a flat umbilic (the second, scaled so flat_tol is
        # reached 1e-3 from the origin); the step budget (the others), where
        # the last has lanes on its discriminant y = 0 whose lifted field
        # vanishes, so they stand still.
        pi_c2 = asymptotic_bde(family_library("Pi_c2").f)
        cases = [
            (model("-1*x", "0", "1"), (-0.03, 0.07, -0.1, 0.1), (0, 0), 700),
            (
                model("1/10000000*x", "1/10000000*y", "1/10000000*x"),
                (-0.2, 0.2, -0.2, 0.2), (0, 0), 300,
            ),
            (pi_c2, (-0.2, 0.2, -0.2, 0.2), (Fraction(-1, 20), 0), 300),
            (model("1", "0", "-1*y"), (-0.3, 0.3, -0.3, 0.3), (0, 0), 300),
        ]
        portraits = []
        for b, window, params, max_steps in cases:
            curves = portrait(b, window, params, seeds=3, max_steps=max_steps)
            portraits.append(curves)
            singles = []
            for x0 in np.linspace(window[0], window[1], 3):
                for y0 in np.linspace(window[2], window[3], 3):
                    dirs = directions_at(b, (x0, y0), params)
                    if dirs == "all" or not dirs:
                        continue
                    for slope in dirs:
                        for orientation in (+1, -1):
                            curve = integrate_field(
                                b, (x0, y0), params, slope=slope,
                                orientation=orientation, max_steps=max_steps,
                                window=window,
                            )
                            if len(curve) > 1:
                                singles.append(curve)
            assert len(curves) == len(singles)
            for got, want in zip(curves, singles):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        switching, flat, budget, still = portraits
        steep = [np.abs(np.diff(c[:, 1])) > 4 * np.abs(np.diff(c[:, 0])) for c in switching]
        assert any(s.any() and not s.all() for s in steep)  # crossed |slope| = 4
        assert any(len(c) < 701 for c in switching)  # left the window
        assert any(len(c) < 301 and np.hypot(*c[-1]) < 1.01e-3 for c in flat)
        assert any(len(c) == 301 for c in budget)
        assert any(len(c) == 301 and (c == c[0]).all() for c in still)
