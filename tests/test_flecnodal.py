from fractions import Fraction

import pytest

from mongebde.families import SurfaceFamily, family_library, library_labels, surface
from mongebde.flecnodal import (
    flecnodal_system,
    graph_series,
    parabolic_poly,
    same_curve_jet,
)
from mongebde.poly import Poly, normalize_primitive, parse_poly, substitute


def norm(p):
    return normalize_primitive(p)


def same(p, text):
    q = parse_poly(text)
    from mongebde.poly import unify

    a, b = unify(p, q)
    return norm(a) == norm(b)


def at_zero_params(p):
    bindings = {n: Poly.zero(p.varlist) for n in ("t", "u") if n in p.varlist}
    return substitute(p, bindings).restrict() if bindings else p.restrict()


class TestContactSystem:
    def test_e2_is_second_fundamental_form_along_direction(self):
        sys_ = flecnodal_system(surface("y^2 + x^3"))
        # a=2, b=0, c=6x: e2 = -(6x v^2 + 2w^2), e3 = D e2, e4 = D e3
        assert sys_.e2.same_poly(parse_poly("-6*x*v^2 + -2*w^2"))
        assert sys_.e3.same_poly(parse_poly("-6*v^3"))
        assert sys_.e4.is_zero()

    def test_y_axis_chart(self):
        # The asymptotic direction at the origin is the y-axis, (0 : 1); the
        # forms need no chart for it.  a=6y, b=0, c=2.
        sys_ = flecnodal_system(surface("x^2 + y^3"))
        assert sys_.e2.same_poly(parse_poly("-2*v^2 + -6*y*w^2"))
        assert sys_.e3.same_poly(parse_poly("-6*w^3"))


def swap_xy(p):
    return substitute(p, {"x": Poly.var("y", p.varlist), "y": Poly.var("x", p.varlist)})


class TestChartSwap:
    @pytest.mark.parametrize("label", library_labels())
    def test_eliminant(self, label):
        # The flecnodal curve of f(y, x) is that of f(x, y) with x, y
        # swapped: no direction is privileged.
        fam = family_library(label)
        swapped = flecnodal_system(SurfaceFamily(f=swap_xy(fam.f))).eliminant
        assert norm(swap_xy(swapped)).same_poly(flecnodal_system(fam).eliminant)


class TestParabolicGoldens:
    def test_v1_pp(self):
        p = parabolic_poly(family_library("Pi_v1++"))
        assert same(p, "t + 6*x^2 + t*x^2 + y^2 + 6*x^4 + -3*x^2*y^2")

    def test_c2(self):
        p = parabolic_poly(family_library("Pi_c2"))
        assert same(p, "2*y + 20*x^3 + x^2 + 6*t*x")

    def test_v3(self):
        p = parabolic_poly(family_library("Pi_v3"))
        assert same(
            p,
            "12*x*y + 40*x^3 - 9*x^4 + 4*t + 4*u*y - 4*u^2*x^2 - 12*u*x^3",
        )

    def test_f1_signs(self):
        assert same(
            parabolic_poly(family_library("Pi_f1+")),
            "12*x^2 - 9*x^4 - 4*y^2 + 4*t*x",
        )
        assert same(
            parabolic_poly(family_library("Pi_f1-")),
            "12*x^2 + 9*x^4 + 4*y^2 - 4*t*x",
        )

    def test_f2_plus(self):
        p = parabolic_poly(family_library("Pi_f2+"))
        assert same(
            p,
            "6*x^3 - y^2 + t*x + 3*u*x^2 + 6*t*y^2 + 18*u*x*y^2 + 36*x^2*y^2",
        )


class TestFlecnodalGoldens:
    def test_c2_eliminant(self):
        s = flecnodal_system(family_library("Pi_c2")).eliminant
        assert same(
            s,
            "y + 100*x^4 + 10*x^3 + 1/2*x^2 + 20*t*x^2 + 3*t*x + t^2",
        )

    def test_v3_eliminant(self):
        s = flecnodal_system(family_library("Pi_v3")).eliminant
        assert same(
            s,
            "y^2 + 100*x^4 + 20*x^2*y + 18*x^3*y + u^3*y"
            " + t*u^2 + 6*t*u*x + 9*t*x^2"
            " - 10*u^2*x^3 + 7*u^2*x*y - 30*u*x^4 + 18*u*x^2*y",
        )

    def test_f1_plus_is_the_y_axis(self):
        s = flecnodal_system(family_library("Pi_f1+")).eliminant
        # x divides the eliminant; the cofactor has no real points near 0.
        zero = Poly.zero(s.varlist)
        assert substitute(s, {"x": zero}).is_zero()
        from mongebde.poly import divexact

        cof = at_zero_params(divexact(s, Poly.var("x", s.varlist)))
        two_jet = norm(cof.truncate(2))
        assert two_jet.same_poly(parse_poly("x^2 + y^2"))

    def test_f1_minus_contains_y_axis_branch(self):
        s = flecnodal_system(family_library("Pi_f1-")).eliminant
        zero = Poly.zero(s.varlist)
        assert substitute(s, {"x": zero}).is_zero()

    def test_v2_jet_up_to_unit(self):
        for label, sgn in (("Pi_v2+", -1), ("Pi_v2-", +1)):
            s = at_zero_params(flecnodal_system(family_library(label)).eliminant)
            claimed = parse_poly(f"16*x^2 + 9*y^7 + {66 * sgn}*x^2*y^4")
            assert same_curve_jet(s, claimed.extend(s.varlist), 7)
            # Straight truncation differs (extra x^4 y term): the match is
            # as curve jets, not coefficient lists.
            assert norm(s.truncate(7)) != norm(claimed.extend(s.varlist))


class TestSeriesGoldens:
    @pytest.mark.parametrize("label,sgn", [("Pi_c3+", 1), ("Pi_c3-", -1)])
    def test_c3_graphs(self, label, sgn):
        fam = family_library(label)
        p = at_zero_params(parabolic_poly(fam))
        s = at_zero_params(flecnodal_system(fam).eliminant)
        gp = graph_series(p, 6)
        gs = graph_series(s, 6)
        assert gp.same_poly(parse_poly(f"-1/2*x^2 + {7 * sgn}*x^4 - 38*x^6"))
        assert gs.same_poly(parse_poly(f"-1/2*x^2 + {7 * sgn}*x^4 - 138*x^6"))

    def test_v2_parabolic_exact(self):
        for label, s1, s4 in (("Pi_v2+", "1/6", -1), ("Pi_v2-", "-1/6", 1)):
            p = at_zero_params(parabolic_poly(family_library(label)))
            assert same(p, f"x^2 + {s1}*y^3 + 3*x^4*y + {s4}*x^2*y^4")


class TestHelpers:
    def test_graph_series_simple(self):
        g = graph_series(parse_poly("2*y + x^2 + x^2*y"), 6)
        assert g.same_poly(parse_poly("-1/2*x^2 + 1/4*x^4 + -1/8*x^6"))

    def test_same_curve_jet_unit_scaling(self):
        p = parse_poly("x^2 + y^3")
        q = parse_poly("2*x^2 + 2*y^3 + x^3 + x*y^3")  # (2 + x) * p
        assert same_curve_jet(p, q, 4)
        assert not same_curve_jet(p, parse_poly("x^2 + 2*y^3"), 4)
