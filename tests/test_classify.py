from fractions import Fraction

import pytest

from mongebde.classify import (
    characteristic_invariant,
    classify_monge,
    folded_invariant,
    normalize_parabolic,
)
from mongebde.errors import ClassificationError, InsufficientJetError, UsageError
from mongebde.families import family_library, library_labels
from mongebde.poly import parse_poly


def classify(text, **kw):
    return classify_monge(parse_poly(text), **kw)


class TestNormalizeParabolic:
    def test_already_normal(self):
        g, trail = normalize_parabolic(parse_poly("y^2 + x^3"))
        assert g.same_poly(parse_poly("y^2 + x^3"))
        assert trail == []

    def test_shear_and_scale(self):
        # 2-jet (x + y)^2: shear plus z-scale should leave exactly y^2.
        g, trail = normalize_parabolic(parse_poly("x^2 + 2*x*y + y^2 + x^3"))
        assert g.coefficient({"y": 2}) == 1
        assert g.coefficient({"x": 2}) == 0
        assert g.coefficient({"x": 1, "y": 1}) == 0
        assert any(m["move"] == "shear" for m in trail)

    def test_swap_when_x_squared(self):
        g, trail = normalize_parabolic(parse_poly("x^2 + y^3"))
        assert g.same_poly(parse_poly("y^2 + x^3"))
        assert trail[0]["move"] == "swap_xy"

    def test_rank2_rejected(self):
        with pytest.raises(ClassificationError):
            normalize_parabolic(parse_poly("x^2 + y^2"))

    def test_rank0_rejected(self):
        with pytest.raises(ClassificationError):
            normalize_parabolic(parse_poly("x^3 + y^3"))


class TestDecisionTree:
    def test_surface_without_y(self):
        assert classify("x^3") == classify_monge(parse_poly("x^3", ("x", "y")))

    def test_stable_cusp(self):
        r = classify("y^2 + x^3 + x*y^3 + 5*x^4")
        assert r.stratum == "Pi_I_stable"
        assert r.codimension == 1
        assert r.display_stratum() == "Π_I_stable"

    def test_morse_case(self):
        r = classify("y^2 + x^4 + x^2*y^2")
        assert r.stratum == "Pi_v1++"
        assert r.invariants["S"] == Fraction(-8)
        assert r.codimension == 3

    def test_morse_signs(self):
        assert classify("y^2 + x^4 - x^2*y^2").stratum == "Pi_v1+-"
        assert classify("y^2 - x^4 + x^2*y^2").stratum == "Pi_v1-+"
        assert classify("y^2 - x^4 - x^2*y^2").stratum == "Pi_v1--"

    def test_folded_saddle_node(self):
        r = classify("y^2 + x^2*y + 1/4*x^4 + x^5")
        assert r.stratum == "Pi_c2"
        assert r.folded_subtype == "degenerate"
        assert r.invariants["lambda"] == 0

    def test_c3_signs(self):
        base = "y^2 + x^2*y + 1/4*x^4 + {g}*x^4*y"
        assert classify(base.format(g=1)).stratum == "Pi_c3+"
        assert classify(base.format(g=-1)).stratum == "Pi_c3-"

    def test_c1_generic(self):
        r = classify("y^2 + x^2*y + x^4")
        assert r.stratum == "Pi_c1"
        # lambda = 6*(1 - 1/4) = 9/2 > 1/16: folded focus.
        assert r.invariants["lambda"] == Fraction(9, 2)
        assert r.folded_subtype == "focus"

    def test_c4_is_folded_saddle_with_lambda_minus_three_halves(self):
        r = classify("y^2 + x^2*y + x^5")
        assert r.stratum == "Pi_c4"
        assert r.invariants["lambda"] == Fraction(-3, 2)
        assert r.folded_subtype == "saddle"

    def test_c5(self):
        r = classify("y^2 + x^2*y + x^6")
        assert r.stratum == "Pi_c5"

    def test_v2(self):
        r = classify("y^2 + x^4 + x^2*y^3")
        assert r.stratum == "Pi_v2+"
        r = classify("y^2 - x^4 + x^2*y^3")
        assert r.stratum == "Pi_v2-"

    def test_v3(self):
        r = classify("y^2 + x^5 + x^3*y")
        assert r.stratum == "Pi_v3"

    def test_flat_one_real_line(self):
        r = classify("x*y^2 + x^3 + x^3*y")
        assert r.stratum == "Pi_f1+"
        assert r.invariants["cubic_disc"] < 0

    def test_flat_three_real_lines(self):
        r = classify("x*y^2 - x^3 + x^3*y")
        assert r.stratum == "Pi_f1-"
        assert r.invariants["cubic_disc"] > 0

    def test_flat_repeated_factor(self):
        assert classify("x*y^2 + x^4 + y^4").stratum == "Pi_f2+"
        assert classify("x*y^2 + x^4 - y^4").stratum == "Pi_f2-"

    def test_flat_repeated_factor_after_linear_change(self):
        # cubic (x + y)(x - y)^2: one simple plus one double line.
        r = classify("x^3 - x^2*y - x*y^2 + y^3 + x^4 + y^4")
        assert r.stratum in ("Pi_f2+", "Pi_f2-")
        assert any(m["move"] == "linear" for m in r.trail)

    def test_nondegenerate(self):
        r = classify("x^2 + 3*y^2")
        assert r.stratum == "nondegenerate"
        assert r.codimension == 0

    def test_monge_form_required(self):
        with pytest.raises(UsageError):
            classify("x + y^2")

    def test_unresolved_deep(self):
        assert classify("y^2 + x^7", params=(0, 0)).stratum == "unresolved"
        assert classify("x^3 + y^5").stratum == "unresolved"  # triple line


class TestInsufficientJet:
    def test_needs_degree_five(self):
        fam = family_library("Pi_v3")
        shallow = type(fam)(f=fam.f, trunc_deg=4, projection_axis="x")
        with pytest.raises(InsufficientJetError) as e:
            classify_monge(shallow)
        assert e.value.needed_degree == 5

    def test_needs_degree_six(self):
        from mongebde.families import SurfaceFamily

        shallow = SurfaceFamily(f=parse_poly("y^2 + x^2*y + 1/4*x^4"), trunc_deg=5)
        with pytest.raises(InsufficientJetError) as e:
            classify_monge(shallow)
        assert e.value.needed_degree == 6


class TestInvariants:
    def test_folded_invariant_scales(self):
        # x^2 y coefficient 2, x^4 coefficient 2: lambda = 6*(2/4 - 1/4).
        lam, subtype = folded_invariant(parse_poly("y^2 + 2*x^2*y + 2*x^4"))
        assert lam == Fraction(3, 2)
        assert subtype == "focus"

    def test_degenerate_boundary(self):
        lam, subtype = folded_invariant(parse_poly("y^2 + x^2*y + 1/4*x^4 + x^5"))
        assert lam == 0
        assert subtype == "degenerate"

    def test_characteristic_values(self):
        assert characteristic_invariant(parse_poly("y^2 + x^2*y")) == Fraction(3, 2)
        assert characteristic_invariant(parse_poly("y^2 + x^2*y + 1/4*x^4")) == 0
        assert characteristic_invariant(parse_poly("y^2 + x^2*y + x^4")) == Fraction(-9, 2)

    def test_wrong_branch_rejected(self):
        with pytest.raises(ClassificationError):
            folded_invariant(parse_poly("y^2 + x^3"))
        with pytest.raises(ClassificationError):
            characteristic_invariant(parse_poly("y^2 + x^4"))


class TestLibraryRoundTrip:
    """Every built-in family classifies, at (t, u) = (0, 0), into its own label."""

    @pytest.mark.parametrize("label", library_labels())
    def test_family_classifies_to_label(self, label):
        fam = family_library(label)
        r = classify_monge(fam, params=(0, 0))
        assert r.stratum == label

    def test_report_json_round_trip(self):
        import json

        r = classify_monge(family_library("Pi_c2"))
        data = json.loads(r.to_json())
        assert data["stratum"] == "Π_{c,2}"
        assert data["codimension"] == 3
        assert data["folded_subtype"] == "degenerate"
