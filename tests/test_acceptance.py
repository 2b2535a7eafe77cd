"""End-to-end acceptance checks, one test per pinned result.

Exact results are asserted bit-exactly after primitive normalization;
numerical results at the stated tolerance.  Each test prints as a single
pass/fail line under ``pytest -v``.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mongebde.bde import BDE, asymptotic_bde, discriminant
from mongebde.classify import classify_monge, folded_invariant
from mongebde.families import SurfaceFamily, family_library, library_labels
from mongebde.field import bde_residual, integrate_field
from mongebde.flecnodal import (
    flecnodal_system,
    graph_series,
    parabolic_poly,
    same_curve_jet,
)
from mongebde.ide import to_ide, versality_check
from mongebde.poly import (
    Poly,
    divexact,
    normalize_primitive,
    parse_poly,
    resultant,
    substitute,
    unify,
)
from mongebde.sweep import event_locus_verify, fingerprint
from mongebde.trace import (
    flecnodal_parametrization_check,
    gauss_cusps,
    trace_zero_set,
)


def norm_equal(p, text):
    q = parse_poly(text)
    a, b = unify(p, q)
    return normalize_primitive(a) == normalize_primitive(b)


def at_zero_params(p):
    bindings = {n: Poly.zero(p.varlist) for n in ("t", "u") if n in p.varlist}
    return substitute(p, bindings).restrict() if bindings else p.restrict()


# -- 1. exact parabolic / flecnodal polynomials ----------------------------


class TestExactCurvePolynomials:
    def test_parabolic_binodal_plus_plus(self):
        p = parabolic_poly(family_library("Pi_v1++"))
        assert norm_equal(p, "t + 6*x^2 + t*x^2 + y^2 + 6*x^4 + -3*x^2*y^2")

    def test_parabolic_and_flecnodal_degenerate_gauss_cusp(self):
        assert norm_equal(
            parabolic_poly(family_library("Pi_c2")), "2*y + 20*x^3 + x^2 + 6*t*x"
        )
        assert norm_equal(
            flecnodal_system(family_library("Pi_c2")).eliminant,
            "y + 100*x^4 + 10*x^3 + 1/2*x^2 + 20*t*x^2 + 3*t*x + t^2",
        )

    def test_parabolic_and_flecnodal_parabolic_node(self):
        assert norm_equal(
            parabolic_poly(family_library("Pi_v3")),
            "12*x*y + 40*x^3 - 9*x^4 + 4*t + 4*u*y - 4*u^2*x^2 - 12*u*x^3",
        )
        assert norm_equal(
            flecnodal_system(family_library("Pi_v3")).eliminant,
            "y^2 + 100*x^4 + 20*x^2*y + 18*x^3*y + u^3*y"
            " + t*u^2 + 6*t*u*x + 9*t*x^2"
            " - 10*u^2*x^3 + 7*u^2*x*y - 30*u*x^4 + 18*u*x^2*y",
        )

    def test_parabolic_flat_umbilic_cone_signs(self):
        assert norm_equal(
            parabolic_poly(family_library("Pi_f1+")),
            "12*x^2 - 9*x^4 - 4*y^2 + 4*t*x",
        )
        assert norm_equal(
            parabolic_poly(family_library("Pi_f1-")),
            "12*x^2 + 9*x^4 + 4*y^2 - 4*t*x",
        )

    def test_flecnodal_flat_umbilic_cone_plus_is_the_y_axis(self):
        s = flecnodal_system(family_library("Pi_f1+")).eliminant
        assert substitute(s, {"x": Poly.zero(s.varlist)}).is_zero()
        cof = at_zero_params(divexact(s, Poly.var("x", s.varlist)))
        assert normalize_primitive(cof.truncate(2)).same_poly(parse_poly("x^2 + y^2"))

    def test_parabolic_degenerate_flat_umbilic(self):
        assert norm_equal(
            parabolic_poly(family_library("Pi_f2+")),
            "6*x^3 - y^2 + t*x + 3*u*x^2 + 6*t*y^2 + 18*u*x*y^2 + 36*x^2*y^2",
        )


# -- 2. invariant values ----------------------------------------------------


class TestInvariantValues:
    def test_folded_invariant_of_degenerate_characteristic_point(self):
        lam, subtype = folded_invariant(parse_poly("y^2 + x^2*y + x^5"))
        assert lam == Fraction(-3, 2)
        assert subtype == "saddle"

    def test_versality_determinants(self):
        expected = {"Pi_v2+": -1, "Pi_v3": -6, "Pi_c3+": -36}
        trunc = {"Pi_v2+": 5, "Pi_v3": 5, "Pi_c3+": 6}
        for label, det in expected.items():
            bde = asymptotic_bde(family_library(label).f)
            res = versality_check(label, to_ide(bde, trunc[label]))
            assert res.determinant == det, label
        res = versality_check("Pi_f1+", asymptotic_bde(family_library("Pi_f1+").f))
        assert res.determinant == 8


# -- 3. classifier golden suite ---------------------------------------------


class TestClassifierRoundTrip:
    @pytest.mark.parametrize("label", library_labels())
    def test_library_family_classifies_to_its_label(self, label):
        report = classify_monge(family_library(label))
        assert report.stratum == label


# -- 4. event loci -----------------------------------------------------------


class TestEventLoci:
    def test_parabolic_node_morse_locus_factor(self):
        v = event_locus_verify(
            family_library("Pi_v3"), parse_poly("108*t + -40*u^3 + -3*u^4")
        )
        assert v.exact_factor is True

    def test_degenerate_flat_umbilic_locus_factors(self):
        v = event_locus_verify(
            family_library("Pi_f2+"), parse_poly("32*t^2 + -12*t*u^2")
        )
        assert v.exact_factor is True


# -- 5. truncated-series agreement -------------------------------------------


class TestSeriesAgreement:
    @pytest.mark.parametrize("label,s1,s4", [("Pi_v2+", "1/6", -1), ("Pi_v2-", "-1/6", 1)])
    def test_cusp_node_parabolic_jet(self, label, s1, s4):
        p = at_zero_params(parabolic_poly(family_library(label)))
        assert norm_equal(p, f"x^2 + {s1}*y^3 + 3*x^4*y + {s4}*x^2*y^4")

    @pytest.mark.parametrize("label,sgn", [("Pi_v2+", -1), ("Pi_v2-", 1)])
    def test_cusp_node_flecnodal_jet(self, label, sgn):
        s = at_zero_params(flecnodal_system(family_library(label)).eliminant)
        claimed = parse_poly(f"16*x^2 + 9*y^7 + {66 * sgn}*x^2*y^4")
        assert same_curve_jet(s, claimed.extend(s.varlist), 7)

    @pytest.mark.parametrize("label,sgn", [("Pi_c3+", 1), ("Pi_c3-", -1)])
    def test_gauss_cusp_degeneration_graphs(self, label, sgn):
        fam = family_library(label)
        gp = graph_series(at_zero_params(parabolic_poly(fam)), 6)
        gs = graph_series(at_zero_params(flecnodal_system(fam).eliminant), 6)
        assert gp.same_poly(parse_poly(f"-1/2*x^2 + {7 * sgn}*x^4 - 38*x^6"))
        assert gs.same_poly(parse_poly(f"-1/2*x^2 + {7 * sgn}*x^4 - 138*x^6"))


# -- 6. flecnodal parametrization --------------------------------------------


class TestParametrizationResidual:
    def test_closed_form_branch_on_eliminant(self):
        assert flecnodal_parametrization_check(t=-0.01, n_samples=11) < 1e-8


# -- 7. property suites -------------------------------------------------------


def _random_jet(rng, max_deg=4):
    vs = ("x", "y")
    terms = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            if i + j < 2:
                continue
            terms[(i, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(vs, terms)


class TestPropertySuites:
    def test_discriminant_equals_hessian_determinant(self):
        rng = random.Random(0)
        for _ in range(200):
            f = _random_jet(rng)
            b = asymptotic_bde(f) if not f.is_zero() else None
            if b is None:
                continue
            hess = f.partial("x").partial("y") ** 2 - (
                f.partial("x").partial("x") * f.partial("y").partial("y")
            )
            assert discriminant(b) == hess

    def test_parabolic_curve_covariant_under_linear_changes(self):
        rng = random.Random(1)
        checked = 0
        while checked < 50:
            f = _random_jet(rng, max_deg=4)
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0 or f.is_zero():
                continue
            x, y = Poly.var("x", ("x", "y")), Poly.var("y", ("x", "y"))
            change = {"x": x.scale(a) + y.scale(b), "y": x.scale(c) + y.scale(d)}
            disc = discriminant(asymptotic_bde(f))
            if disc.is_zero():
                continue
            lhs = parabolic_poly(substitute(f, change))
            rhs = normalize_primitive(substitute(disc, change))
            l, r = unify(lhs, rhs)
            assert l == r
            checked += 1

    def test_resultant_detects_common_roots(self):
        rng = random.Random(2)
        v = Poly.var("v", ("v",))
        for _ in range(100):
            r1, r2 = rng.randint(-9, 9), rng.randint(-9, 9)
            s1, s2 = rng.randint(-9, 9), rng.randint(-9, 9)
            p = (v - r1) * (v - r2)
            q = (v - s1) * (v - s2)
            res = resultant(p, q, "v").constant_value()
            expected = Fraction(
                (r1 - s1) * (r1 - s2) * (r2 - s1) * (r2 - s2)
            )
            assert res == expected
            assert (res == 0) == bool({r1, r2} & {s1, s2})

    def test_integrator_residual_on_fold_model(self):
        b = BDE(parse_poly("1"), parse_poly("0*y"), parse_poly("-1*y"))
        curve = integrate_field(b, (0.0, 0.25), slope=0.5, max_steps=2000)
        assert bde_residual(b, curve) < 1e-6

    def test_integrator_fourth_order_step_halving(self):
        b = BDE(parse_poly("1"), parse_poly("0*y"), parse_poly("-1*y"))
        coarse = integrate_field(b, (0.0, 0.25), slope=0.5, step=1e-3, max_steps=400)
        fine = integrate_field(b, (0.0, 0.25), slope=0.5, step=5e-4, max_steps=800)
        n = min(len(coarse), (len(fine) + 1) // 2)
        d = np.hypot(
            coarse[:n, 0] - fine[: 2 * n : 2, 0],
            coarse[:n, 1] - fine[: 2 * n : 2, 1],
        ).max()
        assert d < 10 * (1e-3) ** 2

    def test_flecnodal_figure_eight(self):
        s = flecnodal_system(family_library("Pi_v1++")).eliminant
        tc = trace_zero_set(
            s, (-0.5, 0.5, -0.5, 0.5), 192, params=(Fraction(-1, 20), 0)
        )
        assert [tag for _, tag in tc.special_points] == ["node"]
        node = tc.special_points[0][0]
        loops = [
            b
            for b in tc.branches
            if math.hypot(b[0][0] - node[0], b[0][1] - node[1]) < 1e-9
            and math.hypot(b[-1][0] - node[0], b[-1][1] - node[1]) < 1e-9
        ]
        assert tc.n_branches() == 2 and len(loops) == 2


# -- 8. qualitative panel checks ----------------------------------------------


class TestPanelChecks:
    def test_gauss_cusp_pair_creation_and_cancellation(self):
        fam = family_library("Pi_c2")
        assert len(gauss_cusps(fam, (Fraction(-1, 20), 0))) == 2
        assert len(gauss_cusps(fam, (Fraction(1, 20), 0))) == 0

    def test_degenerate_flat_umbilic_mirror_symmetric_fingerprints(self):
        fam = family_library("Pi_f2+")
        y = Poly.var("y", fam.f.varlist)
        mirrored = SurfaceFamily(f=substitute(fam.f, {"y": -y}), trunc_deg=fam.trunc_deg)
        comps = ("parabolic_singular", "gauss_cusps")
        for params in [(Fraction(-1, 100), Fraction(1, 5)), (Fraction(1, 50), Fraction(1, 5))]:
            assert fingerprint(fam, params, components=comps, grid=24) == fingerprint(
                mirrored, params, components=comps, grid=24
            )
