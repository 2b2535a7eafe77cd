from fractions import Fraction

import pytest

from mongebde.bde import BDE, asymptotic_bde, discriminant
from mongebde.errors import UsageError
from mongebde.families import (
    canonical_label,
    display_label,
    family_library,
    library_labels,
    surface,
)
from mongebde.poly import normalize_primitive, parse_poly


def norm(p):
    return normalize_primitive(p)


class TestAsymptoticBDE:
    def test_cuspidal_surface(self):
        b = asymptotic_bde(parse_poly("y^2 + x^3"))
        assert b.a.same_poly(parse_poly("2"))
        assert b.b.is_zero()
        assert b.c.same_poly(parse_poly("6*x"))

    def test_flat_umbilic_family(self):
        # x*y^2 + x^3 + a x^3 y + b y^4 + t x^2 with a, b symbolic moduli
        # fixed at a=3, b=12 to pin every second partial.
        f = parse_poly("x*y^2 + x^3 + 3*x^3*y + 12*y^4 + t*x^2")
        b = asymptotic_bde(f)
        assert b.a.same_poly(parse_poly("2*x + 144*y^2"))
        assert b.b.same_poly(parse_poly("2*y + 9*x^2"))
        assert b.c.same_poly(parse_poly("6*x + 18*x*y + 2*t"))

    def test_gauss_cusp_normal_form(self):
        b = asymptotic_bde(parse_poly("y^2 + x^2*y + 1/4*x^4"))
        assert b.a.same_poly(parse_poly("2"))
        assert b.b.same_poly(parse_poly("2*x"))
        assert b.c.same_poly(parse_poly("2*y + 3*x^2"))

    def test_all_zero_rejected(self):
        with pytest.raises(UsageError):
            BDE(*(parse_poly("0*x").extend(("x",)) for _ in range(3)))


class TestDiscriminant:
    def test_simple(self):
        b = asymptotic_bde(parse_poly("y^2 + x^3"))
        assert discriminant(b).same_poly(parse_poly("-12*x"))

    def test_morse_family(self):
        b = asymptotic_bde(parse_poly("y^2 + x^4 + x^2*y^2 + t*x^2"))
        expected = parse_poly("t + 6*x^2 + t*x^2 + y^2 + 6*x^4 + -3*x^2*y^2")
        assert norm(discriminant(b)) == norm(expected.extend(discriminant(b).varlist))

    def test_flat_umbilic_cusp_family(self):
        b = asymptotic_bde(parse_poly("x*y^2 + x^4 + y^4 + t*x^2 + u*x^3"))
        expected = parse_poly(
            "6*x^3 - y^2 + t*x + 3*u*x^2 + 6*t*y^2 + 18*u*x*y^2 + 36*x^2*y^2"
        )
        assert norm(discriminant(b)) == norm(expected.extend(discriminant(b).varlist))

    def test_hessian_identity_random(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                i, j = rng.randint(0, 3), rng.randint(0, 3)
                if i + j < 2:
                    continue
                terms[(i, j)] = Fraction(rng.randint(-5, 5))
            if not terms:
                continue
            from mongebde.poly import Poly

            f = Poly(("x", "y"), terms)
            if f.is_zero():
                continue
            b = asymptotic_bde(f)
            fxy = f.partial("x").partial("y")
            fxx = f.partial("x").partial("x")
            fyy = f.partial("y").partial("y")
            assert discriminant(b) == fxy * fxy - fxx * fyy


class TestFamilyLibrary:
    def test_pi_c2(self):
        fam = family_library("Pi_c2", {"alpha": 1})
        assert fam.f.same_poly(parse_poly("y^2 + x^2*y + 1/4*x^4 + x^5 + t*x^3"))
        assert [n for n in ("t", "u") if n in fam.f.varlist] == ["t"]

    def test_pi_v3(self):
        fam = family_library("Pi_v3", {"gamma": 1})
        assert fam.f.same_poly(parse_poly("y^2 + x^5 + x^3*y + t*x^2 + u*x^2*y"))

    def test_pi_f2_plus(self):
        fam = family_library("Pi_f2_plus")
        assert fam.f.same_poly(parse_poly("x*y^2 + x^4 + y^4 + t*x^2 + u*x^3"))

    def test_pi_v2_derived_quartic_term(self):
        fam = family_library("Pi_v2+", {"alpha": 2})
        assert fam.f.coefficient({"x": 2, "y": 2}) == Fraction(3, 2)

    def test_constraint_violation(self):
        with pytest.raises(UsageError):
            family_library("Pi_c2", {"alpha": 0})
        with pytest.raises(UsageError):
            family_library("Pi_v1++", {"alpha": 0, "beta": -1})

    def test_aliases_and_display(self):
        assert canonical_label("pi_v1_pp") == "Pi_v1++"
        assert display_label("Pi_v1++") == "Π_{v,1}(+,+)"
        assert display_label("Pi_c2") == "Π_{c,2}"
        assert display_label("Pi_f2+") == "Π_{f,2}(+)"

    def test_every_label_builds(self):
        for label in library_labels():
            fam = family_library(label)
            assert fam.label == label

    def test_surface_invariant_enforced(self):
        with pytest.raises(UsageError):
            surface("x + y^2")
