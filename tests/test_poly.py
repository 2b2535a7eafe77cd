from fractions import Fraction

import pytest

from mongebde.errors import UsageError
from mongebde.poly import (
    Poly,
    divexact,
    eta,
    format_poly,
    normalize_primitive,
    parse_poly,
    resultant,
    squarefree_part,
    substitute,
    unify,
)

x = parse_poly("x", ("x", "y"))
y = parse_poly("y", ("x", "y"))


def P(text, vars=None):
    return parse_poly(text, vars)


class TestArith:
    def test_additive_inverse(self):
        p = P("x^2", ("x", "y"))
        assert (p + (-p)).is_zero()
        assert (p + -p).terms == {}

    def test_multiplicative_identity(self):
        p = P("y^2 + x^3", ("x", "y"))
        one = Poly.const(1, ("x", "y"))
        assert p * one == p

    def test_binomial_square(self):
        assert (x + y) ** 2 == P("x^2 + 2*x*y + y^2", ("x", "y"))

    def test_mismatched_varlists_rejected(self):
        with pytest.raises(UsageError):
            P("x", ("x",)) + P("y", ("y",))

    def test_unify(self):
        a, b = unify(P("x", ("x",)), P("y", ("y",)))
        assert a.varlist == b.varlist == ("x", "y")
        assert (a + b) == P("x + y", ("x", "y"))


class TestPartial:
    def test_power_rule(self):
        p = P("y^2 + x^3", ("x", "y"))
        assert p.partial("x") == P("3*x^2", ("x", "y"))
        assert p.partial("y") == P("2*y", ("x", "y"))

    def test_second_partial(self):
        p = P("x*y^2", ("x", "y"))
        assert p.partial("y").partial("y") == P("2*x", ("x", "y"))

    def test_unknown_variable(self):
        with pytest.raises(UsageError):
            P("x", ("x",)).partial("y")


class TestEta:
    def test_contour_function_of_cusp_surface(self):
        # f = y^2 + x^3, contour determinant w - f_x - v f_y = w - 3x^2 - 2vy
        lam = P("w + -3*x^2 + -2*v*y", ("x", "y", "v", "w"))
        assert eta(lam) == P("-6*x + -2*v^2", ("x", "y", "v", "w"))
        assert eta(eta(lam)) == Poly.const(-6, ("x", "y", "v", "w"))

    def test_constant(self):
        assert eta(Poly.const(5, ("x", "y", "v"))).is_zero()

    def test_missing_variable(self):
        with pytest.raises(UsageError):
            eta(P("x + y", ("x", "y")))


class TestSubstitute:
    def test_square_completion_shift(self):
        p = P("y^2", ("x", "y"))
        shift = P("-1/2*x^2 - y", ("x", "y"))
        assert substitute(p, {"y": shift}) == P("1/4*x^4 + x^2*y + y^2", ("x", "y"))

    def test_zero_binding(self):
        p = P("x + y", ("x", "y"))
        z = Poly.zero(("x", "y"))
        assert substitute(p, {"x": z, "y": z}).is_zero()

    def test_truncated_shift(self):
        # Grading counts only x; t has weight 0, so x^2 terms survive at
        # trunc_deg=2 and only the x^3 term is dropped.
        p = P("x^3", ("x",))
        out = substitute(p, {"x": P("x + t", ("x", "t"))}, trunc_deg=2)
        assert out == P("t^3 + 3*t^2*x + 3*t*x^2", ("x", "t"))

    def test_composition_matches_rational_eval(self):
        p = P("x^2*y + 3*y^2 + -1/2*x", ("x", "y"))
        q = substitute(p, {"x": P("x + 2*y", ("x", "y")), "y": P("x*y", ("x", "y"))})
        for xv, yv in [(1, 2), (-3, Fraction(1, 2)), (0, 5)]:
            direct = p.eval_rational({"x": xv + 2 * yv, "y": xv * yv})
            assert q.eval_rational({"x": xv, "y": yv}) == direct


class TestResultant:
    def test_constant_second_operand(self):
        p = P("-6*x + -2*v^2", ("x", "v"))
        q = Poly.const(-6, ("x", "v"))
        assert resultant(p, q, "v") == Poly.const(36, ("x",))

    def test_linear_elimination(self):
        p = parse_poly("v + -1*x", ("x", "v"))
        q = parse_poly("v + -1*y", ("y", "v"))
        r = resultant(*unify(p, q), "v")
        assert normalize_primitive(r) == normalize_primitive(P("y + -1*x", ("x", "y")))

    def test_both_constant_rejected(self):
        with pytest.raises(UsageError):
            resultant(Poly.const(1, ("v",)), Poly.const(2, ("v",)), "v")

    def test_shared_factor_kills_resultant(self):
        # (v - x)(v - 1) and (v - x)(v + 2) share the factor v - x.
        a = P("v^2 + -1*v*x + -1*v + x", ("x", "v"))
        b = P("v^2 + -1*v*x + 2*v + -2*x", ("x", "v"))
        assert resultant(a, b, "v").is_zero()

    @pytest.mark.parametrize("surface", ["y^2 + x^3", "x*y^2 + x^3"])
    def test_formal_degrees(self, surface):
        # The x-chart contact forms p = -(c + 2b v + a v^2) and q = eta(p):
        # q's v^3 coefficient f_yyy vanishes, and with it the lower ones
        # for y^2 + x^3.  The Sylvester matrix of the formal degrees (2, 3)
        # gains a factor lc_v(p) per missing degree.
        f = P(surface, ("x", "y", "v"))
        fxx, fxy, fyy = (f.partial(a).partial(b) for a, b in ("xx", "xy", "yy"))
        v = Poly.var("v", f.varlist)
        p = -(fxx + fxy.scale(2) * v + fyy * v * v)
        q = eta(p)
        assert q.degree("v") < 3
        want = p.coeffs_in("v")[2] ** (3 - q.degree("v")) * resultant(p, q, "v")
        assert resultant(p, q, "v", degrees=(2, 3)) in (want, -want)

    def test_formal_degrees_at_the_actual_degrees(self):
        a = P("v^2 + -1*x", ("x", "v"))
        b = P("x*v^3 + v + -1", ("x", "v"))
        assert resultant(a, b, "v", degrees=(2, 3)) == resultant(a, b, "v")
        assert resultant(b, a, "v", degrees=(3, 2)) == resultant(b, a, "v")

    def test_formal_degrees_below_the_actual_ones_rejected(self):
        a = P("v^2 + -1*x", ("x", "v"))
        b = P("x*v^3 + v + -1", ("x", "v"))
        for degrees in ((1, 3), (2, 2), (0, 0)):
            with pytest.raises(UsageError):
                resultant(a, b, "v", degrees=degrees)

    def test_point_roots(self):
        # v^2 - x and v - 1 share a root in v exactly where x = 1.
        a = P("v^2 + -1*x", ("x", "v"))
        b = P("v + -1", ("x", "v"))
        r = resultant(a, b, "v")
        assert r.eval_rational({"x": 1}) == 0
        assert r.eval_rational({"x": 2}) != 0


class TestNormalizePrimitive:
    def test_content_and_sign(self):
        p = P("-4*y^2 + 24*x^3", ("x", "y"))
        assert normalize_primitive(p) == P("6*x^3 + -1*y^2", ("x", "y"))

    def test_idempotent(self):
        p = P("6*x^3 + -1*y^2", ("x", "y"))
        assert normalize_primitive(normalize_primitive(p)) == normalize_primitive(p)

    def test_rational_scalar(self):
        assert normalize_primitive(P("1/2*x", ("x",))) == P("x", ("x",))

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            normalize_primitive(Poly.zero(("x",)))


class TestDivision:
    def test_exact(self):
        p = P("x^2 + -1*y^2", ("x", "y"))
        d = P("x + y", ("x", "y"))
        assert divexact(p, d) == P("x + -1*y", ("x", "y"))

    def test_inexact_rejected(self):
        with pytest.raises(UsageError):
            divexact(P("x^2 + 1", ("x",)), P("x + 1", ("x",)))

    def test_rational_quotient(self):
        p = P("x^2*y + -1/4*y", ("x", "y"))
        d = P("2*x + 1", ("x", "y"))
        assert divexact(p, d) == P("1/2*x*y + -1/4*y", ("x", "y"))

    def test_inexact_coefficient_rejected(self):
        # The leading exponents divide, the leading coefficients do not.
        with pytest.raises(UsageError, match="inexact"):
            divexact(P("x", ("x",)), P("2*x + 1", ("x",)))

    def test_inexact_with_growing_remainder_rejected(self):
        # x^2 = (x + y^2)(x - y^2) + y^4: the remainder's y-degree rises.
        with pytest.raises(UsageError, match="inexact"):
            divexact(P("x^2", ("x", "y")), P("x + y^2", ("x", "y")))

    def test_squarefree_part(self):
        p = P("x^2 + 2*x*y + y^2", ("x", "y")) * P("x", ("x", "y"))
        sf = squarefree_part(p, "x")
        assert normalize_primitive(sf) == normalize_primitive(
            P("x^2 + x*y", ("x", "y"))
        )


class TestGrammar:
    def test_round_trip(self):
        texts = [
            "y^2 + x^3",
            "-3/2*x^2*y + t",
            "t + 6*x^2 + t*x^2 + y^2 + 6*x^4 + -3*x^2*y^2",
            "0",
        ]
        for text in texts:
            p = parse_poly(text) if text != "0" else Poly.zero(("x",))
            assert parse_poly(format_poly(p), p.varlist) == p if text != "0" else True

    def test_printer_output_reparses_bit_exactly(self):
        p = P("6*x^3 - y^2 + t*x + 3*u*x^2 + 6*t*y^2 + 18*u*x*y^2 + 36*x^2*y^2")
        assert parse_poly(format_poly(p), p.varlist) == p

    def test_minus_separated_terms(self):
        assert P("x - y", ("x", "y")) == P("x + -1*y", ("x", "y"))

    def test_bad_input(self):
        with pytest.raises(UsageError):
            parse_poly("x + 3z")
        with pytest.raises(UsageError, match="zero denominator"):
            parse_poly("1/0*x^2")
