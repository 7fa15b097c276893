from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bassinv.errors import PolynomialSyntaxError, UnknownVariableError
from bassinv.polynomials import (Polynomial, WeightSystem, euler_identity_check,
                                 find_weights, parse, partial_derivative,
                                 substitute_parameter)

from conftest import VARS, poly


class TestParse:
    def test_paper_polynomial(self):
        f = poly("z^2 + y^3 + x^10")
        assert len(f.term_map()) == 3
        assert f.term_map()[(10, 0, 0)] == 1

    def test_zero(self):
        assert poly("0").is_zero()

    def test_family_with_parameter(self):
        f = parse("z^2+y^3+x^10+t*x^7*y", VARS + ("t",))
        assert f.variables == ("x", "y", "z", "t")
        assert len(f.term_map()) == 4
        assert f.term_map()[(7, 1, 0, 1)] == 1
        assert str(f) == "x^10 + x^7*y*t + y^3 + z^2"

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError):
            parse("x+y", ("x", "y", "x"))

    def test_rational_coefficient(self):
        f = poly("1/2*x^7*y")
        assert f.term_map()[(7, 1, 0)] == Fraction(1, 2)

    def test_implicit_multiplication(self):
        assert poly("2x y^2") == poly("2*x*y^2")
        assert poly("3(x+y)") == poly("3*x+3*y")

    def test_unary_minus_and_parens(self):
        f = poly("(x-1)^2+y^2+z^2")
        assert f.term_map()[(0, 0, 0)] == 1
        assert f.term_map()[(1, 0, 0)] == -2

    def test_cancellation_drops_terms(self):
        assert poly("x - x + y") == poly("y")

    def test_syntax_error_has_position(self):
        with pytest.raises(PolynomialSyntaxError) as exc:
            poly("x^2 + @")
        assert exc.value.position == 6

    def test_double_caret_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            poly("z^^2")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            poly("x + w")

    def test_parameter_requires_declaration(self):
        with pytest.raises(UnknownVariableError):
            poly("x + t*y")

    def test_division_of_variables_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            poly("x/2")

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            poly("x^-2")


# random small polynomials for the algebra laws
coeffs = st.integers(-9, 9).map(Fraction) | st.fractions(
    min_value=-3, max_value=3, max_denominator=6)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: Polynomial(d, VARS))


class TestRingLaws:
    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_distributive(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, f, g):
        assert f * g == g * f
        assert f + g == g + f

    @given(polys, polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(polys)
    @settings(max_examples=100, deadline=None)
    def test_parse_print_roundtrip(self, f):
        assert parse(str(f), VARS) == f


class TestDerivative:
    def test_power_rule(self):
        assert partial_derivative(poly("z^2+y^3+x^10"), 2) == poly("2z")
        assert partial_derivative(poly("z^2+y^3+x^10+x^7*y"), 0) == \
            poly("10x^9 + 7x^6*y")

    def test_constant(self):
        assert partial_derivative(poly("5"), 1).is_zero()

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, f, g):
        for i in range(3):
            lhs = partial_derivative(f * g, i)
            rhs = partial_derivative(f, i) * g + f * partial_derivative(g, i)
            assert lhs == rhs

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_linear(self, f, g):
        for i in range(3):
            assert partial_derivative(f + g * 3, i) == \
                partial_derivative(f, i) + partial_derivative(g, i) * 3


class TestSubstituteParameter:
    def setup_method(self):
        self.family = parse("z^2+y^3+x^10+t*x^7*y", VARS + ("t",))

    def test_at_one(self):
        assert substitute_parameter(self.family, "t", 1) == \
            poly("z^2+y^3+x^10+x^7*y")

    def test_at_zero(self):
        assert substitute_parameter(self.family, "t", 0) == poly("z^2+y^3+x^10")

    def test_at_half(self):
        assert substitute_parameter(self.family, "t", Fraction(1, 2)) == \
            poly("z^2+y^3+x^10+1/2*x^7*y")

    def test_parameter_free_unchanged(self):
        f = parse("x^2", VARS + ("t",))
        assert substitute_parameter(f, "t", 7) == poly("x^2")

    def test_higher_power_of_parameter(self):
        f = parse("t^2*x + t*y + z", VARS + ("t",))
        assert substitute_parameter(f, "t", 3) == poly("9x + 3y + z")

    def test_middle_variable(self):
        f = parse("x*s^2 + s*z - y^3", ("x", "s", "y", "z"))
        assert substitute_parameter(f, "s", -2) == poly("4x - 2z - y^3")

    def test_cancelling_terms_vanish(self):
        f = parse("t*x - x + y", VARS + ("t",))
        assert substitute_parameter(f, "t", 1) == poly("y")


class TestWeights:
    def test_paper_weights(self):
        ws = find_weights(poly("z^2+y^3+x^10"))
        assert ws == WeightSystem((3, 10, 15), 30)

    def test_deformed_fiber_has_none(self):
        # x^7 y would need weighted degree 7*3+10 = 31 != 30
        assert find_weights(poly("z^2+y^3+x^10+x^7*y")) is None

    def test_single_variable(self):
        f = parse("x", ("x",))
        assert find_weights(f) == WeightSystem((1,), 1)

    def test_constant_has_none(self):
        assert find_weights(poly("7")) is None
        assert find_weights(poly("x + 1")) is None

    def test_underdetermined_system(self):
        ws = find_weights(poly("x*y + z"))
        assert ws is not None
        assert euler_identity_check(poly("x*y + z"), ws)

    @pytest.mark.parametrize("a", range(2, 7))
    @pytest.mark.parametrize("b", range(2, 7))
    @pytest.mark.parametrize("c", range(2, 7))
    def test_brieskorn_pham_closed_form(self, a, b, c):
        from math import gcd
        f = poly(f"x^{a}+y^{b}+z^{c}")
        ws = find_weights(f)
        g = gcd(gcd(b * c, a * c), a * b)
        assert ws == WeightSystem((b * c // g, a * c // g, a * b // g),
                                  a * b * c // g)
        assert euler_identity_check(f, ws)

    def test_euler_identity_paper_example(self):
        assert euler_identity_check(poly("z^2+y^3+x^10"),
                                    WeightSystem((3, 10, 15), 30))

    def test_euler_identity_fails_for_forced_weights(self):
        assert not euler_identity_check(poly("z^2+y^3+x^10+x^7*y"),
                                        WeightSystem((3, 10, 15), 30))

    def test_euler_identity_trivial(self):
        f = parse("x^2", ("x",))
        assert euler_identity_check(f, WeightSystem((1,), 2))

    def test_found_weights_always_pass_euler(self, corpus_polys):
        for f in corpus_polys:
            ws = find_weights(f)
            if ws is not None:
                assert euler_identity_check(f, ws)

    def test_weight_system_validation(self):
        with pytest.raises(ValueError):
            WeightSystem((2, 4, 6), 12)  # gcd 2
        with pytest.raises(ValueError):
            WeightSystem((1, -1, 1), 3)
        with pytest.raises(ValueError):
            WeightSystem((1, 1, 1), 0)
