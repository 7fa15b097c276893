from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bassinv.errors import PolynomialSyntaxError, UnknownVariableError
from bassinv.polynomials import (Polynomial, WeightSystem,
                                 _difference_nullspace, euler_identity_check,
                                 find_weights, linear_jacobian_multipliers,
                                 parse, partial_derivative, scaling_weights,
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


def _evaluate(f, point):
    total = Fraction(0)
    for exp, c in f.term_map().items():
        term = Fraction(c)
        for value, e in zip(point, exp):
            term *= Fraction(value) ** e
        total += term
    return total


class TestScalingWeights:
    FAMILY_VARS = VARS + ("t",)

    @pytest.mark.parametrize("text", [
        "z^2+y^3+x^10+t*x^7*y",
        "x^2+y^3+t*z^5",
        "x^2+y^3+t*z^7+z^5",
        "x+t*y^2",
        "x^2+y^2+t*z^2",
        "t^3*x^2 - 5/2*t*y + z^4*t^2",
    ])
    def test_every_term_has_one_degree(self, text):
        f = parse(text, self.FAMILY_VARS)
        w = scaling_weights(f, "t")
        assert w is not None and w[-1] != 0
        assert gcd(*w) == 1 and next(x for x in w if x) > 0
        # f(lam^w * p) = lam^D f(p), checked by evaluation at sample points
        exp = next(iter(f.term_map()))
        degree = sum(a * b for a, b in zip(w, exp))
        for lam in (Fraction(2), Fraction(-1, 3)):
            for point in ((1, 2, 3, 5), (Fraction(-1, 2), 7, 1, -3)):
                scaled = [lam ** wi * v for wi, v in zip(w, point)]
                assert _evaluate(f, scaled) == lam ** degree * _evaluate(f,
                                                                         point)

    def test_wahl_family(self):
        f = parse("z^2+y^3+x^10+t*x^7*y", self.FAMILY_VARS)
        assert scaling_weights(f, "t") == (3, 10, 15, -1)

    def test_parameter_in_any_slot(self):
        f = parse("z^2+y^3+x^10+t*x^7*y", ("t",) + VARS)
        assert scaling_weights(f, "t") == (1, -3, -10, -15)

    @pytest.mark.parametrize("text", [
        "x^3+y^3+z^3+t*x*y*z",              # t needs weight 0
        "z^2+y^3+x^10+t*x^7*y+t^2*x^8",     # t^2*x^8 has degree 22, not 30
        "x^2+y^3+z^5+t*z^5",                # z^5 and t*z^5 share (x,y,z)
        "x^2+t*y^3+t^2*y^3+z^4",            # t*y^3 and t^2*y^3 likewise
    ])
    def test_none(self, text):
        assert scaling_weights(parse(text, self.FAMILY_VARS), "t") is None


def _rank(rows):
    """Rank over Q by plain Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] / rows[rank][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def exponent_sets(draw):
    """(n, distinct exponent vectors of length n), n from 1 to 5."""
    n = draw(st.integers(1, 5))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1,
                         max_size=8, unique=True))
    return n, exps


class TestDifferenceNullspace:
    @given(exponent_sets())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_basis_of_the_orthogonal_complement(self, case):
        n, exps = case
        basis = _difference_nullspace(exps, n)
        diffs = [[a - b for a, b in zip(e, exps[0])] for e in exps[1:]]
        for vec in basis:
            assert len(vec) == n
            for d in diffs:
                assert sum(v * x for v, x in zip(vec, d)) == 0
        assert _rank(basis) == len(basis)  # independent
        assert len(basis) == n - _rank(diffs)


def _multiplier_sum(f, m):
    """sum_ij m[i][j] x_j df/dx_i, by Polynomial arithmetic alone."""
    coords = [Polynomial.variable(v, f.variables) for v in f.variables]
    n = len(coords)
    return sum((m[i][j] * coords[j] * partial_derivative(f, i)
                for i in range(n) for j in range(n)),
               Polynomial.zero(f.variables))


@st.composite
def small_polynomials(draw):
    """1 to 5 terms in x, y, z with exponents 0..4 and nonzero coefficients
    in [-3, 3] of denominator at most 2."""
    exps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1,
                         max_size=5, unique=True))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    return Polynomial({e: draw(coeffs.filter(bool)) for e in exps}, VARS)


class TestLinearJacobianMultipliers:
    def test_euler_matrix_of_the_graded_fiber(self):
        assert linear_jacobian_multipliers(poly("z^2+y^3+x^10")) == [
            [Fraction(1, 10), 0, 0], [0, Fraction(1, 3), 0],
            [0, 0, Fraction(1, 2)]]

    @pytest.mark.parametrize("text", ["(x+y)^2+z^3+y^5",
                                      "1/2*x^2+2/3*(y+z)^3+z^4",
                                      "(x-y)^2*z^2"])
    def test_linear_changes(self, text):
        f = poly(text)
        m = linear_jacobian_multipliers(f)
        assert m is not None and _multiplier_sum(f, m) == f

    @pytest.mark.parametrize("text", ["z^2+y^3+x^10+x^7*y", "x^2+y^2+z^2-x^3",
                                      "(x+y^2)^2+y^3+z^5", "7", "x+1"])
    def test_none(self, text):
        assert linear_jacobian_multipliers(poly(text)) is None

    def test_single_variable(self):
        assert linear_jacobian_multipliers(parse("x^3", ("x",))) == \
            [[Fraction(1, 3)]]
        assert linear_jacobian_multipliers(parse("x^3+x^4", ("x",))) is None

    @given(small_polynomials())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_returned_matrix_satisfies_the_identity(self, f):
        m = linear_jacobian_multipliers(f)
        if m is not None:
            assert _multiplier_sum(f, m) == f
        if find_weights(f) is not None:
            assert m is not None  # Euler's identity gives one
