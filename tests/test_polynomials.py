import time
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from bassinv import polynomials
from bassinv.errors import PolynomialSyntaxError, UnknownVariableError
from bassinv.polynomials import (Polynomial, WeightSystem,
                                 _difference_nullspace, _positive_point,
                                 find_weights, linear_jacobian_multipliers,
                                 parse, partial_derivative,
                                 positive_rational_eigenvalues,
                                 scaling_weights, substitute_parameter)

from conftest import VARS, poly, reference_key


# a valid 200-term prefix, so that an error position is found past it
_PREFIX = " + ".join(f"{k}*x^{k}*y" for k in range(1, 201))


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

    def test_terms_descend_in_grevlex(self):
        box = list(product(range(4), repeat=3))
        f = Polynomial({e: 1 for e in box}, VARS)
        assert [e for e, _ in f.terms()] == sorted(
            box, key=lambda e: reference_key(e, "grevlex", None), reverse=True)

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

    @pytest.mark.parametrize("text, error, message, position", [
        ("x +  $y", PolynomialSyntaxError,
         "syntax error at position 5: unexpected character '$'", 5),
        ("x^2   @  ", PolynomialSyntaxError,
         "syntax error at position 6: unexpected character '@'", 6),
        ("x^2.5", PolynomialSyntaxError,
         "syntax error at position 3: unexpected character '.'", 3),
        ("x +   ", PolynomialSyntaxError,
         "syntax error at position 6: unexpected None", 6),
        ("   ", PolynomialSyntaxError,
         "syntax error at position 3: unexpected None", 3),
        ("x^", PolynomialSyntaxError, "syntax error at position 2: "
         "expected a non-negative integer exponent", 2),
        ("1/0", PolynomialSyntaxError,
         "syntax error at position 2: zero denominator", 2),
        ("x^-1", PolynomialSyntaxError, "syntax error at position 2: "
         "expected a non-negative integer exponent", 2),
        ("x**2", PolynomialSyntaxError,
         "syntax error at position 2: unexpected '*'", 2),
        ("2/3/4", PolynomialSyntaxError,
         "syntax error at position 3: unexpected '/'", 3),
        ("x + w", UnknownVariableError, "unknown variable 'w' at position 4",
         None),
        ("(x+y", PolynomialSyntaxError,
         "syntax error at position 4: expected ')'", 4),
        ("1/x", PolynomialSyntaxError,
         "syntax error at position 2: expected integer denominator", 2),
        ("2^3^2", PolynomialSyntaxError,
         "syntax error at position 3: unexpected '^'", 3),
        ("x^y", PolynomialSyntaxError, "syntax error at position 2: "
         "expected a non-negative integer exponent", 2),
        ("(x+w)^2", UnknownVariableError,
         "unknown variable 'w' at position 3", None),
        pytest.param(_PREFIX + " + $", PolynomialSyntaxError,
                     f"syntax error at position {len(_PREFIX) + 3}: "
                     f"unexpected character '$'", len(_PREFIX) + 3,
                     id="stray-after-200-terms"),
        # numbers are ASCII digits, like names: an Arabic-Indic three is
        # a stray character, not the int 3
        ("x^\u0663+y^3+z^3", PolynomialSyntaxError,
         "syntax error at position 2: unexpected character '\u0663'", 2),
    ])
    def test_malformed_inputs(self, text, error, message, position):
        with pytest.raises(error) as exc:
            poly(text)
        assert type(exc.value) is error and str(exc.value) == message
        assert getattr(exc.value, "position", None) == position

    @pytest.mark.parametrize("text", ["x + y   ", "\tx + y\n", " x+y"])
    def test_surrounding_whitespace_accepted(self, text):
        assert poly(text) == poly("x+y")

    def test_power_of_a_single_term(self):
        assert poly("(2/3*x*y^2)^3") == poly("8/27*x^3*y^6")
        assert poly("(-x)^0") == poly("1")
        assert poly("0^0") == poly("1") and poly("0^2").is_zero()

    def test_literal_past_the_digit_limit(self, default_digit_limit):
        # CPython's default limit refuses int() of more than 4300 digits
        f = parse("1" * 5000 + "*x", ("x",))
        assert f.term_map() == {(1,): Fraction((10 ** 5000 - 1) // 9)}
        g = parse("1/" + "3" * 4400 + "*x^" + "7" * 4301 + "+y", ("x", "y"))
        assert parse(str(g), ("x", "y")) == g

    def test_constant_power_past_the_bit_bound(self, default_digit_limit):
        # 5000 digits to the power of a 5000-digit number: refused before
        # the power is computed, at the exponent
        text = "1" * 5000 + "^" + "1" * 5000
        t0 = time.perf_counter()
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse(text, ("x",))
        assert time.perf_counter() - t0 < 1.0
        assert exc.value.position == 5001
        # 2^(2^19) has 2^19 + 1 bits, bounded by 2 * 2^19; one more is not
        bound = polynomials._MAX_POWER_BITS
        assert poly(f"2^{bound // 2}*x") == poly("x") * 2 ** (bound // 2)
        for text in (f"2^{bound // 2 + 1}*x", f"(1/2*x)^{bound // 2 + 1}"):
            with pytest.raises(PolynomialSyntaxError, match="exceeds"):
                poly(text)

    def test_unit_and_small_constant_powers_parse(self, default_digit_limit):
        assert poly("2^20000*x^2+y^2+z^2").term_map()[(2, 0, 0)] == 2 ** 20000
        assert poly("1^" + "1" * 5000 + "*x") == poly("x")
        assert poly("(-1)^" + "1" * 5000 + "*x") == poly("-x")

    @pytest.mark.parametrize("text", ["(x+1)^4000+y^2+z^2",
                                      "(x+1)^" + "9" * 5000])
    def test_sum_power_past_the_expansion_bound(self, text):
        t0 = time.perf_counter()
        with pytest.raises(PolynomialSyntaxError, match="expanded power") \
                as exc:
            poly(text)
        assert time.perf_counter() - t0 < 1.0
        assert exc.value.position == 6

    def test_expansion_bound_edge(self):
        # (x+1)^n has n + 1 terms of at most n bits each (estimated)
        bound = polynomials._MAX_EXPANSION_BITS
        n = max(k for k in range(1, bound) if k * (k + 1) <= bound)
        assert poly(f"(x+1)^{n}").term_map()[(n // 2, 0, 0)] == \
            Fraction(comb(n, n // 2))
        with pytest.raises(PolynomialSyntaxError, match="expanded power"):
            poly(f"(x+1)^{n + 1}")
        # the denominators count: the coefficients of (x/7+y/11)^v are
        # N/77^v, of about 7v bits, where 7 + 11 = 18 alone gives 5v
        assert len(poly("(1/7*x+1/11*y)^90").term_map()) == 91
        with pytest.raises(PolynomialSyntaxError, match="expanded power"):
            poly("(1/7*x+1/11*y)^100")


def _term_text(c, exp, rng):
    """c*x^a*y^b*z^c spelled out by hand, with a leading sign; a unit
    coefficient is left out, and x^1 is sometimes written x."""
    factors = [name if e == 1 and rng.random() < 0.5 else f"{name}^{e}"
               for name, e in zip(VARS, exp) if e]
    if abs(c) != 1 or not factors:
        factors.insert(0, str(abs(c)))
    return ("- " if c < 0 else "+ ") + rng.choice(["*", " "]).join(factors)


class TestConstructorAndParserOracle:
    @given(st.lists(st.tuples(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        st.integers(-2 ** 80, 2 ** 80).map(Fraction)
        | st.fractions(-2 ** 80, 2 ** 80, max_denominator=2 ** 40)),
        max_size=8), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_parse_of_term_text_equals_constructor(self, pairs, rng):
        text = " ".join(_term_text(c, e, rng) for e, c in pairs if c) or "0"
        assert parse(text, VARS) == Polynomial(pairs, VARS)

    def test_repeated_and_cancelling_exponents(self):
        f = Polynomial([((1, 0), 1), ((0, 1), 2), ((1, 0), -1),
                        ((0, 1), "1/2"), ((1, 0), Fraction(3, 4))], ("x", "y"))
        assert f.term_map() == {(0, 1): Fraction(5, 2), (1, 0): Fraction(3, 4)}
        assert Polynomial([((1, 0), 1), ((1, 0), -1)], ("x", "y")).is_zero()
        assert Polynomial({(1, 2): 0}, ("x", "y")).is_zero()

    @pytest.mark.parametrize("coeff", [3, Fraction(3), "3", "6/2", "3.0"])
    def test_coefficient_types(self, coeff):
        f = Polynomial([([1, 0], coeff)], ("x", "y"))
        (c,) = f.term_map().values()
        assert type(c) is Fraction and c == 3
        assert f == Polynomial({(1, 0): Fraction(3)}, ("x", "y"))

    @pytest.mark.parametrize("terms, message", [
        ([((1,), 1)], "exponent width 1 != 2"),
        ([((1, 0, 0), 1)], "exponent width 3 != 2"),
        ([((-1, 0), 1)], "negative exponent"),
        ([((2, 0), 0), ((0, -3), 0)], "negative exponent"),
        ([((1, 0), "abc")], "Invalid literal for Fraction: 'abc'"),
    ])
    def test_rejected_terms(self, terms, message):
        with pytest.raises(ValueError) as exc:
            Polynomial(terms, ("x", "y"))
        assert str(exc.value) == message


# -- a grammar oracle: expression trees rendered as text and evaluated with
# Fraction, sharing no code with the parser.  A tree is ("num", q),
# ("var", name), ("pow", base, k) or ("sum", [(sign, [factor, ...]), ...]).

_SPACES = st.sampled_from(["", " ", "  ", "\t"])
# an implicit product needs whitespace: "2 3" is 6, "23" is 23
_PRODUCT = st.sampled_from(["*", " * ", " ", "\t", "  "])


@st.composite
def _factors(draw, depth):
    """(text, tree) of a factor.  A parenthesised sum with a power holds
    atoms only, which keeps every expansion under the parser's size bound;
    parentheses nest two deep."""
    sp = lambda: draw(_SPACES)  # noqa: E731
    kind = draw(st.sampled_from(("int", "frac", "var", "paren")
                                if depth < 2 else ("int", "frac", "var")))
    if kind == "frac":
        a, b = draw(st.integers(0, 12)), draw(st.integers(1, 12))
        return f"{a}{sp()}/{sp()}{b}", ("num", Fraction(a, b))
    if kind == "int":
        n = draw(st.integers(0, 12))
        text, tree = str(n), ("num", Fraction(n))
    elif kind == "var":
        name = draw(st.sampled_from(VARS))
        text, tree = name, ("var", name)
    else:
        powered = draw(st.booleans())
        inner, sub = draw(_sums(depth + 1, atoms_only=powered))
        text = f"({sp()}{inner}{sp()})"
        if powered:
            k = draw(st.integers(0, 3))
            return f"{text}{sp()}^{sp()}{k}", ("pow", ("sum", sub), k)
        return text, ("sum", sub)
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        return f"{text}{sp()}^{sp()}{k}", ("pow", tree, k)
    return text, tree


@st.composite
def _sums(draw, depth=0, atoms_only=False):
    """(text, terms) of a sum with an optional leading sign."""
    most = 3 if depth == 0 else 2
    parts, terms = [], []
    for i in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(("", "+", "-") if i == 0 else ("+", "-")))
        body, factors = "", []
        for j in range(draw(st.integers(1, most))):
            text, tree = draw(_factors(2 if atoms_only else depth))
            body += (draw(_PRODUCT) if j else "") + text
            factors.append(tree)
        parts.append(f"{sign}{draw(_SPACES)}{body}{draw(_SPACES)}")
        terms.append((sign, factors))
    return "".join(parts), terms


def _value(tree, point):
    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "var":
        return point[VARS.index(tree[1])]
    if kind == "pow":
        return _value(tree[1], point) ** tree[2]
    total = Fraction(0)
    for sign, factors in tree[1]:
        v = Fraction(-1 if sign == "-" else 1)
        for factor in factors:
            v *= _value(factor, point)
        total += v
    return total


def _evaluate(f, point):
    total = Fraction(0)
    for exp, c in f.term_map().items():
        for x, e in zip(point, exp):
            c *= x ** e
        total += c
    return total


_points = st.tuples(*[st.fractions(-3, 3, max_denominator=5)] * 3)


class TestGrammarOracle:
    @given(_sums(), st.lists(_points, min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_parse_evaluates_like_the_tree(self, drawn, points):
        text, terms = drawn
        f = parse(text, VARS)
        for point in points:
            assert _evaluate(f, point) == _value(("sum", terms), point)
        assert parse(str(f), VARS) == f

    def test_monomial_terms_make_no_products(self, monkeypatch):
        calls = []
        times = polynomials._times

        def counted(a, b):
            calls.append(1)
            return times(a, b)

        # x^4+y^5+z^6 after x, y, z -> x+y+z, x-y+z, x+y-z: 64 terms
        text = str(poly("(x+y+z)^4+(x-y+z)^5+(x+y-z)^6"))
        monkeypatch.setattr(polynomials, "_times", counted)
        assert len(poly(text).term_map()) == 64
        assert len(calls) == 0
        assert poly("(x+y)*(x-y)") == poly("x^2-y^2")
        assert len(calls) <= 2  # one per parenthesised factor


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


def _meets_the_contract(p):
    """Whether p's terms are what Polynomial(...) would have built: tuple
    exponents of the ring's width, entries >= 0, nonzero Fractions."""
    width = len(p.variables)
    return (type(p.variables) is tuple
            and all(type(e) is tuple and len(e) == width and min(e) >= 0
                    and type(c) is Fraction and c
                    for e, c in p.term_map().items())
            and p == Polynomial(p.term_map(), p.variables))


class TestTrustedConstructions:
    @given(polys, polys, st.integers(0, 3), coeffs)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_results_meet_the_contract(self, f, g, n, value):
        results = [f + g, f - g, -f, f * g, f * 0, 0 * f, f * value, f ** n,
                   parse(str(f), VARS), substitute_parameter(f, "y", value)]
        results += [partial_derivative(f, i) for i in range(3)]
        assert all(map(_meets_the_contract, results))
        assert (f * 0).is_zero() and (f - f).is_zero()

    @pytest.mark.parametrize("make", [lambda: poly("x^2+3*y"),
                                      lambda: poly("x") * poly("y+1")],
                             ids=["checked", "trusted"])
    def test_immutable(self, make):
        # a Polynomial hashes its terms, so neither slot may change
        p = make()
        before = hash(p)
        for name in ("_terms", "variables", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, {})
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert hash(p) == before and p in {p} and p == make()


class TestDerivative:
    def test_power_rule(self):
        assert partial_derivative(poly("z^2+y^3+x^10"), 2) == poly("2z")
        assert partial_derivative(poly("z^2+y^3+x^10+x^7*y"), 0) == \
            poly("10x^9 + 7x^6*y")

    def test_constant(self):
        assert partial_derivative(poly("5"), 1).is_zero()

    def test_rational_terms(self):
        f = poly("(1/6)*x^3 + 2/3*x*y^2 - 5/4*y")
        assert partial_derivative(f, 0) == poly("(1/2)*x^2 + 2/3*y^2")
        assert partial_derivative(f, 1) == poly("4/3*x*y - 5/4")
        assert partial_derivative(poly("(1/6)*x^3"), 0).term_map() == {
            (2, 0, 0): Fraction(1, 2)}

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
        f = poly("x*y + z")
        ws = find_weights(f)
        assert ws is not None
        assert all(ws.weighted_degree(e) == ws.degree for e in f.exponents())
        # two-dimensional weight cones: the point _positive_point picks in
        # the cone decides the printed weights
        for text, weights, degree in (("x*y+z^2", (4, 2, 3), 6),
                                      ("x^2*y^3+z^5", (25, 10, 16), 80),
                                      ("x*y^2+z^3", (9, 3, 5), 15)):
            assert find_weights(poly(text)) == WeightSystem(weights, degree)

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
        assert all(ws.weighted_degree(e) == ws.degree for e in f.exponents())

    def test_found_weights_always_pass_euler(self, corpus_polys):
        for f in corpus_polys:
            ws = find_weights(f)
            if ws is not None:
                assert all(ws.weighted_degree(e) == ws.degree for e in f.exponents())

    def test_weight_system_validation(self):
        with pytest.raises(ValueError):
            WeightSystem((2, 4, 6), 12)  # gcd 2
        with pytest.raises(ValueError):
            WeightSystem((1, -1, 1), 3)
        with pytest.raises(ValueError):
            WeightSystem((1, 1, 1), 0)


def _strictly_positive(rows, alpha):
    return all(sum(c * a for c, a in zip(row, alpha)) > 0 for row in rows)


class TestPositivePoint:
    """Fourier-Motzkin elimination: the choice rules and infeasibility."""

    @pytest.mark.parametrize("rows,point", [
        ([[1, 0]], [1, 1]),              # alpha_1 unbounded
        ([[-1, 0], [1, 1]], [-1, 2]),    # alpha_0 < 0 only, alpha_1 > 1
        ([[1, -1], [1, 0]], [1, 0]),     # alpha_1 < alpha_0 = 1 only
        ([[1, 1], [1, -1]], [1, 0]),     # -1 < alpha_1 < 1: the midpoint
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1]),
    ])
    def test_choice_rules(self, rows, point):
        rows = [[Fraction(c) for c in row] for row in rows]
        assert _positive_point(rows) == point
        assert _strictly_positive(rows, point)

    @pytest.mark.parametrize("rows", [
        [[1], [-1]],                     # alpha_0 > 0 and alpha_0 < 0
        [[1, -1], [-1, 1]],              # alpha_1 < alpha_0 < alpha_1
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        [[0, 0]],
    ])
    def test_infeasible(self, rows):
        assert _positive_point([[Fraction(c) for c in row]
                                for row in rows]) is None

    @given(st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                 min_size=k, max_size=k), min_size=1, max_size=4)))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_point_satisfies_every_row(self, rows):
        alpha = _positive_point(rows)
        if alpha is not None:
            assert len(alpha) == len(rows[0])
            assert _strictly_positive(rows, alpha)
        else:
            # a small grid holds no point either
            grid = product(range(-3, 4), repeat=len(rows[0]))
            assert not any(_strictly_positive(rows, g) for g in grid)


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
        lasts = [max(i for i, v in enumerate(vec) if v) for vec in basis]
        for vec, last in zip(basis, lasts):
            assert len(vec) == n
            for d in diffs:
                assert sum(v * x for v, x in zip(vec, d)) == 0
            # primitive integers, positive at the free column, the last
            # nonzero one, and zero at the other vectors' free columns
            assert all(type(v) is int for v in vec) and gcd(*vec) == 1
            assert vec[last] > 0
            assert not any(vec[other] for other in lasts if other != last)
        assert _rank(basis) == len(basis)  # independent
        assert len(basis) == n - _rank(diffs)
        # the same vectors as the reduced row echelon form's, up to scale
        assert [[Fraction(v, vec[last]) for v in vec]
                for vec, last in zip(basis, lasts)] == \
            _reference_nullspace(exps, n)


def _reference_nullspace(exps, n):
    """The reduced row echelon form's basis of the w with w·e equal on
    every exponent e in `exps`: per free column, 1 there and 0 at the other
    free columns.  Plain Fraction Gauss-Jordan elimination."""
    rows = [[Fraction(a - b) for a, b in zip(e, exps[0])] for e in exps[1:]]
    pivots = []
    for c in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            factor = rows[i][c]
            if i != r and factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, p in zip(rows, pivots):
            vec[p] = -row[fc]
        basis.append(vec)
    return basis


def reference_find_weights(f):
    """find_weights by Fourier-Motzkin elimination on Fractions: a positive
    point of the cone of the reduced row echelon basis, made primitive."""
    exps = f.exponents()
    n = len(f.variables)
    basis = _reference_nullspace(exps, n)
    if not basis:
        return None
    alpha = _positive_point([[vec[i] for vec in basis] for i in range(n)])
    if alpha is None:
        return None
    w = [sum(a * vec[i] for a, vec in zip(alpha, basis)) for i in range(n)]
    denom = lcm(*(x.denominator for x in w))
    ints = [int(x * denom) for x in w]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    d = sum(map(mul, ints, exps[0]))
    if d <= 0:
        return None
    return WeightSystem(tuple(ints), d)


class TestFindWeightsReference:
    """find_weights in integers against the Fraction reference."""

    @given(exponent_sets())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_random_supports(self, case):
        n, exps = case
        f = Polynomial({e: 1 for e in exps}, [f"v{i}" for i in range(n)])
        assert find_weights(f) == reference_find_weights(f)

    @pytest.mark.parametrize("text,vectors,weights", [
        # one vector
        ("z^2+y^3+x^10", 1, ((3, 10, 15), 30)),
        ("x^2+y^3+z^5", 1, ((15, 10, 6), 30)),
        ("x^2+y^3+z^5+x*y*z", 0, None),
        ("x^2+y^3+x*y^2*z", 1, None),          # z needs a negative weight
        ("x^2+y^2+z^2+1", 0, None),
        # two or more vectors
        ("x^2+y^2", 2, ((1, 1, 1), 2)),
        ("x*y+z^3", 2, ((9, 3, 4), 12)),
        ("x*y", 3, ((1, 1, 1), 2)),
        ("x*y+z^2", 2, ((4, 2, 3), 6)),
        ("x^2*y^3+z^5", 2, ((25, 10, 16), 80)),
        ("x^2+x^3", 2, None),                  # x needs weight 0
        ("x", 3, ((1, 1, 1), 1)),
        ("x^2+y^2+1", 1, None),                # the constant has degree 0
        ("x+1", 2, None),
        ("7", 3, None),
    ])
    def test_cones(self, text, vectors, weights):
        f = poly(text)
        assert len(_difference_nullspace(f.exponents(), 3)) == vectors
        expected = weights and WeightSystem(*weights)
        assert find_weights(f) == reference_find_weights(f) == expected


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


def _gauss_jordan_multipliers(f):
    """linear_jacobian_multipliers(f) by plain Fraction Gauss-Jordan on the
    whole system: one column per entry A[i][j], holding the coefficients
    of x_j df/dx_i, and f's coefficients on the right; free entries 0."""
    n = len(f.variables)
    coords = [Polynomial.variable(v, f.variables) for v in f.variables]
    columns = [(coords[j] * partial_derivative(f, i)).term_map()
               for i in range(n) for j in range(n)]
    right = f.term_map()
    rows = [[col.get(m, Fraction(0)) for col in columns + [right]]
            for m in set(right).union(*columns)]
    pivots = []
    for c in range(n * n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    if any(row[-1] for row in rows[len(pivots):]):
        return None  # 0 = nonzero
    a = [[Fraction(0)] * n for _ in range(n)]
    for c, row in zip(pivots, rows):
        a[c // n][c % n] = row[-1]
    return a


@st.composite
def linear_changes(draw):
    """x^a+y^b+z^c, a, b, c in 2..5, after an invertible linear change with
    entries in {-1, 0, 1}, with or without one more monomial."""
    m = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=9, max_size=9)
             .map(lambda e: [e[0:3], e[3:6], e[6:9]])
             .filter(lambda m: _det3(m) != 0))
    coords = [Polynomial.variable(v, VARS) for v in VARS]
    f = Polynomial.zero(VARS)
    for row in m:
        form = sum((k * x for k, x in zip(row, coords)), Polynomial.zero(VARS))
        f = f + form ** draw(st.integers(2, 5))
    if draw(st.booleans()):
        f = f + Polynomial({draw(exponents): draw(coeffs.filter(bool))}, VARS)
    return f


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

    def test_refuted_after_full_rank(self, monkeypatch):
        # the first equations fix all 9 entries, and an equation that only
        # the dot-product check reads refutes them: the pivots are the 9
        # entries, and none is f's column
        pivots = []
        echelon = polynomials._integer_echelon

        def spy(rows, reduced):
            for p in echelon(rows, reduced):
                pivots.append(p)
                yield p

        monkeypatch.setattr(polynomials, "_integer_echelon", spy)
        form = poly("(x+y+z)^4+(x-y+z)^5+(x+y-z)^6")
        assert linear_jacobian_multipliers(form + poly("z^9")) is None
        assert sorted(pivots) == list(range(9))
        m = linear_jacobian_multipliers(form)
        assert m is not None and _multiplier_sum(form, m) == form

    def test_zero_polynomial(self):
        assert linear_jacobian_multipliers(poly("0")) == [[0] * 3] * 3

    @pytest.mark.parametrize("text", ["x*y-z", "3*y^3*z+x^2*y-y+3*z"])
    def test_exponent_one_past_the_largest(self, text):
        # the column x*df/dy of x*y is x^2: the monomial keys must hold an
        # exponent one past f's largest apart from the next variable's
        f = poly(text)
        assert linear_jacobian_multipliers(f) == _gauss_jordan_multipliers(f)

    @given(linear_changes() | small_polynomials())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_agrees_with_gauss_jordan(self, f):
        assert linear_jacobian_multipliers(f) == _gauss_jordan_multipliers(f)


def _similar(eigenvalues, s, nilpotent=0):
    """s * (diag(eigenvalues) + nilpotent * E_01) * s^-1, in Fractions."""
    n = len(s)
    d = [[Fraction(eigenvalues[i]) if i == j else Fraction(0)
          for j in range(n)] for i in range(n)]
    d[0][1] = Fraction(nilpotent)
    # s^-1 by Gauss-Jordan on [s | I]
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(s)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    inv = [row[n:] for row in aug]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    return mul(mul([[Fraction(x) for x in row] for row in s], d), inv)


class TestPositiveRationalEigenvalues:
    """Matrices built as S D S^-1 from their eigenvalues: the answer is
    read off the construction, not computed."""

    SIMILARITIES = st.lists(st.integers(-2, 2), min_size=9, max_size=9).map(
        lambda e: [e[0:3], e[3:6], e[6:9]]).filter(
        lambda m: _det3(m) != 0)
    POSITIVE = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5),
                                Fraction(2, 7), Fraction(1), Fraction(3, 2)])

    @given(st.lists(POSITIVE, min_size=3, max_size=3), SIMILARITIES)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_diagonalisable(self, eigenvalues, s):
        assert positive_rational_eigenvalues(_similar(eigenvalues, s)) == \
            sorted(eigenvalues, reverse=True)

    @given(POSITIVE, POSITIVE, SIMILARITIES)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_jordan_block_is_not_diagonalisable(self, a, b, s):
        # a repeated eigenvalue with a nilpotent part
        assert positive_rational_eigenvalues(_similar([a, a, b], s, 1)) is None

    @pytest.mark.parametrize("eigenvalues", [
        [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)],
        [Fraction(1, 2), Fraction(0), Fraction(1, 5)],
        [Fraction(-1), Fraction(-1), Fraction(-1, 2)],
    ])
    def test_not_positive(self, eigenvalues):
        s = [[1, 1, 0], [0, 1, 1], [1, 0, 2]]
        assert positive_rational_eigenvalues(_similar(eigenvalues, s)) is None

    @pytest.mark.parametrize("block,why", [
        ([[0, 2], [1, 0]], "+-sqrt 2"),
        ([[0, -1], [1, 0]], "+-i"),
        ([[1, 1], [1, 0]], "the golden ratio and its conjugate"),
        ([[3, 1], [1, 1]], "2 +- sqrt 2, both positive"),
    ])
    def test_irrational(self, block, why):
        a = [[Fraction(x) for x in row] + [Fraction(0)] for row in block]
        a.append([Fraction(0), Fraction(0), Fraction(1, 2)])
        assert positive_rational_eigenvalues(a) is None, why

    def test_sizes(self):
        assert positive_rational_eigenvalues([[Fraction(2, 3)]]) == \
            [Fraction(2, 3)]
        assert positive_rational_eigenvalues([[Fraction(0)]]) is None
        assert positive_rational_eigenvalues(
            [[Fraction(1, 4)] * 2, [Fraction(0), Fraction(1, 4)]]) is None


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
