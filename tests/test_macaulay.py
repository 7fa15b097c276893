"""analyze's mu, tau and support test against the Macaulay-matrix oracle.

The oracle (tests/macaulay.py) shares no code with the engine.  The inputs
cover the routes of analyze: graded (Euler), a linear change with positive
rational eigenvalues (Euler), linear multipliers that fail the eigenvalue
step (certification, mu = tau), and neither (certification, then mu from a
principal part, or else from the Lazard basis).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bassinv.errors import SingularLocusNotAtOriginError
from bassinv.groebner import DEFAULT_STAIRCASE_CAP, MonomialOrder
from bassinv.polynomials import Polynomial
from bassinv.singularity import _principal_milnor, analyze, jacobian_ideal

from conftest import VARS, poly, tjurina_generators
from macaulay import local_length, maximal_power_in_span

ORACLE_INPUTS = (
    # the paper's fibers: 18/18 at t = 0, 18/16 at t != 0
    "z^2+y^3+x^10",
    "z^2+y^3+x^10+x^7*y",
    "z^2+y^3+x^10-2*x^7*y",
    "x^3+y^4+z^5+x*y*z",
    "x^5+y^5+z^5",
    # the nonqh-ladder shapes with the benchmark's seed-1 coefficients
    "x^6+7/3*x^4*y^2+y^5+z^3",
    "x^4-59/60*x^2*y^2*z+y^5+z^6",
    "x^7+19/21*x^5*y^3+y^8+z^3",
    "x^9-23/76*x^6*y^4+y^10+z^3",
    "x^12+55/83*x^9*y^4+y^13+z^3",
    # linear multipliers whose eigenvalues fail: the multiplier route
    "(2*x+2*y+z)^2+(-x+y+z)^2+(x-y+2*z)^5",
    "(2*x+2*z)*(2*z)+(2*x-y)^5",
    "(2*x)^2+(2*x-y)^2+(-y-z)^4",
    # linear changes of graded forms
    "(x+y)^2+z^3+y^5",
    "(x+y+z)^4+(x-y+z)^4+(x+y-z)^6",
    # the first equations fix all 9 multipliers and a later one refutes
    # them: certification, then the Lazard basis
    "(x+y+z)^4+(x-y+z)^5+(x+y-z)^6+z^9",
    # principal parts: one without a pure power of x, and one that a
    # singular triple of candidate terms precedes
    "x^2*y+y^4+z^3+x^3*y^2+x*z^4-y^3*z^2",
    "x*y+z^2+x^3+y^3",
    # a grading whose principal part is not isolated: the Lazard basis
    "(x+y)^2+z^4+y^3+y^2*z^2",
)


@pytest.mark.parametrize("text", ORACLE_INPUTS)
def test_analyze_matches_the_macaulay_oracle(text):
    f = poly(text)
    partials = jacobian_ideal(f)
    profile = analyze(f)
    assert profile.milnor == local_length(partials)
    assert profile.tjurina == local_length([f] + partials)


def test_paper_numbers():
    for t, tau in ((0, 18), (1, 16), (-2, 16)):
        f = poly(f"z^2+y^3+x^10+({t})*x^7*y")
        assert local_length(jacobian_ideal(f)) == 18
        assert local_length([f] + jacobian_ideal(f)) == tau


def test_oracle_refuses_an_infinite_local_length():
    f = poly("x*y")
    with pytest.raises(ValueError, match="no stable"):
        local_length([f] + jacobian_ideal(f), max_order=8)


def random_set_draw(i):
    """Draw i of the random set: x^a+y^b+z^c, a, b, c in 2..7, plus 1 to 3
    terms with exponents in 0..4 of total degree >= 2 and coefficients
    +-(1..20)/(1..9), added to any equal term, zeros dropped."""
    rng = random.Random(f"rand:{i}")
    a, b, c = (rng.randint(2, 7) for _ in range(3))
    terms = {(a, 0, 0): 1, (0, b, 0): 1, (0, 0, c): 1}
    for _ in range(rng.randint(1, 3)):
        e = (0, 0, 0)
        while sum(e) < 2:
            e = tuple(rng.randint(0, 4) for _ in range(3))
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 20),
                     rng.randint(1, 9))
        terms[e] = terms.get(e, 0) + q
    return Polynomial(terms, VARS)


# the draws without a principal part; 13, 21 and 27 have one, though their
# certification or Lazard basis takes seconds
NO_PRINCIPAL_PART = {2, 9, 11, 14}


@pytest.mark.parametrize("i", range(40))
def test_principal_part_mu_on_the_random_set(i):
    f = random_set_draw(i)
    mu = _principal_milnor(f, MonomialOrder.grevlex(), DEFAULT_STAIRCASE_CAP)
    if i in NO_PRINCIPAL_PART:
        assert mu is None
    else:
        assert mu == local_length(jacobian_ideal(f))


# (N, D) found by searching D upward and N within it: m^N lies in the span
# of the Tjurina ideal's rows of degree <= D, which shows that the singular
# locus is the origin with no Groebner basis
SUPPORT_CERTIFICATES = (
    # (f) + J = (x^2, y, z): the nilpotency index of x is tau itself
    ("x^3+x^4+y^2+z^2", 2, 4),
    ("x^3+y^4+z^5+x*y*z", 5, 8),
    ("x^6+7/3*x^4*y^2+y^5+z^3", 8, 9),
    ("z^2+y^3+x^10+x^7*y", 10, 17),
)


@pytest.mark.parametrize("text, power, degree", SUPPORT_CERTIFICATES)
def test_support_certificate(text, power, degree):
    gens = tjurina_generators(poly(text))
    assert maximal_power_in_span(gens, power, degree)
    assert not maximal_power_in_span(gens, power - 1, degree)
    assert not maximal_power_in_span(gens, power, degree - 1)
    analyze(poly(text))  # accepted: no error


def test_no_support_certificate_off_the_origin():
    # the singular point (1, 0, 0) keeps every x^N out of the ideal
    gens = tjurina_generators(poly("x^2*(x-1)^2+y^2+z^2"))
    assert not any(maximal_power_in_span(gens, power, degree)
                   for degree in range(1, 11)
                   for power in range(1, degree + 1))


def _value(terms, point):
    total = Fraction(0)
    for e, c in terms.items():
        for x, k in zip(point, e):
            c *= x ** k
        total += c
    return total


def _nonzero(bound, denominator):
    return st.fractions(min_value=-bound, max_value=bound,
                        max_denominator=denominator).filter(bool)


# f = x^(a+1)*(x-r)^b + y^c + z^d, b >= 2, and maybe a term q*x^i*y^j with
# i >= 1 and j >= 2: f and its partials vanish at (r, 0, 0), r != 0.  The
# term has no z, as y^4 + 2*y^2*z + z^2 is a square, and a power of x, as
# q*y^j could cancel y^c: either would make the singular locus a curve.
@given(st.integers(1, 3), st.integers(2, 3), st.integers(2, 4),
       st.integers(2, 4), _nonzero(3, 4),
       st.one_of(st.none(), st.tuples(st.integers(1, 2), st.integers(2, 3),
                                      _nonzero(2, 3))))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_singular_point_off_the_origin_is_refused(a, b, c, d, r, extra):
    f = (Polynomial({(a + 1, 0, 0): 1}, VARS)
         * Polynomial({(1, 0, 0): 1, (0, 0, 0): -r}, VARS) ** b
         + Polynomial({(0, c, 0): 1, (0, 0, d): 1}, VARS))
    if extra is not None:
        i, j, q = extra
        f = f + Polynomial({(i, j, 0): q}, VARS)
    point = (r, Fraction(0), Fraction(0))
    assert all(_value(g.term_map(), point) == 0
               for g in tjurina_generators(f))
    with pytest.raises(SingularLocusNotAtOriginError):
        analyze(f)
