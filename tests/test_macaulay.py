"""analyze's mu and tau against the truncated-Macaulay-matrix oracle.

The oracle (tests/macaulay.py) shares no code with the engine.  The inputs
cover the routes of analyze: graded (Euler), a linear change with positive
rational eigenvalues (Euler), linear multipliers that fail the eigenvalue
step (certification, mu = tau), and neither (certification, then mu from a
principal part, or else from the Lazard basis).
"""

import random
from fractions import Fraction

import pytest

from bassinv.groebner import DEFAULT_STAIRCASE_CAP, MonomialOrder
from bassinv.polynomials import Polynomial
from bassinv.singularity import _principal_milnor, analyze, jacobian_ideal

from conftest import VARS, poly
from macaulay import local_length

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
    partials = jacobian_ideal(f)
    mu = _principal_milnor(f, partials, MonomialOrder.grevlex(),
                           DEFAULT_STAIRCASE_CAP)
    if i in NO_PRINCIPAL_PART:
        assert mu is None
    else:
        assert mu == local_length(partials)
