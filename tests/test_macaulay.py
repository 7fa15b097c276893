"""analyze's mu and tau against the truncated-Macaulay-matrix oracle.

The oracle (tests/macaulay.py) shares no code with the engine.  The inputs
cover the four routes of analyze: graded (Euler), a linear change with
positive rational eigenvalues (Euler), linear multipliers that fail the
eigenvalue step (certification, mu = tau), and neither (certification and
the Lazard basis for mu).
"""

import pytest

from bassinv.singularity import analyze, jacobian_ideal

from conftest import poly
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
