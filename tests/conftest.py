import pytest
from pathlib import Path

from bassinv.groebner import MonomialOrder, buchberger
from bassinv.polynomials import parse, partial_derivative

VARS = ("x", "y", "z")
REPO = Path(__file__).resolve().parent.parent
WAHL_GRAPH = REPO / "fixtures" / "wahl_resolution.json"
WAHL_FAMILY = (REPO / "fixtures" / "wahl_family.txt").read_text().strip()

# quasi-homogeneous corpus plus the paper's deformed fiber
CORPUS_TEXTS = (
    "x^2+y^2+z^2",            # A_1
    "z^2+y^3+x^10",           # the paper's graded fiber
    "z^2+y^3+x^10+x^7*y",     # the paper's deformed fiber (not graded)
    "z^2+y^3+x^7",            # E_12
    "x^3+y^4+z^5",
    "x^2+y^3+z^3",            # w = (3, 2, 2)
    "x^3+y^3+z^3+x*y*z",      # simple elliptic, quasi-homogeneous with mixed term
)


def poly(text):
    return parse(text, VARS)


def jacobian(f):
    return [partial_derivative(f, i) for i in range(3)]


def tjurina_generators(f):
    return [f] + jacobian(f)


@pytest.fixture(scope="session")
def corpus_polys():
    return [poly(t) for t in CORPUS_TEXTS]


@pytest.fixture(scope="session")
def corpus_bases(corpus_polys):
    """Tjurina-ideal bases of the corpus under grevlex and lex."""
    bases = []
    for f in corpus_polys:
        for order in (MonomialOrder.grevlex(), MonomialOrder.lex()):
            bases.append(buchberger(tjurina_generators(f), order))
    return bases
