import itertools
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from bassinv import kernel
from bassinv.groebner import MonomialOrder, buchberger
from bassinv.polynomials import Polynomial, parse, partial_derivative
from bassinv.singularity import _lazard_basis

VARS = ("x", "y", "z")
REPO = Path(__file__).resolve().parent.parent
WAHL_GRAPH = REPO / "fixtures" / "wahl_resolution.json"
WAHL_FAMILY = (REPO / "fixtures" / "wahl_family.txt").read_text().strip()
# no scaling weights: every fiber is analyzed; t = 0 is graded (tau 18),
# the six others share tau 16, and the fibers t = -8 and t = 8 have a
# singular point off the origin
NONSCALING = "z^2+y^3+x^10+t*x^7*y+t^2*x^8*y"

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


def rational(pair):
    """The rationals x/den that an integer pair (x, den) stands for, entry
    by entry: the matrix A of linear_jacobian_multipliers' (B, D), or the
    eigenvalue list of positive_rational_eigenvalues' (s, den).  None, the
    answer of either when there is none, stays None."""
    if pair is None:
        return None
    x, den = pair
    if isinstance(x[0], list):
        return [[Fraction(v, den) for v in row] for row in x]
    return [Fraction(v, den) for v in x]


def tjurina_generators(f):
    return [f] + jacobian(f)


# -- a staircase oracle that shares no code with the engine -------------------
#
# The engine only counts standard monomials; tests that read them list them
# here, by scanning a box, and sort them by an order key written from the
# definitions of the orders.  An order is a kind ("grevlex", "lex",
# "weighted") and, for "weighted", its weights.

def reference_key(exp, kind, weights):
    """The flat order key: the exponents for lex; otherwise (weighted
    degree,) degree, then the negated exponents from the last one
    (reverse-lex tiebreak)."""
    n = len(exp)
    degree = 0
    weighted = 0
    for i in range(n):
        degree += exp[i]
        if weights:
            weighted += weights[i] * exp[i]
    from_last_negated = [-exp[n - 1 - i] for i in range(n)]
    if kind == "grevlex":
        return tuple([degree] + from_last_negated)
    if kind == "lex":
        return tuple(exp)
    return tuple([weighted, degree] + from_last_negated)


def divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def brute_force_staircase(leads, n, kind="grevlex", weights=None):
    """Every monomial of the pure-power box that no lead divides, as a tuple
    sorted ascending in the order; None when some variable has no pure
    power among the leads (the staircase is infinite)."""
    box = []
    for i in range(n):
        powers = [le[i] for le in leads
                  if all(le[j] == 0 for j in range(n) if j != i)]
        if not powers:
            return None
        box.append(min(powers))
    standard = [e for e in itertools.product(*[range(b) for b in box])
                if not any(divides(le, e) for le in leads)]
    return tuple(sorted(standard,
                        key=lambda e: reference_key(e, kind, weights)))


def standard_monomials(basis):
    """The standard monomials of a Groebner basis, in its order."""
    return brute_force_staircase(basis.leading_exponents(),
                                 len(basis.variables), basis.order.kind,
                                 basis.order.weights)


def local_monomials(generators):
    """The standard monomials of the origin-local factor: those of the
    leads of the Lazard basis with t dropped, in grevlex."""
    leads = [e[1:] for e in _lazard_basis(generators).leading_exponents()]
    return brute_force_staircase(leads, len(generators[0].variables))


# -- a reduction oracle that shares no code with the engine ------------------
#
# Division over Fractions, written from its definition; it reads a basis'
# `_raw` term lists (exponent tuples and integer coefficients, lead first),
# `order` and `variables`, and calls nothing in bassinv.kernel or
# bassinv.groebner.

def reference_remainder(terms, basis, kind, weights):
    """Division algorithm over Q: take the largest remaining term, subtract
    the multiple of the first basis element whose lead divides it, or move
    it to the remainder.  `terms` are (exponent, coefficient) pairs, zero
    ones skipped, and each basis element a term list led by its largest
    term."""
    p = {e: Fraction(c) for e, c in terms if c}
    remainder = {}
    while p:
        e = max(p, key=lambda e: reference_key(e, kind, weights))
        c = p[e]
        hit = [b for b in basis if divides(b[0][0], e)]
        if not hit:
            remainder[e] = p.pop(e)
            continue
        b = hit[0]
        factor = c / b[0][1]
        u = [x - y for x, y in zip(e, b[0][0])]
        for be, bc in b:
            ne = tuple(x + y for x, y in zip(be, u))
            v = p.get(ne, 0) - factor * bc
            if v:
                p[ne] = v
            else:
                p.pop(ne, None)
    return remainder


def remainder(p, basis):
    """The remainder of the Polynomial p on division by a Groebner basis,
    which is its unique normal form."""
    return Polynomial(reference_remainder(p.term_map().items(), basis._raw,
                                          basis.order.kind,
                                          basis.order.weights),
                      basis.variables)


def spairs_reduce_to_zero(basis):
    """Whether the S-polynomial of every pair of the basis' generators has
    remainder 0 on division by them (Buchberger's criterion)."""
    kind, weights = basis.order.kind, basis.order.weights
    for f, g in itertools.combinations(basis._raw, 2):
        lcm = tuple(map(max, f[0][0], g[0][0]))
        s = Counter()
        for terms, sign in ((f, 1), (g, -1)):
            u = [x - y for x, y in zip(lcm, terms[0][0])]
            for e, c in terms:
                s[tuple(x + y for x, y in zip(e, u))] += Fraction(
                    sign * c, terms[0][1])
        if reference_remainder(s.items(), basis._raw, kind, weights):
            return False
    return True


def counting(counts, name, fn):
    """fn, adding 1 to counts[name] at each call."""
    def call(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return call


@pytest.fixture
def kernel_calls(monkeypatch):
    """A Counter of the calls of the kernel's three counted functions by
    name, from the test's start (clear it to count from a later point).
    The engine reaches them through the kernel's active() hook, which
    returns the module, so patching its attributes counts every call."""
    counts = Counter()
    for name in ("reduce_full", "spoly", "enumerate_staircase"):
        monkeypatch.setattr(kernel, name,
                            counting(counts, name, getattr(kernel, name)))
    return counts


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


@pytest.fixture
def default_digit_limit():
    """Run a test under CPython's default limit on int/str conversions
    (4300 digits), whatever an earlier test set, and restore it after.
    cli.run lifts the limit only while it runs, so a test of what the tool
    does past it also checks that nothing outside a run depends on it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(before)
