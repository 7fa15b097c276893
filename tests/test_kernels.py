import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bassinv import _core_py, kernel
from bassinv.errors import StaircaseLimitError
from bassinv.groebner import (MonomialOrder, buchberger, normal_form,
                              quotient_dimension, staircase)
from bassinv.polynomials import Polynomial
from bassinv.singularity import _lazard_basis

from conftest import (REPO, VARS, jacobian, poly, tjurina_generators,
                      CORPUS_TEXTS)

needs_compiled = pytest.mark.skipif(
    "cython" not in kernel.available_backends(),
    reason="compiled kernel not built")


def random_poly(rng, max_terms=6, max_exp=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(3))
        terms[e] = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
    return Polynomial(terms, VARS)


@needs_compiled
class TestBackendParity:
    @pytest.mark.parametrize("order", [MonomialOrder.grevlex(),
                                       MonomialOrder.lex(),
                                       MonomialOrder.weighted((3, 10, 15))])
    @pytest.mark.parametrize("text", CORPUS_TEXTS)
    def test_bases_identical(self, text, order):
        gens = tjurina_generators(poly(text))
        with kernel.use("python"):
            a = buchberger(gens, order)
            sa = staircase(a).monomials
        with kernel.use("cython"):
            b = buchberger(gens, order)
            sb = staircase(b).monomials
        assert a.generators == b.generators
        assert sa == sb

    def test_normal_forms_identical(self):
        rng = random.Random(42)
        gens = tjurina_generators(poly("z^2+y^3+x^10+x^7*y"))
        probes = [random_poly(rng) for _ in range(25)]
        with kernel.use("python"):
            basis_py = buchberger(gens)
            nf_py = [normal_form(p, basis_py) for p in probes]
        with kernel.use("cython"):
            basis_cy = buchberger(gens)
            nf_cy = [normal_form(p, basis_cy) for p in probes]
        assert nf_py == nf_cy

    def test_random_ideals_identical(self):
        rng = random.Random(7)
        for _ in range(10):
            gens = [random_poly(rng, max_terms=4, max_exp=4)
                    for _ in range(3)]
            with kernel.use("python"):
                a = buchberger(gens)
                da = quotient_dimension(a)
            with kernel.use("cython"):
                b = buchberger(gens)
                db = quotient_dimension(b)
            assert a.generators == b.generators
            assert da == db

    def test_kernel_primitives_agree(self):
        from bassinv import _core_py, _core_cy
        rng = random.Random(99)
        for kind, weights in ((0, ()), (1, ()), (2, (3, 10, 15)),
                              (3, (3, 10, 15))):
            for _ in range(50):
                e1 = tuple(rng.randint(0, 9) for _ in range(3))
                e2 = tuple(rng.randint(0, 9) for _ in range(3))
                assert (_core_py.order_key(e1, kind, weights)
                        == tuple(_core_cy.order_key(e1, kind, weights)))
                assert (_core_py.exp_divides(e1, e2)
                        == _core_cy.exp_divides(e1, e2))
                assert (_core_py.exp_lcm(e1, e2)
                        == tuple(_core_cy.exp_lcm(e1, e2)))

    def test_staircase_cap_matches(self, monkeypatch):
        from bassinv.errors import StaircaseLimitError
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "4")
        gens = [poly("z"), poly("y^2"), poly("x^9")]
        for name in ("python", "cython"):
            with kernel.use(name):
                gb = buchberger(gens)
                with pytest.raises(StaircaseLimitError):
                    staircase(gb)


def backend_under(value):
    return subprocess.run(
        [sys.executable, "-c",
         "from bassinv import kernel; print(kernel.backend_name())"],
        env={**os.environ, "PYTHONPATH": str(REPO / "src"),
             "BASSINV_KERNEL": value},
        capture_output=True, text=True)


def assert_import_error(run):
    assert run.returncode != 0
    last = run.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError") and "BASSINV_KERNEL" in last


class TestSelection:
    def test_env_forcing(self):
        assert backend_under("py").stdout.strip() == "python"
        assert_import_error(backend_under("nope"))

    @pytest.mark.skipif("cython" in kernel.available_backends(),
                        reason="compiled kernel is built")
    def test_env_forcing_missing_compiled_kernel(self):
        assert_import_error(backend_under("cy"))

    def test_use_restores(self):
        before = kernel.backend_name()
        with kernel.use("python"):
            assert kernel.backend_name() == "python"
        assert kernel.backend_name() == before


# sha256 digests of (basis generators, staircase) recorded from the
# pure-Python kernel: (f, order, digest), where "lazard" is the 4-variable
# homogenised Jacobian basis of the local Milnor length and the other orders
# give the basis of (f) + Jacobian ideal
RECORDED_BASES = {
    "wahl-graded": ("z^2+y^3+x^10", "grevlex", "e5ce339311d8ae95"),
    "wahl-deformed": ("z^2+y^3+x^10+x^7*y", "grevlex", "32c7bf7b8a5b6f97"),
    "wahl-deformed-lex": ("z^2+y^3+x^10+x^7*y", "lex", "de90375eace163da"),
    "wahl-deformed-lazard": ("z^2+y^3+x^10+x^7*y", "lazard",
                             "21318c15aa79a52c"),
    "brieskorn-pham-555": ("x^5+y^5+z^5", "grevlex", "0322eaecb864d352"),
    "elliptic-cone-term": ("x^3+y^3+z^3+x*y*z", "grevlex", "9000739c60fd994e"),
    "dense-quartic-mix": ("x^4+y^4+z^4+x^2*y^2+x*y*z", "grevlex",
                          "644abb7080bf1185"),
    "cyclic-style-cubic": ("x^3*y+y^3*z+z^3*x", "grevlex", "6865a31f760fb353"),
    "staircase-40x40": ("x^41+y^41+z^2", "grevlex", "31ddbc5fe72f4d31"),
}


@pytest.mark.parametrize("backend", kernel.available_backends())
@pytest.mark.parametrize("case", RECORDED_BASES)
def test_recorded_digests(case, backend):
    text, order, expected = RECORDED_BASES[case]
    f = poly(text)
    with kernel.use(backend):
        if order == "lazard":
            basis = _lazard_basis(jacobian(f))
        else:
            basis = buchberger(tjurina_generators(f),
                               getattr(MonomialOrder, order)())
        stairs = staircase(basis).monomials
    dump = repr((tuple(str(g) for g in basis.generators), stairs))
    assert hashlib.sha256(dump.encode()).hexdigest()[:16] == expected


# -- oracles for the pure-Python kernel ---------------------------------------
#
# Written from the definitions of the orders and of the division algorithm,
# with exact rationals and plain loops; nothing here calls the engine except
# the function under test.

def reference_key(exp, kind, weights):
    """The flat order key: (weighted degree,) (degree,) then either the
    exponents (lex tiebreak) or the negated exponents from the last one
    (reverse-lex tiebreak)."""
    n = len(exp)
    degree = 0
    weighted = 0
    for i in range(n):
        degree += exp[i]
        if weights:
            weighted += weights[i] * exp[i]
    from_last_negated = [-exp[n - 1 - i] for i in range(n)]
    if kind == _core_py.GREVLEX:
        return tuple([degree] + from_last_negated)
    if kind == _core_py.LEX:
        return tuple(exp)
    if kind == _core_py.WGREVLEX:
        return tuple([weighted, degree] + from_last_negated)
    return tuple([weighted] + list(exp))


def reference_greater(a, b, kind, weights):
    """a > b straight from the definition of each order."""
    if kind in (_core_py.WGREVLEX, _core_py.WLEX):
        wa = sum(w * x for w, x in zip(weights, a))
        wb = sum(w * x for w, x in zip(weights, b))
        if wa != wb:
            return wa > wb
    diff = [x - y for x, y in zip(a, b)]
    if kind in (_core_py.LEX, _core_py.WLEX):
        nonzero = [d for d in diff if d]
        return bool(nonzero) and nonzero[0] > 0
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    nonzero = [d for d in diff if d]
    return bool(nonzero) and nonzero[-1] < 0


def divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


@st.composite
def ring_and_order(draw):
    """(number of variables 1-4, order code, weights)."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([_core_py.GREVLEX, _core_py.LEX,
                                 _core_py.WGREVLEX, _core_py.WLEX]))
    weights = ()
    if kind in (_core_py.WGREVLEX, _core_py.WLEX):
        weights = tuple(draw(st.lists(st.integers(1, 5), min_size=n,
                                      max_size=n)))
    return n, kind, weights


def exponents(n, top=5):
    return st.tuples(*[st.integers(0, top)] * n)


@st.composite
def finite_staircases(draw):
    """A ring, an order, and leads with a pure power of every variable."""
    n, kind, weights = draw(ring_and_order())
    leads = [tuple(draw(st.integers(1, 6)) if j == i else 0
                   for j in range(n)) for i in range(n)]
    leads += draw(st.lists(exponents(n, 4), max_size=5))
    return n, kind, weights, draw(st.permutations(leads))


def brute_force_staircase(leads, n, kind, weights):
    """Every monomial of the bounding box that no lead divides."""
    box = [min(le[i] for le in leads
               if all(le[j] == 0 for j in range(n) if j != i))
           for i in range(n)]
    standard = [e for e in itertools.product(*[range(b) for b in box])
                if not any(divides(le, e) for le in leads)]
    return sorted(standard, key=lambda e: reference_key(e, kind, weights))


@st.composite
def term_lists(draw, n, kind, weights, min_terms=0, positive_lead=False):
    """A kernel term list: distinct exponents sorted descending, nonzero
    integer coefficients."""
    exps = draw(st.lists(exponents(n), min_size=min_terms, max_size=6,
                         unique=True))
    exps.sort(key=lambda e: reference_key(e, kind, weights), reverse=True)
    coeffs = draw(st.lists(st.integers(-9, 9).filter(bool),
                           min_size=len(exps), max_size=len(exps)))
    if positive_lead and coeffs:
        coeffs[0] = abs(coeffs[0])
    return list(zip(exps, coeffs))


def reference_remainder(terms, basis, kind, weights):
    """Division algorithm over Q: take the largest remaining term, subtract
    the multiple of the first basis element whose lead divides it, or move
    it to the remainder."""
    p = {e: Fraction(c) for e, c in terms}
    remainder = {}
    while p:
        e = next(iter(p))
        for f in p:
            if reference_greater(f, e, kind, weights):
                e = f
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


def primitive_with_positive_lead(terms, kind, weights):
    """Rational terms {exp: Fraction} as the kernel's term list."""
    if not terms:
        return []
    den = 1
    for c in terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = {e: int(c * den) for e, c in terms.items()}
    g = 0
    for c in ints.values():
        g = math.gcd(g, c)
    order = sorted(ints, key=lambda e: reference_key(e, kind, weights),
                   reverse=True)
    if ints[order[0]] < 0:
        g = -g
    return [(e, ints[e] // g) for e in order]


class TestPythonKernelOracles:
    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_order_key(self, data):
        n, kind, weights = data.draw(ring_and_order())
        a = data.draw(exponents(n, 9))
        b = data.draw(exponents(n, 9))
        ka = _core_py.order_key(a, kind, weights)
        assert ka == reference_key(a, kind, weights)
        kb = _core_py.order_key(b, kind, weights)
        assert (ka > kb) == reference_greater(a, b, kind, weights)

    @given(finite_staircases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_enumerate_staircase_is_the_brute_force_scan(self, case):
        n, kind, weights, leads = case
        assert (_core_py.enumerate_staircase(leads, n, 10 ** 6, kind, weights)
                == brute_force_staircase(leads, n, kind, weights))

    def test_unit_ideal_and_no_variables(self):
        assert _core_py.enumerate_staircase([(2, 0), (0, 0)], 2, 10, 0,
                                            ()) == []
        assert _core_py.enumerate_staircase([], 0, 10, 0, ()) == [()]

    @given(finite_staircases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_cap_boundary(self, case):
        n, kind, weights, leads = case
        size = len(brute_force_staircase(leads, n, kind, weights))
        assume(size >= 2)
        assert len(_core_py.enumerate_staircase(leads, n, size, kind,
                                                weights)) == size
        cap = size - 1
        message = (f"staircase exceeds the enumeration cap ({cap}); "
                   f"raise BASSINV_MAX_STAIRCASE to allow larger quotients")
        with pytest.raises(StaircaseLimitError) as err:
            _core_py.enumerate_staircase(leads, n, cap, kind, weights)
        assert str(err.value) == message

    def test_origin_is_not_counted_against_the_cap(self):
        # as in the compiled kernel: the staircase {1} survives a cap of 0
        assert _core_py.enumerate_staircase([(1, 0), (0, 1)], 2, 0, 0,
                                            ()) == [(0, 0)]

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_reduce_full_is_the_division_algorithm(self, data):
        n, kind, weights = data.draw(ring_and_order())
        basis = data.draw(st.lists(term_lists(n, kind, weights, min_terms=1,
                                              positive_lead=True),
                                   max_size=3))
        terms = data.draw(term_lists(n, kind, weights))
        reduced, num, den = _core_py.reduce_full(terms, basis, kind, weights)
        remainder = reference_remainder(terms, basis, kind, weights)
        assert reduced == primitive_with_positive_lead(remainder, kind,
                                                       weights)
        assert {e: Fraction(num, den) * c for e, c in reduced} == remainder

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_spoly(self, data):
        n, kind, weights = data.draw(ring_and_order())
        f, g = (data.draw(term_lists(n, kind, weights, min_terms=1,
                                     positive_lead=True)) for _ in range(2))
        lcm = tuple(max(x, y) for x, y in zip(f[0][0], g[0][0]))
        s = {}
        for terms, sign in ((f, 1), (g, -1)):
            u = [x - y for x, y in zip(lcm, terms[0][0])]
            for e, c in terms:
                ne = tuple(x + y for x, y in zip(e, u))
                s[ne] = s.get(ne, 0) + sign * Fraction(c, terms[0][1])
        s = {e: c for e, c in s.items() if c}
        assert (_core_py.spoly(f, g, kind, weights)
                == primitive_with_positive_lead(s, kind, weights))
