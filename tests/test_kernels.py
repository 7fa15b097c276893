import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bassinv import kernel
from bassinv.errors import StaircaseLimitError
from bassinv.groebner import (GroebnerBasis, MonomialOrder, _packed,
                              buchberger, staircase,
                              supported_only_at_origin)
from bassinv.singularity import _lazard_basis, _local_staircase

from conftest import (VARS, brute_force_staircase, divides, jacobian, poly,
                      reference_key, reference_remainder, standard_monomials,
                      tjurina_generators)

# sha256 digests of (basis generators, staircase) recorded from the
# pure-Python kernel: (f, order, digest), where "lazard" is the 4-variable
# homogenised Jacobian basis of the local Milnor length and the other orders
# give the basis of (f) + Jacobian ideal.  The staircase is the tuple of
# standard monomials sorted ascending in the basis order (None when
# infinite), listed by the brute-force oracle; the engine only counts it
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


# the ids keep the "-python" suffix that names the kernel the digests were
# recorded on, so each case keeps its test name
@pytest.mark.parametrize("case", RECORDED_BASES,
                         ids=[f"{case}-python" for case in RECORDED_BASES])
def test_recorded_digests(case):
    text, order, expected = RECORDED_BASES[case]
    f = poly(text)
    if order == "lazard":
        basis = _lazard_basis(jacobian(f))
    else:
        basis = buchberger(tjurina_generators(f),
                           getattr(MonomialOrder, order)())
    stairs = standard_monomials(basis)
    assert staircase(basis).size == (None if stairs is None else len(stairs))
    dump = repr((tuple(str(g) for g in basis.generators), stairs))
    assert hashlib.sha256(dump.encode()).hexdigest()[:16] == expected


# -- oracles for the kernel ---------------------------------------------------
#
# Written from the definitions of the orders and of the division algorithm,
# with exact rationals and plain loops; nothing here calls the engine except
# the function under test.  An order is a kind ("grevlex", "lex",
# "weighted") and, for "weighted", its weights.  reference_key, divides, the
# staircase oracle brute_force_staircase and the division oracle
# reference_remainder live in conftest.py.

def reference_greater(a, b, kind, weights):
    """a > b straight from the definition of each order."""
    if kind == "weighted":
        wa = sum(w * x for w, x in zip(weights, a))
        wb = sum(w * x for w, x in zip(weights, b))
        if wa != wb:
            return wa > wb
    diff = [x - y for x, y in zip(a, b)]
    if kind == "lex":
        nonzero = [d for d in diff if d]
        return bool(nonzero) and nonzero[0] > 0
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    nonzero = [d for d in diff if d]
    return bool(nonzero) and nonzero[-1] < 0


@st.composite
def ring_and_order(draw):
    """(number of variables 1-4, order kind, weights or None)."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["grevlex", "lex", "weighted"]))
    weights = None
    if kind == "weighted":
        weights = tuple(draw(st.lists(st.integers(1, 5), min_size=n,
                                      max_size=n)))
    return n, kind, weights


def exponents(n, top=5):
    return st.tuples(*[st.integers(0, top)] * n)


@st.composite
def finite_staircases(draw):
    """A number of variables 1-4 and leads with a pure power of each."""
    n = draw(st.integers(1, 4))
    leads = [tuple(draw(st.integers(1, 6)) if j == i else 0
                   for j in range(n)) for i in range(n)]
    leads += draw(st.lists(exponents(n, 4), max_size=5))
    return n, draw(st.permutations(leads))


@st.composite
def swept_staircases(draw):
    """A number of variables 2-3 and leads with a pure power of each, up to
    16, among them leads ending in the last variable that share their
    second-to-last exponent: the columns that enumerate_staircase sweeps,
    with blocks of equal height and ties inside a block."""
    n = draw(st.integers(2, 3))
    leads = [tuple(draw(st.integers(1, 16)) if j == i else 0
                   for j in range(n)) for i in range(n)]
    columns = draw(st.lists(st.integers(0, 16), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 6))):
        first = (draw(st.integers(0, 4)),) if n == 3 else ()
        leads.append(first + (draw(st.sampled_from(columns)),
                              draw(st.integers(1, 16))))
    leads += draw(st.lists(exponents(n, 16).filter(any), max_size=3))
    return n, draw(st.permutations(leads))


# grevlex leads of the bases of (f) + Jacobian ideal of the five
# benchmark ladder inputs x^a+y^b+z^c+q*x^i*y^j*z^k, named by (a, b, c)
# (the leads are the same for every draw of q), and of the Wahl family's
# fiber at t = 1, with their tau
LADDER_AND_WAHL_LEADS = {
    "ladder-6-5-3": ([(0, 0, 2), (0, 5, 0), (4, 1, 0), (5, 0, 0), (2, 4, 0),
                      (3, 3, 0)], 36),
    "ladder-4-5-6": ([(1, 2, 1), (0, 4, 0), (4, 0, 0), (0, 0, 5), (3, 1, 2),
                      (3, 3, 0), (3, 0, 4)], 51),
    "ladder-7-8-3": ([(0, 0, 2), (4, 3, 0), (5, 2, 0), (7, 0, 0), (0, 8, 0),
                      (2, 7, 0)], 74),
    "ladder-9-10-3": ([(0, 0, 2), (5, 4, 0), (6, 3, 0), (9, 0, 0),
                       (0, 10, 0), (3, 9, 0)], 122),
    "ladder-12-13-3": ([(0, 0, 2), (8, 4, 0), (9, 3, 0), (12, 0, 0),
                        (0, 13, 0), (3, 12, 0)], 224),
    "wahl-t=1": ([(0, 0, 1), (0, 3, 0), (3, 2, 0), (6, 1, 0), (7, 0, 0)], 16),
}


def assert_staircase_under_cap(leads, n, cap, size):
    """enumerate_staircase gives size under a cap it fits, and refuses
    past max(cap, 1) with the cap's message."""
    if size <= max(cap, 1):
        assert kernel.enumerate_staircase(leads, n, cap) == size
        return
    with pytest.raises(StaircaseLimitError) as err:
        kernel.enumerate_staircase(leads, n, cap)
    assert str(err.value) == (
        f"staircase exceeds the enumeration cap ({cap}); "
        f"raise BASSINV_MAX_STAIRCASE to allow larger quotients")


@st.composite
def any_staircases(draw):
    """A number of variables 1-4 and leads that may lack a pure power of
    some variable, or hold the unit ideal's lead 0."""
    n = draw(st.integers(1, 4))
    leads = [tuple(draw(st.integers(1, 6)) if j == i else 0
                   for j in range(n))
             for i in range(n) if draw(st.booleans())]
    leads += draw(st.lists(exponents(n, 4).filter(any), max_size=5))
    if draw(st.integers(0, 9)) == 0:
        leads.append((0,) * n)  # the unit ideal
    return n, draw(st.permutations(leads))


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


def packed_reduce_full(terms, basis, n, kind, weights):
    """kernel.reduce_full on unpacked term lists: the inputs packed and the
    normal form unpacked by the kernel's packing, widened as the engine
    widens it."""
    def run(packing):
        reduced, num, den = kernel.reduce_full(
            packing.pack_terms(terms),
            [packing.pack_terms(b) for b in basis], packing)
        return packing.unpack_terms(reduced), num, den

    return _packed(run, MonomialOrder(kind, weights), n,
                   [e for e, _ in terms + [t for b in basis for t in b]])


class TestPythonKernelOracles:
    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_order_key(self, data):
        # the packed int is the order's key: integer order is the order
        n, kind, weights = data.draw(ring_and_order())
        packing = kernel.Packing(MonomialOrder(kind, weights), n, 4)
        a = data.draw(exponents(n, 9))
        b = data.draw(exponents(n, 9))
        ka, kb = packing.pack(a), packing.pack(b)
        assert (ka > kb) == reference_greater(a, b, kind, weights)
        assert (ka < kb) == reference_greater(b, a, kind, weights)
        assert (ka == kb) == (a == b)
        # and on the whole box of 2-bit fields, where ties in (weighted)
        # degree are common and every exponent reaches the top
        small = kernel.Packing(MonomialOrder(kind, weights), n, 2)
        box = list(itertools.product(range(4), repeat=n))
        assert (sorted(box, key=small.pack)
                == sorted(box, key=lambda e: reference_key(e, kind, weights)))

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_packing(self, data):
        # exponents up to the largest a field holds, where a guard bit or a
        # borrow between fields would show
        n, kind, weights = data.draw(ring_and_order())
        width = data.draw(st.integers(1, 6))
        top = 2 ** width - 1
        packing = kernel.Packing(MonomialOrder(kind, weights), n, width)
        a, b = (data.draw(st.tuples(*[st.sampled_from([0, 1, top - 1, top])
                                      | st.integers(0, top)] * n))
                for _ in range(2))
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.unpack(pa) == a and packing.unpack(pb) == b
        assert (pa > pb) == reference_greater(a, b, kind, weights)
        assert (pa == pb) == (a == b)
        assert packing.divides(pa, pb) == divides(a, b)
        assert packing.divides(pb, pa) == divides(b, a)
        # the packed lcm, which the pair queue hands to spoly, is divided
        # by both
        lcm = packing.pack(tuple(map(max, a, b)))
        assert packing.divides(pa, lcm) and packing.divides(pb, lcm)
        # a shift is one addition, and an exponent past the top, at most
        # twice it, sets a guard bit
        assert packing.one == packing.pack((0,) * n)
        shifted = pa + pb - packing.one
        product = tuple(x + y for x, y in zip(a, b))
        if max(product, default=0) <= top:
            assert shifted == packing.pack(product)
            assert not shifted & packing.guard
        else:
            assert shifted & packing.guard

    def test_packing_needs_one_weight_per_variable(self):
        # a missing weight would leave its variable out of the packed int
        for weights in [(1, 2), (1, 2, 3, 4)]:
            with pytest.raises(ValueError):
                kernel.Packing(MonomialOrder.weighted(weights), 3, 4)

    @pytest.mark.parametrize("weights", [(0, 1, 1), (1, -2, 3)])
    def test_weights_must_be_positive(self, weights):
        with pytest.raises(ValueError, match="weights must be positive"):
            MonomialOrder.weighted(weights)

    def test_packing_refuses_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown order kind 'deglex'"):
            kernel.Packing(MonomialOrder("deglex"), 3, 4)

    @given(finite_staircases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_enumerate_staircase_is_the_brute_force_scan(self, case):
        n, leads = case
        assert (kernel.enumerate_staircase(leads, n, 10 ** 6)
                == len(brute_force_staircase(leads, n)))

    @given(any_staircases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_enumerate_staircase_is_none_when_infinite(self, case):
        n, leads = case
        stairs = brute_force_staircase(leads, n)
        assert (kernel.enumerate_staircase(leads, n, 10 ** 6)
                == (None if stairs is None else len(stairs)))

    def test_missing_pure_power_is_infinite(self):
        # no pure power of either variable, then none of y; a cap of 0
        # is not reached before finiteness is decided
        assert kernel.enumerate_staircase([(1, 1)], 2, 10) is None
        assert kernel.enumerate_staircase([(3, 0), (1, 1)], 2, 0) is None

    def test_unit_ideal_and_no_variables(self):
        assert kernel.enumerate_staircase([(2, 0), (0, 0)], 2, 10) == 0
        assert kernel.enumerate_staircase([], 0, 10) == 1

    @given(finite_staircases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_cap_boundary(self, case):
        n, leads = case
        size = len(brute_force_staircase(leads, n))
        assume(size >= 2)
        for cap in (size - 1, size):
            assert_staircase_under_cap(leads, n, cap, size)

    @given(swept_staircases(), st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_swept_columns_are_the_brute_force_scan(self, case, fits):
        # the count passes a cap of size - 1 only in its last block
        n, leads = case
        size = len(brute_force_staircase(leads, n))
        assert_staircase_under_cap(leads, n, size - (not fits), size)

    @pytest.mark.parametrize("case", LADDER_AND_WAHL_LEADS)
    def test_ladder_and_wahl_staircases(self, case):
        leads, tau = LADDER_AND_WAHL_LEADS[case]
        assert len(brute_force_staircase(leads, 3)) == tau
        for cap in (tau - 1, tau):
            assert_staircase_under_cap(leads, 3, cap, tau)

    def test_origin_is_not_counted_against_the_cap(self):
        # the staircase {1} survives a cap of 0
        assert kernel.enumerate_staircase([(1, 0), (0, 1)], 2, 0) == 1

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_reduce_full_is_the_division_algorithm(self, data):
        n, kind, weights = data.draw(ring_and_order())
        basis = data.draw(st.lists(term_lists(n, kind, weights, min_terms=1,
                                              positive_lead=True),
                                   max_size=3))
        terms = data.draw(term_lists(n, kind, weights))
        reduced, num, den = packed_reduce_full(terms, basis, n, kind, weights)
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
        # the engine's S-polynomial scales the leads to their lcm
        # fc*gc/gcd(fc, gc), not to 1, and is not made primitive
        fc, gc = f[0][1], g[0][1]
        scale = fc * gc // math.gcd(fc, gc)
        s = {e: c * scale for e, c in s.items() if c}
        assert all(c.denominator == 1 for c in s.values())

        def run(packing):
            packed = kernel.spoly(packing.pack_terms(f), packing.pack_terms(g),
                                  packing.pack(lcm))
            return dict(packing.unpack_terms(packed.items()))

        assert _packed(run, MonomialOrder(kind, weights), n,
                       [e for e, _ in f + g]) == s


# -- reductions that rescale many times ---------------------------------------
#
# reduce_full multiplies the working terms by lc/gcd at each step, so the
# scale it returns as `den` grows with the number of steps and the size of
# the leading coefficients.  The oracles above draw small coefficients and
# short bases and never get past 2^64; these cases do.

def rescaling_case(rng):
    """(n, kind, weights, basis, terms) for one seeded reduction.

    The basis has one element per variable, led by a pure power of it with
    a leading coefficient of 20-64 bits, and a tail of up to three smaller
    monomials that the other elements reduce in turn (a reducer chain).
    The terms have exponents up to 7 and coefficients of up to 40 bits, so
    almost every step rescales by a large factor.
    """
    n = rng.randint(1, 3)
    kind = rng.choice(["grevlex", "lex", "weighted"])
    weights = (tuple(rng.randint(1, 4) for _ in range(n))
               if kind == "weighted" else None)

    def sort_desc(exps):
        return sorted(exps, key=lambda e: reference_key(e, kind, weights),
                      reverse=True)

    def coefficient(bits):
        return rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)

    basis = []
    for i in range(n):
        lead = tuple(rng.randint(1, 3) if j == i else 0 for j in range(n))
        lower = [e for e in itertools.product(range(4), repeat=n)
                 if reference_greater(lead, e, kind, weights)]
        tail = rng.sample(lower, min(len(lower), rng.randint(1, 3)))
        basis.append([(lead, rng.randint(2 ** 20, 2 ** 64))]
                     + [(e, coefficient(30)) for e in sort_desc(tail)])
    exps = rng.sample(list(itertools.product(range(8), repeat=n)),
                      min(8 ** n, rng.randint(1, 5)))
    terms = [(e, coefficient(40)) for e in sort_desc(exps)]
    return n, kind, weights, basis, terms


def test_reduce_full_with_many_large_rescalings():
    dens = []
    for seed in range(40):
        n, kind, weights, basis, terms = rescaling_case(
            random.Random(f"rescale:{seed}"))
        reduced, num, den = packed_reduce_full(terms, basis, n, kind,
                                               weights)
        remainder = reference_remainder(terms, basis, kind, weights)
        assert reduced == primitive_with_positive_lead(remainder, kind,
                                                       weights)
        assert {e: Fraction(num, den) * c for e, c in reduced} == remainder
        dens.append(den)
    # the regime these cases exist for: a scale far past a machine word
    assert max(dens) > 2 ** 64
    assert sum(1 for d in dens if d > 2 ** 64) >= 10


# -- widening -----------------------------------------------------------------
#
# The engine packs each computation's exponents into fields sized from its
# inputs, and reruns it at twice the width when an exponent outgrows them.

@pytest.fixture
def widths(monkeypatch):
    """The (order kind, width) of every packing built from here on."""
    built = []
    real = kernel.Packing

    def packing(order, nvars, width):
        built.append((order.kind, width))
        return real(order, nvars, width)

    monkeypatch.setattr(kernel, "Packing", packing)
    return built


def test_buchberger_widens_and_reruns(widths):
    # the Lazard basis in 4 variables starts from exponents up to 20, in
    # 6-bit fields, and outgrows their top 63; mu is Kouchnirenko's Newton
    # number 330 (derived in test_singularity.py)
    assert _local_staircase(jacobian(poly("x^20+y^21+z^3+x^5*y^5"))).size \
        == 330
    assert widths == [("weighted", 6), ("weighted", 12)]


def test_reduction_widens_and_reruns(widths):
    # in lex, x^7 -> x^6*y^2 -> ... -> y^14 -> ... -> z^28, past the top 15
    # of the 4-bit fields that the support test's x^7 asks for; z^28 is not
    # 0, so x is not nilpotent of index 7
    basis = [[((1, 0, 0), 1), ((0, 2, 0), -1)],
             [((0, 1, 0), 1), ((0, 0, 2), -1)]]
    lex = GroebnerBasis(MonomialOrder.lex(), VARS, basis)
    assert (reference_remainder([((7, 0, 0), 1)], basis, "lex", None)
            == {(0, 0, 28): 1})
    assert not supported_only_at_origin(lex, 7)
    assert widths == [("lex", 4), ("lex", 8)]


# perfbench/run.py and perfbench/tracing.py use these kernel names, and the
# engine calls neither backend_name nor available_backends, so a deletion
# would otherwise surface only when the benchmark runs.  They stay until the
# benchmark stops using them (the benchmark item in ROADMAP.md).  The tracer
# also reads `groebner.staircase(...).size` (as `result.size or 0`), so that
# stays an int, or None for an infinite staircase.
def test_names_the_benchmark_uses_exist():
    for name in ("active", "backend_name", "available_backends",
                 "reduce_full", "spoly", "enumerate_staircase"):
        assert callable(getattr(kernel, name)), name
    assert kernel.active() is kernel
    assert kernel.backend_name() in kernel.available_backends()
    finite = staircase(buchberger([poly("z"), poly("y^2"), poly("x^9")]))
    assert type(finite.size) is int and finite.size == 18
    assert staircase(buchberger([poly("x")])).size is None
    count = kernel.enumerate_staircase([(2, 0), (0, 3)], 2, 10)
    assert type(count) is int and count == 6
