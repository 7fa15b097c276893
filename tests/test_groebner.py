import hashlib
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bassinv import kernel
from bassinv.errors import StaircaseLimitError
from bassinv.groebner import (MonomialOrder, _packed, _to_raw, buchberger,
                              jacobian_basis, staircase,
                              supported_only_at_origin)
from bassinv.polynomials import (Polynomial, WeightSystem, parse,
                                 partial_derivative)
from bassinv.singularity import _lazard_basis

from conftest import (CORPUS_TEXTS, VARS, divides, jacobian, poly,
                      reference_key, reference_remainder, remainder,
                      spairs_reduce_to_zero, standard_monomials,
                      tjurina_generators)

GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


def gens_of(basis):
    return {str(g) for g in basis.generators}


ORDERS = [MonomialOrder.grevlex(), MonomialOrder.lex(),
          MonomialOrder.weighted((3, 10, 15))]
exps = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))


class TestOrderAxioms:
    # on the packed ints of 6-bit fields, which hold every exponent here
    @given(exps, exps, exps)
    @settings(max_examples=80, deadline=None)
    def test_multiplicative_and_total(self, u, v, w):
        for order in ORDERS:
            key = kernel.Packing(order, 3, 6).pack
            ku, kv = key(u), key(v)
            # total: distinct monomials compare strictly
            assert (ku == kv) == (u == v)
            # multiplicative: comparison survives multiplication by w
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert (ku < kv) == (key(uw) < key(vw))

    @given(exps)
    @settings(max_examples=40, deadline=None)
    def test_one_is_minimal(self, u):
        for order in ORDERS:
            key = kernel.Packing(order, 3, 6).pack
            if u != (0, 0, 0):
                assert key((0, 0, 0)) < key(u)


    def test_pickles_and_packs_the_same(self):
        for order in ORDERS:
            packing = kernel.Packing(order, 3, 6)
            copy = pickle.loads(pickle.dumps(order))
            assert copy == order
            assert (kernel.Packing(copy, 3, 6).pack((1, 2, 3))
                    == packing.pack((1, 2, 3)))


class TestBuchberger:
    def test_monomial_ideal_is_normalized(self):
        gb = buchberger([poly("2z"), poly("3y^2"), poly("10x^9")])
        assert gens_of(gb) == {"z", "y^2", "x^9"}

    def test_linear_elimination(self):
        gb = buchberger([poly("x+y"), poly("y")])
        assert gens_of(gb) == {"x", "y"}

    def test_tjurina_ideal_of_deformed_fiber_has_16_standard_monomials(self):
        gb = buchberger(tjurina_generators(poly("z^2+y^3+x^10+x^7*y")))
        assert staircase(gb).size == 16

    def test_jacobian_ideal_of_deformed_fiber(self):
        # f has one more critical point away from {f=0} (at x = -300/49),
        # so the global Jacobian quotient is one bigger than mu = 18
        gb = buchberger(jacobian(poly("z^2+y^3+x^10+x^7*y")))
        assert staircase(gb).size == 19

    def test_zero_ideal(self):
        gb = buchberger([poly("0")])
        assert len(gb) == 0
        assert staircase(gb).size is None
        p = poly("x^2+y")
        assert remainder(p, gb) == p

    def test_unit_ideal(self):
        gb = buchberger([poly("x"), poly("x+1")])
        assert gens_of(gb) == {"1"}
        assert staircase(gb).size == 0

    def test_generator_order_does_not_matter(self):
        gens = tjurina_generators(poly("z^2+y^3+x^10+x^7*y"))
        a = buchberger(gens)
        b = buchberger(list(reversed(gens)))
        assert a.generators == b.generators

    def test_deterministic_repr(self):
        gens = tjurina_generators(poly("z^2+y^3+x^10+x^7*y"))
        assert repr(buchberger(gens)) == repr(buchberger(gens))

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    def test_repeated_generators_do_not_matter(self, order):
        g, h = poly("x^2*y+z^3"), poly("y^2-x*z")
        assert (buchberger([g, 2 * g, h, g], order)
                == buchberger([g, h], order))

    def test_mixed_rings_rejected(self):
        with pytest.raises(ValueError):
            buchberger([poly("x"), parse("u", ("u", "v"))])


class TestUntilFinite:
    """jacobian_basis with until_finite on the partials of f; the oracle is
    the full basis: None exactly when its staircase is finite, and
    otherwise that basis."""

    @pytest.mark.parametrize("order", [MonomialOrder.grevlex(),
                                       MonomialOrder.lex()],
                             ids=["grevlex", "lex"])
    @pytest.mark.parametrize("text", CORPUS_TEXTS)
    def test_stops_exactly_on_finite_quotients(self, text, order):
        f = poly(text)
        full = buchberger(jacobian(f), order)
        stopped = jacobian_basis(f, order, with_f=False, until_finite=True)
        assert (stopped is None) == (staircase(full).size is not None)

    def test_stops_before_the_pairs(self, kernel_calls):
        # the partials 20x^19, 21y^20, 5z^4 are pure powers: one reduction
        # each, no pair
        assert jacobian_basis(poly("x^20+y^21+z^5"), GREVLEX, with_f=False,
                              until_finite=True) is None
        assert kernel_calls["reduce_full"] == 3

    # partials 2xy, x^2, 0 and 3x^2-3y^2, -6xy, 0, and the zero ideal
    @pytest.mark.parametrize("f", ["x^2*y", "x^3-3*x*y^2", "0"])
    def test_infinite_quotient_gives_the_reduced_basis(self, f):
        f = poly(f)
        full = buchberger(jacobian(f))
        assert staircase(full).size is None
        assert jacobian_basis(f, GREVLEX, with_f=False,
                              until_finite=True) == full

    def test_unit_ideal_stops(self):
        assert jacobian_basis(poly("x"), GREVLEX, with_f=False,
                              until_finite=True) is None


@st.composite
def rational_polynomials(draw):
    """1 to 5 terms in x, y, z with exponents 0..3 and nonzero coefficients
    of denominator at most 6; in three draws of five one variable is left
    out, so that its partial is zero."""
    missing = draw(st.sampled_from([None, None, 0, 1, 2]))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1,
                         max_size=5, unique=True))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    terms = {}
    for e in exps:
        if missing is not None:
            e = e[:missing] + (0,) + e[missing + 1:]
        terms[e] = draw(coeffs.filter(bool))
    return Polynomial(terms, VARS)


class TestJacobianBasis:
    """jacobian_basis derives the partials on f's packing; the oracles are
    the partials as Polynomials and buchberger on them."""

    @given(rational_polynomials(), st.sampled_from(ORDERS[:2] + [
        MonomialOrder.weighted((1, 2, 3))]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_packed_partials_are_the_partials(self, f, order):
        def run(packing):
            raw = _to_raw(f.term_map(), packing)
            return kernel.partials(raw, packing), [
                _to_raw(p.term_map(), packing)
                for p in (partial_derivative(f, i) for i in range(3))
                if not p.is_zero()]

        packed, oracle = _packed(run, order, 3, f.term_map())
        assert packed == oracle

    @given(rational_polynomials(), st.sampled_from(ORDERS[:2] + [
        MonomialOrder.weighted((1, 2, 3))]), st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_basis_as_buchberger(self, f, order, until_finite):
        partials = jacobian(f)
        assert jacobian_basis(f, order, with_f=True) == \
            buchberger([f] + partials, order)
        full = buchberger(partials, order)
        stops = until_finite and staircase(full).size is not None
        assert jacobian_basis(f, order, with_f=False,
                              until_finite=until_finite) == \
            (None if stops else full)

    def test_zero_and_constant(self):
        for text in ("0", "5"):
            f = poly(text)
            for with_f in (False, True):
                assert jacobian_basis(f, GREVLEX, with_f=with_f) == \
                    buchberger([f] * with_f + jacobian(f), GREVLEX)


class TestNormalForm:
    """The engine's bases under the remainder oracle of conftest.py: the
    remainder on division by a Groebner basis is the unique normal form."""

    def test_membership(self, corpus_bases):
        for basis in corpus_bases:
            for g in basis.generators:
                assert remainder(g, basis).is_zero()

    def test_one_survives_proper_ideal(self):
        gb = buchberger([poly("z"), poly("y^2"), poly("x^9")])
        assert remainder(poly("1"), gb) == poly("1")

    def test_single_division_step(self):
        gb = buchberger([poly("z"), poly("y^2"), poly("x^9")])
        assert remainder(poly("x^9+x"), gb) == poly("x")

    def test_exact_rational_scaling(self):
        gb = buchberger([poly("2x - 3y")])
        # the basis is monic: x - 3/2 y, so 5x reduces to 15/2 y
        assert remainder(poly("5x"), gb) == poly("15/2*y")

    def test_idempotent(self, corpus_bases):
        probe = poly("x^5*y^2 + 1/3*x*y*z^3 - 7*z^8 + x - 2")
        for basis in corpus_bases:
            once = remainder(probe, basis)
            assert remainder(once, basis) == once

    def test_random_combinations_reduce_to_zero(self, corpus_bases):
        rng = random.Random(20260810)
        monos = [poly(m) for m in ("1", "x", "y", "z", "x*y", "z^2")]
        for basis in corpus_bases[:6]:
            for _ in range(3):
                combo = Polynomial.zero(VARS)
                for g in basis.generators:
                    c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    combo = combo + g * rng.choice(monos) * c
                assert remainder(combo, basis).is_zero()


class TestStaircase:
    def test_paper_staircase_18(self):
        gb = buchberger([poly("z"), poly("y^2"), poly("x^9")])
        assert staircase(gb).size == 18
        expected = {(i, j, 0) for i in range(9) for j in range(2)}
        assert set(standard_monomials(gb)) == expected

    def test_maximal_ideal(self):
        gb = buchberger([poly("x"), poly("y"), poly("z")])
        assert staircase(gb).size == 1
        assert standard_monomials(gb) == ((0, 0, 0),)

    def test_positive_dimensional_is_infinite(self):
        gb = buchberger([poly("x")])
        assert staircase(gb).size is None
        assert standard_monomials(gb) is None

    def test_dimension_matches_order(self, corpus_polys):
        for f in corpus_polys:
            gens = tjurina_generators(f)
            d1 = staircase(buchberger(gens, GREVLEX)).size
            d2 = staircase(buchberger(gens, LEX)).size
            assert d1 == d2

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "5")
        gb = buchberger([poly("z"), poly("y^2"), poly("x^9")])
        with pytest.raises(StaircaseLimitError):
            staircase(gb)


class TestSupportAtOrigin:
    def test_monomial_ideal(self):
        gb = buchberger([poly("z"), poly("y^2"), poly("x^9")])
        assert supported_only_at_origin(gb, staircase(gb).size)

    def test_translated_point(self):
        gb = buchberger([poly("x-1"), poly("y"), poly("z")])
        assert not supported_only_at_origin(gb, staircase(gb).size)

    def test_tjurina_ideal_of_deformed_fiber(self):
        gb = buchberger(tjurina_generators(poly("z^2+y^3+x^10+x^7*y")))
        assert supported_only_at_origin(gb, staircase(gb).size)

    def test_jacobian_ideal_of_deformed_fiber_is_not(self):
        gb = buchberger(jacobian(poly("z^2+y^3+x^10+x^7*y")))
        assert not supported_only_at_origin(gb, staircase(gb).size)

    def test_infinite_dimension_rejected(self):
        gb = buchberger([poly("x")])
        with pytest.raises(ValueError):
            supported_only_at_origin(gb, staircase(gb).size)

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    def test_nilpotency_index_past_staircase_degree(self, order):
        # grevlex staircase {1, x, y}, but y^2 = x and y^3 is the first
        # power of y in the ideal
        gb = buchberger([poly("x-y^2"), poly("y^3"), poly("z")], order)
        if order == GREVLEX:
            assert standard_monomials(gb) == ((0, 0, 0), (0, 1, 0),
                                              (1, 0, 0))
        assert supported_only_at_origin(gb, staircase(gb).size)

    def test_first_power_at_dimension(self, kernel_calls):
        gb = buchberger([poly("x^5"), poly("y"), poly("z")])
        assert staircase(gb).size == 5
        kernel_calls.clear()
        assert supported_only_at_origin(gb, 5)
        assert kernel_calls["reduce_full"] == 3  # x^5, y^5 and z^5, once each

    def test_one_nilpotent_variable_is_not_enough(self):
        gb = buchberger([poly("x^2"), poly("y^2-y"), poly("z")])
        assert not supported_only_at_origin(gb, staircase(gb).size)

    @pytest.mark.parametrize("gens, count", [
        (["x-1", "y", "z"], 1), (["x^2", "y^2-y", "z"], 2)],
        ids=["x-not-nilpotent", "y-not-nilpotent"])
    def test_stops_at_the_first_nonzero_power(self, kernel_calls, gens,
                                              count):
        gb = buchberger([poly(g) for g in gens])
        kernel_calls.clear()
        assert not supported_only_at_origin(gb, staircase(gb).size)
        assert kernel_calls["reduce_full"] == count

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    @pytest.mark.parametrize("gens", [
        ["x-y^2", "y^3", "z"], ["x^5", "y", "z"], ["x^2", "y^2-y", "z"],
        ["z", "y^2", "x^9"], ["x-1", "y", "z"],
        tjurina_generators(poly("z^2+y^3+x^10+x^7*y")),
        jacobian(poly("z^2+y^3+x^10+x^7*y"))],
        ids=["index-past-staircase", "x^5", "y-idempotent", "monomial",
             "translated", "tjurina-deformed", "jacobian-deformed"])
    def test_agrees_with_reducing_the_dim_th_power(self, gens, order):
        gb = buchberger([poly(g) if isinstance(g, str) else g for g in gens],
                        order)
        dim = staircase(gb).size
        powers = [Polynomial({tuple(dim if j == i else 0 for j in range(3)):
                              1}, VARS) for i in range(3)]
        expected = all(remainder(p, gb).is_zero() for p in powers)
        assert supported_only_at_origin(gb, dim) == expected

    def test_reduction_count_diagonal(self, kernel_calls):
        # leads x^19, y^20, z^4: every variable is zero at its first step
        gb = buchberger(tjurina_generators(poly("x^20+y^21+z^5")))
        kernel_calls.clear()
        assert supported_only_at_origin(gb, staircase(gb).size)
        assert kernel_calls["reduce_full"] == 3

    def test_reduction_count_after_dense_change(self, kernel_calls):
        # each x_i lies in the maximal ideal, so x_i^L = 0 for the Loewy
        # length L = 3 + 4 + 5 - 2 = 10 of the Milnor algebra of
        # x^4+y^5+z^6 (here also the Tjurina algebra), which a linear change
        # preserves; x_i^dim, dim = 60, reduces to 0 in one call each
        u, v, w = poly("x+y+z"), poly("x-y+z"), poly("x+y-z")  # det 4
        gb = buchberger(tjurina_generators(u ** 4 + v ** 5 + w ** 6))
        kernel_calls.clear()
        assert supported_only_at_origin(gb, staircase(gb).size)
        assert kernel_calls["reduce_full"] == 3


class TestGradedCount:
    # standard monomials of the weighted basis counted by weighted degree:
    # the Hilbert function of the graded quotient
    def setup_method(self):
        self.ws = WeightSystem((3, 10, 15), 30)
        gb = buchberger(jacobian(poly("z^2+y^3+x^10")),
                        MonomialOrder.weighted(self.ws.weights))
        assert staircase(gb).size == 18
        self.monomials = standard_monomials(gb)

    def count(self, cutoff):
        return sum(1 for m in self.monomials
                   if self.ws.weighted_degree(m) <= cutoff)

    def test_paper_pg_count(self):
        assert self.count(2) == 1

    def test_negative_cutoff(self):
        assert self.count(-1) == 0

    def test_large_cutoff_gives_whole_staircase(self):
        # max weighted degree of the 18 standard monomials: x^8 y has 34
        assert self.count(34) == 18
        assert self.count(33) == 17


class TestBasisIdentity:
    # (len, sha256 of repr) of the Tjurina-ideal bases of the corpus,
    # recorded when the monic generators were still built eagerly
    RECORDED = {
        ("x^2+y^2+z^2", "grevlex"): (3, "66f4adb7d66ab0c4"),
        ("x^2+y^2+z^2", "lex"): (3, "d9f70a7a9fa899c9"),
        ("z^2+y^3+x^10", "grevlex"): (3, "edac56598e1ae6c6"),
        ("z^2+y^3+x^10", "lex"): (3, "4df8098af0bcda22"),
        ("z^2+y^3+x^10+x^7*y", "grevlex"): (5, "0c9deb1a01c2b1eb"),
        ("z^2+y^3+x^10+x^7*y", "lex"): (5, "3edc7ff074fe87c1"),
        ("z^2+y^3+x^7", "grevlex"): (3, "29b937e1341ab30d"),
        ("z^2+y^3+x^7", "lex"): (3, "c1578ee68667be3c"),
        ("x^3+y^4+z^5", "grevlex"): (3, "1b6b0d3946d196e2"),
        ("x^3+y^4+z^5", "lex"): (3, "7b4c67b64e1afc9f"),
        ("x^2+y^3+z^3", "grevlex"): (3, "28d2cfb8aeb3eb7c"),
        ("x^2+y^3+z^3", "lex"): (3, "e699caffb8e697ea"),
        ("x^3+y^3+z^3+x*y*z", "grevlex"): (6, "475e32817c28dc3a"),
        ("x^3+y^3+z^3+x*y*z", "lex"): (7, "046075eb58957333"),
    }

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("text", CORPUS_TEXTS)
    def test_same_with_or_without_reading_generators(self, text, order):
        gens = tjurina_generators(poly(text))
        read = buchberger(gens, getattr(MonomialOrder, order)())
        generators = read.generators
        unread = buchberger(gens, getattr(MonomialOrder, order)())
        assert "generators" not in vars(unread)
        assert read == unread and unread == read
        size, digest = self.RECORDED[text, order]
        assert len(unread) == len(read) == len(generators) == size
        assert hashlib.sha256(repr(unread).encode()).hexdigest()[:16] \
            == digest
        assert unread.generators == generators
        assert tuple(unread) == generators

    def test_bases_that_differ_compare_unequal(self):
        gens = tjurina_generators(poly("z^2+y^3+x^10+x^7*y"))
        a = buchberger(gens)
        assert a != buchberger(gens, LEX)
        assert a != buchberger(gens[1:])
        ring = ("u", "v", "w")
        assert buchberger([Polynomial({(1, 0, 0): 1}, VARS)]) \
            != buchberger([Polynomial({(1, 0, 0): 1}, ring)])
        # the same ideal from other generators is the same reduced basis
        assert buchberger([poly("x+y"), poly("y")]) \
            == buchberger([poly("x"), poly("x-y")])

    def test_zero_ideal(self):
        gb = buchberger([poly("0")])
        assert len(gb) == 0 and gb.variables == VARS
        assert gb.generators == () and repr(gb) == "GroebnerBasis[grevlex]({})"
        with pytest.raises(ValueError):
            buchberger([])


class TestBuchbergerPostconditions:
    def test_all_spairs_reduce_to_zero(self, corpus_bases):
        for basis in corpus_bases:
            assert spairs_reduce_to_zero(basis)

    # the two inputs whose support certifies no Newton number: their mu
    # comes from the Lazard basis, in _lazard_basis's weighted order
    LAZARD_TEXTS = ("(x+y)^2+z^4+y^3+y^2*z^2",
                    "x^2*y+y^4+z^3+x^3*y^2+x*z^4-y^3*z^2")

    def test_reduced_basis_shape(self, corpus_bases):
        lazard = [_lazard_basis(jacobian(poly(t))) for t in self.LAZARD_TEXTS]
        for basis in corpus_bases + lazard:
            kind, weights = basis.order.kind, basis.order.weights
            leads = basis.leading_exponents()
            # no lead divides another
            for i, a in enumerate(leads):
                for j, b in enumerate(leads):
                    if i != j:
                        assert not divides(a, b)
            # monic in the basis' own order, and fully inter-reduced: on
            # division by the other generators each is its own remainder
            for k, g in enumerate(basis.generators):
                terms = g.term_map()
                lead_exp = basis._raw[k][0][0]
                assert lead_exp == max(
                    terms, key=lambda e: reference_key(e, kind, weights))
                assert terms[lead_exp] == 1
                others = basis._raw[:k] + basis._raw[k + 1:]
                assert reference_remainder(terms.items(), others, kind,
                                           weights) == terms
