import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bassinv import kernel
from bassinv.errors import StaircaseLimitError
from bassinv.groebner import (MonomialOrder, buchberger, normal_form,
                              quotient_dimension, staircase,
                              supported_only_at_origin)
from bassinv.polynomials import Polynomial, WeightSystem, parse

from conftest import CORPUS_TEXTS, VARS, jacobian, poly, tjurina_generators

GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


def gens_of(basis):
    return {str(g) for g in basis.generators}


ORDERS = [MonomialOrder.grevlex(), MonomialOrder.lex(),
          MonomialOrder.weighted((3, 10, 15))]
exps = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))


class TestOrderAxioms:
    @given(exps, exps, exps)
    @settings(max_examples=80, deadline=None)
    def test_multiplicative_and_total(self, u, v, w):
        for order in ORDERS:
            ku, kv = order.key(u), order.key(v)
            # total: distinct monomials compare strictly
            assert (ku == kv) == (u == v)
            # multiplicative: comparison survives multiplication by w
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert (ku < kv) == (order.key(uw) < order.key(vw))

    @given(exps)
    @settings(max_examples=40, deadline=None)
    def test_one_is_minimal(self, u):
        for order in ORDERS:
            if u != (0, 0, 0):
                assert order.key((0, 0, 0)) < order.key(u)


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
        assert gb.is_zero_ideal()
        assert quotient_dimension(gb) is None
        p = poly("x^2+y")
        assert normal_form(p, gb) == p

    def test_unit_ideal(self):
        gb = buchberger([poly("x"), poly("x+1")])
        assert gens_of(gb) == {"1"}
        assert quotient_dimension(gb) == 0

    def test_generator_order_does_not_matter(self):
        gens = tjurina_generators(poly("z^2+y^3+x^10+x^7*y"))
        a = buchberger(gens)
        b = buchberger(list(reversed(gens)))
        assert a.generators == b.generators

    def test_deterministic_repr(self):
        gens = tjurina_generators(poly("z^2+y^3+x^10+x^7*y"))
        assert repr(buchberger(gens)) == repr(buchberger(gens))

    def test_mixed_rings_rejected(self):
        with pytest.raises(ValueError):
            buchberger([poly("x"), parse("u", ("u", "v"))])


class TestNormalForm:
    def test_membership(self, corpus_bases):
        for basis in corpus_bases:
            for g in basis.generators:
                assert normal_form(g, basis).is_zero()

    def test_one_survives_proper_ideal(self):
        gb = buchberger([poly("z"), poly("y^2"), poly("x^9")])
        assert normal_form(poly("1"), gb) == poly("1")

    def test_single_division_step(self):
        gb = buchberger([poly("z"), poly("y^2"), poly("x^9")])
        assert normal_form(poly("x^9+x"), gb) == poly("x")

    def test_exact_rational_scaling(self):
        gb = buchberger([poly("2x - 3y")])
        # NF is linear and exact: reduce 5x and compare against 15/2 y
        assert normal_form(poly("5x"), gb) == poly("15/2*y")

    def test_idempotent(self, corpus_bases):
        probe = poly("x^5*y^2 + 1/3*x*y*z^3 - 7*z^8 + x - 2")
        for basis in corpus_bases:
            once = normal_form(probe, basis)
            assert normal_form(once, basis) == once

    def test_random_combinations_reduce_to_zero(self, corpus_bases):
        rng = random.Random(20260810)
        monos = [poly(m) for m in ("1", "x", "y", "z", "x*y", "z^2")]
        for basis in corpus_bases[:6]:
            for _ in range(3):
                combo = Polynomial.zero(VARS)
                for g in basis.generators:
                    c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    combo = combo + g * rng.choice(monos) * c
                assert normal_form(combo, basis).is_zero()


class TestStaircase:
    def test_paper_staircase_18(self):
        gb = buchberger([poly("z"), poly("y^2"), poly("x^9")])
        s = staircase(gb)
        assert s.size == 18
        expected = {(i, j, 0) for i in range(9) for j in range(2)}
        assert set(s.monomials) == expected

    def test_maximal_ideal(self):
        gb = buchberger([poly("x"), poly("y"), poly("z")])
        assert staircase(gb).monomials == ((0, 0, 0),)

    def test_positive_dimensional_is_infinite(self):
        gb = buchberger([poly("x")])
        s = staircase(gb)
        assert not s.is_finite
        assert s.size is None
        assert quotient_dimension(gb) is None

    def test_dimension_matches_order(self, corpus_polys):
        for f in corpus_polys:
            gens = tjurina_generators(f)
            d1 = quotient_dimension(buchberger(gens, GREVLEX))
            d2 = quotient_dimension(buchberger(gens, LEX))
            assert d1 == d2

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "5")
        gb = buchberger([poly("z"), poly("y^2"), poly("x^9")])
        with pytest.raises(StaircaseLimitError):
            staircase(gb)


class TestSupportAtOrigin:
    def test_monomial_ideal(self):
        gb = buchberger([poly("z"), poly("y^2"), poly("x^9")])
        assert supported_only_at_origin(gb, quotient_dimension(gb))

    def test_translated_point(self):
        gb = buchberger([poly("x-1"), poly("y"), poly("z")])
        assert not supported_only_at_origin(gb, quotient_dimension(gb))

    def test_tjurina_ideal_of_deformed_fiber(self):
        gb = buchberger(tjurina_generators(poly("z^2+y^3+x^10+x^7*y")))
        assert supported_only_at_origin(gb, quotient_dimension(gb))

    def test_jacobian_ideal_of_deformed_fiber_is_not(self):
        gb = buchberger(jacobian(poly("z^2+y^3+x^10+x^7*y")))
        assert not supported_only_at_origin(gb, quotient_dimension(gb))

    def test_infinite_dimension_rejected(self):
        gb = buchberger([poly("x")])
        with pytest.raises(ValueError):
            supported_only_at_origin(gb, quotient_dimension(gb))

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    def test_nilpotency_index_past_staircase_degree(self, order):
        # grevlex staircase {1, x, y}, but y^2 = x and y^3 is the first
        # power of y in the ideal
        gb = buchberger([poly("x-y^2"), poly("y^3"), poly("z")], order)
        if order == GREVLEX:
            assert staircase(gb).monomials == ((0, 0, 0), (0, 1, 0),
                                               (1, 0, 0))
        assert supported_only_at_origin(gb, quotient_dimension(gb))

    def test_first_power_at_dimension(self, monkeypatch):
        gb = buchberger([poly("x^5"), poly("y"), poly("z")])
        assert quotient_dimension(gb) == 5
        calls = count_reduce_full(monkeypatch)
        assert supported_only_at_origin(gb, 5)
        assert len(calls) == 3  # m = dim for x, m = 1 for y and z

    def test_one_nilpotent_variable_is_not_enough(self):
        gb = buchberger([poly("x^2"), poly("y^2-y"), poly("z")])
        assert not supported_only_at_origin(gb, quotient_dimension(gb))

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
        dim = quotient_dimension(gb)
        powers = [Polynomial({tuple(dim if j == i else 0 for j in range(3)):
                              1}, VARS) for i in range(3)]
        expected = all(normal_form(p, gb).is_zero() for p in powers)
        assert supported_only_at_origin(gb, dim) == expected

    def test_reduction_count_diagonal(self, monkeypatch):
        # leads x^19, y^20, z^4: every variable is zero at its first step
        gb = buchberger(tjurina_generators(poly("x^20+y^21+z^5")))
        calls = count_reduce_full(monkeypatch)
        assert supported_only_at_origin(gb, quotient_dimension(gb))
        assert len(calls) == 3

    def test_reduction_count_after_dense_change(self, monkeypatch):
        # each x_i lies in the maximal ideal, so x_i^L = 0 for the Loewy
        # length L = 3 + 4 + 5 - 2 = 10 of the Milnor algebra of
        # x^4+y^5+z^6 (here also the Tjurina algebra), which a linear change
        # preserves: at most L steps each
        u, v, w = poly("x+y+z"), poly("x-y+z"), poly("x+y-z")  # det 4
        gb = buchberger(tjurina_generators(u ** 4 + v ** 5 + w ** 6))
        calls = count_reduce_full(monkeypatch)
        assert supported_only_at_origin(gb, quotient_dimension(gb))
        assert len(calls) <= 3 * 10


def count_reduce_full(monkeypatch):
    """From here on, log each kernel reduce_full call in the returned list."""
    impl = kernel.active()
    calls = []

    class Counting:
        def __getattr__(self, name):
            return getattr(impl, name)

        def reduce_full(self, *args):
            calls.append(args[0])
            return impl.reduce_full(*args)

    proxy = Counting()
    monkeypatch.setattr(kernel, "active", lambda: proxy)
    return calls


class TestGradedCount:
    # standard monomials of the weighted basis counted by weighted degree:
    # the Hilbert function of the graded quotient
    def setup_method(self):
        self.ws = WeightSystem((3, 10, 15), 30)
        gb = buchberger(jacobian(poly("z^2+y^3+x^10")),
                        MonomialOrder.weighted(self.ws.weights))
        self.monomials = staircase(gb).monomials

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
        gb = buchberger([], variables=VARS)
        assert len(gb) == 0 and gb.is_zero_ideal()
        assert gb.generators == () and repr(gb) == "GroebnerBasis[grevlex]({})"
        assert gb == buchberger([poly("0")])


class TestBuchbergerPostconditions:
    def test_all_spairs_reduce_to_zero(self, corpus_bases):
        from bassinv import kernel
        impl = kernel.active()
        for basis in corpus_bases:
            code, weights = basis.order.codes()
            raws = basis._raw
            for i in range(len(raws)):
                for j in range(i + 1, len(raws)):
                    s = impl.spoly(raws[i], raws[j], code, weights)
                    reduced, _, _ = impl.reduce_full(s, raws, code, weights)
                    assert reduced == []

    def test_reduced_basis_shape(self, corpus_bases):
        from bassinv import kernel
        impl = kernel.active()
        for basis in corpus_bases:
            leads = basis.leading_exponents()
            # no lead divides another
            for i, a in enumerate(leads):
                for j, b in enumerate(leads):
                    if i != j:
                        assert not impl.exp_divides(a, b)
            # monic (in the basis' own order) and fully inter-reduced
            for k, g in enumerate(basis.generators):
                lead_exp = basis._raw[k][0][0]
                assert g.term_map()[lead_exp] == 1
                others = [r for i, r in enumerate(basis._raw) if i != k]
                for exp in g.term_map():
                    assert not any(impl.exp_divides(r[0][0], exp)
                                   for r in others)
