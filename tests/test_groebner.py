import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bassinv.errors import NotQuasiHomogeneousError, StaircaseLimitError
from bassinv.groebner import (MonomialOrder, buchberger, graded_staircase_count,
                              normal_form, quotient_dimension, staircase,
                              supported_only_at_origin)
from bassinv.polynomials import Polynomial, WeightSystem, parse

from conftest import VARS, jacobian, poly, tjurina_generators

GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


def gens_of(basis):
    return {str(g) for g in basis.generators}


ORDERS = [MonomialOrder.grevlex(), MonomialOrder.lex(),
          MonomialOrder.weighted((3, 10, 15)),
          MonomialOrder.weighted((3, 10, 15), tiebreak="lex")]
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


class TestGradedCount:
    def setup_method(self):
        self.ws = WeightSystem((3, 10, 15), 30)
        self.gb = buchberger(jacobian(poly("z^2+y^3+x^10")),
                             MonomialOrder.weighted(self.ws.weights))

    def test_paper_pg_count(self):
        assert graded_staircase_count(self.gb, self.ws, 2) == 1

    def test_negative_cutoff(self):
        assert graded_staircase_count(self.gb, self.ws, -1) == 0

    def test_large_cutoff_gives_whole_staircase(self):
        # max weighted degree of the 18 standard monomials: x^8 y has 34
        assert graded_staircase_count(self.gb, self.ws, 34) == 18
        assert graded_staircase_count(self.gb, self.ws, 33) == 17

    def test_non_homogeneous_generator_reported(self):
        gb = buchberger([poly("x^2 + y")],
                        MonomialOrder.weighted((3, 10, 15)))
        with pytest.raises(NotQuasiHomogeneousError):
            graded_staircase_count(gb, self.ws, 5)

    def test_incompatible_order_rejected(self):
        gb = buchberger(jacobian(poly("z^2+y^3+x^10")))
        with pytest.raises(ValueError):
            graded_staircase_count(gb, self.ws, 2)

    def test_hilbert_count_independent_of_tiebreak(self):
        # the count is the graded quotient's Hilbert function, so any
        # weight-compatible order must give the same numbers
        gens = jacobian(poly("z^2+y^3+x^10"))
        alt = buchberger(gens, MonomialOrder.weighted(self.ws.weights,
                                                      tiebreak="lex"))
        for cutoff in range(-1, 35):
            assert (graded_staircase_count(self.gb, self.ws, cutoff)
                    == graded_staircase_count(alt, self.ws, cutoff))


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
