import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bassinv import cli, groebner, polynomials, singularity
from bassinv.errors import (NotIsolatedError, SingularLocusNotAtOriginError,
                            SmoothInput, StaircaseLimitError)
from bassinv.groebner import (MonomialOrder, buchberger, staircase,
                              supported_only_at_origin)
from bassinv.polynomials import (Polynomial, WeightSystem,
                                 _difference_nullspace, find_weights,
                                 linear_jacobian_multipliers, parse,
                                 positive_rational_eigenvalues,
                                 substitute_parameter)
from bassinv.singularity import (_graded_length, _local_staircase,
                                 _newton_milnor, analyze, jacobian_ideal)

from conftest import (CORPUS_TEXTS, NONSCALING, VARS, WAHL_FAMILY, counting,
                      local_monomials, poly, rational, standard_monomials)


def outcome(f, order):
    """analyze's profile of f, or its rejection as (type, message)."""
    try:
        return analyze(f, order)
    except (NotIsolatedError, SingularLocusNotAtOriginError,
            SmoothInput) as exc:
        return type(exc), str(exc)


def certified_tau(f, order=MonomialOrder.grevlex()):
    """tau on the certification basis of (f) + J, with its support test."""
    basis = buchberger([f] + jacobian_ideal(f), order)
    tau = staircase(basis).size
    assert supported_only_at_origin(basis, tau)
    return tau


def staircase_genus(monomials, ws):
    """Monomials of weighted degree <= d - (w1+w2+w3) on a finite staircase.

    p_g counted monomial by monomial, an oracle for the engine's lattice
    count: the Jacobian ideal of a quasi-homogeneous f is weighted-
    homogeneous, and primary to the maximal ideal when the singularity is
    isolated, so the standard monomials of any monomial order, local ones
    included, have the graded quotient's Hilbert function.
    """
    assert monomials is not None
    cutoff = ws.degree - sum(ws.weights)
    return sum(1 for m in monomials if ws.weighted_degree(m) <= cutoff)


def truncated_dimension(gens, n):
    """dim Q[x,y,z]/(gens + m^n), m = (x, y, z).

    m is nilpotent on the origin-local factor and a unit on the others, so
    this equals the origin-local length once n reaches the nilpotency index
    at the origin; the global quotient dimension bounds that index.
    """
    extra = [Polynomial({(a, b, n - a - b): Fraction(1)}, VARS)
             for a in range(n + 1) for b in range(n + 1 - a)]
    return staircase(buchberger(gens + extra)).size


BP_SHAPES = st.sampled_from([(2, 3, 5), (3, 3, 3), (2, 3, 4)])
MATRIX_ENTRIES = st.lists(st.integers(-1, 1), min_size=9, max_size=9)


def brieskorn_pham_after_change(shape, entries):
    """x^a+y^b+z^c after the linear change whose rows are `entries`.

    Rejects (hypothesis assume) a singular matrix.
    """
    m = [entries[0:3], entries[3:6], entries[6:9]]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assume(det != 0)
    coords = [Polynomial.variable(v, VARS) for v in VARS]
    new = [sum((c * x for c, x in zip(row, coords)), Polynomial.zero(VARS))
           for row in m]
    a, b, c = shape
    return new[0] ** a + new[1] ** b + new[2] ** c


# x^a+y^b+z^c + q*x^i*y^j*z^k with i/a+j/b+k/c > 1: mu is the Newton
# number (a-1)(b-1)(c-1), but the Jacobian quotient has points away from the
# origin, so tau comes from the certification basis
NONQH_LADDER = (
    ("x^6+y^5+z^3+3/7*x^4*y^2", (6, 5, 3)),
    ("x^4+y^5+z^6-5*x^2*y^2*z", (4, 5, 6)),
    ("x^7+y^8+z^3+x^5*y^3", (7, 8, 3)),
    ("x^9+y^10+z^3+2*x^6*y^4", (9, 10, 3)),
    ("x^12+y^13+z^3-1/2*x^9*y^4", (12, 13, 3)),
)


# quasi-homogeneous after a linear change that find_weights does not see:
# linear Jacobian multipliers exist, and mu = tau
LINEAR_CHANGES_MU = (
    ("(x+y)^2+z^3+y^5", 8),
    ("(x+y)^2+(x-y)^3+z^4", 6),
)
LINEAR_CHANGES = tuple(text for text, _ in LINEAR_CHANGES_MU)

# graded, after dense changes with entries +-1 (the kind the benchmark's
# dense-forms workload draws): x^4+y^5+z^6 after
# [[-1, 1, 1], [1, -1, 1], [1, 1, -1]], whose Jacobian multipliers have
# eigenvalues 1/4, 1/5, 1/6, and x^5+y^5+z^5 after
# [[1, 1, 1], [-1, -1, 1], [-1, 1, 1]], which stays graded of weights 1
DENSE_CHANGES = (
    "(-x+y+z)^4+(x-y+z)^5+(x+y-z)^6",
    "(x+y+z)^5+(-x-y+z)^5+(-x+y+z)^5",
)

# no linear Jacobian multipliers, but a principal part.  The last two have
# mu = tau even so, and the last is quasi-homogeneous after a change of
# coordinates that is not linear: the multiplier certificate is sufficient,
# not necessary.  The principal part of x^2*y+y^4+z^3 has no pure power of
# x, so that input certifies no Newton number
PRINCIPAL_PART_INPUTS = tuple(
    (text, (a - 1) * (b - 1) * (c - 1)) for text, (a, b, c) in NONQH_LADDER
) + (
    ("z^2+y^3+x^10+x^7*y", 18),
    ("x^2*y+y^4+z^3+x^3*y^2+x*z^4-y^3*z^2", 10),
    ("x*y+z^2+x^3+y^3", 1),
    ("x^2+y^2+z^2-x^3", 1),
    ("(x+y^2)^2+y^3+z^5", 8),
)

# neither multipliers nor a principal part: T_{3,4,5}, and the supports of
# random-set draws 2, 9, 11 and 14 with unit coefficients (draws 2 and 11
# less one term, which keeps their certification to milliseconds), which
# certify their Newton numbers
LAZARD_INPUTS = (
    ("x^3+y^4+z^5+x*y*z", 11),
    ("x^2*y^4*z+z^7+x^3+y^3-x^2*z^2", 22),
    ("x^2*y^3*z^3+y^7+x^6+x^4*y^2+z^6+z^3", 56),
    ("x^3*y^4*z^3+x^7-x^3*y^2+y^4+z^3", 32),
    ("x^6+x*y^2*z^2+y^4+z^4+x*y*z", 13),
    # a grading, weights (2, 2, 1) and degree 4, whose f_0 = (x+y)^2+z^4
    # is not isolated; x^2, x*y, y^2 and z^4 lie on one compact facet
    ("(x+y)^2+z^4+y^3+y^2*z^2", 6),
)

# the inputs above whose support certifies no Newton number
NOT_CERTIFIED = ("(x+y)^2+z^4+y^3+y^2*z^2",
                 "x^2*y+y^4+z^3+x^3*y^2+x*z^4-y^3*z^2")


class TestJacobianIdeal:
    def test_graded_fiber(self):
        assert jacobian_ideal(poly("z^2+y^3+x^10")) == \
            [poly("10x^9"), poly("3y^2"), poly("2z")]

    def test_deformed_fiber(self):
        assert jacobian_ideal(poly("z^2+y^3+x^10+x^7*y")) == \
            [poly("10x^9+7x^6*y"), poly("3y^2+x^7"), poly("2z")]

    def test_constant(self):
        assert jacobian_ideal(poly("5")) == [poly("0")] * 3

    def test_wrong_variable_count(self):
        family = parse("z^2+y^3+x^10+t*x^7*y", VARS + ("t",))
        for f in (parse("u^2", ("u",)), family):
            with pytest.raises(ValueError):
                jacobian_ideal(f)


class TestMilnor:
    def test_a1(self):
        assert analyze(poly("x^2+y^2+z^2")).milnor == 1

    def test_graded_fiber(self):
        assert analyze(poly("z^2+y^3+x^10")).milnor == 18

    def test_deformed_fiber_frozen_regression(self):
        # derived value, frozen: the origin-local factor of the Jacobian
        # quotient (the global quotient has dimension 19, one extra critical
        # point of f away from the surface); confirmed by the truncation
        # oracle below
        assert analyze(poly("z^2+y^3+x^10+x^7*y")).milnor == 18

    def test_truncation_oracle_for_local_factor(self):
        # independent route: dim Q[x,y,z]/(J + m^N) stabilizes at the local
        # dimension once N exceeds the nilpotency index at the origin
        gens = jacobian_ideal(poly("z^2+y^3+x^10+x^7*y"))
        assert truncated_dimension(gens, 19) == \
            truncated_dimension(gens, 20) == 18

    def test_local_factor_splits_translated_point(self):
        # ideal (x^2 - x, y, z) sits at the origin and at (1,0,0); the local
        # factor at the origin is one-dimensional
        gens = [poly("x^2-x"), poly("y"), poly("z")]
        assert staircase(buchberger(gens)).size == 2
        assert _local_staircase(gens).size == 1

    def test_local_factor_equals_global_when_origin_only(self):
        gens = [poly("2z"), poly("3y^2"), poly("10x^9")]
        assert _local_staircase(gens).size == 18

    @pytest.mark.parametrize("order", [MonomialOrder.grevlex(),
                                       MonomialOrder.lex()],
                             ids=["grevlex", "lex"])
    @pytest.mark.parametrize("text,shape", NONQH_LADDER)
    def test_nonqh_ladder_closed_form(self, text, shape, order):
        f = poly(text)
        basis = buchberger(jacobian_ideal(f))
        assert not supported_only_at_origin(basis, staircase(basis).size)
        a, b, c = shape
        assert analyze(f, order).milnor == (a - 1) * (b - 1) * (c - 1)

    @given(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3),
           st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
           st.fractions(min_value=-3, max_value=3, max_denominator=3))
    @settings(max_examples=25, deadline=None)
    def test_local_length_matches_truncation_oracle(self, a, b, c, i, j, k,
                                                    q):
        assume(q != 0)
        f = poly(f"x^{a}+y^{b}+z^{c}") + Polynomial({(i, j, k): q}, VARS)
        gens = jacobian_ideal(f)
        basis = buchberger(gens)
        dim = staircase(basis).size
        assume(dim is not None and not supported_only_at_origin(basis, dim))
        assert _local_staircase(gens).size == truncated_dimension(gens, dim)

    # Kouchnirenko (1976): for a convenient, Newton non-degenerate f,
    # mu = 3!V3 - 2!V2 + V1 - 1, with V3 the volume under the Newton
    # diagram, V2 the areas it cuts off the coordinate planes and V1 the
    # lengths on the axes.  Each compact face below is a simplex whose only
    # support points are its vertices, so f is non-degenerate.
    #   x^20+y^21+z^3+x^5*y^5: faces (20,0,0),(5,5,0),(0,0,3) and
    #     (5,5,0),(0,21,0),(0,0,3); 3!V3 = 300 + 315 = 615,
    #     2!V2 = (100 + 105) + 60 + 63 = 328, V1 = 44: mu = 330.
    #   x^3+y^4+z^5+x*y*z: faces (1,1,1) with two of (3,0,0),(0,4,0),
    #     (0,0,5); 3!V3 = 12 + 20 + 15 = 47, 2!V2 = 12 + 20 + 15 = 47,
    #     V1 = 12: mu = 11.
    @pytest.mark.parametrize("text,mu", [("x^20+y^21+z^3+x^5*y^5", 330),
                                         ("x^3+y^4+z^5+x*y*z", 11)])
    def test_kouchnirenko_newton_number(self, text, mu):
        f = poly(text)
        assert linear_jacobian_multipliers(f) is None  # the Newton route
        assert analyze(f).milnor == mu

    def test_local_staircase_honours_cap(self, monkeypatch):
        gens = jacobian_ideal(poly("z^2+y^3+x^10+x^7*y"))
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "17")
        with pytest.raises(StaircaseLimitError):
            _local_staircase(gens)
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "18")
        assert _local_staircase(gens).size == 18


class TestMilnorOrlikOracle:
    """Closed forms that share no code with the local standard basis."""

    def test_quasi_homogeneous_corpus(self, corpus_polys):
        graded = [(f, ws) for f in corpus_polys
                  if (ws := find_weights(f)) is not None]
        assert len(graded) == len(corpus_polys) - 1  # all but the deformed
        for f, ws in graded:
            expected = Fraction(1)
            for w in ws.weights:
                expected *= Fraction(ws.degree, w) - 1
            assert analyze(f).milnor == expected

    @given(BP_SHAPES, MATRIX_ENTRIES)
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_brieskorn_pham_after_linear_change(self, shape, entries):
        f = brieskorn_pham_after_change(shape, entries)
        a, b, c = shape
        mu = (a - 1) * (b - 1) * (c - 1)
        assert analyze(f).milnor == mu
        # analyze reads mu = tau off the linear multipliers here: recheck
        # them by Polynomial arithmetic alone, and keep the Lazard path,
        # which analyze no longer takes on these inputs, under the oracle
        m = rational(linear_jacobian_multipliers(f))
        assert m is not None
        coords = [Polynomial.variable(v, VARS) for v in VARS]
        partials = jacobian_ideal(f)
        assert sum((m[i][j] * coords[j] * partials[i]
                    for i in range(3) for j in range(3)),
                   Polynomial.zero(VARS)) == f
        assert _local_staircase(partials).size == mu

    @given(BP_SHAPES, MATRIX_ENTRIES,
           st.sampled_from([MonomialOrder.grevlex(), MonomialOrder.lex()]))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_tjurina_after_linear_change(self, shape, entries, order):
        # quasi-homogeneous, so tau = mu; after the change x_i^m no longer
        # reduces to 0 at once, so the support test has to step past it
        f = brieskorn_pham_after_change(shape, entries)
        a, b, c = shape
        assert certified_tau(f, order) == (a - 1) * (b - 1) * (c - 1)


class TestTjurina:
    def test_graded_fiber(self):
        assert certified_tau(poly("z^2+y^3+x^10")) == 18

    @pytest.mark.parametrize("a", [1, 2, Fraction(1, 2), -3])
    def test_deformed_fiber(self, a):
        fam = parse("z^2+y^3+x^10+t*x^7*y", VARS + ("t",))
        assert certified_tau(substitute_parameter(fam, "t", a)) == 16

    def test_a1(self):
        assert certified_tau(poly("x^2+y^2+z^2")) == 1

    def test_lex_gives_same_values(self):
        assert certified_tau(poly("z^2+y^3+x^10+x^7*y"),
                             MonomialOrder.lex()) == 16


class TestGeometricGenus:
    def test_paper_value(self):
        p = analyze(poly("z^2+y^3+x^10"))
        assert (p.weights, p.p_g) == (WeightSystem((3, 10, 15), 30), 1)

    def test_a1_is_zero(self):
        assert analyze(poly("x^2+y^2+z^2")).p_g == 0

    def test_e12(self):
        # weights (6,14,21), d = 42, cutoff 1: only the constant monomial
        f = poly("z^2+y^3+x^7")
        ws = find_weights(f)
        assert ws == WeightSystem((6, 14, 21), 42)
        assert analyze(f).p_g == 1
        # cross-check by explicit enumeration of staircase degrees
        gb = buchberger(jacobian_ideal(f), MonomialOrder.weighted(ws.weights))
        degs = sorted(ws.weighted_degree(m) for m in standard_monomials(gb))
        assert sum(1 for d in degs if d <= 1) == 1

    def test_cutoff_override(self):
        # the cutoff is d - (w1+w2+w3): degrees 27 and 62 on the weights
        # (3, 10, 15) move it to -1 and to 34, the top degree (x^8 y)
        stairs = local_monomials(jacobian_ideal(poly("z^2+y^3+x^10")))
        assert staircase_genus(stairs, WeightSystem((3, 10, 15), 27)) == 0
        assert staircase_genus(stairs, WeightSystem((3, 10, 15), 62)) == 18
        assert staircase_genus(stairs, WeightSystem((3, 10, 15), 61)) == 17
        # the engine's lattice count takes the cutoff as its budget.  It
        # counts every monomial, so it agrees with the staircase below 15,
        # the least weighted degree d - w_i of a partial (z), and not past it
        lattice = singularity._lattice_genus
        assert lattice((3, 10, 15), 27 - 28) == 0
        assert lattice((3, 10, 15), 30 - 28) == 1
        assert lattice((3, 10, 15), 14) == staircase_genus(
            stairs, WeightSystem((3, 10, 15), 14 + 28)) == 7
        assert lattice((3, 10, 15), 15) == 9 != staircase_genus(
            stairs, WeightSystem((3, 10, 15), 15 + 28))

    @pytest.mark.parametrize("text", [t for t in CORPUS_TEXTS
                                      if find_weights(poly(t)) is not None])
    def test_local_count_matches_global_orders(self, text):
        # the Jacobian ideal is weighted-homogeneous, so the standard
        # monomials of every order have its Hilbert function: the counts up
        # to each weighted degree agree between the local staircase and the
        # global bases
        f = poly(text)
        ws = find_weights(f)
        gens = jacobian_ideal(f)
        local = local_monomials(gens)
        assert _local_staircase(gens).size == len(local)
        stairs = [standard_monomials(buchberger(gens, order))
                  for order in (MonomialOrder.grevlex(), MonomialOrder.lex(),
                                MonomialOrder.weighted(ws.weights))]

        def count(monomials, cutoff):
            return sum(1 for m in monomials
                       if ws.weighted_degree(m) <= cutoff)

        top = max(ws.weighted_degree(m) for m in local)
        for cutoff in range(-1, top + 1):
            expected = count(local, cutoff)
            assert [count(m, cutoff) for m in stairs] == [expected] * 3
        p = analyze(f)
        assert count(local, top) == len(local) == p.milnor
        assert p.p_g == count(local, ws.degree - sum(ws.weights))

    def test_not_isolated_rejected(self):
        with pytest.raises(NotIsolatedError):
            analyze(poly("x^2+y^2"))

    def test_cap_applies_before_the_lattice_count(self, monkeypatch):
        # tau = 99999^3 and p_g about 1.7e14: the cap stops the count,
        # which makes about budget^2/2 calls
        f = poly("x^100000+y^100000+z^100000")
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "1000")
        with pytest.raises(StaircaseLimitError,
                           match=r"enumeration cap \(1000\)"):
            analyze(f)


class TestAnalyze:
    def test_graded_fiber_profile(self):
        p = analyze(poly("z^2+y^3+x^10"))
        assert (p.milnor, p.tjurina) == (18, 18)
        assert p.weights == WeightSystem((3, 10, 15), 30)
        assert p.p_g == 1
        assert cli._profile_json(p)["torsion_omega2_length"] == 18
        assert cli._profile_json(p)["omega3_length"] == 18

    def test_deformed_fiber_profile(self):
        p = analyze(poly("z^2+y^3+x^10+x^7*y"))
        assert (p.milnor, p.tjurina) == (18, 16)
        assert p.weights is None and p.p_g is None
        assert cli._profile_json(p)["torsion_omega2_length"] == 16
        assert cli._profile_json(p)["omega3_length"] == 16

    def test_a1_profile(self):
        p = analyze(poly("x^2+y^2+z^2"))
        assert (p.milnor, p.tjurina, p.p_g) == (1, 1, 0)
        assert p.weights == WeightSystem((1, 1, 1), 2)

    def test_tau_le_mu(self, corpus_polys):
        for f in corpus_polys:
            p = analyze(f)
            assert p.tjurina <= p.milnor

    def test_quasi_homogeneous_means_tau_equals_mu(self, corpus_polys):
        for f in corpus_polys:
            p = analyze(f)
            if p.weights is not None:
                assert p.tjurina == p.milnor

    @pytest.mark.parametrize("c", [2, -3, Fraction(1, 2)])
    def test_scaling_invariance(self, c):
        f = poly("z^2+y^3+x^10+x^7*y")
        a, b = analyze(f), analyze(f * c)
        assert (a.milnor, a.tjurina, a.weights, a.p_g) == \
            (b.milnor, b.tjurina, b.weights, b.p_g)

    # buchberger calls and kernel calls (reduce_full, spoly,
    # enumerate_staircase) that analyze makes: a quasi-homogeneous input,
    # and a linear change of one whose Jacobian multipliers have positive
    # rational eigenvalues, take one Buchberger run on the partials, stopped
    # as soon as its leads hold a pure power of every variable, and no
    # staircase; the deformed fiber, whose mu is its Newton number, takes
    # the certification basis, its staircase and support test only.  Its
    # 19 reduce_full calls are 4 on the generators, 8 on the S-polynomials,
    # 4 to inter-reduce the 5 basis elements (each but the one with the
    # smallest lead, against the smaller leads only) and 3 in the support
    # test.  A faster kernel must make these 19 calls, only cheaper.
    ENGINE_CALLS = {
        ("x^2+y^2+z^2", "grevlex"): (1, 3, 0, 0),
        ("x^2+y^2+z^2", "lex"): (1, 3, 0, 0),
        ("z^2+y^3+x^10", "grevlex"): (1, 3, 0, 0),
        ("z^2+y^3+x^10", "lex"): (1, 3, 0, 0),
        ("z^2+y^3+x^10+x^7*y", "grevlex"): (1, 19, 8, 1),
        ("z^2+y^3+x^10+x^7*y", "lex"): (1, 19, 8, 1),
        ("z^2+y^3+x^7", "grevlex"): (1, 3, 0, 0),
        ("z^2+y^3+x^7", "lex"): (1, 3, 0, 0),
        ("x^3+y^4+z^5", "grevlex"): (1, 3, 0, 0),
        ("x^3+y^4+z^5", "lex"): (1, 3, 0, 0),
        ("x^2+y^3+z^3", "grevlex"): (1, 3, 0, 0),
        ("x^2+y^3+z^3", "lex"): (1, 3, 0, 0),
        ("x^3+y^3+z^3+x*y*z", "grevlex"): (1, 7, 4, 0),
        ("x^3+y^3+z^3+x*y*z", "lex"): (1, 7, 5, 0),
        ("(x+y)^2+z^3+y^5", "grevlex"): (1, 3, 0, 0),
        ("(x+y)^2+z^3+y^5", "lex"): (1, 3, 0, 0),
        ("(x+y)^2+(x-y)^3+z^4", "grevlex"): (1, 4, 1, 0),
        ("(x+y)^2+(x-y)^3+z^4", "lex"): (1, 4, 1, 0),
        (DENSE_CHANGES[0], "grevlex"): (1, 10, 7, 0),
        (DENSE_CHANGES[0], "lex"): (1, 10, 7, 0),
        (DENSE_CHANGES[1], "grevlex"): (1, 15, 12, 0),
        (DENSE_CHANGES[1], "lex"): (1, 15, 12, 0),
    }

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("text",
                             CORPUS_TEXTS + LINEAR_CHANGES + DENSE_CHANGES)
    def test_call_counts(self, text, order, engine_calls):
        analyze(poly(text), getattr(MonomialOrder, order)())
        # no Polynomial partials, since the Jacobian generators are derived
        # on f's packing, and no monic generators: analyze reads only leads
        # and term lists
        assert engine_calls["partial_derivative"] == 0
        assert engine_calls["_monic_from_raw"] == 0
        assert tuple(engine_calls[name] for name in (
            "buchberger", "reduce_full", "spoly", "enumerate_staircase")) \
            == self.ENGINE_CALLS[text, order]

    @pytest.mark.parametrize("text,mu", LINEAR_CHANGES_MU)
    def test_linear_change_takes_mu_from_multipliers(self, text, mu):
        f = poly(text)
        assert find_weights(f) is None
        assert linear_jacobian_multipliers(f) is not None
        p = analyze(f)
        assert (p.milnor, p.tjurina, p.weights, p.p_g) == (mu, mu, None, None)
        assert _local_staircase(jacobian_ideal(f)).size == mu

    @pytest.mark.parametrize("text,mu",
                             LAZARD_INPUTS + PRINCIPAL_PART_INPUTS)
    def test_no_multipliers_takes_lazard_path(self, text, mu, monkeypatch,
                                              engine_calls):
        # without multipliers, the Lazard basis runs exactly when the
        # support certifies no Newton number, and once the Newton route is
        # made to certify nothing it gives the Newton number on every input
        f = poly(text)
        assert find_weights(f) is None
        assert linear_jacobian_multipliers(f) is None
        lazard = text in NOT_CERTIFIED
        assert analyze(f).milnor == mu
        assert engine_calls["_lazard_basis"] == lazard
        monkeypatch.setattr(singularity, "_newton_milnor",
                            lambda *args: None)
        assert analyze(f).milnor == mu
        assert engine_calls["_lazard_basis"] == 1 + lazard

    def test_variable_permutation_invariance(self):
        a = analyze(poly("z^2+y^3+x^10"))
        b = analyze(poly("x^2+z^3+y^10"))
        c = analyze(poly("y^2+x^3+z^10"))
        assert a.milnor == b.milnor == c.milnor == 18
        assert a.tjurina == b.tjurina == c.tjurina == 18
        assert a.p_g == b.p_g == c.p_g == 1
        assert sorted(b.weights.weights) == sorted(a.weights.weights)

    @pytest.mark.parametrize("text", [
        "z^2+y^3+x^10",                # graded
        "(x+y)^2+z^3+y^5",             # the eigenvalues of A
        "(2*x)^2+(2*x-y)^2+(-y-z)^4",  # an A, but no Euler route
        "z^2+y^3+x^10+x^7*y",          # the Newton number
    ])
    def test_builds_no_fraction(self, text, monkeypatch):
        # every route of these inputs runs on integers from the parsed f to
        # the profile; Fraction arithmetic builds its results through
        # _from_coprime_ints from Python 3.12 on, and through __new__ before
        f = poly(text)
        counts = Counter()
        for name, kind in (("__new__", staticmethod),
                           ("_from_coprime_ints", classmethod)):
            if name in vars(Fraction):
                monkeypatch.setattr(Fraction, name, kind(counting(
                    counts, name, vars(Fraction)[name].__func__)))
        assert Fraction(1, 2) * 3 == Fraction(3, 2) and counts
        counts.clear()
        analyze(f)
        assert counts == Counter()


@pytest.fixture
def engine_calls(monkeypatch, kernel_calls):
    """kernel_calls, also counting partial_derivative, buchberger,
    _lazard_basis and _monic_from_raw under every name the engine calls
    them by; a jacobian_basis call counts as a buchberger run."""
    for module, name, counter in (
            (polynomials, "partial_derivative", "partial_derivative"),
            (singularity, "partial_derivative", "partial_derivative"),
            (groebner, "buchberger", "buchberger"),
            (singularity, "buchberger", "buchberger"),
            (groebner, "jacobian_basis", "buchberger"),
            (singularity, "jacobian_basis", "buchberger"),
            (singularity, "_lazard_basis", "_lazard_basis"),
            (groebner, "_monic_from_raw", "_monic_from_raw")):
        monkeypatch.setattr(module, name, counting(
            kernel_calls, counter, getattr(module, name)))
    return kernel_calls


def lattice_genus(a, b, c):
    """#{(i, j, k) >= 1 : i/a + j/b + k/c <= 1}, p_g of x^a+y^b+z^c."""
    return sum(1 for i in range(1, a) for j in range(1, b)
               for k in range(1, c)
               if Fraction(i, a) + Fraction(j, b) + Fraction(k, c) <= 1)


class TestBrieskornPhamOracle:
    def test_milnor_closed_form(self):
        assert [lattice_genus(*s) for s in
                ((2, 3, 5), (2, 3, 7), (2, 3, 10), (3, 3, 3))] == [0, 1, 1, 1]
        shapes = list(itertools.product(range(2, 6), repeat=3))
        for a, b, c in shapes + [(2, 3, 7), (2, 3, 10), (4, 5, 6)]:
            p = analyze(poly(f"x^{a}+y^{b}+z^{c}"))
            assert p.milnor == (a - 1) * (b - 1) * (c - 1)
            assert p.p_g == lattice_genus(a, b, c)


def graded_weights(shape):
    """Weights and degree of x^a+y^b+z^c: d = lcm(a, b, c), w_i = d/a_i."""
    d = math.lcm(*shape)
    return tuple(d // a for a in shape), d


def permutation_det(m):
    """Determinant by expansion over permutations (small matrices)."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(1 for i in range(len(perm))
                         for j in range(i + 1, len(perm)) if perm[i] > perm[j])
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


@st.composite
def graded_changes(draw, weights):
    """A graded automorphism of Q[x,y,z] for `weights`, as three images.

    x_i goes to a combination of the variables of weight w_i (a linear
    change, invertible on each weight class) plus monomials of weighted
    degree w_i in strictly lighter variables; every image has weighted
    degree w_i, so a weighted-homogeneous f stays weighted-homogeneous.
    """
    coeffs = st.integers(-2, 2)
    classes = {}
    for i, w in enumerate(weights):
        classes.setdefault(w, []).append(i)
    linear = [[0] * 3 for _ in range(3)]
    for members in classes.values():
        block = [[draw(coeffs) for _ in members] for _ in members]
        assume(permutation_det(block) != 0)
        for r, i in enumerate(members):
            for c, j in enumerate(members):
                linear[i][j] = block[r][c]
    coords = [Polynomial.variable(v, VARS) for v in VARS]
    images = []
    for i, w in enumerate(weights):
        image = sum((linear[i][j] * coords[j] for j in range(3)),
                    Polynomial.zero(VARS))
        for e in itertools.product(*[range(w // wj + 1) for wj in weights]):
            if (all(x == 0 or wj < w for x, wj in zip(e, weights))
                    and sum(x * wj for x, wj in zip(e, weights)) == w):
                image = image + Polynomial({e: Fraction(draw(coeffs))},
                                           VARS)
        images.append(image)
    return images


# Brieskorn-Pham shapes whose weights leave room for both kinds of change:
# equal weights (a linear block) and lighter monomials of a variable's
# weight; p_g runs from 0 to 2
GRADED_SHAPES = [(2, 2, 4), (2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 4, 8),
                 (2, 3, 12)]


class TestQuasiHomogeneousShortcut:
    """For graded inputs analyze takes mu = tau and p_g from closed forms.
    Two oracles that do not take that shortcut: the Lazard path (the local
    staircase, then p_g counted on it) and the closed forms of the shapes."""

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("text", [t for t in CORPUS_TEXTS
                                      if find_weights(poly(t)) is not None])
    def test_corpus_matches_lazard_path(self, text, order):
        f = poly(text)
        p = analyze(f, getattr(MonomialOrder, order)())
        partials = jacobian_ideal(f)
        local = local_monomials(partials)
        assert (p.milnor, p.p_g) == (_local_staircase(partials).size,
                                     staircase_genus(local, p.weights))
        assert len(local) == p.milnor

    @given(st.data())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_brieskorn_pham_after_graded_change(self, data):
        shape = data.draw(st.sampled_from(GRADED_SHAPES))
        order = data.draw(st.sampled_from([MonomialOrder.grevlex(),
                                           MonomialOrder.lex()]))
        weights, degree = graded_weights(shape)
        images = data.draw(graded_changes(weights))
        f = sum((image ** a for image, a in zip(images, shape)),
                Polynomial.zero(VARS))
        a, b, c = shape
        p = analyze(f, order)
        assert p.weights == WeightSystem(weights, degree)
        assert p.milnor == p.tjurina == (a - 1) * (b - 1) * (c - 1)
        assert p.p_g == lattice_genus(a, b, c)
        partials = jacobian_ideal(f)
        assert _local_staircase(partials).size == p.milnor
        assert staircase_genus(local_monomials(partials), p.weights) == p.p_g


class TestEulerRoute:
    """tau = mu = prod(d/w_i - 1) and the lattice p_g, against oracles
    that share no code with them: the staircase of a full basis of the
    Jacobian ideal, p_g counted on it monomial by monomial, and the path
    analyze takes when the eigenvalue step fails."""

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("text", [t for t in CORPUS_TEXTS
                                      if find_weights(poly(t)) is not None]
                             + list(LINEAR_CHANGES + DENSE_CHANGES))
    def test_closed_forms_match_the_staircase(self, text, order):
        order = getattr(MonomialOrder, order)()
        f = poly(text)
        p = analyze(f, order)
        basis = buchberger(jacobian_ideal(f), order)
        assert p.milnor == p.tjurina == staircase(basis).size
        if p.weights is not None:
            assert p.p_g == staircase_genus(standard_monomials(basis),
                                            p.weights)

    @given(BP_SHAPES, MATRIX_ENTRIES,
           st.sampled_from([MonomialOrder.grevlex(), MonomialOrder.lex()]))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_tau_after_linear_change_matches_the_staircase(self, shape,
                                                           entries, order):
        f = brieskorn_pham_after_change(shape, entries)
        p = analyze(f, order)
        basis = buchberger(jacobian_ideal(f), order)
        assert p.milnor == p.tjurina == staircase(basis).size
        if p.weights is not None:
            assert p.p_g == staircase_genus(standard_monomials(basis),
                                            p.weights)

    @pytest.mark.parametrize("weights,degree", [
        ((15, 10, 6), 30), ((3, 3, 2), 6), ((2, 2, 1), 2), ((6, 4, 3), 12)])
    def test_graded_length_reads_only_the_ratios(self, weights, degree):
        # an eigenvalue grading (s, den) is not reduced to gcd 1
        length = math.prod(Fraction(degree, w) - 1 for w in weights)
        for k in (1, 2, 3, 7):
            assert _graded_length([k * w for w in weights], k * degree,
                                  100) == length

    @pytest.mark.parametrize("shape", [(2, 3, 5), (2, 3, 4), (3, 4, 5),
                                       (2, 3, 10), (4, 5, 6)])
    def test_eigenvalue_grading_is_the_diagonal_ones(self, shape):
        # the eigenvalues of A for x^a+y^b+z^c after a change of
        # determinant 1 are the weights over the degree that find_weights
        # gives before it
        f = poly("(x+y)^{}+(y+z)^{}+(x+y+z)^{}".format(*shape))
        assert find_weights(f) is None
        grading = positive_rational_eigenvalues(
            *linear_jacobian_multipliers(f))
        ws = find_weights(poly("x^{}+y^{}+z^{}".format(*shape)))
        assert rational(grading) == sorted(
            (Fraction(w, ws.degree) for w in ws.weights), reverse=True)

    def test_repeated_eigenvalue(self, engine_calls):
        # x^4+y^4+z^6 after a dense +-1 change: eigenvalues 1/4, 1/4, 1/6,
        # the repeated one diagonalisable
        f = poly("(x+y+z)^4+(x-y+z)^4+(x+y-z)^6")
        assert find_weights(f) is None
        assert rational(positive_rational_eigenvalues(
            *linear_jacobian_multipliers(f))) == \
            [Fraction(1, 4), Fraction(1, 4), Fraction(1, 6)]
        p = analyze(f)
        assert (p.milnor, p.tjurina, p.weights, p.p_g) == (45, 45, None, None)
        assert (engine_calls["buchberger"],
                engine_calls["enumerate_staircase"]) == (1, 0)
        assert staircase(buchberger(jacobian_ideal(f))).size == 45

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("text", LINEAR_CHANGES + DENSE_CHANGES[:1] + (
        "(x+y+z)^4+(x-y+z)^4+(x+y-z)^6",))
    def test_failed_eigenvalue_step_gives_the_same_profile(self, text, order,
                                                           monkeypatch,
                                                           engine_calls):
        # without eigenvalues analyze certifies (f) + J in full and takes
        # mu = tau from the multipliers, as before the Euler route
        order = getattr(MonomialOrder, order)()
        f = poly(text)
        route = analyze(f, order)
        monkeypatch.setattr(singularity, "positive_rational_eigenvalues",
                            lambda b, den: None)
        engine_calls.clear()
        fallback = analyze(f, order)
        assert engine_calls["enumerate_staircase"] == 1
        assert fallback == route

    # linear changes of A_k singularities, mu(A_k) = k: f lies in its
    # Jacobian ideal with linear multipliers A, but the A that
    # linear_jacobian_multipliers finds fails the eigenvalue step (the
    # second has a zero row), so analyze takes the multiplier route
    # unpatched: the certification basis and its staircase, mu = tau, and
    # no Lazard basis
    MULTIPLIER_ROUTE = (
        ("(2*x+2*y+z)^2+(-x+y+z)^2+(x-y+2*z)^5", 4),
        ("(2*x+2*z)*(2*z)+(2*x-y)^5", 4),
        ("(2*x)^2+(2*x-y)^2+(-y-z)^4", 3),
    )

    @pytest.mark.parametrize("text,k", MULTIPLIER_ROUTE)
    def test_multiplier_route_without_patching(self, text, k, engine_calls):
        f = poly(text)
        a = linear_jacobian_multipliers(f)
        assert find_weights(f) is None and a is not None
        assert positive_rational_eigenvalues(*a) is None
        p = analyze(f)
        assert (p.milnor, p.tjurina, p.weights, p.p_g) == (k, k, None, None)
        assert (engine_calls["buchberger"],
                engine_calls["enumerate_staircase"]) == (1, 1)
        assert _local_staircase(jacobian_ideal(f)).size == k

    def test_cap_applies_to_the_closed_form(self, monkeypatch):
        # tau = 18; a cap of 0 still allows the one monomial 1, as the
        # enumeration does
        f = poly("z^2+y^3+x^10")
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "17")
        with pytest.raises(StaircaseLimitError,
                           match=r"enumeration cap \(17\)"):
            analyze(f)
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "18")
        assert analyze(f).tjurina == 18
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "0")
        assert analyze(poly("x^2+y^2+z^2")).tjurina == 1

    @pytest.mark.parametrize("text", ["x*y", "(x+y)^2*z^2"])
    def test_not_isolated_builds_one_jacobian_basis(self, text,
                                                    engine_calls):
        # the run on the partials ends without pure powers, and its reduced
        # basis, that of (f) + J, lacks a pure power: no second basis
        with pytest.raises(NotIsolatedError):
            analyze(poly(text))
        assert (engine_calls["buchberger"],
                engine_calls["enumerate_staircase"]) == (1, 0)

    def test_smooth_on_the_route(self, engine_calls):
        # weights (2, 2, 1) and degree 2: an eigenvalue 1, the unit ideal
        with pytest.raises(SmoothInput):
            analyze(poly("x+y+z^2"))
        assert (engine_calls["buchberger"],
                engine_calls["enumerate_staircase"]) == (1, 0)

    @pytest.mark.parametrize("shape", [(2, 3, 5), (3, 3, 3), (4, 5, 6),
                                       (2, 3, 10), (20, 21, 5)])
    def test_lattice_genus_of_brieskorn_pham(self, shape):
        p = analyze(poly("x^{}+y^{}+z^{}".format(*shape)))
        assert p.weights == WeightSystem(*graded_weights(shape))
        assert p.p_g == lattice_genus(*shape)


def cramer_degree_one(exps):
    """The lam with e·lam = 1 for each of the n exponents e in n variables,
    by Cramer's rule; None when the system has no unique solution."""
    det = permutation_det(exps)
    if not det:
        return None
    n = len(exps)
    return tuple(Fraction(permutation_det([e[:j] + (1,) + e[j + 1:]
                                           for e in exps]), det)
                 for j in range(n))


class TestPrincipalPart:
    """mu from the Newton principal part: Kouchnirenko's number of a
    convenient support whose compact facets each hold three terms."""

    @pytest.mark.parametrize("text,nu", [
        ("z^2+y^3+x^10+x^7*y", 18),       # x^7*y lies above the one facet
        ("x^3+y^4+z^5+x*y*z", 11),        # three facets through x*y*z
        ("x^20+y^21+z^3+x^5*y^5", 330),
        ("x^30+y^31+z^2+x^3*y^3*z", 306),
        ("x^300+y^301+z^2+x^200*y^150", 89700),
        ("x*y+z^2+x^3+y^3", 1),
    ] + [(text, (a - 1) * (b - 1) * (c - 1))
         for text, (a, b, c) in NONQH_LADDER])
    def test_hand_checked_values(self, text, nu):
        assert _newton_milnor(poly(text).exponents()) == nu

    def test_brieskorn_pham(self):
        for a, b, c in itertools.product(range(1, 10), repeat=3):
            f = poly(f"x^{a}+y^{b}+z^{c}")
            assert _newton_milnor(f.exponents()) == (a - 1) * (b - 1) * (c - 1)

    @pytest.mark.parametrize("text", [
        "x^2*y+y^4+z^3+x^3*y^2",          # no pure power of x
        "x^2+y^2",                        # none of z
        "x^3+y^3+z^3+x*y*z+x^4",          # a facet through 4 terms
        "(x+y)^2+z^4+y^3+y^2*z^2",        # x^2, x*y, y^2, z^4
        "y^6+x^3*y*z^2+x^5+x^3*z^2+z^5",  # random-set draw 35's support
    ])
    def test_uncertified_supports(self, text):
        assert _newton_milnor(poly(text).exponents()) is None

    @pytest.mark.parametrize("family, certified", [
        (WAHL_FAMILY, True), (NONSCALING, True),
        ("x^2+y^3+t*z^7+z^5", True),
        # x^2, x*y, y^2 and z^4 on one facet
        ("(x+y)^2+z^4+t*y^3+y^2*z^2", False)])
    def test_certified_fiber_seeks_no_multipliers(self, family, certified,
                                                  monkeypatch):
        # an A would only shortcut tau, which the certification basis gives
        calls = Counter()
        monkeypatch.setattr(singularity, "linear_jacobian_multipliers",
                            counting(calls, "multipliers",
                                     linear_jacobian_multipliers))
        f = substitute_parameter(parse(family, VARS + ("t",)), "t", 1)
        assert find_weights(f) is None
        analyze(f)
        assert calls["multipliers"] == (not certified)

    # the nonzero fibers of these families lie above the fiber at t = 0,
    # with the engine calls of analyze on each under both orders
    CERTIFIED_FAMILIES = {WAHL_FAMILY: (1, 19, 8, 1),
                          NONSCALING: (1, 21, 10, 1),
                          "x^2+y^3+t*z^7+z^5": (1, 10, 2, 1)}

    @pytest.mark.parametrize("family", list(CERTIFIED_FAMILIES) + [
        # t = 1 has a term at or below t = 0's degree: z^11 (mu 20, not
        # 24), x^7, or a changed coefficient of z^2
        "x^2+y^3+z^13+t*z^11", "z^2+y^3+x^10+t*x^7",
        "z^2+y^3+x^10+t*x^7*y+t*z^2"])
    @given(st.fractions(),
           st.sampled_from([MonomialOrder.grevlex(), MonomialOrder.lex()]))
    @example(Fraction(-8), MonomialOrder.lex())  # NONSCALING: off-origin
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_fiber_routes_agree(self, family, v, order):
        # the profile, or the rejection, of a family's fiber is the same
        # when the Newton route certifies nothing (multipliers or Lazard)
        f = substitute_parameter(parse(family, VARS + ("t",)), "t", v)
        newton = outcome(f, order)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(singularity, "_newton_milnor", lambda exps: None)
            assert outcome(f, order) == newton

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_call_counts(self, order, engine_calls):
        # a certified fiber runs its certification basis and its staircase
        # only: no early-stopped run, no multipliers, no Lazard basis
        for family, calls in self.CERTIFIED_FAMILIES.items():
            for v in (1, 2, -3):
                f = substitute_parameter(parse(family, VARS + ("t",)), "t",
                                         Fraction(v))
                engine_calls.clear()
                analyze(f, getattr(MonomialOrder, order)())
                assert tuple(engine_calls[name] for name in (
                    "buchberger", "reduce_full", "spoly",
                    "enumerate_staircase")) == calls
                assert engine_calls["_lazard_basis"] == 0

    @pytest.mark.parametrize("family", [WAHL_FAMILY, NONSCALING])
    def test_cap_applies_to_fibers(self, family, monkeypatch):
        # tau = 16 passes a cap of 17 on every nonzero fiber, mu = 18 does
        # not
        for v in (1, 2, -3):
            f = substitute_parameter(parse(family, VARS + ("t",)), "t",
                                     Fraction(v))
            monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "17")
            with pytest.raises(StaircaseLimitError,
                               match=r"enumeration cap \(17\)"):
                analyze(f)
            monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "18")
            p = analyze(f)
            assert (p.milnor, p.tjurina) == (18, 16)

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 6)] * n), min_size=n, max_size=n)))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_nullspace_solves_degree_one(self, triple):
        # the plane e·lam = 1 through exponents, by find_weights' integer
        # solver: one vector w with d = w·e != 0 exactly when e·lam = 1 has
        # one solution, and then lam = w/d
        lam = cramer_degree_one(triple)
        basis = _difference_nullspace(triple, len(triple))
        d = sum(map(operator.mul, basis[0], triple[0])) if basis else 0
        if len(basis) != 1 or not d:
            assert lam is None
        else:
            assert lam == tuple(Fraction(x, d) for x in basis[0])

    def test_cap_applies_to_the_closed_form(self, monkeypatch):
        # tau = 16 passes a cap of 17, mu = 18 does not
        f = poly("z^2+y^3+x^10+x^7*y")
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "17")
        with pytest.raises(StaircaseLimitError,
                           match=r"enumeration cap \(17\)"):
            analyze(f)
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "18")
        p = analyze(f)
        assert (p.milnor, p.tjurina) == (18, 16)


class TestDegenerate:
    def test_smooth(self):
        with pytest.raises(SmoothInput):
            analyze(poly("x"))

    def test_smooth_surface_with_off_surface_critical_point(self):
        # the origin is a critical point of f but not on {f=0}: smooth surface
        with pytest.raises(SmoothInput):
            analyze(poly("x^2+y^2+z^2-1"))

    def test_not_isolated(self):
        with pytest.raises(NotIsolatedError):
            analyze(poly("x*y"))

    def test_critical_circle_off_the_surface(self):
        # A1 point at the origin; f = -1 on the critical circle
        # x^2+y^2 = 1, z = 0, so the circle does not meet the surface
        p = analyze(poly("z^2+(x^2+y^2-1)^2-1"))
        assert (p.milnor, p.tjurina) == (1, 1)

    def test_multipliers_read_only_after_certification(self):
        f = poly("(x+y)^2*z^2")
        assert linear_jacobian_multipliers(f) is not None
        with pytest.raises(NotIsolatedError):
            analyze(f)

    def test_translated_singularity_rejected(self):
        with pytest.raises(SingularLocusNotAtOriginError):
            analyze(poly("(x-1)^2+y^2+z^2"))

    def test_deterministic(self):
        for text, exc in (("x", SmoothInput), ("x*y", NotIsolatedError),
                          ("0", NotIsolatedError), ("x-x", NotIsolatedError),
                          ("(x-1)^2+y^2+z^2", SingularLocusNotAtOriginError)):
            for _ in range(2):
                with pytest.raises(exc):
                    analyze(poly(text))
