import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bassinv import groebner, kernel, polynomials, singularity
from bassinv.errors import (NotIsolatedError, NotQuasiHomogeneousError,
                            SingularLocusNotAtOriginError, SmoothInput,
                            StaircaseLimitError)
from bassinv.groebner import (MonomialOrder, buchberger, quotient_dimension,
                              staircase, supported_only_at_origin)
from bassinv.polynomials import (Polynomial, WeightSystem, find_weights, parse,
                                 substitute_parameter)
from bassinv.singularity import (_genus_count, _local_staircase, analyze,
                                 geometric_genus_qh, jacobian_ideal,
                                 milnor_number, tjurina_number)

from conftest import CORPUS_TEXTS, VARS, poly


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


# x^a+y^b+z^c + q*x^i*y^j*z^k with i/a+j/b+k/c > 1: mu is the principal
# part's (a-1)(b-1)(c-1), but the Jacobian quotient has points away from the
# origin, so milnor_number takes the local-length path
NONQH_LADDER = (
    ("x^6+y^5+z^3+3/7*x^4*y^2", (6, 5, 3)),
    ("x^4+y^5+z^6-5*x^2*y^2*z", (4, 5, 6)),
    ("x^7+y^8+z^3+x^5*y^3", (7, 8, 3)),
    ("x^9+y^10+z^3+2*x^6*y^4", (9, 10, 3)),
    ("x^12+y^13+z^3-1/2*x^9*y^4", (12, 13, 3)),
)


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
        assert milnor_number(poly("x^2+y^2+z^2")) == 1

    def test_graded_fiber(self):
        assert milnor_number(poly("z^2+y^3+x^10")) == 18

    def test_deformed_fiber_frozen_regression(self):
        # derived value, frozen: the origin-local factor of the Jacobian
        # quotient (the global quotient has dimension 19, one extra critical
        # point of f away from the surface); confirmed by the truncation
        # oracle below
        assert milnor_number(poly("z^2+y^3+x^10+x^7*y")) == 18

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
        assert not supported_only_at_origin(basis, quotient_dimension(basis))
        a, b, c = shape
        assert milnor_number(f, order) == (a - 1) * (b - 1) * (c - 1)

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
        dim = quotient_dimension(basis)
        assume(dim is not None and not supported_only_at_origin(basis, dim))
        assert _local_staircase(gens).size == truncated_dimension(gens, dim)

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
            assert milnor_number(f) == expected

    @given(BP_SHAPES, MATRIX_ENTRIES)
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_brieskorn_pham_after_linear_change(self, shape, entries):
        f = brieskorn_pham_after_change(shape, entries)
        a, b, c = shape
        assert milnor_number(f) == (a - 1) * (b - 1) * (c - 1)

    @given(BP_SHAPES, MATRIX_ENTRIES,
           st.sampled_from([MonomialOrder.grevlex(), MonomialOrder.lex()]))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_tjurina_after_linear_change(self, shape, entries, order):
        # quasi-homogeneous, so tau = mu; after the change x_i^m no longer
        # reduces to 0 at once, so the support test has to step past it
        f = brieskorn_pham_after_change(shape, entries)
        a, b, c = shape
        assert tjurina_number(f, order) == (a - 1) * (b - 1) * (c - 1)


class TestTjurina:
    def test_graded_fiber(self):
        assert tjurina_number(poly("z^2+y^3+x^10")) == 18

    @pytest.mark.parametrize("a", [1, 2, Fraction(1, 2), -3])
    def test_deformed_fiber(self, a):
        fam = parse("z^2+y^3+x^10+t*x^7*y", VARS + ("t",))
        assert tjurina_number(substitute_parameter(fam, "t", a)) == 16

    def test_a1(self):
        assert tjurina_number(poly("x^2+y^2+z^2")) == 1

    def test_lex_gives_same_values(self):
        assert tjurina_number(poly("z^2+y^3+x^10+x^7*y"),
                              MonomialOrder.lex()) == 16


class TestGeometricGenus:
    def test_paper_value(self):
        ws = WeightSystem((3, 10, 15), 30)
        assert geometric_genus_qh(poly("z^2+y^3+x^10"), ws) == 1

    def test_a1_is_zero(self):
        assert geometric_genus_qh(poly("x^2+y^2+z^2"),
                                  WeightSystem((1, 1, 1), 2)) == 0

    def test_e12(self):
        # weights (6,14,21), d = 42, cutoff 1: only the constant monomial
        f = poly("z^2+y^3+x^7")
        ws = find_weights(f)
        assert ws == WeightSystem((6, 14, 21), 42)
        assert geometric_genus_qh(f, ws) == 1
        # cross-check by explicit enumeration of staircase degrees
        gb = buchberger(jacobian_ideal(f), MonomialOrder.weighted(ws.weights))
        degs = sorted(ws.weighted_degree(m) for m in staircase(gb).monomials)
        assert sum(1 for d in degs if d <= 1) == 1

    def test_cutoff_override(self):
        # the cutoff is d - (w1+w2+w3): degrees 27 and 62 on the weights
        # (3, 10, 15) move it to -1 and to 34, the top degree (x^8 y)
        stairs = _local_staircase(jacobian_ideal(poly("z^2+y^3+x^10")))
        assert _genus_count(stairs, WeightSystem((3, 10, 15), 27)) == 0
        assert _genus_count(stairs, WeightSystem((3, 10, 15), 62)) == 18
        assert _genus_count(stairs, WeightSystem((3, 10, 15), 61)) == 17

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
        local = _local_staircase(gens).monomials
        stairs = [staircase(buchberger(gens, order)).monomials
                  for order in (MonomialOrder.grevlex(), MonomialOrder.lex(),
                                MonomialOrder.weighted(ws.weights))]

        def count(monomials, cutoff):
            return sum(1 for m in monomials
                       if ws.weighted_degree(m) <= cutoff)

        top = max(ws.weighted_degree(m) for m in local)
        for cutoff in range(-1, top + 1):
            expected = count(local, cutoff)
            assert [count(m, cutoff) for m in stairs] == [expected] * 3
        assert count(local, top) == len(local) == milnor_number(f)
        assert geometric_genus_qh(f, ws) == count(local,
                                                  ws.degree - sum(ws.weights))

    def test_not_isolated_rejected(self):
        f = poly("x^2+y^2")
        with pytest.raises(ValueError):
            geometric_genus_qh(f, find_weights(f))

    def test_wrong_weights_reported(self):
        with pytest.raises(NotQuasiHomogeneousError):
            geometric_genus_qh(poly("z^2+y^3+x^10+x^7*y"),
                               WeightSystem((3, 10, 15), 30))


class TestAnalyze:
    def test_graded_fiber_profile(self):
        p = analyze(poly("z^2+y^3+x^10"))
        assert (p.milnor, p.tjurina) == (18, 18)
        assert p.weights == WeightSystem((3, 10, 15), 30)
        assert p.p_g == 1
        assert p.torsion_omega2_length == 18
        assert p.omega3_length == 18

    def test_deformed_fiber_profile(self):
        p = analyze(poly("z^2+y^3+x^10+x^7*y"))
        assert (p.milnor, p.tjurina) == (18, 16)
        assert p.weights is None and p.p_g is None
        assert p.torsion_omega2_length == 16
        assert p.omega3_length == 16

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

    # kernel calls (reduce_full, spoly, enumerate_staircase) that analyze
    # makes, as recorded before the kernel was rewritten: a faster kernel
    # must do the same operations, only cheaper
    KERNEL_CALLS = {
        ("x^2+y^2+z^2", "grevlex"): (16, 0, 2),
        ("x^2+y^2+z^2", "lex"): (16, 0, 2),
        ("z^2+y^3+x^10", "grevlex"): (16, 0, 2),
        ("z^2+y^3+x^10", "lex"): (16, 0, 2),
        ("z^2+y^3+x^10+x^7*y", "grevlex"): (34, 11, 2),
        ("z^2+y^3+x^10+x^7*y", "lex"): (34, 11, 2),
        ("z^2+y^3+x^7", "grevlex"): (16, 0, 2),
        ("z^2+y^3+x^7", "lex"): (16, 0, 2),
        ("x^3+y^4+z^5", "grevlex"): (16, 0, 2),
        ("x^3+y^4+z^5", "lex"): (16, 0, 2),
        ("x^2+y^3+z^3", "grevlex"): (16, 0, 2),
        ("x^2+y^3+z^3", "lex"): (16, 0, 2),
        ("x^3+y^3+z^3+x*y*z", "grevlex"): (36, 16, 2),
        ("x^3+y^3+z^3+x*y*z", "lex"): (39, 18, 2),
    }

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("text", CORPUS_TEXTS)
    def test_call_counts(self, text, order, monkeypatch):
        counts = count_engine_calls(monkeypatch)
        analyze(poly(text), getattr(MonomialOrder, order)())
        # one Jacobian, one certification basis, one Lazard basis, and no
        # monic generators: analyze reads only leads and term lists
        assert counts["partial_derivative"] == 3
        assert counts["buchberger"] == 2
        assert counts["_monic_from_raw"] == 0
        assert (counts["reduce_full"], counts["spoly"],
                counts["enumerate_staircase"]) == \
            self.KERNEL_CALLS[text, order]

    def test_variable_permutation_invariance(self):
        a = analyze(poly("z^2+y^3+x^10"))
        b = analyze(poly("x^2+z^3+y^10"))
        c = analyze(poly("y^2+x^3+z^10"))
        assert a.milnor == b.milnor == c.milnor == 18
        assert a.tjurina == b.tjurina == c.tjurina == 18
        assert a.p_g == b.p_g == c.p_g == 1
        assert sorted(b.weights.weights) == sorted(a.weights.weights)


def count_engine_calls(monkeypatch):
    """From here on, count calls of the kernel's three entry points (through
    a proxy for kernel.active) and of partial_derivative, buchberger and
    _monic_from_raw under every name the engine calls them by."""
    counts = Counter()
    impl = kernel.active()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    class Counting:
        def __getattr__(self, name):
            return getattr(impl, name)

    proxy = Counting()
    for name in ("reduce_full", "spoly", "enumerate_staircase"):
        setattr(proxy, name, counted(name, getattr(impl, name)))
    monkeypatch.setattr(kernel, "active", lambda: proxy)
    for module, name in ((polynomials, "partial_derivative"),
                         (singularity, "partial_derivative"),
                         (groebner, "buchberger"),
                         (singularity, "buchberger"),
                         (groebner, "_monic_from_raw")):
        monkeypatch.setattr(module, name,
                            counted(name, getattr(module, name)))
    return counts


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

    def test_translated_singularity_rejected(self):
        with pytest.raises(SingularLocusNotAtOriginError):
            analyze(poly("(x-1)^2+y^2+z^2"))

    def test_deterministic(self):
        for text, exc in (("x", SmoothInput), ("x*y", NotIsolatedError),
                          ("(x-1)^2+y^2+z^2", SingularLocusNotAtOriginError)):
            for _ in range(2):
                with pytest.raises(exc):
                    analyze(poly(text))
