import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from bassinv import kernel
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
