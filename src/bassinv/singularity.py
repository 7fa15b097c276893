"""Numerical profile of an isolated hypersurface surface singularity.

Certification happens on the singular locus of the surface: the quotient by
(f) + Jacobian ideal must be finite-dimensional and supported at the origin.
The Milnor number is the length of the origin-local factor of the Jacobian
quotient.  A quasi-homogeneous f, and every linear change of one whose
Jacobian multipliers have positive rational eigenvalues, takes the Euler
route of analyze: one Buchberger run on the partials, stopped at the first
pure-power leads, proves the quotient finite, and tau = mu and p_g come
from closed forms (Milnor-Orlik 1970; Saito 1971), with no staircase.  An
f that lies in its Jacobian ideal with other linear multipliers has
mu = tau on the certification basis.  Otherwise mu is read off a local
standard basis computed by Lazard's homogenisation method (Lazard 1983;
Greuel-Pfister, A Singular Introduction to Commutative Algebra, 1.7), and
critical points of f away from the surface, which the deformed fibers of
the shipped family have, do not contribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import (NotIsolatedError, NotQuasiHomogeneousError,
                     SingularLocusNotAtOriginError, SmoothInput,
                     StaircaseLimitError)
from .groebner import (MonomialOrder, _staircase_cap, _standard_monomials,
                       buchberger, staircase, supported_only_at_origin)
from .polynomials import (Polynomial, WeightSystem, euler_identity_check,
                          find_weights, linear_jacobian_multipliers,
                          partial_derivative, positive_rational_eigenvalues)


@dataclass(frozen=True)
class SingularityProfile:
    f: Polynomial
    milnor: int
    tjurina: int
    weights: WeightSystem | None
    p_g: int | None
    torsion_omega2_length: int
    omega3_length: int


def jacobian_ideal(f):
    """The three partial derivatives of f."""
    if len(f.variables) != 3:
        raise ValueError("expected a polynomial in 3 variables")
    return [partial_derivative(f, i) for i in range(3)]


_POSITIVE_DIMENSIONAL = "the singular locus of {f=0} is positive-dimensional"


def _certify_tjurina(f, partials, order):
    """Groebner basis of (f) + Jacobian ideal, certified isolated-at-origin.

    `partials` is jacobian_ideal(f).  Returns the basis' Staircase, whose
    size is tau.  Raises NotIsolatedError, SmoothInput, or
    SingularLocusNotAtOriginError.
    """
    basis = buchberger([f] + partials, order)
    stairs = staircase(basis)
    dim = stairs.size
    if dim is None:
        raise NotIsolatedError(_POSITIVE_DIMENSIONAL)
    if dim == 0:
        raise SmoothInput("the hypersurface {f=0} is smooth")
    if not supported_only_at_origin(basis, dim):
        raise SingularLocusNotAtOriginError(
            "the singular locus of {f=0} is not the origin")
    return stairs


def tjurina_number(f, order=None):
    """length of Q[x,y,z]/((f) + Jacobian ideal), the Tjurina number."""
    order = order or MonomialOrder.grevlex()
    return _certify_tjurina(f, jacobian_ideal(f), order).size


def milnor_number(f, order=None):
    """Milnor number at the origin: analyze(f, order).milnor.

    The length of the origin-local factor of the Jacobian quotient; it does
    not depend on `order`.  Critical points of f away from {f=0} do not
    contribute.
    """
    return analyze(f, order).milnor


# -- origin-local staircase ---------------------------------------------------

def _local_staircase(generators):
    """Standard monomials of Q[x]_(x) / (generators), the origin-local factor.

    Lazard's method (Lazard 1983; Greuel-Pfister, A Singular Introduction to
    Commutative Algebra, 1.7): dropping t from the leads of _lazard_basis
    gives the leads of a standard basis for the local degree order ds, whose
    standard monomials span the local factor; their number is its length.
    The staircase is infinite when the length is.

    For the Jacobian ideal of f the length is finite once the Tjurina
    certification has passed: f is constant on each component of its
    critical locus, so a component through 0 lies in {f=0} and hence in the
    singular locus of the surface, which the certification showed to be the
    point 0.  The other components, where f is a nonzero constant, may be
    positive-dimensional; they miss the origin and do not count.
    """
    leads = [e[1:] for e in _lazard_basis(generators).leading_exponents()]
    return _standard_monomials(leads, len(generators[0].variables),
                               MonomialOrder.grevlex())


def _lazard_basis(generators):
    """Basis of the generators homogenised with a fresh first variable t.

    The order puts, on each total degree, more t first and breaks ties by
    grevlex: weights (2, 1, ..., 1) do that, and since the basis is
    homogeneous only that restriction matters.
    """
    variables = generators[0].variables
    ring = ("_h",) + variables  # "_h" only names the t slot
    homogenised = []
    for g in generators:
        top = g.total_degree()
        homogenised.append(Polynomial(
            {(top - sum(e),) + e: c for e, c in g.term_map().items()}, ring))
    order = MonomialOrder.weighted((2,) + (1,) * len(variables))
    return buchberger(homogenised, order, ring)


# -- geometric genus and the full profile -------------------------------------

def geometric_genus_qh(f, ws):
    """Geometric genus of a quasi-homogeneous isolated singularity.

    After checking Euler's identity for `ws`, the closed forms of analyze's
    Euler route (_closed_forms) show the singularity isolated, cap its tau,
    and count p_g on the lattice.
    """
    if not euler_identity_check(f, ws):
        raise NotQuasiHomogeneousError(
            "the weight system does not satisfy the Euler identity for f")
    lam = [Fraction(w, ws.degree) for w in ws.weights]
    forms = _closed_forms(jacobian_ideal(f), MonomialOrder.grevlex(), lam, ws)
    if forms is None:
        raise ValueError("the geometric genus needs an isolated singularity")
    return forms[1]


def _closed_forms(partials, order, lam, ws):
    """(tau, p_g) by steps 2 and 3 of analyze's Euler route, or None.

    `lam` are the eigenvalues of f's Jacobian multipliers and `ws` f's
    weights, None after a linear change (p_g is then None too).  None when
    the run on the partials ends without pure-power leads: the Jacobian
    ideal is then not of finite colength.  tau past BASSINV_MAX_STAIRCASE
    raises StaircaseLimitError before p_g <= tau is counted.
    """
    if buchberger(partials, order, until_finite=True) is not None:
        return None
    tau = prod(1 / x - 1 for x in lam)
    assert tau.denominator == 1  # a regular sequence's Hilbert series
    tau = tau.numerator
    cap = _staircase_cap()
    if tau > max(cap, 1):
        raise StaircaseLimitError.over(cap)
    p_g = None if ws is None else _lattice_genus(
        ws.weights, ws.degree - sum(ws.weights))
    return tau, p_g


def _lattice_genus(weights, budget):
    """#{e >= 0 componentwise : weights . e <= budget}.

    With `budget` d - (w1+w2+w3) this is p_g of an isolated f of weights w
    and degree d, #{m >= 1 : w . m <= d} (take m = e + 1): each generator
    of its Jacobian ideal J has weighted degree d - w_i > d - (w1+w2+w3),
    so up to that degree Q[x,y,z]/J is the polynomial ring, whose
    monomials are the x^e.
    """
    w, rest = weights[0], weights[1:]
    if not rest:
        return max(budget // w + 1, 0)
    return sum(_lattice_genus(rest, budget - w * i)
               for i in range(budget // w + 1))


def analyze(f, order=None):
    """Full numerical profile: mu, tau, weights, p_g, torsion lengths.

    The Euler route covers a quasi-homogeneous f (find_weights gives
    weights w, degree d) and every linear change of one.  It takes the
    multipliers A of f = sum_ij A[i][j] x_j df/dx_i: diag(w)/d for a graded
    f, else linear_jacobian_multipliers(f).  It applies when A's eigenvalues
    lam are positive rationals and A is diagonalisable over Q
    (positive_rational_eigenvalues), and builds no staircase:
      1. with A*L = L*diag(lam), g = f o L satisfies g = sum lam_i y_i dg/dy_i,
         so g is graded of weights lam, A puts f in its Jacobian ideal J, and
         J is the Jacobian ideal of g after a linear change;
      2. a Buchberger run on the partials alone stops as soon as its leads
         hold a pure power of every variable, which proves J of finite
         colength.  J is then a weighted cone of finite colength, so its
         zero set is the origin alone, and f in J makes (f) + J = J:
         tau = mu = dim Q[x,y,z]/J.  The partials of g then form a regular
         sequence, and its Hilbert series gives the dimension
         prod(1/lam_i - 1) (Milnor-Orlik 1970).  tau = 0 is the smooth
         case, and BASSINV_MAX_STAIRCASE caps tau as it caps a staircase;
      3. for a graded f, p_g is the lattice count _lattice_genus.  After a
         change, weights and p_g stay None.
    Steps 2 and 3 are _closed_forms, which geometric_genus_qh shares.  A run
    that ends without pure powers has built the reduced basis of J, which
    is that of (f) + J, and lacks a pure power of some variable: f is
    rejected as not isolated, with no second basis.  Off the route (no A, or eigenvalues that are irrational, not
    positive or not diagonalisable) the certification builds the basis of
    (f) + J and proves it finite and supported at the origin.  An A still
    puts f in J, so mu = tau; the certificate is sufficient, not necessary:
    (x+y^2)^2+y^3+z^5 has mu = tau but no A.  Without A, mu comes from the
    origin-local staircase (_local_staircase).
    The Jacobian ideal and A are built once.  The lengths of the degree-3
    forms module and of the torsion of the degree-2 forms both equal tau
    for these singularities, so they are reported from it directly.
    """
    order = order or MonomialOrder.grevlex()
    partials = jacobian_ideal(f)
    # find_weights refuses f = 0, which the certification rejects as not
    # isolated
    ws = None if f.is_zero() else find_weights(f)
    if ws is not None:
        a, lam = None, [Fraction(w, ws.degree) for w in ws.weights]
    else:
        a = linear_jacobian_multipliers(f)
        lam = None if a is None else positive_rational_eigenvalues(a)
    if lam is not None:
        forms = _closed_forms(partials, order, lam, ws)
        if forms is None:
            raise NotIsolatedError(_POSITIVE_DIMENSIONAL)
        tau, p_g = forms
        if tau == 0:
            raise SmoothInput("the hypersurface {f=0} is smooth")
        return _profile(f, tau, tau, ws, p_g)
    tau = _certify_tjurina(f, partials, order).size
    mu = tau if a is not None else _local_staircase(partials).size
    return _profile(f, mu, tau, None, None)


def _profile(f, mu, tau, ws, p_g):
    return SingularityProfile(
        f=f, milnor=mu, tjurina=tau, weights=ws, p_g=p_g,
        torsion_omega2_length=tau, omega3_length=tau)
