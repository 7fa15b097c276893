"""Numerical profile of an isolated hypersurface surface singularity.

Certification happens on the singular locus of the surface: the quotient by
(f) + Jacobian ideal must be finite-dimensional and supported at the origin.
The Milnor number is the length of the origin-local factor of the Jacobian
quotient.  For a quasi-homogeneous f it equals the Tjurina number, and p_g
is counted on the certification staircase, so one Groebner basis serves the
whole analysis (see analyze).  So it does for an f that lies in its
Jacobian ideal with linear multipliers, as every linear change of a
quasi-homogeneous f does, though p_g is then not reported.  Otherwise mu is
read off a local standard basis computed by Lazard's homogenisation method
(Lazard 1983; Greuel-Pfister, A Singular Introduction to Commutative
Algebra, 1.7), and critical points of f away from the surface, which the
deformed fibers of the shipped family have, do not contribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (NotIsolatedError, NotQuasiHomogeneousError,
                     SingularLocusNotAtOriginError, SmoothInput)
from .groebner import (MonomialOrder, _standard_monomials, buchberger,
                       staircase, supported_only_at_origin)
from .polynomials import (Polynomial, WeightSystem, euler_identity_check,
                          find_weights, linear_jacobian_multipliers,
                          partial_derivative)


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
        raise NotIsolatedError(
            "the singular locus of {f=0} is positive-dimensional")
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

    The number of standard monomials of the Jacobian ideal of weighted degree
    at most d - (w1+w2+w3), counted on the staircase of its grevlex basis
    (see _genus_count for why a global order gives the graded count).
    """
    if not euler_identity_check(f, ws):
        raise NotQuasiHomogeneousError(
            "the weight system does not satisfy the Euler identity for f")
    return _genus_count(staircase(buchberger(jacobian_ideal(f))), ws)


def _genus_count(stairs, ws):
    """Monomials of weighted degree <= d - (w1+w2+w3) on a finite staircase.

    The Jacobian ideal of a quasi-homogeneous f is weighted-homogeneous, and
    primary to the maximal ideal when the singularity is isolated, so the
    standard monomials of any monomial order, local ones included, have the
    graded quotient's Hilbert function and the count is the graded one.
    (The reduced basis of a weighted-homogeneous ideal is weighted-
    homogeneous in every order, so its standard monomials of each weighted
    degree span that degree's part of the quotient.)
    """
    if not stairs.is_finite:
        raise ValueError("the geometric genus needs an isolated singularity")
    cutoff = ws.degree - sum(ws.weights)
    return sum(1 for m in stairs.monomials if ws.weighted_degree(m) <= cutoff)


def analyze(f, order=None):
    """Full numerical profile: mu, tau, weights, p_g, torsion lengths.

    For a quasi-homogeneous f (find_weights gives weights w, degree d) the
    certification basis is the only Groebner basis computed:
      1. Euler's identity d*f = sum w_i x_i df/dx_i puts f in the Jacobian
         ideal J, so the certified quotient is Q[x,y,z]/J and tau is its
         dimension;
      2. J is weighted-homogeneous, so its zero set is a cone; the quotient
         is finite, so that set is finite, hence the origin alone, and the
         global length tau is the origin-local length mu;
      3. the reduced basis of J is weighted-homogeneous in every monomial
         order, so the certification staircase has the graded Hilbert
         function and p_g is counted on it (_genus_count).
    Without weights, linear_jacobian_multipliers may still give an A with
    f = sum_ij A[i][j] x_j df/dx_i (every linear change of a
    quasi-homogeneous f has one).  A puts f in J, so the certified quotient
    is again Q[x,y,z]/J; the certification proved it finite and supported
    at the origin alone, so its global length tau is the origin-local
    length mu.  weights and p_g stay None.  The certificate is read only
    after the certification has passed, and is sufficient, not necessary:
    (x+y^2)^2+y^3+z^5 has mu = tau but no A.
    Otherwise mu comes from the origin-local staircase (_local_staircase).
    The Jacobian ideal is built once.  The lengths of the degree-3 forms
    module and of the torsion of the degree-2 forms both equal tau for
    these singularities, so they are reported from it directly.
    """
    order = order or MonomialOrder.grevlex()
    partials = jacobian_ideal(f)
    stairs = _certify_tjurina(f, partials, order)
    tau = stairs.size
    ws = find_weights(f)
    if ws is not None:
        mu, p_g = tau, _genus_count(stairs, ws)
    elif linear_jacobian_multipliers(f) is not None:
        mu, p_g = tau, None
    else:
        mu, p_g = _local_staircase(partials).size, None
    return SingularityProfile(
        f=f, milnor=mu, tjurina=tau, weights=ws, p_g=p_g,
        torsion_omega2_length=tau, omega3_length=tau)
