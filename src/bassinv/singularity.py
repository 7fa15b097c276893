"""Numerical profile of an isolated hypersurface surface singularity.

analyze runs one pipeline on every input.  tau is the length of the
quotient by (f) + Jacobian ideal, which must be finite-dimensional and
supported at the origin (certification on the singular locus of the
surface); one rejection block turns an infinite, a zero or an off-origin
quotient into its error.  A quasi-homogeneous f, and every linear change of
one whose Jacobian multipliers have positive rational eigenvalues, reaches
tau by the Euler route: one Buchberger run on the partials, stopped at the
first pure-power leads, proves the quotient finite, and tau and p_g come
from closed forms (Milnor-Orlik 1970; Saito 1971), with no staircase.  Any
other f reaches tau on the certification basis.  The Milnor number is the
length of the origin-local factor of the Jacobian quotient: it is tau when
linear multipliers put f in its Jacobian ideal, and otherwise it is read
off a local standard basis computed by Lazard's homogenisation method
(Lazard 1983; Greuel-Pfister, A Singular Introduction to Commutative
Algebra, 1.7), where critical points of f away from the surface, which the
deformed fibers of the shipped family have, do not contribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import (NotIsolatedError, SingularLocusNotAtOriginError,
                     SmoothInput, StaircaseLimitError)
from .groebner import (MonomialOrder, _staircase_cap, _standard_monomials,
                       buchberger, staircase, supported_only_at_origin)
from .polynomials import (Polynomial, WeightSystem, find_weights,
                          linear_jacobian_multipliers, partial_derivative,
                          positive_rational_eigenvalues)


@dataclass(frozen=True)
class SingularityProfile:
    f: Polynomial
    milnor: int
    tjurina: int
    weights: WeightSystem | None
    p_g: int | None


def jacobian_ideal(f):
    """The three partial derivatives of f."""
    if len(f.variables) != 3:
        raise ValueError("expected a polynomial in 3 variables")
    return [partial_derivative(f, i) for i in range(3)]


# -- origin-local staircase ---------------------------------------------------

def _local_staircase(generators):
    """Staircase of Q[x]_(x) / (generators), the origin-local factor.

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
    return _standard_monomials(leads, len(generators[0].variables))


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
    return buchberger(homogenised, order)


# -- geometric genus and the full profile -------------------------------------

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
    """Full numerical profile: mu, tau, and for a graded f weights and p_g.

    One pipeline.  The BASSINV_MAX_STAIRCASE cap is read first, so a
    malformed one is a UsageError before any basis.  Then the multipliers A
    of f = sum_ij A[i][j] x_j df/dx_i are sought: diag(w)/d for a graded f
    (find_weights gives weights w, degree d), else
    linear_jacobian_multipliers(f).  An A puts f in its Jacobian ideal J.
    tau, or None for an infinite quotient, comes from one of two routes:
      * Euler, when A's eigenvalues lam are positive rationals and A is
        diagonalisable over Q (positive_rational_eigenvalues).  With
        A*L = L*diag(lam), g = f o L satisfies g = sum lam_i y_i dg/dy_i, so
        g is graded of weights lam and J is its Jacobian ideal after a
        linear change.  A Buchberger run on the partials stops as soon as
        its leads hold a pure power of every variable, which proves J of
        finite colength; a weighted cone of finite colength has the origin
        alone as zero set.  The partials of g then form a regular sequence,
        whose Hilbert series gives tau = prod(1/lam_i - 1) (Milnor-Orlik
        1970), capped as a staircase is.  A run that ends without the pure
        powers has built the basis of J = (f) + J, so tau is None.
      * certification otherwise: tau is the staircase of the basis of
        (f) + J.
    One rejection block follows: None is NotIsolatedError, 0 SmoothInput,
    and a certification basis whose variables are not all nilpotent
    SingularLocusNotAtOriginError.  mu is tau when there is an A, since
    then (f) + J = J, and else the origin-local staircase
    (_local_staircase); the certificate is sufficient, not necessary:
    (x+y^2)^2+y^3+z^5 has mu = tau but no A.  For a graded f, p_g is the
    lattice count _lattice_genus, which the cap bounds since p_g <= tau;
    otherwise weights and p_g are None.
    """
    cap = _staircase_cap()
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
    basis = tau = None
    if lam is None:
        basis = buchberger([f] + partials, order)
        tau = staircase(basis).size
    elif buchberger(partials, order, until_finite=True) is None:
        tau = prod(1 / x - 1 for x in lam)
        assert tau.denominator == 1  # a regular sequence's Hilbert series
        tau = tau.numerator
        if tau > max(cap, 1):
            raise StaircaseLimitError.over(cap)
    if tau is None:
        raise NotIsolatedError(
            "the singular locus of {f=0} is positive-dimensional")
    if tau == 0:
        raise SmoothInput("the hypersurface {f=0} is smooth")
    if basis is not None and not supported_only_at_origin(basis, tau):
        raise SingularLocusNotAtOriginError(
            "the singular locus of {f=0} is not the origin")
    mu = (tau if ws is not None or a is not None
          else _local_staircase(partials).size)
    p_g = None if ws is None else _lattice_genus(
        ws.weights, ws.degree - sum(ws.weights))
    return SingularityProfile(f, mu, tau, ws, p_g)
