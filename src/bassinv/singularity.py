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
other f reaches tau on the certification basis.  Both runs are
groebner.jacobian_basis runs, which derive the partials on f's packed
integer terms; the partials are built as Polynomials only for the Lazard
basis.  The Milnor number is the length of the origin-local factor of the
Jacobian quotient, where critical points of f away from the surface, which
the deformed fibers of the shipped family have, do not contribute.  It
comes by one of three routes:
  * multipliers: tau, when linear multipliers put f in its Jacobian ideal;
  * Newton: Kouchnirenko's Newton number of f's support, when f has a pure
    power of each variable and every compact facet of its Newton polyhedron
    holds exactly three terms, which makes f Newton non-degenerate whatever
    its coefficients (Kouchnirenko 1976), as the shipped family's nonzero
    fibers do;
  * Lazard: otherwise, a local standard basis computed by Lazard's
    homogenisation method (Lazard 1983; Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, 1.7).
"""

from collections import namedtuple
from itertools import combinations
from math import prod
from operator import mul

from .errors import (NotIsolatedError, SingularLocusNotAtOriginError,
                     SmoothInput, StaircaseLimitError)
from .groebner import (MonomialOrder, _staircase_cap, _standard_monomials,
                       buchberger, jacobian_basis, staircase,
                       supported_only_at_origin)
from .polynomials import (_trusted, find_weights, linear_jacobian_multipliers,
                          partial_derivative, positive_rational_eigenvalues)


# weights is a WeightSystem and p_g an int, both None when f is not graded
SingularityProfile = namedtuple("SingularityProfile",
                                "f milnor tjurina weights p_g")


def _check_surface(f):
    if len(f.variables) != 3:
        raise ValueError("expected a polynomial in 3 variables")


def jacobian_ideal(f):
    """The three partial derivatives of f."""
    _check_surface(f)
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
        homogenised.append(_trusted(
            {(top - sum(e),) + e: c for e, c in g.term_map().items()}, ring))
    order = MonomialOrder.weighted((2,) + (1,) * len(variables))
    return buchberger(homogenised, order)


# -- closed forms --------------------------------------------------------------

def _graded_length(weights, degree, cap):
    """prod(d/w_i - 1) for positive integer weights w and an integer
    degree d, capped as a staircase is.

    This is dim Q[x]/J for the Jacobian ideal J of an isolated f graded of
    weights w and degree d (Milnor-Orlik 1970): its partials form a regular
    sequence, whose Hilbert series gives the product.  It is formed as
    prod(d - w_i) / prod(w_i) by one exact division, so it depends only on
    the ratios w_i/d: the weights need not have gcd 1.  Past max(cap, 1)
    StaircaseLimitError is raised, as the enumeration does.
    """
    length, rest = divmod(prod(degree - w for w in weights), prod(weights))
    assert not rest  # a regular sequence's Hilbert series
    return _capped(length, cap)


def _capped(length, cap):
    """length, or StaircaseLimitError past max(cap, 1), as a staircase
    enumeration refuses."""
    if length > max(cap, 1):
        raise StaircaseLimitError.over(cap)
    return length


def _newton_milnor(terms):
    """Kouchnirenko's Newton number nu of the support `terms`, exponent
    triples such as a term map's keys, or None when the support does not
    certify mu = nu.

    mu = nu = 6*V_3 - 2*V_2 + V_1 - 1 for f convenient and Newton
    non-degenerate (Kouchnirenko 1976): V_3 is the volume under the compact
    boundary of the Newton polyhedron, V_2 the sum of the areas under it in
    the coordinate planes, and V_1 = a + b + c for the least pure powers
    x^a, y^b, z^c, whose presence is convenience.  A compact facet holding
    exactly three support points is a triangle with independent vertices
    (its level h is positive), so every face polynomial on it has
    independent exponents and x_i*df_s/dx_i = 0 has no solution in the
    torus.  Every compact face lies in a compact facet, so when every facet
    holds three points f is non-degenerate whatever its coefficients; a
    facet with more gives None.

    A point e strictly above the plane P through the pure powers is
    e/s + (1 - 1/s)*e with s > 1 and e/s in their triangle, so it lies
    strictly above every compact facet: only the points on or below P are
    searched.  A triple of them spans a compact facet when its normal
    n = (q - p) x (r - p) is positive, after a sign, and no point lies below
    its level h = n.p = |det(p, q, r)|, 6 times the volume of the cone over
    it.  Its edges in a coordinate plane, each bounding no other compact
    facet, give 2*V_2 by their 2 x 2 determinants.
    """
    least = [0, 0, 0]
    for e in terms:
        if e.count(0) == 2:  # a pure power
            s = sum(e)
            i = e.index(s)
            if not least[i] or s < least[i]:
                least[i] = s
    a, b, c = least
    if not (a and b and c):
        return None
    bc, ac, ab = b * c, a * c, a * b
    low = [e for e in terms if bc * e[0] + ac * e[1] + ab * e[2] <= ab * c]
    nu = a + b + c - 1
    for p, q, r in combinations(low, 3):
        (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = p, q, r
        u0, u1, u2 = q0 - p0, q1 - p1, q2 - p2
        v0, v1, v2 = r0 - p0, r1 - p1, r2 - p2
        n = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
        if max(n) < 0:
            n = (-n[0], -n[1], -n[2])
        if min(n) <= 0:
            continue
        h = sum(map(mul, n, p))
        heights = [sum(map(mul, n, e)) for e in low]
        if min(heights) < h:
            continue
        if heights.count(h) > 3:
            return None
        nu += h
        for k in range(3):
            edge = [e for e in (p, q, r) if not e[k]]
            if len(edge) == 2:
                s, t = edge
                nu -= abs(s[k - 2] * t[k - 1] - s[k - 1] * t[k - 2])
    return nu


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
    malformed one is a UsageError before any basis.  For an f that is not
    graded, the Newton number nu of its support is tried first
    (_newton_milnor); when it certifies mu = nu, no multipliers are sought:
    an A only shortcuts tau and certifies mu = tau, and the certification
    basis gives tau exactly on every input.  Otherwise the multipliers A of
    f = sum_ij A[i][j] x_j df/dx_i are sought: diag(w)/d for a graded f
    (find_weights gives weights w, degree d), else
    linear_jacobian_multipliers(f), which gives A = B/D in integers.  An A
    puts f in its Jacobian ideal J.  tau, or None for an infinite quotient,
    comes from one of two routes:
      * Euler, on an integer grading (w, d): find_weights' own for a graded
        f, else the eigenvalues s_i/D of A as (s, D), when they are
        positive rationals and A is diagonalisable over Q
        (positive_rational_eigenvalues).  With A*L = L*diag(s)/D,
        g = f o L satisfies D*g = sum s_i y_i dg/dy_i, so g is graded of
        weights s and degree D, and J is its Jacobian ideal after a linear
        change.  A Buchberger run on the partials stops as soon as its
        leads hold a pure power of every variable, which proves J of finite
        colength; a weighted cone of finite colength has the origin alone
        as zero set.  The partials of g then form a regular sequence, whose
        Hilbert series gives tau = prod(d/w_i - 1) (Milnor-Orlik 1970;
        _graded_length), capped as a staircase is.  A run that ends without
        the pure powers has built the basis of J = (f) + J, so tau is None.
      * certification otherwise: tau is the staircase of the basis of
        (f) + J.
    One rejection block follows: None is NotIsolatedError, 0 SmoothInput,
    and a certification basis whose variables are not all nilpotent
    SingularLocusNotAtOriginError.  mu then takes one of three routes:
      * multipliers: mu is tau when there is an A, since then (f) + J = J;
        the certificate is sufficient, not necessary: (x+y^2)^2+y^3+z^5 has
        mu = tau but no A;
      * Newton: mu is nu, with the cap that tau has;
      * Lazard: otherwise mu is the origin-local staircase
        (_local_staircase).
    For a graded f, p_g is the lattice count _lattice_genus, which the cap
    bounds since p_g <= tau; otherwise weights and p_g are None.
    """
    cap = _staircase_cap()
    _check_surface(f)
    order = order or MonomialOrder.grevlex()
    # find_weights refuses f = 0, which the certification rejects as not
    # isolated
    ws = None if f.is_zero() else find_weights(f)
    a = nu = None
    grading = ws
    if ws is None:
        nu = _newton_milnor(f.term_map())
        if nu is None:
            a = linear_jacobian_multipliers(f)
            grading = None if a is None else positive_rational_eigenvalues(*a)
    basis = tau = None
    if grading is None:
        basis = jacobian_basis(f, order, with_f=True)
        tau = staircase(basis).size
    elif jacobian_basis(f, order, with_f=False, until_finite=True) is None:
        tau = _graded_length(*grading, cap)
    if tau is None:
        raise NotIsolatedError(
            "the singular locus of {f=0} is positive-dimensional")
    if tau == 0:
        raise SmoothInput("the hypersurface {f=0} is smooth")
    if basis is not None and not supported_only_at_origin(basis, tau):
        raise SingularLocusNotAtOriginError(
            "the singular locus of {f=0} is not the origin")
    if ws is not None or a is not None:
        mu = tau
    elif nu is not None:
        mu = _capped(nu, cap)
    else:
        mu = _local_staircase(jacobian_ideal(f)).size
    p_g = None if ws is None else _lattice_genus(
        ws.weights, ws.degree - sum(ws.weights))
    return SingularityProfile(f, mu, tau, ws, p_g)
