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
other f reaches tau on the certification basis.  Both runs, and the one on
a principal part's partials, are groebner.jacobian_basis runs, which derive
the partials on f's packed integer terms; the partials are built as
Polynomials only for the Lazard basis.  The Milnor number is the
length of the origin-local factor of the Jacobian quotient, where critical
points of f away from the surface, which the deformed fibers of the shipped
family have, do not contribute.  It comes by one of four routes:
  * the caller's principal part: the closed form of a graded f_0 whose
    profile the caller passes, when every term of f - f_0 has weighted
    degree above f_0's (Arnold 1974), as a family run passes its graded
    fiber at t = 0 to the others;
  * multipliers: tau, when linear multipliers put f in its Jacobian ideal;
  * principal part: the closed form of f_0, when f is semi-quasi-homogeneous
    with an isolated principal part f_0 of weights w and degree d (Arnold
    1974), as the shipped family's nonzero fibers are;
  * Lazard: otherwise, a local standard basis computed by Lazard's
    homogenisation method (Lazard 1983; Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, 1.7).
"""

from collections import namedtuple
from itertools import product
from math import prod
from operator import mul

from .errors import (NotIsolatedError, SingularLocusNotAtOriginError,
                     SmoothInput, StaircaseLimitError)
from .groebner import (MonomialOrder, _staircase_cap, _standard_monomials,
                       buchberger, jacobian_basis, staircase,
                       supported_only_at_origin)
from .polynomials import (_difference_nullspace, _trusted, find_weights,
                          linear_jacobian_multipliers, low_difference,
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
    if length > max(cap, 1):
        raise StaircaseLimitError.over(cap)
    return length


def _principal_gradings(f):
    """Positive integer weights w and a degree d under which every term of
    f has weighted degree >= d; each grading once.

    An isolated graded f_0 has, for each variable x_i, a term x_i^a or
    x_i^a*x_j (Saito 1971).  If f_0 is the part of degree d of f, no term
    of f has lower degree, so that term is f's smallest pure power of x_i
    or its x_i^a*x_j with the least a.  The gradings are read off the
    triples of such terms, one term per variable: at most 3 candidates per
    variable, so at most 27 triples in Q[x,y,z].  A triple's grading is
    w and d = w·e on its terms e, for the _difference_nullspace vector w.
    The nullspace is one vector with d != 0 exactly when the terms'
    exponents are linearly independent, that is when e·lam = 1 on them has
    one solution, lam = w/d.  Other triples, and those whose weights are
    not all positive, give none; so does d < 0, since w is positive at its
    free column and -w is not.
    """
    n = len(f.variables)
    exps = f.exponents()
    candidates = []
    for i in range(n):
        least = {}  # key i: the pure power of x_i; key j: x_i^a*x_j
        for e in exps:
            rest = [j for j in range(n) if j != i and e[j]]
            if not e[i] or len(rest) > 1 or (rest and e[rest[0]] > 1):
                continue
            key = rest[0] if rest else i
            if key not in least or e[i] < least[key][i]:
                least[key] = e
        candidates.append([least[key] for key in sorted(least)])
    seen = set()
    for triple in product(*candidates):
        basis = _difference_nullspace(triple, n)
        if len(basis) != 1:
            continue
        w = basis[0]
        d = sum(map(mul, w, triple[0]))
        grading = tuple(w), d
        if d <= 0 or min(w) <= 0 or grading in seen:
            continue
        seen.add(grading)
        if all(sum(map(mul, w, e)) >= d for e in exps):
            yield w, d


def _principal_milnor(f, order, cap):
    """mu of f from a principal part, or None when none is found.

    f is semi-quasi-homogeneous when, under some grading of
    _principal_gradings, its part f_0 of least degree d is isolated; then
    mu(f) = mu(f_0) = prod(d/w_i - 1) (Arnold 1974), since f - f_0 has
    degree above d.  f_0 is isolated exactly when the Euler route's
    Buchberger run on its partials stops at pure-power leads.
    Each variable has a term in f_0, and differentiation is one-to-one on
    the terms it does not kill, so the partials of f_0 are those of f cut
    to their least weighted degree, and none of them is zero.
    """
    terms = f.term_map()
    for w, d in _principal_gradings(f):
        f_0 = _trusted({e: c for e, c in terms.items()
                        if sum(map(mul, w, e)) == d}, f.variables)
        if jacobian_basis(f_0, order, with_f=False,
                          until_finite=True) is None:
            return _graded_length(w, d, cap)
    return None


def _lies_above(f, principal):
    """Whether `principal`, the profile of a graded f_0 of weights w and
    degree d in f's ring, is a principal part of f: every term of f - f_0
    has weighted degree above d, so f_0 is f's part of least degree.  f_0
    is isolated, since analyze returned its profile."""
    return (principal is not None and principal.weights is not None
            and principal.f.variables == f.variables
            and low_difference(f, principal.f, principal.weights) is None)


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


def analyze(f, order=None, principal=None):
    """Full numerical profile: mu, tau, and for a graded f weights and p_g.

    One pipeline.  The BASSINV_MAX_STAIRCASE cap is read first, so a
    malformed one is a UsageError before any basis.  `principal` may be
    the profile analyze returned for a graded f_0 in f's ring.  When f is
    not graded and lies above it (every term of f - f_0 has weighted degree
    above f_0's degree d; _lies_above checks this, so any other hint is
    ignored), f_0 is f's principal part and no multipliers are sought:
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
    SingularLocusNotAtOriginError.  mu then takes one of four routes:
      * the caller's principal part: when f lies above `principal`, mu is
        its closed form _graded_length, which is principal.milnor (Arnold
        1974), with the cap that tau has; the principal part route below
        gives the same, since mu does not depend on which principal part
        is found;
      * multipliers: mu is tau when there is an A, since then (f) + J = J;
        the certificate is sufficient, not necessary: (x+y^2)^2+y^3+z^5 has
        mu = tau but no A;
      * principal part: without an A, mu is the closed form of an isolated
        principal part when _principal_milnor finds one, with the cap that
        tau has;
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
    a = grading = None
    above = ws is None and _lies_above(f, principal)
    if ws is not None:
        grading = ws
    elif not above:
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
    elif above:
        mu = _graded_length(*principal.weights, cap)
    else:
        mu = _principal_milnor(f, order, cap)
        if mu is None:
            mu = _local_staircase(jacobian_ideal(f)).size
    p_g = None if ws is None else _lattice_genus(
        ws.weights, ws.degree - sum(ws.weights))
    return SingularityProfile(f, mu, tau, ws, p_g)
